//! The `fuzz_campaign` workload: one `leakfuzz` campaign over the `full`
//! space at the CLI's default size, run in-process through
//! `campaign::run`, with its campaign seed drawn from the run seed.
//!
//! An untraced run repeats the campaign into fresh directories while
//! another pass fits in the budget and reports medians over those
//! identical passes. The traced run calls `exec::evaluate`,
//! `minimize::minimize`, `emit::replay`, `mutate::mutate` and
//! `oracle::judge` on the campaign's own candidates with
//! `campaign::eval_seed`.
//!
//! `BENCHMARK.json` does not list this workload: a campaign's cost
//! depends on the mutants its seed draws (see the README). Every traced
//! run of a listed workload measures the fuzz layer with a traced tour
//! of this workload.

use crate::trace::{self, Recorder, SpanId};
use crate::util::{self, median, Scratch};
use crate::Report;
use metaleak_bench::json::Json;
use metaleak_bench::supervisor::{Journal, SupervisorPolicy, TrialOutcome};
use metaleak_fuzz::campaign::{self, CampaignReport, CampaignSettings};
use metaleak_fuzz::corpus::CandidateRecord;
use metaleak_fuzz::emit::{self, Reproducer};
use metaleak_fuzz::{exec, minimize, mutate, oracle};
use metaleak_sim::rng::SimRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// `leakfuzz campaign` defaults: candidates, batch and trials.
const CANDIDATES: usize = 48;
const BATCH: usize = 8;
const TRIALS: usize = 4;
/// Evaluation workers: the two cores of the reference box.
const THREADS: usize = 2;

/// The supervision `leakfuzz campaign` applies with no `METALEAK_TRIAL_*`
/// variables set: one retry after a 25 ms backoff.
fn policy() -> SupervisorPolicy {
    SupervisorPolicy {
        retries: 1,
        backoff_ms: SupervisorPolicy::DEFAULT_BACKOFF_MS,
        ..SupervisorPolicy::default()
    }
}

fn campaign_seed(seed: u64) -> u64 {
    SimRng::seed_from(seed).split(crate::PROBE_STREAM + 2).next_u64()
}

fn settings(seed: u64, out_dir: &Path) -> CampaignSettings {
    CampaignSettings {
        seed,
        candidates: CANDIDATES,
        batch: BATCH,
        trials: TRIALS,
        threads: THREADS,
        out_dir: out_dir.to_owned(),
        space: mutate::space("full").expect("the full space exists"),
        policy: policy(),
        fail_candidates: Vec::new(),
    }
}

struct Campaign {
    setup_s: f64,
    wall_s: f64,
    report: CampaignReport,
    findings_sha: String,
    samples: u64,
    /// Candidates that are one of the space's seed specs; the rest are
    /// mutants.
    presets: usize,
    records: Vec<CandidateRecord>,
}

/// The judged candidates, read back from the campaign's journal.
fn records(dir: &Path) -> Result<Vec<CandidateRecord>, String> {
    let path = dir.join("campaign.journal");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        let row = Json::parse(line).map_err(|e| format!("bad journal row: {e}"))?;
        match Journal::replay_row::<CandidateRecord>(&row) {
            Some(TrialOutcome::Done(r)) => out.push(r),
            _ => return Err(format!("unreadable journal row {line}")),
        }
    }
    Ok(out)
}

/// Warms every seed spec of the space once (`exec::run_spec` with no
/// trials): the set-up each candidate evaluation starts with. Then runs
/// the campaign.
fn run_campaign(seed: u64, dir: &Path, rec: &Recorder, parent: SpanId) -> Result<Campaign, String> {
    let s = settings(seed, dir);
    let t = Instant::now();
    let setup = rec.span("fuzz.setup", parent);
    for (i, spec) in s.space.seed_specs().iter().enumerate() {
        black_box(exec::run_spec(spec, campaign::eval_seed(seed, i), 0, &s.policy));
    }
    drop(setup);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = rec.span("fuzz.campaign", parent);
    let report = campaign::run(&s).map_err(|e| format!("campaign failed: {e}"))?;
    drop(span);
    let wall_s = t.elapsed().as_secs_f64();
    let records = records(dir)?;
    let seed_keys: Vec<String> = s.space.seed_specs().iter().map(|p| p.content_key()).collect();
    Ok(Campaign {
        setup_s,
        wall_s,
        findings_sha: util::file_sha256(&report.findings_path)?,
        samples: records.iter().map(|r| r.samples as u64).sum(),
        presets: records.iter().filter(|r| seed_keys.contains(&r.key)).count(),
        report,
        records,
    })
}

/// Folds a campaign's output checks into the report. A repeated
/// campaign, the traced one included, must reproduce the first run's
/// `findings.jsonl` and counts.
fn check(c: &Campaign, first: Option<&Campaign>, dir: &Path, report: &mut Report) {
    let r = &c.report;
    report.attempted += r.candidates as u64;
    report.check(r.evaluated == r.candidates, || {
        format!("{} of {} candidates evaluated", r.evaluated, r.candidates)
    });
    report.failed += (r.candidates - r.evaluated.min(r.candidates)) as u64;
    let findings = std::fs::read_to_string(&r.findings_path).unwrap_or_default();
    report.check(findings.lines().count() == r.findings, || {
        "findings.jsonl is incomplete".to_owned()
    });
    for line in findings.lines() {
        let repro = Json::parse(line)
            .ok()
            .and_then(|row| row.get("repro").and_then(Json::as_str).map(str::to_owned))
            .unwrap_or_default();
        let exists = !repro.is_empty() && dir.join(format!("{repro}.repro.json")).exists();
        report.check(exists, || format!("finding without a reproducer: {line}"));
    }
    if let Some(first) = first {
        report.check(fingerprint(c) == fingerprint(first), || {
            "a repeated campaign produced a different findings.jsonl or counts".to_owned()
        });
    }
}

/// The campaign's fingerprint lines.
fn fingerprint(c: &Campaign) -> Vec<(String, String)> {
    let r = &c.report;
    let mut lines: Vec<(String, String)> = [
        ("fuzz.candidates", r.candidates as u64),
        ("fuzz.degraded", r.degraded as u64),
        ("fuzz.hits", r.hits as u64),
        ("fuzz.findings", r.findings as u64),
        ("fuzz.samples", c.samples),
    ]
    .iter()
    .map(|(name, v)| (name.to_string(), v.to_string()))
    .collect();
    lines.push(("sha256:findings.jsonl".to_owned(), c.findings_sha.clone()));
    lines
}

/// Untraced, runs the campaign into fresh directories, at least once
/// and again while another pass is expected to fit in `budget`, and
/// reports the medians; traced, see [`run_traced`].
pub fn run(
    seed: u64,
    budget: Duration,
    traced: bool,
    scratch: &Scratch,
) -> (Report, Option<Recorder>) {
    if traced {
        return run_traced(seed, scratch);
    }
    let cseed = campaign_seed(seed);
    let mut report = Report::default();
    let plain = Recorder::new(false);
    let start = Instant::now();
    let mut passes: Vec<Campaign> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    loop {
        let pass = Instant::now();
        let dir = match scratch.fresh(&format!("campaign{}", passes.len())) {
            Ok(d) => d,
            Err(e) => return (report.fail(e), None),
        };
        util::reset_peak_rss();
        match run_campaign(cseed, &dir, &plain, 0) {
            Ok(c) => {
                peaks.push(util::peak_rss_mib("self").unwrap_or(0.0));
                check(&c, passes.first(), &dir, &mut report);
                passes.push(c);
            }
            Err(e) => return (report.fail(e), None),
        }
        let _ = std::fs::remove_dir_all(&dir);
        if start.elapsed() + pass.elapsed() > budget || passes.len() == crate::MAX_PASSES {
            break;
        }
    }
    let col = |f: fn(&Campaign) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let first = &passes[0];
    let judged = first.report.candidates;
    let rate = median(&col(|c| c.report.candidates as f64 / c.wall_s));
    report.metric("setup_s", median(&col(|c| c.setup_s)));
    report.metric("wall_s", median(&col(|c| c.wall_s)));
    report.metric("items_per_s", rate);
    report.metric("peak_rss_mb", median(&peaks));
    report.extra("candidates_per_s", rate, "1/s");
    report.extra("failed_share", first.report.degraded as f64 / judged as f64, "ratio");
    report.note(format!(
        "{} passes of one campaign of {CANDIDATES} candidates; {} of them were a seed spec of \
         the space and {} mutants; items are candidates judged per second",
        passes.len(),
        first.presets,
        judged - first.presets
    ));
    report.note(format!(
        "failed_share counts the {} degraded candidates, deterministic verdicts of the space; \
         the run's failed count excludes them",
        first.report.degraded
    ));
    report.fingerprint = fingerprint(first);
    (report, None)
}

/// The campaign untraced twice, then traced into a fresh directory
/// (its `findings.jsonl` must match byte for byte), then the layer calls
/// on that campaign's own candidates, then untraced once more. The first
/// untraced campaign pays the process's page faults; the tracing
/// overhead compares the traced campaign with the mean of the untraced
/// ones on either side of it, which cancels a steady drift in speed.
fn run_traced(seed: u64, scratch: &Scratch) -> (Report, Option<Recorder>) {
    let mut report = Report::default();
    let rec = Recorder::new(true);
    match traced_pass(seed, scratch, &rec, &mut report) {
        Ok(()) => (report, Some(rec)),
        Err(e) => (report.fail(e), Some(rec)),
    }
}

fn traced_pass(
    seed: u64,
    scratch: &Scratch,
    rec: &Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let cseed = campaign_seed(seed);
    let dir = scratch.fresh("warm-up")?;
    let warm_up = run_campaign(cseed, &dir, &Recorder::new(false), 0)?;
    check(&warm_up, None, &dir, report);
    let dir = scratch.fresh("reference")?;
    let reference = run_campaign(cseed, &dir, &Recorder::new(false), 0)?;
    check(&reference, Some(&warm_up), &dir, report);
    let dir = scratch.fresh("traced")?;
    let root = rec.span("pass", 0);
    let traced = run_campaign(cseed, &dir, rec, root.id())?;
    check(&traced, Some(&reference), &dir, report);
    layer_calls(cseed, &traced, &scratch.fresh("replay")?, rec, root.id(), report)?;
    let root_id = root.id();
    drop(root);
    let dir = scratch.fresh("reference-after")?;
    let after = run_campaign(cseed, &dir, &Recorder::new(false), 0)?;
    check(&after, Some(&reference), &dir, report);

    let spans = rec.spans();
    let med = |name: &str| {
        median(&trace::durations(&spans, name).iter().map(|&d| d as f64 / 1e6).collect::<Vec<_>>())
    };
    report.metric("fuzz.evaluate_ms", med("fuzz.evaluate"));
    report.metric("fuzz.minimize_ms", med("fuzz.minimize"));
    report.metric("fuzz.emit_ms", med("fuzz.emit"));
    let r = &traced.report;
    report.metric("fuzz.candidates", r.candidates as f64);
    report.metric("fuzz.degraded", r.degraded as f64);
    report.metric("fuzz.hits", r.hits as f64);
    report.metric("fuzz.findings", r.findings as f64);
    report.metric("fuzz.samples", traced.samples as f64);
    // The overhead compares campaign walls; the layer calls that follow
    // the traced campaign have no untraced twin.
    let untraced_s = (reference.wall_s + after.wall_s) / 2.0;
    crate::span_summary(report, &spans, &[root_id], untraced_s, traced.wall_s);
    report.fingerprint = fingerprint(&traced);
    Ok(())
}

/// Re-runs each layer's public entry point on the campaign's own
/// candidates, with a span around every call, and checks the results
/// agree with what the campaign recorded.
fn layer_calls(
    cseed: u64,
    c: &Campaign,
    out: &Path,
    rec: &Recorder,
    parent: SpanId,
    report: &mut Report,
) -> Result<(), String> {
    let policy = policy();
    for r in &c.records {
        let seed = campaign::eval_seed(cseed, r.index);
        let s = rec.span("fuzz.evaluate", parent);
        let eval = exec::evaluate(&r.spec, seed, TRIALS, &policy);
        drop(s);
        report.check(eval.verdict.leak == r.leak && eval.samples == r.samples, || {
            format!("candidate {} judged differently on re-evaluation", r.index)
        });
        let Some(finding) = &r.finding else { continue };
        let s = rec.span("fuzz.minimize", parent);
        let min = minimize::minimize(&r.spec, &eval, seed, TRIALS, &policy);
        drop(s);
        report.check(min.spec.content_key() == finding.min_key, || {
            format!("candidate {} minimized to a different spec", r.index)
        });
        let rep = Reproducer::for_finding(min.spec, seed, TRIALS);
        let s = rec.span("fuzz.emit", parent);
        let replay = emit::replay(&rep, out, 1, &policy);
        drop(s);
        report.check(replay.as_ref().is_ok_and(|o| o.verdict.leak), || {
            format!("reproducer of candidate {} did not replay as a leak", r.index)
        });
    }

    let space = mutate::space("full").expect("the full space exists");
    let parents = space.seed_specs();
    let mut rng = SimRng::seed_from(cseed).split(crate::PROBE_STREAM);
    let mut times = Vec::new();
    for k in 0..64 {
        let parent_spec = &parents[k % parents.len()];
        let t = Instant::now();
        for _ in 0..16 {
            black_box(mutate::mutate(parent_spec, &space, &mut rng));
        }
        times.push(t.elapsed().as_nanos() as f64 / 16e3);
    }
    report.metric("fuzz.mutate_us", median(&times));

    let mut judge = Vec::new();
    for r in c.records.iter().take(BATCH) {
        let samples: Vec<(u64, u64)> =
            exec::run_spec(&r.spec, campaign::eval_seed(cseed, r.index), TRIALS, &policy)
                .into_iter()
                .filter_map(TrialOutcome::ok)
                .flatten()
                .collect();
        let s = rec.span("analysis.judge", parent);
        let t = Instant::now();
        black_box(oracle::judge(&samples));
        judge.push(t.elapsed().as_nanos() as f64 / 1e3);
        drop(s);
    }
    report.metric("analysis.judge_us", median(&judge));
    Ok(())
}
