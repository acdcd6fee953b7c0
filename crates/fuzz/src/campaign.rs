//! The campaign loop: batched candidate generation, parallel
//! evaluation, sequential judgement, crash-safe journaling.
//!
//! # Determinism
//!
//! The same campaign seed produces byte-identical `findings.jsonl`
//! (and journal rows) for any worker-thread count and across
//! kill-and-resume, because every source of randomness is a pure
//! function of `(campaign seed, candidate index)`:
//!
//! - candidate `i`'s *generator* stream is
//!   `SimRng::seed_from(seed).split(GEN_STREAM_BASE + i)`;
//! - candidate `i`'s *evaluation seed* is drawn from
//!   `split(EVAL_STREAM_BASE + i)` and shared by its initial
//!   evaluation, every minimization re-evaluation and its emitted
//!   reproducer — a controlled comparison throughout;
//! - parent selection reads only the corpus state at the candidate's
//!   **batch boundary** (the corpus is updated between batches, never
//!   inside one), so generation is independent of sibling ordering;
//! - threads race only the embarrassingly parallel *evaluations*
//!   (the execution core's index-ordered map,
//!   [`metaleak_bench::exec::map_indexed`]); dedupe, minimization,
//!   emission and journal appends happen in a single sequential pass
//!   in candidate-index order.
//!
//! # Crash safety
//!
//! Every judged candidate appends one [`CandidateRecord`] row to
//! `campaign.journal` (the [`metaleak_bench::supervisor::Journal`]
//! format: identity header, fsynced rows, torn-tail recovery). A
//! killed campaign resumed with the same parameters replays judged
//! candidates from the journal — rebuilding the corpus in index order
//! — and re-executes only the missing ones, which is sound precisely
//! because batch composition depends only on records with smaller
//! batch indices. The journal is retained after completion so a
//! finished campaign re-invoked with the same output directory is a
//! no-op replay.

use crate::corpus::{CandidateRecord, Corpus, FindingRecord};
use crate::emit::{self, Reproducer};
use crate::exec;
use crate::minimize;
use crate::mutate::{self, Space};
use crate::spec::{FuzzSpec, PROTOCOL_VERSION};
use metaleak_bench::exec::map_indexed;
use metaleak_bench::json::JsonObj;
use metaleak_bench::supervisor::{Journal, SupervisorPolicy, TrialOutcome};
use metaleak_sim::rng::SimRng;
use std::io;
use std::path::PathBuf;

/// First campaign-generator stream id. Disjoint from the harness's
/// trial streams (small integers), [`AUX_STREAM_BASE`]
/// (`1 << 32`) and [`WARMUP_STREAM_BASE`] (`1 << 33`).
///
/// [`AUX_STREAM_BASE`]: metaleak_bench::harness::AUX_STREAM_BASE
/// [`WARMUP_STREAM_BASE`]: metaleak_bench::harness::WARMUP_STREAM_BASE
pub const GEN_STREAM_BASE: u64 = 1 << 34;

/// First evaluation-seed stream id (one per candidate).
pub const EVAL_STREAM_BASE: u64 = 1 << 35;

/// Probability a candidate mutates a corpus finding rather than a
/// space seed spec, once the corpus is non-empty.
const PARENT_FROM_CORPUS: f64 = 0.5;

/// Campaign parameters. No environment variables are read here — the
/// CLI resolves `METALEAK_*` knobs into this struct.
#[derive(Debug, Clone)]
pub struct CampaignSettings {
    /// Campaign seed: determines every candidate and every verdict.
    pub seed: u64,
    /// Total candidates to judge.
    pub candidates: usize,
    /// Candidates per batch (corpus updates land at batch boundaries).
    pub batch: usize,
    /// Supervised trial groups per candidate evaluation.
    pub trials: usize,
    /// Worker threads for the parallel evaluation phase.
    pub threads: usize,
    /// Output directory: journal, `findings.jsonl`, reproducers and
    /// replayed artifacts all land here.
    pub out_dir: PathBuf,
    /// The subspace to search.
    pub space: Space,
    /// Supervision policy for every warmup and trial.
    pub policy: SupervisorPolicy,
    /// Candidate indices whose evaluations get a deliberately injected
    /// failure of trial 0 — the deterministic degraded-candidate
    /// testing hook (the campaign must carry on).
    pub fail_candidates: Vec<usize>,
}

/// What a campaign run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Candidates judged in total (journal-replayed ones included).
    pub candidates: usize,
    /// Candidates actually executed this run.
    pub evaluated: usize,
    /// Candidates replayed from the journal.
    pub replayed: usize,
    /// Candidates degraded by a warmup/trial failure.
    pub degraded: usize,
    /// Fresh (non-duplicate) oracle hits.
    pub hits: usize,
    /// Catalogued findings after minimal-key dedupe.
    pub findings: usize,
    /// Where `findings.jsonl` was written.
    pub findings_path: PathBuf,
}

fn journal_header(settings: &CampaignSettings) -> metaleak_bench::json::Json {
    JsonObj::new()
        .field("journal", "leakfuzz")
        .field("version", PROTOCOL_VERSION)
        .field("state_shape", metaleak_engine::STATE_SHAPE)
        .field("seed", settings.seed)
        .field("candidates", settings.candidates)
        .field("batch", settings.batch)
        .field("trials", settings.trials)
        .field("space", settings.space.name)
        .build()
}

/// Candidate `i`'s evaluation seed (shared by evaluation,
/// minimization and the emitted reproducer).
pub fn eval_seed(campaign_seed: u64, index: usize) -> u64 {
    SimRng::seed_from(campaign_seed).split(EVAL_STREAM_BASE + index as u64).next_u64()
}

/// Generates candidate `i`'s spec from the corpus state at its batch
/// boundary: the first candidates replay the space's seed specs
/// verbatim; later ones mutate either a catalogued minimal finding or
/// a rotating seed spec.
fn generate(settings: &CampaignSettings, corpus: &Corpus, index: usize) -> FuzzSpec {
    let seeds = settings.space.seed_specs();
    if index < seeds.len() {
        return seeds[index].clone();
    }
    let mut rng = SimRng::seed_from(settings.seed).split(GEN_STREAM_BASE + index as u64);
    let parents = corpus.parents();
    let parent = if !parents.is_empty() && rng.chance(PARENT_FROM_CORPUS) {
        parents[rng.index(parents.len())].clone()
    } else {
        seeds[rng.index(seeds.len())].clone()
    };
    mutate::mutate(&parent, &settings.space, &mut rng)
}

fn candidate_policy(settings: &CampaignSettings, index: usize) -> SupervisorPolicy {
    let mut policy = settings.policy.clone();
    if settings.fail_candidates.contains(&index) {
        policy.inject.push(0);
    }
    policy
}

/// Runs (or resumes) a campaign. See the module docs for the
/// determinism and crash-safety contract.
///
/// # Errors
/// Filesystem errors opening the journal or writing `findings.jsonl`,
/// and the journal's state-shape refusal. Candidate failures are never
/// errors.
pub fn run(settings: &CampaignSettings) -> io::Result<CampaignReport> {
    assert!(settings.batch > 0, "batch size must be nonzero");
    std::fs::create_dir_all(&settings.out_dir)?;
    let journal_path = settings.out_dir.join("campaign.journal");
    let (journal, replayed_rows) = Journal::open(&journal_path, &journal_header(settings))?;
    let replayed: std::collections::BTreeMap<usize, CandidateRecord> = replayed_rows
        .iter()
        .filter_map(|(&i, row)| match Journal::replay_row::<CandidateRecord>(row) {
            Some(TrialOutcome::Done(r)) if r.index == i => Some((i, r)),
            _ => None,
        })
        .collect();

    let mut corpus = Corpus::new();
    let mut report = CampaignReport {
        candidates: settings.candidates,
        evaluated: 0,
        replayed: 0,
        degraded: 0,
        hits: 0,
        findings: 0,
        findings_path: settings.out_dir.join("findings.jsonl"),
    };

    let mut index = 0usize;
    while index < settings.candidates {
        let batch_end = (index + settings.batch).min(settings.candidates);

        // Generate the batch's missing specs from the boundary corpus,
        // then evaluate them in parallel (index-slotted, so collection
        // order is schedule-independent).
        let missing: Vec<(usize, FuzzSpec)> = (index..batch_end)
            .filter(|i| !replayed.contains_key(i))
            .map(|i| (i, generate(settings, &corpus, i)))
            .collect();
        let evals = map_indexed(missing.len(), settings.threads, |w| {
            let (i, spec) = &missing[w];
            let policy = candidate_policy(settings, *i);
            exec::evaluate(spec, eval_seed(settings.seed, *i), settings.trials, &policy)
        });
        let mut fresh_evals = missing
            .into_iter()
            .zip(evals)
            .map(|((i, spec), eval)| (i, (spec, eval)))
            .collect::<std::collections::BTreeMap<_, _>>();

        // Sequential judgement pass in index order: dedupe, minimize,
        // emit, journal, admit.
        for i in index..batch_end {
            if let Some(record) = replayed.get(&i) {
                report.replayed += 1;
                ingest_record(&mut corpus, &mut report, record.clone());
                continue;
            }
            let (spec, eval) = fresh_evals.remove(&i).expect("generated or replayed");
            report.evaluated += 1;
            let key = spec.content_key();
            // A degraded candidate was never really observed: its key
            // stays unseen so a later clean derivation of the same
            // spec can still be judged.
            let fresh = !eval.degraded && corpus.note_candidate(&key);
            let mut finding = None;
            if eval.is_hit() && fresh {
                let seed = eval_seed(settings.seed, i);
                let policy = candidate_policy(settings, i);
                let min = minimize::minimize(&spec, &eval, seed, settings.trials, &policy);
                let min_key = min.spec.content_key();
                if !corpus.has_finding(&min_key) {
                    let rep = Reproducer::for_finding(min.spec.clone(), seed, settings.trials);
                    rep.save(&settings.out_dir)?;
                    let (repro, attribution) =
                        match emit::replay(&rep, &settings.out_dir, 1, &policy) {
                            Ok(out) => (rep.name.clone(), out.attribution),
                            Err(e) => {
                                metaleak_bench::diag::warn(&format!(
                                    "leakfuzz: reproducer replay for candidate {i} failed: {e}"
                                ));
                                (String::new(), Vec::new())
                            }
                        };
                    finding = Some(FindingRecord {
                        min_spec: min.spec,
                        min_key,
                        t: min.eval.verdict.t,
                        mi_bits: min.eval.verdict.mi_bits,
                        min_steps: min.steps,
                        repro,
                        attribution,
                    });
                }
            }
            let record = CandidateRecord {
                index: i,
                key,
                t: eval.verdict.t,
                mi_bits: eval.verdict.mi_bits,
                samples: eval.samples,
                failed_trials: eval.failed_trials,
                degraded: eval.degraded,
                leak: eval.verdict.leak,
                fresh,
                finding,
                spec,
            };
            journal.append(&Journal::success_entry(i, &record));
            ingest_record(&mut corpus, &mut report, record);
        }
        index = batch_end;
    }

    report.findings = corpus.len();
    std::fs::write(&report.findings_path, corpus.findings_jsonl())?;
    Ok(report)
}

/// Folds one judged record into the corpus and the running report —
/// identically for fresh and journal-replayed records, which is what
/// makes resume state-equivalent to a straight run.
fn ingest_record(corpus: &mut Corpus, report: &mut CampaignReport, record: CandidateRecord) {
    if !record.degraded {
        corpus.note_candidate(&record.key);
    }
    if record.degraded {
        report.degraded += 1;
    }
    if record.leak && !record.degraded && record.fresh {
        report.hits += 1;
    }
    if record.finding.is_some() {
        corpus.admit(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(out: &str, candidates: usize, threads: usize) -> CampaignSettings {
        let out_dir = std::env::temp_dir()
            .join(format!("metaleak-fuzz-campaign-{out}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out_dir);
        CampaignSettings {
            seed: 0xF122_0009,
            candidates,
            batch: 2,
            trials: 1,
            threads,
            out_dir,
            space: mutate::space("sct-counter").expect("known space"),
            policy: SupervisorPolicy {
                deadline_cycles: None,
                wall_ms: None,
                retries: 0,
                backoff_ms: 0,
                inject: Vec::new(),
            },
            fail_candidates: Vec::new(),
        }
    }

    fn read_findings(s: &CampaignSettings) -> String {
        std::fs::read_to_string(s.out_dir.join("findings.jsonl")).expect("findings written")
    }

    /// One campaign exercises the planted-channel, thread-determinism
    /// and journal-resume contracts together (campaigns are the
    /// expensive unit here; the assertions are independent).
    #[test]
    fn campaign_finds_the_planted_channel_deterministically() {
        let s1 = settings("det-t1", 4, 1);
        let s4 = settings("det-t4", 4, 4);
        let first = run(&s1).expect("single-threaded campaign");
        run(&s4).expect("multi-threaded campaign");

        // Rediscovers the planted SCT counter channel, reproducers on disk.
        assert!(first.findings >= 1, "planted SCT counter channel not found: {first:?}");
        let findings = read_findings(&s1);
        assert!(findings.contains("counter_stress"), "wrong channel found:\n{findings}");
        for line in findings.lines() {
            let row = metaleak_bench::json::Json::parse(line).expect("valid row");
            let repro = row.get("repro").and_then(|r| r.as_str()).expect("repro name");
            assert!(s1.out_dir.join(format!("{repro}.repro.json")).exists());
            assert!(s1.out_dir.join(format!("{repro}.jsonl")).exists());
        }

        // Byte-identical findings for any worker-thread count.
        assert_eq!(findings, read_findings(&s4), "thread count leaked into findings");

        // Resume replays the journal without re-executing anything and
        // reproduces the same bytes.
        let second = run(&s1).expect("resumed run");
        assert_eq!(second.evaluated, 0, "completed campaign must be a pure replay");
        assert_eq!(second.replayed, 4);
        assert_eq!(second.findings, first.findings);
        assert_eq!(second.hits, first.hits);
        assert_eq!(findings, read_findings(&s1));

        let _ = std::fs::remove_dir_all(&s1.out_dir);
        let _ = std::fs::remove_dir_all(&s4.out_dir);
    }

    #[test]
    fn degraded_candidate_is_excluded_without_aborting() {
        let mut s = settings("degraded", 3, 2);
        s.fail_candidates = vec![0]; // candidate 0 is the planted counter-channel seed spec
        let report = run(&s).expect("campaign survives the degraded candidate");
        assert_eq!(report.candidates, 3);
        assert!(report.degraded >= 1, "injected failure must degrade candidate 0");
        let findings = read_findings(&s);
        for line in findings.lines() {
            let row = metaleak_bench::json::Json::parse(line).expect("valid row");
            assert_ne!(
                row.get("index").and_then(|v| v.as_u64()),
                Some(0),
                "degraded candidate must not be catalogued"
            );
        }
        let _ = std::fs::remove_dir_all(&s.out_dir);
    }

    #[test]
    fn mirage_space_runs_clean_by_default() {
        let mut s = settings("mirage", 2, 2);
        s.space = mutate::space("mirage").expect("known space");
        let report = run(&s).expect("campaign");
        // The secret-independent preset must not be a finding; mutated
        // install counts may or may not leak — both are acceptable.
        assert_eq!(report.candidates, 2);
        assert_eq!(report.degraded, 0);
        let _ = std::fs::remove_dir_all(&s.out_dir);
    }

    #[test]
    fn eval_seed_is_index_stable() {
        assert_eq!(eval_seed(1, 0), eval_seed(1, 0));
        assert_ne!(eval_seed(1, 0), eval_seed(1, 1));
        assert_ne!(eval_seed(1, 0), eval_seed(2, 0));
    }
}
