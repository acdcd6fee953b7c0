//! `perfbench` — the workspace's host-time benchmark.
//!
//! ```text
//! perfbench --workload covert_t|covert_c|serve_mix|fuzz_campaign
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. An untraced run (`--trace 0`)
//! repeats its workload for `--seconds` and prints the end-to-end
//! metrics; a traced run (`--trace 1`) records spans around the
//! benchmark's calls into each layer and prints the per-layer metrics.
//! Both check the program's outputs and exit non-zero when a check
//! fails. The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `README.md` next to this crate documents the workloads and metrics.

mod fuzz;
mod serve;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, measured on untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// The deterministic simulator counts, summed over a sweep's trials.
pub const SIM_COUNTS: [&str; 14] = [
    "sim.cycles",
    "engine.counter_fetches",
    "engine.writes_serviced",
    "engine.counter_writebacks",
    "engine.tree_writebacks",
    "engine.enc_overflows",
    "engine.tree_overflows",
    "engine.reencrypt_blocks",
    "meta.ctr_hit",
    "meta.ctr_miss",
    "meta.tree_hit",
    "meta.tree_miss",
    "sim.row_hit",
    "sim.row_conflict",
];

/// Per-layer metrics, measured on traced runs. Layers a workload does
/// not exercise are measured by tours of workloads that do
/// ([`layer_tours`]).
pub const PER_LAYER: [(&str, &str); 74] = [
    ("engine.new_ms", "ms"),
    ("attacks.plan_ms", "ms"),
    ("attacks.preamble_ms", "ms"),
    ("engine.snapshot_ms", "ms"),
    ("engine.fork_us", "us"),
    ("attacks.transmit_ms", "ms"),
    ("engine.host_ns_per_kcycle", "ns/kcycle"),
    ("bench.trial_overhead_ms", "ms"),
    ("bench.finish_ms", "ms"),
    ("bench.jsonl_bytes", "bytes"),
    ("analysis.scan_ms", "ms"),
    ("sim.cycles", "count"),
    ("engine.counter_fetches", "count"),
    ("engine.writes_serviced", "count"),
    ("engine.counter_writebacks", "count"),
    ("engine.tree_writebacks", "count"),
    ("engine.enc_overflows", "count"),
    ("engine.tree_overflows", "count"),
    ("engine.reencrypt_blocks", "count"),
    ("meta.ctr_hit", "count"),
    ("meta.ctr_miss", "count"),
    ("meta.tree_hit", "count"),
    ("meta.tree_miss", "count"),
    ("sim.row_hit", "count"),
    ("sim.row_conflict", "count"),
    ("bench.trials", "count"),
    ("bench.failed_trials", "count"),
    ("crypto.pad_ns", "ns"),
    ("crypto.mac_ns", "ns"),
    ("crypto.hash_ns", "ns"),
    ("crypto.hash64_ns", "ns"),
    ("meta.verify_sct_ns", "ns"),
    ("meta.verify_ht_ns", "ns"),
    ("meta.verify_sit_ns", "ns"),
    ("engine.read_hit_ns", "ns"),
    ("engine.read_miss_ns", "ns"),
    ("engine.write_back_ns", "ns"),
    ("sim.cache_access_ns", "ns"),
    ("sim.dram_access_ns", "ns"),
    ("bench.json_row_ns", "ns"),
    ("serve.submit_ms", "ms"),
    ("serve.queued_ms", "ms"),
    ("serve.running_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_tail_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.trials_run", "count"),
    ("serve.points_run", "count"),
    ("serve.cache_hits", "count"),
    ("serve.dedup_attached", "count"),
    ("serve.rejected", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.http_requests", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("fuzz.evaluate_ms", "ms"),
    ("fuzz.minimize_ms", "ms"),
    ("fuzz.emit_ms", "ms"),
    ("fuzz.mutate_us", "us"),
    ("analysis.judge_us", "us"),
    ("fuzz.candidates", "count"),
    ("fuzz.degraded", "count"),
    ("fuzz.hits", "count"),
    ("fuzz.findings", "count"),
    ("fuzz.samples", "count"),
    ("bench.self_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("attacks.self_ms", "ms"),
    ("analysis.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("fuzz.self_ms", "ms"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Layers whose span self time the traced run reports.
const SELF_TIME_LAYERS: [&str; 6] = ["bench", "engine", "attacks", "analysis", "serve", "fuzz"];

/// Upper bound on repetitions in one untraced run, whatever `--seconds`.
pub const MAX_PASSES: usize = 200;

/// RNG stream for probe inputs, apart from the harness's trial, aux and
/// warm-up streams and the campaign's generator streams.
pub const PROBE_STREAM: u64 = 1 << 40;

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: BTreeMap<String, f64>,
    /// Further figures for the human-readable part: `(name, value, unit)`.
    pub extras: Vec<(String, f64, String)>,
    pub notes: Vec<String>,
    /// Simulated counts and artifact digests, which must repeat exactly
    /// for a seed.
    pub fingerprint: Vec<(String, String)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a failure that ended the workload early.
    pub fn fail(mut self, what: String) -> Report {
        self.failures.push(what);
        self
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extras.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Median and tail of a latency sample (ms), with the tail's
    /// percentile and the sample count.
    pub fn latency(&mut self, name: &str, values_ms: &[f64]) {
        self.extra(&format!("{name}_p50_ms"), util::median(values_ms), "ms");
        match util::tail(values_ms) {
            Some((pct, v)) => {
                self.extra(&format!("{name}_tail_ms"), v, "ms");
                self.note(format!("{name}_tail_ms is p{pct} of {} samples", values_ms.len()));
            }
            None => self.note(format!("{name}: {} samples, too few for a tail", values_ms.len())),
        }
    }
}

/// Adds the traced run's span summary: each layer's self time per traced
/// pass, the share of a traced pass no span covers, and the tracing
/// overhead (traced minus untraced wall time of the same inputs, as a
/// share of the untraced time). `roots` are the traced passes' root spans.
pub fn span_summary(
    report: &mut Report,
    spans: &[trace::Span],
    roots: &[trace::SpanId],
    untraced_s: f64,
    traced_s: f64,
) {
    let passes = roots.len() as f64;
    let layers = trace::layer_self_ms(spans);
    for layer in SELF_TIME_LAYERS {
        if let Some(ms) = layers.get(layer) {
            report.metric(&format!("{layer}.self_ms"), ms / passes);
        }
    }
    let uncovered: f64 = roots.iter().map(|&r| trace::uncovered_share(spans, r)).sum();
    report.metric("trace.uncovered_share", uncovered / passes);
    report.metric("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    report.note(format!(
        "traced pass {traced_s:.3} s, untraced pass {untraced_s:.3} s on the same inputs"
    ));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a u64")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The Cargo target directory this binary was built into
/// (`<target>/release/perfbench`); scratch, spans and fingerprints live
/// under it.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_owned)
        .ok_or_else(|| format!("unexpected binary location {}", exe.display()))
}

/// The benchmark's own sources. Their digest is part of a stored
/// fingerprint's key, so changing the benchmark starts a fresh record.
const SOURCES: [&str; 7] = [
    include_str!("../Cargo.toml"),
    include_str!("main.rs"),
    include_str!("fuzz.rs"),
    include_str!("serve.rs"),
    include_str!("sweep.rs"),
    include_str!("trace.rs"),
    include_str!("util.rs"),
];

/// Compares this run's fingerprint with the record the last healthy run
/// of the same workload, seed and mode left, and stores it when there is
/// none. Records outlive rebuilds of the program, so a program change
/// that moves a simulated count or an artifact digest fails here until
/// its record is removed.
fn compare_fingerprint(target: &Path, run: &str, seed: u64, report: &mut Report) {
    // A run that failed a check records nothing: its fingerprint may be
    // partial and would flag the next, healthy run.
    if !report.failures.is_empty() || report.fingerprint.is_empty() {
        return;
    }
    let key = &util::sha256_hex(SOURCES.concat().as_bytes())[..16];
    let dir = target.join("perfbench-fingerprints");
    let path = dir.join(format!("{run}-{key}.txt"));
    let body: String = report.fingerprint.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(recorded) => {
            let only_in = |a: &str, b: &str| -> Vec<String> {
                a.lines().filter(|l| !b.lines().any(|m| m == *l)).map(str::to_owned).collect()
            };
            report.check(recorded == body, || {
                format!(
                    "fingerprint differs from the last recorded run of seed {seed}: now {:?}, \
                     recorded {:?}; remove {} to accept a deliberate change",
                    only_in(&body, &recorded),
                    only_in(&recorded, &body),
                    path.display()
                )
            });
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, &body);
        }
    }
}

fn render_json(report: &Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(*name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Runs `workload` untraced for `budget`, or traced, and returns its
/// report with the recorder of a traced run.
fn measure(
    workload: &str,
    seed: u64,
    budget: Duration,
    trace: bool,
    target: &Path,
    scratch: &util::Scratch,
) -> Result<(Report, Option<trace::Recorder>), String> {
    Ok(match workload {
        "covert_t" | "covert_c" => {
            let shape = if workload == "covert_t" { sweep::covert_t() } else { sweep::covert_c() };
            if trace {
                let (r, rec) = sweep::run_traced(&shape, seed, scratch);
                (r, Some(rec))
            } else {
                (sweep::run(&shape, seed, budget, scratch), None)
            }
        }
        "serve_mix" => {
            let bin = serve::build_server(target)?;
            serve::run(&bin, seed, budget, trace, scratch)
        }
        "fuzz_campaign" => fuzz::run(seed, budget, trace, scratch),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Fills the per-layer metrics of layers `workload` does not exercise
/// from short traced runs of the workloads that do, so every traced run
/// reports a measurement for every layer. Metrics the workload set
/// itself are kept; a failed check in a tour fails the run.
fn layer_tours(
    workload: &str,
    seed: u64,
    target: &Path,
    scratch: &util::Scratch,
    report: &mut Report,
) -> Result<(), String> {
    let missing =
        |r: &Report| PER_LAYER.iter().filter(|(n, _)| !r.metrics.contains_key(*n)).count();
    for tour in ["covert_t", "serve_mix", "fuzz_campaign", "covert_c"] {
        let before = missing(report);
        if tour == workload || before == 0 {
            continue;
        }
        let (r, _) = measure(tour, seed, Duration::ZERO, true, target, scratch)?;
        for (name, v) in r.metrics {
            report.metrics.entry(name).or_insert(v);
        }
        report.failures.extend(r.failures.into_iter().map(|f| format!("{tour} tour: {f}")));
        let filled = before - missing(report);
        report.note(format!("{filled} per-layer metrics measured by a traced {tour} tour"));
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let args = parse_args()?;
    let target = target_dir()?;
    let scratch = util::Scratch::create(target.join("perfbench-scratch").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )))?;
    let budget = Duration::from_secs(args.seconds);
    let (mut report, spans) =
        measure(&args.workload, args.seed, budget, args.trace, &target, &scratch)?;
    if args.trace {
        layer_tours(&args.workload, args.seed, &target, &scratch, &mut report)?;
    }
    let mode = if args.trace { "traced" } else { "untraced" };
    let run = format!("{}-{}-{mode}", args.workload, args.seed);
    compare_fingerprint(&target, &run, args.seed, &mut report);

    println!("== perfbench {} seed {} ({mode}) ==", args.workload, args.seed);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        if let Some(v) = report.metrics.get(*name) {
            println!("{name:<28} {v:>16.4} {unit}");
        }
    }
    for (name, v, unit) in &report.extras {
        println!("{name:<28} {v:>16.4} {unit}");
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for (k, v) in &report.fingerprint {
        println!("fingerprint {k} {v}");
    }
    if let Some(rec) = spans {
        let dir = target.join("perfbench-traces");
        let path = dir.join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&rec.spans())));
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => report.failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for (name, _) in names {
        let v = report.metrics.get(*name).copied().unwrap_or(0.0);
        report.check(v.is_finite(), || format!("metric {name} is not finite"));
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    drop(scratch);
    println!("{}", render_json(&report, names));
    Ok(if report.failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak_bench::json::Json;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
