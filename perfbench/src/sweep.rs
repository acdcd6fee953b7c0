//! The `covert_t` and `covert_c` workloads: covert-channel sweeps in
//! the shape of Figures 11 and 14, run through the experiment harness
//! exactly as the figure binaries run them.
//!
//! A pass builds, plans and (for MetaLeak-T) primes every sweep point,
//! snapshots it, forks the snapshot for every chunk trial through
//! `Experiment::with_warmup` → `Warmup::run_trials`, commits the
//! artifacts with `Experiment::finish` and runs the leakscan gate over
//! them. Every pass of a run repeats the same inputs, so the run's
//! medians compare like with like and every pass must reproduce the
//! first pass's simulated counts and JSONL bytes.

use crate::trace::{self, Recorder, SpanId};
use crate::util::{self, median, Scratch};
use crate::Report;
use metaleak::configs;
use metaleak_analysis::gates::{self, GatePolicy};
use metaleak_analysis::ingest::{self, ExperimentData, ScanEntry};
use metaleak_analysis::report::{self as leak_report, LeakReport};
use metaleak_attacks::covert_c::CovertChannelC;
use metaleak_attacks::covert_t::CovertChannelT;
use metaleak_bench::harness::{Experiment, RunSettings, Trial};
use metaleak_bench::journal_fields;
use metaleak_bench::json::JsonObj;
use metaleak_crypto::engine::CryptoEngine;
use metaleak_engine::config::SecureConfig;
use metaleak_engine::secmem::SecureMemory;
use metaleak_engine::snapshot::Snapshot;
use metaleak_sim::addr::{BlockAddr, CoreId};
use metaleak_sim::cache::SetAssocCache;
use metaleak_sim::rng::SimRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Harness worker threads: the two cores of the reference box.
const THREADS: usize = 2;

/// Traced passes in a traced run, each paired with an untraced one.
const TRACED_PASSES: usize = 3;

/// First page of the channel's trojan blocks (the figure binaries' choice).
const BASE_PAGE: u64 = 100;

/// One sweep point: a configuration, the tree level the channel uses
/// and the paper's accuracy on it, which the point must reach.
struct Point {
    label: &'static str,
    cfg: SecureConfig,
    level: u8,
    paper_accuracy: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Channel {
    T,
    C,
}

/// A sweep's shape: its points and how the payload splits into trials.
pub struct Shape {
    name: &'static str,
    channel: Channel,
    points: Vec<Point>,
    chunks: usize,
    per_chunk: usize,
    preamble_bits: usize,
}

/// Figure 11: MetaLeak-T on SCT and HT (level 0) and SIT (level 1),
/// 1000 bits per configuration in eight chunk trials, after a 64-bit
/// priming preamble that leaves the metadata caches warm.
pub fn covert_t() -> Shape {
    Shape {
        name: "covert_t",
        channel: Channel::T,
        points: vec![
            Point { label: "sct", cfg: configs::sct_experiment(), level: 0, paper_accuracy: 0.993 },
            Point { label: "ht", cfg: configs::ht_experiment(), level: 0, paper_accuracy: 0.993 },
            Point { label: "sit", cfg: configs::sgx_experiment(), level: 1, paper_accuracy: 0.943 },
        ],
        chunks: 8,
        per_chunk: 125,
        preamble_bits: 64,
    }
}

/// Figure 14: MetaLeak-C on SCT with the paper's 7-bit tree minors,
/// 1000 symbols in four chunk trials of 250, caches starting empty.
pub fn covert_c() -> Shape {
    Shape {
        name: "covert_c",
        channel: Channel::C,
        points: vec![Point {
            label: "sct",
            cfg: configs::sct_experiment_with_tree_bits(7),
            level: 1,
            paper_accuracy: 0.997,
        }],
        chunks: 4,
        per_chunk: 250,
        preamble_bits: 0,
    }
}

/// The deterministic per-trial counts, in the order of
/// [`crate::SIM_COUNTS`].
fn counts<T: metaleak_sim::trace::Tracer>(mem: &SecureMemory<T>) -> Vec<u64> {
    let e = &mem.stats;
    let m = &mem.mcaches().stats;
    let d = &mem.dram().stats;
    vec![
        mem.now().as_u64(),
        e.get("counter_fetches"),
        e.get("writes_serviced"),
        e.get("counter_writebacks"),
        e.get("tree_writebacks"),
        e.get("enc_overflows"),
        e.get("tree_overflows"),
        e.get("reencrypt_blocks"),
        m.get("ctr_hit"),
        m.get("ctr_miss"),
        m.get("tree_hit"),
        m.get("tree_miss"),
        d.get("row_hit"),
        d.get("row_conflict"),
    ]
}

enum Warm {
    T(Snapshot, CovertChannelT),
    C(Snapshot, CovertChannelC),
}

impl Warm {
    fn snapshot(&self) -> &Snapshot {
        match self {
            Warm::T(s, _) | Warm::C(s, _) => s,
        }
    }
}

/// Builds, plans, primes and snapshots point `p`, with a span around
/// each call.
fn warm_point(shape: &Shape, p: usize, wrng: &mut SimRng, rec: &Recorder, parent: SpanId) -> Warm {
    let pt = &shape.points[p];
    let preamble: Vec<bool> = (0..shape.preamble_bits).map(|_| wrng.chance(0.5)).collect();
    let s = rec.span("engine.new", parent);
    let mut mem = SecureMemory::new(pt.cfg.clone());
    drop(s);
    match shape.channel {
        Channel::T => {
            let s = rec.span("attacks.plan", parent);
            let channel = CovertChannelT::new(&mut mem, CoreId(0), CoreId(1), pt.level, BASE_PAGE)
                .expect("MetaLeak-T channel plans on the Figure 11 configurations");
            drop(s);
            let s = rec.span("attacks.preamble", parent);
            channel.transmit(&mut mem, &preamble).expect("clean-plan preamble transmission");
            drop(s);
            let s = rec.span("engine.snapshot", parent);
            let snap = mem.into_snapshot();
            drop(s);
            Warm::T(snap, channel)
        }
        Channel::C => {
            let s = rec.span("attacks.plan", parent);
            let channel = CovertChannelC::new(&mem, CoreId(0), CoreId(1), pt.level, BASE_PAGE)
                .expect("MetaLeak-C channel plans on SCT");
            drop(s);
            let s = rec.span("engine.snapshot", parent);
            let snap = mem.into_snapshot();
            drop(s);
            Warm::C(snap, channel)
        }
    }
}

struct Chunk {
    correct: usize,
    symbols: usize,
    cycles: u64,
    counts: Vec<u64>,
    sample_classes: Vec<u64>,
    sample_values: Vec<u64>,
}

journal_fields!(Chunk {
    correct: usize,
    symbols: usize,
    cycles: u64,
    counts: Vec<u64>,
    sample_classes: Vec<u64>,
    sample_values: Vec<u64>,
});

fn chunk_trial(
    warm: &Warm,
    rng: &mut SimRng,
    per_chunk: usize,
    rec: &Recorder,
    parent: SpanId,
) -> Chunk {
    let trial = rec.span("bench.trial", parent);
    let s = rec.span("engine.fork", trial.id());
    let mut mem = warm.snapshot().fork();
    drop(s);
    let before = counts(&mem);
    let (samples, accuracy, cycles) = match warm {
        Warm::T(_, channel) => {
            let bits: Vec<bool> = (0..per_chunk).map(|_| rng.chance(0.5)).collect();
            let s = rec.span("attacks.transmit", trial.id());
            let out = channel.transmit(&mut mem, &bits).expect("clean-plan transmission");
            drop(s);
            (out.labelled_samples(&bits), out.accuracy(&bits), out.cycles)
        }
        Warm::C(_, channel) => {
            let mut channel = channel.clone();
            let cap = channel.max_symbol() + 1;
            let symbols: Vec<u64> = (0..per_chunk).map(|_| rng.below(cap)).collect();
            let s = rec.span("attacks.transmit", trial.id());
            let out = channel.transmit(&mut mem, &symbols).expect("clean-plan transmission");
            drop(s);
            (out.labelled_samples(&symbols), out.accuracy(&symbols), out.cycles)
        }
    };
    let after = counts(&mem);
    let _row = rec.span("bench.row", trial.id());
    Chunk {
        correct: (accuracy * per_chunk as f64).round() as usize,
        symbols: per_chunk,
        cycles: cycles.as_u64(),
        counts: after.iter().zip(&before).map(|(a, b)| a - b).collect(),
        sample_classes: samples.iter().map(|s| s.class).collect(),
        sample_values: samples.iter().map(|s| s.value).collect(),
    }
}

/// What one pass measured and produced.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    trial_phase_s: f64,
    trials: usize,
    failed: usize,
    cycles: u64,
    counts: Vec<u64>,
    accuracy: Vec<(&'static str, f64, f64)>,
    leaks: Vec<(&'static str, bool)>,
    gate_pass: bool,
    jsonl_sha: String,
    jsonl_bytes: u64,
    trial_ms: Vec<f64>,
    root: SpanId,
}

fn run_pass(shape: &Shape, seed: u64, dir: &Path, rec: &Recorder) -> Result<Pass, String> {
    let t0 = Instant::now();
    let root = rec.span("pass", 0);
    let settings =
        RunSettings { threads: THREADS, out_dir: Some(dir.to_owned()), ..Default::default() };
    let exp = Experiment::with_settings(shape.name, seed, settings);
    let warm_done: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let trial_times: Mutex<Vec<(Instant, Instant)>> = Mutex::new(Vec::new());

    let run = rec.span("bench.run_trials", root.id());
    let run_id = run.id();
    let warm = exp.with_warmup(shape.points.len(), |wrng, p| {
        let s = rec.span("bench.warmup", run_id);
        let w = warm_point(shape, p, wrng, rec, s.id());
        drop(s);
        warm_done.lock().expect("warm-up clock").push(Instant::now());
        w
    });
    let outcomes = warm.run_trials(shape.chunks, |w, rng, _| {
        let start = Instant::now();
        let chunk = chunk_trial(w, rng, shape.per_chunk, rec, run_id);
        trial_times.lock().expect("trial clock").push((start, Instant::now()));
        chunk
    });
    drop(run);

    let s = rec.span("bench.rows", root.id());
    let mut trials = Vec::new();
    let mut failed = 0;
    let mut cycles = 0;
    let mut counts = vec![0u64; crate::SIM_COUNTS.len()];
    let mut accuracy = Vec::new();
    for (p, pt) in shape.points.iter().enumerate() {
        let (mut correct, mut total) = (0, 0);
        for c in 0..shape.chunks {
            let i = p * shape.chunks + c;
            let Some(chunk) = outcomes[i].as_ok() else {
                failed += 1;
                continue;
            };
            correct += chunk.correct;
            total += chunk.symbols;
            cycles += chunk.cycles;
            for (acc, v) in counts.iter_mut().zip(&chunk.counts) {
                *acc += v;
            }
            trials.push(
                Trial::new(i)
                    .field("config", pt.label)
                    .field("level", pt.level)
                    .field("chunk", c)
                    .field("symbols", chunk.symbols)
                    .field("accuracy", chunk.correct as f64 / chunk.symbols as f64)
                    .field("cycles", chunk.cycles)
                    .labelled_samples(&chunk.sample_classes, &chunk.sample_values),
            );
        }
        accuracy.push((pt.label, correct as f64 / total.max(1) as f64, pt.paper_accuracy));
    }
    drop(s);

    let s = rec.span("bench.finish", root.id());
    let report = exp.finish(&trials).map_err(|e| format!("artifact commit failed: {e}"))?;
    drop(s);

    let s = rec.span("analysis.scan", root.id());
    let entries = ingest::scan_dir(dir).map_err(|e| format!("leakscan cannot scan: {e}"))?;
    let leak_report = LeakReport::from_entries(&entries);
    let policy = GatePolicy { require_leak: vec![shape.name.to_owned()], ..GatePolicy::default() };
    let gate_pass = gates::evaluate(&leak_report, &policy).pass();
    let leaks = per_config_leaks(shape, &entries);
    drop(s);
    let wall_s = t0.elapsed().as_secs_f64();
    let root_id = root.id();
    drop(root);

    let warm_done = warm_done.into_inner().expect("warm-up clock");
    let trial_times = trial_times.into_inner().expect("trial clock");
    let setup_end = warm_done.iter().max().copied().unwrap_or(t0);
    let first = trial_times.iter().map(|t| t.0).min().unwrap_or(setup_end);
    let last = trial_times.iter().map(|t| t.1).max().unwrap_or(first);
    let jsonl = std::fs::read(&report.jsonl)
        .map_err(|e| format!("cannot read {}: {e}", report.jsonl.display()))?;
    Ok(Pass {
        setup_s: setup_end.duration_since(t0).as_secs_f64(),
        wall_s,
        trial_phase_s: last.duration_since(first).as_secs_f64(),
        trials: outcomes.len(),
        failed,
        cycles,
        counts,
        accuracy,
        leaks,
        gate_pass,
        jsonl_sha: util::sha256_hex(&jsonl),
        jsonl_bytes: jsonl.len() as u64,
        trial_ms: trial_times
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect(),
        root: root_id,
    })
}

/// The TVLA verdict of each configuration's rows on their own, so a
/// leak on one configuration cannot hide a clean one.
fn per_config_leaks(shape: &Shape, entries: &[ScanEntry]) -> Vec<(&'static str, bool)> {
    let data = entries.iter().find_map(|e| match e {
        ScanEntry::Loaded(d) if d.name == shape.name => Some(d),
        _ => None,
    });
    shape
        .points
        .iter()
        .map(|pt| {
            let leaks = data.is_some_and(|d| {
                let rows = d
                    .rows
                    .iter()
                    .filter(|r| r.get("config").and_then(|c| c.as_str()) == Some(pt.label))
                    .cloned()
                    .collect();
                let subset = ExperimentData { rows, ..d.clone() };
                leak_report::assess(&subset).leaks() == Some(true)
            });
            (pt.label, leaks)
        })
        .collect()
}

/// Folds a pass's output checks and fingerprint into the report.
fn check_pass(shape: &Shape, pass: &Pass, first: Option<&Pass>, report: &mut Report) {
    report.attempted += pass.trials as u64;
    report.failed += pass.failed as u64;
    report.check(pass.failed == 0, || format!("{} of {} trials failed", pass.failed, pass.trials));
    report.check(pass.gate_pass, || format!("leakscan gate found no leak in {}", shape.name));
    for (label, leaks) in &pass.leaks {
        report.check(*leaks, || format!("no leak detected on the {label} configuration"));
    }
    for (label, acc, paper) in &pass.accuracy {
        report.check(*acc >= *paper, || {
            format!(
                "{label} accuracy {:.2}% is below the paper's {:.1}%",
                acc * 100.0,
                paper * 100.0
            )
        });
    }
    if let Some(first) = first {
        report.check(pass.jsonl_sha == first.jsonl_sha && pass.counts == first.counts, || {
            "a repeated pass produced different artifacts or counts".to_owned()
        });
    }
}

fn fingerprint(shape: &Shape, pass: &Pass, report: &mut Report) {
    for (name, v) in crate::SIM_COUNTS.iter().zip(&pass.counts) {
        report.fingerprint.push((name.to_string(), v.to_string()));
    }
    report.fingerprint.push(("bench.trials".into(), pass.trials.to_string()));
    report.fingerprint.push(("bench.failed_trials".into(), pass.failed.to_string()));
    report.fingerprint.push((format!("sha256:{}.jsonl", shape.name), pass.jsonl_sha.clone()));
}

/// The untraced run: passes until `budget` is spent (at least three),
/// reporting the median of each end-to-end figure.
pub fn run(shape: &Shape, seed: u64, budget: Duration, scratch: &Scratch) -> Report {
    let mut report = Report::default();
    let rec = Recorder::new(false);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    while passes.len() < 3 || (start.elapsed() < budget && passes.len() < crate::MAX_PASSES) {
        let dir = match scratch.fresh(&format!("pass{}", passes.len())) {
            Ok(d) => d,
            Err(e) => return report.fail(e),
        };
        util::reset_peak_rss();
        match run_pass(shape, seed, &dir, &rec) {
            Ok(pass) => {
                peaks.push(util::peak_rss_mib("self").unwrap_or(0.0));
                check_pass(shape, &pass, passes.first(), &mut report);
                passes.push(pass);
            }
            Err(e) => return report.fail(e),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let col = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let trials = passes[0].trials as f64;
    report.metric("setup_s", median(&col(|p| p.setup_s)));
    report.metric("wall_s", median(&col(|p| p.wall_s)));
    report.metric("items_per_s", median(&col(|p| p.trials as f64 / p.trial_phase_s)));
    report.metric("peak_rss_mb", median(&peaks));
    let mcps = median(&col(|p| p.cycles as f64 / 1e6 / p.trial_phase_s));
    report.extra("sim_mcycles_per_s", mcps, "Mcycle/s");
    let lat: Vec<f64> = passes.iter().flat_map(|p| p.trial_ms.iter().copied()).collect();
    report.latency("trial", &lat);
    report.extra("failed_share", report.failed as f64 / report.attempted.max(1) as f64, "ratio");
    report.note(format!(
        "{} passes of {} trials; items are chunk trials per second of the trial phase",
        passes.len(),
        trials
    ));
    for (label, acc, paper) in &passes[0].accuracy {
        report.note(format!("{label}: accuracy {:.2}% (paper {:.1}%)", acc * 100.0, paper * 100.0));
    }
    fingerprint(shape, &passes[0], &mut report);
    report
}

/// The traced run: traced passes alternating with untraced passes of the
/// same inputs, then the layer probes on forks of the warm points.
/// Span totals are reported per pass.
pub fn run_traced(shape: &Shape, seed: u64, scratch: &Scratch) -> (Report, Recorder) {
    let mut report = Report::default();
    let rec = Recorder::new(true);
    let plain = Recorder::new(false);
    // The first pass of a process pays its page faults. After it,
    // untraced and traced passes alternate, so the tracing overhead
    // compares like with like even while the host's speed drifts.
    let mut first: Option<Pass> = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for k in 0..=2 * TRACED_PASSES {
        let tracing = k > 0 && k % 2 == 0;
        let r = if tracing { &rec } else { &plain };
        match scratch.fresh(&format!("pass{k}")).and_then(|d| run_pass(shape, seed, &d, r)) {
            Ok(p) => {
                check_pass(shape, &p, first.as_ref(), &mut report);
                match (&first, tracing) {
                    (None, _) => first = Some(p),
                    (Some(_), true) => traced.push(p),
                    (Some(_), false) => untraced.push(p),
                }
            }
            Err(e) => return (report.fail(e), rec),
        }
    }

    let spans = rec.spans();
    let per_pass = |name: &str| {
        trace::durations(&spans, name).iter().sum::<u64>() as f64 / 1e6 / traced.len() as f64
    };
    let med = |name: &str| {
        median(&trace::durations(&spans, name).iter().map(|&d| d as f64).collect::<Vec<_>>())
    };
    let pass = &traced[0];
    report.metric("engine.new_ms", per_pass("engine.new"));
    report.metric("attacks.plan_ms", per_pass("attacks.plan"));
    if shape.preamble_bits > 0 {
        report.metric("attacks.preamble_ms", per_pass("attacks.preamble"));
    }
    report.metric("engine.snapshot_ms", per_pass("engine.snapshot"));
    report.metric("engine.fork_us", med("engine.fork") / 1e3);
    report.metric("attacks.transmit_ms", med("attacks.transmit") / 1e6);
    report.metric(
        "engine.host_ns_per_kcycle",
        per_pass("attacks.transmit") * 1e6 / (pass.cycles as f64 / 1e3),
    );
    let closures = per_pass("bench.warmup") + per_pass("bench.trial");
    report.metric(
        "bench.trial_overhead_ms",
        per_pass("bench.run_trials") - closures / THREADS as f64,
    );
    report.metric("bench.finish_ms", per_pass("bench.finish"));
    report.metric("bench.jsonl_bytes", pass.jsonl_bytes as f64);
    report.metric("analysis.scan_ms", per_pass("analysis.scan"));
    for (name, v) in crate::SIM_COUNTS.iter().zip(&pass.counts) {
        report.metric(name, *v as f64);
    }
    report.metric("bench.trials", pass.trials as f64);
    report.metric("bench.failed_trials", pass.failed as f64);
    let roots: Vec<SpanId> = traced.iter().map(|p| p.root).collect();
    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    crate::span_summary(&mut report, &spans, &roots, wall(&untraced), wall(&traced));
    fingerprint(shape, pass, &mut report);

    probes(shape, seed, &mut report);
    (report, rec)
}

/// Per-call host time of `f`, timed over `batches` batches of `per_batch`
/// calls: the median batch time divided by the batch size (ns).
fn per_call_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::with_capacity(batches);
    for b in 0..batches {
        let t = Instant::now();
        for k in 0..per_batch {
            f(b * per_batch + k);
        }
        times.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&times)
}

/// Median host time of calls into single layer functions, each run on a
/// fork of this sweep's warm points with inputs drawn from the seed.
fn probes(shape: &Shape, seed: u64, report: &mut Report) {
    const BATCHES: usize = 31;
    const PER_BATCH: usize = 64;
    let mut rng = SimRng::seed_from(seed).split(crate::PROBE_STREAM);
    let plain = Recorder::new(false);
    let warms: Vec<Warm> = (0..shape.points.len())
        .map(|p| {
            let mut wrng = SimRng::seed_from(seed)
                .split(metaleak_bench::harness::WARMUP_STREAM_BASE + p as u64);
            warm_point(shape, p, &mut wrng, &plain, 0)
        })
        .collect();

    let mut key = [0u8; 16];
    key.iter_mut().for_each(|b| *b = rng.below(256) as u8);
    let crypto = CryptoEngine::new(key);
    let inputs: Vec<([u8; 64], u64, u64)> = (0..BATCHES * PER_BATCH)
        .map(|_| {
            let mut block = [0u8; 64];
            block.iter_mut().for_each(|b| *b = rng.below(256) as u8);
            (block, rng.below(1 << 30), rng.below(1 << 20))
        })
        .collect();
    report.metric(
        "crypto.pad_ns",
        per_call_ns(BATCHES, PER_BATCH, |i| {
            let (b, addr, ctr) = &inputs[i];
            black_box(crypto.encrypt_block(black_box(b), *addr, *ctr));
        }),
    );
    report.metric(
        "crypto.mac_ns",
        per_call_ns(BATCHES, PER_BATCH, |i| {
            let (b, addr, ctr) = &inputs[i];
            black_box(crypto.mac_block(black_box(b), *ctr, *addr));
        }),
    );
    report.metric(
        "crypto.hash_ns",
        per_call_ns(BATCHES, PER_BATCH, |i| {
            black_box(crypto.hash_node(black_box(&inputs[i].0)));
        }),
    );
    report.metric(
        "crypto.hash64_ns",
        per_call_ns(BATCHES, PER_BATCH, |i| {
            black_box(crypto.hash_node64(black_box(&inputs[i].0)));
        }),
    );

    let (mut hit, mut miss, mut wb) = (Vec::new(), Vec::new(), Vec::new());
    for (pt, warm) in shape.points.iter().zip(&warms) {
        let snap = warm.snapshot();
        let mem = snap.fork();
        let cbs = mem.counters().counter_blocks();
        let walks: Vec<(u64, Vec<u8>)> = (0..BATCHES * PER_BATCH)
            .map(|_| {
                let cb = rng.below(cbs);
                (cb, mem.counters().counter_block_bytes(cb))
            })
            .collect();
        let verify = per_call_ns(BATCHES, PER_BATCH, |i| {
            let (cb, bytes) = &walks[i];
            black_box(mem.tree().verify_counter_block(*cb, bytes, |n| mem.tree_node_cached(n)));
        });
        let name = match pt.label {
            "sct" => "meta.verify_sct_ns",
            "ht" => "meta.verify_ht_ns",
            _ => "meta.verify_sit_ns",
        };
        report.metric(name, verify);

        // A private copy, so the engine probes time the access paths
        // rather than first-touch copy-on-write chunk copies.
        let mut mem = snap.fork();
        mem.unshare();
        let blocks = mem.layout().data_blocks();
        for _ in 0..BATCHES {
            let b = rng.below(blocks);
            mem.read(CoreId(0), b).expect("probe read");
            hit.push(per_call_ns(1, PER_BATCH, |_| {
                black_box(mem.read(CoreId(0), b).expect("cached probe read"));
            }));
        }
        for _ in 0..BATCHES * 4 {
            let b = rng.below(blocks);
            mem.flush_block(b);
            mem.force_counter_writeback(mem.counter_block_of(b));
            let t = Instant::now();
            black_box(mem.read(CoreId(0), b).expect("flushed probe read"));
            miss.push(t.elapsed().as_nanos() as f64);
        }
        for (data, _, _) in inputs.iter().take(BATCHES * 4) {
            let b = rng.below(blocks);
            let t = Instant::now();
            black_box(mem.write_back(CoreId(0), b, *data).expect("probe write-back"));
            black_box(mem.fence());
            wb.push(t.elapsed().as_nanos() as f64);
        }
    }
    report.metric("engine.read_hit_ns", median(&hit));
    report.metric("engine.read_miss_ns", median(&miss));
    report.metric("engine.write_back_ns", median(&wb));

    let cfg = &shape.points[0].cfg;
    let mut cache: SetAssocCache<u64> = SetAssocCache::new(cfg.sim.l2);
    let span = (cfg.sim.l2.capacity_bytes / 64 * 2) as u64;
    let keys: Vec<u64> = (0..BATCHES * PER_BATCH).map(|_| rng.below(span)).collect();
    report.metric(
        "sim.cache_access_ns",
        per_call_ns(BATCHES, PER_BATCH, |i| {
            black_box(cache.access(keys[i], false));
        }),
    );
    let mut dram = warms[0].snapshot().fork().dram().clone();
    let rows: Vec<u64> = (0..BATCHES * PER_BATCH).map(|_| rng.below(1 << 24)).collect();
    report.metric(
        "sim.dram_access_ns",
        per_call_ns(BATCHES, PER_BATCH, |i| {
            black_box(dram.access(BlockAddr::new(rows[i])));
        }),
    );

    let classes: Vec<u64> = (0..shape.per_chunk).map(|_| rng.below(2)).collect();
    let values: Vec<u64> = (0..shape.per_chunk).map(|_| 200 + rng.below(400)).collect();
    report.metric(
        "bench.json_row_ns",
        per_call_ns(BATCHES, 8, |i| {
            let row = JsonObj::new()
                .field("trial", i)
                .field("config", "sct")
                .field("level", 0u64)
                .field("chunk", i % 8)
                .field("symbols", shape.per_chunk)
                .field("accuracy", 1.0)
                .field("cycles", 1_000_000u64 + i as u64)
                .field("sample_class", classes.clone())
                .field("sample_value", values.clone())
                .build();
            black_box(row.render());
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_line_up_with_their_names() {
        let mem = SecureMemory::new(configs::sct_experiment());
        assert_eq!(counts(&mem).len(), crate::SIM_COUNTS.len());
    }
}
