//! The parallel, deterministic, fault-tolerant experiment harness.
//!
//! Every figure/table binary builds an [`Experiment`], fans its
//! independent trials (sweep points, repetitions, configurations) out
//! over scoped worker threads with [`Experiment::run_trials`] or
//! [`Warmup::run_trials`], and finishes by emitting machine-readable
//! results through the JSONL sink ([`Experiment::finish`]).
//!
//! # Determinism
//!
//! Trials execute through the shared execution core ([`crate::exec`]),
//! which owns the stream convention: with the experiment seed as the
//! root, trial `i` draws `SimRng::seed_from(seed).split(i)` and the
//! warmup of sweep point `p` draws `split(WARMUP_STREAM_BASE + p)`, no
//! matter which worker thread executes it or how many workers exist.
//! Results are collected by trial index, so the JSONL rows and any CSV
//! built from them are **byte-identical across thread counts** and
//! snapshot modes. Only the side `<name>.meta.json` file records
//! timing-dependent facts (thread count, wall-clock).
//!
//! # Failures
//!
//! The core supervises every warmup and trial: a panicking or
//! deadline-blown trial is retried on its *original* RNG stream and,
//! if it keeps failing, becomes a structured [`TrialFailure`] row
//! (`{"trial":i,"failed":true,...}`) instead of killing the sweep. A
//! failed warmup becomes one such row per trial of its point; warmups
//! are never fault-injected, so `METALEAK_FAIL_TRIAL` fails exactly
//! the listed trials in both snapshot modes. The bin exits with code 2
//! ([`crate::conclude`]) and `leakscan --allow-degraded` can still
//! assess the surviving trials. Completed trials checkpoint to a
//! fsynced `<name>.journal.jsonl`; an interrupted run replays the
//! journal on restart and executes only the missing trials, producing
//! byte-identical final artifacts.
//!
//! # Seeding convention
//!
//! - each binary owns one literal experiment seed;
//! - trial `i` uses stream id `i` (handed to the closure pre-split);
//! - auxiliary streams shared by *all* trials (e.g. a common workload
//!   for a controlled scheme comparison) use ids above
//!   [`AUX_STREAM_BASE`] via [`Experiment::aux_stream`], so they can
//!   never collide with a trial id.

use crate::exec::{self, PointPlan};
use crate::json::{Json, JsonObj};
use crate::supervisor::{Journal, JournalValue, SupervisorPolicy, TrialFailure, TrialOutcome};
use crate::{quick_mode, ArtifactError};
use metaleak_sim::rng::SimRng;
use metaleak_sim::trace::TraceLog;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub use crate::exec::WARMUP_STREAM_BASE;

/// First stream id reserved for auxiliary (non-trial) RNG streams.
/// Trial ids occupy `0..n`, which in practice stays far below this.
pub const AUX_STREAM_BASE: u64 = 1 << 32;

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// panicking: trial bodies are isolated by `catch_unwind`, so a poison
/// marker only means some earlier holder panicked — the protected data
/// (index-addressed result slots, append-only sinks) stays valid.
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Explicit run configuration for an [`Experiment`] — everything the
/// harness used to read from process-global `METALEAK_*` environment
/// variables, as one plain struct a caller can construct and thread
/// through in-process. The environment path survives as the
/// [`RunSettings::from_env`] shim (what [`Experiment::new`] uses); a
/// multi-tenant server builds its own `RunSettings` per job instead,
/// since env vars cannot configure two concurrent jobs differently.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Worker-thread count for trial fan-out (minimum 1).
    pub threads: usize,
    /// Batched-execution lane width (`METALEAK_LANES`, minimum 1).
    /// Installed process-wide via
    /// [`metaleak_engine::batch::set_lane_count`] when the experiment
    /// is constructed; 1 is the byte-for-byte scalar path, ≥ 2 enables
    /// the engine's verification memo for lane-parallel sweeps.
    pub lanes: usize,
    /// Artifact sink directory. `None` falls back to the process-wide
    /// resolution ([`crate::try_out_dir`]: `METALEAK_OUT_DIR`, then
    /// `target/experiments`); `Some` pins this experiment's outputs —
    /// the server points each job at its own cache directory.
    pub out_dir: Option<PathBuf>,
    /// Quick (CI-sized) mode flag recorded in journal headers and
    /// commit records (`METALEAK_FULL` inverted).
    pub quick: bool,
    /// Whether sweep points share one warmed snapshot across trials
    /// (`METALEAK_SNAPSHOT`).
    pub sharing: bool,
    /// Whether completed trials checkpoint to the crash-safe journal
    /// (`METALEAK_JOURNAL`).
    pub journal: bool,
    /// Whether per-trial event tracing was requested (`METALEAK_TRACE`)
    /// — recorded in journal headers so a traced and an untraced run
    /// never replay each other's checkpoints.
    pub trace: bool,
    /// Trial supervision: deadlines, retries, injected failures
    /// (`METALEAK_TRIAL_*`).
    pub policy: SupervisorPolicy,
}

impl Default for RunSettings {
    /// Environment-free defaults: single-threaded, default sink,
    /// quick mode, sharing and journaling on, tracing off, default
    /// supervision. What a hermetic in-process caller starts from.
    fn default() -> Self {
        RunSettings {
            threads: 1,
            lanes: 1,
            out_dir: None,
            quick: true,
            sharing: true,
            journal: true,
            trace: false,
            policy: SupervisorPolicy::default(),
        }
    }
}

impl RunSettings {
    /// The historical behaviour: every knob read from its `METALEAK_*`
    /// environment variable (with the usual lenient-parse warnings).
    pub fn from_env() -> Self {
        RunSettings {
            threads: default_threads(),
            lanes: default_lanes(),
            out_dir: None,
            quick: quick_mode(),
            sharing: crate::snapshot_sharing(),
            journal: crate::journal_enabled(),
            trace: crate::trace_enabled(),
            policy: SupervisorPolicy::from_env(),
        }
    }
}

/// Worker-thread count used by [`RunSettings::from_env`]: the value of
/// `METALEAK_THREADS` when set (minimum 1), otherwise the machine's
/// available parallelism. An unparsable or zero value warns (through
/// the [`crate::diag`] sink) and falls back to 1.
pub fn default_threads() -> usize {
    match std::env::var("METALEAK_THREADS") {
        Ok(v) if !v.trim().is_empty() => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                crate::warn_env_once("METALEAK_THREADS", &v, "a positive integer", "1");
                1
            }
        },
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Lane width used by [`RunSettings::from_env`]: the value of
/// `METALEAK_LANES` when set (minimum 1), otherwise 1 — the scalar
/// path stays the default; batching is opt-in. An unparsable or zero
/// value warns (through the [`crate::diag`] sink) and falls back to 1,
/// numerically agreeing with the engine's own strict fallback in
/// [`metaleak_engine::batch::lane_count`].
pub fn default_lanes() -> usize {
    match std::env::var("METALEAK_LANES") {
        Ok(v) if !v.trim().is_empty() => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                crate::warn_env_once("METALEAK_LANES", &v, "a positive integer", "1");
                1
            }
        },
        _ => 1,
    }
}

/// One JSONL row of an experiment: a trial index plus named stats.
#[derive(Debug, Clone)]
pub struct Trial {
    idx: usize,
    fields: Vec<(String, Json)>,
    trace: Option<TraceLog>,
}

impl Trial {
    /// Starts a row for trial `idx`.
    pub fn new(idx: usize) -> Self {
        Trial { idx, fields: Vec::new(), trace: None }
    }

    /// The trial index this row belongs to.
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// Appends a named stat (field order is preserved in the output).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_owned(), value.into()));
        self
    }

    /// Attaches labelled per-sample observations to the row under the
    /// standard `sample_class` / `sample_value` schema consumed by
    /// `metaleak-analysis` (`leakscan`): `classes[i]` is the secret
    /// class (transmitted bit, symbol, key bit...) behind observation
    /// `values[i]` (latency in cycles, spy write count...). The two
    /// parallel arrays are what turn a figure dump into a labelable
    /// leakage-assessment input.
    ///
    /// # Panics
    /// Panics if the slices' lengths differ.
    pub fn labelled_samples(self, classes: &[u64], values: &[u64]) -> Self {
        assert_eq!(classes.len(), values.len(), "sample_class/sample_value length mismatch");
        self.field("sample_class", classes.to_vec()).field("sample_value", values.to_vec())
    }

    /// Attaches a trial's [`TraceLog`] (from a `RingTracer` the trial
    /// ran on) and records its summary on the row: `trace_events`
    /// (total events ever recorded) and `trace_dropped` (events lost
    /// to the bounded ring). [`Experiment::finish`] then renders the
    /// retained events into the `<name>.trace.jsonl` /
    /// `<name>.trace.chrome.json` sidecars. Untraced trials leave the
    /// row — and every emitted artifact — unchanged.
    pub fn with_trace(mut self, log: TraceLog) -> Self {
        self = self.field("trace_events", log.recorded()).field("trace_dropped", log.dropped);
        self.trace = Some(log);
        self
    }

    fn render(&self) -> String {
        let mut obj = JsonObj::new().field("trial", self.idx);
        for (k, v) in &self.fields {
            obj = obj.field(k, v.clone());
        }
        obj.build().render()
    }
}

/// Where an experiment's outputs landed, plus its measured wall-clock.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The deterministic per-trial JSONL file.
    pub jsonl: PathBuf,
    /// The run-metadata JSON file (threads, wall-clock — not
    /// deterministic across machines or thread counts).
    pub meta: PathBuf,
    /// The deterministic per-event trace sidecar, when at least one
    /// trial attached a [`TraceLog`] ([`Trial::with_trace`]).
    pub trace_jsonl: Option<PathBuf>,
    /// Wall-clock from [`Experiment::new`] to [`Experiment::finish`].
    pub wall_clock: Duration,
    /// Trials that failed every attempt (sorted by index). Non-empty
    /// means the sweep is *degraded*: artifacts are complete, failure
    /// rows stand in for the lost trials, and [`crate::conclude`]
    /// turns this into exit code 2.
    pub failures: Vec<TrialFailure>,
}

/// A named, seeded, parallel experiment.
#[derive(Debug)]
pub struct Experiment {
    name: String,
    seed: u64,
    settings: RunSettings,
    config: Vec<(String, Json)>,
    started: Instant,
    failures: Mutex<Vec<TrialFailure>>,
    journal_paths: Mutex<Vec<PathBuf>>,
    stage: AtomicUsize,
}

impl Experiment {
    /// Creates an experiment configured from the environment
    /// ([`RunSettings::from_env`]): [`default_threads`] workers, the
    /// `METALEAK_TRIAL_*` supervision policy and journaling per
    /// `METALEAK_JOURNAL`.
    pub fn new(name: &str, seed: u64) -> Self {
        Self::with_settings(name, seed, RunSettings::from_env())
    }

    /// Creates an experiment from explicit settings, reading nothing
    /// from the environment except the output-directory fallback when
    /// `settings.out_dir` is `None`. The in-process entry point for
    /// callers (servers, tests) that configure each run individually.
    pub fn with_settings(name: &str, seed: u64, settings: RunSettings) -> Self {
        // Install the lane width process-wide so every engine
        // construction under this experiment (bins, serve jobs, fuzz
        // campaigns) picks up batching without per-call plumbing.
        metaleak_engine::batch::set_lane_count(settings.lanes);
        Experiment {
            name: name.to_owned(),
            seed,
            settings,
            config: Vec::new(),
            started: Instant::now(),
            failures: Mutex::new(Vec::new()),
            journal_paths: Mutex::new(Vec::new()),
            stage: AtomicUsize::new(0),
        }
    }

    /// Overrides the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.settings.threads = threads.max(1);
        self
    }

    /// Overrides the batched-execution lane width (minimum 1) and
    /// installs it process-wide, like construction does.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.settings.lanes = lanes.max(1);
        metaleak_engine::batch::set_lane_count(self.settings.lanes);
        self
    }

    /// Pins the artifact sink to `dir` instead of the process-wide
    /// `METALEAK_OUT_DIR` / `target/experiments` resolution.
    pub fn with_out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.settings.out_dir = Some(dir.into());
        self
    }

    /// Overrides the `METALEAK_JOURNAL` decision. Tests that re-run
    /// one experiment name in-process disable journaling so a replay
    /// cannot stand in for the execution under test.
    pub fn with_journal(mut self, journal: bool) -> Self {
        self.settings.journal = journal;
        self
    }

    /// Overrides the deterministic per-attempt cycle budget
    /// (`METALEAK_TRIAL_DEADLINE`); 0 disables it.
    pub fn with_trial_deadline(mut self, cycles: u64) -> Self {
        self.settings.policy.deadline_cycles = (cycles > 0).then_some(cycles);
        self
    }

    /// Overrides the wall-clock backstop (`METALEAK_TRIAL_WALL_MS`);
    /// 0 disables it.
    pub fn with_wall_deadline_ms(mut self, ms: u64) -> Self {
        self.settings.policy.wall_ms = (ms > 0).then_some(ms);
        self
    }

    /// Overrides the retry count (`METALEAK_TRIAL_RETRIES`): retries
    /// *after* the first attempt.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.settings.policy.retries = retries;
        self
    }

    /// Overrides the initial wall-clock retry backoff in milliseconds
    /// (tests set 0 to retry immediately).
    pub fn with_retry_backoff_ms(mut self, ms: u64) -> Self {
        self.settings.policy.backoff_ms = ms;
        self
    }

    /// Injects deterministic failures into the listed trial indices
    /// (`METALEAK_FAIL_TRIAL`) — every attempt of those trials panics.
    pub fn with_injected_failures(mut self, trials: Vec<usize>) -> Self {
        self.settings.policy.inject = trials;
        self
    }

    /// Records a configuration fact for the metadata sink.
    pub fn config(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.config.push((key.to_owned(), value.into()));
        self
    }

    /// The experiment's root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker-thread count trials will fan out over.
    pub fn threads(&self) -> usize {
        self.settings.threads
    }

    /// The batched-execution lane width in effect.
    pub fn lanes(&self) -> usize {
        self.settings.lanes
    }

    /// The run settings this experiment executes under.
    pub fn settings(&self) -> &RunSettings {
        &self.settings
    }

    /// Resolves the artifact sink directory (creating it):
    /// `settings.out_dir` when pinned, otherwise the process-wide
    /// [`crate::try_out_dir`] resolution.
    fn resolve_out_dir(&self) -> Result<PathBuf, ArtifactError> {
        match &self.settings.out_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| ArtifactError::new("create", dir, e))?;
                Ok(dir.clone())
            }
            None => crate::try_out_dir(),
        }
    }

    /// An auxiliary RNG stream shared by all trials (see the module
    /// docs for the convention). `k` distinguishes multiple aux
    /// streams within one experiment.
    pub fn aux_stream(&self, k: u64) -> SimRng {
        SimRng::seed_from(self.seed).split(AUX_STREAM_BASE + k)
    }

    /// Runs `n` supervised trials of `f` in parallel, returning one
    /// [`TrialOutcome`] per trial in index order: the result, or the
    /// [`TrialFailure`] standing in for a trial that failed every
    /// attempt. With journaling on, completed trials checkpoint to
    /// `<name>.journal.jsonl` and a restarted run replays them instead
    /// of re-executing.
    pub fn run_trials<T, F>(&self, n: usize, f: F) -> Vec<TrialOutcome<T>>
    where
        T: Send + JournalValue,
        F: Fn(&mut SimRng, usize) -> T + Sync,
    {
        let stage = self.stage.fetch_add(1, Ordering::SeqCst);
        let (journal, prefill) = self.open_journal::<T>(stage, n);
        let plan =
            PointPlan { seed: self.seed, point: 0, trials: n, policy: &self.settings.policy };
        self.run_missing(n, prefill, &journal, |i| plan.trial(i, |rng| f(rng, i)))
    }

    /// Runs every trial of `0..n` absent from `prefill` through
    /// `run_one` on the worker pool, checkpointing each fresh outcome
    /// as it lands, and returns all `n` outcomes in index order.
    fn run_missing<T: Send + JournalValue>(
        &self,
        n: usize,
        mut prefill: BTreeMap<usize, TrialOutcome<T>>,
        journal: &Option<Journal>,
        run_one: impl Fn(usize) -> TrialOutcome<T> + Sync,
    ) -> Vec<TrialOutcome<T>> {
        let missing: Vec<usize> = (0..n).filter(|i| !prefill.contains_key(i)).collect();
        let fresh = exec::map_indexed(missing.len(), self.settings.threads, |k| {
            let out = run_one(missing[k]);
            journal_append(journal, &out, missing[k]);
            out
        });
        prefill.extend(missing.into_iter().zip(fresh));
        let outcomes: Vec<TrialOutcome<T>> = prefill.into_values().collect();
        self.record_failures(&outcomes);
        outcomes
    }

    /// Opens this experiment's journal for fan-out stage `stage`
    /// (`run_trials` calls are numbered in program order, which is
    /// deterministic, so a restarted bin maps stages back correctly)
    /// and converts any replayable rows of an interrupted previous run
    /// into prefilled outcomes.
    fn open_journal<T: JournalValue>(
        &self,
        stage: usize,
        n: usize,
    ) -> (Option<Journal>, BTreeMap<usize, TrialOutcome<T>>) {
        if !self.settings.journal {
            return (None, BTreeMap::new());
        }
        let dir = match self.resolve_out_dir() {
            Ok(d) => d,
            Err(e) => {
                crate::diag::warn(&format!("{e}; checkpointing disabled"));
                return (None, BTreeMap::new());
            }
        };
        let file = if stage == 0 {
            format!("{}.journal.jsonl", self.name)
        } else {
            format!("{}.stage{stage}.journal.jsonl", self.name)
        };
        let path = dir.join(file);
        let header = JsonObj::new()
            .field("journal", self.name.as_str())
            .field("version", 1u64)
            .field("state_shape", metaleak_engine::STATE_SHAPE)
            .field("stage", stage)
            .field("seed", self.seed)
            .field("trials", n)
            .field("quick", self.settings.quick)
            .field("sharing", self.settings.sharing)
            .field("traced", self.settings.trace)
            .build();
        match Journal::open(&path, &header) {
            Ok((journal, rows)) => {
                let mut prefill = BTreeMap::new();
                for (i, row) in &rows {
                    if *i >= n {
                        continue;
                    }
                    if let Some(outcome) = Journal::replay_row::<T>(row) {
                        prefill.insert(*i, outcome);
                    }
                }
                if !prefill.is_empty() {
                    println!(
                        "experiment '{}': resuming — replayed {} of {} trial(s) from {}",
                        self.name,
                        prefill.len(),
                        n,
                        path.display()
                    );
                }
                lock_ignoring_poison(&self.journal_paths).push(path);
                (Some(journal), prefill)
            }
            Err(e) => {
                crate::diag::warn(&format!(
                    "cannot open journal {}: {e}; checkpointing disabled",
                    path.display()
                ));
                (None, BTreeMap::new())
            }
        }
    }

    /// Copies the failures out of `outcomes` into the experiment's
    /// sink, which [`Experiment::finish`] merges into the artifacts.
    fn record_failures<T>(&self, outcomes: &[TrialOutcome<T>]) {
        let mut sink = lock_ignoring_poison(&self.failures);
        for outcome in outcomes {
            if let TrialOutcome::Failed(f) = outcome {
                sink.push(f.clone());
            }
        }
    }

    /// Registers one trial failure directly — for callers that run
    /// trials through [`crate::exec::PointPlan`] on their own scheduler
    /// (e.g. a work-stealing pool sharing workers across experiments)
    /// rather than [`Experiment::run_trials`].
    /// [`Experiment::finish`] merges it into the artifacts exactly
    /// like a harness-recorded failure.
    pub fn note_failure(&self, failure: TrialFailure) {
        lock_ignoring_poison(&self.failures).push(failure);
    }

    /// Stages a warmup-sharing trial plan: `points` sweep points, each
    /// warmed once by `warmup` (typically: build a `SecureMemory`,
    /// prime the channel, take a
    /// [`metaleak_engine::snapshot::Snapshot`]), with every trial of a
    /// point receiving a shared reference to that point's warmup state.
    ///
    /// Whether the warmup actually runs once per point (snapshot
    /// sharing, the default) or is recomputed inside every trial
    /// (`METALEAK_SNAPSHOT=0`) is invisible to the results: the warmup
    /// always draws from point `p`'s warmup stream ([`crate::exec`])
    /// — never from a trial stream — and trials fork the warmed state
    /// instead of mutating it, so both modes produce byte-identical
    /// rows. The same symmetry holds for failures: a warmup that panics
    /// or blows its budget yields the same failure rows for the point's
    /// trials in both modes (the cycle budget is re-armed between
    /// warmup and trial body in the per-trial mode to keep the
    /// accounting equal), and an injected failure fails only its trial.
    pub fn with_warmup<S, W>(&self, points: usize, warmup: W) -> Warmup<'_, W>
    where
        W: Fn(&mut SimRng, usize) -> S + Sync,
    {
        Warmup { exp: self, points, warmup, sharing: self.settings.sharing }
    }

    /// Writes the result sink: `<name>.jsonl` (one deterministic row
    /// per trial) and `<name>.meta.json` (seed, config, thread count,
    /// row count, wall-clock in milliseconds), both under
    /// `target/experiments/`. Trials that failed supervision
    /// contribute `{"trial":i,"failed":true,...}` rows, merged into
    /// index order with the caller's rows; the sidecar then records
    /// `failed`, `degraded` and the `failed_trials` details.
    ///
    /// The sidecar is the **commit record** and is written strictly
    /// last: any stale `<name>.meta.json` from a previous run is
    /// removed *before* the JSONL is (re)written, so a crash or panic
    /// between the two writes can never leave a sidecar sitting next
    /// to a truncated or mismatched `.jsonl`. `leakscan` refuses
    /// experiments whose sidecar is missing, lacks `complete: true`,
    /// or whose `rows` count disagrees with the JSONL line count. The
    /// trial journal is deleted after the sidecar lands — the sidecar
    /// supersedes it as the commit record.
    ///
    /// # Errors
    /// [`ArtifactError`] when an output file cannot be removed or
    /// written; bins surface it and exit 1 via [`crate::conclude`].
    pub fn finish(self, trials: &[Trial]) -> Result<ExperimentReport, ArtifactError> {
        let wall_clock = self.started.elapsed();
        let dir = self.resolve_out_dir()?;

        let mut failures = self.failures.into_inner().unwrap_or_else(PoisonError::into_inner);
        failures.sort_by_key(|f| f.trial);

        // Invalidate first: from here until the final write, the
        // experiment has no commit record. Stale trace sidecars from a
        // previous (possibly traced) run go with it, so an untraced
        // re-run never leaves an orphaned trace next to fresh rows.
        let meta = dir.join(format!("{}.meta.json", self.name));
        let trace_path = dir.join(format!("{}.trace.jsonl", self.name));
        let chrome_path = dir.join(format!("{}.trace.chrome.json", self.name));
        for stale in [&meta, &trace_path, &chrome_path] {
            match std::fs::remove_file(stale) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(ArtifactError::new("remove stale artifact", stale, e)),
            }
        }

        // Merge the caller's rows with the failure stand-in rows into
        // one index-ordered stream.
        let mut rows: Vec<(usize, String)> = trials
            .iter()
            .map(|t| (t.idx, t.render()))
            .chain(failures.iter().map(|f| (f.trial, f.row_json().render())))
            .collect();
        rows.sort_by_key(|&(i, _)| i);
        let mut body = String::new();
        for (_, row) in &rows {
            body.push_str(row);
            body.push('\n');
        }
        let jsonl = dir.join(format!("{}.jsonl", self.name));
        std::fs::write(&jsonl, body).map_err(|e| ArtifactError::new("write", &jsonl, e))?;

        let traces: Vec<(usize, &TraceLog)> =
            trials.iter().filter_map(|t| t.trace.as_ref().map(|log| (t.idx, log))).collect();
        let (trace_jsonl, trace_rows) = if traces.is_empty() {
            (None, None)
        } else {
            let (trace_body, trows) = crate::trace::trace_jsonl(&traces);
            std::fs::write(&trace_path, trace_body)
                .map_err(|e| ArtifactError::new("write", &trace_path, e))?;
            let chrome = crate::trace::chrome_trace(&traces);
            std::fs::write(&chrome_path, chrome.render() + "\n")
                .map_err(|e| ArtifactError::new("write", &chrome_path, e))?;
            (Some(trace_path), Some(trows))
        };

        let mut meta_obj = JsonObj::new()
            .field("experiment", self.name.as_str())
            .field("seed", self.seed)
            .field("threads", self.settings.threads)
            .field("lanes", self.settings.lanes)
            .field("trials", rows.len())
            .field("rows", rows.len())
            .field("failed", failures.len())
            .field("complete", true)
            .field("quick_mode", self.settings.quick)
            .field("snapshot_sharing", self.settings.sharing);
        if !failures.is_empty() {
            meta_obj = meta_obj.field("degraded", true).field(
                "failed_trials",
                Json::Arr(failures.iter().map(TrialFailure::meta_json).collect()),
            );
        }
        if let Some(trows) = trace_rows {
            // Commit record for the trace sidecar: `tracescan` refuses
            // traces whose row count disagrees (a torn write).
            meta_obj = meta_obj.field("trace_rows", trows);
        }
        let meta_json = meta_obj
            .field("wall_clock_ms", wall_clock.as_millis() as u64)
            .field("config", Json::Obj(self.config.clone()))
            .build();
        std::fs::write(&meta, meta_json.render() + "\n")
            .map_err(|e| ArtifactError::new("write", &meta, e))?;

        // The sidecar is committed; the journal is now redundant.
        // Best-effort removal — a leftover journal only costs a replay.
        for path in self.journal_paths.into_inner().unwrap_or_else(PoisonError::into_inner) {
            let _ = std::fs::remove_file(path);
        }

        println!(
            "experiment '{}': {} trials ({} failed) on {} thread(s) in {} ms; JSONL -> {}",
            self.name,
            rows.len(),
            failures.len(),
            self.settings.threads,
            wall_clock.as_millis(),
            jsonl.display()
        );
        if let Some(tp) = &trace_jsonl {
            println!(
                "trace sidecar: {} rows -> {} (+ {})",
                trace_rows.unwrap_or(0),
                tp.display(),
                chrome_path.display()
            );
        }
        Ok(ExperimentReport { jsonl, meta, trace_jsonl, wall_clock, failures })
    }
}

/// Checkpoints one freshly completed outcome (success or failure);
/// replayed outcomes never re-append.
fn journal_append<T: JournalValue>(journal: &Option<Journal>, outcome: &TrialOutcome<T>, i: usize) {
    if let Some(j) = journal {
        match outcome {
            TrialOutcome::Done(v) => j.append(&Journal::success_entry(i, v)),
            TrialOutcome::Failed(f) => j.append(&Journal::failure_entry(f)),
        }
    }
}

/// A staged warmup-sharing trial plan (see
/// [`Experiment::with_warmup`]).
#[derive(Debug)]
pub struct Warmup<'a, W> {
    exp: &'a Experiment,
    points: usize,
    warmup: W,
    sharing: bool,
}

impl<W> Warmup<'_, W> {
    /// Overrides the `METALEAK_SNAPSHOT` environment decision —
    /// determinism tests use this to run both modes in one process.
    pub fn with_sharing(mut self, sharing: bool) -> Self {
        self.sharing = sharing;
        self
    }

    /// Runs `points × trials_per_point` supervised trials. Trial `i`
    /// belongs to point `i / trials_per_point`, receives a shared
    /// reference to that point's warmup state and its own trial stream
    /// `SimRng::seed_from(seed).split(i)` — exactly the stream the same
    /// trial would get from [`Experiment::run_trials`].
    ///
    /// With sharing on, every point that still has a missing trial is
    /// warmed once (the warmups fanned out over the worker pool), then
    /// all missing trials of all points fan out together. A warmup that
    /// fails supervision fails the point's not-yet-journaled trials
    /// with its own kind and error — byte-identical to what the
    /// per-trial warmup mode produces when the same warmup fails inside
    /// each trial. On resume, only points that still have missing
    /// trials are re-warmed.
    pub fn run_trials<S, T, F>(&self, trials_per_point: usize, f: F) -> Vec<TrialOutcome<T>>
    where
        W: Fn(&mut SimRng, usize) -> S + Sync,
        S: Send + Sync,
        T: Send + JournalValue,
        F: Fn(&S, &mut SimRng, usize) -> T + Sync,
    {
        assert!(trials_per_point > 0, "with_warmup needs at least one trial per point");
        let exp = self.exp;
        let n = self.points * trials_per_point;
        let stage = exp.stage.fetch_add(1, Ordering::SeqCst);
        let (journal, mut prefill) = exp.open_journal::<T>(stage, n);
        let plans: Vec<PointPlan> = (0..self.points)
            .map(|p| PointPlan {
                seed: exp.seed,
                point: p,
                trials: trials_per_point,
                policy: &exp.settings.policy,
            })
            .collect();

        if !self.sharing {
            return exp.run_missing(n, prefill, &journal, |i| {
                let plan = &plans[i / trials_per_point];
                plan.trial(i % trials_per_point, |rng| {
                    let mut wrng = exec::warmup_stream(exp.seed, plan.point);
                    let state = (self.warmup)(&mut wrng, plan.point);
                    // Give the trial body the same fresh cycle budget it
                    // gets in sharing mode (where warmup and trial run
                    // as separate supervised attempts).
                    metaleak_sim::watchdog::rearm();
                    f(&state, rng, i)
                })
            });
        }

        // Only points with at least one missing trial need warm state
        // on this (possibly resumed) run. Warmups are never journaled:
        // the journal's unit is the trial.
        let needed: Vec<bool> = plans
            .iter()
            .map(|plan| (0..trials_per_point).any(|t| !prefill.contains_key(&plan.trial_id(t))))
            .collect();
        let states = exec::map_indexed(self.points, exp.settings.threads, |p| {
            needed[p].then(|| plans[p].warm(|wrng| (self.warmup)(wrng, p)))
        });
        for (plan, state) in plans.iter().zip(&states) {
            if let Some(TrialOutcome::Failed(wf)) = state {
                for (i, failure) in plan.warmup_failures(wf, |i| prefill.contains_key(&i)) {
                    journal_append(&journal, &failure, i);
                    prefill.insert(i, failure);
                }
            }
        }
        exp.run_missing(n, prefill, &journal, |i| {
            let Some(TrialOutcome::Done(state)) = &states[i / trials_per_point] else {
                unreachable!("a missing trial implies a warmed point")
            };
            plans[i / trials_per_point].trial(i % trials_per_point, |rng| f(state, rng, i))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::FailureKind;

    /// Scratch `METALEAK_OUT_DIR` guard for tests that touch the sink.
    /// Process-global, so journal/finish tests share one lock.
    fn with_scratch_dir<R>(tag: &str, f: impl FnOnce() -> R) -> R {
        static ENV_LOCK: Mutex<()> = Mutex::new(());
        let _guard = lock_ignoring_poison(&ENV_LOCK);
        let dir = std::env::temp_dir().join(format!("metaleak_{tag}_{}", std::process::id()));
        let old = std::env::var("METALEAK_OUT_DIR").ok();
        std::env::set_var("METALEAK_OUT_DIR", &dir);
        let out = f();
        match old {
            Some(v) => std::env::set_var("METALEAK_OUT_DIR", v),
            None => std::env::remove_var("METALEAK_OUT_DIR"),
        }
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn values<T>(outcomes: Vec<TrialOutcome<T>>) -> Vec<T> {
        outcomes.into_iter().map(TrialOutcome::unwrap).collect()
    }

    #[test]
    fn explicit_settings_pin_the_sink_and_stamp_the_commit_record() {
        // The in-process path: no environment reads, artifacts land in
        // the pinned directory, and the commit record reflects the
        // injected settings rather than any METALEAK_* value.
        let dir = std::env::temp_dir().join(format!("metaleak_settings_{}", std::process::id()));
        let settings = RunSettings {
            threads: 2,
            out_dir: Some(dir.clone()),
            quick: false,
            sharing: false,
            journal: false,
            ..RunSettings::default()
        };
        let exp = Experiment::with_settings("settings_unit", 11, settings);
        assert_eq!(exp.threads(), 2);
        assert!(!exp.settings().sharing);
        let out = values(exp.run_trials(3, |rng, _| rng.next_u64()));
        assert_eq!(out.len(), 3);
        let report =
            exp.finish(&[Trial::new(0).field("x", 1u64)]).expect("finish into pinned directory");
        assert!(report.jsonl.starts_with(&dir), "{:?}", report.jsonl);
        let meta = std::fs::read_to_string(&report.meta).expect("meta");
        assert!(meta.contains("\"quick_mode\":false"), "{meta}");
        assert!(meta.contains("\"snapshot_sharing\":false"), "{meta}");
        assert!(meta.contains("\"threads\":2"), "{meta}");
        assert!(
            !dir.join("settings_unit.journal.jsonl").exists(),
            "journal=false must skip checkpointing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn note_failure_reaches_the_artifacts() {
        // External schedulers (the serve worker pool) run trials via
        // the execution core directly and register failures here.
        let dir = std::env::temp_dir().join(format!("metaleak_notef_{}", std::process::id()));
        let settings =
            RunSettings { out_dir: Some(dir.clone()), journal: false, ..RunSettings::default() };
        let exp = Experiment::with_settings("note_failure_unit", 4, settings);
        exp.note_failure(TrialFailure {
            trial: 1,
            attempts: 1,
            kind: FailureKind::Panic,
            error: "poolside panic".to_owned(),
            backtrace: None,
        });
        let report = exp.finish(&[Trial::new(0).field("x", 7u64)]).expect("finish");
        assert_eq!(report.failures.len(), 1);
        let body = std::fs::read_to_string(&report.jsonl).expect("jsonl");
        assert!(body.lines().nth(1).unwrap().contains("\"failed\":true"), "{body}");
        let meta = std::fs::read_to_string(&report.meta).expect("meta");
        assert!(meta.contains("\"degraded\":true"), "{meta}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trial_rows_render_deterministically() {
        let row = Trial::new(2).field("accuracy", 0.5f64).field("windows", 10usize);
        assert_eq!(row.render(), "{\"trial\":2,\"accuracy\":0.5,\"windows\":10}");
        assert_eq!(row.idx(), 2);
    }

    #[test]
    fn labelled_samples_render_parallel_arrays() {
        let row = Trial::new(0).labelled_samples(&[0, 1, 1], &[40, 300, 310]);
        assert_eq!(
            row.render(),
            "{\"trial\":0,\"sample_class\":[0,1,1],\"sample_value\":[40,300,310]}"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn labelled_samples_reject_ragged_arrays() {
        let _ = Trial::new(0).labelled_samples(&[0, 1], &[40]);
    }

    #[test]
    fn finish_writes_sidecar_last_with_commit_record() {
        with_scratch_dir("sidecar", || {
            let exp = Experiment::new("sidecar_order", 3).with_threads(1);
            let report = exp
                .finish(&[Trial::new(0).field("x", 1u64), Trial::new(1).field("x", 2u64)])
                .expect("finish");
            let meta = std::fs::read_to_string(&report.meta).expect("meta");
            assert!(meta.contains("\"rows\":2"), "{meta}");
            assert!(meta.contains("\"complete\":true"), "{meta}");
            assert!(meta.contains("\"failed\":0"), "{meta}");
            assert!(!meta.contains("degraded"), "{meta}");
            // A second run replaces both files cleanly (stale sidecar
            // is removed before the new JSONL lands).
            let exp = Experiment::new("sidecar_order", 3).with_threads(1);
            let report = exp.finish(&[Trial::new(0).field("x", 9u64)]).expect("finish");
            assert!(std::fs::read_to_string(&report.meta).expect("meta").contains("\"rows\":1"));
            assert_eq!(std::fs::read_to_string(&report.jsonl).expect("jsonl").lines().count(), 1);
        });
    }

    #[test]
    fn traced_finish_writes_sidecars_and_untraced_rerun_removes_them() {
        use metaleak_sim::clock::Cycles;
        use metaleak_sim::trace::{RingTracer, TraceEvent, Tracer};
        with_scratch_dir("tracerun", || {
            let mut t = RingTracer::new(8);
            t.record(Cycles::new(10), TraceEvent::WriteDone { cycles: 40 });
            t.record(Cycles::new(20), TraceEvent::ProbeIssued { block: 7 });
            let exp = Experiment::new("trace_run", 9).with_threads(1);
            let report = exp
                .finish(&[Trial::new(0).field("x", 1u64).with_trace(t.into_log())])
                .expect("finish");
            let trace_path = report.trace_jsonl.clone().expect("trace sidecar written");
            assert_eq!(std::fs::read_to_string(&trace_path).expect("trace").lines().count(), 2);
            let meta = std::fs::read_to_string(&report.meta).expect("meta");
            assert!(meta.contains("\"trace_rows\":2"), "{meta}");
            // Row summary fields landed on the main JSONL row.
            let row = std::fs::read_to_string(&report.jsonl).expect("jsonl");
            assert!(row.contains("\"trace_events\":2"), "{row}");
            assert!(row.contains("\"trace_dropped\":0"), "{row}");

            // An untraced re-run removes the stale trace sidecars and
            // drops trace_rows from the commit record.
            let exp = Experiment::new("trace_run", 9).with_threads(1);
            let report = exp.finish(&[Trial::new(0).field("x", 1u64)]).expect("finish");
            assert!(report.trace_jsonl.is_none());
            assert!(!trace_path.exists(), "stale trace sidecar must be removed");
            let dir = crate::out_dir();
            assert!(!dir.join("trace_run.trace.chrome.json").exists());
            assert!(!std::fs::read_to_string(&report.meta).expect("meta").contains("trace_rows"));
        });
    }

    /// The first draw of trial 0 under `seed`, through the shared map.
    fn trial0_draw(seed: u64) -> u64 {
        let policy = SupervisorPolicy::default();
        let plan = PointPlan { seed, point: 0, trials: 1, policy: &policy };
        exec::map_indexed(1, 1, |t| plan.trial(t, |rng| rng.next_u64()).unwrap())[0]
    }

    #[test]
    fn aux_streams_avoid_trial_streams() {
        let exp = Experiment::new("aux_test", 5).with_threads(1);
        let mut aux = exp.aux_stream(0);
        assert_ne!(aux.next_u64(), trial0_draw(5));
    }

    #[test]
    fn warmup_streams_avoid_trial_and_aux_streams() {
        let exp = Experiment::new("warm_test", 5).with_threads(1);
        let w = exec::warmup_stream(5, 0).next_u64();
        assert_ne!(w, exp.aux_stream(0).next_u64());
        assert_ne!(w, trial0_draw(5));
    }

    #[test]
    fn warmup_sharing_modes_are_byte_identical() {
        // The warmup draws from its own stream and trials only read the
        // shared state, so shared and per-trial warmup must agree for
        // any thread count. Journaling is off: each run must actually
        // execute, not replay its predecessor.
        let run = |sharing: bool, threads: usize| {
            let exp = Experiment::new("warm_eq", 0xAB).with_threads(threads).with_journal(false);
            values(
                exp.with_warmup(3, |wrng, p| (p as u64, wrng.next_u64()))
                    .with_sharing(sharing)
                    .run_trials(4, |state, rng, i| (state.0, state.1, rng.next_u64(), i)),
            )
        };
        let baseline = run(false, 1);
        assert_eq!(baseline.len(), 12);
        for (sharing, threads) in [(false, 8), (true, 1), (true, 8)] {
            assert_eq!(run(sharing, threads), baseline, "sharing={sharing} threads={threads}");
        }
    }

    #[test]
    fn warmup_runs_once_per_point_when_sharing() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let exp = Experiment::new("warm_count", 1).with_threads(2).with_journal(false);
        let out = values(
            exp.with_warmup(2, |_, p| {
                calls.fetch_add(1, Ordering::SeqCst);
                p
            })
            .with_sharing(true)
            .run_trials(5, |&p, _, i| (p, i)),
        );
        assert_eq!(out.len(), 10);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one warmup per point");
    }

    #[test]
    fn panicking_trial_becomes_failure_row_and_degraded_meta() {
        with_scratch_dir("degraded", || {
            let exp = Experiment::new("degraded_sweep", 7)
                .with_threads(2)
                .with_retries(1)
                .with_retry_backoff_ms(0);
            let outcomes = exp.run_trials(4, |rng, i| {
                if i == 2 {
                    panic!("deliberate failure in trial {i}");
                }
                rng.next_u64()
            });
            assert_eq!(outcomes.len(), 4);
            assert!(outcomes[2].is_failed());
            let failure = outcomes[2].as_failed().unwrap();
            assert_eq!(failure.kind, FailureKind::Panic);
            assert_eq!(failure.attempts, 2, "one retry on the original stream");
            // The surviving trials become normal rows; finish merges
            // the failure row into index order.
            let trials: Vec<Trial> = outcomes
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.as_ok().map(|v| Trial::new(i).field("v", *v)))
                .collect();
            let report = exp.finish(&trials).expect("finish");
            assert_eq!(report.failures.len(), 1);
            let body = std::fs::read_to_string(&report.jsonl).expect("jsonl");
            let lines: Vec<&str> = body.lines().collect();
            assert_eq!(lines.len(), 4);
            assert!(
                lines[2].starts_with(
                    "{\"trial\":2,\"failed\":true,\"kind\":\"panic\",\"error\":\"deliberate"
                ),
                "{}",
                lines[2]
            );
            let meta = std::fs::read_to_string(&report.meta).expect("meta");
            assert!(meta.contains("\"failed\":1"), "{meta}");
            assert!(meta.contains("\"degraded\":true"), "{meta}");
            assert!(meta.contains("\"failed_trials\":[{\"trial\":2"), "{meta}");
            assert!(meta.contains("\"rows\":4"), "{meta}");
        });
    }

    #[test]
    fn failure_rows_are_identical_across_threads_and_sharing_modes() {
        // A warmup that panics for one point must produce the same
        // failure rows whether it runs once (sharing) or per trial.
        let run = |sharing: bool, threads: usize| {
            let exp = Experiment::new("warm_fail_eq", 3)
                .with_threads(threads)
                .with_journal(false)
                .with_retries(0);
            let outcomes = exp
                .with_warmup(3, |wrng, p| {
                    if p == 1 {
                        panic!("warmup failed for point {p}");
                    }
                    wrng.next_u64()
                })
                .with_sharing(sharing)
                .run_trials(2, |state, rng, _| state ^ rng.next_u64());
            outcomes
                .iter()
                .map(|o| match o {
                    TrialOutcome::Done(v) => format!("ok:{v}"),
                    TrialOutcome::Failed(f) => f.row_json().render(),
                })
                .collect::<Vec<_>>()
        };
        let baseline = run(true, 1);
        assert_eq!(baseline.len(), 6);
        assert!(baseline[2].contains("\"failed\":true"), "{}", baseline[2]);
        assert!(baseline[3].contains("warmup failed for point 1"), "{}", baseline[3]);
        for (sharing, threads) in [(true, 8), (false, 1), (false, 8)] {
            assert_eq!(run(sharing, threads), baseline, "sharing={sharing} threads={threads}");
        }
    }

    #[test]
    fn injected_failures_fail_only_their_trial_in_both_warmup_modes() {
        // The injection list names trials. Index 1 is also a point
        // index here, but point 1's warmup must still run, so both
        // modes fail trial 1 alone.
        let failed = |sharing: bool| {
            let exp = Experiment::new("inject_warm", 2)
                .with_threads(1)
                .with_journal(false)
                .with_retries(0)
                .with_injected_failures(vec![1]);
            let outcomes = exp
                .with_warmup(2, |wrng, _| wrng.next_u64())
                .with_sharing(sharing)
                .run_trials(2, |state, rng, _| state ^ rng.next_u64());
            (0..outcomes.len()).filter(|&i| outcomes[i].is_failed()).collect::<Vec<_>>()
        };
        assert_eq!(failed(true), vec![1], "snapshot sharing");
        assert_eq!(failed(false), vec![1], "per-trial warmup");
    }

    #[test]
    fn journal_replay_skips_completed_trials() {
        use std::sync::atomic::AtomicUsize;
        with_scratch_dir("resume", || {
            let executed = AtomicUsize::new(0);
            let body = |rng: &mut SimRng, _i: usize| {
                executed.fetch_add(1, Ordering::SeqCst);
                rng.next_u64()
            };
            // First run journals all four trials but never commits
            // (no finish) — the crash scenario.
            let exp = Experiment::new("resume_unit", 5).with_threads(1);
            let first = values(exp.run_trials(4, body));
            assert_eq!(executed.load(Ordering::SeqCst), 4);

            // The restarted run replays everything from the journal.
            let exp = Experiment::new("resume_unit", 5).with_threads(1);
            let second = values(exp.run_trials(4, body));
            assert_eq!(executed.load(Ordering::SeqCst), 4, "no trial may re-run");
            assert_eq!(first, second);

            // finish commits and removes the journal; the next run
            // executes for real again.
            let journal = crate::out_dir().join("resume_unit.journal.jsonl");
            assert!(journal.exists());
            exp.finish(&[]).expect("finish");
            assert!(!journal.exists(), "commit must clear the journal");
            let exp = Experiment::new("resume_unit", 5).with_threads(1);
            let third = values(exp.run_trials(4, body));
            assert_eq!(executed.load(Ordering::SeqCst), 8);
            assert_eq!(first, third);
        });
    }

    #[test]
    fn journal_replay_preserves_failures_without_rerunning() {
        with_scratch_dir("resume_fail", || {
            let exp = Experiment::new("resume_fail", 6)
                .with_threads(1)
                .with_retries(0)
                .with_injected_failures(vec![1]);
            let first = exp.run_trials(3, |rng, _| rng.next_u64());
            assert!(first[1].is_failed());

            // The resumed run replays the failure row too — without
            // injection configured, so a re-run would "succeed" and
            // change the artifacts.
            let exp = Experiment::new("resume_fail", 6).with_threads(1).with_retries(0);
            let second = exp.run_trials(3, |rng, _| rng.next_u64());
            let failure = second[1].as_failed().expect("failure must replay");
            assert_eq!(failure.error, "injected failure for trial 1 (METALEAK_FAIL_TRIAL)");
            assert_eq!(first[0].as_ok(), second[0].as_ok(), "successes replay to identical values");
            // And the replayed failure reaches the artifacts.
            let report = exp.finish(&[]).expect("finish");
            assert_eq!(report.failures.len(), 1);
        });
    }

    #[test]
    fn resumed_warmup_only_rewarms_points_with_missing_trials() {
        use std::sync::atomic::AtomicUsize;
        with_scratch_dir("resume_warm", || {
            let warmups = AtomicUsize::new(0);
            // Complete a full run, then forge the crash by deleting
            // point 1's rows from the journal: the resumed run still
            // has all of point 0's trials and must not re-warm it.
            let exp = Experiment::new("resume_warm", 8).with_threads(1);
            let _ = exp
                .with_warmup(2, |wrng, _p| {
                    warmups.fetch_add(1, Ordering::SeqCst);
                    wrng.next_u64()
                })
                .run_trials(2, |state, rng, _| state ^ rng.next_u64());
            assert_eq!(warmups.load(Ordering::SeqCst), 2);
            let journal = crate::out_dir().join("resume_warm.journal.jsonl");
            let body = std::fs::read_to_string(&journal).expect("journal");
            let kept: String = body
                .lines()
                .filter(|l| !l.contains("\"trial\":2") && !l.contains("\"trial\":3"))
                .map(|l| format!("{l}\n"))
                .collect();
            std::fs::write(&journal, kept).expect("truncate journal");

            let exp = Experiment::new("resume_warm", 8).with_threads(1);
            let out = exp
                .with_warmup(2, |wrng, _p| {
                    warmups.fetch_add(1, Ordering::SeqCst);
                    wrng.next_u64()
                })
                .run_trials(2, |state, rng, _| state ^ rng.next_u64());
            assert_eq!(out.len(), 4);
            assert_eq!(
                warmups.load(Ordering::SeqCst),
                3,
                "only the point with missing trials re-warms"
            );
        });
    }
}
