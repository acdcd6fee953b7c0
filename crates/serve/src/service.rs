//! The job registry and sweep execution engine.
//!
//! [`Server::submit`] validates a spec, resolves its content key
//! against the [`crate::cache`] (hit → served instantly; in flight →
//! attached to the running execution; vacant → this job leads), and
//! admits the leader through two backpressure gates: a bounded
//! admission queue and a per-tenant in-flight quota.
//!
//! A led job fans out one [`crate::pool`] task per sweep point. Each
//! task runs its point through the shared execution core
//! ([`metaleak_bench::exec::PointPlan`]) with the point's seed as the
//! root: it warms the point (build the secure memory, plan the
//! channel, transmit the priming preamble, snapshot) and runs the
//! point's trials one after another by forking the snapshot. The core
//! owns the seeding and failure rules the figure binaries follow: the
//! point index is folded into every stream id, so configurations
//! sweeping the same seed never share randomness; a panicking,
//! deadline-blown or fault-injected trial becomes a structured
//! failure row that degrades the job, never the server; and a failed
//! warmup fails each trial of its point. Rows are collected by trial
//! index, so the JSONL is byte-identical for any worker count, which
//! is what the content-addressed cache relies on.
//!
//! The last point to finish finalizes: the rows flow through
//! [`Experiment::finish`] into the cache directory (the same commit
//! protocol every figure binary uses), `leakscan` runs in-process
//! over them ([`metaleak_analysis`]), the gate verdict is evaluated,
//! and `report.json` is written last as the cache commit record.

use crate::cache::{ArtifactCache, Reservation};
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::spec::{Requirement, SweepSpec, Victim};
use metaleak_analysis::gates::{self, GatePolicy};
use metaleak_analysis::ingest;
use metaleak_analysis::report::LeakReport;
use metaleak_attacks::covert_c::CovertChannelC;
use metaleak_attacks::covert_t::CovertChannelT;
use metaleak_attacks::timing::LabelledSample;
use metaleak_bench::diag;
use metaleak_bench::exec::PointPlan;
use metaleak_bench::harness::{Experiment, RunSettings, Trial};
use metaleak_bench::json::{Json, JsonObj};
use metaleak_bench::supervisor::{SupervisorPolicy, TrialOutcome};
use metaleak_engine::secmem::SecureMemory;
use metaleak_sim::addr::CoreId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing sweep points.
    pub workers: usize,
    /// Maximum unfinished jobs (leaders + attached waiters) before
    /// `POST /jobs` answers `429 queue-full`.
    pub queue_capacity: usize,
    /// Maximum unfinished jobs per tenant before `429 tenant-quota`.
    pub tenant_quota: usize,
    /// Root of the content-addressed artifact cache.
    pub cache_dir: PathBuf,
}

impl ServerConfig {
    /// Defaults: machine parallelism, a 32-job queue, 4 jobs per
    /// tenant, caching under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            queue_capacity: 32,
            tenant_quota: 4,
            cache_dir: dir.into(),
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec failed to parse or validate (`400`).
    Invalid(String),
    /// The admission queue is full (`429`, `"reason":"queue-full"`).
    QueueFull,
    /// The tenant's in-flight quota is exhausted (`429`,
    /// `"reason":"tenant-quota"`).
    TenantQuota,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
            SubmitError::QueueFull => f.write_str("admission queue full"),
            SubmitError::TenantQuota => f.write_str("tenant in-flight quota exhausted"),
        }
    }
}

/// Why a job's report or artifact could not be fetched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// Unknown job id (`404`).
    NotFound,
    /// The job has not finished yet (`409`).
    NotFinished,
    /// The job failed; the message is the job's error (`500`).
    Failed(String),
}

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, no point has started executing.
    Queued,
    /// At least one sweep point is executing (or the job is attached
    /// to an in-flight identical execution).
    Running,
    /// Finished; every trial succeeded and artifacts are cached.
    Done,
    /// Finished with failed trials; artifacts are complete and
    /// failure rows stand in for the lost trials.
    Degraded,
    /// The execution or its artifact commit failed outright.
    Failed,
}

impl JobStatus {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Degraded => "degraded",
            JobStatus::Failed => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn finished(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Degraded | JobStatus::Failed)
    }
}

struct JobState {
    tenant: String,
    experiment: String,
    digest: String,
    status: JobStatus,
    cache_hit: bool,
    attached: bool,
    trials_run: u64,
    failed_trials: u64,
    gates_pass: Option<bool>,
    warnings: Vec<String>,
    error: Option<String>,
}

struct Inner {
    queue_capacity: usize,
    tenant_quota: usize,
    cache: ArtifactCache,
    metrics: Metrics,
    jobs: Mutex<HashMap<u64, JobState>>,
    tenants: Mutex<HashMap<String, usize>>,
    next_id: AtomicU64,
    in_flight: AtomicUsize,
}

/// The leakage-assessment service: job registry, worker pool and
/// artifact cache behind one submit/query façade. The HTTP layer
/// ([`crate::http`]) is a thin wire adapter over this type, and
/// tests drive it directly in-process.
pub struct Server {
    pool: WorkerPool,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("pool", &self.pool)
            .field("in_flight", &self.inner.in_flight.load(Ordering::Relaxed))
            .finish()
    }
}

/// Everything one led execution shares between its point tasks.
struct Exec {
    job_id: u64,
    spec: SweepSpec,
    digest: String,
    dir: PathBuf,
    results: Mutex<Vec<(usize, TrialOutcome<RowData>)>>,
    remaining: AtomicUsize,
    trials_run: AtomicU64,
}

/// One successful trial's deterministic row content.
struct RowData {
    config: &'static str,
    seed: u64,
    point: usize,
    accuracy: f64,
    alphabet: u64,
    cycles_per_symbol: f64,
    classes: Vec<u64>,
    values: Vec<u64>,
}

impl RowData {
    fn into_trial(self, idx: usize, victim: Victim) -> Trial {
        let accuracy_key = match victim {
            Victim::CovertT => "bit_accuracy",
            Victim::CovertC => "symbol_accuracy",
        };
        Trial::new(idx)
            .field("config", self.config)
            .field("seed", self.seed)
            .field("point", self.point)
            .field(accuracy_key, self.accuracy)
            .field("alphabet", self.alphabet)
            .field("cycles_per_symbol", self.cycles_per_symbol)
            .labelled_samples(&self.classes, &self.values)
    }
}

impl Server {
    /// Opens the cache and spawns the worker pool.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let cache = ArtifactCache::open(&cfg.cache_dir)?;
        Ok(Server {
            pool: WorkerPool::new(cfg.workers),
            inner: Arc::new(Inner {
                queue_capacity: cfg.queue_capacity,
                tenant_quota: cfg.tenant_quota,
                cache,
                metrics: Metrics::default(),
                jobs: Mutex::new(HashMap::new()),
                tenants: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
            }),
        })
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Validates and admits a sweep spec for `tenant`. Returns the job
    /// id; the job may already be finished (cache hit).
    pub fn submit(&self, tenant: &str, body: &str) -> Result<u64, SubmitError> {
        let inner = &self.inner;
        // Spec-parse warnings (lenient unknown keys) are captured and
        // attributed to the job instead of landing on stderr.
        let warnings: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let spec = {
            let sink = Arc::clone(&warnings);
            diag::with_sink(Arc::new(move |msg: &str| lock(&sink).push(msg.to_owned())), || {
                diag::with_context("spec", || SweepSpec::parse(body))
            })
        };
        let spec = match spec {
            Ok(spec) => spec,
            Err(e) => {
                Metrics::bump(&inner.metrics.rejected_invalid);
                return Err(SubmitError::Invalid(e.0));
            }
        };
        Metrics::bump(&inner.metrics.jobs_submitted);
        let digest = spec.content_key();
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let warnings = std::mem::take(&mut *lock(&warnings));
        let mut job = JobState {
            tenant: tenant.to_owned(),
            experiment: spec.experiment.clone(),
            digest: digest.clone(),
            status: JobStatus::Queued,
            cache_hit: false,
            attached: false,
            trials_run: 0,
            failed_trials: 0,
            gates_pass: None,
            warnings,
            error: None,
        };

        // Fast path: committed artifacts bypass admission entirely —
        // a cached answer consumes no execution capacity.
        if let Some(dir) = inner.cache.peek(&digest) {
            Metrics::bump(&inner.metrics.cache_hits);
            job.cache_hit = true;
            finish_from_cache(&mut job, &dir);
            lock(&inner.jobs).insert(id, job);
            return Ok(id);
        }

        // Backpressure gates. Both are admission-time checks — the
        // race where two submissions pass together is benign (the
        // bounds are capacity targets, not invariants).
        if lock(&inner.tenants).get(tenant).copied().unwrap_or(0) >= inner.tenant_quota {
            Metrics::bump(&inner.metrics.rejected_tenant_quota);
            return Err(SubmitError::TenantQuota);
        }
        if inner.in_flight.load(Ordering::SeqCst) >= inner.queue_capacity {
            Metrics::bump(&inner.metrics.rejected_queue_full);
            return Err(SubmitError::QueueFull);
        }

        match inner.cache.reserve(&digest, id) {
            Reservation::Hit(dir) => {
                // Raced with a commit between peek and reserve.
                Metrics::bump(&inner.metrics.cache_hits);
                job.cache_hit = true;
                finish_from_cache(&mut job, &dir);
                lock(&inner.jobs).insert(id, job);
                Ok(id)
            }
            Reservation::Wait => {
                Metrics::bump(&inner.metrics.dedup_attached);
                inner.admit(tenant);
                job.attached = true;
                job.status = JobStatus::Running;
                lock(&inner.jobs).insert(id, job);
                Ok(id)
            }
            Reservation::Lead(dir) => {
                inner.admit(tenant);
                lock(&inner.jobs).insert(id, job);
                let exec = Arc::new(Exec {
                    job_id: id,
                    digest,
                    dir,
                    remaining: AtomicUsize::new(spec.points()),
                    results: Mutex::new(Vec::new()),
                    trials_run: AtomicU64::new(0),
                    spec,
                });
                for p in 0..exec.spec.points() {
                    let (inner, exec) = (Arc::clone(&self.inner), Arc::clone(&exec));
                    self.pool.submit(move || point_task(&inner, &exec, p));
                }
                Ok(id)
            }
        }
    }

    /// The job's status as a JSON object, or `None` for unknown ids.
    pub fn job_json(&self, id: u64) -> Option<Json> {
        let jobs = lock(&self.inner.jobs);
        let job = jobs.get(&id)?;
        Some(
            JsonObj::new()
                .field("id", id)
                .field("tenant", job.tenant.as_str())
                .field("experiment", job.experiment.as_str())
                .field("content_key", job.digest.as_str())
                .field("status", job.status.name())
                .field("cache_hit", job.cache_hit)
                .field("attached", job.attached)
                .field("trials_run", job.trials_run)
                .field("failed_trials", job.failed_trials)
                .field("gates_pass", job.gates_pass.map(Json::Bool).unwrap_or(Json::Null))
                .field("warnings", job.warnings.clone())
                .field("error", job.error.clone().map(Json::Str).unwrap_or(Json::Null))
                .build(),
        )
    }

    /// The finished job's `report.json` body (leakscan + gate
    /// verdict).
    pub fn report(&self, id: u64) -> Result<String, FetchError> {
        self.artifact(id, "report").map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Raw cached artifact bytes: `kind` is `jsonl`, `meta` or
    /// `report`.
    pub fn artifact(&self, id: u64, kind: &str) -> Result<Vec<u8>, FetchError> {
        let (digest, experiment) = {
            let jobs = lock(&self.inner.jobs);
            let job = jobs.get(&id).ok_or(FetchError::NotFound)?;
            match job.status {
                JobStatus::Queued | JobStatus::Running => return Err(FetchError::NotFinished),
                JobStatus::Failed => {
                    return Err(FetchError::Failed(
                        job.error.clone().unwrap_or_else(|| "job failed".to_owned()),
                    ))
                }
                JobStatus::Done | JobStatus::Degraded => {}
            }
            (job.digest.clone(), job.experiment.clone())
        };
        let dir = self.inner.cache.dir(&digest);
        let path = match kind {
            "jsonl" => dir.join(format!("{experiment}.jsonl")),
            "meta" => dir.join(format!("{experiment}.meta.json")),
            "report" => dir.join("report.json"),
            _ => return Err(FetchError::NotFound),
        };
        std::fs::read(&path).map_err(|e| FetchError::Failed(format!("{}: {e}", path.display())))
    }

    /// Polls until the job reaches a terminal state (test helper).
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = lock(&self.inner.jobs).get(&id)?.status;
            if status.finished() {
                return Some(status);
            }
            if Instant::now() > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Inner {
    /// Books an admitted (non-cached) job against both backpressure
    /// gates.
    fn admit(&self, tenant: &str) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        *lock(&self.tenants).entry(tenant.to_owned()).or_insert(0) += 1;
    }

    /// Releases one admitted job and updates its terminal state.
    fn conclude(
        &self,
        id: u64,
        status: JobStatus,
        gates_pass: Option<bool>,
        failed_trials: u64,
        trials_run: u64,
        error: Option<String>,
    ) {
        let mut jobs = lock(&self.jobs);
        let Some(job) = jobs.get_mut(&id) else { return };
        job.status = status;
        job.gates_pass = gates_pass;
        job.failed_trials = failed_trials;
        job.trials_run = trials_run;
        job.error = error;
        let tenant = job.tenant.clone();
        drop(jobs);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        let mut tenants = lock(&self.tenants);
        if let Some(count) = tenants.get_mut(&tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                tenants.remove(&tenant);
            }
        }
        Metrics::bump(match status {
            JobStatus::Failed => &self.metrics.jobs_failed,
            _ => &self.metrics.jobs_completed,
        });
    }

    /// Appends a warning line to a job's record.
    fn job_warn(&self, id: u64, message: &str) {
        if let Some(job) = lock(&self.jobs).get_mut(&id) {
            job.warnings.push(message.to_owned());
        }
    }
}

/// Marks a cache-hit job finished, copying the terminal facts out of
/// the committed `report.json`.
fn finish_from_cache(job: &mut JobState, dir: &std::path::Path) {
    job.status = JobStatus::Done;
    if let Ok(body) = std::fs::read_to_string(dir.join("report.json")) {
        if let Ok(report) = Json::parse(&body) {
            if report.get("job").and_then(|j| j.get("status")).and_then(Json::as_str)
                == Some("degraded")
            {
                job.status = JobStatus::Degraded;
            }
            job.gates_pass =
                report.get("gates").and_then(|g| g.get("pass")).and_then(Json::as_bool);
        }
    }
}

/// One sweep point: warmup, supervised trials, and — when this is the
/// job's last point — finalization.
fn point_task(inner: &Arc<Inner>, exec: &Arc<Exec>, p: usize) {
    {
        let mut jobs = lock(&inner.jobs);
        if let Some(job) = jobs.get_mut(&exec.job_id) {
            if job.status == JobStatus::Queued {
                job.status = JobStatus::Running;
            }
        }
    }
    // Warnings raised anywhere inside the point (journal trouble,
    // lenient env parses in downstream code) are attributed to the
    // job rather than interleaving on the server's stderr.
    let results = {
        let (sink_inner, id) = (Arc::clone(inner), exec.job_id);
        let sink: diag::Sink = Arc::new(move |msg: &str| sink_inner.job_warn(id, msg));
        diag::with_sink(sink, || {
            diag::with_context(&format!("job {}", exec.job_id), || {
                run_point(&exec.spec, p, &inner.metrics, &exec.trials_run)
            })
        })
    };
    lock(&exec.results).extend(results);
    if exec.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        finalize(inner, exec);
    }
}

/// Executes sweep point `p` through the execution core: one warmup,
/// then `trials_per_point` trials forking the warmed snapshot.
fn run_point(
    spec: &SweepSpec,
    p: usize,
    metrics: &Metrics,
    trials_run: &AtomicU64,
) -> Vec<(usize, TrialOutcome<RowData>)> {
    let (preset, seed) = spec.point(p);
    let cfg = spec.build_config(preset);
    let tpp = spec.trials_per_point;
    let policy = SupervisorPolicy {
        retries: spec.retries,
        backoff_ms: 0,
        inject: spec.fail_trials.clone(),
        ..SupervisorPolicy::default()
    };
    let plan = PointPlan { seed, point: p, trials: tpp, policy: &policy };
    Metrics::bump(&metrics.points_run);
    // A point whose warmup succeeds runs every one of its trials. The
    // warmups call this as their last step, so only the one successful
    // attempt counts.
    let count_trials = || {
        Metrics::add(&metrics.trials_run, tpp as u64);
        trials_run.fetch_add(tpp as u64, Ordering::Relaxed);
    };
    let row = |accuracy: f64, alphabet: u64, cycles_per_symbol: f64, samples: &[LabelledSample]| {
        RowData {
            config: preset.name(),
            seed,
            point: p,
            accuracy,
            alphabet,
            cycles_per_symbol,
            classes: samples.iter().map(|s| s.class).collect(),
            values: samples.iter().map(|s| s.value).collect(),
        }
    };

    let outcomes = match spec.victim {
        Victim::CovertT => plan.run(
            |wrng| {
                let preamble: Vec<bool> =
                    (0..spec.preamble_bits).map(|_| wrng.chance(0.5)).collect();
                let mut mem = SecureMemory::new(cfg.clone());
                let channel = CovertChannelT::new(
                    &mut mem,
                    CoreId(0),
                    CoreId(1),
                    preset.covert_t_level(),
                    100,
                )
                .expect("channel setup");
                if !preamble.is_empty() {
                    channel.transmit(&mut mem, &preamble).expect("preamble transmission");
                }
                let state = (mem.into_snapshot(), channel);
                count_trials();
                state
            },
            |(snap, channel), rng, _| {
                let mut mem = snap.fork();
                let bits: Vec<bool> =
                    (0..spec.payload_per_trial).map(|_| rng.chance(0.5)).collect();
                let out = channel.transmit(&mut mem, &bits).expect("transmission");
                let cycles_per_symbol = out.cycles.as_u64() as f64 / bits.len() as f64;
                row(out.accuracy(&bits), 2, cycles_per_symbol, &out.labelled_samples(&bits))
            },
        ),
        Victim::CovertC => plan.run(
            |_| {
                let mem = SecureMemory::new(cfg.clone());
                let channel =
                    CovertChannelC::new(&mem, CoreId(0), CoreId(1), 1, 100).expect("channel setup");
                let state = (mem.into_snapshot(), channel);
                count_trials();
                state
            },
            |(snap, channel), rng, _| {
                let mut mem = snap.fork();
                let mut channel = channel.clone();
                let cap = channel.max_symbol() + 1;
                let symbols: Vec<u64> =
                    (0..spec.payload_per_trial).map(|_| rng.below(cap)).collect();
                let out = channel.transmit(&mut mem, &symbols).expect("transmission");
                let samples = out.labelled_samples(&symbols);
                row(out.accuracy(&symbols), cap, out.cycles_per_symbol(), &samples)
            },
        ),
    };
    outcomes.into_iter().enumerate().map(|(t, o)| (plan.trial_id(t), o)).collect()
}

/// Commits a finished execution: artifacts through the harness sink,
/// in-process leakage assessment, gate evaluation, the `report.json`
/// commit record, and resolution of the leader plus every attached
/// waiter.
fn finalize(inner: &Arc<Inner>, exec: &Arc<Exec>) {
    let spec = &exec.spec;
    let mut results = std::mem::take(&mut *lock(&exec.results));
    results.sort_by_key(|&(i, _)| i);
    let mut trials = Vec::new();
    let mut failures = Vec::new();
    for (i, outcome) in results {
        match outcome {
            TrialOutcome::Done(row) => trials.push(row.into_trial(i, spec.victim)),
            TrialOutcome::Failed(f) => failures.push(f),
        }
    }
    let failed_trials = failures.len() as u64;
    let trials_run = exec.trials_run.load(Ordering::Relaxed);

    let settings = RunSettings {
        threads: 1,
        lanes: metaleak_bench::harness::default_lanes(),
        out_dir: Some(exec.dir.clone()),
        journal: false,
        ..RunSettings::default()
    };
    let exp = Experiment::with_settings(&spec.experiment, spec.artifact_seed(), settings)
        .config("victim", spec.victim.name())
        .config("configs", Json::Arr(spec.configs.iter().map(|c| Json::from(c.name())).collect()))
        .config("seeds", spec.seeds.clone())
        .config("trials_per_point", spec.trials_per_point)
        .config("payload_per_trial", spec.payload_per_trial)
        .config("content_key", exec.digest.as_str());
    for f in failures {
        exp.note_failure(f);
    }
    let report = match exp.finish(&trials) {
        Ok(report) => report,
        Err(e) => return fail_execution(inner, exec, format!("artifact commit failed: {e}")),
    };
    debug_assert_eq!(report.failures.len() as u64, failed_trials);

    let (body, gates_pass) = match assess(exec, failed_trials > 0) {
        Ok(out) => out,
        Err(msg) => return fail_execution(inner, exec, msg),
    };
    // The commit record: written strictly after every other artifact.
    if let Err(e) = std::fs::write(exec.dir.join("report.json"), body) {
        return fail_execution(inner, exec, format!("cannot write report.json: {e}"));
    }

    let status = if failed_trials > 0 { JobStatus::Degraded } else { JobStatus::Done };
    let waiters = inner.cache.commit(&exec.digest);
    inner.conclude(exec.job_id, status, Some(gates_pass), failed_trials, trials_run, None);
    for waiter in waiters {
        inner.conclude(waiter, status, Some(gates_pass), failed_trials, 0, None);
    }
}

/// Runs `leakscan` in-process over the execution's artifact directory
/// and renders the `report.json` body.
fn assess(exec: &Exec, degraded: bool) -> Result<(String, bool), String> {
    let spec = &exec.spec;
    let entries = ingest::scan_dir(&exec.dir)
        .map_err(|e| format!("cannot scan {}: {e}", exec.dir.display()))?;
    let policy = GatePolicy {
        require_leak: match spec.require {
            Requirement::Leak => vec![spec.experiment.clone()],
            _ => Vec::new(),
        },
        require_clean: match spec.require {
            Requirement::Clean => vec![spec.experiment.clone()],
            _ => Vec::new(),
        },
        strict: false,
        max_failed_trials: spec.max_failed_trials,
    };
    // Same degraded-artifact admission rule as the leakscan CLI: a
    // failure budget opts the assessment into surviving rows.
    let entries = gates::apply_degraded_policy(entries, policy.admits_degraded());
    let report = LeakReport::from_entries(&entries);
    let verdict = gates::evaluate(&report, &policy);
    let job = JsonObj::new()
        .field("experiment", spec.experiment.as_str())
        .field("content_key", exec.digest.as_str())
        .field("status", if degraded { "degraded" } else { "done" })
        .field("points", spec.points())
        .field("trials", spec.total_trials())
        .field("spec", spec.canonical())
        .build();
    let body = JsonObj::new()
        .field("job", job)
        .field("leakscan", report.to_json())
        .field("gates", verdict.to_json())
        .build()
        .render()
        + "\n";
    Ok((body, verdict.pass()))
}

/// Fails the leader and every attached waiter, vacating the cache
/// reservation so a future submission can retry.
fn fail_execution(inner: &Arc<Inner>, exec: &Arc<Exec>, error: String) {
    let trials_run = exec.trials_run.load(Ordering::Relaxed);
    let waiters = inner.cache.fail(&exec.digest);
    inner.conclude(exec.job_id, JobStatus::Failed, None, 0, trials_run, Some(error.clone()));
    for waiter in waiters {
        inner.conclude(waiter, JobStatus::Failed, None, 0, 0, Some(error.clone()));
    }
}
