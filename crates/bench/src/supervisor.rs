//! Supervised trial execution: panic isolation, watchdog deadlines,
//! deterministic retry and the crash-safe trial journal.
//!
//! The execution core ([`crate::exec`]) runs every warmup and trial
//! through [`supervise`], whose attempts each:
//!
//! 1. installs (once) a panic hook that *captures* panics on supervised
//!    threads instead of printing them, recording the message and a
//!    backtrace;
//! 2. arms the simulator's deterministic cycle watchdog
//!    ([`metaleak_sim::watchdog`]) plus an optional wall-clock backstop
//!    for the attempt;
//! 3. wraps the trial body in `catch_unwind`, converting a panic or a
//!    blown deadline into a typed [`FailureKind`] instead of poisoning
//!    the results mutex and killing the sweep.
//!
//! Failed attempts are retried on the trial's *original* RNG stream up
//! to [`SupervisorPolicy::max_attempts`], with wall-clock sleeps from
//! the shared [`BackoffSchedule`] machinery — a transient host-level
//! failure heals, while a deterministic failure reproduces the same
//! [`TrialFailure`] row on every run.
//!
//! Completed trials (successes *and* failures) append to a fsynced
//! `<name>.journal.jsonl` ([`Journal`]) so an interrupted sweep resumes
//! instead of restarting; see `DESIGN.md` §10 for the failure model.

use crate::json::{Json, JsonObj};
use metaleak_sim::watchdog::{self, DeadlineExceeded};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Failure taxonomy.
// ---------------------------------------------------------------------

/// Why a supervised trial failed (after exhausting its retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The trial body panicked.
    Panic,
    /// The trial exceeded its deterministic simulated-cycle budget
    /// (`METALEAK_TRIAL_DEADLINE`).
    CycleDeadline {
        /// Simulated cycles spent when the budget check fired.
        spent: u64,
        /// The armed cycle budget.
        limit: u64,
    },
    /// The wall-clock backstop (`METALEAK_TRIAL_WALL_MS`) aborted the
    /// trial. Inherently host-timing dependent, unlike the other kinds.
    WallDeadline {
        /// Simulated cycles spent when the abort was observed.
        spent: u64,
    },
}

impl FailureKind {
    /// Stable label used in JSONL rows and metadata
    /// (`panic` / `cycle-deadline` / `wall-deadline`).
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::CycleDeadline { .. } => "cycle-deadline",
            FailureKind::WallDeadline { .. } => "wall-deadline",
        }
    }

    fn from_label(label: &str) -> Option<FailureKind> {
        match label {
            "panic" => Some(FailureKind::Panic),
            // The numeric details are not journaled; the label and the
            // error string carry the reproducible facts.
            "cycle-deadline" => Some(FailureKind::CycleDeadline { spent: 0, limit: 0 }),
            "wall-deadline" => Some(FailureKind::WallDeadline { spent: 0 }),
            _ => None,
        }
    }
}

/// A structured record of one trial that failed all its attempts. This
/// is the sweep-level *finding*: the trial's JSONL row becomes
/// `{"trial":i,"failed":true,"kind":...,"error":...}` instead of the
/// bin's usual fields, and the sweep carries on.
#[derive(Debug, Clone)]
pub struct TrialFailure {
    /// Trial index (also its RNG stream id).
    pub trial: usize,
    /// Attempts made (1 = failed on the first try with retries
    /// disabled).
    pub attempts: u32,
    /// What went wrong on the final attempt.
    pub kind: FailureKind,
    /// The panic message or deadline description. Deterministic for
    /// deterministic failures.
    pub error: String,
    /// Captured backtrace of the final attempt, when available. Never
    /// serialized into deterministic artifacts — stderr only.
    pub backtrace: Option<String>,
}

impl TrialFailure {
    /// The deterministic JSONL row standing in for the trial's result.
    pub fn row_json(&self) -> Json {
        JsonObj::new()
            .field("trial", self.trial)
            .field("failed", true)
            .field("kind", self.kind.label())
            .field("error", self.error.as_str())
            .build()
    }

    /// The metadata entry for the sidecar's `failed_trials` array
    /// (row fields plus the attempt count).
    pub fn meta_json(&self) -> Json {
        JsonObj::new()
            .field("trial", self.trial)
            .field("kind", self.kind.label())
            .field("error", self.error.as_str())
            .field("attempts", self.attempts)
            .build()
    }
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} failed after {} attempt(s) [{}]: {}",
            self.trial,
            self.attempts,
            self.kind.label(),
            self.error
        )
    }
}

/// The outcome of one supervised trial: its result, or the structured
/// failure that stands in for it.
#[derive(Debug, Clone)]
pub enum TrialOutcome<T> {
    /// The trial completed and returned a value.
    Done(T),
    /// The trial failed every attempt; the sweep recorded the failure
    /// and moved on.
    Failed(TrialFailure),
}

impl<T> TrialOutcome<T> {
    /// The value, consuming the outcome (`None` for failures).
    pub fn ok(self) -> Option<T> {
        match self {
            TrialOutcome::Done(v) => Some(v),
            TrialOutcome::Failed(_) => None,
        }
    }

    /// The value by reference (`None` for failures).
    pub fn as_ok(&self) -> Option<&T> {
        match self {
            TrialOutcome::Done(v) => Some(v),
            TrialOutcome::Failed(_) => None,
        }
    }

    /// The failure by reference (`None` for successes).
    pub fn as_failed(&self) -> Option<&TrialFailure> {
        match self {
            TrialOutcome::Done(_) => None,
            TrialOutcome::Failed(f) => Some(f),
        }
    }

    /// True when the trial failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, TrialOutcome::Failed(_))
    }

    /// Maps the value, keeping a failure as it is.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> TrialOutcome<U> {
        match self {
            TrialOutcome::Done(v) => TrialOutcome::Done(f(v)),
            TrialOutcome::Failed(e) => TrialOutcome::Failed(e),
        }
    }

    /// The value, panicking with the failure description otherwise.
    /// For tests and callers that treat any failure as fatal.
    ///
    /// # Panics
    /// Panics when the outcome is a failure.
    pub fn unwrap(self) -> T {
        match self {
            TrialOutcome::Done(v) => v,
            TrialOutcome::Failed(f) => panic!("trial outcome unwrapped on a failure: {f}"),
        }
    }
}

// ---------------------------------------------------------------------
// Supervisor policy.
// ---------------------------------------------------------------------

/// How the harness supervises trial attempts. Read from the
/// environment by [`SupervisorPolicy::from_env`]; overridable per
/// experiment through the `Experiment` builder for in-process tests.
#[derive(Debug, Clone, Default)]
pub struct SupervisorPolicy {
    /// Deterministic simulated-cycle budget per attempt
    /// (`METALEAK_TRIAL_DEADLINE`; unset or 0 disables).
    pub deadline_cycles: Option<u64>,
    /// Wall-clock backstop per attempt in milliseconds
    /// (`METALEAK_TRIAL_WALL_MS`; unset or 0 disables). Only observed
    /// when the trial advances simulated time — see `DESIGN.md` §10.
    pub wall_ms: Option<u64>,
    /// Retries after the first failed attempt
    /// (`METALEAK_TRIAL_RETRIES`, default 1).
    pub retries: u32,
    /// Initial wall-clock backoff before a retry, in milliseconds;
    /// doubles per retry via [`BackoffSchedule`].
    pub backoff_ms: u64,
    /// Trial indices whose attempts panic deliberately
    /// (`METALEAK_FAIL_TRIAL`, comma-separated). CI and tests use this
    /// to exercise the failure path deterministically.
    pub inject: Vec<usize>,
}

use metaleak_attacks::resilience::BackoffSchedule;

impl SupervisorPolicy {
    /// Default retry backoff in milliseconds.
    pub const DEFAULT_BACKOFF_MS: u64 = 25;

    /// Reads the policy from the `METALEAK_TRIAL_*` environment knobs,
    /// warning once per variable on unparsable values.
    pub fn from_env() -> Self {
        SupervisorPolicy {
            deadline_cycles: crate::env_u64("METALEAK_TRIAL_DEADLINE", None).filter(|&v| v > 0),
            wall_ms: crate::env_u64("METALEAK_TRIAL_WALL_MS", None).filter(|&v| v > 0),
            retries: crate::env_u64("METALEAK_TRIAL_RETRIES", Some(1)).unwrap_or(1) as u32,
            backoff_ms: Self::DEFAULT_BACKOFF_MS,
            inject: crate::env_index_list("METALEAK_FAIL_TRIAL"),
        }
    }

    /// Total attempts per trial (first try + retries, at least 1).
    pub fn max_attempts(&self) -> u32 {
        self.retries.saturating_add(1).max(1)
    }
}

// ---------------------------------------------------------------------
// Panic capture.
// ---------------------------------------------------------------------

struct CapturedPanic {
    message: String,
    backtrace: String,
}

thread_local! {
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
    static CAPTURED: RefCell<Option<CapturedPanic>> = const { RefCell::new(None) };
}

/// Installs the capturing panic hook exactly once, delegating to the
/// previously installed hook for unsupervised threads (so `cargo
/// test`'s own panic reporting — including `#[should_panic]` — is
/// untouched).
fn install_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPERVISED.with(Cell::get) {
                let message = payload_message(info.payload());
                let backtrace = std::backtrace::Backtrace::force_capture().to_string();
                CAPTURED.with(|c| *c.borrow_mut() = Some(CapturedPanic { message, backtrace }));
            } else {
                prev(info);
            }
        }));
    });
}

fn payload_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(d) = payload.downcast_ref::<DeadlineExceeded>() {
        d.to_string()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---------------------------------------------------------------------
// Wall-clock backstop registry.
// ---------------------------------------------------------------------

struct WallRegistry {
    entries: Mutex<Vec<(Instant, Arc<AtomicBool>)>>,
    wake: Condvar,
}

fn wall_registry() -> &'static WallRegistry {
    static REGISTRY: OnceLock<WallRegistry> = OnceLock::new();
    static TICKER: OnceLock<()> = OnceLock::new();
    let reg = REGISTRY
        .get_or_init(|| WallRegistry { entries: Mutex::new(Vec::new()), wake: Condvar::new() });
    TICKER.get_or_init(|| {
        std::thread::Builder::new()
            .name("metaleak-wall-watchdog".into())
            .spawn(|| ticker_loop(wall_registry()))
            .map(drop)
            // If the thread cannot spawn, wall deadlines silently never
            // fire; the deterministic cycle budget still protects runs.
            .unwrap_or(())
    });
    reg
}

fn ticker_loop(reg: &'static WallRegistry) -> ! {
    let mut entries = reg.entries.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        let now = Instant::now();
        entries.retain(|(deadline, flag)| {
            let due = *deadline <= now;
            if due {
                flag.store(true, Ordering::Relaxed);
            }
            !due
        });
        let wait = entries
            .iter()
            .map(|(deadline, _)| deadline.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_secs(3600));
        let (guard, _) =
            reg.wake.wait_timeout(entries, wait).unwrap_or_else(PoisonError::into_inner);
        entries = guard;
    }
}

/// Registers a wall-clock deadline `ms` milliseconds from now and
/// returns the abort flag the watchdog should observe. Finished
/// attempts simply drop their `Arc`; the stale registry entry expires
/// harmlessly.
fn register_wall_deadline(ms: u64) -> Arc<AtomicBool> {
    let reg = wall_registry();
    let flag = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_millis(ms);
    reg.entries.lock().unwrap_or_else(PoisonError::into_inner).push((deadline, Arc::clone(&flag)));
    reg.wake.notify_one();
    flag
}

// ---------------------------------------------------------------------
// One supervised attempt.
// ---------------------------------------------------------------------

/// Runs attempt `attempt` of trial `trial` under full supervision:
/// capturing panic hook, armed cycle watchdog and wall-clock backstop
/// per `policy`, body wrapped in `catch_unwind`. A panic or blown
/// deadline comes back as the attempt's [`TrialFailure`].
fn run_attempt<T>(
    policy: &SupervisorPolicy,
    trial: usize,
    attempt: u32,
    body: impl FnOnce() -> T,
) -> Result<T, TrialFailure> {
    install_panic_hook();
    if policy.deadline_cycles.is_some() || policy.wall_ms.is_some() {
        let wall_flag = policy.wall_ms.map(register_wall_deadline);
        watchdog::arm(policy.deadline_cycles.unwrap_or(u64::MAX), wall_flag);
    }
    SUPERVISED.with(|s| s.set(true));
    CAPTURED.with(|c| *c.borrow_mut() = None);
    let outcome = catch_unwind(AssertUnwindSafe(body));
    SUPERVISED.with(|s| s.set(false));
    watchdog::disarm();
    outcome.map_err(|payload| {
        let captured = CAPTURED.with(|c| c.borrow_mut().take());
        let (kind, error) = match payload.downcast_ref::<DeadlineExceeded>() {
            Some(d) if d.wall => (FailureKind::WallDeadline { spent: d.spent }, d.to_string()),
            Some(d) => {
                (FailureKind::CycleDeadline { spent: d.spent, limit: d.limit }, d.to_string())
            }
            None => (
                FailureKind::Panic,
                captured
                    .as_ref()
                    .map(|c| c.message.clone())
                    .unwrap_or_else(|| payload_message(payload.as_ref())),
            ),
        };
        TrialFailure {
            trial,
            attempts: attempt,
            kind,
            error,
            backtrace: captured.map(|c| c.backtrace),
        }
    })
}

/// Runs trial `trial`'s attempts under `policy`: each attempt re-runs
/// `body` (which must recreate the trial's original RNG stream itself)
/// with wall-clock backoff between attempts. Returns the value or the
/// final attempt's failure.
pub fn supervise<T>(
    policy: &SupervisorPolicy,
    trial: usize,
    body: impl Fn() -> T,
) -> TrialOutcome<T> {
    let injected = policy.inject.contains(&trial);
    let mut waits = BackoffSchedule::new(policy.backoff_ms);
    let mut attempt = 1;
    loop {
        let result = run_attempt(policy, trial, attempt, || {
            if injected {
                panic!("injected failure for trial {trial} (METALEAK_FAIL_TRIAL)");
            }
            body()
        });
        match result {
            Ok(v) => return TrialOutcome::Done(v),
            Err(failure) if attempt >= policy.max_attempts() => {
                return TrialOutcome::Failed(failure)
            }
            Err(_) => {
                attempt += 1;
                let wait = waits.next_wait();
                if wait > 0 {
                    std::thread::sleep(Duration::from_millis(wait));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Journalable values.
// ---------------------------------------------------------------------

/// A trial result that can round-trip through the crash-safe journal.
///
/// `from_json(&to_json(v))` must reconstruct `v` exactly — the resumed
/// sweep's artifacts are byte-compared against uninterrupted runs.
/// Types that cannot round-trip exactly (notably
/// [`TraceLog`](metaleak_sim::trace::TraceLog)) serialize a sentinel
/// and refuse to parse back, which makes the resumed run re-execute
/// those trials instead of silently dropping data.
pub trait JournalValue: Sized {
    /// Serializes the value for the journal.
    fn to_json(&self) -> Json;
    /// Reconstructs the value; `None` marks the journal row as
    /// non-replayable (the trial re-runs).
    fn from_json(v: &Json) -> Option<Self>;
}

macro_rules! journal_uint {
    ($($ty:ty),+) => {$(
        impl JournalValue for $ty {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
            fn from_json(v: &Json) -> Option<Self> {
                <$ty>::try_from(v.as_u64()?).ok()
            }
        }
    )+};
}
journal_uint!(u8, u16, u32, u64, usize);

impl JournalValue for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Int(i) => Some(*i),
            Json::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }
}

impl JournalValue for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_bool()
    }
}

impl JournalValue for f64 {
    fn to_json(&self) -> Json {
        // Non-finite floats render as null and would not round-trip;
        // encode them as strings so journal replay stays exact.
        if self.is_finite() {
            Json::Float(*self)
        } else if self.is_nan() {
            Json::Str("nan".to_owned())
        } else if *self > 0.0 {
            Json::Str("inf".to_owned())
        } else {
            Json::Str("-inf".to_owned())
        }
    }
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Str(s) => match s.as_str() {
                "nan" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => v.as_f64(),
        }
    }
}

impl JournalValue for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_owned)
    }
}

impl<T: JournalValue> JournalValue for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(JournalValue::to_json).collect())
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: JournalValue> JournalValue for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            // A nested Some(Null)-style ambiguity cannot arise: no
            // JournalValue impl serializes to bare null.
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: JournalValue, E: JournalValue> JournalValue for Result<T, E> {
    fn to_json(&self) -> Json {
        match self {
            Ok(v) => JsonObj::new().field("ok", v.to_json()).build(),
            Err(e) => JsonObj::new().field("err", e.to_json()).build(),
        }
    }
    fn from_json(v: &Json) -> Option<Self> {
        if let Some(ok) = v.get("ok") {
            T::from_json(ok).map(Ok)
        } else {
            E::from_json(v.get("err")?).map(Err)
        }
    }
}

macro_rules! journal_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: JournalValue),+> JournalValue for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
            fn from_json(v: &Json) -> Option<Self> {
                let items = v.as_arr()?;
                let mut it = items.iter();
                let out = ($($name::from_json(it.next()?)?,)+);
                if it.next().is_some() {
                    return None;
                }
                Some(out)
            }
        }
    };
}
journal_tuple!(A: 0);
journal_tuple!(A: 0, B: 1);
journal_tuple!(A: 0, B: 1, C: 2);
journal_tuple!(A: 0, B: 1, C: 2, D: 3);
journal_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
journal_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl JournalValue for metaleak_sim::clock::Cycles {
    fn to_json(&self) -> Json {
        Json::UInt(self.as_u64())
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_u64().map(Self::new)
    }
}

impl JournalValue for metaleak_sim::stats::LatencyHistogram {
    fn to_json(&self) -> Json {
        let (width, buckets, sum, min, max) = self.parts();
        JsonObj::new()
            .field("width", width)
            .field("buckets", buckets.to_json())
            .field("sum", sum)
            .field("min", min)
            .field("max", max)
            .build()
    }
    fn from_json(v: &Json) -> Option<Self> {
        let width = u64::from_json(v.get("width")?)?;
        if width == 0 {
            return None;
        }
        let buckets = Vec::<(u64, u64)>::from_json(v.get("buckets")?)?;
        if buckets.iter().any(|&(_, n)| n == 0) {
            return None;
        }
        Some(Self::from_parts(
            width,
            buckets,
            u64::from_json(v.get("sum")?)?,
            u64::from_json(v.get("min")?)?,
            u64::from_json(v.get("max")?)?,
        ))
    }
}

/// Deliberately lossy: a [`TraceLog`](metaleak_sim::trace::TraceLog)
/// serializes a sentinel and never parses back, so traced trials are
/// re-executed on resume instead of losing their trace sidecar rows.
impl JournalValue for metaleak_sim::trace::TraceLog {
    fn to_json(&self) -> Json {
        Json::Str("<trace:unjournaled>".to_owned())
    }
    fn from_json(_: &Json) -> Option<Self> {
        None
    }
}

/// Implements [`JournalValue`] for a bin-local named struct by
/// journaling each field under its own name:
///
/// ```
/// struct ChunkOutcome {
///     correct: usize,
///     accuracy: f64,
/// }
/// metaleak_bench::journal_fields!(ChunkOutcome { correct: usize, accuracy: f64 });
/// # use metaleak_bench::supervisor::JournalValue;
/// let v = ChunkOutcome { correct: 3, accuracy: 0.75 };
/// let back = ChunkOutcome::from_json(&v.to_json()).unwrap();
/// assert_eq!(back.correct, 3);
/// ```
#[macro_export]
macro_rules! journal_fields {
    ($ty:ident { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl $crate::supervisor::JournalValue for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_owned(),
                        $crate::supervisor::JournalValue::to_json(&self.$field),
                    )),+
                ])
            }
            fn from_json(v: &$crate::json::Json) -> Option<Self> {
                Some($ty {
                    $($field: <$fty as $crate::supervisor::JournalValue>::from_json(
                        v.get(stringify!($field))?,
                    )?),+
                })
            }
        }
    };
}

// ---------------------------------------------------------------------
// The crash-safe trial journal.
// ---------------------------------------------------------------------

/// Append-only, fsynced journal of completed trials. One JSON line per
/// entry:
///
/// - header (first line): experiment identity — name, seed, trial
///   count, mode flags; a resumed run replays the journal only when
///   the header matches its own identity exactly;
/// - `{"trial":i,"value":...}` — a completed trial's journaled result;
/// - `{"trial":i,"failed":true,"kind":...,"error":...,"attempts":k}` —
///   a trial that failed all its attempts.
///
/// A torn final line (the crash signature) is discarded on resume; the
/// trial it belonged to simply re-runs.
pub struct Journal {
    file: Mutex<Option<File>>,
    path: PathBuf,
}

impl Journal {
    /// Opens (or resumes) the journal at `path` with the given
    /// identity `header`. Returns the journal and the replayable rows
    /// of a previous interrupted run, keyed by trial index. A header
    /// mismatch (different seed, trial count or mode) discards the
    /// stale journal and starts fresh — except when the *only*
    /// difference is the engine's `state_shape` tag, which means the
    /// journal was written by a binary with a different in-memory
    /// state representation (e.g. pre-copy-on-write): that journal is
    /// refused with a hard error rather than silently discarded, since
    /// the identity the user cares about *does* match and dropping it
    /// quietly would mask the incompatibility.
    pub fn open(path: &Path, header: &Json) -> std::io::Result<(Journal, BTreeMap<usize, Json>)> {
        let header_line = header.render();
        let mut rows = BTreeMap::new();
        let mut good_lines = vec![header_line.clone()];
        if let Ok(existing) = std::fs::read_to_string(path) {
            let mut lines = existing.lines();
            let first = lines.next();
            if first == Some(header_line.as_str()) {
                for line in lines {
                    // The first malformed line is the torn tail; every
                    // entry after it is untrusted.
                    let Ok(row) = Json::parse(line) else { break };
                    let Some(trial) = row.get("trial").and_then(Json::as_u64) else { break };
                    rows.insert(trial as usize, row);
                    good_lines.push(line.to_owned());
                }
            } else {
                if let Some(old) = first.and_then(|l| Json::parse(l).ok()) {
                    Self::check_state_shape(path, &old, header)?;
                }
                crate::diag::warn(&format!(
                    "{} belongs to a different run configuration; starting fresh",
                    path.display()
                ));
            }
        }
        // Rewrite the recovered prefix so the append handle never
        // lands after a torn tail.
        let mut body = good_lines.join("\n");
        body.push('\n');
        std::fs::write(path, body)?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        file.sync_data()?;
        Ok((Journal { file: Mutex::new(Some(file)), path: path.to_owned() }, rows))
    }

    /// Errors when `old` (a journal's recorded identity header) agrees
    /// with `ours` on every field *except* the `state_shape` tag. Such
    /// a journal belongs to this exact run but was written by a binary
    /// with a different in-memory state representation; its rows may
    /// encode state-dependent values that no longer mean the same
    /// thing, so replaying it is unsafe and discarding it silently
    /// would hide the incompatibility. Any other difference returns
    /// `Ok(())` and the caller starts fresh as before.
    fn check_state_shape(path: &Path, old: &Json, ours: &Json) -> std::io::Result<()> {
        fn identity_fields(v: &Json) -> Option<Vec<(&String, &Json)>> {
            match v {
                Json::Obj(fields) => Some(
                    fields
                        .iter()
                        .filter(|(k, _)| k != "state_shape")
                        .map(|(k, v)| (k, v))
                        .collect(),
                ),
                _ => None,
            }
        }
        let (Some(a), Some(b)) = (identity_fields(old), identity_fields(ours)) else {
            return Ok(());
        };
        let render = |v: &Json| v.get("state_shape").map_or("absent".to_owned(), Json::render);
        let (old_shape, our_shape) = (render(old), render(ours));
        if a != b || old_shape == our_shape {
            return Ok(());
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "journal {} matches this run's identity but was written by an engine with a \
                 different state representation (journal state_shape: {old_shape}, this build: \
                 {our_shape}); refusing to replay it — delete the file to start over",
                path.display()
            ),
        ))
    }

    /// Appends one entry and fsyncs it. A write error disables the
    /// journal for the rest of the run (with a one-line warning) rather
    /// than failing the sweep — the journal is an optimization, not a
    /// correctness requirement.
    pub fn append(&self, entry: &Json) {
        let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(file) = guard.as_mut() else { return };
        let ok = writeln!(file, "{}", entry.render()).and_then(|()| file.sync_data());
        if let Err(e) = ok {
            crate::diag::warn(&format!(
                "journal write to {} failed ({e}); disabling checkpointing for this run",
                self.path.display()
            ));
            *guard = None;
        }
    }

    /// Renders a success entry for trial `trial`.
    pub fn success_entry<T: JournalValue>(trial: usize, value: &T) -> Json {
        JsonObj::new().field("trial", trial).field("value", value.to_json()).build()
    }

    /// Renders a failure entry.
    pub fn failure_entry(failure: &TrialFailure) -> Json {
        JsonObj::new()
            .field("trial", failure.trial)
            .field("failed", true)
            .field("kind", failure.kind.label())
            .field("error", failure.error.as_str())
            .field("attempts", failure.attempts)
            .build()
    }

    /// Interprets a replayed journal row: `Some(outcome)` when the row
    /// is usable, `None` when the trial must re-run (e.g. a trace
    /// sentinel that refuses to parse back).
    pub fn replay_row<T: JournalValue>(row: &Json) -> Option<TrialOutcome<T>> {
        let trial = row.get("trial").and_then(Json::as_u64)? as usize;
        if row.get("failed").and_then(Json::as_bool) == Some(true) {
            let kind = FailureKind::from_label(row.get("kind").and_then(Json::as_str)?)?;
            let error = row.get("error").and_then(Json::as_str)?.to_owned();
            let attempts = row.get("attempts").and_then(Json::as_u64).unwrap_or(1) as u32;
            Some(TrialOutcome::Failed(TrialFailure {
                trial,
                attempts,
                kind,
                error,
                backtrace: None,
            }))
        } else {
            T::from_json(row.get("value")?).map(TrialOutcome::Done)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_policy() -> SupervisorPolicy {
        SupervisorPolicy { retries: 0, backoff_ms: 0, ..SupervisorPolicy::default() }
    }

    #[test]
    fn panics_are_captured_with_message_and_backtrace() {
        let out: TrialOutcome<()> = supervise(&quiet_policy(), 7, || panic!("boom {}", 42));
        let failure = out.as_failed().expect("must fail");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.error, "boom 42");
        assert_eq!(failure.trial, 7);
        assert_eq!(failure.attempts, 1);
        assert!(failure.backtrace.is_some(), "hook must capture a backtrace");
    }

    #[test]
    fn successful_trials_pass_through() {
        let out = supervise(&quiet_policy(), 0, || 41 + 1);
        assert_eq!(out.as_ok(), Some(&42));
        assert!(!out.is_failed());
        assert_eq!(out.unwrap(), 42);
    }

    #[test]
    fn cycle_deadline_becomes_typed_failure() {
        let policy = SupervisorPolicy { deadline_cycles: Some(100), ..quiet_policy() };
        let out: TrialOutcome<u64> = supervise(&policy, 3, || {
            let mut clock = metaleak_sim::clock::Clock::new();
            loop {
                clock.advance(metaleak_sim::clock::Cycles::new(30));
            }
        });
        let failure = out.as_failed().expect("deadline must fire");
        assert_eq!(failure.kind, FailureKind::CycleDeadline { spent: 120, limit: 100 });
        assert!(failure.error.contains("120 > 100"), "{}", failure.error);
    }

    #[test]
    fn retries_rerun_and_count_attempts() {
        use std::sync::atomic::AtomicU32;
        let policy = SupervisorPolicy { retries: 2, backoff_ms: 0, ..SupervisorPolicy::default() };
        let calls = AtomicU32::new(0);
        // Fails twice, then succeeds: a transient failure heals.
        let out = supervise(&policy, 0, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            "healed"
        });
        assert_eq!(out.as_ok(), Some(&"healed"));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // Always-failing bodies exhaust the budget and report it.
        let out: TrialOutcome<()> = supervise(&policy, 0, || panic!("permanent"));
        let failure = out.as_failed().unwrap();
        assert_eq!(failure.attempts, 3);
        assert_eq!(failure.error, "permanent");
    }

    #[test]
    fn injected_failures_hit_only_listed_trials() {
        let policy = SupervisorPolicy { inject: vec![2], ..quiet_policy() };
        assert!(!supervise(&policy, 1, || 1u64).is_failed());
        let out = supervise(&policy, 2, || 1u64);
        let failure = out.as_failed().expect("trial 2 must fail");
        assert_eq!(failure.error, "injected failure for trial 2 (METALEAK_FAIL_TRIAL)");
    }

    #[test]
    fn journal_values_round_trip() {
        fn round_trip<T: JournalValue + PartialEq + std::fmt::Debug>(v: T) {
            let back = T::from_json(&v.to_json()).expect("parse back");
            assert_eq!(back, v);
        }
        round_trip(42u64);
        round_trip(7u8);
        round_trip(3usize);
        round_trip(-5i64);
        round_trip(true);
        round_trip(0.5f64);
        round_trip("text".to_owned());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some(9u64));
        round_trip(Ok::<u64, String>(4));
        round_trip(Err::<u64, String>("nope".to_owned()));
        round_trip((1u64, 0.25f64, "x".to_owned()));
        round_trip(metaleak_sim::clock::Cycles::new(99));
        // Non-finite floats take the string fallback and round-trip.
        assert!(f64::from_json(&f64::INFINITY.to_json()).unwrap().is_infinite());
        assert!(f64::from_json(&f64::NAN.to_json()).unwrap().is_nan());
    }

    #[test]
    fn histograms_round_trip_exactly() {
        use metaleak_sim::clock::Cycles;
        use metaleak_sim::stats::LatencyHistogram;
        let mut h = LatencyHistogram::new(10);
        for v in [5u64, 15, 15, 95] {
            h.record(Cycles::new(v));
        }
        let back = LatencyHistogram::from_json(&h.to_json()).expect("parse back");
        assert_eq!(back.parts(), h.parts());
        // Empty histograms (min sentinel = u64::MAX) too.
        let empty = LatencyHistogram::new(7);
        let back = LatencyHistogram::from_json(&empty.to_json()).unwrap();
        assert_eq!(back.parts(), empty.parts());
    }

    #[test]
    fn trace_logs_refuse_replay() {
        use metaleak_sim::trace::{RingTracer, TraceLog};
        let log = RingTracer::new(4).into_log();
        assert!(TraceLog::from_json(&log.to_json()).is_none());
        // And through Option: Some(log) refuses, None replays.
        assert!(Option::<TraceLog>::from_json(&Some(log).to_json()).is_none());
        assert!(matches!(Option::<TraceLog>::from_json(&Json::Null), Some(None)));
    }

    #[test]
    fn journal_resumes_and_discards_torn_tail() {
        let dir = std::env::temp_dir().join(format!("metaleak_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.journal.jsonl");
        let header = JsonObj::new().field("journal", "unit").field("seed", 9u64).build();

        let (journal, rows) = Journal::open(&path, &header).unwrap();
        assert!(rows.is_empty());
        journal.append(&Journal::success_entry(0, &11u64));
        journal.append(&Journal::success_entry(2, &22u64));
        drop(journal);
        // Simulate a torn write: a half-flushed final line.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"trial\":3,\"val").unwrap();
        }

        let (journal, rows) = Journal::open(&path, &header).unwrap();
        assert_eq!(rows.len(), 2, "torn line must be discarded");
        let replayed: Vec<u64> =
            rows.values().map(|r| Journal::replay_row::<u64>(r).unwrap().unwrap()).collect();
        assert_eq!(replayed, vec![11, 22]);
        // The torn tail was truncated away; appending continues cleanly.
        journal.append(&Journal::success_entry(3, &33u64));
        drop(journal);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 4, "header + three entries: {body}");

        // A different header (other seed) discards the stale journal.
        let other = JsonObj::new().field("journal", "unit").field("seed", 10u64).build();
        let (_, rows) = Journal::open(&path, &other).unwrap();
        assert!(rows.is_empty(), "mismatched header must not replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_with_stale_state_shape_is_refused() {
        let dir = std::env::temp_dir().join(format!("metaleak_shape_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.journal.jsonl");
        let ours = JsonObj::new()
            .field("journal", "unit")
            .field("seed", 9u64)
            .field("state_shape", metaleak_engine::STATE_SHAPE)
            .build();

        // A journal written before the state_shape tag existed: same
        // identity, no tag. Replaying it must be refused loudly.
        let pre_tag = JsonObj::new().field("journal", "unit").field("seed", 9u64).build();
        std::fs::write(&path, format!("{}\n{{\"trial\":0,\"value\":1}}\n", pre_tag.render()))
            .unwrap();
        let Err(err) = Journal::open(&path, &ours) else { panic!("pre-tag journal accepted") };
        assert!(err.to_string().contains("state_shape"), "unhelpful error: {err}");

        // Same identity but a *different* tag: refused as well.
        let other_shape = JsonObj::new()
            .field("journal", "unit")
            .field("seed", 9u64)
            .field("state_shape", "pre-cow")
            .build();
        std::fs::write(&path, format!("{}\n", other_shape.render())).unwrap();
        assert!(Journal::open(&path, &ours).is_err());

        // A genuinely different identity (other seed) still silently
        // starts fresh, whatever its tag says.
        let other_seed = JsonObj::new().field("journal", "unit").field("seed", 10u64).build();
        std::fs::write(&path, format!("{}\n", other_seed.render())).unwrap();
        let (_, rows) = Journal::open(&path, &ours).unwrap();
        assert!(rows.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_rows_render_deterministically() {
        let failure = TrialFailure {
            trial: 4,
            attempts: 2,
            kind: FailureKind::Panic,
            error: "boom".to_owned(),
            backtrace: Some("not serialized".to_owned()),
        };
        assert_eq!(
            failure.row_json().render(),
            "{\"trial\":4,\"failed\":true,\"kind\":\"panic\",\"error\":\"boom\"}"
        );
        assert_eq!(
            failure.meta_json().render(),
            "{\"trial\":4,\"kind\":\"panic\",\"error\":\"boom\",\"attempts\":2}"
        );
        // Journal round-trip keeps row-relevant facts.
        let entry = Journal::failure_entry(&failure);
        let back = Journal::replay_row::<u64>(&entry).unwrap();
        let replayed = back.as_failed().unwrap();
        assert_eq!(replayed.error, "boom");
        assert_eq!(replayed.attempts, 2);
        assert!(replayed.backtrace.is_none(), "backtraces never ride the journal");
    }

    #[test]
    fn wall_backstop_aborts_a_spinning_clock() {
        let policy = SupervisorPolicy { wall_ms: Some(30), ..quiet_policy() };
        let out: TrialOutcome<()> = supervise(&policy, 0, || {
            let mut clock = metaleak_sim::clock::Clock::new();
            loop {
                clock.advance(metaleak_sim::clock::Cycles::new(1));
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let failure = out.as_failed().expect("wall backstop must fire");
        assert!(
            matches!(failure.kind, FailureKind::WallDeadline { .. }),
            "kind: {:?}",
            failure.kind
        );
    }
}
