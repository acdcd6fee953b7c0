//! # metaleak-bench
//!
//! Experiment harness regenerating every table and figure of the
//! MetaLeak paper's evaluation. Each `src/bin/figXX_*.rs` binary
//! prints the rows/series the paper reports, writes CSV under
//! `target/experiments/`, and emits machine-readable JSONL through the
//! [`harness`] sink. This library holds the shared plumbing: the
//! parallel trial runner, output paths, CSV/JSONL writing, text tables
//! and histogram rendering.
//!
//! # Seeding convention
//!
//! All randomness flows from one literal experiment seed per binary
//! through `SimRng::split` child streams — never from reusing a literal
//! seed across sweep points (which would correlate the noise/fault
//! streams of supposedly independent points):
//!
//! - **experiment seed** — a literal owned by the binary, recorded in
//!   the emitted metadata;
//! - **trial streams** — trial `i` draws from
//!   `SimRng::seed_from(seed).split(i)` and sweep point `p`'s warmup
//!   from `split(WARMUP_STREAM_BASE + p)`, both pre-split by the
//!   execution core ([`exec`]), so results are identical for any
//!   worker thread count;
//! - **sub-streams** — a trial needing several independent generators
//!   (payload bits, fault plan, workload...) splits its trial stream
//!   further: `trial_rng.split(0)`, `trial_rng.split(1)`, ...;
//! - **auxiliary streams** — state shared by *all* trials (e.g. one
//!   workload replayed against every scheme in a controlled
//!   comparison) comes from [`harness::Experiment::aux_stream`], whose
//!   ids live above [`harness::AUX_STREAM_BASE`] and cannot collide
//!   with trial ids.

#![deny(missing_docs)]

pub mod diag;
pub mod exec;
pub mod harness;
pub mod json;
pub mod spec;
pub mod supervisor;
pub mod trace;

use metaleak_engine::config::SecureConfig;
use metaleak_engine::secmem::SecureMemory;
use metaleak_sim::addr::CoreId;
use metaleak_sim::stats::LatencyHistogram;
use metaleak_sim::trace::Tracer;
use std::fmt;
use std::fs;
use std::path::PathBuf;

/// A typed artifact-layer failure: an output directory or experiment
/// file could not be created or written. Bins report it and exit
/// non-zero instead of panicking mid-sweep.
#[derive(Debug)]
pub struct ArtifactError {
    /// The path the operation targeted.
    pub path: PathBuf,
    /// What the harness was doing (`"create"`, `"write"`, `"remove"`...).
    pub action: &'static str,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl ArtifactError {
    pub(crate) fn new(
        action: &'static str,
        path: impl Into<PathBuf>,
        source: std::io::Error,
    ) -> Self {
        ArtifactError { path: path.into(), action, source }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to {} {}: {}", self.action, self.path.display(), self.source)
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Turns an experiment bin's result into its exit code:
///
/// - `Err` (artifact-layer failure) → message on stderr, exit 1;
/// - `Ok` with failed trials (a degraded sweep: artifacts complete,
///   some rows are `TrialFailure` stand-ins) → failure summary on
///   stderr, exit 2 — so CI notices while `leakscan --allow-degraded`
///   can still assess the surviving trials;
/// - `Ok` with no failures → exit 0.
pub fn conclude(
    result: Result<harness::ExperimentReport, ArtifactError>,
) -> std::process::ExitCode {
    match result {
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(1)
        }
        Ok(report) if !report.failures.is_empty() => {
            for f in &report.failures {
                eprintln!("error: {f}");
                if let Some(bt) = &f.backtrace {
                    eprintln!("{bt}");
                }
            }
            eprintln!(
                "error: sweep degraded: {} trial(s) failed; artifacts are complete but flagged",
                report.failures.len()
            );
            std::process::ExitCode::from(2)
        }
        Ok(_) => std::process::ExitCode::SUCCESS,
    }
}

/// Number of distinct access paths characterized for `config`: Path-1
/// (cache hit), Path-2 (counter hit), Path-3 (tree-leaf hit), plus one
/// Path-4 depth per evictable tree level.
pub fn path_count(config: &SecureConfig) -> usize {
    let mem = SecureMemory::new(config.clone());
    let levels = mem.tree().geometry().levels() as usize;
    2 + levels
}

/// Collects `samples` latencies for access path `path` (0-based index
/// into the [`path_count`] paths) on a fresh memory under `config`.
/// Returns the path label and its latency histogram. Each path is
/// independent, so the paths of one figure can run as parallel trials.
pub fn characterize_path(
    config: &SecureConfig,
    path: usize,
    samples: usize,
) -> (String, LatencyHistogram) {
    let mut mem = SecureMemory::new(config.clone());
    characterize_path_on(&mut mem, path, samples)
}

/// [`characterize_path`] against a caller-provided memory — the
/// snapshot-sharing form: warm one `SecureMemory` per sweep point, then
/// run each path trial on a [`metaleak_engine::snapshot::Snapshot`]
/// fork instead of re-simulating construction.
pub fn characterize_path_on<Tr: Tracer>(
    mem: &mut SecureMemory<Tr>,
    path: usize,
    samples: usize,
) -> (String, LatencyHistogram) {
    let core = CoreId(0);
    let mut h = LatencyHistogram::new(10);
    match path {
        // Path-1: data cache hit.
        0 => {
            mem.read(core, 0).unwrap();
            for _ in 0..samples {
                h.record(mem.read(core, 0).unwrap().latency);
            }
            ("path1-cache-hit".to_owned(), h)
        }
        // Path-2: memory read, counter cached. Stride within one page
        // so the counter block stays hot while the data misses.
        1 => {
            for i in 0..samples as u64 {
                let block = 64 + (i % 63);
                mem.flush_block(block);
                let r = mem.read(core, block).unwrap();
                h.record(r.latency);
            }
            ("path2-counter-hit".to_owned(), h)
        }
        // Path-3: counter missed, tree leaf cached: evict only the
        // counter.
        2 => {
            for i in 0..samples as u64 {
                let block = 128 * 64 + (i % 32) * 64; // distinct pages, shared leaves
                let cb = mem.counter_block_of(block);
                // Warm the tree path once, then push the counter out.
                mem.flush_block(block);
                mem.read(core, block).unwrap();
                mem.force_counter_writeback(cb);
                mem.flush_block(block);
                let r = mem.read(core, block).unwrap();
                h.record(r.latency);
            }
            ("path3-tree-leaf-hit".to_owned(), h)
        }
        // Path-4 at depth `path - 3`: additionally evict tree levels
        // 0..=d before the read, so the walk misses d+1 node levels.
        _ => {
            let depth = path - 3;
            for i in 0..samples as u64 {
                let block = (4096 + (i % 64) * 37) * 64;
                let cb = mem.counter_block_of(block);
                mem.flush_block(block);
                mem.read(core, block).unwrap();
                mem.force_counter_writeback(cb);
                for l in 0..=depth {
                    // Evicts the node whether clean or dirty, so the
                    // walk must re-fetch levels 0..=depth from memory.
                    let node = mem.tree().geometry().ancestor_at(cb, l as u8);
                    mem.force_tree_writeback(node);
                }
                mem.flush_block(block);
                let r = mem.read(core, block).unwrap();
                h.record(r.latency);
            }
            (format!("path4-miss-to-L{}", depth + 1), h)
        }
    }
}

/// Collects `samples` latencies for each access path under `config`.
/// Returns labelled histograms, ordered fastest path first.
pub fn characterize_paths(config: SecureConfig, samples: usize) -> Vec<(String, LatencyHistogram)> {
    (0..path_count(&config)).map(|p| characterize_path(&config, p, samples)).collect()
}

/// Directory experiment outputs are written to:
/// `$METALEAK_OUT_DIR` when set (and non-empty), otherwise
/// `target/experiments` relative to the working directory. The
/// override lets tests and CI steps redirect the sink to a scratch
/// directory without racing on the shared default.
pub fn out_dir() -> PathBuf {
    try_out_dir().unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`out_dir`]: resolves and creates the output
/// directory, returning a typed [`ArtifactError`] instead of
/// panicking.
pub fn try_out_dir() -> Result<PathBuf, ArtifactError> {
    let dir = match std::env::var("METALEAK_OUT_DIR") {
        Ok(d) if !d.trim().is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target/experiments"),
    };
    fs::create_dir_all(&dir).map_err(|e| ArtifactError::new("create", &dir, e))?;
    Ok(dir)
}

/// Writes a CSV file under [`out_dir`]; returns the path.
///
/// # Errors
/// [`ArtifactError`] when the output directory or the file cannot be
/// written.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> Result<PathBuf, ArtifactError> {
    let path = try_out_dir()?.join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    fs::write(&path, body).map_err(|e| ArtifactError::new("write", &path, e))?;
    Ok(path)
}

/// Emits a one-line warning for an unparsable environment value
/// through the [`diag`] sink (stderr when none is installed), naming
/// the variable, the offending value and the fallback — once per
/// variable per diagnostics context, so hot helpers like [`scaled`]
/// don't spam while every server job still gets its own attributed
/// copy.
pub(crate) fn warn_env_once(name: &str, value: &str, expected: &str, fallback: &str) {
    diag::warn_once(
        name,
        &format!("ignoring {name}={value:?} (expected {expected}); using {fallback}"),
    );
}

/// Reads an unsigned-integer environment knob. Unset or empty →
/// `fallback`; unparsable → one-line stderr warning (variable, value,
/// fallback) and `fallback`.
pub fn env_u64(name: &str, fallback: Option<u64>) -> Option<u64> {
    let fallback_desc = || fallback.map_or_else(|| "unset".to_owned(), |v| v.to_string());
    match std::env::var(name) {
        Err(_) => fallback,
        Ok(v) if v.trim().is_empty() => fallback,
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                warn_env_once(name, &v, "a non-negative integer", &fallback_desc());
                fallback
            }
        },
    }
}

/// Reads a comma-separated list of trial indices from the environment
/// (`METALEAK_FAIL_TRIAL`-style). Malformed entries are skipped with
/// one stderr warning naming the variable and value.
pub fn env_index_list(name: &str) -> Vec<usize> {
    let Ok(raw) = std::env::var(name) else { return Vec::new() };
    if raw.trim().is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut bad = false;
    for part in raw.split(',') {
        match part.trim().parse::<usize>() {
            Ok(i) => out.push(i),
            Err(_) if part.trim().is_empty() => {}
            Err(_) => bad = true,
        }
    }
    if bad {
        warn_env_once(name, &raw, "comma-separated trial indices", "the parseable entries");
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether a quick (CI-sized) run was requested. Set `METALEAK_FULL`
/// to `1`, `true` or `yes` (case-insensitive, surrounding whitespace
/// ignored) for paper-scale sample counts; any other value — including
/// unset — keeps the quick sizes.
pub fn quick_mode() -> bool {
    let value = std::env::var("METALEAK_FULL").ok();
    warn_unrecognized_bool("METALEAK_FULL", value.as_deref(), "quick mode");
    !full_requested(value.as_deref())
}

/// Warns (once per variable) when a boolean-style `METALEAK_*` value
/// is neither a recognized truthy (`1`/`true`/`yes`) nor falsy
/// (`0`/`false`/`no`) spelling, naming the fallback behaviour.
fn warn_unrecognized_bool(name: &str, value: Option<&str>, fallback: &str) {
    if let Some(v) = value {
        let norm = v.trim().to_ascii_lowercase();
        if !norm.is_empty() && !matches!(norm.as_str(), "1" | "true" | "yes" | "0" | "false" | "no")
        {
            warn_env_once(name, v, "1/true/yes or 0/false/no", fallback);
        }
    }
}

/// Pure interpretation of the `METALEAK_FULL` environment value
/// (separated from [`quick_mode`] so it can be tested without touching
/// process-global environment state). The previous implementation
/// treated everything but the literal `"1"` — including `"true"` — as
/// quick mode.
pub fn full_requested(value: Option<&str>) -> bool {
    matches!(
        value.map(|v| v.trim().to_ascii_lowercase()).as_deref(),
        Some("1") | Some("true") | Some("yes")
    )
}

/// Whether per-trial event tracing was requested. Set `METALEAK_TRACE`
/// to `1`, `true` or `yes` (same spellings as `METALEAK_FULL`) to make
/// the instrumented binaries run their trials on a `RingTracer` and
/// emit `<name>.trace.jsonl` sidecars; any other value — including
/// unset — keeps the zero-cost `NullTracer` build and leaves every
/// existing artifact byte-identical.
pub fn trace_enabled() -> bool {
    let value = std::env::var("METALEAK_TRACE").ok();
    warn_unrecognized_bool("METALEAK_TRACE", value.as_deref(), "tracing off");
    trace_requested(value.as_deref())
}

/// Pure interpretation of the `METALEAK_TRACE` environment value
/// (separated from [`trace_enabled`] so it can be tested without
/// touching process-global environment state). Accepts exactly the
/// truthy spellings of [`full_requested`].
pub fn trace_requested(value: Option<&str>) -> bool {
    full_requested(value)
}

/// Whether sweep points share one warmed snapshot across their trials
/// ([`harness::Experiment::with_warmup`]). On by default; set
/// `METALEAK_SNAPSHOT` to `0`, `false` or `no` to rebuild the warmup
/// state inside every trial instead (the pre-snapshot behaviour, kept
/// for perf comparisons and determinism cross-checks — both modes emit
/// byte-identical JSONL/trace artifacts).
pub fn snapshot_sharing() -> bool {
    let value = std::env::var("METALEAK_SNAPSHOT").ok();
    warn_unrecognized_bool("METALEAK_SNAPSHOT", value.as_deref(), "snapshot sharing on");
    sharing_requested(value.as_deref())
}

/// Pure interpretation of the `METALEAK_SNAPSHOT` environment value
/// (separated from [`snapshot_sharing`] so it can be tested without
/// touching process-global environment state). Everything but an
/// explicit falsy spelling keeps sharing on.
pub fn sharing_requested(value: Option<&str>) -> bool {
    !matches!(
        value.map(|v| v.trim().to_ascii_lowercase()).as_deref(),
        Some("0") | Some("false") | Some("no")
    )
}

/// Whether crash-safe trial journaling is enabled (default on). Set
/// `METALEAK_JOURNAL` to `0`, `false` or `no` to skip the per-trial
/// fsynced checkpoint writes (an uninterruptible throwaway run saves
/// the I/O; an interrupted one restarts from scratch).
pub fn journal_enabled() -> bool {
    let value = std::env::var("METALEAK_JOURNAL").ok();
    warn_unrecognized_bool("METALEAK_JOURNAL", value.as_deref(), "journaling on");
    journal_requested(value.as_deref())
}

/// Pure interpretation of the `METALEAK_JOURNAL` environment value
/// (separated from [`journal_enabled`] so it can be tested without
/// touching process-global environment state). Everything but an
/// explicit falsy spelling keeps journaling on.
pub fn journal_requested(value: Option<&str>) -> bool {
    sharing_requested(value)
}

/// Picks `quick` or `full` depending on [`quick_mode`].
pub fn scaled(quick: usize, full: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// A minimal aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Prints a labelled latency histogram with summary statistics.
pub fn print_histogram(label: &str, h: &LatencyHistogram) {
    println!(
        "{label}: n={} mean={:.1} min={} max={} p50={}",
        h.count(),
        h.mean().unwrap_or(0.0),
        h.min().map(|c| c.as_u64()).unwrap_or(0),
        h.max().map(|c| c.as_u64()).unwrap_or(0),
        h.percentile(0.5).map(|c| c.as_u64()).unwrap_or(0),
    );
    print!("{}", h.render(48));
}

/// Serializes a histogram into CSV rows `label,bucket,count`.
pub fn histogram_rows(label: &str, h: &LatencyHistogram) -> Vec<String> {
    h.iter().map(|(b, n)| format!("{label},{b},{n}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak_sim::clock::Cycles;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["path", "latency"]);
        t.row(vec!["P1", "40"]);
        t.row(vec!["P4-deep", "450"]);
        let s = t.render();
        assert!(s.contains("path"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn histogram_rows_cover_buckets() {
        let mut h = LatencyHistogram::new(10);
        h.record(Cycles::new(5));
        h.record(Cycles::new(25));
        let rows = histogram_rows("x", &h);
        assert_eq!(rows, vec!["x,0,1", "x,20,1"]);
    }

    #[test]
    fn scaled_respects_quick_mode() {
        // Default environment: quick.
        if quick_mode() {
            assert_eq!(scaled(5, 50), 5);
        } else {
            assert_eq!(scaled(5, 50), 50);
        }
    }

    #[test]
    fn full_mode_accepts_common_truthy_spellings() {
        for v in ["1", "true", "TRUE", "True", "yes", "YES", " yes ", "\t1\n"] {
            assert!(full_requested(Some(v)), "{v:?} must request a full run");
        }
    }

    #[test]
    fn quick_mode_for_everything_else() {
        for v in [None, Some(""), Some("0"), Some("false"), Some("no"), Some("2"), Some("full")] {
            assert!(!full_requested(v), "{v:?} must stay quick");
        }
    }

    #[test]
    fn snapshot_sharing_is_on_unless_explicitly_disabled() {
        for v in [None, Some(""), Some("1"), Some("true"), Some("yes"), Some("share")] {
            assert!(sharing_requested(v), "{v:?} must keep sharing on");
        }
        for v in [Some("0"), Some("false"), Some("NO"), Some(" no ")] {
            assert!(!sharing_requested(v), "{v:?} must disable sharing");
        }
    }
}
