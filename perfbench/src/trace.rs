//! In-memory span recorder for the traced run.
//!
//! A span records a name, start, end, parent and worker around one of
//! the benchmark's own calls into a layer of the program. Spans are
//! kept in memory and written out once, when the run ends. A disabled
//! recorder (the untraced run) hands out inert guards that read no
//! clock, so end-to-end figures are measured without tracing.

use metaleak_bench::json::{Json, JsonObj};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no span".
pub type SpanId = u64;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub worker: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    base: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static WORKER: Cell<u64> = const { Cell::new(0) };
}
static NEXT_WORKER: AtomicU64 = AtomicU64::new(1);

fn worker_id() -> u64 {
    WORKER.with(|w| {
        if w.get() == 0 {
            w.set(NEXT_WORKER.fetch_add(1, Ordering::Relaxed));
        }
        w.get()
    })
}

/// Ends its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Option<Instant>,
}

impl Guard<'_> {
    /// This span's id, to parent spans opened on other threads.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            worker: worker_id(),
            start_ns: start.duration_since(self.rec.base).as_nanos() as u64,
            end_ns: end.duration_since(self.rec.base).as_nanos() as u64,
        };
        self.rec.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(span);
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            base: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens span `name` under `parent` (0 for a root span).
    pub fn span(&self, name: &'static str, parent: SpanId) -> Guard<'_> {
        if !self.enabled {
            return Guard { rec: self, id: 0, parent, name, start: None };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Guard { rec: self, id, parent, name, start: Some(Instant::now()) }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total length of the union of `intervals` (nanoseconds).
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| union_ns(c.clone()));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += selfs[&s.id] as f64 / 1e6;
    }
    out
}

/// Share of `root`'s duration that no other span covers.
pub fn uncovered_share(spans: &[Span], root: SpanId) -> f64 {
    let Some(r) = spans.iter().find(|s| s.id == root) else { return 0.0 };
    let covered = union_ns(
        spans
            .iter()
            .filter(|s| s.id != root)
            .map(|s| (s.start_ns.max(r.start_ns), s.end_ns.min(r.end_ns)))
            .filter(|(a, b)| a < b)
            .collect(),
    );
    r.dur_ns().saturating_sub(covered) as f64 / r.dur_ns().max(1) as f64
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
}

/// Renders the spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let row: Json = JsonObj::new()
            .field("id", s.id)
            .field("parent", s.parent)
            .field("name", s.name)
            .field("worker", s.worker)
            .field("start_ns", s.start_ns)
            .field("end_ns", s.end_ns)
            .build();
        out.push_str(&row.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, worker: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "bench.pass", 0, 100),
            span(2, 1, "engine.fork", 10, 40),
            span(3, 1, "engine.fork", 30, 50),
            span(4, 1, "attacks.transmit", 70, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30);
        let layers = layer_self_ms(&spans);
        assert!((layers["engine"] - 50e-6).abs() < 1e-12);
        assert!((uncovered_share(&spans, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        drop(rec.span("engine.fork", 0));
        assert!(rec.spans().is_empty());
    }
}
