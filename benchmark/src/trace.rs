//! Benchmark-side spans: recorded around calls into the crates' public
//! functions, never inside them.
//!
//! Spans live in memory while the workload runs (one mutex push per
//! closed span) and are written out once, when the run ends. Each span
//! carries its name, start and end (nanoseconds since the run's trace
//! epoch), the id of the span open on the same thread when it started
//! (its parent) and the query it belongs to, if any. [`fold`] turns the
//! record into a per-layer self-time table: a span's self time is its
//! duration minus the part of it its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.refill.client`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// The query this span served, if it served one.
    pub query: Option<u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static QUERY: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Turns span recording on or off for the rest of the process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags spans opened on this thread with `query` until changed.
pub fn set_query(query: Option<u64>) {
    QUERY.with(|q| q.set(query));
}

/// An open span; records itself when dropped. Inert when tracing is off.
pub struct Span {
    open: Option<(u64, u64, &'static str, u64)>,
}

/// Opens a span named `name` on this thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, now_ns())),
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        let query = QUERY.with(Cell::get);
        // A poisoned lock only means another thread panicked mid-push;
        // the vector itself is still valid, and Drop must not panic.
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            query,
        });
    }
}

/// Runs `f` inside a span named `name`; returns its result and its
/// wall time in milliseconds (measured whether or not tracing is on).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _s = span(name);
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Spans closed so far.
pub fn recorded() -> usize {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Nanoseconds one span costs to open, close and record: the mean over
/// a burst of spans recorded on this thread and then discarded. Call
/// with tracing on and no other thread recording.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let before = recorded();
    let start = Instant::now();
    for _ in 0..N {
        drop(span("obs.calibrate"));
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(N);
    SPANS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .truncate(before);
    ns
}

/// Every span closed so far, in closing order.
pub fn take_spans() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Writes spans as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let query = s.query.map_or("null".to_string(), |q| q.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"query\":{}}}",
            s.name, s.id, s.parent, s.start_ns, s.end_ns, query
        )?;
    }
    out.flush()
}

/// Per-name totals of a span record.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folded {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), nanoseconds.
    pub self_ns: u64,
}

/// Folds spans into per-name count, total and self time. Children are
/// spans whose parent is the span; parents are tracked per thread, so a
/// span's children never overlap each other and their clipped durations
/// add up to the covered part.
pub fn fold(spans: &[SpanRec]) -> BTreeMap<&'static str, Folded> {
    let by_id: BTreeMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            *covered.entry(p.id).or_default() += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let f = out.entry(s.name).or_default();
        f.count += 1;
        f.total_ns += dur;
        f.self_ns += dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            query: None,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            rec(2, 1, "net.send", 10, 30),
            rec(3, 1, "net.send", 50, 60),
            rec(1, 0, "core.refill", 0, 100),
        ];
        let f = fold(&spans);
        assert_eq!(f["core.refill"].total_ns, 100);
        assert_eq!(f["core.refill"].self_ns, 70);
        assert_eq!(f["net.send"].count, 2);
        assert_eq!(f["net.send"].self_ns, 30);
    }
}
