//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (nothing inside the program is instrumented). Each span has a name,
//! start and end on one monotonic clock, the span that caused it and an
//! optional request id. The parent is the innermost open span on the same
//! thread or, on a thread with none open (a serving-engine worker), the
//! current phase span. Nothing is recorded while tracing is off, so the
//! untraced runs that give the end-to-end metrics pay one atomic load
//! per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.compile`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span served, when it served exactly one.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

static ON: AtomicBool = AtomicBool::new(false);
/// Index of the open phase span plus one (0: none).
static PHASE: AtomicUsize = AtomicUsize::new(0);
static STORE: Mutex<Store> = Mutex::new(Store {
    spans: Vec::new(),
    counters: BTreeMap::new(),
});

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn store() -> std::sync::MutexGuard<'static, Store> {
    STORE
        .lock()
        .expect("trace store lock poisoned by a panicking thread")
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    id: Option<usize>,
    /// Phase to restore on drop (phase spans only).
    restore_phase: Option<usize>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        if let Some(prev) = self.restore_phase {
            PHASE.store(prev, Ordering::SeqCst);
        }
        // Never panic in drop: a poisoned store just loses the end time.
        if let Ok(mut st) = STORE.lock() {
            if let Some(span) = st.spans.get_mut(id) {
                span.end_ns = end;
            }
        }
    }
}

/// Open a span; it closes when the guard drops.
pub fn span(name: &'static str) -> Guard {
    span_req(name, None)
}

/// Open a span on behalf of one request.
pub fn span_req(name: &'static str, req: Option<u64>) -> Guard {
    if !enabled() {
        return Guard {
            id: None,
            restore_phase: None,
        };
    }
    let parent = STACK
        .with(|s| s.borrow().last().copied())
        .or_else(|| PHASE.load(Ordering::SeqCst).checked_sub(1));
    let start = now_ns();
    let id = {
        let mut st = store();
        st.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            req,
        });
        st.spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id: Some(id),
        restore_phase: None,
    }
}

/// Open a phase span (`setup`, `measure`, ...): besides being a span, it
/// is the parent of spans opened on threads that have no span open.
pub fn phase(name: &'static str) -> Guard {
    let mut guard = span(name);
    if let Some(id) = guard.id {
        guard.restore_phase = Some(PHASE.swap(id + 1, Ordering::SeqCst));
    }
    guard
}

/// Add to a named counter (only while recording).
pub fn count(name: &'static str, delta: f64) {
    if enabled() {
        *store().counters.entry(name).or_insert(0.0) += delta;
    }
}

/// Take everything recorded so far, leaving the store empty.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    let mut st = store();
    (
        std::mem::take(&mut st.spans),
        std::mem::take(&mut st.counters),
    )
}

/// Nanoseconds of `[start, end)` covered by the union of `children`,
/// each clipped to the parent interval. Children on other threads may
/// overlap each other; overlapping time is counted once.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part its children
/// cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, c))
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Sum durations and self times by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.dur_ns() as f64 / 1e9;
        t.self_s += self_ns as f64 / 1e9;
    }
    out
}

/// Share of the phase spans' (root spans') time that their children
/// account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut dur, mut uncovered) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            dur += s.dur_ns();
            uncovered += self_ns;
        }
    }
    if dur == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / dur as f64
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.req)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40), and [90, 130) runs past the parent's end.
        let covered = covered_ns(0, 100, &[(10, 40), (30, 60), (90, 130)]);
        assert_eq!(covered, 50 + 10);
        // A child nested inside another adds nothing.
        assert_eq!(covered_ns(0, 100, &[(10, 60), (20, 30)]), 50);
        assert_eq!(covered_ns(0, 100, &[]), 0);
    }

    #[test]
    fn self_time_subtracts_covered_children_only() {
        let spans = vec![
            rec("measure", 0, 100, None),
            rec("tune", 0, 80, Some(0)),
            rec("run", 10, 40, Some(1)),
            rec("run", 30, 60, Some(1)), // another thread, overlapping
            rec("quality", 70, 75, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20, 80 - 50 - 5, 30, 30, 5]);
        let t = totals(&spans);
        assert_eq!(t["run"].count, 2);
        assert!((t["run"].total_s - 60e-9).abs() < 1e-15);
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_per_thread_and_count_only_when_enabled() {
        // One test touches the global recorder, so tests cannot race on it.
        set_enabled(false);
        drop(span("ignored"));
        count("ignored", 1.0);
        set_enabled(true);
        {
            let _p = phase("measure");
            let _a = span("outer");
            drop(span_req("inner", Some(7)));
            std::thread::scope(|s| {
                s.spawn(|| drop(span("worker")));
            });
            count("runs", 2.0);
        }
        set_enabled(false);
        let (spans, counters) = take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["measure", "outer", "inner", "worker"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].req, Some(7));
        // No span open on the worker thread: it hangs off the phase.
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(counters.get("runs"), Some(&2.0));
        assert!(!counters.contains_key("ignored"));
    }
}
