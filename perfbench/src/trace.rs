//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around calls
//! into each layer's public functions. Each span has a name, start and end
//! (seconds since the recorder started), the span that was open on the same
//! thread when it began (its parent) and a job id (0 outside the serve
//! workload). Nothing is recorded until [`enable`] is called, so the plain
//! run pays one relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer boundary name, e.g. `core.hess_vec`.
    pub name: &'static str,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started (NaN while open).
    pub end: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Job id (serve workload) or 0.
    pub job: u64,
}

impl SpanRec {
    /// Wall duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now() -> f64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Start recording spans.
pub fn enable() {
    now();
    ON.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let t = now();
            if let Ok(mut spans) = SPANS.lock() {
                spans[idx].end = t;
            }
            STACK.with(|s| s.borrow_mut().pop());
        }
    }
}

/// Open a span named `name` for job `job` (0 = none) on this thread.
pub fn span(name: &'static str, job: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = {
        let mut spans = SPANS.lock().expect("span recorder poisoned by a panicking thread");
        spans.push(SpanRec { name, start: now(), end: f64::NAN, parent, job });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

/// Run `f` inside a span.
pub fn timed<R>(name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
    let _g = span(name, job);
    f()
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned by a panicking thread"))
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Spans with this name.
    pub calls: usize,
    /// Summed durations (s).
    pub total: f64,
    /// Summed self times (s).
    pub self_total: f64,
    /// Every duration (s), in recording order.
    pub durs: Vec<f64>,
}

/// Group the spans of job `job` (all spans when `None`) by name.
pub fn totals(spans: &[SpanRec], job: Option<u64>) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs).filter(|(s, _)| job.is_none_or(|j| s.job == j)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total += s.dur();
        t.self_total += st;
        t.durs.push(s.dur());
    }
    out
}

/// Write `spans` as JSON lines to `path`.
pub fn write(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start, s.end, s.job
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec { name, start, end, parent, job: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            rec("gn", 0.0, 10.0, None),
            rec("obj", 1.0, 3.0, Some(0)),
            rec("grad", 2.0, 5.0, Some(0)), // overlaps obj: covered [1, 5]
            rec("pc", 7.0, 8.0, Some(0)),
            rec("fft", 7.25, 7.75, Some(3)),
            rec("late", 9.5, 12.0, Some(0)), // clipped to the parent's end
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10.0 - 4.0 - 1.0 - 0.5);
        assert_eq!(st[1], 2.0);
        assert_eq!(st[3], 0.5);
        assert_eq!(st[4], 0.5);
        let t = totals(&spans, None);
        assert_eq!(t["gn"].calls, 1);
        assert_eq!(t["pc"].self_total, 0.5);
    }

    #[test]
    fn spans_nest_per_thread() {
        enable();
        {
            let _outer = span("test.outer", 7);
            let _inner = span("test.inner", 7);
        }
        let spans: Vec<SpanRec> =
            take().into_iter().filter(|s| s.name.starts_with("test.")).collect();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].parent.is_some());
        assert!(spans.iter().all(|s| s.end >= s.start && s.job == 7));
    }
}
