//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public functions: name, start, end, parent span, and the
//! request id every span of one request shares. They stay in memory and are
//! written out once, when the run ends, as a Chrome trace-event file (open
//! it in `chrome://tracing` or Perfetto). A span's *self time* is its
//! duration minus the part of its interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.reference`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Busy {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations, ns.
    pub total: u64,
    /// Summed self times, ns.
    pub self_time: u64,
}

/// A span recorder. A disabled tracer runs the wrapped closures and records
/// nothing, so traced and untraced phases execute the same code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(Instant::now(), false)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.ns(Instant::now());
        out
    }

    /// Records an already-timed top-level span (the serve driver times its
    /// requests itself, on two threads, and records them afterwards).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.enabled {
            let (start, end) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start,
                end,
                parent: None,
                req,
            });
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name call counts, total time and self time.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let b = out.entry(s.name).or_default();
            b.calls += 1;
            b.total += s.end - s.start;
            b.self_time += own;
        }
        out
    }

    /// Share of `[from, to)` that no top-level span covers.
    pub fn uncovered_share(&self, from: Instant, to: Instant) -> f64 {
        let (lo, hi) = (self.ns(from), self.ns(to));
        if hi <= lo {
            return 0.0;
        }
        let tops = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.end));
        1.0 - covered(tops, lo, hi) as f64 / (hi - lo) as f64
    }

    /// The spans as a Chrome trace-event JSON document (`ph: "X"`
    /// complete events, µs timestamps; the request id is the thread lane).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.req,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.req,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids.into_iter(), s.start, s.end))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("row", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)), // overlaps `a`: the union is 10..50
            span("leaf", 12, 20, Some(1)), // a grandchild: not the row's child
            span("c", 90, 130, Some(0)), // runs past its parent: clipped at 100
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 8, 40]);
    }

    #[test]
    fn nested_spans_record_parents_and_busy_totals() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 1, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        let busy = t.busy();
        assert_eq!(busy["inner"].calls, 2);
        assert_eq!(
            busy["outer"].self_time + busy["inner"].total,
            busy["outer"].total
        );
        assert!(t
            .chrome_json()
            .starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn uncovered_share_counts_gaps_between_top_level_spans() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        t.spans = vec![
            span("a", 0, 25, None),
            span("b", 50, 75, None),
            span("c", 60, 70, Some(1)),
        ];
        let to = epoch + std::time::Duration::from_nanos(100);
        assert!((t.uncovered_share(epoch, to) - 0.5).abs() < 1e-12);
    }
}
