//! Flight recorder: a bounded in-memory ring of recent trace events.
//!
//! Where [`trace`](crate::trace) records *everything* for a full-run export
//! (and therefore only exists under the `trace` feature), the flight
//! recorder keeps only the **last [`capacity`] events** at a fixed memory
//! cost, so a long-running daemon can afford to leave it on and dump "what
//! just happened" when something goes wrong — a task panics, a certificate
//! fails, or the journal poisons (see `docs/observability.md`).
//!
//! The ring is fed from the same `trace_event!`/`obs_span!` call sites as
//! the trace layer:
//!
//! * with the `trace` feature **on**, every recorded event is mirrored into
//!   the ring as it is built (same sequence numbers, worker ids, and task
//!   context as the full trace);
//! * with `trace` **off**, the macros record directly into the ring with
//!   the recorder's own sequence/epoch (task attribution is unavailable —
//!   events carry [`NO_TASK`]).
//!
//! [`dump_json`] renders the ring in the Chrome trace-event format (the
//! same exporter as `--trace`, loadable in Perfetto), oldest event first.
//!
//! Everything here is wall-clock-class telemetry: the ring never feeds the
//! logical trace, job results, or any durable bytes, and the whole module
//! is compiled out (strings and all) without the `telemetry` feature.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::trace::{chrome_json, TraceClass, TraceEvent, TraceKind, NO_TASK};

/// Number of events retained; pushing the `capacity + 1`-th event evicts
/// the oldest.
pub const fn capacity() -> usize {
    4096
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static WORKER_IDS: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RING: Mutex<Ring> = Mutex::new(Ring { buf: Vec::new(), next: 0 });

struct Ring {
    /// Grows to [`capacity`], then becomes a circular buffer.
    buf: Vec<TraceEvent>,
    /// Overwrite position once full (index of the oldest event).
    next: usize,
}

fn ring_lock() -> MutexGuard<'static, Ring> {
    match RING.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn ts_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    static WORKER: u32 = WORKER_IDS.fetch_add(1, Ordering::Relaxed);
}

/// Pushes an already-built event (the `trace` layer mirrors through here),
/// evicting the oldest event once the ring is full.
pub fn push(ev: TraceEvent) {
    let mut ring = ring_lock();
    if ring.buf.len() < capacity() {
        ring.buf.push(ev);
    } else {
        let at = ring.next;
        ring.buf[at] = ev;
        ring.next = (at + 1) % capacity();
    }
}

/// Records a point event with the recorder's own sequence/epoch. Used by
/// `trace_event!` when the `trace` feature is off — prefer the macro.
pub fn instant(phase: &'static str, class: TraceClass, value: u64, text: Option<&str>) {
    record(phase, TraceKind::Instant, class, value, text);
}

/// Records one event into the ring.
pub fn record(
    phase: &'static str,
    kind: TraceKind,
    class: TraceClass,
    value: u64,
    text: Option<&str>,
) {
    let ev = TraceEvent {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        ts_ns: ts_ns(),
        worker: WORKER.try_with(|w| *w).unwrap_or(0),
        task: NO_TASK,
        phase,
        kind,
        class,
        value,
        text: text.map(Box::from),
    };
    push(ev);
}

/// Guard emitting the span's [`End`](TraceKind::End) event on drop. Created
/// by `obs_span!` when the `trace` feature is off — prefer the macro.
#[must_use = "the span ends when the guard drops"]
pub struct FlightSpan {
    phase: &'static str,
    class: TraceClass,
}

impl Drop for FlightSpan {
    fn drop(&mut self) {
        record(self.phase, TraceKind::End, self.class, 0, None);
    }
}

/// Opens a span recorded only in the flight ring: the begin event now, the
/// end event when the guard drops (including during panic unwinding).
pub fn span(phase: &'static str, class: TraceClass) -> FlightSpan {
    record(phase, TraceKind::Begin, class, 0, None);
    FlightSpan { phase, class }
}

/// Copies the ring's contents, oldest event first.
pub fn snapshot() -> Vec<TraceEvent> {
    let ring = ring_lock();
    let mut out = Vec::with_capacity(ring.buf.len());
    if ring.buf.len() < capacity() {
        out.extend(ring.buf.iter().cloned());
    } else {
        out.extend(ring.buf[ring.next..].iter().cloned());
        out.extend(ring.buf[..ring.next].iter().cloned());
    }
    out
}

/// Empties the ring (tests and post-dump hygiene).
pub fn clear() {
    let mut ring = ring_lock();
    ring.buf.clear();
    ring.next = 0;
}

/// Renders the current ring as Chrome trace-event JSON (Perfetto-loadable),
/// exactly like the full-trace exporter but bounded to the last
/// [`capacity`] events.
pub fn dump_json() -> String {
    chrome_json(&snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The ring is process-global; serialise tests that assert its contents.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let _g = locked();
        clear();
        for i in 0..(capacity() as u64 + 10) {
            instant("flight.test.tick", TraceClass::Timing, i, None);
        }
        let events = snapshot();
        assert_eq!(events.len(), capacity());
        // Oldest-first order, and the first 10 values were evicted.
        assert_eq!(events[0].value, 10);
        assert_eq!(events[events.len() - 1].value, capacity() as u64 + 9);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        clear();
    }

    #[test]
    fn span_guard_closes_even_on_unwind() {
        let _g = locked();
        clear();
        let caught = std::panic::catch_unwind(|| {
            let _s = span("flight.test.span", TraceClass::Timing);
            panic!("boom");
        });
        assert!(caught.is_err());
        // With `trace` on, concurrently running trace tests feed the ring
        // too; look at this test's span only.
        let kinds: Vec<TraceKind> = snapshot()
            .iter()
            .filter(|e| e.phase == "flight.test.span")
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, vec![TraceKind::Begin, TraceKind::End]);
        clear();
    }

    #[test]
    fn dump_is_chrome_trace_shaped() {
        let _g = locked();
        clear();
        instant("flight.test.mark", TraceClass::Timing, 7, Some("he\"llo"));
        let j = dump_json();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("he\\\"llo"));
        assert!(j.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
        clear();
    }
}
