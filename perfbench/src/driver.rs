//! The open-loop load generator: std only, on `pobp_serve::Client`.
//!
//! Two threads, one connection each at a time. The sender submits every
//! request at its due time, whatever the daemon is doing, and times the
//! acknowledgement from the due time, so a stall shows in the requests
//! behind it. The poller asks `status` for every acknowledged, unfinished
//! job until it sees a terminal state, and samples the queue depth.
//! Latencies are measured from due times; how late the sender ran is
//! reported as its lag.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pobp_engine::splitmix64;
use pobp_serve::json::Json;
use pobp_serve::Client;

/// Driver threads: one sender, one poller.
pub const THREADS: usize = 2;
/// Longest pause between two sweeps of status polls in an open loop, where
/// every job's completion is timed. Each pause is drawn uniformly from
/// `0..gap`, so that when a job is first seen done is not locked to the
/// poller's phase: a fixed gap makes observed completion times jump in
/// whole gaps, and the median jump from run to run.
pub const OPEN_POLL_GAP: Duration = Duration::from_micros(300);
/// The same for a burst, where only the last completion is timed: fewer
/// polls leave the cores to the daemon.
pub const BURST_POLL_GAP: Duration = Duration::from_millis(2);
/// Queue-depth sampling period (20 Hz).
const STATS_GAP: Duration = Duration::from_millis(50);
/// Lead time between starting a phase and its first due time.
const LEAD: Duration = Duration::from_millis(20);
/// How long after the last submission unfinished jobs are still awaited.
const DRAIN_LIMIT: Duration = Duration::from_secs(120);

/// Arrival offsets of a Poisson process of `rate` per second, seeded.
pub fn poisson(seed: u64, rate: f64, count: usize) -> Vec<Duration> {
    let mut x = seed;
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            x = splitmix64(x);
            let u = ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// When the request was due.
    pub due: Option<Instant>,
    /// When it was sent.
    pub sent: Option<Instant>,
    /// When its acknowledgement arrived.
    pub ack: Option<Instant>,
    /// When a terminal state was first seen (the ack, for a cache hit).
    pub done: Option<Instant>,
    /// Assigned job id.
    pub id: Option<u64>,
    /// Content key, as the daemon reported it.
    pub key: String,
    /// Whether the daemon answered it from an equal-keyed finished job.
    pub cached: bool,
    /// Last status seen.
    pub status: String,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

/// One phase's outcomes and the driver's own counters.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Per request, in submission order.
    pub outcomes: Vec<Outcome>,
    /// `status` polls made.
    pub polls: u64,
    /// Largest `stats.queued` sampled.
    pub queue_max: u64,
    /// Request spans (name, request index, start, end), when traced.
    pub spans: Vec<(&'static str, u64, Instant, Instant)>,
}

fn terminal(status: &str) -> bool {
    matches!(status, "done" | "degraded" | "failed" | "cancelled")
}

/// Runs one phase: `specs[i]` is submitted at `offsets[i]` after the start
/// (all at once, back to back, when `offsets` is `None`), and unfinished
/// jobs are polled at most `gap` apart.
pub fn run(
    client: &Client,
    specs: &[Json],
    offsets: Option<&[Duration]>,
    gap: Duration,
    trace: bool,
) -> PhaseOut {
    let t0 = Instant::now() + LEAD;
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let (sent, polled) = std::thread::scope(|s| {
        let sender = s.spawn(|| send(client, specs, offsets, t0, tx, trace));
        let poller = s.spawn(|| poll(client, rx, gap, trace));
        (
            sender.join().expect("sender thread"),
            poller.join().expect("poller thread"),
        )
    });
    let (mut outcomes, mut spans) = sent;
    let (done, polls, queue_max, poll_spans) = polled;
    for (idx, at, status, error) in done {
        let o = &mut outcomes[idx];
        o.done = at;
        o.status = status;
        o.error = o.error.take().or(error);
    }
    spans.extend(poll_spans);
    PhaseOut {
        outcomes,
        polls,
        queue_max,
        spans,
    }
}

type Spans = Vec<(&'static str, u64, Instant, Instant)>;

fn send(
    client: &Client,
    specs: &[Json],
    offsets: Option<&[Duration]>,
    t0: Instant,
    tx: mpsc::Sender<(usize, u64)>,
    trace: bool,
) -> (Vec<Outcome>, Spans) {
    let mut outcomes = Vec::with_capacity(specs.len());
    let mut spans = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let due = t0 + offsets.map_or(Duration::ZERO, |o| o[i]);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let resp = client.submit(spec.clone());
        let ack = Instant::now();
        if trace {
            spans.push(("serve.submit", i as u64, sent, ack));
        }
        let mut o = Outcome {
            due: Some(due),
            sent: Some(sent),
            ..Outcome::default()
        };
        match resp {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                o.ack = Some(ack);
                o.id = v.get("id").and_then(Json::as_u64);
                o.key = v
                    .get("key")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                o.cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
                o.status = v
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                match o.id {
                    None => o.error = Some(format!("submit {i}: ack without an id: {v}")),
                    Some(_) if terminal(&o.status) => o.done = Some(ack),
                    Some(id) => {
                        let _ = tx.send((i, id));
                    }
                }
            }
            Ok(v) => o.error = Some(format!("submit {i}: {v}")),
            Err(e) => o.error = Some(format!("submit {i}: transport: {e}")),
        }
        outcomes.push(o);
    }
    (outcomes, spans)
}

type Polled = (
    Vec<(usize, Option<Instant>, String, Option<String>)>,
    u64,
    u64,
    Spans,
);

fn poll(client: &Client, rx: mpsc::Receiver<(usize, u64)>, gap: Duration, trace: bool) -> Polled {
    let mut outstanding: BTreeMap<u64, usize> = BTreeMap::new();
    let mut done = Vec::new();
    let mut spans = Vec::new();
    let (mut polls, mut queue_max) = (0u64, 0u64);
    let mut closed_at: Option<Instant> = None;
    let mut next_stats = Instant::now();
    let mut jitter = 0x9e37_79b9_7f4a_7c15u64;
    loop {
        loop {
            let got = if outstanding.is_empty() && closed_at.is_none() {
                rx.recv_timeout(STATS_GAP)
                    .map_err(|e| e == mpsc::RecvTimeoutError::Disconnected)
            } else {
                rx.try_recv()
                    .map_err(|e| e == mpsc::TryRecvError::Disconnected)
            };
            match got {
                Ok((idx, id)) => {
                    outstanding.insert(id, idx);
                }
                Err(disconnected) => {
                    if disconnected && closed_at.is_none() {
                        closed_at = Some(Instant::now());
                    }
                    break;
                }
            }
        }
        if closed_at.is_some() && outstanding.is_empty() {
            break;
        }
        if closed_at.is_some_and(|t| t.elapsed() > DRAIN_LIMIT) {
            for (id, idx) in std::mem::take(&mut outstanding) {
                let why =
                    format!("job {id} not finished {DRAIN_LIMIT:?} after the last submission");
                done.push((idx, None, "unfinished".to_string(), Some(why)));
            }
            break;
        }
        if Instant::now() >= next_stats {
            let s = Instant::now();
            if let Ok(v) = client.stats() {
                let queued = v
                    .get("stats")
                    .and_then(|s| s.get("queued"))
                    .and_then(Json::as_u64);
                queue_max = queue_max.max(queued.unwrap_or(0));
            }
            if trace {
                spans.push(("serve.stats", u64::MAX, s, Instant::now()));
            }
            next_stats += STATS_GAP;
        }
        // Jobs are claimed in id order, so once one is still queued every
        // later one is too: stop the sweep there.
        let ids: Vec<(u64, usize)> = outstanding.iter().map(|(&id, &idx)| (id, idx)).collect();
        for (id, idx) in ids {
            let s = Instant::now();
            let resp = client.status(id);
            let at = Instant::now();
            polls += 1;
            if trace {
                spans.push(("serve.status", idx as u64, s, at));
            }
            let status = resp.ok().and_then(|v| {
                v.get("job")
                    .and_then(|j| j.get("status"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
            });
            match status.as_deref() {
                Some(st) if terminal(st) => {
                    outstanding.remove(&id);
                    done.push((idx, Some(at), st.to_string(), None));
                }
                Some("queued") => break,
                _ => {}
            }
        }
        if !outstanding.is_empty() {
            jitter = splitmix64(jitter);
            std::thread::sleep(gap.mul_f64((jitter >> 11) as f64 / (1u64 << 53) as f64));
        }
    }
    (done, polls, queue_max, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_arrival_schedule_is_a_function_of_the_seed() {
        let a = poisson(42, 300.0, 3000);
        assert_eq!(a, poisson(42, 300.0, 3000), "same seed, same schedule");
        assert_ne!(
            a,
            poisson(43, 300.0, 3000),
            "another seed, another schedule"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        // 3000 arrivals at 300/s span about 10 s.
        let span = a.last().unwrap().as_secs_f64();
        assert!((9.0..11.0).contains(&span), "{span}");
    }
}
