//! `serve-small` and `serve-mixed`: real `pobp serve` daemons on loopback,
//! driven by the open-loop driver.
//!
//! Both run in rounds, each on a fresh daemon over an empty registry.
//!
//! * `serve-small` (daemon defaults, so 2 workers): unique n=20 `reduction`
//!   k=2 jobs, per round Poisson arrivals at 300 jobs/s, then a burst sent
//!   back to back. The solve is a small part of each job, so the front
//!   door, admission, the journal and the per-job engine show.
//! * `serve-mixed` (`--workers 1`): per round Poisson arrivals at 110
//!   jobs/s: 1% unique n=1000 jobs, ~35% of the rest repeating an earlier
//!   n=20 spec (answered from the content-key cache at ack), the remainder
//!   unique n=20 jobs — cache reads beside solves, short jobs behind long
//!   ones.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pobp_engine::{
    run_batch, splitmix64, Algo, Engine, EngineConfig, EngineStats, ResultCache, TaskResult,
};
use pobp_serve::job::key_hex;
use pobp_serve::json::Json;
use pobp_serve::{Client, JobSpec};

use crate::driver::{self, Outcome, PhaseOut};
use crate::probes;
use crate::replay::Replayer;
use crate::report::{ratio, Report};
use crate::stats::{median, upper_quartile, Dist};
use crate::trace::Tracer;
use crate::Ctx;

/// Admission bound passed to the daemon: above any burst.
const QUEUE_CAP: usize = 4096;
/// Daemons launched and stopped before the measured ones, so that
/// `setup_s`, the median launch-to-first-ping time over every launch of
/// the run, has at least this many more samples. One takes about 2 ms.
const EXTRA_LAUNCHES: usize = 15;
/// `serve-small` open-loop rate, jobs/s.
const SMALL_RATE: f64 = 300.0;
/// `serve-small` open-loop floor over all rounds, so that p99 is supported.
const SMALL_MIN_JOBS: usize = 3000;
/// `serve-small` open-loop jobs per round. Each round starts a fresh daemon
/// over an empty registry: compaction rewrites the whole registry under the
/// state lock, so one daemon through every job makes each later compaction
/// longer, and the medians moved by 40% from run to run.
const ROUND_JOBS: usize = 375;
/// `serve-small` burst size per round. A round's open loop takes about
/// 1.25 s and its burst about 0.5 s; with bursts of 500 behind 750
/// open-loop jobs (0.3 s of every 2.8 s) a run timed too little burst, and
/// its throughput spread by 20–37% between runs.
const ROUND_BURST: usize = 1000;
/// `serve-mixed` open-loop rate, jobs/s.
const MIXED_RATE: f64 = 110.0;
/// `serve-mixed` open-loop floor, so that the n=20 p99 is supported.
const MIXED_MIN_JOBS: usize = 1650;
/// `serve-mixed` open-loop jobs per round (each on a fresh daemon, as in
/// `serve-small`).
const MIXED_ROUND_JOBS: usize = 550;
/// `serve-mixed`: one arrival in this many is a unique n=1000 job (1%). The
/// one worker then spends about a fifth of its time on n=1000 solves. At 3%
/// it spends about half, which puts the n=20 median on the boundary between
/// jobs that queue behind such a solve and jobs that do not: it flipped
/// between 2 ms and 16 ms from run to run (and between 1.1 ms and 2.3 ms at
/// 2%).
const LARGE_EVERY: usize = 100;
/// `serve-mixed`: share of the other jobs that repeat an earlier spec.
const REPEAT_SHARE: f64 = 0.35;
/// `serve-mixed`: a repeat copies a spec due at least this long before it,
/// so the original has almost surely finished and the cache answers the
/// repeat.
const REPEAT_AGE: Duration = Duration::from_secs(1);
/// `MALLOC_ARENA_MAX` for the daemon (see `Daemon::launch`).
const MALLOC_ARENAS: &str = "2";
/// Pings timed against the last live daemon of the traced run.
const PINGS: usize = 200;

/// The two serve workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Unique small jobs, open loop plus burst, default daemon.
    Small,
    /// Large, repeated and small jobs, one daemon worker.
    Mixed,
}

impl Kind {
    fn workers(self) -> Option<usize> {
        match self {
            Kind::Small => None,
            Kind::Mixed => Some(1),
        }
    }

    /// Worker threads of the daemon (2 is `pobp serve`'s default).
    pub fn worker_count(self) -> usize {
        self.workers().unwrap_or(2)
    }

    fn tag(self) -> &'static str {
        match self {
            Kind::Small => "small",
            Kind::Mixed => "mixed",
        }
    }
}

/// One daemon's share of the requests: an open loop, then a burst.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    /// Open-loop requests: spec index per arrival.
    pub open: Vec<usize>,
    /// Open-loop arrival offsets.
    pub offsets: Vec<Duration>,
    /// Burst requests: spec index per submission.
    pub burst: Vec<usize>,
}

impl Round {
    /// Spec index per request, open loop then burst.
    fn requests(&self) -> impl Iterator<Item = usize> + '_ {
        self.open.iter().chain(&self.burst).copied()
    }
}

/// The jobs of one run, fixed by the workload seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Distinct specs; requests refer to them by index.
    pub specs: Vec<JobSpec>,
    /// One round per daemon.
    pub rounds: Vec<Round>,
}

impl Plan {
    /// The plan of `kind` for `seed`, with an open loop of at least
    /// `seconds` at the workload's rate.
    pub fn new(kind: Kind, seed: u64, seconds: f64) -> Plan {
        // Instance seeds stay below 2^53 so they survive JSON numbers.
        let base = splitmix64(seed ^ 0x7365_7276_6570_6c61) >> 24;
        let spec = |n: usize, i: usize| JobSpec::cell(Algo::Reduction, n, 2, base + i as u64);
        // Round r's arrivals. Mixing the seed first keeps two workload
        // seeds from sharing round schedules (`seed ^ r` would give seeds 4
        // and 5 the same four rounds in another order).
        let round_seed = |r: u64| splitmix64(splitmix64(seed) ^ r);
        let mut specs = Vec::new();
        let mut rounds = Vec::new();
        match kind {
            Kind::Small => {
                // The open loop fills about half of `seconds`.
                let count = SMALL_MIN_JOBS.max((SMALL_RATE * seconds / 2.0) as usize);
                let (per, burst) = (ROUND_JOBS, ROUND_BURST);
                for r in 0..count.div_ceil(ROUND_JOBS) as u64 {
                    let first = specs.len();
                    specs.extend((first..first + per + burst).map(|i| spec(20, i)));
                    rounds.push(Round {
                        open: (first..first + per).collect(),
                        offsets: driver::poisson(round_seed(r), SMALL_RATE, per),
                        burst: (first + per..first + per + burst).collect(),
                    });
                }
            }
            Kind::Mixed => {
                let count = MIXED_MIN_JOBS.max((MIXED_RATE * seconds) as usize);
                let mut x = splitmix64(seed ^ 0x006d_6978_6564);
                let mut uniform = || {
                    x = splitmix64(x);
                    (x >> 11) as f64 / (1u64 << 53) as f64
                };
                for r in 0..count.div_ceil(MIXED_ROUND_JOBS) as u64 {
                    let offsets = driver::poisson(round_seed(r), MIXED_RATE, MIXED_ROUND_JOBS);
                    // Every LARGE_EVERY-th arrival, from a seeded phase, is
                    // a unique n=1000 job: a Bernoulli draw would let their
                    // count and clustering, and with them the n=20 median,
                    // vary by seed.
                    let phase = (uniform() * LARGE_EVERY as f64) as usize;
                    // This round's unique small specs as (due offset, index):
                    // the content-key cache belongs to one daemon.
                    let mut small: Vec<(Duration, usize)> = Vec::new();
                    let mut open = Vec::with_capacity(offsets.len());
                    for (i, &due) in offsets.iter().enumerate() {
                        let eligible = small.partition_point(|&(d, _)| d + REPEAT_AGE <= due);
                        let idx = if i % LARGE_EVERY == phase {
                            specs.push(spec(1000, specs.len()));
                            specs.len() - 1
                        } else if uniform() < REPEAT_SHARE && eligible > 0 {
                            small[(uniform() * eligible as f64) as usize].1
                        } else {
                            specs.push(spec(20, specs.len()));
                            small.push((due, specs.len() - 1));
                            specs.len() - 1
                        };
                        open.push(idx);
                    }
                    rounds.push(Round {
                        open,
                        offsets,
                        burst: Vec::new(),
                    });
                }
            }
        }
        Plan { specs, rounds }
    }

    /// Spec index per request, over every round in order.
    pub fn requests(&self) -> Vec<usize> {
        self.rounds.iter().flat_map(Round::requests).collect()
    }

    /// The submission objects of `requests`, named after their request
    /// numbers from `first` on.
    fn submissions(&self, requests: &[usize], first: usize) -> Vec<Json> {
        requests
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mut spec = self.specs[s].clone();
                spec.name = format!("pb-{}", first + i);
                spec.to_json()
            })
            .collect()
    }
}

/// A `pobp serve` child process on a loopback port.
struct Daemon {
    child: Child,
    addr: String,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Launches the daemon over an empty registry `dir` and waits until it
    /// answers a `ping`. Returns it with the seconds that took.
    fn launch(bin: &Path, dir: &Path, kind: Kind) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--queue-cap",
            &QUEUE_CAP.to_string(),
        ]);
        cmd.arg("--dir").arg(dir);
        if let Some(w) = kind.workers() {
            cmd.args(["--workers", &w.to_string()]);
        }
        // One malloc arena per core: otherwise the daemon's peak RSS depends
        // on how many of glibc's per-thread arenas its short-lived
        // connection threads happened to create, not on what it keeps.
        let mut child = cmd
            .env("MALLOC_ARENA_MAX", MALLOC_ARENAS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("launching {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::channel();
        // Reads the daemon's stdout to its end, so it never blocks on a
        // full pipe; the first line names the bound address.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            reader: Some(reader),
        };
        let first = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the daemon printed no address")?;
        daemon.addr = first
            .strip_prefix("serve: listening on ")
            .ok_or(format!("unexpected first daemon line {first:?}"))?
            .to_string();
        let client = Client::new(&daemon.addr, Duration::from_secs(1));
        while !client.ping() {
            if started.elapsed() > Duration::from_secs(30) {
                return Err("the daemon did not answer ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    fn client(&self) -> Client {
        Client::new(&self.addr, Duration::from_secs(10))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks for a draining shutdown and waits for the process to end
    /// (killing it after 60 s).
    fn stop(mut self) -> Result<(), String> {
        let asked = self.client().shutdown(true);
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("the daemon did not stop within 60 s of shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        asked.map(|_| ()).map_err(|e| format!("shutdown: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// What one round measured against its daemon.
struct Measured {
    open: PhaseOut,
    burst: PhaseOut,
    /// Share of the machine's CPU time the host took for other guests
    /// during the open loop and during the burst.
    open_steal: f64,
    burst_steal: f64,
    /// The daemon's `stats` object after the round.
    stats: Json,
    rss_mb: f64,
    /// Result object text per request (open loop, then burst), where
    /// fetched.
    results: Vec<Option<String>>,
}

impl Measured {
    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.open.outcomes.iter().chain(&self.burst.outcomes)
    }
}

/// Every round of `plan`, each on a fresh daemon; launch times go into
/// `setup`. With tracing on, the driver's request spans are recorded (with
/// run-wide request ids) and `PINGS` pings are timed against the last
/// daemon; their times in µs are returned.
fn measure(
    ctx: &Ctx,
    kind: Kind,
    plan: &Plan,
    tag: &str,
    tr: &mut Tracer,
    setup: &mut Vec<f64>,
    report: &mut Report,
) -> Result<(Vec<Measured>, Vec<f64>), String> {
    let trace = tr.enabled();
    let mut rounds = Vec::new();
    let mut ping_us = Vec::new();
    let mut first = 0;
    for (r, round) in plan.rounds.iter().enumerate() {
        let dir = ctx.run_dir.join(format!("{tag}-{}-{r}", kind.tag()));
        let (daemon, secs) = tr.span("serve.launch", u64::MAX, |_| {
            Daemon::launch(&ctx.pobp, &dir, kind)
        })?;
        setup.push(secs);
        let client = daemon.client();
        let cpu_open = probes::host_cpu();
        let open_specs = plan.submissions(&round.open, first);
        let open = driver::run(
            &client,
            &open_specs,
            Some(&round.offsets),
            driver::OPEN_POLL_GAP,
            trace,
        );
        let burst_specs = plan.submissions(&round.burst, first + round.open.len());
        let cpu_burst = probes::host_cpu();
        let burst = driver::run(&client, &burst_specs, None, driver::BURST_POLL_GAP, trace);
        let cpu_end = probes::host_cpu();
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let stats = stats
            .get("stats")
            .cloned()
            .ok_or("stats without a stats object")?;
        let rss_mb = probes::peak_rss_mb(daemon.pid()).map_err(|e| format!("daemon VmHWM: {e}"))?;
        let results = open
            .outcomes
            .iter()
            .chain(&burst.outcomes)
            .map(|o| {
                client
                    .result(o.id?)
                    .ok()?
                    .get("result")
                    .map(Json::to_string)
            })
            .collect();
        if trace && r + 1 == plan.rounds.len() {
            for i in 0..PINGS {
                let t = Instant::now();
                let ok = tr.span("serve.ping", i as u64, |_| client.ping());
                ping_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.op((!ok).then(|| format!("ping {i} failed")));
            }
        }
        daemon.stop()?;
        for (phase, base) in [(&open, first), (&burst, first + round.open.len())] {
            for &(name, req, s, e) in &phase.spans {
                let req = if req == u64::MAX {
                    req
                } else {
                    req + base as u64
                };
                tr.record(name, req, s, e);
            }
        }
        first += round.open.len() + round.burst.len();
        rounds.push(Measured {
            open,
            burst,
            open_steal: probes::steal_share(cpu_open, cpu_burst),
            burst_steal: probes::steal_share(cpu_burst, cpu_end),
            stats,
            rss_mb,
            results,
        });
    }
    Ok((rounds, ping_us))
}

/// The values a result object carries.
fn values(result: &str) -> Option<(f64, f64)> {
    let v = Json::parse(result).ok()?;
    Some((v.get("alg_value")?.as_f64()?, v.get("ref_value")?.as_f64()?))
}

/// Checks every request of a phase: acknowledged, `done`, its key the
/// in-process content key of its spec, results byte-identical across equal
/// keys, and each key's values equal to `reference[spec]` (an in-process
/// engine run of `JobSpec::task()`). One verdict per request.
pub fn check(
    plan: &Plan,
    requests: &[usize],
    outcomes: &[&driver::Outcome],
    results: &[Option<String>],
    reference: &HashMap<usize, (f64, f64)>,
) -> Vec<Option<String>> {
    let mut first_by_key: HashMap<&str, &str> = HashMap::new();
    requests
        .iter()
        .zip(outcomes)
        .zip(results)
        .enumerate()
        .map(|(i, ((&s, o), result))| {
            if let Some(e) = &o.error {
                return Some(e.clone());
            }
            if o.status != "done" {
                return Some(format!("request {i}: ended {}", o.status));
            }
            let want_key = key_hex(plan.specs[s].content_key());
            if o.key != want_key {
                return Some(format!(
                    "request {i}: key {} but the spec's content key is {want_key}",
                    o.key
                ));
            }
            let Some(result) = result else {
                return Some(format!("request {i}: no result"));
            };
            let first = *first_by_key.entry(&o.key).or_insert(result);
            if first != result {
                return Some(format!(
                    "request {i}: result differs from an equal-keyed job's"
                ));
            }
            match (values(result), reference.get(&s)) {
                (Some(got), Some(&want)) if got == want => None,
                (got, want) => Some(format!(
                    "request {i}: values {got:?}, in-process run {want:?}"
                )),
            }
        })
        .collect()
}

/// In-process `run_batch` of every distinct spec of the plan, on 2
/// threads: the values each spec must have.
fn reference_values(plan: &Plan) -> HashMap<usize, (f64, f64)> {
    let tasks: Vec<_> = plan.specs.iter().map(JobSpec::task).collect();
    let batch = run_batch(
        &tasks,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    batch
        .reports
        .iter()
        .enumerate()
        .filter_map(|(s, r)| r.result.output().map(|o| (s, (o.alg_value, o.ref_value))))
        .collect()
}

/// Latency in ms from `from` to `to`.
fn ms(from: Option<Instant>, to: Option<Instant>) -> Option<f64> {
    Some(to?.saturating_duration_since(from?).as_secs_f64() * 1e3)
}

/// The end-to-end figures of a run. Latency samples are pooled over the
/// rounds. The gated timings come from the quieter half of the rounds (see
/// [`quieter_half`]), so that a spell of host noise that spoils some rounds
/// does not move them.
struct Figures {
    ack: Dist,
    done_small: Dist,
    done_large: Dist,
    lag: Dist,
    /// Median over the quieter half of the open loops of each round's n=20
    /// done median.
    done_p50: f64,
    /// Over the quieter half of the rounds, each round's jobs per second:
    /// the upper quartile of burst throughput (`serve-small`), the median
    /// of open-loop completions per second (`serve-mixed`). Not all of
    /// another tenant's interference shows as steal (a shared core or
    /// cache does not), and it only ever lowers a burst, while a change to
    /// the daemon moves every burst.
    per_s: f64,
    /// Median over the rounds of each daemon's peak RSS.
    rss_mb: f64,
}

fn figures(plan: &Plan, rounds: &[Measured]) -> Figures {
    let (mut ack, mut small, mut large, mut lag) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut done_p50, mut per_s) = (Vec::new(), Vec::new());
    for (round, m) in plan.rounds.iter().zip(rounds) {
        let open = &m.open.outcomes;
        ack.extend(open.iter().filter_map(|o| ms(o.due, o.ack)));
        lag.extend(open.iter().filter_map(|o| ms(o.due, o.sent)));
        let mut round_small = Vec::new();
        for (o, &s) in open.iter().zip(&round.open) {
            if let Some(d) = ms(o.due, o.done) {
                if plan.specs[s].n >= 1000 {
                    large.push(d);
                } else {
                    round_small.push(d);
                }
            }
        }
        done_p50.push((m.open_steal, median(&round_small)));
        small.extend(round_small);
        // Burst: first send to last done. No burst: first due to last done.
        let (outs, from, steal) = match m.burst.outcomes.first() {
            Some(b) => (&m.burst.outcomes, b.sent, m.burst_steal),
            None => (open, open.first().and_then(|o| o.due), m.open_steal),
        };
        let jobs = outs.iter().filter(|o| o.done.is_some()).count();
        let secs = ms(from, outs.iter().filter_map(|o| o.done).max()).unwrap_or(0.0) / 1e3;
        per_s.push((steal, ratio(jobs as f64, secs)));
    }
    let rss: Vec<f64> = rounds.iter().map(|m| m.rss_mb).collect();
    let bursts = rounds.iter().any(|m| !m.burst.outcomes.is_empty());
    Figures {
        ack: Dist::new(ack),
        done_small: Dist::new(small),
        done_large: Dist::new(large),
        lag: Dist::new(lag),
        done_p50: median(&quieter_half(&done_p50)),
        per_s: if bursts {
            upper_quartile(&quieter_half(&per_s))
        } else {
            median(&quieter_half(&per_s))
        },
        rss_mb: median(&rss),
    }
}

/// The figures of the half of the rounds (rounded up) whose phase saw the
/// least host steal, from `(steal share, figure)` per round. On a shared
/// 2-vCPU host the steal share of a 0.5–5 s phase ranged from 0 to 34%
/// within one run, and a round's figures followed it: burst throughput
/// fell from about 1900 to 700 jobs/s and the n=20 done median rose from
/// 1.1 to 12 ms. A change to the daemon moves the quiet rounds as much as
/// the others. Ties keep round order.
fn quieter_half(rounds: &[(f64, f64)]) -> Vec<f64> {
    let mut by_steal = rounds.to_vec();
    by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_steal.truncate(rounds.len().div_ceil(2));
    by_steal.into_iter().map(|(_, figure)| figure).collect()
}

/// Counts and checks every request of every round. `reference` covers
/// every spec the requests use.
fn account(
    plan: &Plan,
    rounds: &[Measured],
    reference: &HashMap<usize, (f64, f64)>,
    report: &mut Report,
) {
    let requests = plan.requests();
    let outcomes: Vec<&Outcome> = rounds.iter().flat_map(Measured::outcomes).collect();
    let results: Vec<Option<String>> = rounds
        .iter()
        .flat_map(|m| m.results.iter().cloned())
        .collect();
    for verdict in check(plan, &requests, &outcomes, &results, reference) {
        report.op(verdict);
    }
}

fn stat_sum(rounds: &[Measured], field: &str) -> f64 {
    rounds
        .iter()
        .map(|m| m.stats.get(field).and_then(Json::as_f64).unwrap_or(0.0))
        .sum()
}

/// Prints the end-to-end metrics of an untraced run.
fn end_to_end(kind: Kind, plan: &Plan, rounds: &[Measured], setup: &[f64], report: &mut Report) {
    let f = figures(plan, rounds);
    let small = if kind == Kind::Mixed {
        "n=20 jobs; "
    } else {
        ""
    };
    report.metric(
        "setup_s",
        median(setup),
        "s",
        &format!(
            "launch on an empty registry to first ping, median of {}",
            setup.len()
        ),
    );
    let quiet = rounds.len().div_ceil(2);
    let rounds_note = format!(
        "median over the {quiet} of {} rounds with least steal",
        rounds.len()
    );
    let per_s_note = match kind {
        Kind::Small => format!(
            "jobs_per_s: a burst of {ROUND_BURST}, first send to last done; upper quartile over the {quiet} of {} rounds with least steal",
            rounds.len()
        ),
        Kind::Mixed => format!("open-loop jobs done per second, first due to last done; {rounds_note}"),
    };
    report.metric("results_per_s", f.per_s, "1/s", &per_s_note);
    report.metric(
        "done_p50_ms",
        f.done_p50,
        "ms",
        &format!("{small}round medians; {rounds_note}"),
    );
    report.metric(
        "peak_rss_mb",
        f.rss_mb,
        "MiB",
        &format!("VmHWM of the daemon, median of {} daemons", rounds.len()),
    );
    report.metric(
        "done_p50_pooled_ms",
        f.done_small.p50().unwrap_or(f64::NAN),
        "ms",
        &format!(
            "{small}pooled over the rounds; {}",
            f.done_small.describe(0.99)
        ),
    );
    report.metric(
        "ack_p50_ms",
        f.ack.p50().unwrap_or(f64::NAN),
        "ms",
        &f.ack.describe(0.99),
    );
    report.metric(
        "ack_p99_ms",
        f.ack.tail(0.99).unwrap_or(f64::NAN),
        "ms",
        &f.ack.describe(0.99),
    );
    report.metric(
        "done_p99_ms",
        f.done_small.tail(0.99).unwrap_or(f64::NAN),
        "ms",
        &format!("{small}{}", f.done_small.describe(0.99)),
    );
    match kind {
        Kind::Small => {
            report.metric("jobs_per_s", f.per_s, "1/s", "= results_per_s");
            report.not_here("large_done_p50_ms", "no n=1000 jobs in this workload");
        }
        Kind::Mixed => {
            report.not_here("jobs_per_s", "no burst phase in this workload");
            report.metric(
                "large_done_p50_ms",
                f.done_large.p50().unwrap_or(f64::NAN),
                "ms",
                &format!("n=1000 jobs; {}", f.done_large.describe(0.99)),
            );
        }
    }
    report.not_here("rows_per_s", "sweep metric: no sweep in this workload");
    report.metric(
        "failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
        &format!("{} of {} jobs", report.failed, report.attempted),
    );
    report.metric(
        "driver.lag_p99_ms",
        f.lag.tail(0.99).unwrap_or(f64::NAN),
        "ms",
        &f.lag.describe(0.99),
    );
}

/// Runs `serve-small` or `serve-mixed`.
pub fn run(ctx: &Ctx, kind: Kind, report: &mut Report) -> Result<(), String> {
    if ctx.nproc < driver::THREADS {
        return Err(format!(
            "the serve workloads need {} cores for the driver; this machine has {}",
            driver::THREADS,
            ctx.nproc
        ));
    }
    let plan = Plan::new(kind, ctx.seed, ctx.seconds);
    let open: usize = plan.rounds.iter().map(|r| r.open.len()).sum();
    let burst: usize = plan.rounds.iter().map(|r| r.burst.len()).sum();
    println!(
        "daemon --workers {}, --queue-cap {QUEUE_CAP}; driver threads {}; {} rounds, open loop {open} jobs, burst {burst}, {} distinct specs",
        kind.worker_count(),
        driver::THREADS,
        plan.rounds.len(),
        plan.specs.len(),
    );
    let mut setup = Vec::new();
    for i in 0..EXTRA_LAUNCHES {
        let dir = ctx.run_dir.join(format!("setup-{i}"));
        let (daemon, secs) = Daemon::launch(&ctx.pobp, &dir, kind)?;
        setup.push(secs);
        daemon.stop()?;
    }
    let (base, _) = measure(
        ctx,
        kind,
        &plan,
        "base",
        &mut Tracer::off(),
        &mut setup,
        report,
    )?;
    if !ctx.trace {
        account(&plan, &base, &reference_values(&plan), report);
        end_to_end(kind, &plan, &base, &setup, report);
        return Ok(());
    }

    // The untraced rounds above are the baseline; now the traced ones.
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, true);
    let (traced, ping_us) = measure(ctx, kind, &plan, "traced", &mut tr, &mut Vec::new(), report)?;

    // Replay every distinct spec under the id of its first request, then
    // run it as the daemon does: a fresh engine on a shared cache.
    let requests = plan.requests();
    let mut first_req: BTreeMap<usize, u64> = BTreeMap::new();
    for (req, &s) in requests.iter().enumerate() {
        first_req.entry(s).or_insert(req as u64);
    }
    let mut replayer = Replayer::default();
    let cache = Arc::new(ResultCache::new());
    let mut ref_by_n: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut stage_ns: HashMap<usize, u64> = HashMap::new();
    let mut reference = HashMap::new();
    let (mut stats, mut batch1_us, mut generate_ns) = (EngineStats::default(), Vec::new(), 0u64);
    for (&s, &req) in &first_req {
        let spec = &plan.specs[s];
        let t = Instant::now();
        let jobs = tr.span("instances.generate", req, |_| spec.instance());
        generate_ns += t.elapsed().as_nanos() as u64;
        let inst = (spec.n as u64) << 40 ^ spec.seed;
        match tr.span("job", req, |tr| {
            replayer.replay(tr, req, &jobs, inst, spec.alg, spec.k)
        }) {
            Ok(got) => {
                if let Some(ns) = got.ref_ns {
                    ref_by_n.entry(spec.n).or_default().push(ns);
                }
                stage_ns.insert(s, got.stage_ns);
                reference.insert(s, (got.alg_value, got.ref_value));
            }
            Err(e) => report.op(Some(format!("replay of spec {s}: {e}"))),
        }
        let task = spec.task();
        let t = Instant::now();
        let batch = tr.span("engine.run_batch", req, |_| {
            // One engine thread per job: the daemon's `--engine-threads` default.
            let cfg = EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            };
            Engine::with_shared_cache(cfg, Arc::clone(&cache))
                .run_batch(std::slice::from_ref(&task))
        });
        let engine_ns = t.elapsed().as_nanos() as u64;
        probes::add_stats(&mut stats, &batch.stats);
        if spec.n == 20 {
            batch1_us.push(
                engine_ns.saturating_sub(stage_ns.get(&s).copied().unwrap_or(0)) as f64 / 1e3,
            );
        }
        let engine_values = match &batch.reports[0].result {
            TaskResult::Done(out) => Some((out.alg_value, out.ref_value)),
            _ => None,
        };
        report.op((engine_values != reference.get(&s).copied()).then(|| {
            format!(
                "spec {s}: engine gives {engine_values:?}, the replay {:?}",
                reference.get(&s)
            )
        }));
    }
    account(&plan, &base, &reference, report);
    account(&plan, &traced, &reference, report);

    let outcomes: Vec<&Outcome> = traced.iter().flat_map(Measured::outcomes).collect();
    let results: Vec<Json> = traced
        .iter()
        .flat_map(|m| &m.results)
        .map(|r| {
            r.as_deref()
                .and_then(|r| Json::parse(r).ok())
                .unwrap_or(Json::Null)
        })
        .collect();
    let specs: Vec<JobSpec> = requests.iter().map(|&s| plan.specs[s].clone()).collect();
    println!(
        "traced run: daemon --workers {}, driver threads {}",
        kind.worker_count(),
        driver::THREADS
    );
    // Each daemon's registry ended with one round's jobs.
    let registry_len = plan.rounds.last().map_or(0, |r| r.requests().count());
    probes::serve_layer(
        &mut tr,
        &ctx.run_dir.join("probe"),
        &specs,
        &results,
        registry_len,
        report,
    )
    .map_err(|e| format!("serve probe: {e}"))?;
    let end = Instant::now();

    // Solve time of every job a worker ran, and the queue wait of the
    // n=20 ones: done − ack − the replayed solve.
    let (mut wait, mut solve_ns) = (Vec::new(), 0u64);
    for (o, &s) in outcomes.iter().zip(&requests) {
        if o.cached {
            continue;
        }
        let stage = stage_ns.get(&s).copied().unwrap_or(0);
        solve_ns += stage;
        if plan.specs[s].n < 1000 {
            wait.extend(ms(o.ack, o.done).map(|d| d - stage as f64 / 1e6));
        }
    }
    let wall_s: f64 = traced
        .iter()
        .map(|m| {
            let outs: Vec<&Outcome> = m.outcomes().collect();
            let first = outs.iter().filter_map(|o| o.due).min();
            ms(first, outs.iter().filter_map(|o| o.done).max()).unwrap_or(0.0) / 1e3
        })
        .sum();

    report.metric(
        "instances.generate_ms",
        generate_ns as f64 / 1e6,
        "ms",
        &format!("JobSpec::instance of {} distinct specs", first_req.len()),
    );
    probes::stage_metrics(report, &tr, &ref_by_n);
    probes::engine_metrics(
        report,
        &stats,
        first_req.len(),
        solve_ns as f64 / 1e9,
        kind.worker_count() as f64 * wall_s,
    );
    let b1 = Dist::new(batch1_us);
    report.metric(
        "engine.batch1_us",
        b1.p50().unwrap_or(f64::NAN),
        "us",
        &format!(
            "fresh engine + run_batch of one n=20 task − its stage time; {}",
            b1.describe(0.99)
        ),
    );
    let ping = Dist::new(ping_us);
    report.metric(
        "serve.ping_p50_us",
        ping.p50().unwrap_or(f64::NAN),
        "us",
        &format!("Client::ping; {}", ping.describe(0.99)),
    );
    report.metric(
        "serve.compactions",
        stat_sum(&traced, "compactions"),
        "count",
        "stats op, summed over daemons",
    );
    report.metric(
        "serve.cache_hit_ratio",
        ratio(
            stat_sum(&traced, "cache_hits"),
            stat_sum(&traced, "accepted"),
        ),
        "ratio",
        "stats cache_hits ÷ accepted",
    );
    let queue_max = traced
        .iter()
        .map(|m| m.open.queue_max.max(m.burst.queue_max))
        .max()
        .unwrap_or(0);
    report.metric(
        "serve.queue_depth_max",
        queue_max as f64,
        "count",
        "stats.queued sampled at 20 Hz",
    );
    let wait = Dist::new(wait);
    report.metric(
        "serve.wait_p50_ms",
        wait.p50().unwrap_or(f64::NAN),
        "ms",
        &format!(
            "done − ack − replayed solve, n=20 solved jobs; {}",
            wait.describe(0.99)
        ),
    );
    report.metric("sweep.chunks", 0.0, "count", "no sweep in this workload");
    report.not_here("sweep.io_ms", "no sweep in this workload");
    report.metric("sweep.io_share", 0.0, "ratio", "no sweep in this workload");
    let polls: u64 = traced.iter().map(|m| m.open.polls + m.burst.polls).sum();
    report.metric(
        "driver.polls",
        polls as f64,
        "count",
        "status polls the driver added",
    );
    let (f_base, f) = (figures(&plan, &base), figures(&plan, &traced));
    report.metric(
        "driver.lag_p99_ms",
        f.lag.tail(0.99).unwrap_or(f64::NAN),
        "ms",
        &f.lag.describe(0.99),
    );
    let (u, t) = (f_base.done_p50, f.done_p50);
    report.metric(
        "trace.overhead_ratio",
        ratio(t - u, u),
        "ratio",
        &format!("done_p50_ms traced {t:.3} vs untraced {u:.3}"),
    );
    report.metric(
        "trace.uncovered_share",
        tr.uncovered_share(epoch, end),
        "ratio",
        "of the traced phase's wall time",
    );
    ctx.write_trace(&tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_functions_of_the_seed() {
        for kind in [Kind::Small, Kind::Mixed] {
            assert_eq!(Plan::new(kind, 3, 15.0), Plan::new(kind, 3, 15.0));
            // No round of one seed replays a round of a neighbouring seed.
            let a = Plan::new(kind, 4, 20.0);
            let b = Plan::new(kind, 5, 20.0);
            for ra in &a.rounds {
                assert!(b.rounds.iter().all(|rb| rb.offsets != ra.offsets));
            }
            assert_ne!(
                Plan::new(kind, 3, 15.0).rounds[0].offsets,
                Plan::new(kind, 4, 15.0).rounds[0].offsets
            );
        }
        let small = Plan::new(Kind::Small, 1, 10.0);
        assert_eq!(small.rounds.len(), 8);
        let open: usize = small.rounds.iter().map(|r| r.open.len()).sum();
        let burst: usize = small.rounds.iter().map(|r| r.burst.len()).sum();
        assert_eq!((open, burst), (SMALL_MIN_JOBS, 8000));
        assert_eq!(
            Plan::new(Kind::Small, 1, 30.0).rounds.len(),
            12,
            "300 jobs/s for half of 30 s"
        );
        assert_eq!(
            small.specs.len(),
            open + burst,
            "every serve-small job is unique"
        );
    }

    #[test]
    fn the_quieter_half_is_chosen_by_steal() {
        let rounds = [
            (0.30, 1.0),
            (0.0, 2.0),
            (0.12, 3.0),
            (0.0, 4.0),
            (0.05, 5.0),
        ];
        assert_eq!(quieter_half(&rounds), vec![2.0, 4.0, 5.0]);
        assert_eq!(quieter_half(&rounds[..4]), vec![2.0, 4.0]);
        assert_eq!(quieter_half(&[]), Vec::<f64>::new());
    }

    #[test]
    fn the_mixed_plan_has_its_shares() {
        let p = Plan::new(Kind::Mixed, 9, 20.0);
        assert_eq!(p.rounds.len(), 4);
        let open: Vec<usize> = p.requests();
        let large = open.iter().filter(|&&s| p.specs[s].n == 1000).count();
        let small = open.len() - large;
        let repeats = open.len() - p.specs.len();
        assert!(small >= 1500, "{small} small jobs support p99");
        // One in LARGE_EVERY: 5 or 6 of each round's 550 arrivals.
        assert!((20..=24).contains(&large), "{large} large jobs");
        let share = repeats as f64 / small as f64;
        assert!((0.2..0.4).contains(&share), "repeat share {share}");
        // A repeat copies a spec of its own round due REPEAT_AGE before it.
        for round in &p.rounds {
            let mut first = HashMap::new();
            for (i, &s) in round.open.iter().enumerate() {
                if let Some(&j) = first.get(&s) {
                    assert!(round.offsets[i] >= round.offsets[j] + REPEAT_AGE);
                } else {
                    first.insert(s, i);
                }
            }
        }
    }

    fn done(key: &str) -> Outcome {
        Outcome {
            key: key.into(),
            status: "done".into(),
            id: Some(1),
            ..Outcome::default()
        }
    }

    #[test]
    fn a_tampered_result_fails_the_check() {
        let plan = Plan::new(Kind::Small, 2, 10.0);
        let key = key_hex(plan.specs[0].content_key());
        let (o, o2) = (done(&key), done(&key));
        let result = r#"{"status":"ok","alg_value":10,"ref_value":12}"#.to_string();
        let reference = HashMap::from([(0, (10.0, 12.0))]);
        let ok = check(
            &plan,
            &[0, 0],
            &[&o, &o2],
            &[Some(result.clone()), Some(result.clone())],
            &reference,
        );
        assert_eq!(ok, vec![None, None]);
        // A value the in-process run disagrees with.
        let tampered = result.replace("10", "11");
        let bad = check(&plan, &[0], &[&o], &[Some(tampered.clone())], &reference);
        assert!(bad[0].as_deref().unwrap().contains("in-process"));
        // Equal keys, different bytes.
        let bad = check(
            &plan,
            &[0, 0],
            &[&o, &o2],
            &[Some(result), Some(tampered)],
            &reference,
        );
        assert!(bad[0].is_none() && bad[1].as_deref().unwrap().contains("differs"));
        // A job that did not end done.
        let failed = Outcome {
            status: "failed".into(),
            ..done(&key)
        };
        assert!(check(&plan, &[0], &[&failed], &[None], &reference)[0].is_some());
    }
}
