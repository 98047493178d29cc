//! In-process probes of the layers a workload's traffic passes through,
//! timed from outside through each layer's public functions, plus the
//! summaries of the traced replay.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use pobp_engine::{EngineStats, IoGuard};
use pobp_serve::json::Json;
use pobp_serve::{Event, JobSpec, Journal, Service, ServiceConfig, SubmitOutcome};
use pobp_sweep::shard::{recover, shard_path};
use pobp_sweep::{ChunkRecord, Manifest, ShardWriter, SweepSpec};

use crate::report::{ratio, Report};
use crate::stats::{median, Dist};
use crate::trace::Tracer;

/// Submissions the admission probe makes at least, so that its p99 has ten
/// samples beyond it.
const MIN_SUBMITS: usize = 1000;

/// Replays `specs` (submission order) through the serve layer in process,
/// on scratch directories under `dir`:
///
/// * `Service::submit` on a `workers: 0` service (admission and the
///   journal appends it makes, with no solving), cycling through the specs
///   until at least [`MIN_SUBMITS`] submissions;
/// * `Journal::append` of the submit, start and finish events of the last
///   `registry_len` jobs, with `results[i]` as job `i`'s result;
/// * `Journal::compact` of the registry those events build — the size a
///   daemon of the run ended with.
pub fn serve_layer(
    tr: &mut Tracer,
    dir: &Path,
    specs: &[JobSpec],
    results: &[Json],
    registry_len: usize,
    report: &mut Report,
) -> io::Result<()> {
    assert_eq!(specs.len(), results.len(), "one result per spec");
    let service = Service::start(ServiceConfig {
        dir: dir.join("admission"),
        workers: 0,
        queue_cap: usize::MAX,
        ..ServiceConfig::default()
    })?;
    let submits = MIN_SUBMITS.max(specs.len());
    let mut submit_us = Vec::with_capacity(submits);
    for (i, spec) in specs.iter().cycle().take(submits).enumerate() {
        let t = Instant::now();
        let out = tr.span("serve.submit", i as u64, |_| service.submit(spec.clone()))?;
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(out, SubmitOutcome::Accepted { .. }) {
            return Err(io::Error::other(format!(
                "admission probe: submit {i} was {out:?}"
            )));
        }
    }
    service.stop(false);
    drop(service);

    let (mut journal, mut registry, _) = Journal::open(&dir.join("journal"), u64::MAX)?;
    let mut append_us = Vec::with_capacity(3 * registry_len);
    let from = specs.len() - registry_len;
    for (i, (spec, result)) in specs.iter().zip(results).enumerate().skip(from) {
        let id = registry.allocate_id();
        for event in [
            Event::Submit {
                id,
                spec: spec.clone(),
            },
            Event::Start { id },
            Event::Finish {
                id,
                result: result.clone(),
            },
        ] {
            let t = Instant::now();
            tr.span("serve.journal_append", i as u64, |_| journal.append(&event))?;
            append_us.push(t.elapsed().as_secs_f64() * 1e6);
            registry.apply(&event);
        }
    }
    let mut compact_ms = Vec::new();
    for i in 0..3 {
        let t = Instant::now();
        tr.span("serve.compact", i, |_| journal.compact(&registry))?;
        compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let snapshot = std::fs::metadata(dir.join("journal").join("snapshot.json"))?.len();

    let submit = Dist::new(submit_us);
    let append = Dist::new(append_us);
    let note = |d: &Dist| format!("Service::submit, workers 0 ({})", d.describe(0.99));
    report.metric(
        "serve.submit_p50_us",
        submit.p50().unwrap_or(0.0),
        "us",
        &note(&submit),
    );
    report.metric(
        "serve.submit_p99_us",
        submit.tail(0.99).unwrap_or(0.0),
        "us",
        &note(&submit),
    );
    report.metric(
        "serve.journal_append_p50_us",
        append.p50().unwrap_or(0.0),
        "us",
        &format!("Journal::append (n={})", append.n()),
    );
    report.metric(
        "serve.compact_ms",
        median(&compact_ms),
        "ms",
        &format!("Journal::compact of {} jobs, median of 3", registry.len()),
    );
    report.metric(
        "serve.snapshot_kb",
        snapshot as f64 / 1024.0,
        "KiB",
        "snapshot.json size",
    );
    Ok(())
}

/// Replays a finished sweep's shard and manifest writes — `ShardWriter`
/// plus `Manifest::write` after each chunk, as `run_sweep` does — with
/// `rows` (the merged rows, grid order) into `dir`. Returns the chunk count.
pub fn sweep_io(
    tr: &mut Tracer,
    dir: &Path,
    spec: &SweepSpec,
    rows: &[String],
) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let guard = IoGuard::inert();
    let chunks = spec.chunks();
    let mut manifest = Manifest::fresh(spec.spec_string(), spec.digest(), chunks.len());
    tr.span("sweep.manifest_write", 0, |_| manifest.write(dir, &guard))?;
    let mut next = 0;
    for chunk in &chunks {
        let req = chunk.index as u64;
        let state = recover(&shard_path(dir, chunk.index))?;
        let done = tr.span("sweep.shard_write", req, |_| {
            let mut w = ShardWriter::open(dir, chunk.index, &state, IoGuard::inert())?;
            for row in &rows[next..next + chunk.rows()] {
                w.append_row(row)?;
            }
            w.finish()
        })?;
        next += chunk.rows();
        manifest.done.push(ChunkRecord {
            index: chunk.index,
            key: chunk.key(),
            rows: done.rows,
            bytes: done.bytes,
            digest: done.digest,
        });
        tr.span("sweep.manifest_write", req, |_| manifest.write(dir, &guard))?;
    }
    Ok(chunks.len())
}

/// The stage-level metrics of a traced replay: busy (self) time per stage,
/// shares of the replayed pipeline, and the reference's mean time per call
/// at each instance size in `ref_by_n` (ns samples).
pub fn stage_metrics(report: &mut Report, tr: &Tracer, ref_by_n: &BTreeMap<usize, Vec<u64>>) {
    let busy = tr.busy();
    let self_ms = |name: &str| busy.get(name).map_or(0.0, |b| b.self_time as f64 / 1e6);
    let calls = |name: &str| busy.get(name).map_or(0, |b| b.calls) as f64;
    let reference = self_ms("sched.reference");
    let bounded: f64 = [
        "sched.laminarize",
        "sched.forest",
        "forest.tm",
        "sched.reconstruct",
        "sched.lsa_cs",
    ]
    .iter()
    .map(|s| self_ms(s))
    .sum();
    let verify = self_ms("core.verify");
    let pipeline = reference + bounded + verify;
    report.metric(
        "sched.reference.calls",
        calls("sched.reference"),
        "count",
        "greedy_unbounded_ws",
    );
    report.metric("sched.reference.busy_ms", reference, "ms", "self time");
    report.metric(
        "sched.reference.share",
        ratio(reference, pipeline),
        "ratio",
        "of replayed stage time",
    );
    for n in [250usize, 1000, 4000] {
        let name = format!("sched.reference.n{n}_ms");
        match ref_by_n.get(&n) {
            Some(v) => {
                let mean = v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e6;
                report.metric(
                    &name,
                    mean,
                    "ms",
                    &format!("mean per call (n={} calls)", v.len()),
                );
            }
            None => report.not_here(&name, "no instance of this size in the workload"),
        }
    }
    for stage in [
        "sched.laminarize",
        "sched.forest",
        "forest.tm",
        "sched.reconstruct",
    ] {
        report.metric(
            &format!("{stage}.busy_ms"),
            self_ms(stage),
            "ms",
            &format!("{} calls", calls(stage)),
        );
    }
    report.metric(
        "sched.lsa_cs.calls",
        calls("sched.lsa_cs"),
        "count",
        "lsa_cs",
    );
    report.metric(
        "sched.lsa_cs.busy_ms",
        self_ms("sched.lsa_cs"),
        "ms",
        "self time",
    );
    report.metric(
        "sched.bounded.share",
        ratio(bounded, pipeline),
        "ratio",
        "of replayed stage time",
    );
    report.metric(
        "core.verify.busy_ms",
        verify,
        "ms",
        "verify_on + verify + schedule_stats",
    );
    report.metric(
        "core.verify.share",
        ratio(verify, pipeline),
        "ratio",
        "of replayed stage time",
    );
}

/// Engine-layer metrics from summed `EngineStats`. `distinct` is the
/// number of distinct instances the tasks covered; `busy_s` the estimated
/// worker time the tasks needed and `capacity_s` the worker time the engine
/// had (threads × wall).
pub fn engine_metrics(
    report: &mut Report,
    s: &EngineStats,
    distinct: usize,
    busy_s: f64,
    capacity_s: f64,
) {
    let computed = s.run.saturating_sub(s.ref_cache_hits);
    report.metric("engine.tasks", s.tasks as f64, "count", "EngineStats.tasks");
    report.metric(
        "engine.ref_computed",
        computed as f64,
        "count",
        "run − ref_cache_hits",
    );
    report.metric(
        "engine.ref_useful_ratio",
        ratio(distinct as f64, computed as f64),
        "ratio",
        &format!("{distinct} distinct instances ÷ {computed} references computed"),
    );
    report.metric(
        "engine.busy_frac",
        ratio(busy_s, capacity_s),
        "ratio",
        "replayed stage time ÷ threads × wall",
    );
    report.metric(
        "engine.steal_hit_ratio",
        ratio(s.steal_hits as f64, s.steal_attempts as f64),
        "ratio",
        &format!("{} of {} steal probes", s.steal_hits, s.steal_attempts),
    );
    report.metric(
        "engine.retries",
        s.retried as f64,
        "count",
        "EngineStats.retried",
    );
}

/// Adds `s` into `acc`, field by field.
pub fn add_stats(acc: &mut EngineStats, s: &EngineStats) {
    acc.tasks += s.tasks;
    acc.run += s.run;
    acc.cached += s.cached;
    acc.degraded += s.degraded;
    acc.cert_failed += s.cert_failed;
    acc.panicked += s.panicked;
    acc.timed_out += s.timed_out;
    acc.cancelled += s.cancelled;
    acc.retried += s.retried;
    acc.ref_cache_hits += s.ref_cache_hits;
    acc.steal_attempts += s.steal_attempts;
    acc.steal_hits += s.steal_hits;
}

/// `VmHWM` (peak resident set) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/<pid>/status"))?;
    Ok(kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`.
pub fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of the machine's CPU time the host took for other guests between
/// two [`host_cpu`] readings, or NaN when either is missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}
