//! Admission control and queue semantics, tested deterministically: a
//! service started with `workers: 0` accepts and queues but never runs, so
//! the queue-full boundary, cancel-while-queued, and the recovery requeue
//! are exact — no timing. A second service over the same directory (with a
//! worker) then drains the backlog, and the journal's `start` records give
//! the exact claim order for the priority assertion.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use pobp_engine::Algo;
use pobp_serve::json::Json;
use pobp_serve::service::{CancelOutcome, Service, ServiceConfig, SubmitOutcome};
use pobp_serve::{JobSpec, JobStatus};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pobp-serve-adm-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &Path, workers: usize, queue_cap: usize) -> ServiceConfig {
    ServiceConfig {
        dir: dir.to_path_buf(),
        workers,
        queue_cap,
        degrade: false,
        compact_every: 10_000,
        #[cfg(feature = "chaos")]
        chaos: None,
        // `sample_ms: 0` disables the background sampler so telemetry
        // builds of these tests stay exactly as deterministic as default
        // builds — the `metrics` op still works via its on-demand sample.
        #[cfg(feature = "telemetry")]
        telemetry: pobp_serve::TelemetryOptions { sample_ms: 0, ..Default::default() },
    }
}

/// A quick job with a distinguishing seed and priority.
fn spec(seed: u64, priority: i64) -> JobSpec {
    let mut s = JobSpec::cell(Algo::Reduction, 8, 1, seed);
    s.priority = priority;
    s.name = format!("adm-{seed}");
    s
}

fn accepted_id(outcome: SubmitOutcome) -> u64 {
    match outcome {
        SubmitOutcome::Accepted { id, status: JobStatus::Queued, cached: false, .. } => id,
        other => panic!("expected a queued acceptance, got {other:?}"),
    }
}

/// Ids of `start` records in journal order — the exact sequence in which
/// workers claimed jobs.
fn start_order(dir: &Path) -> Vec<u64> {
    let text = fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|v| v.get("ev").and_then(Json::as_str) == Some("start"))
        .filter_map(|v| v.get("id").and_then(Json::as_u64))
        .collect()
}

#[test]
fn queue_full_boundary_is_exact_at_capacity() {
    let dir = tmpdir("boundary");
    let service = Service::start(cfg(&dir, 0, 3)).unwrap();
    // Exactly `capacity` jobs are admitted…
    for seed in 0..3 {
        accepted_id(service.submit(spec(seed, 0)).unwrap());
    }
    // …and job capacity+1 gets the structured rejection with the depth.
    match service.submit(spec(99, 0)).unwrap() {
        SubmitOutcome::Rejected { reason, queue_depth } => {
            assert_eq!(reason, "queue_full");
            assert_eq!(queue_depth, 3);
        }
        other => panic!("expected queue_full, got {other:?}"),
    }
    // Rejections are not journalled and allocate no id: freeing one slot
    // admits the next submission with a contiguous id.
    assert_eq!(service.cancel(1), CancelOutcome::CancelledQueued);
    assert_eq!(accepted_id(service.submit(spec(4, 0)).unwrap()), 4);
    let c = service.counters();
    assert_eq!((c.accepted, c.rejected, c.cancelled), (4, 1, 1));
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturated_queue_drains_in_priority_order_and_cancelled_jobs_never_run() {
    let dir = tmpdir("priority");
    // Phase 1: saturate a worker-less service so the whole backlog is
    // queued at once, with mixed priorities and one cancellation.
    {
        let service = Service::start(cfg(&dir, 0, 8)).unwrap();
        let low = accepted_id(service.submit(spec(0, 1)).unwrap()); // id 1
        accepted_id(service.submit(spec(1, 5)).unwrap()); // id 2, highest
        accepted_id(service.submit(spec(2, 3)).unwrap()); // id 3
        accepted_id(service.submit(spec(3, 3)).unwrap()); // id 4, ties FIFO with 3
        assert_eq!(service.cancel(low), CancelOutcome::CancelledQueued);
        assert_eq!(service.cancel(low), CancelOutcome::AlreadyTerminal(JobStatus::Cancelled));
        assert_eq!(service.cancel(77), CancelOutcome::NotFound);
        service.stop(false);
    }
    // Phase 2: a restart recovers the backlog (minus the cancelled job)
    // and a single worker drains it strictly by (priority desc, id asc).
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    assert_eq!(service.counters().requeued, 3, "cancelled job must not be requeued");
    assert!(service.quiesce(Duration::from_secs(60)), "backlog did not drain");
    assert_eq!(start_order(&dir), vec![2, 3, 4], "claims must follow priority then FIFO");
    for id in [2, 3, 4] {
        let job = service.job(id).unwrap();
        assert_eq!(job.status, JobStatus::Done, "job {id}");
        assert!(job.result.is_some());
    }
    // The cancelled job never reached an engine: terminal, and no result
    // was ever journalled for it (engine runs always journal one).
    let job = service.job(1).unwrap();
    assert_eq!(job.status, JobStatus::Cancelled);
    assert!(job.result.is_none(), "cancelled-while-queued job must never produce a result");
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stopping_service_rejects_new_submissions() {
    let dir = tmpdir("stopping");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    service.stop(true);
    match service.submit(spec(0, 0)).unwrap() {
        SubmitOutcome::Rejected { reason, .. } => assert_eq!(reason, "shutting_down"),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn equal_keyed_submissions_share_one_result() {
    let dir = tmpdir("cachehit");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    let first = accepted_id(service.submit(spec(7, 0)).unwrap());
    assert!(service.quiesce(Duration::from_secs(60)));
    // Same cell, different name/priority: served from the finished job,
    // already terminal at acknowledgement, byte-identical result.
    let mut dup = spec(7, 0);
    dup.name = "other-name".into();
    dup.priority = -4;
    match service.submit(dup).unwrap() {
        SubmitOutcome::Accepted { id, status, cached, .. } => {
            assert!(cached);
            assert_eq!(status, JobStatus::Done);
            let a = service.job(first).unwrap().result.unwrap().to_string();
            let b = service.job(id).unwrap().result.unwrap().to_string();
            assert_eq!(a, b);
        }
        other => panic!("expected cached acceptance, got {other:?}"),
    }
    assert_eq!(service.counters().cache_hits, 1);
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

/// Reads a numeric field, treating a missing field as a loud NaN mismatch.
fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Field-by-field contract for the `stats` payload after a scripted
/// submit/reject/cancel sequence on a worker-less service: every depth and
/// counter is exact because nothing ever runs.
#[test]
fn stats_json_fields_are_exact_after_scripted_traffic() {
    let dir = tmpdir("statsjson");
    let service = Service::start(cfg(&dir, 0, 2)).unwrap();
    accepted_id(service.submit(spec(0, 0)).unwrap()); // id 1, stays queued
    let second = accepted_id(service.submit(spec(1, 0)).unwrap()); // id 2
    assert!(matches!(service.submit(spec(9, 0)).unwrap(), SubmitOutcome::Rejected { .. }));
    assert_eq!(service.cancel(second), CancelOutcome::CancelledQueued);
    let stats = service.stats_json();
    for (key, want) in [
        ("jobs", 2.0),
        ("queued", 1.0),
        ("running", 0.0),
        ("queue_cap", 2.0),
        ("accepted", 2.0),
        ("rejected", 1.0),
        ("cache_hits", 0.0),
        ("done", 0.0),
        ("degraded", 0.0),
        ("failed", 0.0),
        ("cancelled", 1.0),
        // Two submit records plus one cancel record; the rejection is
        // never journalled.
        ("journal_seq", 3.0),
        ("compactions", 0.0),
    ] {
        assert_eq!(num(&stats, key), want, "stats field {key:?}");
    }
    let recovery = stats.get("recovery").expect("stats must embed the recovery report");
    assert_eq!(num(recovery, "replayed"), 0.0, "fresh directory replays nothing");
    assert_eq!(recovery.get("dropped_tail").and_then(Json::as_bool), Some(false));
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}

/// The `metrics` payload over the same scripted worker-less traffic: the
/// on-demand sample makes gauges and counters exact with `sample_ms: 0`,
/// and windowed rates/ratios are `null` until a second sample exists.
#[cfg(feature = "telemetry")]
#[test]
fn metrics_json_fields_are_exact_after_scripted_traffic() {
    let dir = tmpdir("metricsjson");
    let service = Service::start(cfg(&dir, 0, 2)).unwrap();
    accepted_id(service.submit(spec(0, 0)).unwrap());
    let second = accepted_id(service.submit(spec(1, 0)).unwrap());
    assert!(matches!(service.submit(spec(9, 0)).unwrap(), SubmitOutcome::Rejected { .. }));
    assert_eq!(service.cancel(second), CancelOutcome::CancelledQueued);
    let m = service.metrics_json();
    for (key, want) in
        [("queued", 1.0), ("running", 0.0), ("jobs", 2.0), ("queue_cap", 2.0), ("samples", 1.0)]
    {
        assert_eq!(num(&m, key), want, "metrics field {key:?}");
    }
    assert_eq!(m.get("journal_poisoned").and_then(Json::as_bool), Some(false));
    assert!(num(&m, "journal_bytes") > 0.0, "two journalled records have bytes");
    let counters = m.get("counters").expect("metrics must embed the counter sample");
    for (key, want) in [
        ("accepted", 2.0),
        ("rejected", 1.0),
        ("cancelled", 1.0),
        ("cache_hits", 0.0),
        ("finished", 1.0), // cancelled counts as finished in the rollup
        ("journal_appends", 3.0),
    ] {
        assert_eq!(num(counters, key), want, "metrics counter {key:?}");
    }
    // One sample spans no time: every windowed rate and ratio is null,
    // never a fabricated zero.
    let rates = m.get("rates").expect("metrics must embed the rates object");
    for key in ["accepted_per_s", "rejected_per_s", "finished_per_s"] {
        assert!(matches!(rates.get(key), Some(Json::Null)), "rate {key:?} must be null");
    }
    assert!(matches!(m.get("cache_hit_ratio"), Some(Json::Null)));
    assert!(matches!(m.get("degrade_ratio"), Some(Json::Null)));
    // Nothing ran: no latency observations, no per-alg rows.
    assert_eq!(num(m.get("latency_ms").unwrap(), "count"), 0.0);
    assert!(matches!(m.get("per_alg"), Some(Json::Obj(algs)) if algs.is_empty()));
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}

/// After a worker actually finishes jobs, the `metrics` payload carries
/// the latency histogram, the per-algorithm breakdown, and a cache-hit
/// counter consistent with `stats`.
#[cfg(feature = "telemetry")]
#[test]
fn metrics_json_tracks_finished_jobs_and_cache_hits() {
    let dir = tmpdir("metricsdone");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    accepted_id(service.submit(spec(5, 0)).unwrap());
    assert!(service.quiesce(Duration::from_secs(60)));
    let mut dup = spec(5, 0);
    dup.name = "dup".into();
    assert!(matches!(
        service.submit(dup).unwrap(),
        SubmitOutcome::Accepted { cached: true, .. }
    ));
    let m = service.metrics_json();
    let counters = m.get("counters").unwrap();
    // The cached acceptance reaches `Done` too, so the counter says 2 —
    // but only the real engine run shows up in latency and per-alg below.
    assert_eq!(num(counters, "done"), 2.0);
    assert_eq!(num(counters, "cache_hits"), 1.0);
    assert_eq!(num(m.get("latency_ms").unwrap(), "count"), 1.0, "one engine run was timed");
    let Some(Json::Obj(algs)) = m.get("per_alg") else { panic!("per_alg must be an object") };
    assert_eq!(algs.len(), 1, "exactly one algorithm finished jobs");
    assert_eq!(algs[0].0, "reduction");
    assert_eq!(num(&algs[0].1, "done"), 1.0, "the cache hit must not double-count");
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

/// A job whose reference stage runs long enough (seconds in a debug build,
/// a large fraction of a second in release) that the test can act on it
/// while it is running: stop requests land before its next stage boundary.
fn slow_spec(seed: u64) -> JobSpec {
    let mut s = JobSpec::cell(Algo::Reduction, 2000, 1, seed);
    s.name = format!("slow-{seed}");
    s
}

/// Polls until job `id` has been claimed by a worker.
fn wait_running(service: &Service, id: u64) {
    for _ in 0..60_000 {
        match service.job(id).map(|j| j.status) {
            Some(JobStatus::Running) => return,
            Some(JobStatus::Queued) => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("job {id} left the queue as {other:?} before it was seen running"),
        }
    }
    panic!("job {id} was never claimed");
}

/// The `status` field of a finished job's journalled result.
fn result_status(service: &Service, id: u64) -> String {
    let job = service.job(id).unwrap();
    let result = job.result.unwrap_or_else(|| panic!("job {id} has no result"));
    result.get("status").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn cancelling_a_running_job_ends_it_cancelled() {
    let dir = tmpdir("cancelrunning");
    let service = Service::start(cfg(&dir, 1, 8)).unwrap();
    let id = accepted_id(service.submit(slow_spec(1)).unwrap());
    wait_running(&service, id);
    assert_eq!(service.cancel(id), CancelOutcome::SignalledRunning);
    assert!(service.quiesce(Duration::from_secs(300)), "cancelled job never finished");
    assert_eq!(service.job(id).unwrap().status, JobStatus::Cancelled);
    assert_eq!(result_status(&service, id), "cancelled", "a cancel must never read as a timeout");
    assert_eq!(service.counters().cancelled, 1);
    assert_eq!(service.cancel(id), CancelOutcome::AlreadyTerminal(JobStatus::Cancelled));
    service.stop(true);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_deadlines_time_out_or_degrade() {
    // A 1 ms deadline is always past by the reference→bounded boundary.
    let mut tight = JobSpec::cell(Algo::Reduction, 300, 1, 5);
    tight.deadline_ms = Some(1);
    for (degrade, status, result) in
        [(false, JobStatus::Failed, "timed_out"), (true, JobStatus::Degraded, "degraded")]
    {
        let dir = tmpdir(&format!("deadline-{degrade}"));
        let service = Service::start(ServiceConfig { degrade, ..cfg(&dir, 1, 8) }).unwrap();
        let id = accepted_id(service.submit(tight.clone()).unwrap());
        assert!(service.quiesce(Duration::from_secs(300)), "job never finished");
        assert_eq!(service.job(id).unwrap().status, status, "degrade: {degrade}");
        assert_eq!(result_status(&service, id), result, "degrade: {degrade}");
        service.stop(true);
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn cancel_mode_stop_cancels_the_running_job_and_keeps_the_queue() {
    let dir = tmpdir("stopcancel");
    {
        let service = Service::start(cfg(&dir, 1, 8)).unwrap();
        let running = accepted_id(service.submit(slow_spec(2)).unwrap()); // id 1
        wait_running(&service, running);
        accepted_id(service.submit(spec(0, 0)).unwrap()); // id 2
        accepted_id(service.submit(spec(1, 0)).unwrap()); // id 3
        service.stop(false);
        assert_eq!(service.job(running).unwrap().status, JobStatus::Cancelled);
        assert_eq!(result_status(&service, running), "cancelled");
    }
    // The next daemon finds the cancelled job terminal and the two queued
    // jobs still queued, requeued for it to run.
    let service = Service::start(cfg(&dir, 0, 8)).unwrap();
    assert_eq!(service.job(1).unwrap().status, JobStatus::Cancelled);
    for id in [2, 3] {
        assert_eq!(service.job(id).unwrap().status, JobStatus::Queued, "job {id}");
    }
    assert_eq!(service.counters().requeued, 2);
    service.stop(false);
    fs::remove_dir_all(&dir).ok();
}
