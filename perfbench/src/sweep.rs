//! `sweep-large`: `pobp_sweep::run_sweep` over n ∈ {250, 1000, 4000},
//! k ∈ {1, 2, 4} and two instance seeds, one sweep per algorithm
//! (`reduction`, `lsa`), on 2 engine threads. This is the paper's large-n
//! regime, where the greedy reference dominates task time; the serve
//! layers do no work here.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use pobp_engine::{splitmix64, Algo, EngineConfig, EngineStats};
use pobp_forest::loss_bound;
use pobp_instances::RandomWorkload;
use pobp_serve::json::Json;
use pobp_serve::JobSpec;
use pobp_sweep::{run_sweep, SweepConfig, SweepSpec};

use crate::probes;
use crate::replay::Replayer;
use crate::report::{ratio, Report};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::Ctx;

/// Instance sizes of the grid.
pub const NS: [usize; 3] = [250, 1000, 4000];
/// Preemption budgets of the grid.
pub const KS: [u32; 3] = [1, 2, 4];
/// One sweep per algorithm.
pub const ALGOS: [Algo; 2] = [Algo::Reduction, Algo::LsaCs];
/// Engine worker threads.
pub const THREADS: usize = 2;
/// Set-up repetitions; `setup_s` is their median. One takes about 1 ms, and
/// the median of 5 spread by 0.35–0.44 of itself between runs.
const SETUP_REPS: usize = 51;

/// The two sweeps of pass `pass`, with instance seeds drawn from the
/// workload seed and the pass (kept below 2^32 so they survive a round trip
/// through JSON). Each pass solves new instances: the reference's cost
/// varies from instance to instance, and two instances per size made rows/s
/// vary by 14% from seed to seed.
pub fn specs(seed: u64, pass: u64) -> Vec<SweepSpec> {
    let base = splitmix64(splitmix64(seed) ^ pass);
    let s0 = splitmix64(base) >> 32;
    let s1 = splitmix64(base ^ 1) >> 32;
    ALGOS
        .iter()
        .map(|&algo| SweepSpec {
            ns: NS.to_vec(),
            ks: KS.to_vec(),
            seeds: vec![s0, s1],
            algo,
            machines: 1,
            exact_ref: false,
            // The `pobp sweep` default.
            chunk_cells: 8,
        })
        .collect()
}

/// One parsed row of `merged.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Instance size.
    pub n: usize,
    /// Preemption budget.
    pub k: u32,
    /// Instance seed.
    pub seed: u64,
    /// Algorithm name.
    pub alg: String,
    /// Row status (`ok` when certified).
    pub status: String,
    /// Bounded value, on certified rows.
    pub value: Option<f64>,
    /// Reference value, on certified rows.
    pub ref_value: Option<f64>,
}

impl Row {
    /// Parses one row line.
    pub fn parse(line: &str) -> Result<Row, String> {
        let v = Json::parse(line).map_err(|e| format!("row {line:?}: {e}"))?;
        let num = |f: &str| {
            v.get(f)
                .and_then(Json::as_u64)
                .ok_or(format!("row without {f}: {line}"))
        };
        let text = |f: &str| {
            v.get(f)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("row without {f}: {line}"))
        };
        Ok(Row {
            n: num("n")? as usize,
            k: num("k")? as u32,
            seed: num("seed")?,
            alg: text("alg")?,
            status: text("status")?,
            value: v.get("value").and_then(Json::as_f64),
            ref_value: v.get("ref_value").and_then(Json::as_f64),
        })
    }
}

/// Checks a sweep's rows against its grid: one row per grid cell in grid
/// order, every row `ok`, and every `reduction` row within Theorem 3.9's
/// bound `value · loss_bound(n, k) ≥ ref_value`. Returns one verdict per
/// row.
pub fn check_rows(spec: &SweepSpec, rows: &[Row]) -> Vec<Option<String>> {
    let mut expected = Vec::new();
    for &n in &spec.ns {
        for &seed in &spec.seeds {
            for &k in &spec.ks {
                expected.push((n, k, seed));
            }
        }
    }
    let mut verdicts: Vec<Option<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if expected.get(i) != Some(&(r.n, r.k, r.seed)) || r.alg != spec.algo.name() {
                return Some(format!(
                    "row {i}: ({}, {}, {}, {}) is not the grid's",
                    r.n, r.k, r.seed, r.alg
                ));
            }
            if r.status != "ok" {
                return Some(format!("row {i}: status {}", r.status));
            }
            let (Some(value), Some(ref_value)) = (r.value, r.ref_value) else {
                return Some(format!("row {i}: no value/ref_value"));
            };
            if spec.algo == Algo::Reduction && value * loss_bound(r.n, r.k) < ref_value - 1e-9 {
                return Some(format!(
                    "row {i}: Theorem 3.9 violated: {value} · log_{}({}) < {ref_value}",
                    r.k + 1,
                    r.n
                ));
            }
            None
        })
        .collect();
    for i in rows.len()..expected.len() {
        verdicts.push(Some(format!(
            "row {i} missing: the sweep wrote {} rows",
            rows.len()
        )));
    }
    verdicts
}

/// One finished sweep.
struct SweepRun {
    spec: SweepSpec,
    wall: Duration,
    lines: Vec<String>,
    rows: Vec<Row>,
    stats: EngineStats,
}

/// What one measured phase produced.
struct Phase {
    setup: Vec<f64>,
    generate_ms: Vec<f64>,
    sweeps: Vec<SweepRun>,
}

/// Plans both sweeps of the first pass and generates every instance of
/// their grid, `SETUP_REPS` times, then runs passes over both sweeps until
/// `seconds` have passed (at least one pass).
fn measure(
    ctx: &Ctx,
    tr: &mut Tracer,
    tag: &str,
    seconds: f64,
    report: &mut Report,
) -> Result<Phase, String> {
    let first = specs(ctx.seed, 0);
    let mut phase = Phase {
        setup: Vec::new(),
        generate_ms: Vec::new(),
        sweeps: Vec::new(),
    };
    for rep in 0..SETUP_REPS as u64 {
        let t = Instant::now();
        let mut generate = Duration::ZERO;
        for spec in &first {
            let chunks = tr.span("sweep.plan", rep, |_| spec.chunks());
            for chunk in &chunks {
                for &(n, seed) in &chunk.cells {
                    let g = Instant::now();
                    let jobs = tr.span("instances.generate", rep, |_| {
                        RandomWorkload::standard(n).generate(seed)
                    });
                    generate += g.elapsed();
                    std::hint::black_box(jobs);
                }
            }
        }
        phase.setup.push(t.elapsed().as_secs_f64());
        phase.generate_ms.push(generate.as_secs_f64() * 1e3);
    }
    let started = Instant::now();
    let mut pass = 0;
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        for spec in &specs(ctx.seed, pass) {
            let dir = ctx
                .run_dir
                .join(format!("{tag}-pass{pass}-{}", spec.algo.name()));
            let run = run_one(tr, &dir, spec, pass)?;
            for verdict in check_rows(spec, &run.rows) {
                report.op(verdict);
            }
            phase.sweeps.push(run);
            let _ = std::fs::remove_dir_all(&dir);
        }
        pass += 1;
    }
    Ok(phase)
}

/// Runs one sweep into a fresh `dir` and reads back its merged rows.
fn run_one(tr: &mut Tracer, dir: &Path, spec: &SweepSpec, pass: u64) -> Result<SweepRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = SweepConfig {
        spec: spec.clone(),
        engine: EngineConfig {
            threads: THREADS,
            ..EngineConfig::default()
        },
        resume: false,
        max_chunks: None,
    };
    let t = Instant::now();
    let out = tr.span("sweep.run_sweep", pass, |_| run_sweep(dir, &cfg))?;
    let wall = t.elapsed();
    let merged = out
        .merged
        .ok_or("the sweep finished without merged.jsonl")?;
    let text =
        std::fs::read_to_string(&merged).map_err(|e| format!("{}: {e}", merged.display()))?;
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let rows = lines
        .iter()
        .map(|l| Row::parse(l))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SweepRun {
        spec: spec.clone(),
        wall,
        lines,
        rows,
        stats: out.stats,
    })
}

/// The end-to-end figures of a phase: rows per second over all sweeps, and
/// each row's time from its sweep's start to its merged result.
fn end_to_end(phase: &Phase) -> (f64, Dist) {
    let rows: usize = phase.sweeps.iter().map(|s| s.rows.len()).sum();
    let wall: f64 = phase.sweeps.iter().map(|s| s.wall.as_secs_f64()).sum();
    let done = phase
        .sweeps
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.wall.as_secs_f64() * 1e3, s.rows.len()))
        .collect();
    (ratio(rows as f64, wall), Dist::new(done))
}

/// Runs `sweep-large`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    println!("sweep-large: engine threads {THREADS}, grid n={NS:?} k={KS:?}, 2 instance seeds, algs reduction+lsa");
    if !ctx.trace {
        let phase = measure(ctx, &mut Tracer::off(), "sweep", ctx.seconds, report)?;
        let (rows_per_s, done) = end_to_end(&phase);
        report.metric(
            "setup_s",
            median(&phase.setup),
            "s",
            &format!("plan + generate the grid, median of {SETUP_REPS}"),
        );
        report.metric(
            "results_per_s",
            rows_per_s,
            "1/s",
            &format!(
                "rows_per_s: {} sweeps through the merge",
                phase.sweeps.len()
            ),
        );
        report.metric(
            "done_p50_ms",
            done.p50().unwrap_or(0.0),
            "ms",
            &format!(
                "row due at its sweep's start, done at the merge; {}",
                done.describe(0.99)
            ),
        );
        report.metric(
            "peak_rss_mb",
            probes::peak_rss_mb(std::process::id()).map_err(|e| e.to_string())?,
            "MiB",
            "VmHWM of the sweep's process",
        );
        for name in [
            "ack_p50_ms",
            "ack_p99_ms",
            "done_p99_ms",
            "large_done_p50_ms",
            "jobs_per_s",
        ] {
            report.not_here(name, "serve metric: no daemon in this workload");
        }
        report.metric(
            "failed_frac",
            ratio(report.failed as f64, report.attempted as f64),
            "ratio",
            &format!("{} of {} rows", report.failed, report.attempted),
        );
        return Ok(());
    }

    // Untraced baseline pass, then the traced pass, then the replay.
    let untraced = measure(ctx, &mut Tracer::off(), "untraced", 0.0, report)?;
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, true);
    let traced = measure(ctx, &mut tr, "traced", 0.0, report)?;
    let (_, done_untraced) = end_to_end(&untraced);
    let (_, done_traced) = end_to_end(&traced);

    println!("traced run: engine threads {THREADS} (the thread count behind the engine.* ratios)");
    let mut replayer = Replayer::default();
    let mut ref_by_n: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let (mut non_ref_ns, mut ref_ns, mut ref_calls) = (0u64, 0u64, 0u64);
    let mut stats = EngineStats::default();
    let (mut distinct, mut wall_s, mut chunks, mut io_ns) = (0usize, 0.0, 0usize, 0u64);
    let (mut specs, mut results) = (Vec::new(), Vec::new());
    let mut req = 0u64;
    for sweep in &traced.sweeps {
        // A fresh engine per sweep, so a fresh reference cache.
        replayer.clear_refs();
        let mut instances = HashSet::new();
        for (row, line) in sweep.rows.iter().zip(&sweep.lines) {
            let jobs = tr.span("instances.generate", req, |_| {
                RandomWorkload::standard(row.n).generate(row.seed)
            });
            let inst = (row.n as u64) << 40 ^ row.seed;
            instances.insert(inst);
            let got = tr.span("row", req, |tr| {
                replayer.replay(tr, req, &jobs, inst, sweep.spec.algo, row.k)
            });
            let verdict = match got {
                Err(e) => Some(format!("replay of row {req}: {e}")),
                Ok(got) => {
                    if let Some(ns) = got.ref_ns {
                        ref_by_n.entry(row.n).or_default().push(ns);
                        ref_ns += ns;
                        ref_calls += 1;
                    }
                    non_ref_ns += got.stage_ns - got.ref_ns.unwrap_or(0);
                    (Some(got.alg_value) != row.value || Some(got.ref_value) != row.ref_value).then(
                        || {
                            format!(
                            "row {req}: replay gives value {} ref {}, the sweep wrote {:?} {:?}",
                            got.alg_value, got.ref_value, row.value, row.ref_value
                        )
                        },
                    )
                }
            };
            report.op(verdict);
            let mut spec = JobSpec::cell(sweep.spec.algo, row.n, row.k, row.seed);
            spec.name = format!("row-{req}");
            specs.push(spec);
            results.push(Json::parse(line).map_err(|e| e.to_string())?);
            req += 1;
        }
        distinct += instances.len();
        wall_s += sweep.wall.as_secs_f64();
        probes::add_stats(&mut stats, &sweep.stats);
        let dir = ctx.run_dir.join(format!("io-{}", sweep.spec.algo.name()));
        let t = Instant::now();
        chunks += probes::sweep_io(&mut tr, &dir, &sweep.spec, &sweep.lines)
            .map_err(|e| format!("sweep io replay: {e}"))?;
        io_ns += t.elapsed().as_nanos() as u64;
    }
    probes::serve_layer(
        &mut tr,
        &ctx.run_dir.join("serve-probe"),
        &specs,
        &results,
        specs.len(),
        report,
    )
    .map_err(|e| format!("serve probe: {e}"))?;
    let end = Instant::now();

    report.metric(
        "instances.generate_ms",
        median(&traced.generate_ms),
        "ms",
        "RandomWorkload::generate of the grid, median of set-ups",
    );
    probes::stage_metrics(report, &tr, &ref_by_n);
    let computed = stats.run.saturating_sub(stats.ref_cache_hits) as f64;
    let busy_s = (non_ref_ns as f64 + ratio(computed, ref_calls as f64) * ref_ns as f64) / 1e9;
    probes::engine_metrics(report, &stats, distinct, busy_s, THREADS as f64 * wall_s);
    report.not_here(
        "engine.batch1_us",
        "serve metric: no per-job engines in this workload",
    );
    report.not_here(
        "serve.ping_p50_us",
        "serve metric: no daemon in this workload",
    );
    report.metric(
        "serve.compactions",
        0.0,
        "count",
        "no daemon in this workload",
    );
    report.metric(
        "serve.cache_hit_ratio",
        0.0,
        "ratio",
        "no daemon in this workload",
    );
    report.metric(
        "serve.queue_depth_max",
        0.0,
        "count",
        "no daemon in this workload",
    );
    report.not_here("serve.wait_p50_ms", "no daemon in this workload");
    report.metric("sweep.chunks", chunks as f64, "count", "chunks replayed");
    report.metric(
        "sweep.io_ms",
        io_ns as f64 / 1e6,
        "ms",
        "ShardWriter + Manifest::write replay",
    );
    report.metric(
        "sweep.io_share",
        ratio(io_ns as f64 / 1e9, wall_s),
        "ratio",
        "of run_sweep wall time",
    );
    report.metric("driver.polls", 0.0, "count", "no daemon in this workload");
    report.not_here("driver.lag_p99_ms", "no open loop in this workload");
    let (u, t) = (
        done_untraced.p50().unwrap_or(0.0),
        done_traced.p50().unwrap_or(0.0),
    );
    report.metric(
        "trace.overhead_ratio",
        ratio(t - u, u),
        "ratio",
        &format!("done_p50_ms traced {t:.1} vs untraced {u:.1}"),
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

    fn grid_rows(spec: &SweepSpec) -> Vec<Row> {
        let mut rows = Vec::new();
        for &n in &spec.ns {
            for &seed in &spec.seeds {
                for &k in &spec.ks {
                    let line = format!(
                        "{{\"n\":{n},\"k\":{k},\"seed\":{seed},\"alg\":\"{}\",\"machines\":1,\
                         \"status\":\"ok\",\"attempts\":1,\"value\":100,\"ref_value\":150}}",
                        spec.algo.name()
                    );
                    rows.push(Row::parse(&line).unwrap());
                }
            }
        }
        rows
    }

    #[test]
    fn a_tampered_row_fails_the_check() {
        let spec = &specs(1, 0)[0];
        assert_eq!(spec.algo, Algo::Reduction);
        let rows = grid_rows(spec);
        assert!(check_rows(spec, &rows).iter().all(Option::is_none));

        // A value too small for Theorem 3.9: 10 · log_2(250) < 150.
        let mut bad = rows.clone();
        bad[0].value = Some(10.0);
        assert!(check_rows(spec, &bad)[0]
            .as_deref()
            .unwrap()
            .contains("Theorem 3.9"));
        // A row that is not `ok`.
        let mut bad = rows.clone();
        bad[3].status = "cert_failed".into();
        assert!(check_rows(spec, &bad)[3].is_some());
        // A row out of grid order, and a missing row.
        let mut bad = rows.clone();
        bad.swap(0, 1);
        assert!(check_rows(spec, &bad)[0].is_some());
        let verdicts = check_rows(spec, &rows[..rows.len() - 1]);
        assert_eq!(verdicts.len(), rows.len());
        assert!(verdicts
            .last()
            .unwrap()
            .as_deref()
            .unwrap()
            .contains("missing"));
    }

    #[test]
    fn both_sweeps_cover_the_grid_with_seeded_instances() {
        let a = specs(7, 0);
        assert_eq!(a, specs(7, 0));
        assert_eq!(a.iter().map(|s| s.algo).collect::<Vec<_>>(), ALGOS.to_vec());
        assert_eq!(a[0].rows(), NS.len() * KS.len() * 2);
        assert_eq!(
            a[0].seeds, a[1].seeds,
            "both algorithms see the same instances"
        );
        assert_ne!(specs(8, 0)[0].seeds, a[0].seeds);
        assert_ne!(
            specs(7, 1)[0].seeds,
            a[0].seeds,
            "each pass solves new instances"
        );
        assert!(a[0].seeds.iter().all(|&s| s < 1 << 32));
    }
}
