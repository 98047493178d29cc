//! The metric tables the benchmark reports (mirrored by `BENCHMARK.json`),
//! the per-run report, and its output: readable lines on stdout, then one
//! JSON object as the last line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`. Every workload defines
/// each of them (see `perfbench/README.md` for the per-workload reading).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("done_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. Each is measured on every
/// workload; a count or ratio of a layer the workload does not use is 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("instances.generate_ms", "ms"),
    ("sched.reference.calls", "count"),
    ("sched.reference.busy_ms", "ms"),
    ("sched.reference.share", "ratio"),
    ("sched.laminarize.busy_ms", "ms"),
    ("sched.forest.busy_ms", "ms"),
    ("forest.tm.busy_ms", "ms"),
    ("sched.reconstruct.busy_ms", "ms"),
    ("sched.lsa_cs.calls", "count"),
    ("sched.bounded.share", "ratio"),
    ("core.verify.busy_ms", "ms"),
    ("core.verify.share", "ratio"),
    ("engine.tasks", "count"),
    ("engine.ref_computed", "count"),
    ("engine.ref_useful_ratio", "ratio"),
    ("engine.busy_frac", "ratio"),
    ("engine.steal_hit_ratio", "ratio"),
    ("engine.retries", "count"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p99_us", "us"),
    ("serve.journal_append_p50_us", "us"),
    ("serve.compact_ms", "ms"),
    ("serve.snapshot_kb", "KiB"),
    ("serve.compactions", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("sweep.chunks", "count"),
    ("sweep.io_share", "ratio"),
    ("driver.polls", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_share", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sweep rows, serve jobs).
    pub attempted: u64,
    /// Operations that failed: rejected, not `done`, a transport error, or
    /// a failed correctness check.
    pub failed: u64,
    /// Why the first failures failed.
    pub failures: Vec<String>,
    /// Every metric measured, by name: value and unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Records a metric and prints it on its own line, with `note` (sample
    /// counts, the workload's reading of the metric) beside it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        println!("  {name:<30} {value:>14.4} {unit:<6} {note}");
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Prints a metric this workload does not define.
    pub fn not_here(&self, name: &str, why: &str) {
        println!("  {name:<30} {:>14} {:<6} {why}", "n/a", "");
    }

    /// Counts one attempted operation, failed when `err` is set (the first
    /// 20 reasons are kept).
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(why) = err {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, and the
    /// metrics of `table`. `Err` names a metric the run did not produce or
    /// produced as a non-finite number.
    pub fn result_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let (value, _) = self
                .metrics
                .get(*name)
                .ok_or(format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Every metric as one JSON object, for the run's results file.
    pub fn all_metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, (v, _))| v.is_finite())
            .map(|(k, (v, u))| format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_table() {
        let mut r = Report::default();
        r.op(None);
        r.metric("setup_s", 0.5, "s", "");
        r.metric("extra", 1.0, "ms", "");
        let line = r.result_line(&[("setup_s", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(r.result_line(&[("missing", "s")]).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.op(None);
        assert!(r.correct());
        r.op(Some("row 3: status cert_failed".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = pobp_core::json::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
