//! The repository benchmark. Run it from the repository root:
//!
//! ```text
//! bash perfbench/run.sh --workload <sweep-large|serve-small|serve-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds the `pobp` binary and this program in release mode and
//! then runs this program, which measures one workload (or each in turn),
//! checks the outputs, prints every metric on its own line, and ends with
//! one JSON line: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md`.

mod driver;
mod guard;
mod probes;
mod replay;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["sweep-large", "serve-small", "serve-mixed"];

/// What every workload needs to know about its run.
pub struct Ctx {
    /// Workload seed: instance seeds and the arrival schedule.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for registries and sweep output.
    pub run_dir: PathBuf,
    /// The `pobp` binary under test.
    pub pobp: PathBuf,
    /// Available hardware threads.
    pub nproc: usize,
    /// Name of the running workload.
    pub workload: &'static str,
}

impl Ctx {
    /// Writes the traced run's spans next to its results.
    pub fn write_trace(&self, tr: &trace::Tracer) -> Result<(), String> {
        let path = Path::new(guard::OUT_DIR)
            .join(format!("trace-{}-seed{}.json", self.workload, self.seed));
        std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    for pair in args.chunks(2) {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&pair[0].as_str()) {
            return Err(format!("unknown argument {:?}", pair[0]));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    println!(
        "== {} seed {} seconds {} trace {} | nproc {} | pobp {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.nproc,
        ctx.pobp.display()
    );
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    std::fs::create_dir_all(&ctx.run_dir).map_err(|e| format!("{}: {e}", ctx.run_dir.display()))?;
    let cpu_before = probes::host_cpu();
    let outcome = match ctx.workload {
        "sweep-large" => sweep::run(ctx, &mut report),
        "serve-small" => serve::run(ctx, serve::Kind::Small, &mut report),
        _ => serve::run(ctx, serve::Kind::Mixed, &mut report),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    outcome?;
    // How much of the machine's CPU time the host took for other guests
    // during the run: the first thing to look at when figures spread.
    let steal = probes::steal_share(cpu_before, probes::host_cpu());
    println!("  host steal share during the run: {steal:.4}");
    for why in &report.failures {
        println!("  FAILED: {why}");
    }
    let results = Path::new(guard::OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    let text = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"daemon_workers\":{},\"driver_threads\":{},\"engine_threads\":{},\
         \"host_steal_share\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        ctx.nproc,
        match ctx.workload {
            "serve-small" => serve::Kind::Small.worker_count().to_string(),
            "serve-mixed" => serve::Kind::Mixed.worker_count().to_string(),
            _ => "null".to_string(),
        },
        if ctx.workload == "sweep-large" {
            0
        } else {
            driver::THREADS
        },
        if ctx.workload == "sweep-large" {
            sweep::THREADS
        } else {
            1
        },
        if steal.is_finite() {
            steal.to_string()
        } else {
            "null".into()
        },
        report.correct(),
        report.attempted,
        report.failed,
        report.all_metrics_json(),
    );
    std::fs::write(&results, text).map_err(|e| format!("{}: {e}", results.display()))?;
    println!("  results: {}", results.display());
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let pobp = match guard::check() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: refusing to measure: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload == "all" || *w == args.workload)
        .collect();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut lines = Vec::new();
    let mut all = Report::default();
    for workload in &names {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            run_dir: PathBuf::from(guard::OUT_DIR)
                .join(format!("run-{workload}-{}", std::process::id())),
            pobp: pobp.clone(),
            nproc,
            workload,
        };
        let report = match run_workload(&ctx) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::from(1);
            }
        };
        match report.result_line(table) {
            Ok(line) => lines.push(line),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::from(1);
            }
        }
        all.attempted += report.attempted;
        all.failed += report.failed;
        for (name, v) in report.metrics {
            all.metrics.insert(format!("{workload}/{name}"), v);
        }
    }
    if names.len() == 1 {
        println!("{}", lines[0]);
    } else {
        // `all`: one object over every workload, metric names prefixed.
        let prefixed: Vec<(String, String)> = names
            .iter()
            .flat_map(|w| {
                table
                    .iter()
                    .map(move |(n, u)| (format!("{w}/{n}"), u.to_string()))
            })
            .collect();
        let refs: Vec<(&str, &str)> = prefixed
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        match all.result_line(&refs) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse_args(&args(
            "--workload serve-small --seed 3 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve-small", 3, 15.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 15 --trace 0",
            "--workload all --seed x --seconds 15 --trace 0",
            "--workload all --seed 3 --seconds 0 --trace 0",
            "--workload all --seed 3 --seconds 15 --trace 2",
            "--workload all --seed 3 --seconds 15 --trace 0 --extra 1",
            "--workload all --seed 3 --seconds 15",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
