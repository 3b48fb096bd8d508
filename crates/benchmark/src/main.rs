//! `pmcts-benchmark`: runs one workload (or all four, each in its own
//! child process), checks its outputs and prints its metrics.
//!
//! ```text
//! cargo run --release -p pmcts-benchmark -- [--workload NAME|all] [--seed N]
//!     [--seconds S] [--trace 0|1] [--host-threads N] [--trace-dir DIR]
//! ```
//!
//! Standard output carries a run record and, as its last line, the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}` —
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics (and a
//! Chrome trace written to `DIR/<workload>.trace.json`). The exit code is 0
//! only when every output check passed.

use pmcts_benchmark::trace::Tracer;
use pmcts_benchmark::{report, workloads, Plan, Sizes, Workload};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: pmcts-benchmark [--workload paper_move|resident_move|fleet_serve|hex_arena|all] \
[--seed N] [--seconds S] [--trace 0|1] [--host-threads N] [--trace-dir DIR]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    host_threads: usize,
    trace_dir: String,
    /// The arguments to forward to per-workload child processes.
    forward: Vec<String>,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace_dir: ".bench_trace".into(),
        forward: Vec::new(),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--host-threads" => {
                args.host_threads = value
                    .parse()
                    .ok()
                    .filter(|n: &usize| (1..=256).contains(n))
                    .ok_or_else(|| bad("expected 1 to 256 threads"))?
            }
            "--trace-dir" => args.trace_dir = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
        if flag != "--workload" {
            args.forward.extend([flag.clone(), value.clone()]);
        }
    }
    Ok(args)
}

/// Runs every workload in its own child process, so set-up time and peak
/// memory are per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(&args.forward)
            .status()
            .map_err(|e| format!("spawning {}: {e}", w.name()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        host_threads: args.host_threads,
        trace: args.trace,
        sizes: Sizes::full(workload),
    };
    let mut tracer = Tracer::new(plan.trace);
    let run = workloads::run(&plan, &mut tracer);
    let mut failed = run.checks.failed;
    let metrics = if plan.trace {
        if !run.layers.as_ref().is_some_and(|l| l.replay.consistent) {
            failed += 1;
            eprintln!("{}: replay checksums disagree", workload.name());
        }
        std::fs::create_dir_all(&args.trace_dir)
            .and_then(|()| {
                let path = format!("{}/{}.trace.json", args.trace_dir, workload.name());
                std::fs::write(path, tracer.chrome_json())
            })
            .map_err(|e| format!("writing the trace to {}: {e}", args.trace_dir))?;
        report::per_layer(&run, &plan)
    } else {
        report::end_to_end(&run)
    };
    for f in &run.checks.failures {
        eprintln!("{}: check failed: {f}", workload.name());
    }
    for mt in &metrics {
        eprintln!(
            "{:>14} {:<40} {:>16.6} {}",
            workload.name(),
            mt.name,
            mt.value,
            mt.unit
        );
    }
    println!("{}", report::run_record(&run, &plan).render());
    println!(
        "{}",
        report::result_line(failed == 0, run.checks.attempted, failed, &metrics).render()
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
