//! The repository benchmark. One command generates a workload from a
//! seed, runs PatLabor in its default configuration on it, checks every
//! output, and prints the metrics by name and unit, ending with one JSON
//! result line:
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload mixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced variant, which times each layer's public calls and prints the
//! per-layer metrics. Spans are written to
//! `$CARGO_TARGET_DIR/repobench-trace/` when the traced run ends.
//!
//! The seed fixes the workload: the same seed prints the same workload
//! digest, and the program under test only ever sees the generated nets.
//! Tune a change on seed 1 and confirm it on seed 2 before citing it.
//!
//! Every repeated timing reports its best repetition (min-of-N for a
//! time, max-of-N for a rate), and served latency the best decile of
//! its half-second windows: the host's CPU speed drifts by up to 2x over
//! seconds under load from other tenants, and the best repetitions track
//! the program's own cost where a median tracks that load.

mod batch;
mod gen;
mod layers;
mod report;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["mixed", "lut-only", "served"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("repobench/target"), PathBuf::from);
    dir.join("repobench-trace")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} host threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        batch::threads()
    );
    let correct = if args.trace {
        let (mut out, tracer) = match args.workload.as_str() {
            "mixed" => batch::run_traced(&args, true),
            "lut-only" => batch::run_traced(&args, false),
            _ => served::run_traced(&args),
        };
        let path = trace_path(&args);
        match tracer.write_jsonl(&path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => out.fail(format!("writing spans to {}: {e}", path.display())),
        }
        out.set("trace.coverage", tracer.coverage());
        out.print(&PER_LAYER, true)
    } else {
        let mut out = match args.workload.as_str() {
            "mixed" => batch::run(&args, true),
            "lut-only" => batch::run(&args, false),
            _ => served::run(&args),
        };
        out.set("peak_rss_mb", peak_rss_mb());
        out.print(&END_TO_END, false)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
