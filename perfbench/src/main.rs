//! Benchmark harness for the sapred reproduction.
//!
//! ```text
//! perfbench --workload paper|sim_wide --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it times the user-facing entry points and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics of a
//! traced run. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.py` builds
//! this binary and is the command to use.

mod out;
mod paper;
mod sim;

use out::{result_json, Checks};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = match args.workload.as_str() {
        "paper" => paper::run(args.seconds, args.trace, &mut checks),
        "sim_wide" => sim::sim_wide(args.seed, args.seconds, args.trace, &mut checks),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", result_json(&checks, &metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
