//! PISA benchmark: one command, four workloads, every end-to-end metric
//! from an untraced run and every per-layer metric from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path pisabench/Cargo.toml -- \
//!     --workload service_light --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--workload all` runs
//! the four workloads in turn, each ending with its own JSON line. The process exits
//! with code 1 when any decision disagrees with the plaintext WATCH
//! oracle or a simulator invariant breaks, and with code 2 on bad
//! arguments. See `pisabench/README.md` for the workloads and metrics.

mod direct;
mod layers;
mod report;
mod schedule;
mod service;
mod stats;
mod workloads;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pisabench: {e}");
            eprintln!(
                "usage: pisabench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        let Some(report) = workloads::run(name, args.seed, args.seconds, args.trace) else {
            eprintln!("pisabench: unknown workload {name}");
            return ExitCode::from(2);
        };
        report.print(name);
        correct &= report.correct();
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
