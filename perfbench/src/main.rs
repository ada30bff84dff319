//! Command-line entry of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-lists|batch-trees|stream-bulk|serve-trickle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one diagnostic JSON line (parameters, sample counts, CPUs and
//! threads, error fraction, problems) and then, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check failed, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{cpus, run, Budget, Config, Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <batch-lists|batch-trees|stream-bulk|serve-trickle> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed must be a whole number, got {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds must be a number, got {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let trace_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench-traces");
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Budget::Seconds(seconds.ok_or("--seconds is required")?),
        trace,
        size: Size::Paper,
        trace_dir: Some(trace_dir),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&config);
    outcome.info("workload", format!("\"{}\"", config.workload.name()));
    outcome.info("seed", config.seed.to_string());
    outcome.info("cpus", cpus().to_string());
    let result = outcome.result_line();
    println!("{}", outcome.info_line());
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
