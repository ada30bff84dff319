//! `bench_serve`: measures reader query latency percentiles against writer
//! epoch throughput in the concurrent serving layer, and writes the
//! `BENCH_serve.json` snapshot.
//!
//! ```text
//! bench_serve [--readers 0,1,2,4] [--window N] [--batch N] [--epochs N]
//!             [--ring N] [--dc F] [--seed S] [--out FILE | --no-out]
//! ```
//!
//! Each sweep row runs the same sliding-window replay (grid engine) with a
//! different number of concurrent reader threads issuing mixed point-lookup,
//! ε-neighbourhood and subscription queries; row 0 readers is the writer's
//! uncontended baseline. The committed snapshot default is
//! `target/experiments/BENCH_serve.json`; CI runs a tiny smoke invocation so
//! the benchmark cannot rot.

use std::path::PathBuf;

use dpc_bench::serve_throughput::{run, ServeBenchOptions};
use dpc_core::index::validate_dc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_with_args(args) {
        Ok(()) => {}
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: bench_serve [--readers 0,1,2,4] [--window N] [--batch N] \
                 [--epochs N] [--ring N] [--dc F] [--seed S] [--out FILE | --no-out]"
            );
            std::process::exit(2);
        }
    }
}

fn main_with_args(args: Vec<String>) -> Result<(), String> {
    let (options, out) = parse_args(args)?;
    let report = run(&options);
    print!("{}", report.render());
    if let Some(path) = out {
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("snapshot written to {}", path.display());
    }
    Ok(())
}

fn parse_args(args: Vec<String>) -> Result<(ServeBenchOptions, Option<PathBuf>), String> {
    let mut options = ServeBenchOptions::default();
    let mut out = Some(PathBuf::from("target/experiments/BENCH_serve.json"));
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--readers" => {
                let list = value_of("--readers")?;
                options.reader_counts = list
                    .split(',')
                    .map(|r| r.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("invalid --readers list {list:?}"))?;
                if options.reader_counts.is_empty() {
                    return Err("--readers needs a comma-separated list of counts".into());
                }
            }
            "--window" => {
                options.window = value_of("--window")?
                    .parse()
                    .map_err(|_| "invalid --window value".to_string())?;
                if options.window == 0 {
                    return Err("--window must be positive".into());
                }
            }
            "--batch" => {
                options.batch = value_of("--batch")?
                    .parse()
                    .map_err(|_| "invalid --batch value".to_string())?;
                if options.batch == 0 {
                    return Err("--batch must be positive".into());
                }
            }
            "--epochs" => {
                options.epochs = value_of("--epochs")?
                    .parse()
                    .map_err(|_| "invalid --epochs value".to_string())?;
                if options.epochs == 0 {
                    return Err("--epochs must be positive".into());
                }
            }
            "--ring" => {
                options.ring = value_of("--ring")?
                    .parse()
                    .map_err(|_| "invalid --ring value".to_string())?;
                if options.ring == 0 {
                    return Err("--ring must be positive".into());
                }
            }
            "--dc" => {
                options.dc = value_of("--dc")?
                    .parse()
                    .map_err(|_| "invalid --dc value".to_string())?;
                validate_dc(options.dc).map_err(|e| e.to_string())?;
            }
            "--seed" => {
                options.seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value".to_string())?;
            }
            "--out" => out = Some(PathBuf::from(value_of("--out")?)),
            "--no-out" => out = None,
            other => return Err(format!("unrecognised argument {other:?}")),
        }
    }
    if options.batch > options.window {
        return Err(format!(
            "--batch {} exceeds --window {}: a sliding epoch cannot evict more \
             points than the window holds",
            options.batch, options.window
        ));
    }
    if let Some(path) = &out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    Ok((options, out))
}
