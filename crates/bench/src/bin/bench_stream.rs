//! `bench_stream`: measures the sliding-window throughput of the streaming
//! engine's incremental maintenance and writes the `BENCH_stream.json`
//! snapshot.
//!
//! ```text
//! bench_stream [--engines grid,kdtree] [--windows 1000,4000]
//!              [--batches 1,64] [--kernels cutoff,gaussian[:H],exponential[:H]]
//!              [--updates N] [--dc F] [--seed S] [--threads N]
//!              [--out FILE | --no-out]
//! ```
//!
//! `--engine` is an alias of `--engines`; both take a comma-separated list
//! of updatable index families. `--batches` (alias `--batch`) sweeps the
//! epoch batch size: 1 is per-update maintenance, larger values amortise
//! the ρ/δ repairs and the clustering over whole epochs; no batch may exceed
//! the smallest window. `--kernels` (alias `--kernel`) sweeps density
//! kernels: the default is the paper-faithful cut-off alone, and a weighted
//! kernel without an explicit `:H` bandwidth uses `H = dc`. The committed
//! snapshot at the repository root is produced with `--kernels
//! cutoff,gaussian --out BENCH_stream.json`; CI runs tiny smoke invocations
//! so the benchmark cannot rot.

use std::path::PathBuf;

use dpc_bench::stream_throughput::{parse_kernel_spec, run, StreamBenchOptions, StreamEngine};
use dpc_core::index::validate_dc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_with_args(args) {
        Ok(()) => {}
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: bench_stream [--engines grid,kdtree] [--windows 1000,4000] \
                 [--batches 1,64] [--kernels cutoff,gaussian[:H],exponential[:H]] [--updates N] \
                 [--dc F] [--seed S] [--threads N] [--out FILE | --no-out]"
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

fn parse_args(args: Vec<String>) -> Result<(StreamBenchOptions, Option<PathBuf>), String> {
    let mut options = StreamBenchOptions::default();
    let mut out = Some(PathBuf::from("target/experiments/BENCH_stream.json"));
    // Kernel specs are resolved after the loop: a weighted kernel without an
    // explicit bandwidth defaults to `dc`, which may be set by a later flag.
    let mut kernel_specs: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--engines" | "--engine" => {
                let list = value_of("--engines")?;
                options.engines = list
                    .split(',')
                    .map(StreamEngine::parse)
                    .collect::<Result<Vec<_>, _>>()?;
                if options.engines.is_empty() {
                    return Err("--engines needs a comma-separated list of engines".into());
                }
            }
            "--windows" => {
                let list = value_of("--windows")?;
                options.windows = list
                    .split(',')
                    .map(|w| w.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("invalid --windows list {list:?}"))?;
                if options.windows.is_empty() || options.windows.contains(&0) {
                    return Err("--windows needs a comma-separated list of positive sizes".into());
                }
            }
            "--batches" | "--batch" => {
                let list = value_of("--batches")?;
                options.batches = list
                    .split(',')
                    .map(|b| b.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("invalid --batches list {list:?}"))?;
                if options.batches.is_empty() || options.batches.contains(&0) {
                    return Err("--batches needs a comma-separated list of positive sizes".into());
                }
            }
            "--kernels" | "--kernel" => kernel_specs = Some(value_of("--kernels")?),
            "--updates" => {
                options.updates = value_of("--updates")?
                    .parse()
                    .map_err(|_| "invalid --updates value".to_string())?;
                if options.updates == 0 {
                    return Err("--updates must be positive".into());
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
            "--threads" => {
                options.threads = value_of("--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads value".to_string())?;
                if options.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--out" => out = Some(PathBuf::from(value_of("--out")?)),
            "--no-out" => out = None,
            other => return Err(format!("unrecognised argument {other:?}")),
        }
    }
    let max_batch = options.batches.iter().copied().max().unwrap_or(0);
    let min_window = options.windows.iter().copied().min().unwrap_or(0);
    if max_batch > min_window {
        return Err(format!(
            "--batches {max_batch} exceeds the smallest --windows {min_window}: a sliding \
             epoch cannot evict more points than the window holds"
        ));
    }
    if let Some(list) = kernel_specs {
        options.kernels = list
            .split(',')
            .map(|spec| parse_kernel_spec(spec, options.dc))
            .collect::<Result<Vec<_>, _>>()?;
        if options.kernels.is_empty() {
            return Err("--kernels needs a comma-separated list of kernels".into());
        }
    }
    if let Some(path) = &out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    Ok((options, out))
}
