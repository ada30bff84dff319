//! # dpc-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§5), plus the parallel-query and streaming throughput
//! sweeps behind `BENCH_parallel.json` and `BENCH_stream.json`.
//!
//! Each experiment lives in [`experiments`] as a `run(&ExperimentConfig)`
//! function returning one or more [`dpc_metrics::ResultTable`]s; the binaries
//! under `src/bin/` are thin wrappers that parse the command line, run one
//! experiment and print/persist its tables, and `src/bin/repro.rs` runs any
//! subset of them.
//!
//! ## Scale
//!
//! The paper's datasets reach 1.26 M points; the list-based indices are
//! `Θ(n²)` in memory and construction, so running the full grid at paper
//! scale is a batch job, not a default. Every experiment therefore accepts a
//! `--scale` factor relative to the paper's dataset sizes
//! ([`ExperimentConfig::scale`], default `0.02`). The *shape* of every result
//! — which index wins, how curves move with `dc`, `w` and `τ` — is preserved
//! at small scale; absolute numbers obviously shrink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod experiments;
pub mod indexes;
pub mod parallel_scaling;
pub mod stream_throughput;

pub use cli::{run_cli, run_repro_cli};
pub use config::ExperimentConfig;
pub use indexes::IndexKind;
pub use parallel_scaling::{ScalingOptions, ScalingReport};
pub use stream_throughput::{StreamBenchOptions, StreamBenchReport};
