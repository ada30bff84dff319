//! # dpc-baseline
//!
//! The original Density Peak Clustering algorithm of Rodriguez & Laio, used
//! by the paper as the baseline for every experiment.
//!
//! [`LeanDpc`] recomputes distances on the fly (`O(1)` extra memory per
//! query, `Θ(n²)` time per query); this is what the paper runs as "DPC". It
//! implements [`dpc_core::DpcIndex`], so it can be dropped anywhere an index
//! is expected, and wraps the [`dpc_core::brute`] kernels, so a
//! [`Query`](dpc_core::Query) with
//! [`ExecPolicy::Threads`](dpc_core::ExecPolicy::Threads) spreads its
//! per-point loops over the shared chunked engine of [`dpc_core::exec`] —
//! the parallel brute-force reference point of the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lean;

pub use lean::LeanDpc;
