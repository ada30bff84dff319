//! # dpc-baseline
//!
//! The original Density Peak Clustering algorithm of Rodriguez & Laio, used
//! by the paper as the baseline for every experiment. Two interchangeable
//! variants are provided, all implementing [`dpc_core::DpcIndex`] so they can
//! be dropped anywhere an index is expected:
//!
//! * [`MatrixDpc`] — precomputes the full pairwise squared-distance matrix
//!   (`Θ(n²)` memory). This matches the paper's remark that *"the pairwise
//!   distances can be reused after firstly computed"*: repeated queries for
//!   different `dc` avoid recomputing distances, at a large memory cost.
//! * [`LeanDpc`] — recomputes distances on the fly (`O(1)` extra memory per
//!   query, `Θ(n²)` time per query). This is what the paper actually runs as
//!   "DPC" for datasets where the matrix does not fit. It wraps the
//!   [`dpc_core::brute`] kernels, so a [`Query`](dpc_core::Query) with
//!   [`ExecPolicy::Threads`](dpc_core::ExecPolicy::Threads) spreads its
//!   per-point loops over the shared chunked engine of [`dpc_core::exec`]
//!   — the parallel brute-force reference point of the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lean;
pub mod matrix;

pub use lean::LeanDpc;
pub use matrix::{DistanceMatrix, MatrixDpc};
