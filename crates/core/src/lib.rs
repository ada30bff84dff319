//! # dpc-core
//!
//! Core model for **Density Peak Clustering** (DPC) and the seam that every
//! index structure in this workspace implements.
//!
//! DPC (Rodriguez & Laio, *Science* 2014) clusters a point set by computing,
//! for every point `p`:
//!
//! * the **local density** `ρ(p)` — the number of other points within the
//!   cut-off distance `dc`, and
//! * the **dependent distance** `δ(p)` — the distance from `p` to its nearest
//!   neighbour of higher density (its *dependent neighbour* `µ(p)`).
//!
//! Cluster centres are the points with both high `ρ` and anomalously large
//! `δ`; every remaining point is assigned to the cluster of its dependent
//! neighbour.
//!
//! The expensive part of DPC is computing `ρ` and `δ` for every point; the
//! paper reproduced by this workspace ("Index-based Solutions for Efficient
//! Density Peak Clustering") accelerates exactly those two queries with list-
//! and tree-based index structures. This crate contains everything that is
//! *independent* of the index choice:
//!
//! * [`Point`], [`Dataset`], [`BoundingBox`] — the data model,
//! * [`Metric`] and the concrete metrics ([`Euclidean`], [`Manhattan`], …),
//!   plus the distance contract every ρ/δ comparison follows ([`metric`],
//!   [`closer`]) and its brute-force kernels ([`brute`]),
//! * [`DensityOrder`] — the total order on densities used for `δ`,
//! * [`DpcIndex`] — the trait implemented by every index, and the [`Query`]
//!   (cut-off, kernel, execution policy, recorder) it answers,
//! * [`ExecPolicy`] and the chunked parallel query engine ([`exec`]),
//! * [`DecisionGraph`] and [`CenterSelection`] — cluster-centre selection,
//! * [`assign_clusters`] / [`Clustering`] — the final assignment step,
//! * [`DpcPipeline`] — an end-to-end convenience wrapper.
//!
//! ## Quick example
//!
//! ```
//! use dpc_core::{Dataset, Point, DpcParams, CenterSelection};
//! use dpc_core::pipeline::cluster_with_index;
//! use dpc_core::naive_reference::NaiveReferenceIndex;
//!
//! // Two well separated blobs of 3 points each.
//! let pts = vec![
//!     Point::new(0.0, 0.0), Point::new(0.1, 0.0), Point::new(0.0, 0.1),
//!     Point::new(9.0, 9.0), Point::new(9.1, 9.0), Point::new(9.0, 9.1),
//! ];
//! let data = Dataset::new(pts);
//! let index = NaiveReferenceIndex::build(&data);
//! let params = DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 2 });
//! let clustering = cluster_with_index(&index, &params).unwrap();
//! assert_eq!(clustering.num_clusters(), 2);
//! assert_eq!(clustering.label(0), clustering.label(1));
//! assert_ne!(clustering.label(0), clustering.label(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod bbox;
pub mod brute;
pub mod cluster;
pub mod dc_estimation;
pub mod decision;
pub mod delta;
pub mod density;
pub mod error;
pub mod exec;
pub mod index;
pub mod kernel;
pub mod metric;
pub mod naive_reference;
pub mod params;
pub mod pipeline;
pub mod point;
pub mod stats;

pub use assign::{assign_clusters, compute_halo, nearest_center, AssignmentOptions};
pub use bbox::BoundingBox;
pub use cluster::{ClusterId, Clustering};
pub use dc_estimation::{estimate_dc, DcEstimation};
pub use decision::{CenterSelection, DecisionGraph};
pub use delta::{DeltaResult, DensityOrder};
pub use density::Rho;
pub use error::{DpcError, Result};
pub use exec::ExecPolicy;
pub use index::{DpcIndex, IndexStats, Query, UpdatableIndex};
pub use kernel::Kernel;
pub use metric::{closer, Chebyshev, Euclidean, Manhattan, Metric, SquaredEuclidean};
pub use params::DpcParams;
pub use pipeline::{cluster_with_index, DpcPipeline, DpcRun};
pub use point::{Dataset, Point, PointId};
pub use stats::MemoryReport;

/// The observability layer a [`Query`] reports to, re-exported so crates
/// that depend only on `dpc-core` can attach a recorder.
pub use dpc_obs as obs;
