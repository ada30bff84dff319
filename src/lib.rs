//! # density-peaks
//!
//! Index-based solutions for efficient **Density Peak Clustering** (DPC) —
//! a from-scratch Rust reproduction of *"Index-based Solutions for Efficient
//! Density Peak Clustering"* (Rasool, Zhou, Chen, Liu, Xu).
//!
//! This umbrella crate re-exports the whole workspace behind one dependency:
//!
//! * [`core`] — the DPC model: points, datasets, ρ/δ, decision graph,
//!   assignment, the [`DpcIndex`](core::DpcIndex) trait and the pipeline;
//! * [`baseline`] — the original O(n²) DPC algorithm, recomputing
//!   distances on the fly;
//! * [`list_index`] — the paper's List Index and Cumulative Histogram Index,
//!   with the approximate RN-List option;
//! * [`tree_index`] — Quadtree, STR R-tree, k-d tree and uniform grid with
//!   the paper's density/distance pruning;
//! * [`stream`] — the streaming engine: epoch-batched inserts/expiries with
//!   affected-union ρ/δ maintenance over any
//!   [`UpdatableIndex`](core::UpdatableIndex);
//! * [`datasets`] — seeded generators reproducing the paper's six evaluation
//!   datasets, plus CSV I/O;
//! * [`metrics`] — pair-counting Precision/Recall/F1, ARI, NMI and result
//!   tables.
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use density_peaks::prelude::*;
//!
//! // Three well-separated blobs.
//! let data = density_peaks::datasets::generators::s1(42, 0.02).into_dataset();
//!
//! // Build an index once, then cluster for any dc without re-indexing.
//! let index = ChIndex::build(&data, 2_000.0);
//! let params = DpcParams::new(30_000.0)
//!     .with_centers(CenterSelection::TopKGamma { k: 15 });
//! let clustering = cluster_with_index(&index, &params).unwrap();
//! assert_eq!(clustering.num_clusters(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpc_baseline as baseline;
pub use dpc_core as core;
pub use dpc_datasets as datasets;
pub use dpc_list_index as list_index;
pub use dpc_metrics as metrics;
pub use dpc_stream as stream;
pub use dpc_tree_index as tree_index;

/// The most commonly used items, re-exported for `use density_peaks::prelude::*`.
pub mod prelude {
    pub use dpc_baseline::LeanDpc;
    pub use dpc_core::{
        cluster_with_index, estimate_dc, CenterSelection, Clustering, Dataset, DcEstimation,
        DpcIndex, DpcParams, DpcPipeline, ExecPolicy, Point, Query, UpdatableIndex,
    };
    pub use dpc_datasets::{DatasetKind, DatasetSpec};
    pub use dpc_list_index::{ChIndex, KnnDpc, ListIndex};
    pub use dpc_metrics::{adjusted_rand_index, pair_counting_scores_for};
    pub use dpc_stream::{ClusterDelta, EpochPlan, StreamParams, StreamingDpc};
    pub use dpc_tree_index::{GridIndex, KdTree, Quadtree, RTree};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_end_to_end_path() {
        let data = crate::datasets::generators::two_moons(400, 0.05, 7).into_dataset();
        let index = RTree::build(&data);
        let params = DpcParams::new(0.25).with_centers(CenterSelection::TopKGamma { k: 2 });
        let clustering = cluster_with_index(&index, &params).unwrap();
        assert_eq!(clustering.num_clusters(), 2);
        assert_eq!(clustering.len(), 400);
    }
}
