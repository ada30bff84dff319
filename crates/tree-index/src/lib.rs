//! # dpc-tree-index
//!
//! Tree-based index structures for Density Peak Clustering (§4 of the paper).
//!
//! List-based indices answer DPC queries very fast but need `Θ(n²)` memory;
//! tree-based spatial indices trade a little query time for near-linear
//! memory and much cheaper construction. This crate provides:
//!
//! * [`Quadtree`] (§4.1) — a point-region quadtree,
//! * [`RTree`] (§4.2) — an R-tree bulk-loaded with the STR packing algorithm,
//! * [`KdTree`] — a k-d tree (not in the paper; ablation/extension),
//! * [`GridIndex`] — a uniform grid (related-work style ablation),
//!
//! all built over the same [`SpatialPartition`] abstraction so that the two
//! DPC queries are implemented exactly once, as [`query::rho`] and
//! [`query::delta`] over a [`dpc_core::Query`]:
//!
//! * the **ρ-query** classifies each node against the query circle as fully
//!   contained / discarded / intersecting (Observation 1) and only descends
//!   into intersecting nodes;
//! * the **δ-query** performs a best-first search with the paper's two
//!   pruning rules — *density pruning* (Lemma 1: skip nodes whose `maxrho` is
//!   below the query point's density) and *distance pruning* (Lemma 2: skip
//!   nodes farther than the best candidate δ found so far).
//!
//! Both answer the points of one leaf together and test each node once
//! against the tight box of those points
//! ([`BoundingBox::min_dist_squared_to_box`],
//! [`BoundingBox::max_dist_squared_to_box`]). The ρ-query runs one
//! traversal per leaf; only at a leaf this group test cannot decide is each
//! point tested and scanned on its own. The δ-query runs one best-first
//! search per leaf: every point starts from the best denser point of its
//! own leaf, a node is pruned by density against the least ρ of the points
//! still searching and by distance against their largest candidate, and a
//! point stops once the popped nodes lie beyond its own candidate. The
//! batch δ reads each leaf densest first from a per-query copy, so a scan
//! stops at the first point that is not denser. Rounded subtraction,
//! squaring and addition are monotone, so the box-to-box bounds hold for
//! every member pair's `fl(d²)`, and both queries stay bit-identical to the
//! brute-force kernels of [`dpc_core::brute`] at every thread count (the
//! [`query`] module docs give the argument).
//!
//! The pruning rules can be switched off individually via
//! [`DeltaQueryConfig`] for the ablation experiments, and every query
//! returns its [`QueryStats`] (nodes visited/pruned, points scanned), which
//! an enabled recorder on the query also receives.
//!
//! [`BoundingBox::min_dist_squared_to_box`]: dpc_core::BoundingBox::min_dist_squared_to_box
//! [`BoundingBox::max_dist_squared_to_box`]: dpc_core::BoundingBox::max_dist_squared_to_box

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod grid;
pub mod kdtree;
pub mod quadtree;
pub mod query;
pub mod rtree;

#[cfg(test)]
pub(crate) mod testutil;

pub use common::{NodeId, SpatialPartition};
pub use grid::{GridConfig, GridIndex};
pub use kdtree::{KdTree, KdTreeConfig};
pub use quadtree::{Quadtree, QuadtreeConfig};
pub use query::{eps_query, DeltaQueryConfig, QueryStats};
pub use rtree::{RTree, RTreeConfig};
