//! The generic ρ- and δ-query algorithms shared by all tree indices.
//!
//! These are Algorithms 5 and 6 of the paper, written once against
//! [`SpatialPartition`]:
//!
//! * **ρ-query** (Algorithm 5): depth-first traversal that classifies every
//!   node against the query circle `(p, dc)` — *fully contained* nodes
//!   contribute their point count `nc` wholesale, *discarded* nodes
//!   contribute nothing, and only *intersecting* nodes are descended into
//!   (Observation 1). The traversal is sqrt-free: every comparison is made
//!   between squared distances and a precomputed `dc²` (see the safety
//!   discussion in [`dpc_core::metric`]).
//! * **δ-query** (Algorithm 6): best-first search over nodes ordered by
//!   `dmin(p, node)`, with **density pruning** (Lemma 1: a node whose
//!   `maxrho` is below `ρ(p)` cannot contain the dependent neighbour) and
//!   **distance pruning** (Lemma 2: a node farther than the best candidate δ
//!   cannot improve it). Candidates, heap keys and prune tests are all
//!   squared distances, and one root is taken at the end: the rounded
//!   squared box bound never exceeds a member's `fl(d²)`, so the strict
//!   prune test is exact and the result is the brute-force `(fl(d²), id)`
//!   minimum bit for bit (see the distance contract in [`dpc_core::metric`]).
//!
//! The batch entry points are [`rho`] and [`delta`], one per query and for
//! every kernel; every tree index's [`DpcIndex`](dpc_core::DpcIndex) impl
//! delegates to them, and the updatable ones answer
//! [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets)
//! — δ for a list of points, the streaming engine's repair — through
//! [`delta_targets`], the same search over fewer points. The per-point
//! [`rho_one`], [`weighted_rho_one`], [`delta_one`], [`eps_query`] and
//! [`subtree_max_density`] are the pieces they are built from. Both queries
//! run per point with no data dependency between points, so they
//! parallelise over the chunked engine of [`dpc_core::exec`] under the
//! [`Query`]'s [`ExecPolicy`](dpc_core::ExecPolicy): each worker thread
//! gets its own [`QueryScratch`] — a reusable node stack, best-first heap
//! and [`QueryStats`] — merged deterministically after the join. Results
//! are bit-identical at every thread count.
//!
//! Both return their [`QueryStats`], counted on every call; with an enabled
//! recorder on the query they also publish them as the `query.rho.*` /
//! `query.delta.*` counters, beside one `query.{rho,delta}.chunk` span per
//! worker. Both pruning rules can be disabled individually through
//! [`DeltaQueryConfig`] — that is what the pruning-ablation benchmark
//! measures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dpc_core::{
    brute, closer, Dataset, DeltaResult, DensityOrder, Kernel, Point, PointId, Query, Rho,
};

use crate::common::{NodeId, SpatialPartition};

/// Counters describing how much work a query did. Used by the ablation
/// benchmarks and by tests asserting that pruning actually prunes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes popped/descended into.
    pub nodes_visited: u64,
    /// Nodes skipped because they lie entirely outside the query circle
    /// (ρ-query only).
    pub nodes_discarded: u64,
    /// Nodes counted wholesale because they lie entirely inside the query
    /// circle (ρ-query only).
    pub nodes_fully_contained: u64,
    /// Nodes skipped by density pruning (δ-query only).
    pub nodes_density_pruned: u64,
    /// Nodes skipped by distance pruning (δ-query only).
    pub nodes_distance_pruned: u64,
    /// Individual points compared against the query point.
    pub points_scanned: u64,
}

impl QueryStats {
    /// The sum of the per-worker counters of `scratches`.
    fn sum(scratches: &[QueryScratch]) -> QueryStats {
        let mut stats = QueryStats::default();
        for s in scratches {
            stats.merge(&s.stats);
        }
        stats
    }

    /// Adds another stats record into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.nodes_visited += other.nodes_visited;
        self.nodes_discarded += other.nodes_discarded;
        self.nodes_fully_contained += other.nodes_fully_contained;
        self.nodes_density_pruned += other.nodes_density_pruned;
        self.nodes_distance_pruned += other.nodes_distance_pruned;
        self.points_scanned += other.points_scanned;
    }

    /// Emits every counter into `rec` as `<prefix>.<counter>` metrics, so
    /// traversal statistics show up next to phase timings in a snapshot.
    ///
    /// Does nothing (and allocates nothing) when the recorder is disabled.
    pub fn publish(&self, rec: &dyn dpc_obs::Recorder, prefix: &str) {
        if !rec.enabled() {
            return;
        }
        rec.counter(&format!("{prefix}.nodes_visited"), self.nodes_visited);
        rec.counter(&format!("{prefix}.nodes_discarded"), self.nodes_discarded);
        rec.counter(
            &format!("{prefix}.nodes_fully_contained"),
            self.nodes_fully_contained,
        );
        rec.counter(
            &format!("{prefix}.nodes_density_pruned"),
            self.nodes_density_pruned,
        );
        rec.counter(
            &format!("{prefix}.nodes_distance_pruned"),
            self.nodes_distance_pruned,
        );
        rec.counter(&format!("{prefix}.points_scanned"), self.points_scanned);
    }
}

/// Per-worker reusable traversal state: the depth-first stack of the ρ-query,
/// the best-first heap of the δ-query, and the traversal counters.
///
/// One scratch lives per worker thread (or one for the whole query when
/// sequential) and is reused across every point of that worker's chunk, so
/// the per-point hot loops allocate nothing.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Counters accumulated over every query this scratch served.
    pub stats: QueryStats,
    stack: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(OrdF64, NodeId)>>,
    pairs: Vec<(PointId, f64)>,
}

impl QueryScratch {
    /// A fresh scratch with empty stack, heap and zeroed counters.
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// Configuration of the δ-query; both pruning rules default to enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaQueryConfig {
    /// Lemma 1: skip subtrees whose maximum density is below the query
    /// point's density.
    pub density_pruning: bool,
    /// Lemma 2: skip subtrees whose minimum distance exceeds the best
    /// candidate δ found so far.
    pub distance_pruning: bool,
}

impl Default for DeltaQueryConfig {
    fn default() -> Self {
        DeltaQueryConfig {
            density_pruning: true,
            distance_pruning: true,
        }
    }
}

impl DeltaQueryConfig {
    /// Configuration with every pruning rule disabled (exhaustive best-first
    /// search); the ablation baseline.
    pub fn no_pruning() -> Self {
        DeltaQueryConfig {
            density_pruning: false,
            distance_pruning: false,
        }
    }
}

/// ρ of every point under the query's kernel: [`rho_one`] for the cut-off
/// kernel, [`weighted_rho_one`] otherwise, on the query's workers. Returns
/// the densities and the merged traversal statistics, which an enabled
/// recorder also receives as the `query.rho.*` counters.
pub fn rho<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    query: &Query<'_>,
) -> (Vec<Rho>, QueryStats) {
    let (n, dc, kernel) = (dataset.len(), query.dc, query.kernel);
    let (rho, scratches) = if kernel.is_cutoff() {
        query.fill_rho(n, QueryScratch::new, |p, scratch| {
            rho_one(tree, dataset, p, dc, scratch)
        })
    } else {
        query.fill_rho(n, QueryScratch::new, |p, scratch| {
            weighted_rho_one(tree, dataset, p, dc, kernel, scratch)
        })
    };
    let stats = QueryStats::sum(&scratches);
    stats.publish(query.recorder, "query.rho");
    (rho, stats)
}

/// ρ of a single point: counts points strictly within `dc`, excluding the
/// point itself. Sqrt-free: all comparisons are against `dc²`.
pub fn rho_one<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    p: PointId,
    dc: f64,
    scratch: &mut QueryScratch,
) -> Rho {
    let Some(root) = tree.root() else { return 0.0 };
    let query = dataset.point(p);
    let pts = dataset.points();
    let dc2 = dc * dc;
    let stats = &mut scratch.stats;
    // Count all points (including p itself, which is trivially within dc of
    // itself) and subtract 1 at the end; this lets fully-contained nodes be
    // added wholesale without worrying about which node holds p.
    let mut count = 0usize;
    let stack = &mut scratch.stack;
    stack.clear();
    stack.push(root);
    while let Some(node) = stack.pop() {
        stats.nodes_visited += 1;
        let bbox = tree.bbox(node);
        if bbox.min_dist_squared(query) >= dc2 {
            stats.nodes_discarded += 1;
            continue;
        }
        if bbox.max_dist_squared(query) < dc2 {
            stats.nodes_fully_contained += 1;
            count += tree.point_count(node);
            continue;
        }
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                stats.points_scanned += 1;
                if pts[q as usize].distance_squared(&query) < dc2 {
                    count += 1;
                }
            }
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }
    // `count` includes p itself (distance 0 < dc always holds for dc > 0).
    (count.saturating_sub(1)) as Rho
}

/// Kernel-weighted ρ of a single point: sums `w(d)` over all points strictly
/// within `dc`, excluding the point itself.
///
/// Unlike [`rho_one`] there is no fully-contained shortcut — every in-range
/// neighbour's distance feeds the kernel — so the traversal mirrors
/// [`eps_query`]: prune nodes entirely outside the circle (and nodes emptied
/// by deletions), scan surviving leaves. Collected `(id, d²)` pairs are
/// sorted by id and summed ascending, the canonical order of
/// [`dpc_core::brute::weighted_rho_scan`], so the result is bit-identical to
/// the brute-force scan.
pub fn weighted_rho_one<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    p: PointId,
    dc: f64,
    kernel: Kernel,
    scratch: &mut QueryScratch,
) -> Rho {
    let Some(root) = tree.root() else { return 0.0 };
    let query = dataset.point(p);
    let pts = dataset.points();
    let dc2 = dc * dc;
    let stats = &mut scratch.stats;
    let pairs = &mut scratch.pairs;
    pairs.clear();
    let stack = &mut scratch.stack;
    stack.clear();
    stack.push(root);
    while let Some(node) = stack.pop() {
        stats.nodes_visited += 1;
        if tree.point_count(node) == 0 || tree.bbox(node).min_dist_squared(query) >= dc2 {
            stats.nodes_discarded += 1;
            continue;
        }
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                let q = q as PointId;
                if q == p {
                    continue;
                }
                stats.points_scanned += 1;
                let d2 = pts[q].distance_squared(&query);
                if d2 < dc2 {
                    pairs.push((q, d2));
                }
            }
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }
    pairs.sort_unstable_by_key(|&(q, _)| q);
    let mut mass = 0.0f64;
    for &(_, d2) in pairs.iter() {
        mass += kernel.weight_from_sq(d2);
    }
    mass
}

/// Ids of all points strictly within `eps` of `center`, ascending — the
/// ε-range query behind [`dpc_core::UpdatableIndex::eps_neighbors`], written
/// once against [`SpatialPartition`] so every tree index answers it through
/// its own structure.
///
/// The traversal mirrors the ρ-query's pruning (skip nodes entirely outside
/// the query circle, sqrt-free comparisons against `eps²`) but must visit
/// every surviving leaf to collect ids, so there is no fully-contained
/// shortcut. Nodes with a zero point count (emptied by deletions but not yet
/// compacted) are skipped outright, which is what keeps deleted points
/// invisible regardless of how conservative the node's stale bounding box is.
pub fn eps_query<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    center: Point,
    eps: f64,
) -> Vec<PointId> {
    let mut out = Vec::new();
    let Some(root) = tree.root() else {
        return out;
    };
    let pts = dataset.points();
    let eps2 = eps * eps;
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        if tree.point_count(node) == 0 || tree.bbox(node).min_dist_squared(center) >= eps2 {
            continue;
        }
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                if pts[q as usize].distance_squared(&center) < eps2 {
                    out.push(q as PointId);
                }
            }
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }
    out.sort_unstable();
    out
}

/// Computes, for every node, the maximum density of any point stored in its
/// subtree (the `maxrho` annotation of Lemma 1). Returned as a vector indexed
/// by [`NodeId`]; nodes with no points get 0.
pub fn subtree_max_density<T: SpatialPartition + ?Sized>(tree: &T, rho: &[Rho]) -> Vec<Rho> {
    let mut maxrho = vec![0 as Rho; tree.num_nodes()];
    let Some(root) = tree.root() else {
        return maxrho;
    };
    // Iterative post-order: process children before parents.
    let mut order: Vec<NodeId> = Vec::with_capacity(tree.num_nodes());
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        order.push(node);
        stack.extend_from_slice(tree.children(node));
    }
    for &node in order.iter().rev() {
        let mut best = 0 as Rho;
        for &q in tree.points(node) {
            best = best.max(rho[q as usize]);
        }
        for &c in tree.children(node) {
            best = best.max(maxrho[c]);
        }
        maxrho[node] = best;
    }
    maxrho
}

/// δ and µ of every point under the density order of `rho`: the
/// best-first [`delta_one`] with `config`'s pruning, on the query's workers.
/// Returns the result and the merged traversal statistics, which an enabled
/// recorder also receives as the `query.delta.*` counters.
pub fn delta<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    rho: &[Rho],
    config: &DeltaQueryConfig,
    query: &Query<'_>,
) -> (DeltaResult, QueryStats) {
    delta_of(tree, dataset, rho, config, query, dataset.len(), |k| k)
}

/// [`delta`] for the points of `targets` only — entry `k` of the result
/// belongs to `targets[k]` — behind every tree's
/// [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets).
/// The `maxrho` annotation is built once per call, for the whole tree.
pub fn delta_targets<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    rho: &[Rho],
    config: &DeltaQueryConfig,
    query: &Query<'_>,
    targets: &[PointId],
) -> (DeltaResult, QueryStats) {
    delta_of(tree, dataset, rho, config, query, targets.len(), |k| {
        targets[k]
    })
}

/// The δ-query over `n` points, the `k`-th of which is `id(k)`.
fn delta_of<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    rho: &[Rho],
    config: &DeltaQueryConfig,
    query: &Query<'_>,
    n: usize,
    id: impl Fn(usize) -> PointId + Sync,
) -> (DeltaResult, QueryStats) {
    let order = DensityOrder::new(rho);
    let maxrho = subtree_max_density(tree, rho);
    let (result, scratches) = query.fill_delta(n, QueryScratch::new, |k, scratch| {
        delta_one(tree, dataset, &order, &maxrho, id(k), config, scratch)
    });
    let stats = QueryStats::sum(&scratches);
    stats.publish(query.recorder, "query.delta");
    (result, stats)
}

/// Ordered f64 wrapper so `BinaryHeap` can prioritise by `dmin²`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// δ and µ of a single point — the best-first search of Algorithm 6.
///
/// Every comparison is in squared space under the workspace's distance
/// contract: candidates are ranked by [`closer`] on `(fl(d²), id)`, nodes
/// are keyed and pruned on [`BoundingBox::min_dist_squared`], and the only
/// root is the one taken of the winning `fl(d²)`.
///
/// [`BoundingBox::min_dist_squared`]: dpc_core::BoundingBox::min_dist_squared
pub fn delta_one<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    maxrho: &[Rho],
    p: PointId,
    config: &DeltaQueryConfig,
    scratch: &mut QueryScratch,
) -> (f64, Option<PointId>) {
    let Some(root) = tree.root() else {
        return (0.0, None);
    };
    let query = dataset.point(p);
    let pts = dataset.points();
    let rho_p = order.rho()[p];
    let stats = &mut scratch.stats;

    let mut best_d2 = f64::INFINITY;
    let mut best_q: Option<PointId> = None;

    // Min-heap on dmin²: the node most likely to contain the dependent
    // neighbour is explored first, so the candidate δ shrinks quickly and
    // distance pruning bites early. The heap is per-worker scratch — cleared
    // (it may hold leftovers from an early-terminated previous query) but
    // never re-allocated.
    let heap = &mut scratch.heap;
    heap.clear();
    heap.push(Reverse((
        OrdF64(tree.bbox(root).min_dist_squared(query)),
        root,
    )));

    while let Some(Reverse((OrdF64(dmin2), node))) = heap.pop() {
        // Strict `>`: a node at exactly the best d² may still hold a
        // candidate with a smaller id.
        if config.distance_pruning && dmin2 > best_d2 {
            // The heap is ordered by dmin², so every remaining node is at
            // least this far: nothing can improve the candidate any more.
            stats.nodes_distance_pruned += heap.len() as u64 + 1;
            break;
        }
        stats.nodes_visited += 1;
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                let q = q as PointId;
                stats.points_scanned += 1;
                if q == p || !order.is_denser(q, p) {
                    continue;
                }
                let d2 = pts[q].distance_squared(&query);
                if closer(d2, q, best_d2, best_q) {
                    best_d2 = d2;
                    best_q = Some(q);
                }
            }
        } else {
            for &c in tree.children(node) {
                if config.density_pruning && maxrho[c] < rho_p {
                    stats.nodes_density_pruned += 1;
                    continue;
                }
                let child_dmin2 = tree.bbox(c).min_dist_squared(query);
                if config.distance_pruning && child_dmin2 > best_d2 {
                    stats.nodes_distance_pruned += 1;
                    continue;
                }
                heap.push(Reverse((OrdF64(child_dmin2), c)));
            }
        }
    }

    match best_q {
        Some(q) => (best_d2.sqrt(), Some(q)),
        // No denser point exists: p is the global peak, whose δ (the largest
        // distance to any other point) only a full scan can give.
        None => brute::delta_one(dataset, order, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_partition_invariants;
    use crate::testutil::FlatPartition;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::{DpcIndex, ExecPolicy};
    use dpc_datasets::generators::{query as query_dataset, s1};

    #[test]
    fn generic_queries_match_reference_on_flat_partition() {
        let data = s1(7, 0.04).into_dataset(); // 200 points
        let part = FlatPartition::strips(&data, 120_000.0);
        check_partition_invariants(&part, &data);
        let config = DeltaQueryConfig::default();
        for dc in [10_000.0, 60_000.0, 400_000.0] {
            let query = Query::new(dc);
            let (ref_rho, ref_delta) = NaiveReferenceIndex::build(&data).rho_delta(&query).unwrap();
            let (rho, _) = rho(&part, &data, &query);
            assert_eq!(rho, ref_rho, "dc = {dc}");
            let (deltas, _) = delta(&part, &data, &rho, &config, &query);
            assert_eq!(deltas, ref_delta, "dc = {dc}");
        }
    }

    #[test]
    fn parallel_queries_are_bit_identical_to_sequential() {
        let data = query_dataset(3, 0.004).into_dataset(); // 200 points
        let part = FlatPartition::strips(&data, 0.05);
        let seq = Query::new(0.02);
        let config = DeltaQueryConfig::default();
        let (seq_rho, seq_rho_stats) = rho(&part, &data, &seq);
        let (seq_delta, seq_delta_stats) = delta(&part, &data, &seq_rho, &config, &seq);
        for threads in [1usize, 2, 3, 7, 64] {
            let query = seq.with_exec(ExecPolicy::Threads(threads));
            let (par_rho, rho_stats) = rho(&part, &data, &query);
            assert_eq!(par_rho, seq_rho, "threads = {threads}");
            assert_eq!(rho_stats, seq_rho_stats, "threads = {threads}");
            let (par_delta, delta_stats) = delta(&part, &data, &seq_rho, &config, &query);
            assert_eq!(par_delta.delta, seq_delta.delta, "threads = {threads}");
            assert_eq!(par_delta.mu, seq_delta.mu, "threads = {threads}");
            // Distance pruning's "rest of the heap" counter depends on how
            // many nodes are still queued at the early exit, which is
            // per-point state — identical regardless of the partitioning.
            assert_eq!(delta_stats, seq_delta_stats, "threads = {threads}");
        }
    }

    #[test]
    fn disabling_pruning_gives_identical_results_but_more_work() {
        let data = query_dataset(13, 0.006).into_dataset(); // 300 points
        let part = FlatPartition::strips(&data, 0.07);
        let query = Query::new(0.02);
        let (rho, _) = rho(&part, &data, &query);
        let pruned = DeltaQueryConfig::default();
        let (with_pruning, stats_pruned) = delta(&part, &data, &rho, &pruned, &query);
        let exhaustive = DeltaQueryConfig::no_pruning();
        let (without_pruning, stats_full) = delta(&part, &data, &rho, &exhaustive, &query);

        assert_eq!(with_pruning.mu, without_pruning.mu);
        assert!(
            stats_pruned.points_scanned < stats_full.points_scanned,
            "pruning must reduce the number of points scanned ({} vs {})",
            stats_pruned.points_scanned,
            stats_full.points_scanned
        );
    }

    #[test]
    fn weighted_rho_matches_scan_and_is_thread_invariant() {
        let data = query_dataset(5, 0.004).into_dataset(); // 200 points
        let part = FlatPartition::strips(&data, 0.05);
        for kernel in [Kernel::gaussian(0.01), Kernel::exponential(0.02)] {
            let query = Query::new(0.02).with_kernel(kernel);
            let expected = brute::weighted_rho_scan(&data, &query);
            let (seq, stats) = rho(&part, &data, &query);
            assert_eq!(seq, expected, "{}", kernel.name());
            assert!(stats.nodes_discarded > 0, "traversal must prune");
            for threads in [2usize, 7] {
                let threaded = query.with_exec(ExecPolicy::Threads(threads));
                let (par, _) = rho(&part, &data, &threaded);
                assert_eq!(par, seq, "{} threads = {threads}", kernel.name());
            }
        }
    }

    #[test]
    fn rho_query_prunes_disjoint_and_contained_nodes() {
        let data = s1(19, 0.04).into_dataset();
        let part = FlatPartition::strips(&data, 100_000.0);
        let (_, stats_small) = rho(&part, &data, &Query::new(5_000.0));
        assert!(stats_small.nodes_discarded > 0);
        let diameter = data.bbox_diameter() * 1.01;
        let (rho_l, stats_large) = rho(&part, &data, &Query::new(diameter));
        assert!(stats_large.nodes_fully_contained > 0);
        assert!(rho_l.iter().all(|&r| r as usize == data.len() - 1));
    }

    #[test]
    fn subtree_max_density_is_max_over_members() {
        let data = s1(23, 0.02).into_dataset();
        let part = FlatPartition::strips(&data, 150_000.0);
        let (rho, _) = rho(&part, &data, &Query::new(40_000.0));
        let maxrho = subtree_max_density(&part, &rho);
        let root = part.root().unwrap();
        assert_eq!(maxrho[root], rho.iter().copied().fold(0.0f64, f64::max));
        for (node, &got) in maxrho.iter().enumerate().skip(1) {
            let expected = part
                .points(node)
                .iter()
                .map(|&q| rho[q as usize])
                .fold(0.0f64, f64::max);
            assert_eq!(got, expected, "node {node}");
        }
    }

    #[test]
    fn eps_query_matches_linear_scan() {
        let data = s1(29, 0.05).into_dataset(); // 250 points
        let part = FlatPartition::strips(&data, 130_000.0);
        for (center, eps) in [
            (data.point(3), 40_000.0),
            (data.point(100), 250_000.0),
            (dpc_core::Point::new(0.0, 0.0), 90_000.0),
        ] {
            let got = eps_query(&part, &data, center, eps);
            let expected = brute::eps_neighbors_scan(&data, center, eps).unwrap();
            assert_eq!(got, expected, "eps = {eps}");
        }
    }

    #[test]
    fn empty_tree_queries_are_empty() {
        let data = Dataset::new(vec![]);
        let part = FlatPartition::strips(&data, 1.0);
        let query = Query::new(1.0);
        let (rho, _) = rho(&part, &data, &query);
        assert!(rho.is_empty());
        let (deltas, _) = delta(&part, &data, &rho, &DeltaQueryConfig::default(), &query);
        assert!(deltas.is_empty());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = QueryStats {
            nodes_visited: 1,
            points_scanned: 5,
            ..Default::default()
        };
        let b = QueryStats {
            nodes_visited: 2,
            nodes_discarded: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes_visited, 3);
        assert_eq!(a.nodes_discarded, 3);
        assert_eq!(a.points_scanned, 5);
    }
}
