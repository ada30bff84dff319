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
//!   their minimum squared distance from the query, with **density
//!   pruning** (Lemma 1: a node whose `maxrho` is below `ρ(p)` cannot
//!   contain the dependent neighbour) and **distance pruning** (Lemma 2: a
//!   node farther than the best candidate δ cannot improve it). Candidates,
//!   heap keys and prune tests are all squared distances, and one root is
//!   taken at the end: the rounded squared box bound never exceeds a
//!   member's `fl(d²)`, so the strict prune test is exact and the result is
//!   the brute-force `(fl(d²), id)` minimum bit for bit (see the distance
//!   contract in [`dpc_core::metric`]).
//!
//! # A leaf at a time
//!
//! The batch entry points [`rho`] and [`delta`] walk the tree's leaves once
//! per query and answer the points of each leaf together, as one *leaf
//! group*; [`delta_targets`] groups its targets by the leaf that holds them.
//! Each group carries its tight box `B`, the smallest box holding its
//! members, computed once when the group is formed, and both queries test
//! nodes against it:
//!
//! * **ρ** runs one traversal per group. A node whose box-to-box minimum
//!   squared distance from `B` is at least `dc²` is discarded for the whole
//!   group; with the cut-off kernel, a node whose box-to-box maximum is below
//!   `dc²` is counted in full for every member. Only at a leaf this group
//!   test cannot decide does each member run the per-point test against the
//!   leaf's box and scan it. The weighted kernels take the same traversal
//!   without the count-in-full shortcut; each member collects its in-range
//!   pairs and sums their weights in ascending id order, the canonical order
//!   of [`dpc_core::brute::weighted_rho_scan`].
//! * **δ** runs one best-first search per group, keyed by
//!   `B.min_dist_squared_to_box(N)` for a node `N`. Every member first takes
//!   the best denser point of its own leaf as its candidate and is *open*.
//!   A child is density-pruned when its `maxrho` is below the least ρ of the
//!   open members, and distance-pruned when its key is above their largest
//!   candidate `fl(d²)`; a member closes once a popped key exceeds its own
//!   candidate, and the search ends when every member has closed. A popped
//!   leaf is scanned by the open members it could improve — those no denser
//!   than its `maxrho` and within their candidate of its box — for the
//!   points denser than each.
//!
//! The batch δ scans leaves through a per-query layout that stores each
//! leaf's points contiguously as `(x, y, ρ, id)`, densest first by
//! [`DensityOrder::key`], so a member's own-leaf seed is the prefix before
//! it and every other scan stops at the first point that is not denser.
//! [`delta_targets`] — δ for a list of points, behind
//! [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets)
//! and the streaming engine's repair — takes each target's leaf from the
//! index's own map and scans the tree's own id lists, one pass per leaf
//! that offers each point to every scanning member: a few targets do not
//! pay back a layout of the whole window.
//!
//! **Exactness of ρ.** The box-to-box bounds are
//! [`BoundingBox::min_dist_squared_to_box`] and
//! [`BoundingBox::max_dist_squared_to_box`]. For a member `p` of `B` and a
//! point `q` of a node's box, the axis gap between the boxes' facing sides
//! is at most `|fl(q.x − p.x)|`, and the span between their far sides at
//! least that, because rounded subtraction is monotone in each operand;
//! rounded squaring is monotone in the magnitude, and rounded addition in
//! each operand. So the minimum bound never exceeds any member pair's
//! `fl(d²)` and the maximum bound never falls below it: a group discard
//! drops only pairs with `fl(d²) ≥ dc²`, and a count in full counts only
//! pairs with `fl(d²) < dc²`, as the brute-force partition does. The same
//! argument puts each group bound outside the member's own point-to-box
//! bound, so the group test decides a node only where every member's own
//! test would decide it the same way: each member's ρ and `points_scanned`
//! are what a traversal of its own would give, whatever box holds the
//! members.
//!
//! **Exactness of δ.** The result is the brute-force `(fl(d²), id)` minimum
//! over the denser points ([`closer`]) for every member, in five steps:
//!
//! 1. *Group Lemma 1.* If a node's `maxrho` is below the least ρ among the
//!    open members, it holds no point denser than any open member. The
//!    strict `<` keeps id ties.
//! 2. *Group Lemma 2.* The monotone bound above puts
//!    `B.min_dist_squared_to_box(N)` at or below every member pair's
//!    `fl(d²)`. So a child whose key is above the largest open candidate
//!    cannot win under [`closer`]'s strict order.
//! 3. *Closing.* Take any point that would improve member `p`. Every node
//!    on the path to it has a key no larger than that pair's `fl(d²)`, which
//!    is no larger than `p`'s candidate, and by steps 1 and 2 none of them
//!    is pruned while `p` is open. So that node pops before `p` closes.
//! 4. *Sorted prefix.* `key(q) > key(p)` holds exactly when
//!    `is_denser(q, p)` does, so the points denser than `p` are a prefix of
//!    each leaf's layout. [`closer`]'s `(fl(d²), id)` minimum does not
//!    depend on the scan order.
//! 5. *Group of one.* A group holding a single target is exactly the
//!    per-point search of Algorithm 6. Its box is the point itself, so its
//!    keys equal the point-to-box bounds.
//!
//! A member with no denser point anywhere is the global peak, whose δ is the
//! largest distance to any other point. A second best-first search finds
//! it, the farthest point first: nodes are keyed by
//! [`BoundingBox::max_dist_squared`] from the peak, largest first, empty
//! nodes are skipped, and the search stops once the largest queued key is
//! at most the best `fl(d²)` found. That is Lemma 2 with the bound
//! reversed, and it is exact for the same reason: rounded subtraction is
//! monotone in each operand, so the key never falls below the `fl(d²)` of
//! any point of the node, and a node whose key is at most the best cannot
//! raise it. Only the largest value matters, not which point gives it, so
//! the root of that maximum is the brute-force sentinel bit for bit (the
//! peak itself adds `fl(d²) = 0`, which never raises a maximum that starts
//! at 0). This search counts nothing in [`QueryStats`].
//!
//! **Threads.** The group-ordered result slots go through
//! [`dpc_core::exec::fill_chunks`] as storage that may only be cut between
//! two groups, and are scattered back to their owners after the join. Each
//! group is answered once, by one worker, at any thread count, so ρ, δ, µ
//! and every [`QueryStats`] count are identical at every thread count.
//! Every worker gets its own scratch — a reusable node stack, best-first
//! heap, open-member list and [`QueryStats`] — merged deterministically
//! after the join.
//!
//! Both return their [`QueryStats`], counted on every call; with an enabled
//! recorder on the query they also publish them as the `query.rho.*` /
//! `query.delta.*` counters, beside one `query.{rho,delta}.chunk` span per
//! worker. The node counters of both queries count once per group;
//! `points_scanned` counts per member: the points each ρ member compares at
//! the leaves the group test left undecided, and the denser points each δ
//! member compares. Both pruning rules can be disabled individually
//! through [`DeltaQueryConfig`] — that is what the pruning-ablation
//! benchmark measures; without distance pruning no member closes early.
//! [`eps_query`] and [`subtree_max_density`] are the other traversals the
//! indexes share.
//!
//! [`BoundingBox::min_dist_squared_to_box`]: dpc_core::BoundingBox::min_dist_squared_to_box
//! [`BoundingBox::max_dist_squared_to_box`]: dpc_core::BoundingBox::max_dist_squared_to_box

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dpc_core::exec::{self, Slots};
use dpc_core::{
    closer, BoundingBox, Dataset, DeltaResult, DensityOrder, Kernel, Point, PointId, Query, Rho,
};

use crate::common::{NodeId, SpatialPartition};

/// Counters describing how much work a query did. Used by the ablation
/// benchmarks and by tests asserting that pruning actually prunes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes popped/descended into.
    pub nodes_visited: u64,
    /// Nodes skipped because they lie entirely outside the query circle of
    /// every point of a leaf group (ρ-query only).
    pub nodes_discarded: u64,
    /// Nodes counted wholesale because they lie entirely inside the query
    /// circle of every point of a leaf group (ρ-query only).
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

/// Per-worker reusable traversal state: the depth-first stack of the ρ-query
/// and the leaves its group test left undecided, the weighted kernels'
/// pairs, the best-first heap and open members of the δ-query, and the
/// traversal counters.
///
/// One scratch lives per worker thread (or one for the whole query when
/// sequential) and is reused across every group of that worker's chunk, so
/// the hot loops allocate nothing once warm.
#[derive(Debug, Default)]
struct QueryScratch {
    /// Counters accumulated over every query this scratch served.
    stats: QueryStats,
    stack: Vec<NodeId>,
    undecided: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(OrdF64, NodeId)>>,
    pairs: Vec<(PointId, f64)>,
    open: Vec<Member>,
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

/// ρ of every point under the query's kernel, a leaf group at a time on
/// the query's workers (see the [module docs](self)). Returns the densities
/// and the merged traversal statistics, which an enabled recorder also
/// receives as the `query.rho.*` counters.
pub fn rho<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    query: &Query<'_>,
) -> (Vec<Rho>, QueryStats) {
    let (dc2, kernel) = (query.dc * query.dc, query.kernel);
    let groups = leaf_groups(tree, dataset);
    let (slots, scratches) = by_leaf(&groups, query, "query.rho.chunk", |group, out, scratch| {
        rho_group(tree, dataset, group, dc2, kernel, out, scratch)
    });
    let stats = QueryStats::sum(&scratches);
    stats.publish(query.recorder, "query.rho");
    (scatter(&slots, member_ids(&groups), dataset.len()), stats)
}

/// ρ of every member of `group`, into `out` in member order: one traversal
/// tests each node against the group's box, and each member tests and
/// scans only the leaves it left undecided.
///
/// The cut-off count includes the member itself (distance 0 is within any
/// `dc`), which lets nodes be counted in full without asking which one
/// holds it, and subtracts it at the end. The weighted sum skips the member
/// and adds its pairs' weights in ascending id order.
fn rho_group<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    group: &LeafGroup<'_>,
    dc2: f64,
    kernel: Kernel,
    out: &mut [Rho],
    scratch: &mut QueryScratch,
) {
    let Some(root) = tree.root() else { return };
    let QueryScratch {
        stats,
        stack,
        undecided,
        pairs,
        ..
    } = scratch;
    let cutoff = kernel.is_cutoff();
    let mut full = 0usize;
    undecided.clear();
    stack.clear();
    stack.push(root);
    while let Some(node) = stack.pop() {
        stats.nodes_visited += 1;
        let bbox = tree.bbox(node);
        if tree.point_count(node) == 0 || group.bbox.min_dist_squared_to_box(&bbox) >= dc2 {
            stats.nodes_discarded += 1;
        } else if cutoff && group.bbox.max_dist_squared_to_box(&bbox) < dc2 {
            stats.nodes_fully_contained += 1;
            full += tree.point_count(node);
        } else if tree.is_leaf(node) {
            undecided.push(node);
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }

    let pts = dataset.points();
    for (slot, &p) in out.iter_mut().zip(group.members) {
        let p = p as PointId;
        let query = pts[p];
        if cutoff {
            let mut count = full;
            for &node in undecided.iter() {
                let bbox = tree.bbox(node);
                if bbox.min_dist_squared(query) >= dc2 {
                    continue;
                }
                if bbox.max_dist_squared(query) < dc2 {
                    count += tree.point_count(node);
                    continue;
                }
                for &q in tree.points(node) {
                    stats.points_scanned += 1;
                    if pts[q as usize].distance_squared(&query) < dc2 {
                        count += 1;
                    }
                }
            }
            *slot = count.saturating_sub(1) as Rho;
        } else {
            pairs.clear();
            for &node in undecided.iter() {
                if tree.bbox(node).min_dist_squared(query) >= dc2 {
                    continue;
                }
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
            }
            pairs.sort_unstable_by_key(|&(q, _)| q);
            let mut mass = 0.0f64;
            for &(_, d2) in pairs.iter() {
                mass += kernel.weight_from_sq(d2);
            }
            *slot = mass;
        }
    }
}

/// A leaf and the ids of the points one query answers together from it —
/// every point of the leaf for the batch queries, the targets it holds for
/// [`delta_targets`] — with the tight box of those points, which both
/// queries test nodes against.
struct LeafGroup<'a> {
    leaf: NodeId,
    members: &'a [u32],
    bbox: BoundingBox,
}

impl<'a> LeafGroup<'a> {
    fn new(dataset: &Dataset, leaf: NodeId, members: &'a [u32]) -> Self {
        let pts = dataset.points();
        let bbox = members
            .iter()
            .fold(BoundingBox::EMPTY, |bb, &p| bb.extended(pts[p as usize]));
        LeafGroup {
            leaf,
            members,
            bbox,
        }
    }
}

/// Every non-empty leaf of `tree` as a group of all its points, in
/// depth-first order: the groups of the batch queries.
fn leaf_groups<'a, T: SpatialPartition + ?Sized>(
    tree: &'a T,
    dataset: &Dataset,
) -> Vec<LeafGroup<'a>> {
    let mut groups = Vec::new();
    let mut stack: Vec<NodeId> = tree.root().into_iter().collect();
    while let Some(node) = stack.pop() {
        match tree.points(node) {
            [] => stack.extend_from_slice(tree.children(node)),
            members => groups.push(LeafGroup::new(dataset, node, members)),
        }
    }
    groups
}

/// Runs `group(g, out, scratch)` for every group `g` of `groups` — `out`
/// holds one slot per member, in member order — on the query's workers,
/// whose chunks hold whole groups. Returns the slots in group order with
/// the per-worker scratches.
fn by_leaf<V, G>(
    groups: &[LeafGroup<'_>],
    query: &Query<'_>,
    label: &str,
    group: G,
) -> (Vec<V>, Vec<QueryScratch>)
where
    V: Copy + Default + Send,
    G: Fn(&LeafGroup<'_>, &mut [V], &mut QueryScratch) + Sync,
{
    let members = groups.iter().map(|g| g.members.len()).sum();
    let mut slots = vec![V::default(); members];
    let scratches = exec::fill_chunks(
        Groups {
            groups,
            out: &mut slots[..],
        },
        query.exec,
        query.recorder,
        label,
        QueryScratch::default,
        |_, chunk: Groups<'_, V>, scratch| {
            let mut rest = chunk.out;
            for g in chunk.groups {
                let (out, tail) = rest.split_at_mut(g.members.len());
                group(g, out, scratch);
                rest = tail;
            }
        },
    );
    (slots, scratches)
}

/// The ids of the members of `groups`, in group order.
fn member_ids<'a>(groups: &'a [LeafGroup<'_>]) -> impl Iterator<Item = usize> + 'a {
    groups
        .iter()
        .flat_map(|g| g.members.iter().map(|&p| p as usize))
}

/// `n` slots holding the group-ordered `slots`, each moved to its entry of
/// `dest`.
fn scatter<V: Copy + Default>(slots: &[V], dest: impl Iterator<Item = usize>, n: usize) -> Vec<V> {
    let mut out = vec![V::default(); n];
    for (k, &value) in dest.zip(slots) {
        out[k] = value;
    }
    out
}

/// Whole groups for [`exec::fill_chunks`]: the group-ordered slots `out` of
/// `groups`. It cuts only between two groups, so no group straddles two
/// workers.
struct Groups<'a, V> {
    groups: &'a [LeafGroup<'a>],
    out: &'a mut [V],
}

impl<V: Send> Slots for Groups<'_, V> {
    fn len(&self) -> usize {
        self.out.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        // The head takes groups until it holds at least `mid` slots.
        let (mut taken, mut cut) = (0, 0);
        while cut < mid && taken < self.groups.len() {
            cut += self.groups[taken].members.len();
            taken += 1;
        }
        let (groups, rest) = self.groups.split_at(taken);
        let (out, tail) = self.out.split_at_mut(cut);
        (
            Groups { groups, out },
            Groups {
                groups: rest,
                out: tail,
            },
        )
    }
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

/// δ and µ of every point under the density order of `rho`: one
/// best-first search with `config`'s pruning per leaf group, over the
/// densest-first leaf layout, on the query's workers. Returns the result
/// and the merged traversal statistics, which an enabled recorder also
/// receives as the `query.delta.*` counters.
pub fn delta<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    rho: &[Rho],
    config: &DeltaQueryConfig,
    query: &Query<'_>,
) -> (DeltaResult, QueryStats) {
    let groups = leaf_groups(tree, dataset);
    let layout = Layout::new(tree, dataset, &DensityOrder::new(rho), &groups);
    let search = DeltaSearch::new(tree, dataset, rho, config, Some(layout));
    let (slots, scratches) = by_leaf(
        &groups,
        query,
        "query.delta.chunk",
        |group, out, scratch| search.group(group, out, scratch),
    );
    let (delta, mu) = scatter(&slots, member_ids(&groups), dataset.len())
        .into_iter()
        .unzip();
    let stats = QueryStats::sum(&scratches);
    stats.publish(query.recorder, "query.delta");
    (DeltaResult::new(delta, mu), stats)
}

/// [`delta`] with both pruning rules for the points of `targets` only —
/// entry `k` of the result belongs to `targets[k]` — behind every tree's
/// [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets).
/// `leaf_of(p)` is the leaf holding `p`, from the index's own map; the
/// targets one leaf holds, duplicates included, are answered as one group,
/// and the search scans the tree's own id lists. The `maxrho` annotation is
/// built once per call, for the whole tree.
pub fn delta_targets<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    rho: &[Rho],
    query: &Query<'_>,
    targets: &[PointId],
    leaf_of: impl Fn(PointId) -> NodeId,
) -> (DeltaResult, QueryStats) {
    // Target positions sorted by leaf, so each leaf's targets are one run.
    let mut placed: Vec<(NodeId, usize)> = targets
        .iter()
        .enumerate()
        .map(|(k, &p)| (leaf_of(p), k))
        .collect();
    placed.sort_unstable();
    let ids: Vec<u32> = placed.iter().map(|&(_, k)| targets[k] as u32).collect();
    let mut groups = Vec::new();
    let mut start = 0;
    for run in placed.chunk_by(|a, b| a.0 == b.0) {
        let members = &ids[start..start + run.len()];
        groups.push(LeafGroup::new(dataset, run[0].0, members));
        start += run.len();
    }
    let config = DeltaQueryConfig::default();
    let search = DeltaSearch::new(tree, dataset, rho, &config, None);
    let (slots, scratches) = by_leaf(
        &groups,
        query,
        "query.delta.chunk",
        |group, out, scratch| search.group(group, out, scratch),
    );
    let (delta, mu) = scatter(&slots, placed.iter().map(|&(_, k)| k), targets.len())
        .into_iter()
        .unzip();
    let stats = QueryStats::sum(&scratches);
    stats.publish(query.recorder, "query.delta");
    (DeltaResult::new(delta, mu), stats)
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

/// The batch δ's copy of the tree's leaves: each leaf's points stored
/// contiguously, densest first, so a scan reads one run of memory and stops
/// at the first point that is not denser than the member it serves.
struct Layout {
    /// Offset of each leaf's first entry, indexed by [`NodeId`].
    start: Vec<usize>,
    entries: Vec<Entry>,
}

/// A point of the [`Layout`]: its location and its [`DensityOrder::key`],
/// the `(ρ, id)` pair as one totally ordered value.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Point,
    key: (u64, i64),
}

impl Entry {
    /// The point's id, which the key's second half holds negated.
    fn id(&self) -> PointId {
        (-self.key.1) as PointId
    }
}

impl Layout {
    /// Lays out the leaves of `groups`, each sorted by descending key.
    fn new<T: SpatialPartition + ?Sized>(
        tree: &T,
        dataset: &Dataset,
        order: &DensityOrder<'_>,
        groups: &[LeafGroup<'_>],
    ) -> Self {
        let pts = dataset.points();
        let mut start = vec![0; tree.num_nodes()];
        let mut entries = Vec::with_capacity(dataset.len());
        for &LeafGroup { leaf, members, .. } in groups {
            start[leaf] = entries.len();
            entries.extend(members.iter().map(|&q| Entry {
                at: pts[q as usize],
                key: order.key(q as PointId),
            }));
            entries[start[leaf]..].sort_unstable_by_key(|e| Reverse(e.key));
        }
        Layout { start, entries }
    }
}

/// The points of one leaf as a δ scan reads them.
#[derive(Clone, Copy)]
enum LeafPoints<'a> {
    /// The leaf's run of the batch [`Layout`], densest first.
    Sorted(&'a [Entry]),
    /// The tree's own id list, in storage order.
    Ids(&'a [u32]),
}

/// A member of the δ group being answered: its location, density key and
/// ρ, its candidate `(fl(d²), id)` so far, and its result slot.
#[derive(Debug, Clone, Copy)]
struct Member {
    at: Point,
    key: (u64, i64),
    rho: Rho,
    best: (f64, Option<PointId>),
    slot: usize,
}

/// The least ρ and the largest candidate `fl(d²)` of the open members.
fn bounds(open: &[Member]) -> (Rho, f64) {
    open.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(least, reach), m| {
            (least.min(m.rho), reach.max(m.best.0))
        })
}

/// What every δ search of one query shares: the tree and its dataset, the
/// density order, the `maxrho` annotation of Lemma 1, the pruning rules,
/// and the batch δ's leaf layout (`None` scans the tree's id lists).
struct DeltaSearch<'a, T: ?Sized> {
    tree: &'a T,
    dataset: &'a Dataset,
    order: DensityOrder<'a>,
    maxrho: Vec<Rho>,
    config: &'a DeltaQueryConfig,
    layout: Option<Layout>,
}

impl<'a, T: SpatialPartition + ?Sized> DeltaSearch<'a, T> {
    fn new(
        tree: &'a T,
        dataset: &'a Dataset,
        rho: &'a [Rho],
        config: &'a DeltaQueryConfig,
        layout: Option<Layout>,
    ) -> Self {
        DeltaSearch {
            tree,
            dataset,
            order: DensityOrder::new(rho),
            maxrho: subtree_max_density(tree, rho),
            config,
            layout,
        }
    }

    /// δ and µ of every member of `group`, into `out` in member order — the
    /// best-first search of Algorithm 6 for the whole group, seeded with
    /// each member's best denser point of its own leaf (see the
    /// [module docs](self) for why each result is exact).
    ///
    /// Every comparison is in squared space under the workspace's distance
    /// contract: candidates are ranked by [`closer`] on `(fl(d²), id)`,
    /// nodes are keyed and pruned on the group box's
    /// [`BoundingBox::min_dist_squared_to_box`], each member's leaf test is
    /// its own [`BoundingBox::min_dist_squared`], and the only root is the
    /// one taken of each winning `fl(d²)`. The own leaf counts as visited;
    /// a child pruned before it is queued counts as pruned, a popped node
    /// whose `maxrho` fell below the open members' least ρ as
    /// density-pruned, and when the popped key exceeds every open
    /// candidate, the rest of the heap counts as distance-pruned.
    ///
    /// [`BoundingBox::min_dist_squared`]: dpc_core::BoundingBox::min_dist_squared
    fn group(
        &self,
        group: &LeafGroup<'_>,
        out: &mut [(f64, Option<PointId>)],
        scratch: &mut QueryScratch,
    ) {
        let (tree, config) = (self.tree, self.config);
        let Some(root) = tree.root() else { return };
        let QueryScratch {
            stats, heap, open, ..
        } = scratch;
        let (own, pts, rho) = (group.leaf, self.dataset.points(), self.order.rho());
        open.clear();
        open.extend(group.members.iter().enumerate().map(|(slot, &p)| {
            let p = p as PointId;
            Member {
                at: pts[p],
                key: self.order.key(p),
                rho: rho[p],
                best: (f64::INFINITY, None),
                slot,
            }
        }));
        self.scan(self.leaf(own), open, stats);
        stats.nodes_visited += 1;

        // Min-heap on the key: the node most likely to hold a dependent
        // neighbour is explored first, so the candidates shrink quickly and
        // distance pruning bites early. The heap is per-worker scratch —
        // cleared (it may hold leftovers from an early-terminated previous
        // group) but never re-allocated.
        heap.clear();
        if root != own {
            let key = group.bbox.min_dist_squared_to_box(&tree.bbox(root));
            heap.push(Reverse((OrdF64(key), root)));
        }
        let (mut least, mut reach) = bounds(open);
        while let Some(Reverse((OrdF64(key), node))) = heap.pop() {
            if config.distance_pruning {
                // Strict `>`: a node at exactly a candidate's d² may still
                // hold one with a smaller id.
                if key > reach {
                    // The heap is ordered by key, so every remaining node is
                    // at least this far: no open member can improve.
                    stats.nodes_distance_pruned += heap.len() as u64 + 1;
                    break;
                }
                if open.iter().any(|m| m.best.0 < key) {
                    open.retain(|m| {
                        let closes = m.best.0 < key;
                        if closes {
                            out[m.slot] = self.finish(m);
                        }
                        !closes
                    });
                    (least, reach) = bounds(open);
                }
            }
            if config.density_pruning && self.maxrho[node] < least {
                stats.nodes_density_pruned += 1;
                continue;
            }
            stats.nodes_visited += 1;
            if tree.is_leaf(node) {
                // The members this leaf can improve go to the front of
                // `open`, whose order nothing depends on.
                let bbox = tree.bbox(node);
                let mut scanning = 0;
                for i in 0..open.len() {
                    let m = &open[i];
                    if (!config.density_pruning || m.rho <= self.maxrho[node])
                        && (!config.distance_pruning || bbox.min_dist_squared(m.at) <= m.best.0)
                    {
                        open.swap(i, scanning);
                        scanning += 1;
                    }
                }
                self.scan(self.leaf(node), &mut open[..scanning], stats);
                reach = bounds(open).1;
                continue;
            }
            for &c in tree.children(node) {
                if c == own {
                    continue;
                }
                if config.density_pruning && self.maxrho[c] < least {
                    stats.nodes_density_pruned += 1;
                    continue;
                }
                let child_key = group.bbox.min_dist_squared_to_box(&tree.bbox(c));
                if config.distance_pruning && child_key > reach {
                    stats.nodes_distance_pruned += 1;
                    continue;
                }
                heap.push(Reverse((OrdF64(child_key), c)));
            }
        }
        for m in open.iter() {
            out[m.slot] = self.finish(m);
        }
    }

    /// The points of `leaf`, from the layout when the query has one.
    fn leaf(&self, leaf: NodeId) -> LeafPoints<'_> {
        let ids = self.tree.points(leaf);
        match &self.layout {
            Some(layout) => LeafPoints::Sorted(&layout.entries[layout.start[leaf]..][..ids.len()]),
            None => LeafPoints::Ids(ids),
        }
    }

    /// Improves the candidates of `members` with the points of one leaf
    /// that are denser than each; only those count as scanned. A sorted
    /// leaf is scanned once per member, up to the first point that is not
    /// denser; an id list once for all of them, so each point is read once.
    fn scan(&self, points: LeafPoints<'_>, members: &mut [Member], stats: &mut QueryStats) {
        let mut offer = |m: &mut Member, at: Point, q: PointId| {
            stats.points_scanned += 1;
            let d2 = at.distance_squared(&m.at);
            if closer(d2, q, m.best.0, m.best.1) {
                m.best = (d2, Some(q));
            }
        };
        match points {
            LeafPoints::Sorted(entries) => {
                for m in members {
                    for e in entries {
                        if e.key <= m.key {
                            break;
                        }
                        offer(m, e.at, e.id());
                    }
                }
            }
            LeafPoints::Ids(ids) => {
                let pts = self.dataset.points();
                for &q in ids {
                    let q = q as PointId;
                    let (at, key) = (pts[q], self.order.key(q));
                    for m in members.iter_mut() {
                        if key > m.key {
                            offer(m, at, q);
                        }
                    }
                }
            }
        }
    }

    /// `m`'s δ and µ from its final candidate. A member with none is the
    /// global peak, whose δ is the root of its [`farthest`](Self::farthest)
    /// `fl(d²)`, with no µ: `brute::delta_one`'s sentinel bit for bit.
    fn finish(&self, m: &Member) -> (f64, Option<PointId>) {
        match m.best {
            (d2, Some(q)) => (d2.sqrt(), Some(q)),
            (_, None) => (self.farthest(m.at).sqrt(), None),
        }
    }

    /// The largest `fl(d²)` from `from` to any point of the tree, and 0 for
    /// none: a best-first search that pops the node with the largest
    /// [`BoundingBox::max_dist_squared`] first, skips empty nodes, and stops
    /// once no queued node can beat the best (see the [module docs](self)).
    ///
    /// [`BoundingBox::max_dist_squared`]: dpc_core::BoundingBox::max_dist_squared
    fn farthest(&self, from: Point) -> f64 {
        let (tree, pts) = (self.tree, self.dataset.points());
        let key = |node: NodeId| OrdF64(tree.bbox(node).max_dist_squared(from));
        let mut best = 0.0f64;
        let mut heap = BinaryHeap::new();
        heap.extend(tree.root().map(|root| (key(root), root)));
        while let Some((OrdF64(bound), node)) = heap.pop() {
            if bound <= best {
                break;
            }
            for &q in tree.points(node) {
                best = best.max(pts[q as usize].distance_squared(&from));
            }
            for &c in tree.children(node) {
                if tree.point_count(c) > 0 {
                    heap.push((key(c), c));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_partition_invariants;
    use crate::testutil::FlatPartition;
    use dpc_core::brute;
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
            // per-group state — identical regardless of the partitioning.
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
