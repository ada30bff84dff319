//! A k-d tree index (extension; not part of the paper's evaluation).
//!
//! The paper's reproduction hint ("kd-tree crates available") and its
//! related-work discussion both suggest the k-d tree as the obvious third
//! tree index. It is built here from scratch by recursive median splits on
//! alternating axes, producing a balanced binary tree with tight per-node
//! bounding boxes, and reuses the exact same pruned query algorithms as the
//! quadtree and the R-tree. The ablation benchmark compares it against both.
//!
//! ## Online updates
//!
//! The tree is [`UpdatableIndex`]: inserts route down the stored split
//! planes (extending bounding boxes on the way) and deletions clear the
//! entry out of its leaf, leaving *tombstone structure* behind — empty
//! leaves, conservative bounding boxes and growing imbalance. Two amortised
//! triggers keep that decay bounded, in the spirit of the sparse-search
//! k-d tree of Shan et al. (arXiv:2203.00973). Each runs inside the
//! [`insert`](UpdatableIndex::insert) or [`remove`](UpdatableIndex::remove)
//! that trips it:
//!
//! * **partial rebuild** — after an insert, the highest node on the
//!   insertion path that is overweight (a leaf past its capacity, or an
//!   internal node one of whose children holds more than 3/4 of its live
//!   points — the scapegoat rule) is rebuilt from its surviving points by
//!   fresh median splits;
//! * **full rebuild** — when the number of removals since the last full
//!   rebuild exceeds [`KdTreeConfig::rebuild_dead_fraction`] of the live
//!   size, the whole tree is rebuilt, compacting every tombstone and
//!   re-tightening every box.
//!
//! Queries never see the difference: a deleted point is physically out of
//! its leaf's id list the moment [`UpdatableIndex::remove`] returns, so the
//! generic traversals of [`crate::query`] stay exact between rebuilds —
//! only pruning weakens. Both triggers are observable through
//! [`UpdatableIndex::maintenance_counters`].

use std::time::Duration;

use dpc_core::index::validate_dc;
use dpc_core::{
    BoundingBox, Dataset, DeltaResult, DpcError, DpcIndex, IndexStats, Point, PointId, Query,
    Result, Rho, UpdatableIndex,
};
use dpc_obs::Timer;

use crate::common::{check_partition_invariants, NodeId, SpatialPartition};
use crate::query::{self as tree_query, eps_query, DeltaQueryConfig};

/// Scapegoat weight bound: an internal node is rebuilt when one child holds
/// more than this fraction of its live points.
const REBUILD_IMBALANCE: f64 = 0.75;

/// Configuration of a [`KdTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KdTreeConfig {
    /// Maximum number of points per leaf.
    pub leaf_capacity: usize,
    /// Full-rebuild trigger: rebuild the whole tree when the removals since
    /// the last full rebuild exceed this fraction of the live size.
    pub rebuild_dead_fraction: f64,
}

impl Default for KdTreeConfig {
    fn default() -> Self {
        KdTreeConfig {
            leaf_capacity: 32,
            rebuild_dead_fraction: 0.5,
        }
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        points: Vec<u32>,
    },
    Internal {
        children: [NodeId; 2],
        /// Split axis (0 = x, 1 = y) used to route inserts.
        axis: u8,
        /// Split coordinate: `coord < split` goes left, otherwise right.
        /// Routing is a placement heuristic only — correctness rests on the
        /// [`SpatialPartition`] invariants, not on the split discipline.
        split: f64,
    },
}

#[derive(Debug, Clone)]
struct KdNode {
    bbox: BoundingBox,
    count: usize,
    /// Parent node; the root stores itself.
    parent: NodeId,
    kind: NodeKind,
}

/// The k-d tree index.
#[derive(Debug, Clone)]
pub struct KdTree {
    dataset: Dataset,
    nodes: Vec<KdNode>,
    root: Option<NodeId>,
    /// Leaf currently holding each dense point id.
    leaf_of: Vec<NodeId>,
    /// Arena slots freed by subtree rebuilds, recycled by [`Self::alloc`].
    free: Vec<NodeId>,
    /// Removals since the last full rebuild (the "dead fraction" numerator).
    removed_since_rebuild: usize,
    /// Partial (non-root) rebuilds triggered by overflow or imbalance.
    subtree_rebuilds: u64,
    /// Whole-tree rebuilds (dead-fraction trigger, or a scapegoat at root).
    full_rebuilds: u64,
    config: KdTreeConfig,
    construction_time: Duration,
}

impl KdTree {
    /// Builds a k-d tree with the default configuration.
    pub fn build(dataset: &Dataset) -> Self {
        Self::with_config(dataset, &KdTreeConfig::default())
    }

    /// Builds a k-d tree with an explicit configuration.
    ///
    /// # Panics
    /// Panics if `leaf_capacity` is 0 or `rebuild_dead_fraction` is not
    /// positive.
    pub fn with_config(dataset: &Dataset, config: &KdTreeConfig) -> Self {
        assert!(
            config.leaf_capacity > 0,
            "KdTree: leaf capacity must be positive"
        );
        assert!(
            config.rebuild_dead_fraction > 0.0,
            "KdTree: rebuild_dead_fraction must be positive, got {}",
            config.rebuild_dead_fraction
        );
        let timer = Timer::start();
        let mut tree = KdTree {
            dataset: dataset.clone(),
            nodes: Vec::new(),
            root: None,
            leaf_of: vec![0; dataset.len()],
            free: Vec::new(),
            removed_since_rebuild: 0,
            subtree_rebuilds: 0,
            full_rebuilds: 0,
            config: *config,
            construction_time: Duration::ZERO,
        };
        if !dataset.is_empty() {
            let mut ids: Vec<u32> = (0..dataset.len() as u32).collect();
            let root = tree.build_recursive(&mut ids, 0);
            tree.nodes[root].parent = root;
            tree.root = Some(root);
        }
        tree.construction_time = timer.elapsed();
        tree
    }

    /// The configuration used to build the tree.
    pub fn config(&self) -> &KdTreeConfig {
        &self.config
    }

    /// Partial (non-root) subtree rebuilds performed so far.
    pub fn subtree_rebuilds(&self) -> u64 {
        self.subtree_rebuilds
    }

    /// Full-tree rebuilds performed so far.
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    fn tight_bbox(&self, ids: &[u32]) -> BoundingBox {
        ids.iter().fold(BoundingBox::EMPTY, |bb, &id| {
            bb.extended(self.dataset.point(id as PointId))
        })
    }

    /// Allocates an arena slot, recycling one freed by an earlier rebuild.
    fn alloc(&mut self, node: KdNode) -> NodeId {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Recursively builds the subtree over `ids`, splitting on axis
    /// `depth % 2` at the median. Records the leaf of every id and the
    /// parent of every created child; the caller owns the returned node's
    /// parent link.
    fn build_recursive(&mut self, ids: &mut [u32], depth: usize) -> NodeId {
        let bbox = self.tight_bbox(ids);
        if ids.len() <= self.config.leaf_capacity {
            let node = self.alloc(KdNode {
                bbox,
                count: ids.len(),
                parent: 0,
                kind: NodeKind::Leaf {
                    points: ids.to_vec(),
                },
            });
            for &id in ids.iter() {
                self.leaf_of[id as usize] = node;
            }
            return node;
        }
        let axis = depth % 2;
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            let pa = self.dataset.point(a as PointId);
            let pb = self.dataset.point(b as PointId);
            pa.coord(axis).total_cmp(&pb.coord(axis)).then(a.cmp(&b))
        });
        let split = self.dataset.point(ids[mid] as PointId).coord(axis);
        let (left_ids, right_ids) = ids.split_at_mut(mid);
        // `split_at_mut` lets both halves be recursed without cloning, but we
        // need owned slices to satisfy the borrow checker against `self`.
        let mut left_vec = left_ids.to_vec();
        let mut right_vec = right_ids.to_vec();
        let left = self.build_recursive(&mut left_vec, depth + 1);
        let right = self.build_recursive(&mut right_vec, depth + 1);
        let count = self.nodes[left].count + self.nodes[right].count;
        let node = self.alloc(KdNode {
            bbox,
            count,
            parent: 0,
            kind: NodeKind::Internal {
                children: [left, right],
                axis: axis as u8,
                split,
            },
        });
        self.nodes[left].parent = node;
        self.nodes[right].parent = node;
        node
    }

    /// Depth of `node` (0 for the root), via parent links.
    fn depth_of(&self, mut node: NodeId) -> usize {
        let mut depth = 0;
        while self.nodes[node].parent != node {
            node = self.nodes[node].parent;
            depth += 1;
        }
        depth
    }

    /// Frees every arena slot of the subtree under `node` and returns the
    /// live point ids it held. A freed leaf gives up its id buffer, so a
    /// slot waiting on the free list holds no heap memory.
    fn collect_and_free(&mut self, node: NodeId) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.nodes[node].count);
        let mut stack = vec![node];
        while let Some(m) = stack.pop() {
            match &mut self.nodes[m].kind {
                NodeKind::Leaf { points } => ids.extend(std::mem::take(points)),
                NodeKind::Internal { children, .. } => stack.extend_from_slice(children),
            }
            self.free.push(m);
        }
        ids
    }

    /// Rebuilds the subtree rooted at `node` from its surviving points,
    /// compacting tombstones and restoring balance and tight boxes below it.
    fn rebuild_subtree(&mut self, node: NodeId) {
        let depth = self.depth_of(node);
        let parent = self.nodes[node].parent;
        let is_root = self.root == Some(node);
        let mut ids = self.collect_and_free(node);
        debug_assert!(!ids.is_empty(), "rebuilding an empty subtree");
        let fresh = self.build_recursive(&mut ids, depth);
        if is_root {
            self.nodes[fresh].parent = fresh;
            self.root = Some(fresh);
            self.full_rebuilds += 1;
            self.removed_since_rebuild = 0;
        } else {
            self.nodes[fresh].parent = parent;
            if let NodeKind::Internal { children, .. } = &mut self.nodes[parent].kind {
                for c in children.iter_mut() {
                    if *c == node {
                        *c = fresh;
                    }
                }
            }
            self.subtree_rebuilds += 1;
        }
    }

    /// Whether `node` violates its weight bound: a leaf past its capacity,
    /// or an internal node one of whose children carries more than
    /// [`REBUILD_IMBALANCE`] of its live points (checked only above
    /// `2 × leaf_capacity` points so tiny subtrees are not churned).
    fn is_overweight(&self, node: NodeId) -> bool {
        let n = self.nodes[node].count;
        match &self.nodes[node].kind {
            NodeKind::Leaf { points } => points.len() > self.config.leaf_capacity,
            NodeKind::Internal { children, .. } => {
                n > 2 * self.config.leaf_capacity
                    && children
                        .iter()
                        .any(|&c| self.nodes[c].count as f64 > REBUILD_IMBALANCE * n as f64)
            }
        }
    }

    /// Checks the tree's structural bookkeeping: the generic partition
    /// invariants plus the update-path state (`leaf_of` agreement, parent
    /// links, live counts vs dataset size).
    ///
    /// # Panics
    /// Panics with a descriptive message on the first violation.
    pub fn check_structure(&self) {
        check_partition_invariants(self, &self.dataset);
        assert_eq!(
            self.leaf_of.len(),
            self.dataset.len(),
            "leaf_of length diverged from the dataset"
        );
        for (id, &leaf) in self.leaf_of.iter().enumerate() {
            match &self.nodes[leaf].kind {
                NodeKind::Leaf { points } => assert!(
                    points.contains(&(id as u32)),
                    "leaf_of[{id}] = {leaf} but that leaf does not hold the point"
                ),
                NodeKind::Internal { .. } => {
                    panic!("leaf_of[{id}] = {leaf} points at an internal node")
                }
            }
        }
        if let Some(root) = self.root {
            assert_eq!(self.nodes[root].parent, root, "root must be its own parent");
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                if let NodeKind::Internal { children, .. } = &self.nodes[node].kind {
                    for &c in children {
                        assert_eq!(
                            self.nodes[c].parent, node,
                            "child {c} has a stale parent link"
                        );
                        stack.push(c);
                    }
                }
            }
        }
    }
}

impl SpatialPartition for KdTree {
    fn root(&self) -> Option<NodeId> {
        self.root
    }

    fn bbox(&self, node: NodeId) -> BoundingBox {
        self.nodes[node].bbox
    }

    fn point_count(&self, node: NodeId) -> usize {
        self.nodes[node].count
    }

    fn children(&self, node: NodeId) -> &[NodeId] {
        match &self.nodes[node].kind {
            NodeKind::Internal { children, .. } => children,
            NodeKind::Leaf { .. } => &[],
        }
    }

    fn points(&self, node: NodeId) -> &[u32] {
        match &self.nodes[node].kind {
            NodeKind::Leaf { points } => points,
            NodeKind::Internal { .. } => &[],
        }
    }

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl DpcIndex for KdTree {
    fn name(&self) -> &'static str {
        "kdtree"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn rho(&self, query: &Query<'_>) -> Result<Vec<Rho>> {
        query.validate()?;
        Ok(tree_query::rho(self, &self.dataset, query).0)
    }

    fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        query.validate_delta(rho, self.dataset.len())?;
        let config = DeltaQueryConfig::default();
        Ok(tree_query::delta(self, &self.dataset, rho, &config, query).0)
    }

    fn memory_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<KdNode>()
                    + match &n.kind {
                        NodeKind::Leaf { points } => points.capacity() * std::mem::size_of::<u32>(),
                        NodeKind::Internal { .. } => 0,
                    }
            })
            .sum();
        let maps = (self.leaf_of.capacity() + self.free.capacity()) * std::mem::size_of::<NodeId>();
        node_bytes + maps + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            // Live structure, not the arena bound (`num_nodes` includes
            // free-listed slots awaiting reuse after rebuilds).
            .with_counter("nodes", (self.nodes.len() - self.free.len()) as u64)
            .with_counter("height", self.height() as u64)
            .with_counter("subtree_rebuilds", self.subtree_rebuilds)
            .with_counter("full_rebuilds", self.full_rebuilds)
    }
}

impl UpdatableIndex for KdTree {
    fn insert(&mut self, p: Point) -> Result<PointId> {
        let id = self.dataset.push(p)?;
        let Some(root) = self.root else {
            let node = self.alloc(KdNode {
                bbox: BoundingBox::from_point(p),
                count: 1,
                parent: 0,
                kind: NodeKind::Leaf {
                    points: vec![id as u32],
                },
            });
            self.nodes[node].parent = node;
            self.root = Some(node);
            self.leaf_of.push(node);
            return Ok(id);
        };
        // Route down the split planes, growing boxes and counts on the way.
        let mut node = root;
        loop {
            self.nodes[node].bbox = self.nodes[node].bbox.extended(p);
            self.nodes[node].count += 1;
            match &self.nodes[node].kind {
                NodeKind::Internal {
                    children,
                    axis,
                    split,
                } => {
                    node = if p.coord(*axis as usize) < *split {
                        children[0]
                    } else {
                        children[1]
                    };
                }
                NodeKind::Leaf { .. } => break,
            }
        }
        if let NodeKind::Leaf { points } = &mut self.nodes[node].kind {
            points.push(id as u32);
        }
        self.leaf_of.push(node);

        // Scapegoat pass: rebuild the *highest* overweight node on the
        // insertion path, so one rebuild fixes every violation beneath it.
        let mut scapegoat = None;
        let mut cur = node;
        loop {
            if self.is_overweight(cur) {
                scapegoat = Some(cur);
            }
            let parent = self.nodes[cur].parent;
            if parent == cur {
                break;
            }
            cur = parent;
        }
        if let Some(s) = scapegoat {
            self.rebuild_subtree(s);
        }
        Ok(id)
    }

    fn remove(&mut self, id: PointId) -> Result<Option<PointId>> {
        let n = self.dataset.len();
        if id >= n {
            return Err(DpcError::invalid_parameter(
                "id",
                format!("KdTree::remove: point id {id} is out of range (n = {n})"),
            ));
        }
        let last = n - 1;
        let leaf = self.leaf_of[id];
        let moved_leaf = self.leaf_of[last];
        let moved = self.dataset.swap_remove(id)?;

        // Clear the entry out of its leaf: the point is invisible to every
        // query from here on; the leaf itself stays as tombstone structure.
        if let NodeKind::Leaf { points } = &mut self.nodes[leaf].kind {
            let pos = points
                .iter()
                .position(|&q| q as PointId == id)
                .expect("KdTree: removed point must be listed in its leaf");
            points.swap_remove(pos);
        }
        let mut cur = leaf;
        loop {
            self.nodes[cur].count -= 1;
            let parent = self.nodes[cur].parent;
            if parent == cur {
                break;
            }
            cur = parent;
        }

        // Mirror the dataset's swap-remove rename (last → id).
        if moved.is_some() {
            if let NodeKind::Leaf { points } = &mut self.nodes[moved_leaf].kind {
                let pos = points
                    .iter()
                    .position(|&q| q as PointId == last)
                    .expect("KdTree: moved point must be listed in its leaf");
                points[pos] = id as u32;
            }
            self.leaf_of[id] = moved_leaf;
        }
        self.leaf_of.pop();

        if self.dataset.is_empty() {
            self.nodes.clear();
            self.free.clear();
            self.root = None;
            self.removed_since_rebuild = 0;
            return Ok(moved);
        }
        self.removed_since_rebuild += 1;
        if self.removed_since_rebuild as f64
            > self.config.rebuild_dead_fraction * self.dataset.len() as f64
        {
            let root = self.root.expect("non-empty tree has a root");
            self.rebuild_subtree(root);
        }
        Ok(moved)
    }

    fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>> {
        validate_dc(eps)?;
        Ok(eps_query(self, &self.dataset, center, eps))
    }

    fn delta_targets(
        &self,
        query: &Query<'_>,
        rho: &[Rho],
        targets: &[PointId],
    ) -> Result<DeltaResult> {
        query.validate_targets(rho, self.dataset.len(), targets)?;
        let leaf_of = |p: PointId| self.leaf_of[p];
        Ok(tree_query::delta_targets(self, &self.dataset, rho, query, targets, leaf_of).0)
    }

    fn maintenance_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("subtree_rebuilds", self.subtree_rebuilds),
            ("full_rebuilds", self.full_rebuilds),
            ("removed_since_rebuild", self.removed_since_rebuild as u64),
        ]
    }

    fn check_invariants(&self) {
        self.check_structure();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_baseline::LeanDpc;
    use dpc_core::brute::eps_neighbors_scan;
    use dpc_datasets::generators::{checkins, s1, CheckinConfig};
    use dpc_datasets::testsupport::{test_points, TestDistribution};

    fn assert_matches_baseline(data: &Dataset, tree: &KdTree, dc: f64) {
        let baseline = LeanDpc::build(data);
        let (r1, d1) = tree.rho_delta(&Query::new(dc)).unwrap();
        let (r2, d2) = baseline.rho_delta(&Query::new(dc)).unwrap();
        assert_eq!(r1, r2, "rho mismatch at dc = {dc}");
        assert_eq!(d1, d2, "delta/mu mismatch at dc = {dc}");
    }

    #[test]
    fn structure_invariants_and_balance() {
        let data = s1(211, 0.1).into_dataset(); // 500 points
        let tree = KdTree::build(&data);
        tree.check_structure();
        // Median splits keep the tree balanced: height is O(log2(n/capacity)).
        assert!(tree.height() <= 8, "height = {}", tree.height());
    }

    #[test]
    fn matches_baseline_on_s1_and_checkins() {
        let s1_data = s1(223, 0.05).into_dataset();
        let tree = KdTree::build(&s1_data);
        for dc in [10_000.0, 100_000.0, 2_000_000.0] {
            assert_matches_baseline(&s1_data, &tree, dc);
        }
        let ck = checkins(300, &CheckinConfig::gowalla(), 3).into_dataset();
        let tree = KdTree::build(&ck);
        for dc in [0.01, 0.5] {
            assert_matches_baseline(&ck, &tree, dc);
        }
    }

    #[test]
    fn small_leaf_capacity_still_correct() {
        let data = s1(227, 0.03).into_dataset();
        let tree = KdTree::with_config(
            &data,
            &KdTreeConfig {
                leaf_capacity: 2,
                ..Default::default()
            },
        );
        tree.check_structure();
        assert_matches_baseline(&data, &tree, 50_000.0);
    }

    #[test]
    fn pruning_reduces_work() {
        let data = s1(229, 0.1).into_dataset();
        let tree = KdTree::build(&data);
        let query = Query::new(30_000.0);
        let (rho, _) = tree_query::rho(&tree, &data, &query);
        let pruned = DeltaQueryConfig::default();
        let (_, s_pruned) = tree_query::delta(&tree, &data, &rho, &pruned, &query);
        let exhaustive = DeltaQueryConfig::no_pruning();
        let (_, s_full) = tree_query::delta(&tree, &data, &rho, &exhaustive, &query);
        assert!(s_pruned.points_scanned < s_full.points_scanned);
    }

    #[test]
    fn coincident_points_are_handled() {
        let data = Dataset::new(vec![dpc_core::Point::new(2.0, 2.0); 50]);
        let tree = KdTree::build(&data);
        tree.check_structure();
        let rho = tree.rho(&Query::new(0.1)).unwrap();
        assert!(rho.iter().all(|&r| r == 49.0));
    }

    #[test]
    fn empty_and_single_point() {
        assert_eq!(KdTree::build(&Dataset::new(vec![])).num_nodes(), 0);
        let single = KdTree::build(&Dataset::new(vec![dpc_core::Point::new(0.0, 0.0)]));
        let (rho, deltas) = single.rho_delta(&Query::new(1.0)).unwrap();
        assert_eq!(rho, vec![0.0]);
        assert_eq!(deltas.mu(0), None);
    }

    #[test]
    fn updates_match_a_fresh_build_and_the_baseline() {
        let data = checkins(200, &CheckinConfig::gowalla(), 23).into_dataset();
        let mut tree = KdTree::build(&data);
        let bb = data.bounding_box();
        tree.insert(Point::new(bb.max_x() + 5.0, bb.max_y() + 5.0))
            .unwrap();
        tree.insert(Point::new(bb.min_x() - 3.0, bb.min_y()))
            .unwrap();
        let inside = data.point(7);
        tree.insert(inside).unwrap();
        assert_eq!(tree.remove(3).unwrap(), Some(tree.len()));
        assert_eq!(tree.remove(tree.len() - 1).unwrap(), None);
        tree.check_structure();
        for dc in [0.05, 0.4, 20.0] {
            assert_matches_baseline(tree.dataset(), &tree, dc);
            let fresh = KdTree::build(tree.dataset());
            let (r1, d1) = tree.rho_delta(&Query::new(dc)).unwrap();
            let (r2, d2) = fresh.rho_delta(&Query::new(dc)).unwrap();
            assert_eq!(r1, r2, "rho vs fresh build at dc = {dc}");
            assert_eq!(d1, d2, "delta vs fresh build at dc = {dc}");
        }
    }

    #[test]
    fn tree_grown_from_empty_stays_balanced_and_correct() {
        let mut tree = KdTree::with_config(
            &Dataset::new(vec![]),
            &KdTreeConfig {
                leaf_capacity: 4,
                ..Default::default()
            },
        );
        for p in test_points(TestDistribution::Clustered, 300, 17) {
            tree.insert(p).unwrap();
        }
        tree.check_structure();
        // Scapegoat rebuilds must have fired and kept the height logarithmic:
        // a 300-point tree with capacity 4 has ~75 leaves; a degenerate
        // insertion-order tree would be far deeper than 14 levels.
        assert!(tree.subtree_rebuilds() > 0);
        assert!(tree.height() <= 14, "height = {}", tree.height());
        assert_matches_baseline(tree.dataset(), &tree, 120.0);
    }

    #[test]
    fn one_sided_drift_triggers_rebuilds() {
        // Monotone inserts are the worst case for a frozen split structure:
        // every point lands in the rightmost leaf. The scapegoat rule must
        // keep rebuilding the drifting flank.
        let mut tree = KdTree::with_config(
            &Dataset::new(vec![]),
            &KdTreeConfig {
                leaf_capacity: 4,
                ..Default::default()
            },
        );
        for i in 0..200 {
            tree.insert(Point::new(i as f64, (i % 7) as f64)).unwrap();
        }
        tree.check_structure();
        assert!(tree.subtree_rebuilds() > 0);
        assert!(tree.height() <= 13, "height = {}", tree.height());
    }

    #[test]
    fn freed_slots_hold_no_leaf_buffers() {
        let mut tree = KdTree::with_config(
            &Dataset::new(vec![]),
            &KdTreeConfig {
                leaf_capacity: 4,
                ..Default::default()
            },
        );
        // Bytes of leaf buffers held by slots on the free list.
        let stale = |tree: &KdTree| -> usize {
            let held = |&slot: &NodeId| match &tree.nodes[slot].kind {
                NodeKind::Leaf { points } => points.capacity() * std::mem::size_of::<u32>(),
                NodeKind::Internal { .. } => 0,
            };
            tree.free.iter().map(held).sum()
        };
        // One-sided drift forces subtree rebuilds; the removals then force
        // full rebuilds, which free most of the arena.
        let mut most_free = 0;
        for i in 0..200 {
            tree.insert(Point::new(i as f64, (i % 7) as f64)).unwrap();
            assert_eq!(stale(&tree), 0, "after insert {i}");
            most_free = most_free.max(tree.free.len());
        }
        assert!(tree.subtree_rebuilds() > 0);
        while tree.len() > 40 {
            tree.remove(tree.len() / 3).unwrap();
            assert_eq!(stale(&tree), 0, "after removal at {} points", tree.len());
            most_free = most_free.max(tree.free.len());
        }
        assert!(tree.full_rebuilds() > 0);
        assert!(most_free > 0, "no rebuild left a slot on the free list");
        tree.check_structure();
    }

    #[test]
    fn deletion_heavy_workload_triggers_full_rebuild() {
        let data = Dataset::new(test_points(TestDistribution::Skewed, 200, 5));
        let mut tree = KdTree::build(&data);
        // Delete 90%: the dead-fraction trigger must fire (repeatedly).
        while tree.len() > 20 {
            tree.remove(tree.len() / 2).unwrap();
        }
        tree.check_structure();
        assert!(tree.full_rebuilds() >= 1);
        assert_matches_baseline(tree.dataset(), &tree, 150.0);
    }

    #[test]
    fn eps_neighbors_matches_linear_scan_through_updates() {
        let data = Dataset::new(test_points(TestDistribution::Clustered, 120, 11));
        let mut tree = KdTree::build(&data);
        for step in 0..60 {
            if step % 3 == 0 && tree.len() > 1 {
                tree.remove(step % tree.len()).unwrap();
            } else {
                let p = test_points(TestDistribution::Uniform, 1, 1000 + step as u64)[0];
                tree.insert(p).unwrap();
            }
            let center = tree.dataset().point(step % tree.len());
            let got = tree.eps_neighbors(center, 90.0).unwrap();
            let expected = eps_neighbors_scan(tree.dataset(), center, 90.0).unwrap();
            assert_eq!(got, expected, "step {step}");
        }
        assert!(tree.eps_neighbors(Point::new(0.0, 0.0), f64::NAN).is_err());
    }

    #[test]
    fn remove_rejects_out_of_range_ids_and_drains_to_empty() {
        let mut tree = KdTree::build(&s1(43, 0.01).into_dataset());
        let n = tree.len();
        assert!(tree.remove(n).is_err());
        assert_eq!(tree.len(), n);
        while tree.len() > 0 {
            tree.remove(0).unwrap();
        }
        assert_eq!(tree.root(), None);
        assert!(tree.rho(&Query::new(1.0)).unwrap().is_empty());
        // The tree must be reusable after draining.
        tree.insert(Point::new(1.0, 2.0)).unwrap();
        assert_eq!(tree.rho(&Query::new(1.0)).unwrap(), vec![0.0]);
    }

    #[test]
    fn maintenance_counters_are_exposed() {
        let data = Dataset::new(test_points(TestDistribution::Uniform, 64, 3));
        let mut tree = KdTree::build(&data);
        for i in 0..40 {
            tree.remove(i % tree.len()).unwrap();
        }
        let counters = tree.maintenance_counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("full_rebuilds") >= 1);
        assert_eq!(
            tree.stats().counter("full_rebuilds"),
            Some(get("full_rebuilds"))
        );
    }
}
