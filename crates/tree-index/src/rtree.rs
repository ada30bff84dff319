//! The R-tree index (§4.2 of the paper), bulk-loaded with the
//! Sort-Tile-Recursive (STR) packing algorithm.
//!
//! Unlike the quadtree, the R-tree is balanced: every leaf sits at the same
//! depth and the height is `O(log_M n)`. The STR packing of Leutenegger et
//! al. sorts the points by x, slices them into vertical strips of
//! `≈ M·√(n/M)` points, sorts each strip by y and cuts it into leaves of at
//! most `M` points; the upper levels are built by packing the child MBR
//! centres the same way until a single root remains. The DPC queries are the
//! generic pruned traversals of [`crate::query`].
//!
//! The tree is static, as in the paper: it is packed once over a dataset and
//! answers batch queries. A sliding window streams through the
//! [`KdTree`](crate::KdTree) or the [`GridIndex`](crate::GridIndex), which
//! implement [`dpc_core::UpdatableIndex`].

use std::time::Duration;

use dpc_core::{BoundingBox, Dataset, DeltaResult, DpcIndex, IndexStats, Query, Result, Rho};
use dpc_obs::Timer;

use crate::common::{check_partition_invariants, NodeId, SpatialPartition};
use crate::query::{self as tree_query, DeltaQueryConfig};

/// Configuration of an [`RTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RTreeConfig {
    /// Maximum number of entries per node (`M`), for both leaves and internal
    /// nodes.
    pub node_capacity: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig { node_capacity: 32 }
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf { points: Vec<u32> },
    Internal { children: Vec<NodeId> },
}

#[derive(Debug, Clone)]
struct RNode {
    bbox: BoundingBox,
    count: usize,
    kind: NodeKind,
}

/// The STR-packed R-tree index.
#[derive(Debug, Clone)]
pub struct RTree {
    dataset: Dataset,
    nodes: Vec<RNode>,
    root: Option<NodeId>,
    config: RTreeConfig,
    construction_time: Duration,
}

impl RTree {
    /// Builds an R-tree with the default configuration.
    pub fn build(dataset: &Dataset) -> Self {
        Self::with_config(dataset, &RTreeConfig::default())
    }

    /// Builds an R-tree with an explicit configuration.
    ///
    /// # Panics
    /// Panics if `node_capacity < 2`.
    pub fn with_config(dataset: &Dataset, config: &RTreeConfig) -> Self {
        assert!(
            config.node_capacity >= 2,
            "RTree: node capacity must be at least 2"
        );
        let timer = Timer::start();
        let mut tree = RTree {
            dataset: dataset.clone(),
            nodes: Vec::new(),
            root: None,
            config: *config,
            construction_time: Duration::ZERO,
        };
        if !dataset.is_empty() {
            tree.bulk_load();
        }
        tree.construction_time = timer.elapsed();
        tree
    }

    /// The configuration used to build the tree.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf { .. }))
            .count()
    }

    /// Appends `node` to the arena and returns its id.
    fn push(&mut self, node: RNode) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// STR bulk loading: build the leaf level from the points, then pack each
    /// level into the one above until a single root remains.
    fn bulk_load(&mut self) {
        let m = self.config.node_capacity;
        // Leaf level.
        let coords: Vec<(f64, f64)> = self.dataset.points().iter().map(|p| (p.x, p.y)).collect();
        let groups = str_groups(&coords, m);
        let mut level: Vec<NodeId> = Vec::with_capacity(groups.len());
        for group in groups {
            let mut bbox = BoundingBox::EMPTY;
            let mut points = Vec::with_capacity(group.len());
            for idx in group {
                bbox = bbox.extended(self.dataset.point(idx));
                points.push(idx as u32);
            }
            let count = points.len();
            level.push(self.push(RNode {
                bbox,
                count,
                kind: NodeKind::Leaf { points },
            }));
        }
        // Upper levels.
        while level.len() > 1 {
            let centers: Vec<(f64, f64)> = level
                .iter()
                .map(|&id| {
                    let c = self.nodes[id].bbox.center();
                    (c.x, c.y)
                })
                .collect();
            let groups = str_groups(&centers, m);
            let mut next_level = Vec::with_capacity(groups.len());
            for group in groups {
                let children: Vec<NodeId> = group.into_iter().map(|idx| level[idx]).collect();
                let mut bbox = BoundingBox::EMPTY;
                let mut count = 0;
                for &c in &children {
                    bbox = bbox.union(&self.nodes[c].bbox);
                    count += self.nodes[c].count;
                }
                next_level.push(self.push(RNode {
                    bbox,
                    count,
                    kind: NodeKind::Internal { children },
                }));
            }
            level = next_level;
        }
        self.root = level.first().copied();
    }

    /// Checks the tree's structure: the generic partition invariants, the
    /// fanout bound of every node and the equal depth of every leaf.
    ///
    /// # Panics
    /// Panics with a descriptive message on the first violation.
    pub fn check_structure(&self) {
        check_partition_invariants(self, &self.dataset);
        let Some(root) = self.root else { return };
        let mut leaf_depths = Vec::new();
        let mut stack = vec![(root, 0usize)];
        while let Some((node, depth)) = stack.pop() {
            match &self.nodes[node].kind {
                NodeKind::Leaf { points } => {
                    assert!(
                        points.len() <= self.config.node_capacity,
                        "leaf {node} exceeds the node capacity"
                    );
                    leaf_depths.push(depth);
                }
                NodeKind::Internal { children } => {
                    assert!(!children.is_empty(), "internal node {node} has no children");
                    assert!(
                        children.len() <= self.config.node_capacity,
                        "internal node {node} exceeds the node capacity"
                    );
                    stack.extend(children.iter().map(|&c| (c, depth + 1)));
                }
            }
        }
        let first = leaf_depths[0];
        assert!(
            leaf_depths.iter().all(|&d| d == first),
            "leaves at different depths: {leaf_depths:?}"
        );
    }
}

/// Sort-Tile-Recursive grouping of `coords` into groups of at most
/// `capacity` items: sort by x, slice into `⌈√(⌈n/capacity⌉)⌉` vertical
/// strips, sort each strip by y and chunk it. Returns groups of indices into
/// `coords`.
fn str_groups(coords: &[(f64, f64)], capacity: usize) -> Vec<Vec<usize>> {
    let n = coords.len();
    if n == 0 {
        return vec![];
    }
    let leaves = n.div_ceil(capacity);
    let strips = (leaves as f64).sqrt().ceil() as usize;
    let strip_size = capacity * strips;

    let mut by_x: Vec<usize> = (0..n).collect();
    by_x.sort_by(|&a, &b| {
        coords[a]
            .0
            .total_cmp(&coords[b].0)
            .then(coords[a].1.total_cmp(&coords[b].1))
            .then(a.cmp(&b))
    });

    let mut groups = Vec::with_capacity(leaves);
    for strip in by_x.chunks(strip_size.max(1)) {
        let mut strip: Vec<usize> = strip.to_vec();
        strip.sort_by(|&a, &b| {
            coords[a]
                .1
                .total_cmp(&coords[b].1)
                .then(coords[a].0.total_cmp(&coords[b].0))
                .then(a.cmp(&b))
        });
        for chunk in strip.chunks(capacity) {
            groups.push(chunk.to_vec());
        }
    }
    groups
}

impl SpatialPartition for RTree {
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
            NodeKind::Internal { children } => children,
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

impl DpcIndex for RTree {
    fn name(&self) -> &'static str {
        "rtree"
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
                std::mem::size_of::<RNode>()
                    + match &n.kind {
                        NodeKind::Leaf { points } => points.capacity() * std::mem::size_of::<u32>(),
                        NodeKind::Internal { children } => {
                            children.capacity() * std::mem::size_of::<NodeId>()
                        }
                    }
            })
            .sum();
        node_bytes + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            .with_counter("nodes", self.nodes.len() as u64)
            .with_counter("leaves", self.leaf_count() as u64)
            .with_counter("height", self.height() as u64)
            .with_counter("fanout", self.config.node_capacity as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree::Quadtree;
    use dpc_baseline::LeanDpc;
    use dpc_datasets::generators::{checkins, range, s1, CheckinConfig};

    fn assert_matches_baseline(data: &Dataset, tree: &RTree, dc: f64) {
        let baseline = LeanDpc::build(data);
        let (r1, d1) = tree.rho_delta(&Query::new(dc)).unwrap();
        let (r2, d2) = baseline.rho_delta(&Query::new(dc)).unwrap();
        assert_eq!(r1, r2, "rho mismatch at dc = {dc}");
        assert_eq!(d1, d2, "delta/mu mismatch at dc = {dc}");
    }

    #[test]
    fn str_groups_respect_capacity_and_cover_all_items() {
        let coords: Vec<(f64, f64)> = (0..137)
            .map(|i| (i as f64 * 0.7, (i % 13) as f64))
            .collect();
        let groups = str_groups(&coords, 10);
        let mut seen = vec![false; coords.len()];
        for g in &groups {
            assert!(!g.is_empty() && g.len() <= 10);
            for &i in g {
                assert!(!seen[i], "item {i} grouped twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn structure_invariants_hold_and_tree_is_balanced() {
        let data = range(137, 0.004).into_dataset(); // 800 points
        let tree = RTree::build(&data);
        tree.check_structure();
        // Height must be logarithmic in n with fanout 32: 800 points -> 3 levels.
        assert!(tree.height() <= 3, "height = {}", tree.height());
    }

    #[test]
    fn matches_baseline_on_s1() {
        let data = s1(139, 0.06).into_dataset(); // 300 points
        let tree = RTree::build(&data);
        for dc in [5_000.0, 30_000.0, 200_000.0, 1_500_000.0] {
            assert_matches_baseline(&data, &tree, dc);
        }
    }

    #[test]
    fn matches_baseline_on_skewed_checkins() {
        let data = checkins(400, &CheckinConfig::brightkite(), 11).into_dataset();
        let tree = RTree::build(&data);
        for dc in [0.005, 0.05, 1.0] {
            assert_matches_baseline(&data, &tree, dc);
        }
    }

    #[test]
    fn matches_quadtree_results_exactly() {
        let data = range(149, 0.002).into_dataset(); // 400 points
        let rtree = RTree::build(&data);
        let quadtree = Quadtree::build(&data);
        for dc in [500.0, 2_200.0, 10_000.0] {
            let (r1, d1) = rtree.rho_delta(&Query::new(dc)).unwrap();
            let (r2, d2) = quadtree.rho_delta(&Query::new(dc)).unwrap();
            assert_eq!(r1, r2);
            assert_eq!(d1.mu, d2.mu);
        }
    }

    #[test]
    fn small_fanout_still_correct() {
        let data = s1(151, 0.03).into_dataset(); // 150 points
        let config = RTreeConfig { node_capacity: 3 };
        let tree = RTree::with_config(&data, &config);
        tree.check_structure();
        assert_matches_baseline(&data, &tree, 40_000.0);
    }

    #[test]
    fn pruning_reduces_work_but_not_results() {
        let data = s1(157, 0.1).into_dataset(); // 500 points
        let tree = RTree::build(&data);
        let query = Query::new(30_000.0);
        let (rho, _) = tree_query::rho(&tree, &data, &query);
        let pruned = DeltaQueryConfig::default();
        let (d_pruned, s_pruned) = tree_query::delta(&tree, &data, &rho, &pruned, &query);
        let exhaustive = DeltaQueryConfig::no_pruning();
        let (d_full, s_full) = tree_query::delta(&tree, &data, &rho, &exhaustive, &query);
        assert_eq!(d_pruned.mu, d_full.mu);
        assert!(s_pruned.points_scanned < s_full.points_scanned);
    }

    #[test]
    fn memory_is_near_linear() {
        let small = RTree::build(&s1(163, 0.04).into_dataset()); // 200
        let large = RTree::build(&s1(163, 0.4).into_dataset()); // 2000
        let ratio = large.memory_bytes() as f64 / small.memory_bytes() as f64;
        assert!(ratio < 20.0, "memory grew superlinearly: ratio = {ratio}");
    }

    #[test]
    fn empty_and_single_point_trees() {
        let empty = RTree::build(&Dataset::new(vec![]));
        assert_eq!(empty.num_nodes(), 0);
        assert!(empty.rho(&Query::new(1.0)).unwrap().is_empty());

        let single = RTree::build(&Dataset::new(vec![dpc_core::Point::new(3.0, 4.0)]));
        single.check_structure();
        let (rho, deltas) = single.rho_delta(&Query::new(1.0)).unwrap();
        assert_eq!(rho, vec![0.0]);
        assert_eq!(deltas.mu(0), None);
    }

    #[test]
    fn stats_expose_structure() {
        let data = s1(167, 0.1).into_dataset();
        let tree = RTree::build(&data);
        let stats = tree.stats();
        assert!(stats.counter("nodes").unwrap() >= stats.counter("leaves").unwrap());
        assert_eq!(stats.counter("fanout"), Some(32));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn capacity_below_two_panics() {
        RTree::with_config(&Dataset::new(vec![]), &RTreeConfig { node_capacity: 1 });
    }
}
