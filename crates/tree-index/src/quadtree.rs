//! The Quadtree index (§4.1 of the paper).
//!
//! A point-region quadtree: every internal node splits its square region into
//! four equal quadrants; points live in the leaves. Construction inserts
//! points one by one, splitting a leaf when it exceeds its capacity — the
//! resulting shape (and therefore the height) depends on the data
//! distribution, which is exactly the weakness the paper contrasts with the
//! balanced R-tree.

use std::time::Duration;

use dpc_core::{
    BoundingBox, Dataset, DeltaResult, DpcIndex, IndexStats, PointId, Query, Result, Rho,
};
use dpc_obs::Timer;

use crate::common::{NodeId, SpatialPartition};
use crate::query::{self as tree_query, DeltaQueryConfig};

/// Configuration of a [`Quadtree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadtreeConfig {
    /// Maximum number of points a leaf holds before it is split.
    pub node_capacity: usize,
    /// Maximum tree depth; a leaf at this depth is never split (guards
    /// against unbounded recursion on coincident points).
    pub max_depth: usize,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        QuadtreeConfig {
            node_capacity: 32,
            max_depth: 32,
        }
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf { points: Vec<u32> },
    Internal { children: [NodeId; 4] },
}

#[derive(Debug, Clone)]
struct QuadNode {
    bbox: BoundingBox,
    depth: usize,
    count: usize,
    kind: NodeKind,
}

/// The quadtree index.
#[derive(Debug, Clone)]
pub struct Quadtree {
    dataset: Dataset,
    nodes: Vec<QuadNode>,
    root: Option<NodeId>,
    config: QuadtreeConfig,
    construction_time: Duration,
}

impl Quadtree {
    /// Builds a quadtree with the default configuration.
    pub fn build(dataset: &Dataset) -> Self {
        Self::with_config(dataset, &QuadtreeConfig::default())
    }

    /// Builds a quadtree with an explicit configuration.
    ///
    /// # Panics
    /// Panics if `node_capacity` is 0 or `max_depth` is 0.
    pub fn with_config(dataset: &Dataset, config: &QuadtreeConfig) -> Self {
        assert!(
            config.node_capacity > 0,
            "Quadtree: node capacity must be positive"
        );
        assert!(config.max_depth > 0, "Quadtree: max depth must be positive");
        let timer = Timer::start();
        let mut tree = Quadtree {
            dataset: dataset.clone(),
            nodes: Vec::new(),
            root: None,
            config: *config,
            construction_time: Duration::ZERO,
        };
        if !dataset.is_empty() {
            let root_bbox = dataset.bounding_box();
            tree.nodes.push(QuadNode {
                bbox: root_bbox,
                depth: 0,
                count: 0,
                kind: NodeKind::Leaf { points: Vec::new() },
            });
            tree.root = Some(0);
            for p in 0..dataset.len() {
                tree.insert(p);
            }
        }
        tree.construction_time = timer.elapsed();
        tree
    }

    /// The configuration used to build the tree.
    pub fn config(&self) -> &QuadtreeConfig {
        &self.config
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf { .. }))
            .count()
    }

    /// Inserts point `p`, splitting leaves as needed.
    fn insert(&mut self, p: PointId) {
        let point = self.dataset.point(p);
        let mut node = self.root.expect("insert called on an empty tree");
        loop {
            self.nodes[node].count += 1;
            if let NodeKind::Leaf { points } = &self.nodes[node].kind {
                let at_capacity = points.len() >= self.config.node_capacity;
                let at_max_depth = self.nodes[node].depth >= self.config.max_depth;
                if !at_capacity || at_max_depth {
                    if let NodeKind::Leaf { points } = &mut self.nodes[node].kind {
                        points.push(p as u32);
                    }
                    return;
                }
                // Full leaf above the depth limit: split, then re-dispatch
                // below (the node is internal afterwards).
                self.split(node);
            }
            let bbox = self.nodes[node].bbox;
            let quadrant = quadrant_of(&bbox, point);
            match &self.nodes[node].kind {
                NodeKind::Internal { children } => node = children[quadrant],
                NodeKind::Leaf { .. } => {
                    unreachable!("split must turn the node into an internal node")
                }
            }
        }
    }

    /// Splits a full leaf into four child leaves and redistributes its points.
    fn split(&mut self, node: NodeId) {
        let (bbox, depth, old_points) = match &mut self.nodes[node].kind {
            NodeKind::Leaf { points } => {
                let taken = std::mem::take(points);
                (self.nodes[node].bbox, self.nodes[node].depth, taken)
            }
            NodeKind::Internal { .. } => panic!("split called on an internal node"),
        };
        let quadrants = bbox.quadrants();
        let first_child = self.nodes.len();
        for q in quadrants {
            self.nodes.push(QuadNode {
                bbox: q,
                depth: depth + 1,
                count: 0,
                kind: NodeKind::Leaf { points: Vec::new() },
            });
        }
        let children = [
            first_child,
            first_child + 1,
            first_child + 2,
            first_child + 3,
        ];
        for pid in old_points {
            let point = self.dataset.point(pid as PointId);
            let child = children[quadrant_of(&bbox, point)];
            self.nodes[child].count += 1;
            if let NodeKind::Leaf { points } = &mut self.nodes[child].kind {
                points.push(pid);
            }
        }
        self.nodes[node].kind = NodeKind::Internal { children };
    }
}

/// Index of the quadrant of `bbox` that contains `point`, consistent with
/// [`BoundingBox::quadrants`] (`[SW, SE, NW, NE]`). Points exactly on the
/// centre lines go east / north.
fn quadrant_of(bbox: &BoundingBox, point: dpc_core::Point) -> usize {
    let c = bbox.center();
    let east = point.x >= c.x;
    let north = point.y >= c.y;
    match (north, east) {
        (false, false) => 0,
        (false, true) => 1,
        (true, false) => 2,
        (true, true) => 3,
    }
}

impl SpatialPartition for Quadtree {
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

impl DpcIndex for Quadtree {
    fn name(&self) -> &'static str {
        "quadtree"
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
                std::mem::size_of::<QuadNode>()
                    + match &n.kind {
                        NodeKind::Leaf { points } => points.capacity() * std::mem::size_of::<u32>(),
                        NodeKind::Internal { .. } => 0,
                    }
            })
            .sum();
        node_bytes + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            .with_counter("nodes", self.num_nodes() as u64)
            .with_counter("leaves", self.leaf_count() as u64)
            .with_counter("height", self.height() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_partition_invariants;
    use dpc_baseline::LeanDpc;
    use dpc_datasets::generators::{checkins, query, s1, CheckinConfig};

    fn assert_matches_baseline(data: &Dataset, tree: &Quadtree, dc: f64) {
        let baseline = LeanDpc::build(data);
        let (r1, d1) = tree.rho_delta(&Query::new(dc)).unwrap();
        let (r2, d2) = baseline.rho_delta(&Query::new(dc)).unwrap();
        assert_eq!(r1, r2, "rho mismatch at dc = {dc}");
        assert_eq!(d1, d2, "delta/mu mismatch at dc = {dc}");
    }

    #[test]
    fn structure_invariants_hold() {
        let data = s1(101, 0.1).into_dataset(); // 500 points
        let tree = Quadtree::build(&data);
        check_partition_invariants(&tree, &data);
        assert!(tree.leaf_count() > 1);
        assert!(tree.height() > 1);
    }

    #[test]
    fn matches_baseline_on_s1() {
        let data = s1(103, 0.06).into_dataset(); // 300 points
        let tree = Quadtree::build(&data);
        for dc in [5_000.0, 30_000.0, 200_000.0, 1_500_000.0] {
            assert_matches_baseline(&data, &tree, dc);
        }
    }

    #[test]
    fn matches_baseline_on_skewed_checkins() {
        let data = checkins(400, &CheckinConfig::gowalla(), 7).into_dataset();
        let tree = Quadtree::build(&data);
        for dc in [0.005, 0.05, 1.0] {
            assert_matches_baseline(&data, &tree, dc);
        }
    }

    #[test]
    fn matches_baseline_with_tiny_node_capacity() {
        let data = query(107, 0.004).into_dataset(); // 200 points
        let config = QuadtreeConfig {
            node_capacity: 2,
            ..Default::default()
        };
        let tree = Quadtree::with_config(&data, &config);
        check_partition_invariants(&tree, &data);
        assert_matches_baseline(&data, &tree, 0.02);
    }

    #[test]
    fn handles_coincident_points_via_max_depth() {
        // 100 identical points would split forever without the depth guard.
        let data = Dataset::new(vec![dpc_core::Point::new(1.0, 1.0); 100]);
        let config = QuadtreeConfig {
            node_capacity: 4,
            max_depth: 6,
        };
        let tree = Quadtree::with_config(&data, &config);
        check_partition_invariants(&tree, &data);
        assert!(tree.height() <= 7);
        let rho = tree.rho(&Query::new(0.5)).unwrap();
        assert!(rho.iter().all(|&r| r == 99.0));
    }

    #[test]
    fn pruning_reduces_work_but_not_results() {
        let data = s1(109, 0.1).into_dataset(); // 500 points
        let tree = Quadtree::build(&data);
        let query = Query::new(30_000.0);
        let (rho, _) = tree_query::rho(&tree, &data, &query);
        let pruned = DeltaQueryConfig::default();
        let (d_pruned, s_pruned) = tree_query::delta(&tree, &data, &rho, &pruned, &query);
        let exhaustive = DeltaQueryConfig::no_pruning();
        let (d_full, s_full) = tree_query::delta(&tree, &data, &rho, &exhaustive, &query);
        assert_eq!(d_pruned.mu, d_full.mu);
        assert!(s_pruned.points_scanned < s_full.points_scanned);
        assert!(s_pruned.nodes_visited < s_full.nodes_visited);
    }

    #[test]
    fn rho_with_largest_dc_counts_everything_cheaply() {
        let data = s1(113, 0.06).into_dataset();
        let tree = Quadtree::build(&data);
        let diameter = data.bbox_diameter() * 1.01;
        let (rho, stats) = tree_query::rho(&tree, &data, &Query::new(diameter));
        assert!(rho.iter().all(|&r| r as usize == data.len() - 1));
        // The root is fully contained for every query point: no leaf scans.
        assert_eq!(stats.points_scanned, 0);
    }

    #[test]
    fn memory_is_far_below_list_index_scale() {
        let data = s1(127, 0.2).into_dataset(); // 1000 points
        let tree = Quadtree::build(&data);
        // The list index would store ~n^2 = 10^6 entries of 16 bytes; the
        // quadtree must stay well under a tenth of that.
        assert!(tree.memory_bytes() < 1_000_000);
    }

    #[test]
    fn stats_counters_present() {
        let data = s1(131, 0.02).into_dataset();
        let tree = Quadtree::build(&data);
        let stats = tree.stats();
        assert!(stats.counter("nodes").unwrap() >= 1);
        assert!(stats.counter("leaves").unwrap() >= 1);
        assert!(stats.counter("height").unwrap() >= 1);
    }

    #[test]
    fn empty_and_single_point_trees() {
        let empty = Quadtree::build(&Dataset::new(vec![]));
        assert_eq!(empty.num_nodes(), 0);
        assert!(empty.rho(&Query::new(1.0)).unwrap().is_empty());

        let single = Quadtree::build(&Dataset::new(vec![dpc_core::Point::new(3.0, 4.0)]));
        let (rho, deltas) = single.rho_delta(&Query::new(1.0)).unwrap();
        assert_eq!(rho, vec![0.0]);
        assert_eq!(deltas.mu(0), None);
        assert_eq!(deltas.delta(0), 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data = s1(3, 0.01).into_dataset();
        let tree = Quadtree::build(&data);
        assert!(tree.rho(&Query::new(0.0)).is_err());
        assert!(tree.delta(&Query::new(1.0), &[]).is_err());
    }
}
