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
//! ## Online updates
//!
//! The tree is [`UpdatableIndex`], maintained in the style of the R*-tree
//! (Beckmann et al.):
//!
//! * **insert** descends by least-area-enlargement (ChooseLeaf). The first
//!   time a leaf overflows during an update, a
//!   [`RTreeConfig::reinsert_fraction`] of its entries — those farthest from
//!   the node centre — are *force-reinserted* from the top, which shrinks
//!   the node and migrates strays to better-fitting neighbours; a second
//!   overflow splits the node (Guttman's quadratic split), propagating
//!   upward and growing a new root when the old one splits.
//! * **remove** clears the entry and *shrinks* every bounding box on the
//!   path back to the root (recomputed tight, not just left conservative).
//!   A leaf that falls below [`RTreeConfig::min_fill`] is dissolved and its
//!   survivors reinserted; emptied ancestors are pruned and a root left
//!   with a single child is collapsed, so the height shrinks again as the
//!   window drains.
//!
//! All leaves stay at the same depth through every update, and the
//! reinsert/split/dissolve triggers are observable through
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

/// Configuration of an [`RTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RTreeConfig {
    /// Maximum number of entries per node (`M`), for both leaves and internal
    /// nodes.
    pub node_capacity: usize,
    /// Pruning configuration used by the δ-query of the [`DpcIndex`] impl.
    pub delta: DeltaQueryConfig,
    /// Minimum fill fraction `m/M ∈ (0, 0.5]`: a leaf that drops below
    /// `⌈min_fill·M⌉` entries after a deletion is dissolved and its
    /// survivors reinserted.
    pub min_fill: f64,
    /// Fraction of a node's entries force-reinserted on its first overflow
    /// during an update (`p` in the R*-tree paper, there 30%). 0 disables
    /// forced reinsertion (overflow always splits).
    pub reinsert_fraction: f64,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            node_capacity: 32,
            delta: DeltaQueryConfig::default(),
            min_fill: 0.3,
            reinsert_fraction: 0.3,
        }
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
    /// Parent node; the root stores itself.
    parent: NodeId,
    kind: NodeKind,
}

/// The STR-packed R-tree index.
#[derive(Debug, Clone)]
pub struct RTree {
    dataset: Dataset,
    nodes: Vec<RNode>,
    root: Option<NodeId>,
    /// Leaf currently holding each dense point id.
    leaf_of: Vec<NodeId>,
    /// Arena slots freed by dissolved nodes, recycled by [`Self::alloc`].
    free: Vec<NodeId>,
    /// Forced-reinsertion rounds performed (first overflow of a node).
    forced_reinserts: u64,
    /// Node splits performed (second overflow; includes root splits).
    node_splits: u64,
    /// Nodes dissolved by underflow handling (leaves below the minimum
    /// fill, emptied ancestors, collapsed roots).
    nodes_dissolved: u64,
    /// `None` outside an `apply_batch` epoch (every insert gets its own
    /// forced-reinsertion round); `Some(available)` while one is in flight —
    /// the whole batch shares a single round, so reinsertion fires at most
    /// once per epoch and later overflows split directly.
    batch_reinsert: Option<bool>,
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
    /// Panics if `node_capacity < 2`, `min_fill` is outside `(0, 0.5]`, or
    /// `reinsert_fraction` is outside `[0, 1)`.
    pub fn with_config(dataset: &Dataset, config: &RTreeConfig) -> Self {
        assert!(
            config.node_capacity >= 2,
            "RTree: node capacity must be at least 2"
        );
        assert!(
            config.min_fill > 0.0 && config.min_fill <= 0.5,
            "RTree: min_fill must be in (0, 0.5], got {}",
            config.min_fill
        );
        assert!(
            (0.0..1.0).contains(&config.reinsert_fraction),
            "RTree: reinsert_fraction must be in [0, 1), got {}",
            config.reinsert_fraction
        );
        let timer = Timer::start();
        let mut tree = RTree {
            dataset: dataset.clone(),
            nodes: Vec::new(),
            root: None,
            leaf_of: vec![0; dataset.len()],
            free: Vec::new(),
            forced_reinserts: 0,
            node_splits: 0,
            nodes_dissolved: 0,
            batch_reinsert: None,
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
        let Some(root) = self.root else { return 0 };
        let mut leaves = 0;
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            match &self.nodes[node].kind {
                NodeKind::Leaf { .. } => leaves += 1,
                NodeKind::Internal { children } => stack.extend_from_slice(children),
            }
        }
        leaves
    }

    /// Forced-reinsertion rounds performed so far.
    pub fn forced_reinserts(&self) -> u64 {
        self.forced_reinserts
    }

    /// Node splits performed so far.
    pub fn node_splits(&self) -> u64 {
        self.node_splits
    }

    /// Nodes dissolved by underflow handling so far.
    pub fn nodes_dissolved(&self) -> u64 {
        self.nodes_dissolved
    }

    /// Removes `child` from `parent`'s child list and frees its arena slot.
    fn detach_child(&mut self, parent: NodeId, child: NodeId) {
        if let NodeKind::Internal { children } = &mut self.nodes[parent].kind {
            children.retain(|&c| c != child);
        }
        self.free.push(child);
    }

    /// Allocates an arena slot, recycling one freed by an earlier dissolve.
    fn alloc(&mut self, node: RNode) -> NodeId {
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

    /// Minimum number of entries a non-root leaf keeps before it is
    /// dissolved.
    fn min_fill_count(&self) -> usize {
        ((self.config.node_capacity as f64 * self.config.min_fill).ceil() as usize).max(1)
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
            let ids = points.clone();
            let node = self.alloc(RNode {
                bbox,
                count,
                parent: 0,
                kind: NodeKind::Leaf { points },
            });
            for id in ids {
                self.leaf_of[id as usize] = node;
            }
            level.push(node);
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
                let node = self.alloc(RNode {
                    bbox,
                    count,
                    parent: 0,
                    kind: NodeKind::Internal {
                        children: children.clone(),
                    },
                });
                for c in children {
                    self.nodes[c].parent = node;
                }
                next_level.push(node);
            }
            level = next_level;
        }
        if let Some(&root) = level.first() {
            self.nodes[root].parent = root;
            self.root = Some(root);
        }
    }

    /// Recomputes bounding box and count of `node` from its members and
    /// propagates the (possibly shrunk) values to the root. This is the
    /// "bbox shrinking" pass of the delete path: boxes are re-tightened, not
    /// left conservative.
    fn refresh_upward(&mut self, mut node: NodeId) {
        loop {
            let (bbox, count) = match &self.nodes[node].kind {
                NodeKind::Leaf { points } => {
                    let bb = points.iter().fold(BoundingBox::EMPTY, |b, &q| {
                        b.extended(self.dataset.point(q as PointId))
                    });
                    (bb, points.len())
                }
                NodeKind::Internal { children } => {
                    let mut bb = BoundingBox::EMPTY;
                    let mut count = 0;
                    for &c in children {
                        bb = bb.union(&self.nodes[c].bbox);
                        count += self.nodes[c].count;
                    }
                    (bb, count)
                }
            };
            self.nodes[node].bbox = bbox;
            self.nodes[node].count = count;
            let parent = self.nodes[node].parent;
            if parent == node {
                break;
            }
            node = parent;
        }
    }

    /// ChooseLeaf of Guttman: descend picking the child whose box needs the
    /// least area enlargement (ties: smaller area, then first in child
    /// order).
    fn choose_leaf(&self, p: Point) -> NodeId {
        let mut node = self.root.expect("choose_leaf on an empty tree");
        loop {
            match &self.nodes[node].kind {
                NodeKind::Leaf { .. } => return node,
                NodeKind::Internal { children } => {
                    debug_assert!(!children.is_empty(), "internal node without children");
                    let mut best = children[0];
                    let mut best_enlargement = f64::INFINITY;
                    let mut best_area = f64::INFINITY;
                    for &c in children {
                        let bb = self.nodes[c].bbox;
                        let area = bb.area();
                        let enlargement = bb.extended(p).area() - area;
                        if enlargement < best_enlargement
                            || (enlargement == best_enlargement && area < best_area)
                        {
                            best = c;
                            best_enlargement = enlargement;
                            best_area = area;
                        }
                    }
                    node = best;
                }
            }
        }
    }

    /// Inserts an already-pushed dataset point into the tree structure.
    /// `may_reinsert` gates the R*-style forced-reinsertion round: the
    /// triggering update gets one round; re-entrant inserts split instead.
    fn insert_entry(&mut self, id: u32, may_reinsert: bool) {
        let p = self.dataset.point(id as PointId);
        let Some(_) = self.root else {
            let node = self.alloc(RNode {
                bbox: BoundingBox::from_point(p),
                count: 1,
                parent: 0,
                kind: NodeKind::Leaf { points: vec![id] },
            });
            self.nodes[node].parent = node;
            self.root = Some(node);
            self.leaf_of[id as usize] = node;
            return;
        };
        let leaf = self.choose_leaf(p);
        if let NodeKind::Leaf { points } = &mut self.nodes[leaf].kind {
            points.push(id);
        }
        self.leaf_of[id as usize] = leaf;
        // Grow boxes and counts along the path.
        let mut cur = leaf;
        loop {
            self.nodes[cur].bbox = self.nodes[cur].bbox.extended(p);
            self.nodes[cur].count += 1;
            let parent = self.nodes[cur].parent;
            if parent == cur {
                break;
            }
            cur = parent;
        }
        let overflowed = match &self.nodes[leaf].kind {
            NodeKind::Leaf { points } => points.len() > self.config.node_capacity,
            NodeKind::Internal { .. } => unreachable!("choose_leaf returned an internal node"),
        };
        if overflowed {
            self.handle_leaf_overflow(leaf, may_reinsert);
        }
    }

    /// First overflow → forced reinsertion; overflow with the round already
    /// spent (or a root leaf, where migration is meaningless) → split.
    fn handle_leaf_overflow(&mut self, leaf: NodeId, may_reinsert: bool) {
        let k = (self.config.node_capacity as f64 * self.config.reinsert_fraction).ceil() as usize;
        if may_reinsert && self.root != Some(leaf) && k > 0 {
            self.forced_reinserts += 1;
            // Inside an apply_batch epoch the round is shared by the whole
            // batch: spend it.
            if let Some(available) = self.batch_reinsert.as_mut() {
                *available = false;
            }
            // Evict the k entries farthest from the node centre — exactly
            // the strays that inflate the box.
            let center = self.nodes[leaf].bbox.center();
            let evicted: Vec<u32> = {
                let NodeKind::Leaf { points } = &mut self.nodes[leaf].kind else {
                    unreachable!("overflow handling on an internal node");
                };
                let mut by_dist: Vec<u32> = points.clone();
                by_dist.sort_by(|&a, &b| {
                    let da = center.distance_squared(&self_point(&self.dataset, a));
                    let db = center.distance_squared(&self_point(&self.dataset, b));
                    db.total_cmp(&da).then(a.cmp(&b))
                });
                let evicted: Vec<u32> = by_dist[..k.min(points.len() - 1)].to_vec();
                points.retain(|q| !evicted.contains(q));
                evicted
            };
            // Shrink the donor path, then route every evictee from the top.
            self.refresh_upward(leaf);
            for id in evicted {
                self.insert_entry(id, false);
            }
        } else {
            self.split(leaf);
        }
    }

    /// Guttman's quadratic split of an overflowing node, propagating upward
    /// when the parent overflows in turn; a splitting root grows a new root
    /// above itself (the only way the tree gains height).
    fn split(&mut self, node: NodeId) {
        self.node_splits += 1;
        let min_fill = self.min_fill_count();
        let sibling = match &self.nodes[node].kind {
            NodeKind::Leaf { points } => {
                let boxes: Vec<BoundingBox> = points
                    .iter()
                    .map(|&q| BoundingBox::from_point(self.dataset.point(q as PointId)))
                    .collect();
                let (keep, give) = quadratic_partition(&boxes, min_fill);
                let points_snapshot = points.clone();
                let keep_points: Vec<u32> = keep.iter().map(|&i| points_snapshot[i]).collect();
                let give_points: Vec<u32> = give.iter().map(|&i| points_snapshot[i]).collect();
                if let NodeKind::Leaf { points } = &mut self.nodes[node].kind {
                    *points = keep_points;
                }
                let bbox = give_points.iter().fold(BoundingBox::EMPTY, |b, &q| {
                    b.extended(self.dataset.point(q as PointId))
                });
                let count = give_points.len();
                let sibling = self.alloc(RNode {
                    bbox,
                    count,
                    parent: 0,
                    kind: NodeKind::Leaf {
                        points: give_points.clone(),
                    },
                });
                for id in give_points {
                    self.leaf_of[id as usize] = sibling;
                }
                sibling
            }
            NodeKind::Internal { children } => {
                let boxes: Vec<BoundingBox> =
                    children.iter().map(|&c| self.nodes[c].bbox).collect();
                let (keep, give) = quadratic_partition(&boxes, min_fill);
                let children_snapshot = children.clone();
                let keep_children: Vec<NodeId> =
                    keep.iter().map(|&i| children_snapshot[i]).collect();
                let give_children: Vec<NodeId> =
                    give.iter().map(|&i| children_snapshot[i]).collect();
                if let NodeKind::Internal { children } = &mut self.nodes[node].kind {
                    *children = keep_children;
                }
                let mut bbox = BoundingBox::EMPTY;
                let mut count = 0;
                for &c in &give_children {
                    bbox = bbox.union(&self.nodes[c].bbox);
                    count += self.nodes[c].count;
                }
                let sibling = self.alloc(RNode {
                    bbox,
                    count,
                    parent: 0,
                    kind: NodeKind::Internal {
                        children: give_children.clone(),
                    },
                });
                for c in give_children {
                    self.nodes[c].parent = sibling;
                }
                sibling
            }
        };
        // Re-tighten the kept half locally (the given-away entries may have
        // carried the extreme coordinates).
        let (kept_bbox, kept_count) = match &self.nodes[node].kind {
            NodeKind::Leaf { points } => (
                points.iter().fold(BoundingBox::EMPTY, |b, &q| {
                    b.extended(self.dataset.point(q as PointId))
                }),
                points.len(),
            ),
            NodeKind::Internal { children } => {
                let mut bb = BoundingBox::EMPTY;
                let mut count = 0;
                for &c in children {
                    bb = bb.union(&self.nodes[c].bbox);
                    count += self.nodes[c].count;
                }
                (bb, count)
            }
        };
        self.nodes[node].bbox = kept_bbox;
        self.nodes[node].count = kept_count;

        if self.root == Some(node) {
            let bbox = self.nodes[node].bbox.union(&self.nodes[sibling].bbox);
            let count = self.nodes[node].count + self.nodes[sibling].count;
            let new_root = self.alloc(RNode {
                bbox,
                count,
                parent: 0,
                kind: NodeKind::Internal {
                    children: vec![node, sibling],
                },
            });
            self.nodes[new_root].parent = new_root;
            self.nodes[node].parent = new_root;
            self.nodes[sibling].parent = new_root;
            self.root = Some(new_root);
        } else {
            let parent = self.nodes[node].parent;
            self.nodes[sibling].parent = parent;
            let parent_overflowed = {
                let NodeKind::Internal { children } = &mut self.nodes[parent].kind else {
                    unreachable!("parent of a split node must be internal");
                };
                children.push(sibling);
                children.len() > self.config.node_capacity
            };
            // The parent's box and count cover the same entries as before
            // the split, so nothing upward needs refreshing here.
            if parent_overflowed {
                self.split(parent);
            }
        }
    }

    /// Checks the tree's structural bookkeeping: the generic partition
    /// invariants plus the update-path state (`leaf_of` agreement, parent
    /// links, uniform leaf depth, fanout bounds).
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
        let Some(root) = self.root else { return };
        assert_eq!(self.nodes[root].parent, root, "root must be its own parent");
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
                    for &c in children {
                        assert_eq!(
                            self.nodes[c].parent, node,
                            "child {c} has a stale parent link"
                        );
                        stack.push((c, depth + 1));
                    }
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

/// `dataset.point` by `u32` id (helper for the sort closures, which cannot
/// borrow `self` while the node arena is mutably borrowed).
fn self_point(dataset: &Dataset, id: u32) -> Point {
    dataset.point(id as PointId)
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

/// Guttman's quadratic split: picks the two seed entries wasting the most
/// area together, then assigns every remaining entry to the group whose box
/// it enlarges least (ties: smaller area, then the first group), while
/// guaranteeing both groups at least `min_fill` entries. Returns the two
/// index groups (first keeps the original node's slot).
fn quadratic_partition(boxes: &[BoundingBox], min_fill: usize) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    debug_assert!(n >= 2, "cannot split fewer than two entries");
    let min_fill = min_fill.min(n / 2).max(1);
    // Seed pair with maximal dead area.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = boxes[i].union(&boxes[j]).area() - boxes[i].area() - boxes[j].area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut bbox_a = boxes[seed_a];
    let mut bbox_b = boxes[seed_b];
    for (i, bbox) in boxes.iter().enumerate() {
        if i == seed_a || i == seed_b {
            continue;
        }
        let remaining = n - 1 - group_a.len() - group_b.len();
        // Force-assign when one group needs every remaining entry to reach
        // the minimum fill.
        if group_a.len() + remaining < min_fill {
            group_a.push(i);
            bbox_a = bbox_a.union(bbox);
            continue;
        }
        if group_b.len() + remaining < min_fill {
            group_b.push(i);
            bbox_b = bbox_b.union(bbox);
            continue;
        }
        let enlarge_a = bbox_a.union(bbox).area() - bbox_a.area();
        let enlarge_b = bbox_b.union(bbox).area() - bbox_b.area();
        let to_a =
            enlarge_a < enlarge_b || (enlarge_a == enlarge_b && bbox_a.area() <= bbox_b.area());
        if to_a {
            group_a.push(i);
            bbox_a = bbox_a.union(bbox);
        } else {
            group_b.push(i);
            bbox_b = bbox_b.union(bbox);
        }
    }
    (group_a, group_b)
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
        let config = &self.config.delta;
        Ok(tree_query::delta(self, &self.dataset, rho, config, query).0)
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
        let maps = (self.leaf_of.capacity() + self.free.capacity()) * std::mem::size_of::<NodeId>();
        node_bytes + maps + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            // Live structure, not the arena bound (`num_nodes` includes
            // free-listed slots awaiting reuse after dissolves).
            .with_counter("nodes", (self.nodes.len() - self.free.len()) as u64)
            .with_counter("leaves", self.leaf_count() as u64)
            .with_counter("height", self.height() as u64)
            .with_counter("fanout", self.config.node_capacity as u64)
            .with_counter("forced_reinserts", self.forced_reinserts)
            .with_counter("node_splits", self.node_splits)
            .with_counter("nodes_dissolved", self.nodes_dissolved)
    }
}

impl UpdatableIndex for RTree {
    fn insert(&mut self, p: Point) -> Result<PointId> {
        let id = self.dataset.push(p)?;
        self.leaf_of.push(0); // placeholder, set by insert_entry
                              // Outside a batch every insert gets its own forced-reinsertion
                              // round; inside one, the batch's shared round gates it.
        let may_reinsert = self.batch_reinsert.unwrap_or(true);
        self.insert_entry(id as u32, may_reinsert);
        Ok(id)
    }

    fn apply_batch(&mut self, ops: &[dpc_core::BatchOp]) -> Result<()> {
        // A single-op batch is exactly a per-update mutation; skip the
        // shared-round bookkeeping (one op gets one round either way).
        if let [op] = ops {
            return match *op {
                dpc_core::BatchOp::Insert(p) => self.insert(p).map(drop),
                dpc_core::BatchOp::Remove(id) => self.remove(id).map(drop),
            };
        }
        self.batch_reinsert = Some(true);
        let result = ops.iter().try_for_each(|op| match *op {
            dpc_core::BatchOp::Insert(p) => self.insert(p).map(drop),
            dpc_core::BatchOp::Remove(id) => self.remove(id).map(drop),
        });
        self.batch_reinsert = None;
        result
    }

    fn remove(&mut self, id: PointId) -> Result<Option<PointId>> {
        let n = self.dataset.len();
        if id >= n {
            return Err(DpcError::invalid_parameter(
                "id",
                format!("RTree::remove: point id {id} is out of range (n = {n})"),
            ));
        }
        let last = n - 1;
        let leaf = self.leaf_of[id];
        let moved_leaf = self.leaf_of[last];
        let moved = self.dataset.swap_remove(id)?;

        if let NodeKind::Leaf { points } = &mut self.nodes[leaf].kind {
            let pos = points
                .iter()
                .position(|&q| q as PointId == id)
                .expect("RTree: removed point must be listed in its leaf");
            points.swap_remove(pos);
        }
        // Mirror the dataset's swap-remove rename (last → id).
        if moved.is_some() {
            if let NodeKind::Leaf { points } = &mut self.nodes[moved_leaf].kind {
                let pos = points
                    .iter()
                    .position(|&q| q as PointId == last)
                    .expect("RTree: moved point must be listed in its leaf");
                points[pos] = id as u32;
            }
            self.leaf_of[id] = moved_leaf;
        }
        self.leaf_of.pop();

        if self.dataset.is_empty() {
            self.nodes.clear();
            self.free.clear();
            self.root = None;
            return Ok(moved);
        }

        let leaf_len = match &self.nodes[leaf].kind {
            NodeKind::Leaf { points } => points.len(),
            NodeKind::Internal { .. } => unreachable!("leaf_of pointed at an internal node"),
        };
        if self.root != Some(leaf) && leaf_len < self.min_fill_count() {
            // CondenseTree: dissolve the underfull leaf, prune emptied
            // ancestors, then reinsert the survivors from the top.
            self.nodes_dissolved += 1;
            let orphans: Vec<u32> = match &mut self.nodes[leaf].kind {
                NodeKind::Leaf { points } => std::mem::take(points),
                NodeKind::Internal { .. } => unreachable!(),
            };
            let mut anchor = self.nodes[leaf].parent;
            self.detach_child(anchor, leaf);
            while self.root != Some(anchor) && self.children(anchor).is_empty() {
                self.nodes_dissolved += 1;
                let parent = self.nodes[anchor].parent;
                self.detach_child(parent, anchor);
                anchor = parent;
            }
            if self.root == Some(anchor) && self.children(anchor).is_empty() {
                // The whole structure emptied out; the orphans rebuild it.
                self.free.push(anchor);
                self.root = None;
            } else {
                self.refresh_upward(anchor);
            }
            for orphan in orphans {
                self.insert_entry(orphan, false);
            }
        } else {
            // Bbox shrinking: re-tighten the whole path above the leaf.
            self.refresh_upward(leaf);
        }

        // A root with a single child loses a level (keeps every leaf at the
        // same, now smaller, depth).
        while let Some(root) = self.root {
            let only = match &self.nodes[root].kind {
                NodeKind::Internal { children } if children.len() == 1 => Some(children[0]),
                _ => None,
            };
            let Some(child) = only else { break };
            self.nodes_dissolved += 1;
            self.free.push(root);
            self.nodes[child].parent = child;
            self.root = Some(child);
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
        let config = &self.config.delta;
        Ok(tree_query::delta_targets(self, &self.dataset, rho, config, query, targets).0)
    }

    fn maintenance_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("forced_reinserts", self.forced_reinserts),
            ("node_splits", self.node_splits),
            ("nodes_dissolved", self.nodes_dissolved),
        ]
    }

    fn check_invariants(&self) {
        self.check_structure();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree::Quadtree;
    use dpc_baseline::LeanDpc;
    use dpc_core::brute::eps_neighbors_scan;
    use dpc_datasets::generators::{checkins, range, s1, CheckinConfig};
    use dpc_datasets::testsupport::{test_points, TestDistribution};

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
    fn quadratic_partition_covers_and_fills_both_groups() {
        let boxes: Vec<BoundingBox> = (0..9)
            .map(|i| BoundingBox::from_point(Point::new(i as f64, (i * i % 5) as f64)))
            .collect();
        let (a, b) = quadratic_partition(&boxes, 3);
        assert!(a.len() >= 3 && b.len() >= 3);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
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
        let config = RTreeConfig {
            node_capacity: 3,
            ..Default::default()
        };
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
    fn updates_match_a_fresh_build_and_the_baseline() {
        let data = checkins(200, &CheckinConfig::gowalla(), 23).into_dataset();
        let mut tree = RTree::build(&data);
        let bb = data.bounding_box();
        tree.insert(Point::new(bb.max_x() + 5.0, bb.max_y() + 5.0))
            .unwrap();
        tree.insert(Point::new(bb.min_x() - 3.0, bb.min_y()))
            .unwrap();
        tree.insert(data.point(7)).unwrap();
        assert_eq!(tree.remove(3).unwrap(), Some(tree.len()));
        assert_eq!(tree.remove(tree.len() - 1).unwrap(), None);
        tree.check_structure();
        for dc in [0.05, 0.4, 20.0] {
            assert_matches_baseline(tree.dataset(), &tree, dc);
            let fresh = RTree::build(tree.dataset());
            let (r1, d1) = tree.rho_delta(&Query::new(dc)).unwrap();
            let (r2, d2) = fresh.rho_delta(&Query::new(dc)).unwrap();
            assert_eq!(r1, r2, "rho vs fresh build at dc = {dc}");
            assert_eq!(d1, d2, "delta vs fresh build at dc = {dc}");
        }
    }

    #[test]
    fn tree_grown_from_empty_overflows_into_splits_and_reinserts() {
        let mut tree = RTree::with_config(
            &Dataset::new(vec![]),
            &RTreeConfig {
                node_capacity: 4,
                ..Default::default()
            },
        );
        for p in test_points(TestDistribution::Clustered, 250, 29) {
            tree.insert(p).unwrap();
        }
        tree.check_structure();
        assert!(tree.node_splits() > 0);
        assert!(tree.forced_reinserts() > 0);
        assert_matches_baseline(tree.dataset(), &tree, 120.0);
    }

    #[test]
    fn draining_shrinks_boxes_and_dissolves_nodes() {
        let data = Dataset::new(test_points(TestDistribution::Uniform, 300, 31));
        let mut tree = RTree::with_config(
            &data,
            &RTreeConfig {
                node_capacity: 8,
                ..Default::default()
            },
        );
        let full_bbox = tree.bbox(tree.root().unwrap());
        // Remove everything in the right half of the domain; the root box
        // must shrink to exclude it (bbox shrinking, not conservative decay).
        let mid_x = (full_bbox.min_x() + full_bbox.max_x()) / 2.0;
        let mut id = 0;
        while id < tree.len() {
            if tree.dataset().point(id).x > mid_x {
                tree.remove(id).unwrap();
            } else {
                id += 1;
            }
        }
        tree.check_structure();
        assert!(tree.nodes_dissolved() > 0);
        let shrunk = tree.bbox(tree.root().unwrap());
        assert!(
            shrunk.max_x() <= mid_x,
            "root box did not shrink: max_x = {} vs mid_x = {mid_x}",
            shrunk.max_x()
        );
        assert_matches_baseline(tree.dataset(), &tree, 200.0);
    }

    #[test]
    fn eps_neighbors_matches_linear_scan_through_updates() {
        let data = Dataset::new(test_points(TestDistribution::Skewed, 120, 13));
        let mut tree = RTree::with_config(
            &data,
            &RTreeConfig {
                node_capacity: 6,
                ..Default::default()
            },
        );
        for step in 0..60 {
            if step % 3 == 0 && tree.len() > 1 {
                tree.remove(step % tree.len()).unwrap();
            } else {
                let p = test_points(TestDistribution::Uniform, 1, 2000 + step as u64)[0];
                tree.insert(p).unwrap();
            }
            let center = tree.dataset().point(step % tree.len());
            let got = tree.eps_neighbors(center, 90.0).unwrap();
            let expected = eps_neighbors_scan(tree.dataset(), center, 90.0).unwrap();
            assert_eq!(got, expected, "step {step}");
        }
        assert!(tree.eps_neighbors(Point::new(0.0, 0.0), -1.0).is_err());
    }

    #[test]
    fn remove_rejects_out_of_range_ids_and_drains_to_empty() {
        let mut tree = RTree::build(&s1(171, 0.01).into_dataset());
        let n = tree.len();
        assert!(tree.remove(n).is_err());
        assert_eq!(tree.len(), n);
        while tree.len() > 0 {
            tree.remove(tree.len() / 2).unwrap();
        }
        assert_eq!(tree.root(), None);
        assert!(tree.rho(&Query::new(1.0)).unwrap().is_empty());
        tree.insert(Point::new(1.0, 2.0)).unwrap();
        assert_eq!(tree.rho(&Query::new(1.0)).unwrap(), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn capacity_below_two_panics() {
        RTree::with_config(
            &Dataset::new(vec![]),
            &RTreeConfig {
                node_capacity: 1,
                ..Default::default()
            },
        );
    }
}
