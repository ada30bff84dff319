//! Epoch snapshot publication: immutable per-epoch views of the streaming
//! engine, addressed by stable [`Handle`]s, and the sink trait through which
//! [`StreamingDpc::commit`](crate::StreamingDpc::commit) publishes them.
//!
//! An [`EpochSnapshot`] freezes everything a read-only query needs. Publish
//! copies the window's coordinates, ρ, δ, µ, the clustering and the dense-id
//! → handle list, and builds a flat uniform grid over the frozen coordinates
//! for ε-neighbourhood queries (two linear passes, no hashing). The
//! `(point handle, centre handle)` assignment is not copied: the engine
//! keeps its recluster output behind an `Arc` and the snapshot shares it; a
//! point lookup is one binary search over it. The [`ClusterDelta`] that
//! produced the epoch rides along. Snapshots are immutable plain data —
//! share them behind an `Arc` and read them from any thread without
//! synchronisation; nothing here can observe later mutations of the engine.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use dpc_core::index::validate_dc;
use dpc_core::{BoundingBox, Clustering, Dataset, DeltaResult, Point, PointId, Result, Rho};

use crate::handle::Handle;
use crate::report::ClusterDelta;

/// Average cell occupancy the ε-grid aims for; mirrors the default of the
/// updatable grid index.
const TARGET_POINTS_PER_CELL: f64 = 32.0;

/// A uniform grid over a frozen point set in counting-sort layout: the ids
/// of cell `c = row·cols + col` are `ids[offsets[c]..offsets[c + 1]]`,
/// ascending, so a row of adjacent cells is one contiguous id range.
/// Geometry is derived from the points at build time; since a snapshot
/// never mutates, it can never drift.
#[derive(Debug, Clone)]
struct EpsGrid {
    origin: Point,
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// `cols·rows + 1` cell boundaries into `ids`.
    offsets: Vec<u32>,
    /// Every frozen id, in row-major cell order.
    ids: Vec<u32>,
}

impl EpsGrid {
    /// Lays out `points`, all of which lie in `bb`.
    fn build(points: &[Point], bb: BoundingBox) -> Self {
        assert!(
            u32::try_from(points.len()).is_ok(),
            "the ε-grid numbers points with u32 ids"
        );
        let origin = if bb.is_empty() {
            Point::new(0.0, 0.0)
        } else {
            Point::new(bb.min_x(), bb.min_y())
        };
        let per_axis = (points.len() as f64 / TARGET_POINTS_PER_CELL)
            .max(1.0)
            .sqrt()
            .ceil();
        let mut cell_size = bb.width().max(bb.height()).max(f64::MIN_POSITIVE) / per_axis;
        if !(cell_size.is_finite() && cell_size > 0.0) {
            cell_size = 1.0;
        }
        // The far corner's cell bounds every point's: subtraction rounds
        // monotonically. The cap only binds when the extent overflowed.
        let axis = |extent: f64| cell(extent, 0.0, cell_size, per_axis as usize + 1) + 1;
        let (cols, rows) = (axis(bb.width()), axis(bb.height()));
        let cells: Vec<u32> = points
            .iter()
            .map(|p| {
                let row = cell(p.y, origin.y, cell_size, rows);
                (row * cols + cell(p.x, origin.x, cell_size, cols)) as u32
            })
            .collect();
        // Counting sort: running counts leave `offsets[c]` at the end of
        // cell c; filling each cell backwards from its end, in descending
        // id order, moves it to the cell's start with the ids ascending.
        let mut offsets = vec![0u32; cols * rows + 1];
        for &c in &cells {
            offsets[c as usize] += 1;
        }
        let mut end = 0;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut ids = vec![0u32; points.len()];
        for (id, &c) in cells.iter().enumerate().rev() {
            let slot = &mut offsets[c as usize];
            *slot -= 1;
            ids[*slot as usize] = id as u32;
        }
        EpsGrid {
            origin,
            cell_size,
            cols,
            rows,
            offsets,
            ids,
        }
    }

    /// The row-major cell of a point.
    fn cell_of(&self, p: Point) -> usize {
        cell(p.y, self.origin.y, self.cell_size, self.rows) * self.cols
            + cell(p.x, self.origin.x, self.cell_size, self.cols)
    }

    /// Ids of all points strictly within `eps` of `center`, ascending — the
    /// same contract (and bit-identical answer) as a linear scan in id
    /// order with a strict `< eps²` test.
    fn eps_neighbors(&self, points: &[Point], center: Point, eps: f64) -> Vec<PointId> {
        let eps2 = eps * eps;
        // The cells of `[fl(c − eps), fl(c + eps)]` on each axis hold every
        // answer. `cell` is monotone, so a point outside them lies, say,
        // left of `fl(c − eps)`; no double lies strictly between `c − eps`
        // and its rounding, so `c − x ≥ eps` exactly, `|fl(dx)| ≥ eps` and
        // `fl(d²) ≥ fl(dx²) ≥ fl(eps²)`: the strict test below rejects it.
        let span = |c: f64, origin: f64, len: usize| {
            cell(c - eps, origin, self.cell_size, len)..=cell(c + eps, origin, self.cell_size, len)
        };
        let cols = span(center.x, self.origin.x, self.cols);
        let mut out = Vec::new();
        for row in span(center.y, self.origin.y, self.rows) {
            let first = row * self.cols;
            let range = self.offsets[first + cols.start()] as usize
                ..self.offsets[first + cols.end() + 1] as usize;
            for &q in &self.ids[range] {
                let q = q as PointId;
                if points[q].distance_squared(&center) < eps2 {
                    out.push(q);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// The cell of coordinate `v` on an axis of `len` cells starting at
/// `origin`, clamped to the grid. The cast truncates, which is the floor on
/// the grid, and saturates: everything left of the origin (and NaN) lands
/// in cell 0. Monotone in `v`, so a clamped query range still covers every
/// cell a point inside it can occupy.
fn cell(v: f64, origin: f64, cell_size: f64, len: usize) -> usize {
    (((v - origin) / cell_size) as usize).min(len - 1)
}

/// An immutable view of the engine at one committed epoch.
///
/// Per-point data is indexed by the dense [`PointId`]s of the window at the
/// epoch; [`handle_at`](Self::handle_at) translates them to stable handles.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// The dataset mutation counter at the epoch.
    version: u64,
    points: Vec<Point>,
    rho: Vec<Rho>,
    deltas: DeltaResult,
    clustering: Clustering,
    /// Dense id → stable handle, frozen at the epoch.
    handles: Vec<Handle>,
    /// `(point handle, centre handle)` of every point, in ascending point
    /// handle order: the engine's recluster output, shared.
    assignment: Arc<VecDeque<(Handle, Handle)>>,
    grid: EpsGrid,
    /// The delta that advanced the engine *to* this epoch; its `epoch` is
    /// the snapshot's. The initial snapshot (published at attach time,
    /// before any commit) carries an empty delta.
    delta: ClusterDelta,
}

impl EpochSnapshot {
    /// Freezes a snapshot: copies the dataset's points and version, ρ, δ/µ
    /// and the clustering, takes the dense-id → handle list and the shared
    /// assignment, and builds the ε-grid. The snapshot's epoch is
    /// `delta.epoch`.
    ///
    /// # Panics
    /// Panics if the per-point inputs disagree on length. Whether the
    /// handles, assignment and labels agree is left to
    /// [`check_consistency`](Self::check_consistency).
    pub fn capture(
        dataset: &Dataset,
        rho: &[Rho],
        deltas: &DeltaResult,
        clustering: &Clustering,
        handles: Vec<Handle>,
        assignment: Arc<VecDeque<(Handle, Handle)>>,
        delta: ClusterDelta,
    ) -> Self {
        let n = dataset.len();
        assert_eq!(rho.len(), n, "rho length must match the point count");
        assert_eq!(
            deltas.delta.len(),
            n,
            "delta length must match the point count"
        );
        assert_eq!(deltas.mu.len(), n, "mu length must match the point count");
        assert_eq!(
            clustering.len(),
            n,
            "clustering length must match the point count"
        );
        assert_eq!(handles.len(), n, "one handle per frozen point required");
        let points = dataset.points().to_vec();
        EpochSnapshot {
            version: dataset.version(),
            grid: EpsGrid::build(&points, dataset.bounding_box()),
            points,
            rho: rho.to_vec(),
            deltas: deltas.clone(),
            clustering: clustering.clone(),
            handles,
            assignment,
            delta,
        }
    }

    /// The epoch this snapshot was committed at.
    pub fn epoch(&self) -> u64 {
        self.delta.epoch
    }

    /// The dataset mutation counter at the epoch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of points in the snapshot.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the snapshot holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The frozen coordinates, indexed by dense id.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The frozen ρ values.
    pub fn rho(&self) -> &[Rho] {
        &self.rho
    }

    /// The frozen δ/µ values.
    pub fn deltas(&self) -> &DeltaResult {
        &self.deltas
    }

    /// The frozen clustering (labels, centres, halo).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The delta that advanced the engine to this epoch.
    pub fn delta(&self) -> &ClusterDelta {
        &self.delta
    }

    /// Dense id → handle correspondence frozen at the epoch.
    pub fn handles(&self) -> &[Handle] {
        &self.handles
    }

    /// The handle of the point at dense id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn handle_at(&self, id: PointId) -> Handle {
        self.handles[id]
    }

    /// Point lookup: the *centre handle* of the cluster a point belongs to
    /// at this epoch, or `None` if the handle is not in the window. Centre
    /// handles are the stable cluster identity used by [`ClusterDelta`]; a
    /// centre is its own member.
    pub fn cluster_of(&self, handle: Handle) -> Option<Handle> {
        // Handles ascend strictly, so `handle` sits at most `handle − first`
        // slots after the first entry and at most `last − handle` before the
        // last. The binary search covers only those slots: one slot when
        // the window has no gaps, as a sliding window has none.
        let slots = &self.assignment;
        let (first, last) = (slots.front()?.0, slots.back()?.0);
        let end = slots.len() as u64 - 1;
        let mut lo = end.saturating_sub(last.0.checked_sub(handle.0)?) as usize;
        let mut hi = end.min(handle.0.checked_sub(first.0)?) as usize + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match slots[mid].0.cmp(&handle) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(slots[mid].1),
            }
        }
        None
    }

    /// Handles of all points strictly within `eps` of `center`, in
    /// ascending dense-id order — bit-identical to a linear scan of the
    /// frozen points with a strict `fl(d²) < fl(eps²)` test, and so to
    /// querying the engine's index at the published epoch.
    ///
    /// # Errors
    /// Rejects a non-finite or non-positive `eps`.
    pub fn eps_neighbor_handles(&self, center: Point, eps: f64) -> Result<Vec<Handle>> {
        validate_dc(eps)?;
        Ok(self
            .grid
            .eps_neighbors(&self.points, center, eps)
            .into_iter()
            .map(|id| self.handles[id])
            .collect())
    }

    /// Verifies internal consistency: per-point vectors agree on length,
    /// every label points at a centre labelled with its own cluster, the
    /// assignment maps every frozen handle — each exactly once — to the
    /// handle of its label's centre, and the ε-grid partitions exactly the
    /// frozen ids. A torn snapshot (fields mixed across epochs) cannot pass.
    ///
    /// # Panics
    /// Panics with a descriptive message on the first violation.
    pub fn check_consistency(&self) {
        let n = self.points.len();
        assert_eq!(self.rho.len(), n, "rho/points length mismatch");
        assert_eq!(self.deltas.delta.len(), n, "delta/points length mismatch");
        assert_eq!(self.deltas.mu.len(), n, "mu/points length mismatch");
        assert_eq!(self.clustering.len(), n, "labels/points length mismatch");
        assert_eq!(self.handles.len(), n, "handles/points length mismatch");
        assert_eq!(
            self.assignment.len(),
            n,
            "assignment/points length mismatch"
        );
        let centers = self.clustering.centers();
        for (cluster, &c) in centers.iter().enumerate() {
            assert!(c < n, "centre {c} of cluster {cluster} is out of range");
            assert_eq!(
                self.clustering.label(c),
                cluster,
                "centre {c} is not labelled with its own cluster"
            );
        }
        assert!(
            self.assignment
                .iter()
                .zip(self.assignment.iter().skip(1))
                .all(|(a, b)| a.0 < b.0),
            "assignment must ascend strictly by point handle"
        );
        let mut matched = vec![false; n];
        for (p, (&h, &label)) in self
            .handles
            .iter()
            .zip(self.clustering.labels())
            .enumerate()
        {
            assert!(
                label < centers.len(),
                "point {p} labelled {label} but only {} clusters exist",
                centers.len()
            );
            let slot = self
                .assignment
                .binary_search_by_key(&h, |&(h, _)| h)
                .unwrap_or_else(|_| panic!("point {p}'s handle {h} is not in the assignment"));
            assert!(!matched[slot], "handle {h} is frozen twice");
            matched[slot] = true;
            assert_eq!(
                self.assignment[slot].1, self.handles[centers[label]],
                "point {p}'s label names another centre than the assignment"
            );
        }
        let grid = &self.grid;
        assert_eq!(
            grid.offsets.len(),
            grid.cols * grid.rows + 1,
            "ε-grid offsets must bound every cell"
        );
        assert_eq!(grid.offsets[0], 0, "ε-grid must start at slot 0");
        assert_eq!(grid.ids.len(), n, "ε-grid must hold every frozen id");
        let mut seen = vec![false; n];
        for (c, bounds) in grid.offsets.windows(2).enumerate() {
            assert!(bounds[0] <= bounds[1], "ε-grid cell {c} has negative size");
            for &q in &grid.ids[bounds[0] as usize..bounds[1] as usize] {
                let q = q as PointId;
                assert!(q < n, "ε-grid lists out-of-range id {q}");
                assert!(!seen[q], "ε-grid lists id {q} twice");
                seen[q] = true;
                assert_eq!(
                    grid.cell_of(self.points[q]),
                    c,
                    "point {q} is listed in cell {c} but keys elsewhere"
                );
            }
        }
        assert_eq!(
            grid.offsets[grid.cols * grid.rows] as usize,
            n,
            "ε-grid must partition every frozen id"
        );
    }
}

/// A consumer of published epoch snapshots.
///
/// [`StreamingDpc`](crate::StreamingDpc) calls
/// [`publish`](SnapshotSink::publish) once per successfully committed
/// non-empty epoch, after re-clustering, with a freshly frozen snapshot.
/// Implementations must be cheap and non-blocking — the publish happens on
/// the writer's commit path — and must not call back into the engine.
pub trait SnapshotSink: fmt::Debug + Send + Sync {
    /// Accepts the snapshot of a just-committed epoch.
    fn publish(&self, snapshot: Arc<EpochSnapshot>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamParams, StreamingDpc};
    use dpc_core::brute::eps_neighbors_scan;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::{CenterSelection, DpcIndex, DpcParams, UpdatableIndex};
    use dpc_datasets::testsupport::{test_points, ulp_adversarial_points, TestDistribution};
    use std::sync::Mutex;

    /// A sink that remembers everything published to it.
    #[derive(Debug, Default)]
    struct CollectingSink {
        published: Mutex<Vec<Arc<EpochSnapshot>>>,
    }

    impl SnapshotSink for CollectingSink {
        fn publish(&self, snapshot: Arc<EpochSnapshot>) {
            self.published.lock().unwrap().push(snapshot);
        }
    }

    fn engine() -> StreamingDpc<NaiveReferenceIndex> {
        let seed = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.1, 0.0),
            (0.0, 0.1),
            (5.0, 5.0),
            (5.1, 5.0),
            (5.0, 5.1),
        ]);
        let params = StreamParams::new(0.5)
            .with_dpc(DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 2 }));
        StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap()
    }

    /// An engine seeded with `points` under the adaptive γ-gap selection,
    /// which clusters any non-empty window.
    fn engine_over(points: Vec<Point>, dc: f64) -> StreamingDpc<NaiveReferenceIndex> {
        let seed = Dataset::new(points);
        StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(dc)).unwrap()
    }

    fn grid_points() -> Vec<Point> {
        let mut points = Vec::new();
        for i in 0..13 {
            for j in 0..11 {
                let y = j as f64 * 2.3 + (i % 3) as f64 * 0.1;
                points.push(Point::new(i as f64 * 1.7, y));
            }
        }
        points
    }

    #[test]
    fn snapshot_mirrors_engine_state() {
        let engine = engine();
        let snap = engine.snapshot();
        snap.check_consistency();
        assert_eq!(snap.epoch(), engine.epoch());
        assert_eq!(snap.version(), engine.version());
        assert_eq!(snap.len(), engine.len());
        assert_eq!(snap.rho(), engine.rho());
        assert_eq!(snap.deltas(), engine.deltas());
        assert_eq!(snap.clustering(), engine.clustering());
        assert!(snap.delta().is_empty());
        for p in 0..engine.len() {
            let h = engine.handle_at(p);
            assert_eq!(snap.handle_at(p), h);
            let label = engine.clustering().label(p);
            let centre = engine.clustering().centers()[label];
            assert_eq!(snap.cluster_of(h), Some(engine.handle_at(centre)));
        }
        assert_eq!(snap.cluster_of(Handle(u64::MAX)), None);
    }

    #[test]
    fn cluster_of_resolves_every_handle_of_a_window_with_gaps() {
        let mut engine = engine();
        let gone = [engine.handle_at(1), engine.handle_at(4)];
        engine.remove(gone[0]).unwrap();
        engine.insert(Point::new(0.05, 0.05)).unwrap();
        engine.remove(gone[1]).unwrap();
        let snap = engine.snapshot();
        snap.check_consistency();
        for p in 0..engine.len() {
            let centre = engine.clustering().centers()[engine.clustering().label(p)];
            let expected = Some(engine.handle_at(centre));
            assert_eq!(snap.cluster_of(engine.handle_at(p)), expected);
        }
        let past_the_end = Handle(engine.live_handles().last().unwrap().0 + 1);
        for absent in gone.into_iter().chain([past_the_end]) {
            assert_eq!(snap.cluster_of(absent), None, "{absent}");
        }
    }

    #[test]
    fn commit_publishes_one_snapshot_per_nonempty_epoch() {
        let mut engine = engine();
        let sink = Arc::new(CollectingSink::default());
        engine.set_snapshot_sink(sink.clone());

        // An empty epoch publishes nothing.
        engine.advance(&[], 0).unwrap();
        assert!(sink.published.lock().unwrap().is_empty());

        let (_, d1) = engine.insert(Point::new(0.05, 0.05)).unwrap();
        let (_, d2) = engine.insert(Point::new(5.05, 5.05)).unwrap();
        let published = sink.published.lock().unwrap().clone();
        assert_eq!(published.len(), 2);
        for (snap, delta) in published.iter().zip([&d1, &d2]) {
            snap.check_consistency();
            assert_eq!(snap.delta(), delta);
            assert_eq!(snap.delta().epoch, snap.epoch());
        }
        // The latest snapshot mirrors the live engine exactly.
        let last = published.last().unwrap();
        assert_eq!(last.epoch(), engine.epoch());
        assert_eq!(last.version(), engine.version());
        assert_eq!(last.rho(), engine.rho());
        assert_eq!(last.clustering(), engine.clustering());
    }

    #[test]
    fn snapshot_eps_queries_match_the_engine_index() {
        let mut engine = engine();
        engine.insert(Point::new(2.5, 2.5)).unwrap();
        let snap = engine.snapshot();
        for (center, eps) in [
            (Point::new(0.0, 0.0), 0.2),
            (Point::new(5.0, 5.0), 0.5),
            (Point::new(2.0, 2.0), 10.0),
        ] {
            let ids = engine.index().eps_neighbors(center, eps).unwrap();
            let expected: Vec<Handle> = ids.iter().map(|&id| engine.handle_at(id)).collect();
            assert_eq!(
                snap.eps_neighbor_handles(center, eps).unwrap(),
                expected,
                "eps = {eps}"
            );
        }
    }

    #[test]
    fn capture_freezes_state_and_passes_consistency() {
        let engine = engine_over(grid_points(), 3.0);
        let snap = engine.snapshot();
        let dataset = engine.index().dataset();
        assert_eq!(snap.len(), dataset.len());
        assert_eq!(snap.version(), dataset.version());
        assert_eq!(snap.points(), dataset.points());
        snap.check_consistency();
    }

    #[test]
    fn eps_neighbors_matches_a_linear_scan() {
        let engine = engine_over(grid_points(), 3.0);
        let snap = engine.snapshot();
        let dataset = engine.index().dataset();
        for (center, eps) in [
            (dataset.point(0), 2.5),
            (dataset.point(57), 4.0),
            (Point::new(-3.0, -3.0), 1.0),
            (dataset.point(8), 1.0e6),
        ] {
            let expected: Vec<Handle> = dataset
                .iter()
                .filter(|(_, p)| p.distance_squared(&center) < eps * eps)
                .map(|(id, _)| engine.handle_at(id))
                .collect();
            let got = snap.eps_neighbor_handles(center, eps).unwrap();
            assert_eq!(got, expected, "eps = {eps}");
        }
        assert!(snap
            .eps_neighbor_handles(Point::new(0.0, 0.0), f64::NAN)
            .is_err());
        assert!(snap
            .eps_neighbor_handles(Point::new(0.0, 0.0), -1.0)
            .is_err());
    }

    #[test]
    fn empty_snapshot_is_consistent() {
        let snap = EpochSnapshot::capture(
            &Dataset::new(Vec::new()),
            &[],
            &DeltaResult::unset(0),
            &Clustering::new(vec![], vec![], vec![]),
            Vec::new(),
            Arc::default(),
            ClusterDelta::empty(0, 0),
        );
        assert!(snap.is_empty());
        snap.check_consistency();
        assert!(snap
            .eps_neighbor_handles(Point::new(0.0, 0.0), 1.0)
            .unwrap()
            .is_empty());
        assert_eq!(snap.cluster_of(Handle(0)), None);
    }

    #[test]
    #[should_panic(expected = "rho length")]
    fn mismatched_lengths_panic() {
        let _ = EpochSnapshot::capture(
            &Dataset::from_coords(vec![(0.0, 0.0)]),
            &[],
            &DeltaResult::unset(1),
            &Clustering::new(vec![0], vec![0], vec![false]),
            vec![Handle(0)],
            Arc::default(),
            ClusterDelta::empty(0, 1),
        );
    }

    /// Snapshots of one window size taken one slide (one point out, one
    /// in) apart, both consistent on their own.
    fn one_slide_apart() -> (EpochSnapshot, EpochSnapshot) {
        let mut engine = engine();
        let before = engine.snapshot();
        engine.advance(&[Point::new(0.05, 0.05)], 1).unwrap();
        let after = engine.snapshot();
        assert_eq!(before.len(), after.len());
        before.check_consistency();
        after.check_consistency();
        (before, after)
    }

    #[test]
    #[should_panic(expected = "the assignment")]
    fn an_assignment_from_another_epoch_is_a_torn_snapshot() {
        let (before, after) = one_slide_apart();
        let torn = EpochSnapshot {
            assignment: before.assignment,
            ..after
        };
        torn.check_consistency();
    }

    #[test]
    #[should_panic(expected = "label names another centre than the assignment")]
    fn labels_from_another_epoch_are_a_torn_snapshot() {
        let (before, after) = one_slide_apart();
        let torn = EpochSnapshot {
            clustering: before.clustering,
            ..after
        };
        torn.check_consistency();
    }

    /// Every ε-query of the snapshot equals the brute-force scan over the
    /// engine's dataset, for radii from 1e-9 to ten diameters (and `dc`)
    /// around centres inside the bounding box, on its edges and corners,
    /// far outside it, on up to 64 of the points themselves, and where the
    /// query rectangle's edges land exactly on, or one ulp beside, a cell
    /// boundary of the snapshot's grid.
    fn assert_eps_queries_match_the_brute_scan(engine: &StreamingDpc<NaiveReferenceIndex>) {
        let snap = engine.snapshot();
        snap.check_consistency();
        let dataset = engine.index().dataset();
        let bb = BoundingBox::from_points(dataset.points());
        let (lo, hi) = if bb.is_empty() {
            (Point::new(0.0, 0.0), Point::new(0.0, 0.0))
        } else {
            (
                Point::new(bb.min_x(), bb.min_y()),
                Point::new(bb.max_x(), bb.max_y()),
            )
        };
        let scale = lo.distance(&hi).max(1.0);
        let mid = Point::new((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0);
        let mut centers = vec![
            mid,
            lo,
            hi,
            Point::new(lo.x, hi.y),
            Point::new(mid.x, lo.y),
            Point::new(hi.x, mid.y),
            Point::new(lo.x - 100.0 * scale, mid.y),
            Point::new(mid.x, lo.y - 3.0 * scale),
            Point::new(hi.x + 1e6 * scale, hi.y + 1e6 * scale),
        ];
        centers.extend(dataset.points().iter().take(64));
        // Each cell boundary and its neighbouring doubles, per axis.
        let grid = &snap.grid;
        let boundaries = |origin: f64, len: usize| -> Vec<f64> {
            (0..=len)
                .map(|k| origin + k as f64 * grid.cell_size)
                .flat_map(|b| [b.next_down(), b, b.next_up()])
                .collect()
        };
        let (xs, ys) = (
            boundaries(grid.origin.x, grid.cols),
            boundaries(grid.origin.y, grid.rows),
        );
        let dc = engine.params().dpc.dc;
        for eps in [1e-9, dc, 1e-3 * scale, 0.1 * scale, scale, 10.0 * scale] {
            // Centres eps (give or take an ulp) beside each boundary, so a
            // rectangle edge `fl(c ∓ eps)` lands on or next to it.
            let beside = |b: f64| {
                [b - eps, b + eps]
                    .into_iter()
                    .flat_map(|c| [c.next_down(), c, c.next_up()])
            };
            let on_edges = xs
                .iter()
                .flat_map(|&b| beside(b))
                .map(|x| Point::new(x, mid.y))
                .chain(
                    ys.iter()
                        .flat_map(|&b| beside(b))
                        .map(|y| Point::new(mid.x, y)),
                );
            for center in centers.iter().copied().chain(on_edges) {
                let expected: Vec<Handle> = eps_neighbors_scan(dataset, center, eps)
                    .unwrap()
                    .into_iter()
                    .map(|id| engine.handle_at(id))
                    .collect();
                let got = snap.eps_neighbor_handles(center, eps).unwrap();
                assert_eq!(got, expected, "centre {center:?}, eps {eps}");
            }
        }
    }

    #[test]
    fn eps_queries_on_degenerate_windows_match_the_brute_scan() {
        for (seed, dc, w) in [
            (1u64, 0.6098847240216778, 0.05),
            (2, 7.799999999999999, 0.3),
            (3, 3.1, 0.7),
        ] {
            let engine = engine_over(ulp_adversarial_points(dc, w, seed), dc);
            assert_eps_queries_match_the_brute_scan(&engine);
        }
        let coincident = vec![Point::new(3.0, -4.0); 50];
        let collinear = (0..50)
            .map(|i| Point::new(1.0 + f64::from(i) * 0.37, 2.5))
            .collect();
        let clustered = test_points(TestDistribution::Clustered, 2000, 5);
        // 17 × 17 points 0.5 apart on [0, 8]²: a 4 × 4 grid of cells of side
        // 2, so points sit on cell boundaries and exactly dc from centres
        // beside them.
        let lattice = (0..17 * 17)
            .map(|i| Point::new(f64::from(i % 17) * 0.5, f64::from(i / 17) * 0.5))
            .collect();
        for points in [
            coincident,
            collinear,
            vec![Point::new(-7.5, 0.25)],
            clustered,
            lattice,
        ] {
            assert_eps_queries_match_the_brute_scan(&engine_over(points, 0.5));
        }
        let mut drained = engine_over(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)], 0.5);
        drained.advance(&[], 2).unwrap();
        assert!(drained.is_empty());
        assert_eps_queries_match_the_brute_scan(&drained);
    }
}
