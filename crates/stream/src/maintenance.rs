//! The candidate fold of the streaming engine's δ/µ repair.
//!
//! After an insert or delete, the engine splits δ/µ repair into two passes,
//! both bit-identical at every thread count:
//!
//! * a **full recomputation** of the bounded *invalidation set* `F` — points
//!   whose set of denser neighbours may have gained members that are never
//!   candidates (their own ρ fell), or whose stored minimum left that set (the
//!   inserted points, which have none; points whose µ expired or is no
//!   longer denser than them; the global peaks) — through the index's
//!   [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets)
//!   hook: the pruned best-first search of the batch δ-query on the trees
//!   (Lemmas 1–2 of the paper), the brute-force kernel on the index-free
//!   baselines;
//! * a **candidate min-update pass** over everything else: for a point
//!   outside `F` the stored µ is still denser and the denser set gained
//!   only *candidates*, so the existing `(δ, µ)` stays the minimum over what
//!   it already covered and only the candidates need to be folded in
//!   ([`candidate_pass`], on the chunked executor of [`dpc_core::exec`]).
//!
//! ## Which candidates a point folds
//!
//! The candidates are every point that can have entered some denser set:
//! the inserted points, the survivors renamed to a smaller id (they now win
//! ties they lost), and the survivors whose ρ rose. A survivor whose ρ fell
//! or stayed under the same id enters none. A point `p` outside `F` folds
//! every candidate that is denser than it under the new order. One that was
//! already denser before the epoch and kept its id is a no-op: its `fl(d²)`
//! and id are unchanged, so its key is no smaller than that of the minimum
//! `µ(p)` that already covered it (a renamed `µ` only gets a smaller key),
//! and [`closer`] keeps the incumbent on equal keys.
//!
//! ## The cell filter
//!
//! A candidate `c` replaces `µ(p)` only if `fl(d²(p, c))` is at most the
//! incumbent's `fl(d²)`, so it must lie within `p`'s δ-disk. The pass
//! buckets the candidates once per epoch under a sparse cell key of side
//! about `dc/2`: the `(row, col)` pairs sorted, with a directory of the rows
//! that hold candidates. Each point visits only the occupied rows its disk's
//! bounding square overlaps and, in each, the one run of columns inside the
//! square. Before that, one pass over the points outside `F` tests each
//! square against the candidates' bounding box, with no branch per point;
//! a point whose square misses the box looks up no cell at all.
//!
//! The filter is exact. With `s` the incumbent's `fl(d²)` and
//! `δ(p) = fl(√s)`, the reach `r = fl(fl(δ(p)·(1 + 2⁻⁴⁰)) + 2⁻⁵¹¹)` has
//! `fl(r·r) > s`: rounding moves each of `δ(p)`, the product and the square
//! by at most a relative 2⁻⁵³, far below the 2⁻⁴⁰ margin, and for a
//! subnormal or zero `s` the `2⁻⁵¹¹` term alone squares to the smallest
//! normal double. The pass scans the cells of
//! `[fl(p.x − r), fl(p.x + r)] × [fl(p.y − r), fl(p.y + r)]`. The cell of a
//! coordinate is monotone in it, so a candidate outside the scanned cells
//! has, say, `c.x < fl(p.x − r)`. No double lies strictly between `p.x − r`
//! and its rounding, so `p.x − c.x ≥ r` exactly, then `|fl(dx)| ≥ r`,
//! `fl(dx²) ≥ fl(r²) > s` and `fl(d²) ≥ fl(dx²) > s`: it cannot win. The
//! box test is the same argument at the box's edges: a square that misses
//! the box has, say, `fl(p.x − r) > max c.x` over the candidates, so every
//! candidate has `c.x < fl(p.x − r)`, and none can win. The box is tight
//! while the cells round outward, so the box test also skips some points
//! whose squares overlap a candidate's cell but hold no candidate, and
//! fewer pairs reach the density test for the same result. An infinite
//! `δ(p)` (an unset µ) has an infinite reach, whose square meets the box
//! and whose cells saturate to every row and column.
//!
//! ## Tie-breaking
//!
//! Both passes rank candidates with [`closer`], the µ order of the
//! workspace's distance contract (see [`dpc_core::metric`]): the
//! lexicographic minimum of `(fl(d²), id)`, with one square root taken of
//! the winner. The batch oracle (`NaiveReferenceIndex`, which runs the
//! [`dpc_core::brute`] kernels), the baselines, the list indexes and the
//! trees' δ search all use that order, so a repaired `(δ, µ)` is
//! bit-identical to the cold batch result.

use dpc_core::{
    closer, exec, BoundingBox, Dataset, DeltaResult, DensityOrder, ExecPolicy, Point, PointId,
};
use dpc_obs::NoopRecorder;

/// What one [`candidate_pass`] compared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldCounts {
    /// Points outside the invalidation set whose reach square met the
    /// candidates' bounding box: the points that ran the cell lookup.
    pub scanned: u64,
    /// `(p, c)` pairs of a scanned point `p` and a candidate `c` in a cell
    /// that `p`'s δ-disk overlaps.
    pub pairs: u64,
}

/// Folds the epoch's candidates into the δ/µ of every point outside the
/// invalidation set, and returns how many points and `(point, candidate)`
/// pairs the box and the cells passed. Every point whose µ the fold
/// replaced is appended to `moved` with its previous µ, in id order.
///
/// For a point `p` with `skip[p] == false`, the existing `(δ(p), µ(p))` is
/// the valid lexicographic minimum over `p`'s previous denser set, `µ(p)`
/// is still denser than `p`, and every point that joined the denser set is
/// a candidate (see the [module docs](self)). Each candidate inside `p`'s
/// δ-disk that is denser than `p` under the *new* order is min-folded with
/// [`closer`]: strictly smaller `fl(d²)` wins, equal `fl(d²)` goes to the
/// smaller id. A candidate that was already denser folds in as a no-op.
///
/// Each executor chunk first marks, in one branch-free pass over its
/// points, those outside `F` whose reach square meets the candidates'
/// bounding box; only they look up the cells. The incumbent's squared
/// distance is computed once per point, at its first denser candidate in
/// reach, from the coordinates of `µ(p)` (exact — it is the value the
/// kernel that found it minimised before taking the root, and `δ(p)` is
/// that root). A point whose `µ` is `None` and whose δ is infinite folds
/// every candidate; the global peak, which carries the max-distance
/// sentinel rather than a minimum, must be masked out via `skip`, and the
/// engine always recomputes peaks from scratch. `cell_side` sets the cell
/// size (at least the smallest normal double); it changes the work, never
/// the result.
#[allow(clippy::too_many_arguments)]
pub fn candidate_pass(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    candidates: &[PointId],
    cell_side: f64,
    skip: &[bool],
    deltas: &mut DeltaResult,
    policy: ExecPolicy,
    moved: &mut Vec<(PointId, Option<PointId>)>,
) -> FoldCounts {
    if candidates.is_empty() {
        return FoldCounts::default();
    }
    let pts = dataset.points();
    let cells = CandidateCells::new(dataset, candidates, cell_side);
    let chunks = exec::fill_chunks(
        (&mut deltas.delta[..], &mut deltas.mu[..]),
        policy,
        &NoopRecorder,
        "",
        || (FoldCounts::default(), Vec::new(), Vec::new()),
        |start, (delta, mu): (&mut [f64], &mut [Option<PointId>]), scratch| {
            let (counts, marked, moved) = scratch;
            let scanned = cells.mark(dataset, skip, start, delta, marked);
            counts.scanned += scanned.len() as u64;
            for &i in scanned {
                let (p, delta_slot, mu_slot) = (start + i, &mut delta[i], &mut mu[i]);
                let here = pts[p];
                let before = *mu_slot;
                let mut incumbent_sq = None;
                cells.visit_reach(here, *delta_slot, |c| {
                    counts.pairs += 1;
                    if order.is_denser(c, p) {
                        let d2 = pts[c].distance_squared(&here);
                        // Unset µ (δ = ∞): any denser candidate wins. Peaks
                        // carry a sentinel δ instead and must be masked.
                        let best_sq = *incumbent_sq.get_or_insert_with(|| {
                            mu_slot.map_or(f64::INFINITY, |m| pts[m].distance_squared(&here))
                        });
                        if closer(d2, c, best_sq, *mu_slot) {
                            *delta_slot = d2.sqrt();
                            *mu_slot = Some(c);
                            incumbent_sq = Some(d2);
                        }
                    }
                });
                if *mu_slot != before {
                    moved.push((p, before));
                }
            }
        },
    );
    let mut total = FoldCounts::default();
    for (counts, _, chunk_moved) in chunks {
        total.scanned += counts.scanned;
        total.pairs += counts.pairs;
        moved.extend(chunk_moved);
    }
    total
}

/// The candidates of one fold: their bounding box, and the candidates
/// bucketed under a sparse cell key `(row, col)`, sorted by cell, row by
/// row, with a directory of the rows that hold any, so a point visits only
/// those rows of its square and, in each, one contiguous run of columns.
struct CandidateCells {
    /// The smallest box that holds every candidate.
    bbox: BoundingBox,
    /// Cells per unit of length.
    per_unit: f64,
    /// `(col, c)` for every candidate, sorted by `(row, col, c)`.
    entries: Vec<(i64, PointId)>,
    /// The rows that hold candidates, ascending.
    rows: Vec<i64>,
    /// `entries[starts[k]..starts[k + 1]]` is row `rows[k]`.
    starts: Vec<usize>,
}

impl CandidateCells {
    fn new(dataset: &Dataset, candidates: &[PointId], side: f64) -> Self {
        let per_unit = 1.0 / side.max(f64::MIN_POSITIVE);
        let cell = |v: f64| cell_of(v, per_unit);
        let mut keyed: Vec<((i64, i64), PointId)> = candidates
            .iter()
            .map(|&c| {
                let at = dataset.point(c);
                ((cell(at.y), cell(at.x)), c)
            })
            .collect();
        keyed.sort_unstable();
        let mut cells = CandidateCells {
            bbox: candidates
                .iter()
                .fold(BoundingBox::EMPTY, |bb, &c| bb.extended(dataset.point(c))),
            per_unit,
            entries: Vec::with_capacity(keyed.len()),
            rows: Vec::new(),
            starts: Vec::new(),
        };
        for ((row, col), c) in keyed {
            if cells.rows.last() != Some(&row) {
                cells.rows.push(row);
                cells.starts.push(cells.entries.len());
            }
            cells.entries.push((col, c));
        }
        cells.starts.push(cells.entries.len());
        cells
    }

    /// The offsets `i` of the points `p = start + i` with `skip[p] == false`
    /// whose square of half-side [`reach`]`(delta[i])` meets the
    /// candidates' box, ascending, in the front of `marked`. One pass with
    /// no branch per point: each offset is written, and kept only if its
    /// point is marked. A point it leaves out has no candidate that can
    /// lie within its incumbent's `fl(d²)` (see the [module docs](self)).
    fn mark<'m>(
        &self,
        dataset: &Dataset,
        skip: &[bool],
        start: usize,
        delta: &[f64],
        marked: &'m mut Vec<usize>,
    ) -> &'m [usize] {
        let (xs, ys) = dataset.coord_slices();
        let at = start..start + delta.len();
        let (xs, ys, skip) = (&xs[at.clone()], &ys[at.clone()], &skip[at]);
        let b = &self.bbox;
        marked.resize(delta.len(), 0);
        let mut kept = 0;
        for (i, (((&x, &y), &d), &masked)) in xs.iter().zip(ys).zip(delta).zip(skip).enumerate() {
            let r = reach(d);
            let meets = !masked
                & (x - r <= b.max_x())
                & (x + r >= b.min_x())
                & (y - r <= b.max_y())
                & (y + r >= b.min_y());
            marked[kept] = i;
            kept += usize::from(meets);
        }
        &marked[..kept]
    }

    /// Calls `visit(c)` for every candidate that can lie within
    /// `fl(d²) ≤ s` of `center`, where `delta = fl(√s)`, and possibly for
    /// others: the candidates in the cells of the square of half-side
    /// [`reach`]`(delta)` (see the [module docs](self) for why they are all
    /// of them).
    fn visit_reach(&self, center: Point, delta: f64, mut visit: impl FnMut(PointId)) {
        let r = reach(delta);
        let cell = |v: f64| cell_of(v, self.per_unit);
        let (row_lo, row_hi) = (cell(center.y - r), cell(center.y + r));
        let first = self.rows.partition_point(|&row| row < row_lo);
        if self.rows.get(first).is_none_or(|&row| row > row_hi) {
            return; // no candidate row in reach
        }
        let last = first + self.rows[first..].partition_point(|&row| row <= row_hi);
        let (col_lo, col_hi) = (cell(center.x - r), cell(center.x + r));
        for k in first..last {
            let run = &self.entries[self.starts[k]..self.starts[k + 1]];
            let from = run.partition_point(|&(col, _)| col < col_lo);
            for &(col, c) in &run[from..] {
                if col > col_hi {
                    break;
                }
                visit(c);
            }
        }
    }
}

/// The cell of coordinate `v` at `per_unit` cells per unit of length. The
/// product rounds monotonically and the cast truncates and saturates, so the
/// cell is monotone in `v` (the two cells around 0 merge into one).
fn cell_of(v: f64, per_unit: f64) -> i64 {
    (v * per_unit) as i64
}

/// `2⁻⁵¹¹`, whose square is [`f64::MIN_POSITIVE`].
const ROOT_MIN_POSITIVE: f64 = 1.4916681462400413e-154;

/// The half-side of the square around a point that holds every candidate
/// that can beat an incumbent at `fl(d²) = s`, given `delta = fl(√s)`: a
/// radius `r` with `fl(r·r) > s` (see the [module docs](self)). Infinite
/// for an infinite `delta`, whose square then spans every cell.
fn reach(delta: f64) -> f64 {
    const WIDEN: f64 = 1.0 + 1.0 / (1u64 << 40) as f64;
    delta * WIDEN + ROOT_MIN_POSITIVE
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::Rho;
    use dpc_datasets::rng::SplitMix64;

    #[test]
    fn candidate_pass_prefers_smaller_id_on_exact_distance_ties() {
        // p at the origin; candidates 0 and 1 are coincident and both denser.
        let data = Dataset::from_coords(vec![(1.0, 0.0), (1.0, 0.0), (0.0, 0.0)]);
        let rho = vec![5.0, 5.0, 0.0];
        let order = DensityOrder::new(&rho);
        let mut deltas = DeltaResult::unset(3);
        deltas.delta[2] = f64::INFINITY;
        // Feed the larger id first: the smaller id must still win the tie.
        candidate_pass(
            &data,
            &order,
            &[1, 0],
            0.5,
            &[true, true, false],
            &mut deltas,
            ExecPolicy::Sequential,
            &mut Vec::new(),
        );
        assert_eq!(deltas.delta[2], 1.0);
        assert_eq!(deltas.mu[2], Some(0));
    }

    #[test]
    fn candidate_pass_skips_masked_points_and_non_denser_candidates() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 0.0)]);
        let rho = vec![3.0, 1.0];
        let order = DensityOrder::new(&rho);
        let mut deltas = DeltaResult::unset(2);
        // Candidate 1 is sparser than point 0: no update. Point 1 is masked.
        candidate_pass(
            &data,
            &order,
            &[1],
            0.5,
            &[false, true],
            &mut deltas,
            ExecPolicy::Sequential,
            &mut Vec::new(),
        );
        assert_eq!(deltas.mu[0], None);
        assert_eq!(deltas.mu[1], None);

        // Candidate 0 *is* denser than point 1 and must fold in.
        candidate_pass(
            &data,
            &order,
            &[0],
            0.5,
            &[true, false],
            &mut deltas,
            ExecPolicy::Sequential,
            &mut Vec::new(),
        );
        assert_eq!(deltas.mu[1], Some(0));
        assert_eq!(deltas.delta[1], 1.0);
    }

    #[test]
    fn risen_candidates_repair_every_point_outside_f_to_the_cold_minimum() {
        // The cold (δ, µ) before three ρ rises, then the fold over the risen
        // points. p (id 0, ρ 2) depends on m (id 1) at distance 2. a rose
        // past p 1 away and takes over; b was already denser than p at
        // distance 2 and stays behind m on the id tie; c rose but stays
        // sparser than p. a's own µ was p, now sparser, so a is in F, as is
        // the peak.
        let data = Dataset::from_coords(vec![
            (0.0, 0.0),  // p
            (0.0, 2.0),  // m
            (0.0, -1.0), // a
            (2.0, 0.0),  // b
            (-1.0, 0.0), // c
            (9.0, 9.0),  // the peak
        ]);
        let cold = |rho: &[Rho]| {
            let order = DensityOrder::new(rho);
            let (delta, mu) = (0..data.len())
                .map(|p| dpc_core::brute::delta_one(&data, &order, p))
                .unzip();
            DeltaResult::new(delta, mu)
        };
        let mut deltas = cold(&[2.0, 6.0, 1.0, 4.0, 1.0, 9.0]);
        assert_eq!(deltas.mu[0], Some(1));
        let rho = [2.0, 6.0, 3.0, 5.0, 1.5, 9.0];
        let order = DensityOrder::new(&rho);
        let skip: Vec<bool> = (0..data.len())
            .map(|p| deltas.mu[p].is_none_or(|m| !order.is_denser(m, p)))
            .collect();
        assert_eq!(skip, [false, false, true, false, false, true]);
        let counts = candidate_pass(
            &data,
            &order,
            &[2, 3, 4],
            1.0,
            &skip,
            &mut deltas,
            ExecPolicy::Sequential,
            &mut Vec::new(),
        );
        let expected = cold(&rho);
        for p in (0..data.len()).filter(|&p| !skip[p]) {
            assert_eq!(deltas.delta[p], expected.delta[p], "δ of point {p}");
            assert_eq!(deltas.mu[p], expected.mu[p], "µ of point {p}");
        }
        assert_eq!(deltas.mu[0], Some(2));
        // p (δ 2) and m (δ √130, to the peak) reach every candidate's cell;
        // b's square misses c's column and c's square misses b's. All four
        // squares meet the candidates' box.
        assert_eq!(
            counts,
            FoldCounts {
                scanned: 4,
                pairs: 3 + 3 + 2 + 2
            }
        );
    }

    /// 200 denser filler candidates in a 20 × 10 block of cells far from
    /// everything else, which a point with a small δ-disk must not visit.
    fn fillers(points: &mut Vec<(f64, f64)>) -> Vec<PointId> {
        let first = points.len();
        points.extend((0..200).map(|i| (100.0 + f64::from(i % 20), 100.0 + f64::from(i / 20))));
        (first..points.len()).collect()
    }

    const POLICIES: [ExecPolicy; 4] = [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(2),
        ExecPolicy::Threads(3),
        ExecPolicy::Threads(7),
    ];

    /// Runs the fold at every policy and checks it against a fold of every
    /// candidate with neither the box nor the cells: the same δ, µ and
    /// `moved`, and the same counts at every policy. The pairs must include
    /// every pair within its point's incumbent `fl(d²)` and can be no more
    /// than the scanned points times the candidates. Returns the result and
    /// the counts.
    fn check_fold(
        data: &Dataset,
        order: &DensityOrder<'_>,
        candidates: &[PointId],
        side: f64,
        skip: &[bool],
        deltas: &DeltaResult,
    ) -> (DeltaResult, FoldCounts) {
        let mut expected = deltas.clone();
        let mut in_disk = 0;
        for p in (0..data.len()).filter(|&p| !skip[p]) {
            let here = data.point(p);
            let incumbent = |mu: Option<PointId>| {
                mu.map_or(f64::INFINITY, |m| data.point(m).distance_squared(&here))
            };
            let reach_sq = incumbent(deltas.mu[p]);
            let mut best = reach_sq;
            for &c in candidates {
                let d2 = data.point(c).distance_squared(&here);
                in_disk += u64::from(d2 <= reach_sq);
                if order.is_denser(c, p) && closer(d2, c, best, expected.mu[p]) {
                    (best, expected.mu[p], expected.delta[p]) = (d2, Some(c), d2.sqrt());
                }
            }
        }
        let expected_moved: Vec<(PointId, Option<PointId>)> = (0..data.len())
            .filter(|&p| expected.mu[p] != deltas.mu[p])
            .map(|p| (p, deltas.mu[p]))
            .collect();
        let mut first = None;
        for policy in POLICIES {
            let what = format!("cell side {side}, {policy:?}");
            let mut got = deltas.clone();
            let mut moved = Vec::new();
            let counts = candidate_pass(
                data, order, candidates, side, skip, &mut got, policy, &mut moved,
            );
            assert_eq!(got, expected, "{what}");
            assert_eq!(moved, expected_moved, "{what}");
            assert!(
                counts.pairs >= in_disk,
                "{what}: {counts:?}, {in_disk} in reach"
            );
            assert!(
                counts.pairs <= counts.scanned * candidates.len() as u64,
                "{what}"
            );
            assert_eq!(*first.get_or_insert(counts), counts, "{what}");
        }
        (expected, first.unwrap_or_default())
    }

    /// Runs the fold over `points` (every point but `p` and `mu` a
    /// candidate, all denser than `p`) with `µ(p) = mu`, cell side 1, at
    /// every policy, and returns `p`'s new µ and the counts.
    fn fold_into(points: &[(f64, f64)], p: PointId, mu: PointId) -> (Option<PointId>, FoldCounts) {
        let data = Dataset::from_coords(points.to_vec());
        let n = points.len();
        let mut rho = vec![5.0; n];
        rho[p] = 1.0;
        let order = DensityOrder::new(&rho);
        let candidates: Vec<PointId> = (0..n).filter(|&c| c != p && c != mu).collect();
        let mut skip = vec![true; n];
        skip[p] = false;
        let mut deltas = DeltaResult::unset(n);
        deltas.mu[p] = Some(mu);
        deltas.delta[p] = data.point(mu).distance(&data.point(p));
        let (folded, counts) = check_fold(&data, &order, &candidates, 1.0, &skip, &deltas);
        (folded.mu[p], counts)
    }

    #[test]
    fn an_entrant_at_exactly_delta_with_a_smaller_id_wins_and_one_ulp_farther_is_skipped() {
        // p = (10.375, 10.25), µ = p + (0.375, 0.5): δ = 0.625 exactly. The
        // entrant sits at p + (0.625, 0) = (11.0, 10.25), on the edge
        // between cells 10 and 11, at the incumbent's exact square, with id
        // 0 < µ's; one ulp farther right it loses. Without the fillers the
        // candidates' box is the entrant's own point, and p's square must
        // still meet it.
        for with_fillers in [true, false] {
            for (entrant_x, winner) in [(11.0, 0), (11.0f64.next_up(), 2)] {
                let what = format!("entrant at x = {entrant_x}, fillers {with_fillers}");
                let mut points = vec![(entrant_x, 10.25), (10.375, 10.25), (10.75, 10.75)];
                if with_fillers {
                    fillers(&mut points);
                }
                let (mu, counts) = fold_into(&points, 1, 2);
                assert_eq!(mu, Some(winner), "{what}");
                // Only the entrant's cell is in reach; no filler is visited.
                assert_eq!(
                    counts,
                    FoldCounts {
                        scanned: 1,
                        pairs: 1
                    },
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn a_disk_spanning_every_cell_visits_every_candidate_once() {
        // µ is 400 away, so the disk covers every filler's cell: the nearest
        // denser filler wins, and every candidate is visited once.
        let mut points = vec![(0.0, 0.0), (400.0, 0.0)];
        let filler = fillers(&mut points);
        let (mu, counts) = fold_into(&points, 0, 1);
        assert_eq!(mu, Some(filler[0]));
        assert_eq!(counts.pairs, filler.len() as u64);
    }

    #[test]
    fn a_point_whose_square_misses_the_candidates_box_is_not_scanned() {
        // µ is 1 away and the fillers 100 away: p's square misses their
        // box, so p looks up no cell at all.
        let mut points = vec![(0.0, 0.0), (1.0, 0.0)];
        fillers(&mut points);
        assert_eq!(fold_into(&points, 0, 1), (Some(1), FoldCounts::default()));
    }

    #[test]
    fn a_point_with_an_unset_mu_folds_every_denser_candidate() {
        // p (id 0) has no µ and δ = ∞, far from the fillers' corner: its
        // infinite square meets their box and every cell. Every other
        // filler is sparser than p; the nearest denser one wins.
        let mut points = vec![(-50.0, -50.0)];
        let filler = fillers(&mut points);
        let data = Dataset::from_coords(points);
        let mut rho: Vec<Rho> = (0..data.len()).map(|q| [4.0, 0.0][q % 2]).collect();
        rho[0] = 2.0;
        let order = DensityOrder::new(&rho);
        let mut skip = vec![true; data.len()];
        skip[0] = false;
        let mut deltas = DeltaResult::unset(data.len());
        deltas.delta[0] = f64::INFINITY;
        let (folded, counts) = check_fold(&data, &order, &filler, 1.0, &skip, &deltas);
        // Filler 1 at (100, 100) is the nearest but sparser; filler 2 at
        // (101, 100) is denser.
        assert_eq!(
            (folded.delta[0], folded.mu[0]),
            ((151.0f64 * 151.0 + 150.0 * 150.0).sqrt(), Some(2))
        );
        assert_eq!(
            counts,
            FoldCounts {
                scanned: 1,
                pairs: filler.len() as u64
            }
        );
    }

    #[test]
    fn candidates_on_both_sides_of_a_cell_edge_are_both_folded() {
        // p sits on the edge x = 11 between cells 10 and 11, µ 0.5 above
        // it; two candidates 0.25 to its left and right tie on fl(d²) and
        // the smaller id must win whichever side it is on.
        for (left, right, winner) in [(0, 1, 0), (1, 0, 0)] {
            let mut points = vec![(0.0, 0.0); 2];
            points[left] = (10.75, 10.5);
            points[right] = (11.25, 10.5);
            points.extend([(11.0, 10.5), (11.0, 11.0)]);
            fillers(&mut points);
            let (mu, counts) = fold_into(&points, 2, 3);
            assert_eq!(mu, Some(winner), "left {left}, right {right}");
            assert_eq!(counts.pairs, 2);
        }
    }

    #[test]
    fn the_cell_filter_equals_a_fold_of_every_candidate() {
        // Random lattice windows (coincident points, exact distance ties)
        // at several cell sides, against a fold of every candidate with no
        // box or cell filter. Half the cases keep the first denser point
        // as µ; the other half keep the nearest denser point that is not
        // a candidate, as an epoch leaves it, so δ-disks are small and a
        // point whose denser points are all candidates has an unset µ.
        // Every other case confines the candidates to one corner of the
        // window, so most points' squares miss their box.
        let mut rng = SplitMix64::new(7);
        for case in 0..48 {
            let n = 60 + rng.uniform_usize(200);
            let span = [4.0, 40.0, 400.0][case % 3];
            let (nearest, corner) = (case % 4 >= 2, case % 2 == 1);
            let points: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let mut lattice = || (rng.uniform(-span, span) * 4.0).round() / 4.0;
                    (lattice(), lattice())
                })
                .collect();
            let data = Dataset::from_coords(points);
            let rho: Vec<Rho> = (0..n).map(|_| rng.uniform_usize(6) as Rho).collect();
            let order = DensityOrder::new(&rho);
            let in_corner = |c: PointId| {
                let at = data.point(c);
                !corner || (at.x < -span / 2.0 && at.y < -span / 2.0)
            };
            let candidates: Vec<PointId> = (0..n)
                .filter(|&c| in_corner(c) && rng.uniform_usize(if corner { 2 } else { 3 }) == 0)
                .collect();
            let mus: Vec<Option<PointId>> = (0..n)
                .map(|p| {
                    let denser = (0..n).filter(|&q| order.is_denser(q, p));
                    if nearest {
                        let here = data.point(p);
                        denser.filter(|q| !candidates.contains(q)).min_by(|&a, &b| {
                            let d = |q: PointId| data.point(q).distance_squared(&here);
                            d(a).total_cmp(&d(b)).then(a.cmp(&b))
                        })
                    } else {
                        denser.take(1).next()
                    }
                })
                .collect();
            // Only the densest point is masked, as the engine masks peaks.
            let skip: Vec<bool> = (0..n)
                .map(|p| (0..n).all(|q| !order.is_denser(q, p)))
                .collect();
            let deltas = DeltaResult::new(
                (0..n)
                    .map(|p| mus[p].map_or(f64::INFINITY, |m| data.distance(m, p)))
                    .collect(),
                mus,
            );
            for side in [0.25, 1.0, 7.5] {
                let (_, counts) = check_fold(&data, &order, &candidates, side, &skip, &deltas);
                let outside = skip.iter().filter(|&&masked| !masked).count() as u64;
                assert!(counts.scanned <= outside, "case {case}");
                if nearest && corner && !candidates.is_empty() {
                    assert!(
                        counts.scanned < outside / 2,
                        "case {case}: {} of {outside} points scanned",
                        counts.scanned
                    );
                }
            }
        }
    }

    #[test]
    fn the_reach_squares_above_every_incumbent() {
        assert_eq!(ROOT_MIN_POSITIVE * ROOT_MIN_POSITIVE, f64::MIN_POSITIVE);
        let mut rng = SplitMix64::new(3);
        let mut squares = vec![
            0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1e-300,
            0.390625,
            25.0,
            1e300,
        ];
        squares.extend((0..10_000).map(|_| 10f64.powf(rng.uniform(-300.0, 300.0))));
        for s in squares {
            for s in [s.next_down().max(0.0), s, s.next_up()] {
                let r = reach(s.sqrt());
                assert!(r * r > s, "s {s:e}, r {r:e}");
            }
        }
        assert_eq!(reach(f64::INFINITY), f64::INFINITY);
    }
}
