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
//! square.
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
//! `fl(dx²) ≥ fl(r²) > s` and `fl(d²) ≥ fl(dx²) > s`: it cannot win. An
//! infinite `δ(p)` (an unset µ) has an infinite reach, whose cells saturate
//! to every row and column.
//!
//! ## Tie-breaking
//!
//! Both passes rank candidates with [`closer`], the µ order of the
//! workspace's distance contract (see [`dpc_core::metric`]): the
//! lexicographic minimum of `(fl(d²), id)`, with one square root taken of
//! the winner. The batch oracle (`NaiveReferenceIndex`, which runs the
//! [`dpc_core::brute`] kernels), the baselines, the list indexes and the
//! trees' `delta_one` all use that order, so a repaired `(δ, µ)` is
//! bit-identical to the cold batch result.

use dpc_core::{closer, exec, Dataset, DeltaResult, DensityOrder, ExecPolicy, Point, PointId};
use dpc_obs::NoopRecorder;

/// Folds the epoch's candidates into the δ/µ of every point outside the
/// invalidation set, and returns the number of `(p, c)` pairs the cell
/// filter passed: the pairs of a point `p` outside `F` and a candidate `c`
/// in a cell that `p`'s δ-disk overlaps. Every point whose µ the fold
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
/// The incumbent's squared distance is computed once per point, at its
/// first denser candidate in reach, from the coordinates of `µ(p)` (exact —
/// it is the value the kernel that found it minimised before taking the
/// root, and `δ(p)` is that root). A point whose `µ` is `None` and whose δ
/// is infinite folds every candidate; the global peak, which carries the
/// max-distance sentinel rather than a minimum, must be masked out via
/// `skip`, and the engine always recomputes peaks from scratch. `cell_side`
/// sets the cell size (at least the smallest normal double); it changes the
/// work, never the result.
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
) -> u64 {
    if candidates.is_empty() {
        return 0;
    }
    let pts = dataset.points();
    let cells = CandidateCells::new(dataset, candidates, cell_side);
    let chunks = exec::fill_slice_pair(
        &mut deltas.delta,
        &mut deltas.mu,
        policy,
        &NoopRecorder,
        "",
        || (0u64, Vec::new()),
        |p, delta_slot, mu_slot, (pairs, moved)| {
            if skip[p] {
                return;
            }
            let here = pts[p];
            let before = *mu_slot;
            let mut incumbent_sq = None;
            cells.visit_reach(here, *delta_slot, |c| {
                *pairs += 1;
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
        },
    );
    let mut pairs = 0;
    for (chunk_pairs, chunk_moved) in chunks {
        pairs += chunk_pairs;
        moved.extend(chunk_moved);
    }
    pairs
}

/// The candidates of one fold, bucketed under a sparse cell key `(row,
/// col)`: the candidates sorted by cell, row by row, with a directory of the
/// rows that hold any, so a point visits only those rows of its square and,
/// in each, one contiguous run of columns.
struct CandidateCells {
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
            return; // no candidate row in reach: the common case
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
        let pairs = candidate_pass(
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
        // b's square misses c's column and c's square misses b's.
        assert_eq!(pairs, 3 + 3 + 2 + 2);
    }

    /// 200 denser filler candidates in a 20 × 10 block of cells far from
    /// everything else, which a point with a small δ-disk must not visit.
    fn fillers(points: &mut Vec<(f64, f64)>) -> Vec<PointId> {
        let first = points.len();
        points.extend((0..200).map(|i| (100.0 + f64::from(i % 20), 100.0 + f64::from(i / 20))));
        (first..points.len()).collect()
    }

    /// Runs the fold over `points` (every point but `p` and `mu` a
    /// candidate, all denser than `p`) with `µ(p) = mu`, cell side 1, and
    /// returns `p`'s new µ and the pairs the cell filter passed.
    fn fold_into(points: &[(f64, f64)], p: PointId, mu: PointId) -> (Option<PointId>, u64) {
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
        let pairs = candidate_pass(
            &data,
            &order,
            &candidates,
            1.0,
            &skip,
            &mut deltas,
            ExecPolicy::Sequential,
            &mut Vec::new(),
        );
        (deltas.mu[p], pairs)
    }

    #[test]
    fn an_entrant_at_exactly_delta_with_a_smaller_id_wins_and_one_ulp_farther_is_skipped() {
        // p = (10.375, 10.25), µ = p + (0.375, 0.5): δ = 0.625 exactly. The
        // entrant sits at p + (0.625, 0) = (11.0, 10.25), on the edge
        // between cells 10 and 11, at the incumbent's exact square, with id
        // 0 < µ's; one ulp farther right it loses.
        for (entrant_x, winner) in [(11.0, 0), (11.0f64.next_up(), 2)] {
            let mut points = vec![(entrant_x, 10.25), (10.375, 10.25), (10.75, 10.75)];
            fillers(&mut points);
            let (mu, pairs) = fold_into(&points, 1, 2);
            assert_eq!(mu, Some(winner), "entrant at x = {entrant_x}");
            // Only the entrant's cell is in reach; no filler is visited.
            assert_eq!(pairs, 1, "entrant at x = {entrant_x}");
        }
    }

    #[test]
    fn a_disk_spanning_every_cell_visits_every_candidate_once() {
        // µ is 400 away, so the disk covers every filler's cell: the nearest
        // denser filler wins, and every candidate is visited once.
        let mut points = vec![(0.0, 0.0), (400.0, 0.0)];
        let filler = fillers(&mut points);
        let (mu, pairs) = fold_into(&points, 0, 1);
        assert_eq!(mu, Some(filler[0]));
        assert_eq!(pairs, filler.len() as u64);
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
            let (mu, pairs) = fold_into(&points, 2, 3);
            assert_eq!(mu, Some(winner), "left {left}, right {right}");
            assert_eq!(pairs, 2);
        }
    }

    #[test]
    fn the_cell_filter_equals_a_fold_of_every_candidate() {
        // Random lattice windows (coincident points, exact distance ties)
        // at several cell sides, against a fold of every candidate with no
        // cell filter.
        let mut rng = SplitMix64::new(7);
        for case in 0..40 {
            let n = 60 + rng.uniform_usize(200);
            let span = [4.0, 40.0, 400.0][case % 3];
            let points: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let mut lattice = || (rng.uniform(-span, span) * 4.0).round() / 4.0;
                    (lattice(), lattice())
                })
                .collect();
            let data = Dataset::from_coords(points);
            let rho: Vec<Rho> = (0..n).map(|_| rng.uniform_usize(6) as Rho).collect();
            let order = DensityOrder::new(&rho);
            let candidates: Vec<PointId> = (0..n).filter(|_| rng.uniform_usize(3) == 0).collect();
            // Every point keeps some denser µ (the densest point is masked).
            let mus: Vec<Option<PointId>> = (0..n)
                .map(|p| (0..n).find(|&q| order.is_denser(q, p)))
                .collect();
            let skip: Vec<bool> = mus.iter().map(Option::is_none).collect();
            let deltas = DeltaResult::new(
                (0..n)
                    .map(|p| mus[p].map_or(f64::INFINITY, |m| data.distance(m, p)))
                    .collect(),
                mus,
            );
            let mut expected = deltas.clone();
            for p in (0..n).filter(|&p| !skip[p]) {
                let here = data.point(p);
                let mut best = data.point(expected.mu[p].unwrap()).distance_squared(&here);
                for &c in &candidates {
                    let d2 = data.point(c).distance_squared(&here);
                    if order.is_denser(c, p) && closer(d2, c, best, expected.mu[p]) {
                        (best, expected.mu[p], expected.delta[p]) = (d2, Some(c), d2.sqrt());
                    }
                }
            }
            let expected_moved: Vec<(PointId, Option<PointId>)> = (0..n)
                .filter(|&p| expected.mu[p] != deltas.mu[p])
                .map(|p| (p, deltas.mu[p]))
                .collect();
            for side in [0.25, 1.0, 7.5] {
                let mut got = deltas.clone();
                let mut moved = Vec::new();
                candidate_pass(
                    &data,
                    &order,
                    &candidates,
                    side,
                    &skip,
                    &mut got,
                    ExecPolicy::Sequential,
                    &mut moved,
                );
                assert_eq!(got, expected, "case {case}, cell side {side}");
                assert_eq!(moved, expected_moved, "case {case}, cell side {side}");
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
