//! The candidate fold of the streaming engine's δ/µ repair.
//!
//! After an insert or delete, the engine splits δ/µ repair into two passes,
//! both bit-identical at every thread count:
//!
//! * a **full recomputation** of the bounded *invalidation set* `F` — points
//!   whose set of denser neighbours may have *shrunk* or gained points that
//!   are never entrants (their own ρ changed, their µ was removed or
//!   demoted, the global peak) — through the index's
//!   [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets)
//!   hook: the pruned best-first search of the batch δ-query on the trees
//!   (Lemmas 1–2 of the paper), the brute-force kernel on the index-free
//!   baselines;
//! * a **candidate min-update pass** over everything else: for points
//!   outside `F` the denser set can only have *gained* members, so the
//!   existing `(δ, µ)` stays a valid minimum and only the entrants need to
//!   be folded in ([`candidate_pass`], on the chunked executor of
//!   [`dpc_core::exec`]). The inserted points and the survivors renamed to
//!   a smaller id are folded into every such point; a survivor whose ρ
//!   *rose* only into the points inside its band (below).
//!
//! ## The band rule
//!
//! A point `p` outside `F` kept its ρ and its id. A survivor `c` whose ρ
//! rose from `ρ_before(c)` to `ρ(c)` under the same id enters `p`'s denser
//! set only if it was not denser before and is now, which needs
//! `ρ_before(c) ≤ ρ(p) ≤ ρ(c)`: below that band `c` was already denser and
//! sits inside `p`'s stored minimum, above it `c` is still not denser. Both
//! ends are inclusive because equal densities hand the order to the id
//! tie-break. A survivor whose ρ fell or stayed enters no denser set. The
//! pass merges the bands into disjoint intervals once per epoch, so a point
//! whose ρ lies in none of them skips every risen entrant after one binary
//! search.
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

use dpc_core::{closer, exec, Dataset, DeltaResult, DensityOrder, ExecPolicy, PointId, Rho};
use dpc_obs::NoopRecorder;

/// Folds the epoch's entrants into the δ/µ of every point outside the
/// invalidation set, and returns the number of *band pairs*: the `(p, c)`
/// pairs of a point `p` outside `F` and a risen entrant `c` with `ρ(p)`
/// inside `c`'s band.
///
/// For a point `p` with `skip[p] == false`, the existing `(δ(p), µ(p))` is
/// the valid lexicographic minimum over `p`'s previous denser set. The
/// entrants that may have joined that set are
///
/// * `entrants` (the inserted and renamed points), each folded into every
///   such point, and
/// * `risen`, each `(c, ρ_before(c))` for a survivor whose ρ rose to
///   `ρ(c)` under the same id, folded only into the points with
///   `ρ_before(c) ≤ ρ(p) ≤ ρ(c)` (see the [module docs](self)).
///
/// An entrant that was already denser folds in as a no-op: it can never
/// beat a minimum that already accounted for it. Each entrant `c` that is
/// denser than `p` under the *new* order is min-folded with [`closer`]:
/// strictly smaller `fl(d²)` wins, equal `fl(d²)` goes to the smaller id.
///
/// The incumbent's squared distance is computed once per point, at its
/// first denser entrant, from the coordinates of `µ(p)` (exact — it is the
/// value the kernel that found it minimised before taking the root). A
/// point whose `µ` is `None` (the global peak, carrying the max-distance
/// sentinel rather than a minimum) must be masked out via `skip`; the
/// engine always recomputes peaks from scratch.
pub fn candidate_pass(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    entrants: &[PointId],
    risen: &[(PointId, Rho)],
    skip: &[bool],
    deltas: &mut DeltaResult,
    policy: ExecPolicy,
) -> u64 {
    if entrants.is_empty() && risen.is_empty() {
        return 0;
    }
    let pts = dataset.points();
    let rho = order.rho();
    // The bands `[ρ_before(c), ρ(c)]`, merged into disjoint intervals in
    // ascending order.
    let mut bands: Vec<(Rho, Rho)> = risen.iter().map(|&(c, before)| (before, rho[c])).collect();
    bands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    bands.dedup_by(|next, kept| {
        let overlaps = next.0 <= kept.1;
        if overlaps {
            kept.1 = kept.1.max(next.1);
        }
        overlaps
    });
    let band_pairs = exec::fill_slice_pair(
        &mut deltas.delta,
        &mut deltas.mu,
        policy,
        &NoopRecorder,
        "",
        || 0u64,
        |p, delta_slot, mu_slot, band_pairs| {
            if skip[p] {
                return;
            }
            let mut incumbent_sq = None;
            let mut fold = |c: PointId| {
                let d2 = pts[c].distance_squared(&pts[p]);
                // Unset µ (δ = ∞): any denser entrant wins. Peaks carry a
                // sentinel δ instead and must be masked (see above).
                let best_sq = *incumbent_sq.get_or_insert_with(|| {
                    mu_slot.map_or(f64::INFINITY, |b| pts[b].distance_squared(&pts[p]))
                });
                if closer(d2, c, best_sq, *mu_slot) {
                    *delta_slot = d2.sqrt();
                    *mu_slot = Some(c);
                    incumbent_sq = Some(d2);
                }
            };
            for &c in entrants {
                if order.is_denser(c, p) {
                    fold(c);
                }
            }
            // The last merged band starting at or below ρ(p) is the only
            // one that can hold it.
            let rp = rho[p];
            let at = bands.partition_point(|&(lo, _)| lo <= rp);
            if at == 0 || rp > bands[at - 1].1 {
                return;
            }
            for &(c, before) in risen {
                if before <= rp && rp <= rho[c] {
                    *band_pairs += 1;
                    if order.is_denser(c, p) {
                        fold(c);
                    }
                }
            }
        },
    );
    band_pairs.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

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
            &[],
            &[true, true, false],
            &mut deltas,
            ExecPolicy::Sequential,
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
            &[],
            &[false, true],
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas.mu[0], None);
        assert_eq!(deltas.mu[1], None);

        // Candidate 0 *is* denser than point 1 and must fold in.
        candidate_pass(
            &data,
            &order,
            &[0],
            &[],
            &[true, false],
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas.mu[1], Some(0));
        assert_eq!(deltas.delta[1], 1.0);
    }

    #[test]
    fn a_risen_entrant_folds_only_inside_its_band_both_ends_included() {
        // Point 1 (ρ 2) depends on point 3 at distance 5. Point 0 rose to
        // ρ 2 and wins the id tie (upper end); point 2 rose from ρ 2 (lower
        // end); point 4 rose from ρ 3, so it was already denser and the
        // stored minimum accounts for it: the fold must not look at it.
        let data = Dataset::from_coords(vec![
            (1.0, 0.0),
            (0.0, 0.0),
            (0.0, 2.0),
            (5.0, 0.0),
            (0.5, 0.0),
        ]);
        let rho = vec![2.0, 2.0, 3.0, 9.0, 4.0];
        let order = DensityOrder::new(&rho);
        let skip = [true, false, true, true, true];
        for (risen, pairs, mu) in [((0, 1.0), 1, 0), ((2, 2.0), 1, 2), ((4, 3.0), 0, 3)] {
            let mut deltas = DeltaResult::new(vec![5.0; 5], vec![Some(3); 5]);
            let got = candidate_pass(
                &data,
                &order,
                &[],
                &[risen],
                &skip,
                &mut deltas,
                ExecPolicy::Sequential,
            );
            assert_eq!((got, deltas.mu[1]), (pairs, Some(mu)), "risen {risen:?}");
        }
    }
}
