//! The candidate fold of the streaming engine's δ/µ repair.
//!
//! After an insert or delete, the engine splits δ/µ repair into two passes,
//! both bit-identical at every thread count:
//!
//! * a **full recomputation** of the bounded *invalidation set* `F` — points
//!   whose set of denser neighbours may have *shrunk* (their own ρ changed,
//!   their µ was removed or demoted, the global peak) — through the index's
//!   [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets)
//!   hook: the pruned best-first search of the batch δ-query on the trees
//!   (Lemmas 1–2 of the paper), the brute-force kernel on the index-free
//!   baselines;
//! * a **candidate min-update pass** over everything else: for points
//!   outside `F` the denser set can only have *gained* members (the inserted
//!   point, neighbours whose ρ rose, a point renamed to a smaller id), so
//!   the existing `(δ, µ)` stays a valid minimum and only the handful of
//!   candidate entrants need to be folded in ([`candidate_pass`], on the
//!   chunked executor of [`dpc_core::exec`]).
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

use dpc_core::{closer, exec, Dataset, DeltaResult, DensityOrder, ExecPolicy, PointId};
use dpc_obs::NoopRecorder;

/// Folds a small set of *candidate entrants* into the δ/µ of every point
/// outside the invalidation set.
///
/// For a point `p` with `skip[p] == false`, the existing `(δ(p), µ(p))` is
/// the valid lexicographic minimum over `p`'s previous denser set, and
/// `candidates` is a superset of the points that may have *entered* that set
/// (an entrant that was already denser folds in as a no-op: it can never
/// beat a minimum that already accounted for it). Each candidate `c` that is
/// denser than `p` under the *new* order is min-folded with [`closer`]:
/// strictly smaller `fl(d²)` wins, equal `fl(d²)` goes to the smaller id.
///
/// The incumbent's squared distance is recomputed from the coordinates of
/// `µ(p)` (exact — it is the value the kernel that found it minimised
/// before taking the root). A point whose `µ` is `None` (the global peak,
/// carrying the max-distance sentinel rather than a minimum) must be masked
/// out via `skip`; the engine always recomputes peaks from scratch.
pub fn candidate_pass(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    candidates: &[PointId],
    skip: &[bool],
    deltas: &mut DeltaResult,
    policy: ExecPolicy,
) {
    if candidates.is_empty() {
        return;
    }
    let pts = dataset.points();
    exec::fill_slice_pair(
        &mut deltas.delta,
        &mut deltas.mu,
        policy,
        &NoopRecorder,
        "",
        || (),
        |p, delta_slot, mu_slot, ()| {
            if skip[p] {
                return;
            }
            for &c in candidates {
                if !order.is_denser(c, p) {
                    continue;
                }
                let d2 = pts[c].distance_squared(&pts[p]);
                // Unset µ (δ = ∞): any denser candidate wins. Peaks carry a
                // sentinel δ instead and must be masked (see above).
                let incumbent_sq =
                    mu_slot.map_or(f64::INFINITY, |b| pts[b].distance_squared(&pts[p]));
                if closer(d2, c, incumbent_sq, *mu_slot) {
                    *delta_slot = d2.sqrt();
                    *mu_slot = Some(c);
                }
            }
        },
    );
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
            &[true, false],
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas.mu[1], Some(0));
        assert_eq!(deltas.delta[1], 1.0);
    }
}
