//! The brute-force ρ and δ kernels: every point against every other point.
//!
//! These scans are the [distance contract](crate::metric) in code, and the
//! one place that finds a point's `µ` by scanning the whole dataset. The
//! naive reference index, the `LeanDpc` and `ParallelDpc` baselines and the
//! streaming engine's δ repair call them; every other exact index must
//! reproduce them bit for bit. They stream over the dataset's
//! structure-of-arrays coordinate slices and take one root, of the winning
//! squared distance. Callers validate `dc` and the `rho` slice.

use crate::delta::{DeltaResult, DensityOrder};
use crate::density::Rho;
use crate::exec::{self, ExecPolicy};
use crate::metric::closer;
use crate::point::{Dataset, PointId};

/// ρ of every point by full scan: the number of *other* points with
/// `fl(d²) < fl(dc²)`.
pub fn rho_scan(dataset: &Dataset, dc: f64, policy: ExecPolicy) -> Vec<Rho> {
    let n = dataset.len();
    let (xs, ys) = dataset.coord_slices();
    let dc2 = dc * dc;
    let mut rho = vec![0 as Rho; n];
    exec::fill_slice(
        &mut rho,
        policy,
        || (),
        |i, ()| {
            let (xi, yi) = (xs[i], ys[i]);
            // Branch-free count over the two coordinate streams; the point
            // itself always satisfies d² = 0 < dc² (validate_dc guarantees
            // dc² > 0), so subtract it at the end instead of testing j != i in
            // the hot loop. Counting in u32 and converting once keeps the
            // loop integer-only; the count is an exact integer in f64.
            let mut count: u32 = 0;
            for (&xj, &yj) in xs.iter().zip(ys.iter()) {
                let (dx, dy) = (xj - xi, yj - yi);
                count += u32::from(dx * dx + dy * dy < dc2);
            }
            count.saturating_sub(1) as Rho
        },
    );
    rho
}

/// δ and µ of every point by full scan under the given density order.
pub fn delta_scan(dataset: &Dataset, order: &DensityOrder<'_>, policy: ExecPolicy) -> DeltaResult {
    let mut result = DeltaResult::unset(dataset.len());
    exec::fill_slice_pair(
        &mut result.delta,
        &mut result.mu,
        policy,
        || (),
        |p, delta_slot, mu_slot, ()| (*delta_slot, *mu_slot) = delta_one(dataset, order, p),
    );
    result
}

/// δ and µ of point `p` by full scan: the [`closer`]-minimum `(fl(d²), id)`
/// over the points denser than `p`, or — when there is none, so `p` is the
/// global peak — the root of the largest `fl(d²)` and `µ = None`.
pub fn delta_one(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    p: PointId,
) -> (f64, Option<PointId>) {
    let (xs, ys) = dataset.coord_slices();
    let (xp, yp) = (xs[p], ys[p]);
    let mut best_sq = f64::INFINITY;
    let mut best_q = None;
    let mut max_sq = 0.0f64;
    for q in 0..xs.len() {
        if q == p {
            continue;
        }
        let (dx, dy) = (xs[q] - xp, ys[q] - yp);
        let d2 = dx * dx + dy * dy;
        max_sq = max_sq.max(d2);
        if closer(d2, q, best_sq, best_q) && order.is_denser(q, p) {
            best_sq = d2;
            best_q = Some(q);
        }
    }
    match best_q {
        Some(q) => (best_sq.sqrt(), Some(q)),
        None => (max_sq.sqrt(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    #[test]
    fn rho_counts_strictly_inside_and_never_self() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 0.0)]);
        // d = 1 exactly is not inside dc = 1.
        assert_eq!(
            rho_scan(&data, 1.0, ExecPolicy::Sequential),
            vec![0.0, 0.0, 1.0, 1.0]
        );
        assert_eq!(
            rho_scan(&data, 1.5, ExecPolicy::Threads(3)),
            vec![1.0, 3.0, 2.0, 2.0]
        );
    }

    #[test]
    fn squared_distance_decides_ties_that_share_a_root() {
        // A at d² = 1 + 2⁻⁵² and B at d² = 1 both root to 1.0; the contract
        // picks the smaller d², so the farther A loses despite its smaller id.
        let a = Point::new(0.2195841772600371, 0.9755935573265297);
        let data = Dataset::new(vec![a, Point::new(1.0, 0.0), Point::origin()]);
        assert_eq!(a.distance_squared(&Point::origin()), 1.0 + f64::EPSILON);
        assert_eq!(a.distance(&Point::origin()), 1.0);
        let rho = vec![1.0, 1.0, 0.0];
        let order = DensityOrder::new(&rho);
        assert_eq!(delta_one(&data, &order, 2), (1.0, Some(1)));
    }

    #[test]
    fn global_peak_gets_the_largest_distance() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (3.0, 4.0), (1.0, 0.0)]);
        let rho = vec![2.0, 0.0, 1.0];
        let order = DensityOrder::new(&rho);
        assert_eq!(delta_one(&data, &order, 0), (5.0, None));
        let scan = delta_scan(&data, &order, ExecPolicy::Threads(2));
        assert_eq!(scan.mu, vec![None, Some(2), Some(0)]);
        assert_eq!(scan.delta, vec![5.0, 20.0f64.sqrt(), 1.0]);
    }
}
