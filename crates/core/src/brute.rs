//! The brute-force kernels: every point against every other point.
//!
//! These scans are the [distance contract](crate::metric) in code, and the
//! one place that finds a point's `µ` — or a point's ε-neighbourhood — by
//! scanning the whole dataset. The naive reference index, the `LeanDpc`
//! baseline and the default
//! [`UpdatableIndex::delta_targets`](crate::UpdatableIndex::delta_targets)
//! call them, the list indexes fall back to [`weighted_rho_scan`] for
//! weighted kernels, and every other exact index must reproduce them bit for
//! bit. They stream over the dataset's structure-of-arrays coordinate slices
//! and take one root, of the winning squared distance. Callers validate `dc`
//! and the `rho` slice.

use crate::delta::{DeltaResult, DensityOrder};
use crate::density::Rho;
use crate::error::Result;
use crate::index::{validate_dc, Query};
use crate::metric::closer;
use crate::point::{Dataset, Point, PointId};

/// ρ of every point by full scan under the query's kernel: for the cut-off
/// kernel the number of *other* points with `fl(d²) < fl(dc²)`, for a
/// weighted kernel [`weighted_rho_scan`].
pub fn rho_scan(dataset: &Dataset, query: &Query<'_>) -> Vec<Rho> {
    if !query.kernel.is_cutoff() {
        return weighted_rho_scan(dataset, query);
    }
    let (xs, ys) = dataset.coord_slices();
    let dc2 = query.dc * query.dc;
    query
        .fill_rho(
            dataset.len(),
            || (),
            |i, ()| {
                let (xi, yi) = (xs[i], ys[i]);
                // Branch-free count over the two coordinate streams; the
                // point itself always satisfies d² = 0 < dc² (validate_dc
                // guarantees dc² > 0), so subtract it at the end instead of
                // testing j != i in the hot loop. Counting in u32 and
                // converting once keeps the loop integer-only; the count is
                // an exact integer in f64.
                let mut count: u32 = 0;
                for (&xj, &yj) in xs.iter().zip(ys.iter()) {
                    let (dx, dy) = (xj - xi, yj - yi);
                    count += u32::from(dx * dx + dy * dy < dc2);
                }
                count.saturating_sub(1) as Rho
            },
        )
        .0
}

/// Canonical kernel-weighted ρ scan: for every point `p`, the sum of the
/// query kernel's weights over the *other* points strictly within `dc`,
/// accumulated in **ascending neighbour-id order** (the workspace-wide
/// canonical summation order for weighted densities; see [`crate::kernel`]).
///
/// This is the reference every accelerated weighted traversal must match
/// bit-for-bit. Parallelism partitions the *output* points across workers;
/// each point's sum is still accumulated in ascending id order, so results
/// are bit-identical at every thread count.
pub fn weighted_rho_scan(dataset: &Dataset, query: &Query<'_>) -> Vec<Rho> {
    let n = dataset.len();
    let (xs, ys) = dataset.coord_slices();
    let (dc2, kernel) = (query.dc * query.dc, query.kernel);
    query
        .fill_rho(
            n,
            || (),
            |i, ()| {
                let (xi, yi) = (xs[i], ys[i]);
                let mut mass = 0.0f64;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let (dx, dy) = (xs[j] - xi, ys[j] - yi);
                    let d2 = dx * dx + dy * dy;
                    if d2 < dc2 {
                        mass += kernel.weight_from_sq(d2);
                    }
                }
                mass
            },
        )
        .0
}

/// δ and µ of every point by full scan under the given density order.
pub fn delta_scan(dataset: &Dataset, order: &DensityOrder<'_>, query: &Query<'_>) -> DeltaResult {
    query
        .fill_delta(dataset.len(), || (), |p, ()| delta_one(dataset, order, p))
        .0
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

/// Ids of all points strictly within `eps` of `center` by full scan,
/// ascending: the reference answer to
/// [`UpdatableIndex::eps_neighbors`](crate::UpdatableIndex::eps_neighbors),
/// and the answer of the index-free baselines. The contract — strict
/// `fl(d²) < fl(eps²)`, `eps` validated like a cut-off distance — lives
/// here once.
pub fn eps_neighbors_scan(dataset: &Dataset, center: Point, eps: f64) -> Result<Vec<PointId>> {
    validate_dc(eps)?;
    let (xs, ys) = dataset.coord_slices();
    let eps2 = eps * eps;
    Ok((0..dataset.len())
        .filter(|&q| {
            let (dx, dy) = (xs[q] - center.x, ys[q] - center.y);
            dx * dx + dy * dy < eps2
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecPolicy;
    use crate::kernel::Kernel;

    #[test]
    fn rho_counts_strictly_inside_and_never_self() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 0.0)]);
        // d = 1 exactly is not inside dc = 1.
        assert_eq!(rho_scan(&data, &Query::new(1.0)), vec![0.0, 0.0, 1.0, 1.0]);
        let threaded = Query::new(1.5).with_exec(ExecPolicy::Threads(3));
        assert_eq!(rho_scan(&data, &threaded), vec![1.0, 3.0, 2.0, 2.0]);
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
        let threaded = Query::new(1.0).with_exec(ExecPolicy::Threads(2));
        let scan = delta_scan(&data, &order, &threaded);
        assert_eq!(scan.mu, vec![None, Some(2), Some(0)]);
        assert_eq!(scan.delta, vec![5.0, 20.0f64.sqrt(), 1.0]);
    }

    #[test]
    fn weighted_scan_under_the_cutoff_kernel_is_the_count() {
        let data = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.5, 0.0),
            (0.0, 0.5),
            (5.0, 5.0),
            (5.2, 5.0),
        ]);
        let query = Query::new(1.0);
        assert_eq!(
            weighted_rho_scan(&data, &query),
            vec![2.0, 2.0, 2.0, 1.0, 1.0]
        );
        assert_eq!(weighted_rho_scan(&data, &query), rho_scan(&data, &query));
    }

    #[test]
    fn weighted_scan_weights_and_truncates() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (0.5, 0.0), (2.0, 0.0)]);
        let k = Kernel::gaussian(1.0);
        let query = Query::new(1.0).with_kernel(k);
        let rho = rho_scan(&data, &query);
        let w = k.weight(0.5);
        // Point 2 is outside everyone's dc: weight truncates to exactly 0.
        assert_eq!(rho, vec![w, w, 0.0]);
        // Parallel partitioning is bit-identical.
        let threaded = query.with_exec(ExecPolicy::Threads(4));
        assert_eq!(weighted_rho_scan(&data, &threaded), rho);
    }

    #[test]
    fn eps_scan_is_strict_sorted_and_validated() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 0.0)]);
        let origin = Point::origin();
        assert_eq!(eps_neighbors_scan(&data, origin, 1.0).unwrap(), vec![0, 3]);
        assert_eq!(
            eps_neighbors_scan(&data, origin, 1.5).unwrap(),
            vec![0, 1, 3]
        );
        assert!(eps_neighbors_scan(&data, origin, 0.0).is_err());
    }
}
