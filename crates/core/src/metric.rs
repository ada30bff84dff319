//! Distance metrics.
//!
//! The paper (and the original DPC algorithm) uses the Euclidean distance on
//! 2-D spatial data. The [`Metric`] trait keeps the rest of the crate generic
//! enough to experiment with other metrics (e.g. Manhattan for grid-like
//! mobility data) while every index in the workspace defaults to
//! [`Euclidean`].
//!
//! ## Where squared distances are safe — the distance contract
//!
//! This section is the single statement of how the workspace compares
//! distances. Every ρ and δ computation works on the f64 value
//! `fl(d²) = dx*dx + dy*dy` of [`Point::distance_squared`], never on a
//! rounded root:
//!
//! * **ρ.** A pair is within `dc` iff `fl(d²) < fl(dc²)`, with `dc²`
//!   computed once as `dc * dc`.
//! * **µ.** `µ(p)` is the lexicographic minimum of `(fl(d²), id)` over the
//!   points denser than `p`; [`closer`] is that order.
//! * **δ.** `δ(p)` is the square root of the winning `fl(d²)`; for the global
//!   peak, the square root of the largest `fl(d²)` to any other point.
//! * **Pruning.** Bounds are squared too. Rounding is monotone, so each step
//!   of [`BoundingBox::min_dist_squared`](crate::BoundingBox::min_dist_squared)
//!   (clamped difference, square, sum) rounds a value no larger than the
//!   same step for any member of the box: the bound never exceeds a member's
//!   `fl(d²)`, and `max_dist_squared` is likewise never below it. Strict
//!   prune tests against them are therefore exact, not conservative.
//!
//! Comparing rounded roots instead would break ties differently: two
//! squared distances one ulp apart can share a root, and a pair whose root
//! rounds to exactly `dc` can still have `fl(d²) < fl(dc²)`.
//!
//! What squared distances cannot do is stand in for distances in
//! *arithmetic*. Squared "distance" is not a metric: it violates the
//! triangle inequality (`d²(a,c) ≰ d²(a,b) + d²(b,c)`), so any bound that
//! offsets, sums or subtracts distances must take roots first.
//! [`SquaredEuclidean`] is a comparison-only pseudo-metric for the same
//! reason.

use crate::point::{Point, PointId};

/// The µ order of the distance contract: whether candidate `q` at squared
/// distance `d2` precedes the incumbent `(best_d2, best)` in the
/// lexicographic `(fl(d²), id)` order.
///
/// `best = None` means there is no incumbent yet (pair it with
/// `best_d2 = f64::INFINITY`): any candidate wins.
#[inline]
pub fn closer(d2: f64, q: PointId, best_d2: f64, best: Option<PointId>) -> bool {
    // `<=` first, so a losing candidate (the common case in every scan)
    // costs one comparison.
    d2 <= best_d2 && (d2 < best_d2 || best.is_none_or(|b| q < b))
}

/// A distance function over 2-D points.
///
/// Implementations must be *metrics* in the mathematical sense for the index
/// pruning rules to remain correct: non-negative, symmetric, zero only on
/// identical inputs, and satisfying the triangle inequality.
/// [`SquaredEuclidean`] deliberately violates the triangle inequality and is
/// documented as such; it is only meant for nearest-neighbour style
/// comparisons where monotonicity suffices.
pub trait Metric: Send + Sync {
    /// Distance between two points.
    fn distance(&self, a: &Point, b: &Point) -> f64;

    /// Human-readable name of the metric (used in reports).
    fn name(&self) -> &'static str;
}

/// The standard Euclidean (L2) distance. This is the metric used throughout
/// the paper's evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Metric for Euclidean {
    #[inline]
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        a.distance(b)
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }
}

/// Squared Euclidean distance.
///
/// Not a metric (no triangle inequality); only useful where distances are
/// compared against each other or against a squared threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl Metric for SquaredEuclidean {
    #[inline]
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        a.distance_squared(b)
    }

    fn name(&self) -> &'static str {
        "squared-euclidean"
    }
}

/// Manhattan (L1) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

impl Metric for Manhattan {
    #[inline]
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        (a.x - b.x).abs() + (a.y - b.y).abs()
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }
}

/// Chebyshev (L∞) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Metric for Chebyshev {
    #[inline]
    fn distance(&self, a: &Point, b: &Point) -> f64 {
        (a.x - b.x).abs().max((a.y - b.y).abs())
    }

    fn name(&self) -> &'static str {
        "chebyshev"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Point = Point::new(1.0, 2.0);
    const B: Point = Point::new(4.0, 6.0);
    const INF: f64 = f64::INFINITY;

    #[test]
    fn closer_orders_by_squared_distance_then_id() {
        let one_ulp_up = 1.0 + f64::EPSILON;
        assert!(closer(1.0, 1, INF, None));
        assert!(closer(INF, 1, INF, None));
        assert!(closer(1.0, 7, one_ulp_up, Some(0)));
        assert!(!closer(one_ulp_up, 0, 1.0, Some(7)));
        assert!(closer(1.0, 3, 1.0, Some(4)));
        assert!(!closer(1.0, 4, 1.0, Some(3)));
        assert!(!closer(1.0, 3, 1.0, Some(3)));
    }

    #[test]
    fn euclidean_matches_point_distance() {
        assert_eq!(Euclidean.distance(&A, &B), 5.0);
        assert_eq!(Euclidean.name(), "euclidean");
    }

    #[test]
    fn squared_euclidean_is_square_of_euclidean() {
        assert_eq!(SquaredEuclidean.distance(&A, &B), 25.0);
    }

    #[test]
    fn manhattan_sums_axis_distances() {
        assert_eq!(Manhattan.distance(&A, &B), 7.0);
    }

    #[test]
    fn chebyshev_takes_max_axis_distance() {
        assert_eq!(Chebyshev.distance(&A, &B), 4.0);
    }

    #[test]
    fn all_metrics_are_symmetric_and_zero_on_self() {
        let metrics: [&dyn Metric; 4] = [&Euclidean, &SquaredEuclidean, &Manhattan, &Chebyshev];
        for m in metrics {
            assert_eq!(m.distance(&A, &B), m.distance(&B, &A), "{}", m.name());
            assert_eq!(m.distance(&A, &A), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn lp_metric_ordering_on_same_pair() {
        // For any pair: chebyshev <= euclidean <= manhattan.
        let c = Chebyshev.distance(&A, &B);
        let e = Euclidean.distance(&A, &B);
        let m = Manhattan.distance(&A, &B);
        assert!(c <= e && e <= m);
    }
}
