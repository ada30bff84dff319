//! Dependent distance (`δ`) and the density total order.
//!
//! For a point `p`, the dependent distance is
//!
//! ```text
//! δ(p) = min { dist(p, q) : q is denser than p }
//! ```
//!
//! and `µ(p)` is the argmin (the *dependent neighbour*). The densest point of
//! the whole dataset — the *global peak* — has no denser neighbour; following
//! the original DPC paper its `δ` is set to the maximum distance from it to
//! any other point.
//!
//! ## Ties
//!
//! The paper defines "denser" as `ρ(q) > ρ(p)` and breaks ties by object id
//! (its Example 1 states *"suppose a smaller object ID represents a higher
//! local density"*). Integer densities collide all the time, so this is the
//! one rule, everywhere: `q` is denser than `p` iff `ρ(q) > ρ(p)`, or the
//! densities are equal and `q < p`. [`DensityOrder`] is that total order.
//! Distance ties follow the distance contract of
//! [`crate::metric`]: `µ(p)` is the lexicographic minimum of `(fl(d²), id)`
//! over the denser points and `δ(p)` the root of that `fl(d²)`, so two
//! candidates one ulp apart in `fl(d²)` are not tied even when their roots
//! are. List indices, tree indices, the baselines and the streaming engine
//! all agree bit-for-bit with the [`crate::brute`] kernels.

use crate::density::Rho;
use crate::error::{DpcError, Result};
use crate::point::PointId;

/// The total order on points induced by `(ρ, id)`.
///
/// `q` is denser than `p` iff `ρ(q) > ρ(p)`, or `ρ(q) = ρ(p)` and `q < p`.
/// Exactly one point — the [global peak](DensityOrder::global_peak) — is
/// denser than every other point.
#[derive(Debug, Clone)]
pub struct DensityOrder<'a> {
    rho: &'a [Rho],
}

impl<'a> DensityOrder<'a> {
    /// Creates the order over the given densities.
    pub fn new(rho: &'a [Rho]) -> Self {
        DensityOrder { rho }
    }

    /// Number of points covered by the order.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// True when the order covers no points.
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// The underlying density slice.
    pub fn rho(&self) -> &[Rho] {
        self.rho
    }

    /// Whether point `q` is denser than point `p` under the total order.
    #[inline]
    pub fn is_denser(&self, q: PointId, p: PointId) -> bool {
        // Short-circuit form: it compiles to early-exit branches, which the
        // δ scans' mostly-"not denser" candidates predict well (a branchless
        // select of both comparisons measured ~10% slower on the grid δ).
        let (rq, rp) = (self.rho[q], self.rho[p]);
        rq > rp || (rq == rp && q < p)
    }

    /// Sort key such that a larger key means denser: `key(q) > key(p)`
    /// exactly when [`is_denser(q, p)`](Self::is_denser). Useful with
    /// `sort_by_key` / `max_by_key`.
    ///
    /// Weighted streams can leave a density slightly negative (`+w − w`
    /// rounding), so the key orders every finite density, negatives
    /// included: `-0.0` is normalised to `+0.0` so the two zeros compare
    /// equal, then a non-negative density's IEEE-754 bit pattern gets its
    /// sign bit set and a negative one's pattern is inverted, which orders
    /// the patterns like the values.
    #[inline]
    pub fn key(&self, p: PointId) -> (u64, i64) {
        let r = self.rho[p];
        let bits = if r == 0.0 { 0u64 } else { r.to_bits() };
        let rho_key = if bits >> 63 == 0 {
            bits | 1 << 63
        } else {
            !bits
        };
        (rho_key, -(p as i64))
    }

    /// The densest point under the total order (`None` for an empty order).
    pub fn global_peak(&self) -> Option<PointId> {
        (0..self.rho.len()).max_by_key(|&p| self.key(p))
    }
}

/// The dependent distances `δ` and dependent neighbours `µ` of every point.
///
/// `mu[p]` is `None` exactly for the global peak (whose `δ` is the maximum
/// distance to any other point, by convention). In approximate settings
/// (RN-List with a too small `τ`) a point whose neighbour could not be found
/// within the truncated list also gets `mu = None` and a sentinel `δ`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaResult {
    /// Dependent distance per point.
    pub delta: Vec<f64>,
    /// Dependent (higher-density) neighbour per point.
    pub mu: Vec<Option<PointId>>,
}

impl DeltaResult {
    /// Creates a result from its two columns.
    ///
    /// # Panics
    /// Panics if the columns have different lengths.
    pub fn new(delta: Vec<f64>, mu: Vec<Option<PointId>>) -> Self {
        assert_eq!(
            delta.len(),
            mu.len(),
            "DeltaResult::new: delta and mu must have the same length"
        );
        DeltaResult { delta, mu }
    }

    /// A result with `n` entries, all initialised to `δ = +∞`, `µ = None`.
    pub fn unset(n: usize) -> Self {
        DeltaResult {
            delta: vec![f64::INFINITY; n],
            mu: vec![None; n],
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.delta.len()
    }

    /// True when the result covers no points.
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// Dependent distance of one point.
    #[inline]
    pub fn delta(&self, p: PointId) -> f64 {
        self.delta[p]
    }

    /// Dependent neighbour of one point (`None` for the global peak).
    #[inline]
    pub fn mu(&self, p: PointId) -> Option<PointId> {
        self.mu[p]
    }

    /// Checks structural consistency against a density order:
    ///
    /// * lengths match,
    /// * every `µ(p)` is denser than `p`,
    /// * exactly the points without `µ` are allowed to exist (at least one —
    ///   the global peak — must have `µ = None`).
    pub fn validate(&self, order: &DensityOrder<'_>) -> Result<()> {
        if self.delta.len() != order.len() {
            return Err(DpcError::LengthMismatch {
                expected: order.len(),
                actual: self.delta.len(),
                what: "delta",
            });
        }
        for p in 0..self.len() {
            if let Some(q) = self.mu[p] {
                if q >= order.len() {
                    return Err(DpcError::LengthMismatch {
                        expected: order.len(),
                        actual: q,
                        what: "mu points outside dataset",
                    });
                }
                if !order.is_denser(q, p) {
                    return Err(DpcError::invalid_parameter(
                        "mu",
                        format!("mu[{p}] = {q} is not denser than {p}"),
                    ));
                }
            }
        }
        if !self.is_empty() && self.mu.iter().all(|m| m.is_some()) {
            return Err(DpcError::invalid_parameter(
                "mu",
                "no global peak: every point has a dependent neighbour",
            ));
        }
        Ok(())
    }

    /// Maximum finite `δ` (0 when there is none). Used to clip the sentinel
    /// `δ` of the global peak in plots.
    pub fn max_finite_delta(&self) -> f64 {
        self.delta
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// `δ` with every infinite value clipped to the largest finite one
    /// ([`max_finite_delta`](Self::max_finite_delta)): the `δ` centre
    /// selection ranks by.
    pub fn clipped_delta(&self) -> Vec<f64> {
        let clip = self.max_finite_delta();
        self.delta
            .iter()
            .map(|&d| if d.is_finite() { d } else { clip })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_denser_uses_rho_first() {
        let rho = vec![5.0, 3.0, 7.0];
        let ord = DensityOrder::new(&rho);
        assert!(ord.is_denser(2, 0));
        assert!(ord.is_denser(0, 1));
        assert!(!ord.is_denser(1, 2));
        assert!(!ord.is_denser(1, 1));
    }

    #[test]
    fn equal_densities_fall_back_to_the_smaller_id() {
        let rho = vec![4.0, 4.0, 4.0];
        let ord = DensityOrder::new(&rho);
        assert!(ord.is_denser(0, 1));
        assert!(ord.is_denser(1, 2));
        assert!(!ord.is_denser(2, 0));
        assert_eq!(ord.global_peak(), Some(0));
    }

    #[test]
    fn order_is_total_and_antisymmetric() {
        let rho = vec![1.0, 5.0, 5.0, 0.0, 5.0];
        let ord = DensityOrder::new(&rho);
        for p in 0..rho.len() {
            for q in 0..rho.len() {
                if p == q {
                    assert!(!ord.is_denser(p, q));
                } else {
                    // exactly one direction holds
                    assert_ne!(ord.is_denser(p, q), ord.is_denser(q, p), "{p} vs {q}");
                }
            }
        }
    }

    #[test]
    fn key_orders_fractional_densities_and_normalises_negative_zero() {
        let rho = vec![0.5, 1.25, 0.0, -0.0, 1.25];
        let ord = DensityOrder::new(&rho);
        assert!(ord.is_denser(1, 0));
        assert!(ord.key(1) > ord.key(0));
        assert!(ord.key(0) > ord.key(2));
        // The two zeros differ only by id: -0.0 maps to the same rho key.
        assert_eq!(ord.key(2).0, ord.key(3).0);
        assert!(ord.is_denser(2, 3));
        // Equal fractional densities fall back to the id tie-break.
        assert!(ord.key(1) > ord.key(4));
        assert_eq!(ord.global_peak(), Some(1));
    }

    #[test]
    fn key_ranks_negative_densities_below_zero() {
        let rho = vec![-1e-17, 0.5, -2.0, -0.0];
        let ord = DensityOrder::new(&rho);
        assert!(ord.key(3) > ord.key(0));
        assert!(ord.key(0) > ord.key(2));
        assert!(ord.key(1) > ord.key(3));
        assert_eq!(ord.global_peak(), Some(1));
    }

    #[test]
    fn global_peak_of_empty_is_none() {
        let rho: Vec<Rho> = vec![];
        assert_eq!(DensityOrder::new(&rho).global_peak(), None);
    }

    #[test]
    fn delta_result_validation_accepts_consistent_result() {
        let rho = vec![3.0, 2.0, 1.0];
        let ord = DensityOrder::new(&rho);
        let res = DeltaResult::new(vec![10.0, 1.0, 2.0], vec![None, Some(0), Some(1)]);
        assert!(res.validate(&ord).is_ok());
    }

    #[test]
    fn delta_result_validation_rejects_non_denser_mu() {
        let rho = vec![3.0, 2.0, 1.0];
        let ord = DensityOrder::new(&rho);
        // mu[0] = 2 but point 2 is sparser than point 0.
        let res = DeltaResult::new(vec![1.0, 1.0, 2.0], vec![Some(2), Some(0), Some(1)]);
        assert!(res.validate(&ord).is_err());
    }

    #[test]
    fn delta_result_validation_requires_a_global_peak() {
        let rho = vec![3.0, 2.0];
        let ord = DensityOrder::new(&rho);
        let res = DeltaResult::new(vec![1.0, 1.0], vec![Some(1), Some(0)]);
        assert!(res.validate(&ord).is_err());
    }

    #[test]
    fn delta_result_validation_rejects_length_mismatch() {
        let rho = vec![3.0, 2.0, 1.0];
        let ord = DensityOrder::new(&rho);
        let res = DeltaResult::unset(2);
        assert!(res.validate(&ord).is_err());
    }

    #[test]
    fn max_finite_delta_ignores_infinities() {
        let res = DeltaResult::new(vec![1.0, f64::INFINITY, 2.5], vec![Some(1), None, Some(1)]);
        assert_eq!(res.max_finite_delta(), 2.5);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn delta_result_new_panics_on_mismatch() {
        DeltaResult::new(vec![1.0], vec![]);
    }
}
