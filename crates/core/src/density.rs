//! Local density (`ρ`) representation.
//!
//! The paper defines the local density of an object `p` as the number of
//! *other* objects within the cut-off distance `dc`:
//!
//! ```text
//! ρ(p) = |{ q ∈ P, q ≠ p : dist(p, q) < dc }|
//! ```
//!
//! i.e. the indicator `χ(dist(p,q) − dc)` is 1 exactly when the distance is
//! *strictly* smaller than `dc` and the point itself is never counted. Every
//! index in this workspace follows that convention so their results are
//! bit-identical to the naive baseline.
//!
//! ## Weighted densities
//!
//! With a pluggable [`Kernel`](crate::Kernel) the indicator generalises to a
//! weight `w(dist(p,q))` for neighbours strictly within `dc` (truncated
//! kernels; see [`crate::kernel`]), so `ρ` is an `f64`. The paper-faithful
//! [`Kernel::Cutoff`](crate::Kernel::Cutoff) keeps every weight exactly
//! `1.0`: sums of exact ones are exact integers in f64 (up to 2⁵³ ≫ any
//! window), so the cut-off path remains **bit-identical** to the historical
//! integer-count representation.

use crate::point::PointId;

/// Local density of a single point: the (possibly kernel-weighted) mass of
/// neighbours within `dc`. Under [`Kernel::Cutoff`](crate::Kernel::Cutoff)
/// this is an exact integer-valued count.
pub type Rho = f64;

/// The local densities of every point of a dataset for one particular `dc`.
///
/// Thin wrapper around `Vec<Rho>` adding the convenience queries used by the
/// decision graph and by the tree indices (which need the maximum density per
/// subtree).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityEstimate {
    values: Vec<Rho>,
}

impl DensityEstimate {
    /// Wraps a per-point density vector.
    pub fn new(values: Vec<Rho>) -> Self {
        DensityEstimate { values }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Density of one point.
    #[inline]
    pub fn rho(&self, id: PointId) -> Rho {
        self.values[id]
    }

    /// Consumes the estimate and returns the raw vector.
    pub fn into_vec(self) -> Vec<Rho> {
        self.values
    }

    /// Maximum density over all points (0 for an empty estimate).
    pub fn max(&self) -> Rho {
        self.values.iter().copied().fold(0.0, Rho::max)
    }

    /// Mean density (0 for an empty estimate).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Id of the densest point, ties broken towards the smaller id.
    ///
    /// Returns `None` for an empty estimate.
    pub fn argmax(&self) -> Option<PointId> {
        let mut best: Option<(Rho, PointId)> = None;
        for (id, &r) in self.values.iter().enumerate() {
            match best {
                None => best = Some((r, id)),
                Some((br, _)) if r > br => best = Some((r, id)),
                _ => {}
            }
        }
        best.map(|(_, id)| id)
    }

    /// Histogram of densities: `hist[d]` = number of points whose density
    /// floors to `d` (for integer-valued cut-off densities this is the exact
    /// per-count histogram). Empty for an empty estimate.
    pub fn histogram(&self) -> Vec<usize> {
        if self.values.is_empty() {
            return vec![];
        }
        let mut hist = vec![0usize; self.max() as usize + 1];
        for &r in &self.values {
            hist[r as usize] += 1;
        }
        hist
    }
}

impl From<Vec<Rho>> for DensityEstimate {
    fn from(values: Vec<Rho>) -> Self {
        DensityEstimate::new(values)
    }
}

impl std::ops::Index<PointId> for DensityEstimate {
    type Output = Rho;

    fn index(&self, id: PointId) -> &Rho {
        &self.values[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let d = DensityEstimate::new(vec![3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert_eq!(d.rho(2), 4.0);
        assert_eq!(d[4], 5.0);
        assert_eq!(d.max(), 5.0);
        assert_eq!(d.argmax(), Some(4));
        assert!((d.mean() - 2.8).abs() < 1e-12);
    }

    #[test]
    fn argmax_breaks_ties_towards_smaller_id() {
        let d = DensityEstimate::new(vec![2.0, 7.0, 7.0, 3.0]);
        assert_eq!(d.argmax(), Some(1));
    }

    #[test]
    fn empty_estimate() {
        let d = DensityEstimate::new(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.max(), 0.0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.argmax(), None);
        assert!(d.histogram().is_empty());
    }

    #[test]
    fn histogram_counts_each_density() {
        let d = DensityEstimate::new(vec![0.0, 2.0, 2.0, 3.0]);
        assert_eq!(d.histogram(), vec![1, 0, 2, 1]);
    }

    #[test]
    fn histogram_of_all_zero_densities_is_one_bin_holding_n() {
        let d = DensityEstimate::new(vec![0.0; 5]);
        assert_eq!(d.histogram(), vec![5]);
    }

    #[test]
    fn histogram_floors_weighted_densities_into_integer_bins() {
        let d = DensityEstimate::new(vec![0.4, 2.7, 2.1, 3.0]);
        assert_eq!(d.histogram(), vec![1, 0, 2, 1]);
    }

    #[test]
    fn into_vec_round_trips() {
        let v = vec![1.0f64, 2.0, 3.0];
        let d: DensityEstimate = v.clone().into();
        assert_eq!(d.into_vec(), v);
    }
}
