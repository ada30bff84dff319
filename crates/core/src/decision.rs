//! Decision graph and cluster-centre selection.
//!
//! In DPC, once `ρ` and `δ` have been computed the user looks at the
//! *decision graph* (a scatter plot of `δ` against `ρ`) and picks as cluster
//! centres the points that have both high density and anomalously large
//! dependent distance; points with very low density but large `δ` are
//! outliers. The third step of the original algorithm is manual, so this
//! module provides a faithful representation of the graph plus several
//! automatic selection strategies that are commonly used in practice
//! (`ρ·δ` ranking and the largest-gap heuristic).

use std::cmp::Ordering;

use crate::delta::DeltaResult;
use crate::density::Rho;
use crate::error::{DpcError, Result};
use crate::point::PointId;

/// The decision graph: per-point `(ρ, δ)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionGraph {
    rho: Vec<Rho>,
    delta: Vec<f64>,
}

impl DecisionGraph {
    /// Builds the graph from a density vector and a δ-query result.
    ///
    /// The sentinel `δ = +∞` (which approximate indices may report for
    /// points whose neighbour lies beyond the truncation radius) is clipped
    /// to the largest finite `δ` so that ranking remains well defined.
    pub fn new(rho: Vec<Rho>, delta_result: &DeltaResult) -> Result<Self> {
        if rho.len() != delta_result.len() {
            return Err(DpcError::LengthMismatch {
                expected: rho.len(),
                actual: delta_result.len(),
                what: "decision graph delta",
            });
        }
        let clip = delta_result.max_finite_delta();
        let delta = delta_result
            .delta
            .iter()
            .map(|&d| if d.is_finite() { d } else { clip })
            .collect();
        Ok(DecisionGraph { rho, delta })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// True when the graph has no points.
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// Density of one point.
    pub fn rho(&self, p: PointId) -> Rho {
        self.rho[p]
    }

    /// Dependent distance of one point (clipped, never infinite).
    pub fn delta(&self, p: PointId) -> f64 {
        self.delta[p]
    }

    /// The γ score of a point: normalised `ρ` times normalised `δ`.
    ///
    /// Normalisation divides by the maximum of each quantity so that γ lies
    /// in `[0, 1]`; this is the standard way of ranking centre candidates
    /// when the decision graph is not inspected manually.
    pub fn gamma(&self) -> Vec<f64> {
        let max_rho = self.rho.iter().copied().fold(0.0, f64::max).max(1.0);
        let max_delta = self
            .delta
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        self.rho
            .iter()
            .zip(&self.delta)
            .map(|(&r, &d)| (r / max_rho) * (d / max_delta))
            .collect()
    }

    /// Selects cluster centres according to a strategy. The returned ids are
    /// sorted in increasing order.
    ///
    /// `TopKGamma` and `GammaGap` rank candidates by decreasing γ, ties to
    /// the smaller id. Neither sorts all n points: γ is computed once, a
    /// partial selection (`select_nth_unstable_by`) isolates the `k` (or
    /// `max_centers + 1`) best candidates in `O(n)`, and only that head is
    /// sorted.
    pub fn select_centers(&self, selection: &CenterSelection) -> Result<Vec<PointId>> {
        if self.is_empty() {
            return Err(DpcError::EmptyDataset);
        }
        let mut centers = match selection {
            CenterSelection::Threshold { rho_min, delta_min } => (0..self.len())
                .filter(|&p| self.rho[p] >= *rho_min && self.delta[p] >= *delta_min)
                .collect::<Vec<_>>(),
            CenterSelection::TopKGamma { k } => {
                if *k == 0 {
                    return Err(DpcError::invalid_parameter(
                        "k",
                        "must select at least one centre",
                    ));
                }
                if *k > self.len() {
                    return Err(DpcError::TooManyCenters {
                        requested: *k,
                        available: self.len(),
                    });
                }
                top_by_gamma(&self.gamma(), *k)
            }
            CenterSelection::GammaGap { max_centers } => {
                if *max_centers == 0 {
                    return Err(DpcError::invalid_parameter(
                        "max_centers",
                        "must consider at least one centre",
                    ));
                }
                let cap = (*max_centers).min(self.len());
                let gamma = self.gamma();
                let mut ranking = top_by_gamma(&gamma, (cap + 1).min(self.len()));
                // Find the largest *relative* drop between consecutive γ
                // values within the first `cap + 1` candidates; the centres
                // are everything before the drop. A relative (ratio) gap is
                // used rather than an absolute one because the global peak's
                // γ is 1 by construction and would otherwise always dominate
                // the gap search, collapsing every selection to one cluster.
                let mut best_cut = 1;
                let mut best_ratio = 0.0f64;
                for (i, pair) in ranking.windows(2).enumerate() {
                    let ratio = gamma[pair[0]] / gamma[pair[1]].max(1e-12);
                    if ratio > best_ratio {
                        best_ratio = ratio;
                        best_cut = i + 1;
                    }
                }
                ranking.truncate(best_cut);
                ranking
            }
            CenterSelection::Explicit { centers } => {
                for &c in centers {
                    if c >= self.len() {
                        return Err(DpcError::invalid_parameter(
                            "centers",
                            format!("explicit centre {c} is out of range (n = {})", self.len()),
                        ));
                    }
                }
                centers.clone()
            }
        };
        centers.sort_unstable();
        centers.dedup();
        if centers.is_empty() {
            return Err(DpcError::invalid_parameter(
                "selection",
                "no point satisfies the centre-selection criterion",
            ));
        }
        Ok(centers)
    }

    /// Points that the decision graph flags as outliers: density at or below
    /// `rho_max` yet dependent distance at least `delta_min` (the top-left
    /// corner of the graph).
    pub fn outliers(&self, rho_max: Rho, delta_min: f64) -> Vec<PointId> {
        (0..self.len())
            .filter(|&p| self.rho[p] <= rho_max && self.delta[p] >= delta_min)
            .collect()
    }
}

/// The `m` ids of largest γ in decreasing-γ order, ties to the smaller id
/// (`m` ≤ `gamma.len()`). A partial selection moves them to the front in
/// `O(n)`; only those `m` are sorted.
fn top_by_gamma(gamma: &[f64], m: usize) -> Vec<PointId> {
    let by_gamma = |&a: &PointId, &b: &PointId| {
        gamma[b]
            .partial_cmp(&gamma[a])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    };
    let mut ids: Vec<PointId> = (0..gamma.len()).collect();
    if m < ids.len() {
        ids.select_nth_unstable_by(m, by_gamma);
        ids.truncate(m);
    }
    ids.sort_unstable_by(by_gamma);
    ids
}

/// Strategy for picking cluster centres from the decision graph.
#[derive(Debug, Clone, PartialEq)]
pub enum CenterSelection {
    /// All points with `ρ ≥ rho_min` and `δ ≥ delta_min` — the rectangle a
    /// user would draw on the decision graph.
    Threshold {
        /// Minimum density.
        rho_min: Rho,
        /// Minimum dependent distance.
        delta_min: f64,
    },
    /// The `k` points with the largest γ = ρ̂·δ̂ score.
    TopKGamma {
        /// Number of centres (= number of clusters).
        k: usize,
    },
    /// Automatic selection: rank by γ and cut at the largest *relative* drop
    /// among the first `max_centers + 1` candidates, so between 1 and
    /// `max_centers` centres are chosen.
    GammaGap {
        /// Upper bound on the number of centres (at least 1).
        max_centers: usize,
    },
    /// Explicitly provided centre ids (e.g. from a previous manual
    /// inspection of the decision graph).
    Explicit {
        /// The centre point ids.
        centers: Vec<PointId>,
    },
}

impl Default for CenterSelection {
    fn default() -> Self {
        CenterSelection::GammaGap { max_centers: 32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaResult;

    /// Small synthetic decision graph: points 0 and 5 are obvious centres.
    fn graph() -> DecisionGraph {
        let rho = vec![10.0, 8.0, 7.0, 6.0, 1.0, 9.0];
        let delta = DeltaResult::new(
            vec![5.0, 0.2, 0.3, 0.1, 0.2, 4.0],
            vec![None, Some(0), Some(0), Some(1), Some(3), Some(0)],
        );
        DecisionGraph::new(rho, &delta).unwrap()
    }

    #[test]
    fn gamma_is_normalised_product() {
        let g = graph();
        let gamma = g.gamma();
        assert_eq!(gamma.len(), 6);
        // Point 0 has max rho and max delta -> gamma exactly 1.
        assert!((gamma[0] - 1.0).abs() < 1e-12);
        for &v in &gamma {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn top_k_gamma_selects_the_two_peaks() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::TopKGamma { k: 2 })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
    }

    #[test]
    fn gamma_gap_detects_two_centres() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::GammaGap { max_centers: 6 })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
    }

    #[test]
    fn threshold_selection_matches_rectangle() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::Threshold {
                rho_min: 7.0,
                delta_min: 1.0,
            })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
    }

    #[test]
    fn threshold_with_nothing_selected_is_an_error() {
        let g = graph();
        assert!(g
            .select_centers(&CenterSelection::Threshold {
                rho_min: 100.0,
                delta_min: 100.0
            })
            .is_err());
    }

    #[test]
    fn explicit_selection_is_validated_and_sorted() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::Explicit {
                centers: vec![5, 0, 5],
            })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
        assert!(g
            .select_centers(&CenterSelection::Explicit { centers: vec![99] })
            .is_err());
    }

    #[test]
    fn top_k_rejects_zero_and_too_many() {
        let g = graph();
        assert!(g
            .select_centers(&CenterSelection::TopKGamma { k: 0 })
            .is_err());
        assert!(g
            .select_centers(&CenterSelection::TopKGamma { k: 7 })
            .is_err());
    }

    #[test]
    fn outliers_are_low_rho_high_delta() {
        let rho = vec![10.0, 1.0, 9.0];
        let delta = DeltaResult::new(vec![3.0, 2.5, 0.1], vec![None, Some(0), Some(0)]);
        let g = DecisionGraph::new(rho, &delta).unwrap();
        assert_eq!(g.outliers(2.0, 1.0), vec![1]);
    }

    #[test]
    fn infinite_delta_is_clipped() {
        let rho = vec![5.0, 4.0];
        let delta = DeltaResult::new(vec![f64::INFINITY, 2.0], vec![None, Some(0)]);
        let g = DecisionGraph::new(rho, &delta).unwrap();
        assert_eq!(g.delta(0), 2.0);
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let delta = DeltaResult::unset(3);
        assert!(DecisionGraph::new(vec![1.0, 2.0], &delta).is_err());
    }

    #[test]
    fn empty_graph_select_errors() {
        let g = DecisionGraph::new(vec![], &DeltaResult::unset(0)).unwrap();
        assert!(g.select_centers(&CenterSelection::default()).is_err());
    }
}
