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
        let delta = delta_result.clipped_delta();
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

    /// The normalised γ of every point, `(ρ/ρmax)·(δ/δmax)`, for display
    /// (`dpc cluster --decision-graph`, the quickstart's candidate list).
    ///
    /// Normalisation divides by the maximum of each quantity so that γ lies
    /// in `[0, 1]`. Centre selection does not read it: it ranks by
    /// [`gamma_key`], which orders the points the same way in exact
    /// arithmetic.
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
            .map(|(&rho, &delta)| (rho / max_rho) * (delta / max_delta))
            .collect()
    }

    /// Selects cluster centres according to a strategy, by
    /// [`select_centers`] over the graph's `ρ` and clipped `δ`, ranking by
    /// [`top_by_gamma`]'s one pass. The returned ids are sorted in
    /// increasing order.
    pub fn select_centers(&self, selection: &CenterSelection) -> Result<Vec<PointId>> {
        select_centers(&self.rho, &self.delta, selection, |m| {
            top_by_gamma(&self.rho, &self.delta, m)
        })
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

/// The ranking key of `TopKGamma` and `GammaGap`: the raw product
/// `fl(ρ·δ)` of a point's density and its (clipped) dependent distance,
/// γ as Rodriguez and Laio define it.
///
/// The normalised γ of [`DecisionGraph::gamma`] ranks the same in exact
/// arithmetic, but in floating point it ties every key to the two maxima,
/// so a new maximum moves all n keys. The raw key changes only with the
/// point's own `ρ` and `δ`, which lets the streaming engine keep the best
/// keys across epochs.
pub fn gamma_key(rho: Rho, delta: f64) -> f64 {
    rho * delta
}

/// The `m` largest of `(key, id)` pairs that arrive in increasing id order
/// (`m` ≥ 1), in decreasing-key order, ties to the smaller id, in one pass.
///
/// The buffer fills up to `2m` pairs, is sorted and cut back to the best
/// `m`; from then on only a pair that beats the m-th of them (`bar`) is
/// appended, and every `m` appended pairs bring another cut. The ids
/// arrive in increasing order, so a pair that only ties the m-th loses to
/// it. A pair below the bar costs one comparison and a cut `O(m log m)`,
/// so the pass stays linear for a small `m` and is one sort for an `m`
/// near the number of pairs.
pub fn top_keys(keys: impl IntoIterator<Item = (f64, PointId)>, m: usize) -> Vec<(f64, PointId)> {
    let by_rank = |a: &(f64, PointId), b: &(f64, PointId)| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(Ordering::Equal)
            .then(a.1.cmp(&b.1))
    };
    let mut top: Vec<(f64, PointId)> = Vec::with_capacity(2 * m);
    let mut bar = f64::NEG_INFINITY;
    for (key, p) in keys {
        if key <= bar {
            continue;
        }
        top.push((key, p));
        if top.len() == 2 * m {
            top.sort_unstable_by(by_rank);
            top.truncate(m);
            bar = top[m - 1].0;
        }
    }
    top.sort_unstable_by(by_rank);
    top.truncate(m);
    top
}

/// The `m` points of largest [`gamma_key`] (`1 ≤ m ≤ n`) as `(key, id)`,
/// in decreasing-key order, ties to the smaller id: [`top_keys`] over every
/// point, with no window-sized vector.
pub fn top_by_gamma(rho: &[Rho], delta: &[f64], m: usize) -> Vec<(f64, PointId)> {
    let keys = rho.iter().zip(delta).map(|(&r, &d)| gamma_key(r, d));
    top_keys(keys.zip(0..), m)
}

/// Selects cluster centres from borrowed densities and dependent distances
/// (`δ` clipped, never infinite). The returned ids are sorted in increasing
/// order.
///
/// `TopKGamma` and `GammaGap` read only the `m` best points by
/// [`gamma_key`]: `k`, or `max_centers + 1`, at most n. `top(m)` returns
/// them in decreasing-key order, ties to the smaller id.
/// [`DecisionGraph::select_centers`] passes [`top_by_gamma`]'s one pass;
/// the streaming engine passes a set of candidates it keeps across epochs.
/// `Threshold` and `Explicit` read `ρ` and `δ` directly.
pub fn select_centers(
    rho: &[Rho],
    delta: &[f64],
    selection: &CenterSelection,
    top: impl FnOnce(usize) -> Vec<(f64, PointId)>,
) -> Result<Vec<PointId>> {
    let n = rho.len();
    if n == 0 {
        return Err(DpcError::EmptyDataset);
    }
    let mut centers = match selection {
        CenterSelection::Threshold { rho_min, delta_min } => (0..n)
            .filter(|&p| rho[p] >= *rho_min && delta[p] >= *delta_min)
            .collect::<Vec<_>>(),
        CenterSelection::TopKGamma { k } => {
            if *k == 0 {
                return Err(DpcError::invalid_parameter(
                    "k",
                    "must select at least one centre",
                ));
            }
            if *k > n {
                return Err(DpcError::TooManyCenters {
                    requested: *k,
                    available: n,
                });
            }
            top(*k).into_iter().map(|(_, p)| p).collect()
        }
        CenterSelection::GammaGap { max_centers } => {
            if *max_centers == 0 {
                return Err(DpcError::invalid_parameter(
                    "max_centers",
                    "must consider at least one centre",
                ));
            }
            let ranking = top(((*max_centers).min(n) + 1).min(n));
            // Find the largest *relative* drop between consecutive keys
            // within the first `max_centers + 1` candidates; the centres
            // are everything before the drop. A relative (ratio) gap is
            // used rather than an absolute one because the global peak,
            // whose ρ and δ are both the largest, ranks first and would
            // otherwise always dominate the gap search, collapsing every
            // selection to one cluster. Each divisor is floored at 1e-12 of
            // the top key, so a zero key gives a finite ratio; on the
            // normalised γ, whose top is 1, the floor was 1e-12.
            let floor = 1e-12 * ranking[0].0.abs();
            let mut best_cut = 1;
            let mut best_ratio = 0.0f64;
            for (i, pair) in ranking.windows(2).enumerate() {
                let ratio = pair[0].0 / pair[1].0.max(floor);
                if ratio > best_ratio {
                    best_ratio = ratio;
                    best_cut = i + 1;
                }
            }
            ranking[..best_cut].iter().map(|&(_, p)| p).collect()
        }
        CenterSelection::Explicit { centers } => {
            for &c in centers {
                if c >= n {
                    return Err(DpcError::invalid_parameter(
                        "centers",
                        format!("explicit centre {c} is out of range (n = {n})"),
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
    /// The `k` points with the largest γ = ρ·δ ([`gamma_key`], the raw
    /// product, not the normalised [`DecisionGraph::gamma`]), ties to the
    /// smaller id.
    TopKGamma {
        /// Number of centres (= number of clusters).
        k: usize,
    },
    /// Automatic selection: rank by γ = ρ·δ ([`gamma_key`]) and cut at the
    /// largest *relative* drop among the first `max_centers + 1` candidates,
    /// so between 1 and `max_centers` centres are chosen. A γ below 1e-12 of
    /// the top one divides as that floor.
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

    /// γ values that collide exactly: a few ρ and δ levels, negative zero
    /// and an infinite δ (clipped to the largest finite one).
    fn tied_graph(levels: &[(u8, u8)]) -> DecisionGraph {
        const RHO: [f64; 5] = [-0.0, 0.0, 1.0, 2.0, 3.0];
        const DELTA: [f64; 5] = [0.0, 0.5, 1.0, 2.0, f64::INFINITY];
        let rho = levels.iter().map(|&(r, _)| RHO[r as usize % 5]).collect();
        let delta = levels.iter().map(|&(_, d)| DELTA[d as usize % 5]).collect();
        DecisionGraph::new(rho, &DeltaResult::new(delta, vec![None; levels.len()])).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn top_by_gamma_is_the_prefix_of_a_full_sort(
            levels in proptest::collection::vec((0u8..5, 0u8..5), 1..40),
            pick in 0usize..5,
        ) {
            let g = tied_graph(&levels);
            let n = g.len();
            // Small m cut the buffer many times; m near n never does.
            let m = [1, 2, n / 3, n - 1, n][pick].clamp(1, n);
            let mut sorted: Vec<(f64, PointId)> =
                (0..n).map(|p| (g.rho(p) * g.delta(p), p)).collect();
            sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            let top = top_by_gamma(&g.rho, &g.delta, m);
            proptest::prop_assert_eq!(
                top.iter().map(|&(g, p)| (g.to_bits(), p)).collect::<Vec<_>>(),
                sorted[..m].iter().map(|&(g, p)| (g.to_bits(), p)).collect::<Vec<_>>(),
                "m = {} of {}", m, n
            );
        }
    }

    /// The keys (1e7, 1, 0): the normalised γ (1, 1e-7, 0) cut after the
    /// first point, and so must the raw keys. A floor of 1e-12 that ignored
    /// the top key's scale would divide the second key by it and cut after
    /// the second point (1 / 1e-12 beats 1e7 / 1).
    #[test]
    fn the_gamma_gap_floor_scales_with_the_top_key() {
        let delta = DeltaResult::new(vec![1e4, 1.0, 0.0], vec![None, Some(0), Some(0)]);
        let g = DecisionGraph::new(vec![1e3, 1.0, 1.0], &delta).unwrap();
        assert_eq!(
            top_by_gamma(&g.rho, &g.delta, 3),
            [(1e7, 0), (1.0, 1), (0.0, 2)]
        );
        let gamma = g.gamma();
        assert_eq!((gamma[0], gamma[2]), (1.0, 0.0));
        assert!((gamma[1] - 1e-7).abs() < 1e-20, "{gamma:?}");
        for max_centers in [2, 3] {
            let centers = g
                .select_centers(&CenterSelection::GammaGap { max_centers })
                .unwrap();
            assert_eq!(centers, [0], "max_centers {max_centers}");
        }
    }

    #[test]
    fn empty_graph_select_errors() {
        let g = DecisionGraph::new(vec![], &DeltaResult::unset(0)).unwrap();
        assert!(g.select_centers(&CenterSelection::default()).is_err());
    }
}
