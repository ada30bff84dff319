//! Heuristics for choosing the cut-off distance `dc`.
//!
//! The original DPC paper suggests, "as a rule of thumb", choosing `dc` so
//! that the average number of neighbours is around 1–2 % of the total number
//! of points. The index paper reproduced by this workspace takes the opposite
//! stance — `dc` is inherently a user choice that will be retried many times,
//! which is why an index pays off — but a good starting value still matters,
//! so this module provides the standard quantile heuristic.
//!
//! The estimate is the `target_fraction` quantile of the pairwise-distance
//! distribution. Computing all `n·(n−1)/2` distances would defeat the purpose
//! for large datasets, so the distribution is estimated from a deterministic
//! sample of point pairs.

use crate::error::{DpcError, Result};
use crate::point::Dataset;

/// Configuration of the `dc` estimation heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcEstimation {
    /// Desired fraction of neighbours per point (the quantile of the
    /// pairwise-distance distribution). The original DPC paper recommends
    /// 0.01–0.02.
    pub target_fraction: f64,
    /// Maximum number of sampled point pairs.
    pub max_pairs: usize,
    /// Seed of the deterministic pair sampler.
    pub seed: u64,
}

impl Default for DcEstimation {
    fn default() -> Self {
        DcEstimation {
            target_fraction: 0.02,
            max_pairs: 100_000,
            seed: 0x5EED,
        }
    }
}

impl DcEstimation {
    /// Creates the heuristic for a given neighbour fraction.
    pub fn with_fraction(target_fraction: f64) -> Self {
        DcEstimation {
            target_fraction,
            ..Default::default()
        }
    }

    /// Estimates `dc` for a dataset.
    ///
    /// Returns an error when the dataset has fewer than two points or when
    /// the configuration is out of range.
    pub fn estimate(&self, dataset: &Dataset) -> Result<f64> {
        if !(self.target_fraction > 0.0 && self.target_fraction < 1.0) {
            return Err(DpcError::invalid_parameter(
                "target_fraction",
                format!(
                    "must lie strictly between 0 and 1, got {}",
                    self.target_fraction
                ),
            ));
        }
        if self.max_pairs == 0 {
            return Err(DpcError::invalid_parameter(
                "max_pairs",
                "must be at least 1",
            ));
        }
        let n = dataset.len();
        if n < 2 {
            return Err(DpcError::EmptyDataset);
        }

        let total_pairs = n * (n - 1) / 2;
        let mut distances = Vec::with_capacity(total_pairs.min(self.max_pairs));
        if total_pairs <= self.max_pairs {
            for i in 0..n {
                for j in (i + 1)..n {
                    distances.push(dataset.distance(i, j));
                }
            }
        } else {
            // Deterministic SplitMix64-style pair sampling (kept local so the
            // core crate stays dependency-free).
            let mut state = self.seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            while distances.len() < self.max_pairs {
                let i = (next() % n as u64) as usize;
                let j = (next() % n as u64) as usize;
                if i != j {
                    distances.push(dataset.distance(i, j));
                }
            }
        }

        distances.sort_by(|a, b| a.total_cmp(b));
        let idx = ((distances.len() as f64 * self.target_fraction).floor() as usize)
            .min(distances.len() - 1);
        let dc = distances[idx];
        if dc > 0.0 {
            Ok(dc)
        } else {
            // All sampled distances collapse to zero (heavily duplicated
            // data): fall back to the smallest positive distance, or an
            // arbitrary unit when there is none.
            Ok(distances.into_iter().find(|&d| d > 0.0).unwrap_or(1.0))
        }
    }
}

/// Convenience wrapper using the default configuration (2 % neighbours).
pub fn estimate_dc(dataset: &Dataset) -> Result<f64> {
    DcEstimation::default().estimate(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{DpcIndex, Query};
    use crate::naive_reference::NaiveReferenceIndex;
    use crate::point::Point;

    fn ring(n: usize, radius: f64) -> Dataset {
        Dataset::new(
            (0..n)
                .map(|i| {
                    let a = i as f64 / n as f64 * std::f64::consts::TAU;
                    Point::new(radius * a.cos(), radius * a.sin())
                })
                .collect(),
        )
    }

    #[test]
    fn estimated_dc_yields_roughly_the_requested_neighbour_fraction() {
        let data = ring(400, 10.0);
        let fraction = 0.02;
        let dc = DcEstimation::with_fraction(fraction)
            .estimate(&data)
            .unwrap();
        let rho = NaiveReferenceIndex::build(&data)
            .rho(&Query::new(dc))
            .unwrap();
        let mean = rho.iter().sum::<f64>() / data.len() as f64;
        let achieved = mean / data.len() as f64;
        assert!(
            (achieved - fraction).abs() < 0.02,
            "requested {fraction}, achieved {achieved}"
        );
    }

    #[test]
    fn larger_fraction_gives_larger_dc() {
        let data = ring(300, 5.0);
        let small = DcEstimation::with_fraction(0.01).estimate(&data).unwrap();
        let large = DcEstimation::with_fraction(0.2).estimate(&data).unwrap();
        assert!(large > small);
    }

    #[test]
    fn sampling_path_agrees_roughly_with_the_exhaustive_path() {
        let data = ring(300, 5.0);
        let exhaustive = DcEstimation {
            max_pairs: usize::MAX,
            ..Default::default()
        }
        .estimate(&data)
        .unwrap();
        let sampled = DcEstimation {
            max_pairs: 20_000,
            ..Default::default()
        }
        .estimate(&data)
        .unwrap();
        // The sampled quantile is a statistical estimate of a tail quantile;
        // only require the right order of magnitude.
        assert!(
            (sampled - exhaustive).abs() / exhaustive < 0.5,
            "{sampled} vs {exhaustive}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let data = ring(500, 5.0);
        let config = DcEstimation {
            max_pairs: 2_000,
            ..Default::default()
        };
        assert_eq!(
            config.estimate(&data).unwrap(),
            config.estimate(&data).unwrap()
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let data = ring(10, 1.0);
        assert!(DcEstimation::with_fraction(0.0).estimate(&data).is_err());
        assert!(DcEstimation::with_fraction(1.0).estimate(&data).is_err());
        assert!(DcEstimation {
            max_pairs: 0,
            ..Default::default()
        }
        .estimate(&data)
        .is_err());
        assert!(estimate_dc(&Dataset::new(vec![Point::origin()])).is_err());
        assert!(estimate_dc(&Dataset::new(vec![])).is_err());
    }

    #[test]
    fn duplicated_points_fall_back_to_a_positive_dc() {
        let mut pts = vec![Point::new(1.0, 1.0); 50];
        pts.push(Point::new(2.0, 2.0));
        let data = Dataset::new(pts);
        let dc = estimate_dc(&data).unwrap();
        assert!(dc > 0.0);
    }
}
