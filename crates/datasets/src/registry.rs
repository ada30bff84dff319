//! Registry of the paper's evaluation datasets and their experiment
//! parameters.
//!
//! Table 2 of the paper lists six datasets; §5.3 and §5.4 sweep dataset-
//! specific values of the cut-off distance `dc`, the histogram bin width `w`
//! and the neighbour threshold `τ`. Those parameter grids live here, next to
//! the generators, so the bench harness and the tests share a single source
//! of truth.

use crate::generators::{birch, checkins, query, range, s1, CheckinConfig};
use crate::ground_truth::LabelledDataset;

/// The six evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// S1: 5 000 points, 15 Gaussian clusters.
    S1,
    /// Query: 50 000 points, spatial attributes of a query workload.
    Query,
    /// Birch: 100 000 points, 100 clusters on a 10×10 grid.
    Birch,
    /// Range: 200 000 points, spatial attributes.
    Range,
    /// Brightkite: 399 100 check-ins (simulated here).
    Brightkite,
    /// Gowalla: 1 256 680 check-ins (simulated here).
    Gowalla,
}

/// All six datasets in the order the paper presents them (non-decreasing
/// size).
pub const PAPER_DATASETS: [DatasetKind; 6] = [
    DatasetKind::S1,
    DatasetKind::Query,
    DatasetKind::Birch,
    DatasetKind::Range,
    DatasetKind::Brightkite,
    DatasetKind::Gowalla,
];

impl DatasetKind {
    /// Dataset name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::S1 => "S1",
            DatasetKind::Query => "Query",
            DatasetKind::Birch => "Birch",
            DatasetKind::Range => "Range",
            DatasetKind::Brightkite => "Brightkite",
            DatasetKind::Gowalla => "Gowalla",
        }
    }

    /// Parses a dataset name (case-insensitive).
    pub fn parse(name: &str) -> Option<DatasetKind> {
        PAPER_DATASETS
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name.trim()))
    }

    /// Number of points in the paper's version of the dataset (Table 2).
    pub fn paper_size(&self) -> usize {
        match self {
            DatasetKind::S1 => 5_000,
            DatasetKind::Query => 50_000,
            DatasetKind::Birch => 100_000,
            DatasetKind::Range => 200_000,
            DatasetKind::Brightkite => 399_100,
            DatasetKind::Gowalla => 1_256_680,
        }
    }

    /// Number of generating components of the dataset: the documented
    /// cluster count for the synthetic benchmarks (S1 has 15 clusters, Birch
    /// has 100, …) and the number of simulated hotspots for the check-in
    /// datasets. Useful as a `k` for Top-k centre selection in experiments
    /// and examples.
    pub fn natural_clusters(&self) -> usize {
        match self {
            DatasetKind::S1 => 15,
            DatasetKind::Query => 6,
            DatasetKind::Birch => 100,
            DatasetKind::Range => 7,
            DatasetKind::Brightkite => 60,
            DatasetKind::Gowalla => 90,
        }
    }

    /// Generates the dataset at a size of `paper_size() * scale` points.
    pub fn generate(&self, seed: u64, scale: f64) -> LabelledDataset {
        match self {
            DatasetKind::S1 => s1(seed, scale),
            DatasetKind::Query => query(seed, scale),
            DatasetKind::Birch => birch(seed, scale),
            DatasetKind::Range => range(seed, scale),
            DatasetKind::Brightkite => {
                let n = scale_size(self.paper_size(), scale);
                checkins(n, &CheckinConfig::brightkite(), seed)
            }
            DatasetKind::Gowalla => {
                let n = scale_size(self.paper_size(), scale);
                checkins(n, &CheckinConfig::gowalla(), seed)
            }
        }
    }

    /// The `dc` values the paper sweeps for this dataset in Figure 6 (the
    /// final "L" column of the figure — "largest", i.e. the bounding-box
    /// diameter — is handled by the harness, not listed here).
    pub fn fig6_dc_values(&self) -> &'static [f64] {
        match self {
            DatasetKind::S1 => &[5_000.0, 10_000.0, 30_000.0, 200_000.0, 500_000.0],
            DatasetKind::Query => &[0.001, 0.005, 0.010, 0.050, 0.100],
            DatasetKind::Birch => &[30_000.0, 150_000.0, 220_000.0, 500_000.0, 800_000.0],
            DatasetKind::Range => &[300.0, 1_200.0, 2_200.0, 5_000.0, 10_000.0],
            DatasetKind::Brightkite => &[0.001, 0.005, 0.010, 0.050, 0.100],
            DatasetKind::Gowalla => &[0.005, 0.010, 0.030, 0.050, 1.000],
        }
    }

    /// A representative `dc` for the headline running-time comparison
    /// (Figure 5), chosen from the middle of the Figure 6 sweep.
    pub fn default_dc(&self) -> f64 {
        self.fig6_dc_values()[2]
    }

    /// Fixed `dc` used by the approximate-index experiments of §5.4
    /// (Figures 8 and 10).
    pub fn approx_dc(&self) -> Option<f64> {
        match self {
            DatasetKind::Birch => Some(100_000.0),
            DatasetKind::Range => Some(1_500.0),
            DatasetKind::Brightkite => Some(0.5),
            DatasetKind::Gowalla => Some(0.001),
            _ => None,
        }
    }

    /// Bin widths swept in Figure 7 (CH Index) for this dataset, if it is one
    /// of the four large datasets the paper uses there.
    pub fn fig7_w_values(&self) -> Option<&'static [f64]> {
        match self {
            DatasetKind::Birch => Some(&[3_000.0, 8_000.0, 30_000.0, 100_000.0]),
            DatasetKind::Range => Some(&[200.0, 600.0, 1_500.0, 2_500.0]),
            DatasetKind::Brightkite => Some(&[0.02, 0.06, 0.12, 0.18]),
            DatasetKind::Gowalla => Some(&[0.005, 0.015, 0.025, 0.040]),
            _ => None,
        }
    }

    /// The three `dc` values per dataset used in Figure 7.
    pub fn fig7_dc_values(&self) -> Option<&'static [f64]> {
        match self {
            DatasetKind::Birch => Some(&[10_000.0, 50_000.0, 220_000.0]),
            DatasetKind::Range => Some(&[150.0, 1_200.0, 2_200.0]),
            DatasetKind::Brightkite => Some(&[0.01, 0.05, 0.10]),
            DatasetKind::Gowalla => Some(&[0.005, 0.010, 0.030]),
            _ => None,
        }
    }

    /// Default histogram bin width `w` used when building the CH Index for
    /// this dataset (§5.2 lists the values the paper selected).
    pub fn default_bin_width(&self) -> f64 {
        match self {
            DatasetKind::S1 => 2_000.0,
            DatasetKind::Query => 0.0006,
            DatasetKind::Birch => 8_000.0,
            DatasetKind::Range => 600.0,
            DatasetKind::Brightkite => 0.02,
            DatasetKind::Gowalla => 0.015,
        }
    }

    /// Neighbour thresholds `τ` swept in Figure 8 (running time of the
    /// approximate indices).
    pub fn fig8_tau_values(&self) -> Option<&'static [f64]> {
        match self {
            DatasetKind::Birch => Some(&[100_000.0, 200_000.0, 250_000.0]),
            DatasetKind::Range => Some(&[500.0, 2_000.0, 2_500.0]),
            DatasetKind::Brightkite => Some(&[0.10, 0.50, 1.00]),
            DatasetKind::Gowalla => Some(&[0.01, 0.03, 0.05]),
            _ => None,
        }
    }

    /// Neighbour thresholds `τ` swept in Figure 10 (clustering quality of the
    /// approximate List Index).
    pub fn fig10_tau_values(&self) -> Option<&'static [f64]> {
        match self {
            DatasetKind::Birch => Some(&[10_000.0, 50_000.0, 80_000.0, 100_000.0, 250_000.0]),
            DatasetKind::Range => Some(&[200.0, 500.0, 800.0, 1_500.0, 2_500.0]),
            DatasetKind::Brightkite => Some(&[0.01, 0.05, 0.10, 0.50, 1.00]),
            DatasetKind::Gowalla => Some(&[0.001, 0.007, 0.010, 0.030, 0.050]),
            _ => None,
        }
    }

    /// The largest τ the paper could fit in memory for this dataset (§5.2,
    /// the values marked `*` in Tables 3–4).
    pub fn largest_tau(&self) -> Option<f64> {
        match self {
            DatasetKind::Birch => Some(250_000.0),
            DatasetKind::Range => Some(2_500.0),
            DatasetKind::Brightkite => Some(1.0),
            DatasetKind::Gowalla => Some(0.05),
            _ => None,
        }
    }

    /// Whether the paper could run the full (non-approximate) list-based
    /// indices and the naive DPC baseline on this dataset (only the two
    /// smallest datasets fit in 16 GB).
    pub fn full_list_feasible(&self) -> bool {
        matches!(self, DatasetKind::S1 | DatasetKind::Query)
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully specified dataset instance: which dataset, at what scale, with
/// which seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Which of the paper's datasets.
    pub kind: DatasetKind,
    /// Size multiplier relative to the paper (1.0 = paper size).
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Creates a spec.
    pub fn new(kind: DatasetKind, scale: f64, seed: u64) -> Self {
        DatasetSpec { kind, scale, seed }
    }

    /// Number of points this spec will generate.
    pub fn size(&self) -> usize {
        scale_size(self.kind.paper_size(), self.scale).max(16)
    }

    /// Generates the dataset.
    pub fn generate(&self) -> LabelledDataset {
        self.kind.generate(self.seed, self.scale)
    }

    /// A short identifier, e.g. `birch@0.10`.
    pub fn label(&self) -> String {
        format!("{}@{:.2}", self.kind.name().to_lowercase(), self.scale)
    }
}

fn scale_size(base: usize, scale: f64) -> usize {
    assert!(scale > 0.0, "dataset scale must be positive");
    ((base as f64 * scale).round() as usize).max(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_table2() {
        assert_eq!(DatasetKind::S1.paper_size(), 5_000);
        assert_eq!(DatasetKind::Query.paper_size(), 50_000);
        assert_eq!(DatasetKind::Birch.paper_size(), 100_000);
        assert_eq!(DatasetKind::Range.paper_size(), 200_000);
        assert_eq!(DatasetKind::Brightkite.paper_size(), 399_100);
        assert_eq!(DatasetKind::Gowalla.paper_size(), 1_256_680);
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in PAPER_DATASETS {
            assert_eq!(DatasetKind::parse(kind.name()), Some(kind));
            assert_eq!(DatasetKind::parse(&kind.name().to_lowercase()), Some(kind));
        }
        assert_eq!(DatasetKind::parse("nope"), None);
    }

    #[test]
    fn natural_clusters_match_generator_documentation() {
        assert_eq!(DatasetKind::S1.natural_clusters(), 15);
        assert_eq!(DatasetKind::Birch.natural_clusters(), 100);
        for kind in PAPER_DATASETS {
            assert!(kind.natural_clusters() >= 2);
        }
    }

    #[test]
    fn every_dataset_has_five_fig6_dc_values() {
        for kind in PAPER_DATASETS {
            assert_eq!(kind.fig6_dc_values().len(), 5, "{kind}");
            assert!(kind.default_dc() > 0.0);
        }
    }

    #[test]
    fn fig7_to_10_parameters_only_for_large_datasets() {
        for kind in [DatasetKind::S1, DatasetKind::Query] {
            assert!(kind.fig7_w_values().is_none());
            assert!(kind.fig8_tau_values().is_none());
            assert!(kind.fig10_tau_values().is_none());
            assert!(kind.approx_dc().is_none());
            assert!(kind.full_list_feasible());
        }
        for kind in [
            DatasetKind::Birch,
            DatasetKind::Range,
            DatasetKind::Brightkite,
            DatasetKind::Gowalla,
        ] {
            assert!(kind.fig7_w_values().is_some(), "{kind}");
            assert!(kind.fig8_tau_values().is_some(), "{kind}");
            assert!(kind.fig10_tau_values().is_some(), "{kind}");
            assert!(kind.approx_dc().is_some(), "{kind}");
            assert!(!kind.full_list_feasible());
        }
    }

    #[test]
    fn tau_values_bracket_the_fixed_dc() {
        // For the quality experiment to show the collapse below dc, the τ
        // sweep must contain values below and above the fixed dc.
        for kind in [
            DatasetKind::Birch,
            DatasetKind::Range,
            DatasetKind::Brightkite,
        ] {
            let dc = kind.approx_dc().unwrap();
            let taus = kind.fig10_tau_values().unwrap();
            assert!(taus.iter().any(|&t| t < dc), "{kind}");
            assert!(taus.iter().any(|&t| t >= dc), "{kind}");
        }
    }

    #[test]
    fn spec_generates_scaled_sizes() {
        let spec = DatasetSpec::new(DatasetKind::S1, 0.1, 7);
        assert_eq!(spec.size(), 500);
        let data = spec.generate();
        assert_eq!(data.len(), 500);
        assert_eq!(spec.label(), "s1@0.10");
    }

    #[test]
    fn generate_is_deterministic() {
        let a = DatasetKind::Query.generate(3, 0.01);
        let b = DatasetKind::Query.generate(3, 0.01);
        assert_eq!(a, b);
    }

    #[test]
    fn checkin_kinds_generate_within_us_domain() {
        let data = DatasetKind::Brightkite.generate(1, 0.001);
        let bb = data.dataset.bounding_box();
        assert!(bb.min_x() >= -125.0 && bb.max_x() <= -60.0);
        assert!(bb.min_y() >= 24.0 && bb.max_y() <= 50.0);
    }
}
