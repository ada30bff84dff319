//! Figure 1: the clustering produced by DPC changes drastically with `dc`.
//!
//! The paper illustrates this on the Gowalla check-in dataset with
//! `dc ∈ {0.001, 0.01, 1.0, 10.0}`. We run the two index queries (R-tree
//! index) on the Gowalla-like generator, select centres with the natural
//! decision-graph rule — a centre has above-average density and `δ > dc`
//! (i.e. it is a density peak at the chosen scale) — and report how the
//! number of clusters and the assignment change with `dc`.

use dpc_core::{
    assign_clusters, AssignmentOptions, CenterSelection, DecisionGraph, DensityOrder, Query,
};
use dpc_datasets::DatasetKind;
use dpc_metrics::ResultTable;

use crate::experiments::support;
use crate::{ExperimentConfig, IndexKind};

/// The four cut-off distances of Figure 1.
pub const FIG1_DC_VALUES: [f64; 4] = [0.001, 0.01, 1.0, 10.0];

/// Runs the experiment.
pub fn run(config: &ExperimentConfig) -> Vec<ResultTable> {
    let kind = DatasetKind::Gowalla;
    let data = support::dataset_for(kind, config);
    let index = IndexKind::RTree.build(&data, kind);

    let mut table = ResultTable::new(
        format!(
            "Figure 1 — DPC clusterings of a Gowalla-like dataset (n = {}) under different dc",
            data.len()
        ),
        &[
            "dc",
            "clusters",
            "largest cluster %",
            "median cluster size",
            "query time (s)",
        ],
    );

    for dc in FIG1_DC_VALUES {
        let (query_time, (rho, deltas)) =
            dpc_metrics::measure_median(config.repetitions.max(1), || {
                index
                    .rho_delta(&Query::new(dc))
                    .expect("queries must succeed")
            });
        let graph = DecisionGraph::new(rho.clone(), &deltas).expect("decision graph");
        // Centres: above-average density and a dependent distance larger than
        // dc (a local peak at scale dc). Fall back to the single densest
        // point when the rule selects nothing (enormous dc).
        let mean_rho = rho.iter().sum::<f64>() / data.len().max(1) as f64;
        let selection = CenterSelection::Threshold {
            rho_min: mean_rho.ceil(),
            delta_min: dc,
        };
        let centers = graph
            .select_centers(&selection)
            .or_else(|_| graph.select_centers(&CenterSelection::TopKGamma { k: 1 }))
            .expect("centre selection");
        let order = DensityOrder::new(&rho);
        let clustering = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            dc,
            &AssignmentOptions::default(),
        )
        .expect("assignment");

        let mut sizes = clustering.sizes();
        sizes.sort_unstable();
        let largest = *sizes.last().unwrap_or(&0);
        let median = sizes.get(sizes.len() / 2).copied().unwrap_or(0);
        table.add_row(&[
            format!("{dc}"),
            format!("{}", clustering.num_clusters()),
            format!("{:.1}", 100.0 * largest as f64 / data.len().max(1) as f64),
            format!("{median}"),
            support::secs(query_time),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_row_per_dc() {
        let tables = run(&ExperimentConfig::smoke());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), FIG1_DC_VALUES.len());
    }

    #[test]
    fn cluster_count_depends_on_dc() {
        // The whole point of Figure 1: at least two different dc values must
        // give a different number of clusters.
        let tables = run(&ExperimentConfig::smoke());
        let csv = tables[0].to_csv();
        let clusters: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap())
            .collect();
        assert!(
            clusters.windows(2).any(|w| w[0] != w[1]),
            "clusters: {clusters:?}"
        );
    }

    #[test]
    fn moderate_dc_yields_many_clusters_and_huge_dc_collapses_them() {
        let tables = run(&ExperimentConfig::smoke());
        let csv = tables[0].to_csv();
        let counts: Vec<usize> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        // Some dc in the sweep resolves many hotspots; the largest dc merges
        // almost everything — the qualitative story of Figure 1.
        let max = *counts.iter().max().unwrap();
        let last = *counts.last().unwrap();
        assert!(max > 5 * last.max(1), "{counts:?}");
        assert!(last <= 10, "{counts:?}");
    }
}
