//! Table 4: index construction time (seconds).
//!
//! Following the paper, the CH Index column reports only the *extra* time
//! needed to build the cumulative histograms on top of an already built List
//! Index, while the List Index column reports the full N-List (or RN-List)
//! construction.

use dpc_datasets::PAPER_DATASETS;
use dpc_list_index::{ChIndex, NeighborLists};
use dpc_metrics::ResultTable;
use dpc_obs::Timer;

use crate::experiments::support;
use crate::{ExperimentConfig, IndexKind};

/// Runs the experiment.
pub fn run(config: &ExperimentConfig) -> Vec<ResultTable> {
    let mut table = ResultTable::new(
        format!(
            "Table 4 — index construction time in seconds (scale = {})",
            config.scale
        ),
        &[
            "dataset",
            "n",
            "List Index",
            "CH Index (extra)",
            "R-tree",
            "Quadtree",
        ],
    );

    for kind in PAPER_DATASETS {
        let data = support::dataset_for(kind, config);
        let approximate_lists = !kind.full_list_feasible() || data.len() > support::FULL_LIST_LIMIT;
        let tau = if approximate_lists {
            kind.largest_tau()
        } else {
            None
        };
        let marker = if approximate_lists { "*" } else { "" };

        // List construction (full or approximate).
        let timer = Timer::start();
        let lists = NeighborLists::build(&data, tau);
        let list_time = timer.elapsed();

        // CH construction on top of the existing lists: histogram time only.
        let timer = Timer::start();
        let _ch = ChIndex::from_lists(&data, lists, kind.default_bin_width());
        let ch_time = timer.elapsed();

        let rtree = IndexKind::RTree.build(&data, kind);
        let quadtree = IndexKind::Quadtree.build(&data, kind);

        table.add_row(&[
            kind.name().to_string(),
            data.len().to_string(),
            format!("{}{marker}", support::secs(list_time)),
            format!("{}{marker}", support::secs(ch_time)),
            support::secs(rtree.stats().construction_time),
            support::secs(quadtree.stats().construction_time),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_row_per_dataset() {
        let tables = run(&ExperimentConfig::smoke());
        assert_eq!(tables[0].num_rows(), PAPER_DATASETS.len());
    }

    #[test]
    fn tree_construction_is_cheaper_than_list_construction() {
        // Use a slightly larger scale so the asymptotic gap is visible.
        let config = ExperimentConfig {
            scale: 0.01,
            repetitions: 1,
            output_dir: None,
            ..ExperimentConfig::smoke()
        };
        let tables = run(&config);
        let csv = tables[0].to_csv();
        // Check on the Query dataset row (exact lists, 500 points).
        let row = csv.lines().find(|l| l.starts_with("Query")).unwrap();
        let cells: Vec<&str> = row.split(',').collect();
        let list: f64 = cells[2].trim_end_matches('*').parse().unwrap();
        let rtree: f64 = cells[4].parse().unwrap();
        assert!(rtree <= list, "rtree = {rtree}, list = {list}");
    }
}
