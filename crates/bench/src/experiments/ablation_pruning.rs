//! Ablation study: how much do the two pruning rules (Lemma 1 and Lemma 2)
//! contribute, and how do the four tree variants compare?
//!
//! Not a figure of the paper, but the design decisions the paper motivates
//! qualitatively ("this is highly effectual in case of peak objects", "the
//! pruning we developed avoids exploring most of the tree nodes") deserve
//! numbers. For two representative datasets (grid-structured Birch and
//! heavily skewed Gowalla) and each tree index, the δ-query runs with both
//! prunings, each pruning alone, and no pruning at all.

use dpc_core::{Dataset, Query};
use dpc_datasets::DatasetKind;
use dpc_metrics::ResultTable;
use dpc_tree_index::query as tree_query;
use dpc_tree_index::{DeltaQueryConfig, GridIndex, KdTree, Quadtree, RTree, SpatialPartition};

use crate::experiments::support;
use crate::ExperimentConfig;

/// Runs the experiment.
pub fn run(config: &ExperimentConfig) -> Vec<ResultTable> {
    [DatasetKind::Birch, DatasetKind::Gowalla]
        .into_iter()
        .map(|kind| ablate_one(kind, config))
        .collect()
}

/// The four pruning configurations compared.
fn pruning_variants() -> [(&'static str, DeltaQueryConfig); 4] {
    [
        ("density + distance", DeltaQueryConfig::default()),
        (
            "density only",
            DeltaQueryConfig {
                density_pruning: true,
                distance_pruning: false,
            },
        ),
        (
            "distance only",
            DeltaQueryConfig {
                density_pruning: false,
                distance_pruning: true,
            },
        ),
        ("none", DeltaQueryConfig::no_pruning()),
    ]
}

fn ablate_one(kind: DatasetKind, config: &ExperimentConfig) -> ResultTable {
    let data = support::dataset_for(kind, config);
    let dc = kind.default_dc();

    let mut table = ResultTable::new(
        format!(
            "Pruning ablation ({}) — delta-query cost per index and pruning configuration (n = {}, dc = {dc})",
            kind.name(),
            data.len()
        ),
        &["index", "pruning", "delta time (s)", "points scanned", "nodes visited"],
    );
    let query = Query::new(dc);
    let reps = config.repetitions.max(1);
    ablate_tree(
        &mut table,
        "Quadtree",
        &Quadtree::build(&data),
        &data,
        &query,
        reps,
    );
    ablate_tree(
        &mut table,
        "R-tree",
        &RTree::build(&data),
        &data,
        &query,
        reps,
    );
    ablate_tree(
        &mut table,
        "k-d tree",
        &KdTree::build(&data),
        &data,
        &query,
        reps,
    );
    ablate_tree(
        &mut table,
        "Grid",
        &GridIndex::build(&data),
        &data,
        &query,
        reps,
    );
    table
}

/// One table row per pruning configuration: the generic δ-query over `tree`
/// with that configuration, on the densities of one ρ-query.
fn ablate_tree<T: SpatialPartition + Sync>(
    table: &mut ResultTable,
    name: &str,
    tree: &T,
    data: &Dataset,
    query: &Query<'_>,
    reps: usize,
) {
    let (rho, _) = tree_query::rho(tree, data, query);
    for (pruning_name, pruning) in pruning_variants() {
        let (time, (_, stats)) = dpc_metrics::measure_median(reps, || {
            tree_query::delta(tree, data, &rho, &pruning, query)
        });
        table.add_row(&[
            name.to_string(),
            pruning_name.to_string(),
            support::secs(time),
            stats.points_scanned.to_string(),
            stats.nodes_visited.to_string(),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_two_tables_with_sixteen_rows() {
        let tables = run(&ExperimentConfig::smoke());
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.num_rows(), 16);
        }
    }

    #[test]
    fn full_pruning_scans_no_more_points_than_no_pruning() {
        let tables = run(&ExperimentConfig::smoke());
        for t in &tables {
            let rows: Vec<Vec<String>> = t
                .to_csv()
                .lines()
                .skip(1)
                .map(|l| l.split(',').map(str::to_string).collect())
                .collect();
            for chunk in rows.chunks(4) {
                let full: u64 = chunk[0][3].parse().unwrap();
                let none: u64 = chunk[3][3].parse().unwrap();
                assert!(full <= none, "index {}: {full} > {none}", chunk[0][0]);
            }
        }
    }
}
