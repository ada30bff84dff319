//! Shared helpers for the experiment modules.

use std::time::Duration;

use dpc_core::{Dataset, DpcIndex, Query, Rho};
use dpc_datasets::{DatasetKind, DatasetSpec};
use dpc_metrics::ResultTable;

use crate::ExperimentConfig;

/// Hard cap on the size of any generated dataset, protecting the quadratic
/// list-based experiments from accidental huge `--scale` values. The paper's
/// own machine hits the same wall around this size.
pub const MAX_POINTS: usize = 200_000;

/// Above this size the full list-based indices and the naive baseline are
/// skipped (reported as `-`), mirroring the paper's memory wall.
pub const FULL_LIST_LIMIT: usize = 30_000;

/// Generates a dataset for one of the paper's dataset kinds at the
/// configured scale, capping the size at [`MAX_POINTS`].
pub fn dataset_for(kind: DatasetKind, config: &ExperimentConfig) -> Dataset {
    let mut scale = config.scale;
    let target = (kind.paper_size() as f64 * scale) as usize;
    if target > MAX_POINTS {
        scale = MAX_POINTS as f64 / kind.paper_size() as f64;
    }
    DatasetSpec::new(kind, scale, config.seed)
        .generate()
        .into_dataset()
}

/// Measures the combined ρ+δ query time (the quantity the paper's running-
/// time figures report), returning the median over the configured
/// repetitions. Runs under the configured thread count (`--threads`, default
/// sequential).
pub fn query_time(index: &dyn DpcIndex, dc: f64, config: &ExperimentConfig) -> Duration {
    let reps = config.repetitions.max(1);
    let query = Query::new(dc).with_exec(config.exec_policy());
    let (time, _) = dpc_metrics::measure_median(reps, || {
        index.rho_delta(&query).expect("query must succeed")
    });
    time
}

/// Measures only the ρ-query time, under the configured thread count.
pub fn rho_time(index: &dyn DpcIndex, dc: f64, config: &ExperimentConfig) -> (Duration, Vec<Rho>) {
    let reps = config.repetitions.max(1);
    let query = Query::new(dc).with_exec(config.exec_policy());
    dpc_metrics::measure_median(reps, || index.rho(&query).expect("rho query must succeed"))
}

/// Formats a duration in seconds with four significant decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats a byte count in MiB with two decimals.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints every table and persists it as CSV when the configuration asks for
/// it.
pub fn emit(config: &ExperimentConfig, experiment: &str, tables: &[ResultTable]) {
    for (i, table) in tables.iter().enumerate() {
        println!("{}", table.render());
        if let Some(path) = config.csv_path(&format!("{experiment}_{i}")) {
            if let Err(e) = table.write_csv(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

/// The datasets used by the §5.3–5.4 parameter studies (the four the paper
/// can only handle with approximation).
pub fn large_datasets() -> [DatasetKind; 4] {
    [
        DatasetKind::Birch,
        DatasetKind::Range,
        DatasetKind::Brightkite,
        DatasetKind::Gowalla,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_for_respects_scale_and_cap() {
        let config = ExperimentConfig {
            scale: 0.01,
            ..ExperimentConfig::smoke()
        };
        let d = dataset_for(DatasetKind::Query, &config);
        assert_eq!(d.len(), 500);

        let huge = ExperimentConfig {
            scale: 1000.0,
            ..ExperimentConfig::smoke()
        };
        let d = dataset_for(DatasetKind::S1, &huge);
        assert!(d.len() <= MAX_POINTS);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.5000");
        assert_eq!(mib(3 * 1024 * 1024), "3.00");
    }

    #[test]
    fn query_time_is_positive() {
        let config = ExperimentConfig::smoke();
        let data = dataset_for(DatasetKind::S1, &config);
        let index = crate::IndexKind::RTree.build(&data, DatasetKind::S1);
        let t = query_time(index.as_ref(), DatasetKind::S1.default_dc(), &config);
        assert!(t > Duration::ZERO);
    }
}
