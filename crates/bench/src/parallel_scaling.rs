//! The parallel query scaling benchmark behind `BENCH_parallel.json`.
//!
//! Measures the combined ρ+δ query time of the tree indexes at a fixed
//! dataset size across a sweep of thread counts, and renders the result as a
//! small JSON snapshot (machine info, each cell's median with the fastest
//! and slowest repetition beside it, speedups relative to one thread). The committed `BENCH_parallel.json` at the repository root is
//! produced by the `bench_parallel` binary and gives future PRs a perf
//! baseline to compare against.
//!
//! Speedups here are *wall-clock* speedups, so they are bounded by the
//! number of physical cores the measuring machine exposes; the snapshot
//! records that number so a 1-core CI container is not mistaken for a
//! scaling regression.

use std::time::Duration;

use dpc_core::{DpcIndex, ExecPolicy, Query};
use dpc_datasets::{DatasetKind, DatasetSpec};
use dpc_tree_index::{GridIndex, KdTree, Quadtree, RTree};

/// What to measure: dataset size, cut-off, thread sweep, repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingOptions {
    /// Number of points (the S1 generator is scaled to this size).
    pub n: usize,
    /// Cut-off distance of the measured queries.
    pub dc: f64,
    /// Seed of the dataset generator.
    pub seed: u64,
    /// Repetitions per (index, threads) cell; the median is reported, with
    /// the fastest and slowest repetition as the cell's spread.
    pub repetitions: usize,
    /// Thread counts to sweep. Must start with 1: the first entry is the
    /// speedup baseline the later entries are divided by.
    pub threads: Vec<usize>,
}

impl Default for ScalingOptions {
    fn default() -> Self {
        ScalingOptions {
            n: 20_000,
            dc: 30_000.0,
            seed: 42,
            repetitions: 7,
            threads: vec![1, 2, 4, 8],
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingMeasurement {
    /// Index name (`grid`, `kdtree`, `quadtree`, `rtree`).
    pub index: &'static str,
    /// Worker threads the queries ran on.
    pub threads: usize,
    /// Median combined ρ+δ query time.
    pub median: Duration,
    /// Fastest repetition.
    pub min: Duration,
    /// Slowest repetition.
    pub max: Duration,
    /// `median(1 thread) / median(this)` for the same index.
    pub speedup: f64,
}

/// The whole benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingReport {
    /// The options the benchmark ran with.
    pub options: ScalingOptions,
    /// CPUs the machine exposes (`std::thread::available_parallelism`).
    pub cpus: usize,
    /// All measurements, grouped by index in sweep order.
    pub measurements: Vec<ScalingMeasurement>,
}

/// Runs the sweep: builds each tree index once over an S1 dataset of
/// `options.n` points, then measures `rho_delta` for every thread count. Results are bit-identical across the sweep (asserted here), only
/// the wall-clock time varies.
///
/// # Panics
/// Panics if `options.threads` does not start with 1, or `repetitions == 0`.
pub fn run(options: &ScalingOptions) -> ScalingReport {
    assert_eq!(
        options.threads.first(),
        Some(&1),
        "the thread sweep must start with 1, the speedup baseline"
    );
    assert!(options.repetitions > 0, "need at least one repetition");
    let scale = options.n as f64 / DatasetKind::S1.paper_size() as f64;
    let data = DatasetSpec::new(DatasetKind::S1, scale, options.seed)
        .generate()
        .into_dataset();

    let indexes: Vec<(&'static str, Box<dyn DpcIndex>)> = vec![
        ("grid", Box::new(GridIndex::build(&data))),
        ("kdtree", Box::new(KdTree::build(&data))),
        ("quadtree", Box::new(Quadtree::build(&data))),
        ("rtree", Box::new(RTree::build(&data))),
    ];

    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut measurements = Vec::new();
    for (name, index) in &indexes {
        let sequential = Query::new(options.dc);
        let reference = index
            .rho_delta(&sequential)
            .expect("sequential query must succeed");
        let mut base = Duration::ZERO;
        for &threads in &options.threads {
            let query = sequential.with_exec(ExecPolicy::Threads(threads));
            let mut times = Vec::with_capacity(options.repetitions);
            for _ in 0..options.repetitions {
                let (time, result) = dpc_metrics::measure_once(|| {
                    index
                        .rho_delta(&query)
                        .expect("parallel query must succeed")
                });
                assert_eq!(
                    result.0, reference.0,
                    "{name}: parallel rho must be bit-identical"
                );
                assert_eq!(
                    result.1.mu, reference.1.mu,
                    "{name}: parallel mu must be bit-identical"
                );
                times.push(time);
            }
            times.sort_unstable();
            let (min, median, max) = (times[0], times[times.len() / 2], times[times.len() - 1]);
            if threads == 1 {
                base = median;
            }
            let speedup = if median.as_nanos() == 0 {
                1.0
            } else {
                base.as_secs_f64() / median.as_secs_f64()
            };
            measurements.push(ScalingMeasurement {
                index: name,
                threads,
                median,
                min,
                max,
                speedup,
            });
        }
    }
    ScalingReport {
        options: options.clone(),
        cpus,
        measurements,
    }
}

impl ScalingReport {
    /// Renders the report as the `BENCH_parallel.json` snapshot (no external
    /// JSON dependency; every value is numeric or a fixed identifier).
    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (i, m) in self.measurements.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{ \"index\": \"{}\", \"threads\": {}, \"median_query_ms\": {:.3}, \
                 \"min_query_ms\": {:.3}, \"max_query_ms\": {:.3}, \"speedup\": {:.2} }}",
                m.index,
                m.threads,
                m.median.as_secs_f64() * 1e3,
                m.min.as_secs_f64() * 1e3,
                m.max.as_secs_f64() * 1e3,
                m.speedup
            ));
        }
        let max_threads = self.options.threads.iter().copied().max().unwrap_or(1);
        let note = if self.cpus < max_threads {
            format!(
                "wall-clock speedup is bounded by the {} available CPU core(s); \
                 regenerate on multi-core hardware for a meaningful scaling curve",
                self.cpus
            )
        } else {
            "thread counts within the available cores; speedups are meaningful".to_string()
        };
        format!(
            "{{\n  \"benchmark\": \"parallel_scaling\",\n  \"dataset\": \"s1\",\n  \
             \"n\": {},\n  \"dc\": {},\n  \"seed\": {},\n  \"repetitions\": {},\n  \
             \"machine\": {{ \"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {} }},\n  \
             \"note\": \"{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
            self.options.n,
            self.options.dc,
            self.options.seed,
            self.options.repetitions,
            std::env::consts::OS,
            std::env::consts::ARCH,
            self.cpus,
            note,
            rows
        )
    }

    /// Renders a human-readable table (printed by the `bench_parallel`
    /// binary next to the JSON).
    pub fn render(&self) -> String {
        let mut out = format!(
            "parallel scaling @ n = {}, dc = {}, {} repetition(s), {} cpu(s)\n\
             {:<10} {:>8} {:>12} {:>10} {:>10} {:>9}\n",
            self.options.n,
            self.options.dc,
            self.options.repetitions,
            self.cpus,
            "index",
            "threads",
            "median (ms)",
            "min (ms)",
            "max (ms)",
            "speedup"
        );
        for m in &self.measurements {
            out.push_str(&format!(
                "{:<10} {:>8} {:>12.3} {:>10.3} {:>10.3} {:>8.2}x\n",
                m.index,
                m.threads,
                m.median.as_secs_f64() * 1e3,
                m.min.as_secs_f64() * 1e3,
                m.max.as_secs_f64() * 1e3,
                m.speedup
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ScalingOptions {
        ScalingOptions {
            n: 300,
            dc: 30_000.0,
            seed: 7,
            repetitions: 1,
            threads: vec![1, 2],
        }
    }

    #[test]
    fn sweep_covers_every_index_and_thread_count() {
        let report = run(&tiny_options());
        assert_eq!(report.measurements.len(), 4 * 2);
        for index in ["grid", "kdtree", "quadtree", "rtree"] {
            let rows: Vec<_> = report
                .measurements
                .iter()
                .filter(|m| m.index == index)
                .collect();
            assert_eq!(rows.len(), 2, "{index}");
            assert_eq!(rows[0].threads, 1);
            assert!((rows[0].speedup - 1.0).abs() < 1e-9, "{index}");
            assert!(rows.iter().all(|m| m.speedup > 0.0), "{index}");
            assert!(rows.iter().all(|m| m.min <= m.median && m.median <= m.max));
        }
    }

    #[test]
    fn json_snapshot_has_the_expected_fields() {
        let report = run(&tiny_options());
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"parallel_scaling\"",
            "\"n\": 300",
            "\"machine\"",
            "\"cpus\"",
            "\"results\"",
            "\"median_query_ms\"",
            "\"min_query_ms\"",
            "\"max_query_ms\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(report.render().contains("kdtree"));
    }

    #[test]
    #[should_panic(expected = "speedup baseline")]
    fn sweep_not_starting_with_one_thread_panics() {
        run(&ScalingOptions {
            threads: vec![2, 1, 4],
            ..tiny_options()
        });
    }
}
