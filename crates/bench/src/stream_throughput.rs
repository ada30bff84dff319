//! The streaming-throughput benchmark behind `BENCH_stream.json`.
//!
//! Measures sliding-window updates/second of the streaming engine's
//! affected-set **incremental** maintenance — its only maintenance path —
//! and where each epoch's time goes, phase by phase. Every cell must land on
//! the clustering of a cold batch run over its final window, asserted at the
//! end of the cell.
//!
//! The sweep covers one row per updatable index family ([`StreamEngine`]):
//! the uniform grid and the k-d tree (tombstone + partial rebuild). The
//! R-tree is the paper's static batch index and does not stream.
//!
//! The sweep also covers **epoch batch sizes** ([`StreamBenchOptions::
//! batches`]): batch 1 is classic per-update maintenance (one ε-repair, one
//! δ-repair and one clustering per slid point), larger batches amortise all
//! three over the whole epoch — the per-epoch vs per-update cost gap is the
//! headline number of `BENCH_stream.json`.
//!
//! The sweep can also cover **density kernels** ([`StreamBenchOptions::
//! kernels`]): the paper-faithful cut-off counts neighbours, while the
//! gaussian/exponential kernels maintain weighted densities through the
//! ±w(d) incremental repair; the interesting number is the
//! weighted-vs-cutoff overhead.
//!
//! The committed `BENCH_stream.json` at the repository root is produced by
//! the `bench_stream` binary with `--kernels cutoff,gaussian`; CI runs a
//! tiny smoke invocation so the benchmark cannot rot.

use std::sync::Arc;
use std::time::Duration;

use dpc_core::{CenterSelection, Dataset, DpcParams, DpcPipeline, Kernel, UpdatableIndex};
use dpc_datasets::generators::{checkins, CheckinConfig};
use dpc_obs::{MetricsRecorder, MetricsSnapshot, SharedRecorder};
use dpc_stream::{StreamParams, StreamingDpc};
use dpc_tree_index::{GridIndex, KdTree};

/// The updatable index families the streaming benchmark can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEngine {
    /// Uniform grid (O(1) cell updates; the PR 3 baseline engine).
    Grid,
    /// k-d tree with tombstone + partial-rebuild maintenance.
    KdTree,
}

impl StreamEngine {
    /// Every engine, in sweep order.
    pub const ALL: [StreamEngine; 2] = [StreamEngine::Grid, StreamEngine::KdTree];

    /// The engine's stable name (CLI value and JSON field).
    pub fn name(self) -> &'static str {
        match self {
            StreamEngine::Grid => "grid",
            StreamEngine::KdTree => "kdtree",
        }
    }

    /// Parses a CLI engine name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "grid" => Ok(StreamEngine::Grid),
            "kdtree" | "kd" => Ok(StreamEngine::KdTree),
            other => Err(format!("unknown engine {other:?} (grid, kdtree)")),
        }
    }
}

/// Parses one kernel spec from the `--kernels` sweep list: `cutoff`,
/// `gaussian[:H]` or `exponential[:H]` (alias `exp`). A weighted kernel
/// without an explicit bandwidth defaults to `H = dc`, the conventional
/// choice.
pub fn parse_kernel_spec(spec: &str, dc: f64) -> Result<Kernel, String> {
    let spec = spec.trim().to_ascii_lowercase();
    let (name, bandwidth) = match spec.split_once(':') {
        Some((name, h)) => {
            let h: f64 = h
                .trim()
                .parse()
                .map_err(|_| format!("invalid bandwidth in kernel spec {spec:?}"))?;
            (name.trim(), Some(h))
        }
        None => (spec.as_str(), None),
    };
    let kernel = match name {
        "cutoff" => {
            if bandwidth.is_some() {
                return Err("the cutoff kernel takes no bandwidth".into());
            }
            Kernel::Cutoff
        }
        "gaussian" => Kernel::gaussian(bandwidth.unwrap_or(dc)),
        "exponential" | "exp" => Kernel::exponential(bandwidth.unwrap_or(dc)),
        other => {
            return Err(format!(
                "unknown kernel {other:?} (cutoff, gaussian[:H], exponential[:H])"
            ))
        }
    };
    kernel.validate().map_err(|e| e.to_string())?;
    Ok(kernel)
}

/// What to measure: engines, window sizes, epoch batch sizes, kernels,
/// updates per cell, cut-off, seed, threads.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBenchOptions {
    /// Index families to sweep.
    pub engines: Vec<StreamEngine>,
    /// Window sizes to sweep (number of live points).
    pub windows: Vec<usize>,
    /// Epoch batch sizes to sweep: each epoch slides `batch` points in and
    /// the same number of oldest points out. Batch 1 is per-update
    /// maintenance; larger batches amortise the ρ/δ repairs and the
    /// clustering over the whole epoch.
    pub batches: Vec<usize>,
    /// Density kernels to sweep. The default is the paper-faithful cut-off
    /// alone; adding a weighted kernel (see [`parse_kernel_spec`]) times the
    /// ±w(d) weighted repair next to the integer-count path.
    pub kernels: Vec<Kernel>,
    /// Sliding-window updates (one eviction + one insertion each) measured
    /// per sweep cell.
    pub updates: usize,
    /// Cut-off distance of the maintained clustering.
    pub dc: f64,
    /// Seed of the check-in generator.
    pub seed: u64,
    /// Worker threads for the maintenance passes.
    pub threads: usize,
}

impl Default for StreamBenchOptions {
    fn default() -> Self {
        StreamBenchOptions {
            engines: StreamEngine::ALL.to_vec(),
            windows: vec![1_000, 4_000],
            batches: vec![1, 64],
            kernels: vec![Kernel::Cutoff],
            updates: 1_000,
            dc: 0.1,
            seed: 42,
            threads: 1,
        }
    }
}

/// Total time spent in each maintenance phase over one measured run, in
/// microseconds, read back from the engine's [`MetricsRecorder`] span
/// histograms (`stream.phase.*_us`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseMicros {
    /// Plan validation (`stream.phase.validate`).
    pub validate: u64,
    /// Index mutation: applying the epoch's insertions/evictions
    /// (`stream.phase.apply`).
    pub apply: u64,
    /// Affected-set ρ repair (`stream.phase.rho_repair`).
    pub rho_repair: u64,
    /// δ/µ repair over the invalidation set, or the full re-rank of a
    /// fallback epoch (`stream.phase.delta_repair`).
    pub delta_repair: u64,
    /// Re-running centre selection + assignment (`stream.phase.recluster`).
    pub recluster: u64,
}

impl PhaseMicros {
    /// Reads the five per-phase sums out of a metrics snapshot.
    fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let sum = |phase: &str| {
            snap.histogram(&format!("stream.phase.{phase}_us"))
                .map_or(0, |h| h.sum())
        };
        PhaseMicros {
            validate: sum("validate"),
            apply: sum("apply"),
            rho_repair: sum("rho_repair"),
            delta_repair: sum("delta_repair"),
            recluster: sum("recluster"),
        }
    }
}

/// One measured sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMeasurement {
    /// Engine this row belongs to.
    pub engine: &'static str,
    /// Window size this row belongs to.
    pub window: usize,
    /// Epoch batch size this row belongs to.
    pub batch: usize,
    /// Density kernel this row was measured under.
    pub kernel: Kernel,
    /// Updates processed.
    pub updates: usize,
    /// Total wall-clock time for all updates.
    pub total: Duration,
    /// Mean time per update (a batch of `b` slides counts as `2 b` point
    /// mutations but `b` updates, matching the per-update rows).
    pub per_update: Duration,
    /// Updates per second.
    pub updates_per_sec: f64,
    /// Epochs whose δ repair fell back to a full re-rank.
    pub fallbacks: u64,
    /// Where the maintenance time went, phase by phase.
    pub phases: PhaseMicros,
}

/// The whole benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBenchReport {
    /// The options the benchmark ran with.
    pub options: StreamBenchOptions,
    /// CPUs the machine exposes.
    pub cpus: usize,
    /// One row per window size, engine, batch size and kernel, in sweep
    /// order.
    pub measurements: Vec<StreamMeasurement>,
}

fn params(options: &StreamBenchOptions, kernel: Kernel) -> DpcParams {
    DpcParams::new(options.dc)
        .with_centers(CenterSelection::GammaGap { max_centers: 32 })
        .with_kernel(kernel)
        .with_threads(options.threads)
}

/// Runs the sweep: for every window size, engine, batch size and kernel,
/// streams the same check-in sequence through the engine and records its
/// throughput.
///
/// # Panics
/// Panics if the options are degenerate (no engines, no windows, no batch
/// sizes, no kernels, zero updates, a zero batch or a batch larger than the
/// smallest window) or if a cell's final state disagrees with a cold batch
/// run — the benchmark doubles as an end-to-end consistency check.
pub fn run(options: &StreamBenchOptions) -> StreamBenchReport {
    assert!(!options.engines.is_empty(), "need at least one engine");
    assert!(!options.windows.is_empty(), "need at least one window size");
    assert!(
        !options.batches.is_empty() && !options.batches.contains(&0),
        "need at least one positive batch size"
    );
    assert!(!options.kernels.is_empty(), "need at least one kernel");
    assert!(options.updates > 0, "need at least one update");
    let max_batch = options.batches.iter().copied().max().unwrap_or(0);
    let min_window = options.windows.iter().copied().min().unwrap_or(0);
    assert!(
        max_batch <= min_window,
        "epoch batch size {max_batch} exceeds the smallest window {min_window}: \
         a sliding epoch cannot evict more points than the window holds"
    );
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut measurements = Vec::new();
    for &window in &options.windows {
        let total_points = window + options.updates;
        let data = checkins(total_points, &CheckinConfig::gowalla(), options.seed).into_dataset();
        for &engine in &options.engines {
            for &batch in &options.batches {
                for &kernel in &options.kernels {
                    let row = match engine {
                        StreamEngine::Grid => measure_engine(
                            engine,
                            GridIndex::build,
                            options,
                            window,
                            batch,
                            kernel,
                            &data,
                        ),
                        StreamEngine::KdTree => measure_engine(
                            engine,
                            KdTree::build,
                            options,
                            window,
                            batch,
                            kernel,
                            &data,
                        ),
                    };
                    measurements.push(row);
                }
            }
        }
    }
    StreamBenchReport {
        options: options.clone(),
        cpus,
        measurements,
    }
}

/// Measures one engine on one window size at one epoch batch size under one
/// density kernel.
fn measure_engine<I, F>(
    engine: StreamEngine,
    build: F,
    options: &StreamBenchOptions,
    window: usize,
    batch: usize,
    kernel: Kernel,
    data: &Dataset,
) -> StreamMeasurement
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let points = data.points();
    let seed_window = Dataset::new(points[..window].to_vec());
    let arriving = &points[window..];
    let stream_params = StreamParams::new(options.dc).with_dpc(params(options, kernel));
    let mut stream = StreamingDpc::new(build(&seed_window), stream_params)
        .expect("seeding the streaming engine must succeed");
    // Attach a metrics recorder so the row can report where the maintenance
    // time went. The recorder is a handful of atomic adds per epoch — noise
    // next to the repair work it measures.
    let metrics = Arc::new(MetricsRecorder::new());
    stream.set_recorder(Arc::clone(&metrics) as SharedRecorder);
    // One advance (batch in, batch out) per epoch.
    let timer = dpc_obs::Timer::start();
    for chunk in arriving.chunks(batch) {
        stream
            .advance(chunk, chunk.len())
            .expect("streaming update must succeed");
    }
    let total = timer.elapsed();
    // Consistency: the engine's final densities must match a cold batch run
    // over its own surviving dataset (the same invariant the dpc-stream
    // property suite enforces epoch by epoch). Under the cut-off kernel the
    // match is bit-exact; weighted kernels accumulate ±w(d) repairs in
    // stream order, which regroups the f64 additions, so those rows check to
    // a 1e-9 relative tolerance instead.
    let check = DpcPipeline::new(params(options, kernel))
        .run(&build(stream.index().dataset()))
        .expect("consistency check must succeed");
    if kernel.is_cutoff() {
        assert_eq!(
            stream.rho(),
            &check.rho[..],
            "rho diverged from batch ({} @ window {window}, batch {batch})",
            engine.name()
        );
        assert_eq!(
            stream.clustering().labels(),
            check.clustering.labels(),
            "labels diverged from batch ({} @ window {window}, batch {batch})",
            engine.name()
        );
    } else {
        assert_eq!(stream.rho().len(), check.rho.len());
        for (i, (&got, &want)) in stream.rho().iter().zip(check.rho.iter()).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{} rho[{i}] diverged from batch beyond tolerance \
                 ({} @ window {window}, batch {batch}): {got} vs {want}",
                kernel.name(),
                engine.name()
            );
        }
    }
    let updates = options.updates;
    StreamMeasurement {
        engine: engine.name(),
        window,
        batch,
        kernel,
        updates,
        total,
        per_update: total / updates.max(1) as u32,
        updates_per_sec: updates as f64 / total.as_secs_f64().max(1e-9),
        fallbacks: stream.stats().fallback_epochs,
        phases: PhaseMicros::from_snapshot(&metrics.snapshot()),
    }
}

impl StreamBenchReport {
    /// The cut-off-kernel row of one (engine, window, batch) cell, if
    /// measured: the reference the batch and kernel ratios below divide by.
    fn row(&self, engine: StreamEngine, window: usize, batch: usize) -> Option<&StreamMeasurement> {
        self.measurements.iter().find(|m| {
            m.engine == engine.name()
                && m.window == window
                && m.batch == batch
                && m.kernel.is_cutoff()
        })
    }

    /// Throughput of a weighted kernel's row relative to the cut-off row of
    /// the same cell — the cost of evaluating and maintaining w(d) weights
    /// instead of integer counts. `None` unless both rows were swept.
    pub fn kernel_overhead(
        &self,
        engine: StreamEngine,
        window: usize,
        batch: usize,
        kernel_name: &str,
    ) -> Option<f64> {
        let weighted = self.measurements.iter().find(|m| {
            m.engine == engine.name()
                && m.window == window
                && m.batch == batch
                && m.kernel.name() == kernel_name
                && !m.kernel.is_cutoff()
        })?;
        let cutoff = self.row(engine, window, batch)?;
        Some(weighted.updates_per_sec / cutoff.updates_per_sec.max(1e-9))
    }

    /// Speedup of batched epochs over per-update maintenance: throughput at
    /// `batch` divided by throughput at batch 1 (cut-off kernel), for one
    /// engine and window size. `None` unless both cells were swept.
    pub fn batch_speedup(&self, engine: StreamEngine, window: usize, batch: usize) -> Option<f64> {
        let batched = self.row(engine, window, batch)?;
        let per_update = self.row(engine, window, 1)?;
        Some(batched.updates_per_sec / per_update.updates_per_sec.max(1e-9))
    }

    /// Renders the report as the `BENCH_stream.json` snapshot (no external
    /// JSON dependency). Every row keeps the `"mode": "incremental"` field
    /// of the earlier snapshots, so readers of the old schema still parse
    /// it.
    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (i, m) in self.measurements.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            let bandwidth = m
                .kernel
                .bandwidth()
                .map(|h| format!(", \"bandwidth\": {h}"))
                .unwrap_or_default();
            rows.push_str(&format!(
                "    {{ \"engine\": \"{}\", \"window\": {}, \"batch\": {}, \
                 \"kernel\": \"{}\"{bandwidth}, \"mode\": \"incremental\", \
                 \"updates\": {}, \"per_update_us\": {:.1}, \"updates_per_sec\": {:.1}, \
                 \"fallbacks\": {}, \"phase_us\": {{ \"validate\": {}, \
                 \"apply\": {}, \"rho_repair\": {}, \"delta_repair\": {}, \
                 \"recluster\": {} }} }}",
                m.engine,
                m.window,
                m.batch,
                m.kernel.name(),
                m.updates,
                m.per_update.as_secs_f64() * 1e6,
                m.updates_per_sec,
                m.fallbacks,
                m.phases.validate,
                m.phases.apply,
                m.phases.rho_repair,
                m.phases.delta_repair,
                m.phases.recluster
            ));
        }
        let largest = self.options.windows.iter().copied().max().unwrap_or(0);
        let largest_batch = self.options.batches.iter().copied().max().unwrap_or(1);
        let mut note = "incremental = dpc-stream epoch-batched affected-set maintenance over an \
                        updatable index, the engine's only maintenance path"
            .to_string();
        let batch_speedups: Vec<String> = self
            .options
            .windows
            .iter()
            .flat_map(|&w| {
                self.options.engines.iter().filter_map(move |&e| {
                    self.batch_speedup(e, w, largest_batch)
                        .map(|s| format!("{} {w} {s:.1}x", e.name()))
                })
            })
            .collect();
        if largest_batch > 1 && !batch_speedups.is_empty() {
            note.push_str(&format!(
                "; batched epochs (batch {largest_batch}) vs per-update maintenance (batch 1) \
                 per engine and window (cut-off kernel): {}",
                batch_speedups.join(", ")
            ));
        }
        let weighted: Vec<String> = self
            .options
            .kernels
            .iter()
            .filter(|k| !k.is_cutoff())
            .flat_map(|k| {
                self.options.engines.iter().filter_map(move |&e| {
                    self.kernel_overhead(e, largest, largest_batch, k.name())
                        .map(|r| format!("{} {} {r:.2}x", e.name(), k.name()))
                })
            })
            .collect();
        if !weighted.is_empty() {
            note.push_str(&format!(
                "; weighted-kernel throughput vs cutoff at window {largest}, \
                 batch {largest_batch}: {}",
                weighted.join(", ")
            ));
        }
        format!(
            "{{\n  \"benchmark\": \"stream_throughput\",\n  \"dataset\": \"gowalla-checkins\",\n  \
             \"updates\": {},\n  \"dc\": {},\n  \"seed\": {},\n  \"threads\": {},\n  \
             \"machine\": {{ \"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {} }},\n  \
             \"note\": \"{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
            self.options.updates,
            self.options.dc,
            self.options.seed,
            self.options.threads,
            std::env::consts::OS,
            std::env::consts::ARCH,
            self.cpus,
            note,
            rows
        )
    }

    /// Renders a human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "streaming throughput @ {} updates, dc = {}, {} thread(s), {} cpu(s)\n\
             {:<8} {:<8} {:<7} {:<12} {:>16} {:>14} {:>10}\n",
            self.options.updates,
            self.options.dc,
            self.options.threads,
            self.cpus,
            "engine",
            "window",
            "batch",
            "kernel",
            "per update (us)",
            "updates/sec",
            "fallbacks"
        );
        for m in &self.measurements {
            out.push_str(&format!(
                "{:<8} {:<8} {:<7} {:<12} {:>16.1} {:>14.1} {:>10}\n",
                m.engine,
                m.window,
                m.batch,
                m.kernel.name(),
                m.per_update.as_secs_f64() * 1e6,
                m.updates_per_sec,
                m.fallbacks
            ));
            let p = &m.phases;
            out.push_str(&format!(
                "         phases (us): validate {}, apply {}, rho {}, delta {}, recluster {}\n",
                p.validate, p.apply, p.rho_repair, p.delta_repair, p.recluster
            ));
        }
        for &w in &self.options.windows {
            for &b in &self.options.batches {
                for &e in &self.options.engines {
                    if b > 1 {
                        if let Some(s) = self.batch_speedup(e, w, b) {
                            out.push_str(&format!(
                                "{} @ window {w}: batch {b} epochs are {s:.1}x per-update \
                                 maintenance\n",
                                e.name()
                            ));
                        }
                    }
                    for k in &self.options.kernels {
                        if k.is_cutoff() {
                            continue;
                        }
                        if let Some(r) = self.kernel_overhead(e, w, b, k.name()) {
                            out.push_str(&format!(
                                "{} @ window {w}, batch {b}: {} runs at {r:.2}x the cutoff \
                                 kernel\n",
                                e.name(),
                                k.name()
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> StreamBenchOptions {
        StreamBenchOptions {
            engines: vec![StreamEngine::Grid],
            windows: vec![150],
            batches: vec![1],
            kernels: vec![Kernel::Cutoff],
            updates: 40,
            dc: 0.3,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn sweep_produces_one_row_per_cell() {
        let report = run(&tiny_options());
        assert_eq!(report.measurements.len(), 1);
        let row = &report.measurements[0];
        assert_eq!(row.updates, 40);
        assert!(row.updates_per_sec > 0.0);
        // The per-phase breakdown covers the affected-set path: every epoch
        // repairs ρ and δ.
        assert!(row.phases.rho_repair > 0);
        assert!(row.phases.delta_repair > 0);
    }

    #[test]
    fn batch_sweep_produces_rows_per_batch_size_and_batch_speedup() {
        let report = run(&StreamBenchOptions {
            batches: vec![1, 8],
            ..tiny_options()
        });
        assert_eq!(report.measurements.len(), 2);
        assert!(report.measurements.iter().any(|m| m.batch == 8));
        assert!(report.batch_speedup(StreamEngine::Grid, 150, 8).unwrap() > 0.0);
        // Batch 1 vs itself is exactly 1.
        assert_eq!(report.batch_speedup(StreamEngine::Grid, 150, 1), Some(1.0));
    }

    #[test]
    fn every_engine_sweeps_and_stays_consistent() {
        let report = run(&StreamBenchOptions {
            engines: StreamEngine::ALL.to_vec(),
            batches: vec![1, 8],
            ..tiny_options()
        });
        // One row per engine per batch size; the in-benchmark assertion
        // already checked each cell against a cold batch run.
        assert_eq!(report.measurements.len(), 4);
        for e in StreamEngine::ALL {
            assert!(report.batch_speedup(e, 150, 8).unwrap() > 0.0);
        }
    }

    #[test]
    fn kernel_sweep_adds_weighted_rows() {
        let report = run(&StreamBenchOptions {
            kernels: vec![Kernel::Cutoff, Kernel::gaussian(0.3)],
            batches: vec![8],
            ..tiny_options()
        });
        // One row per kernel.
        assert_eq!(report.measurements.len(), 2);
        let gaussian: Vec<_> = report
            .measurements
            .iter()
            .filter(|m| m.kernel == Kernel::gaussian(0.3))
            .collect();
        assert_eq!(gaussian.len(), 1);
        // The weighted rows get their own overhead ratio against the cut-off
        // row of the same cell.
        let overhead = report
            .kernel_overhead(StreamEngine::Grid, 150, 8, "gaussian")
            .unwrap();
        assert!(overhead > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"kernel\": \"cutoff\""), "{json}");
        assert!(
            json.contains("\"kernel\": \"gaussian\", \"bandwidth\": 0.3"),
            "{json}"
        );
        assert!(json.contains("weighted-kernel throughput"), "{json}");
        assert!(report.render().contains("gaussian"), "{}", report.render());
    }

    #[test]
    fn kernel_specs_parse_with_and_without_bandwidths() {
        assert_eq!(parse_kernel_spec("cutoff", 0.1).unwrap(), Kernel::Cutoff);
        assert_eq!(
            parse_kernel_spec("gaussian", 0.1).unwrap(),
            Kernel::gaussian(0.1)
        );
        assert_eq!(
            parse_kernel_spec("gaussian:0.5", 0.1).unwrap(),
            Kernel::gaussian(0.5)
        );
        assert_eq!(
            parse_kernel_spec("exp:2", 0.1).unwrap(),
            Kernel::exponential(2.0)
        );
        assert!(parse_kernel_spec("cutoff:1", 0.1).is_err());
        assert!(parse_kernel_spec("gaussian:x", 0.1).is_err());
        assert!(parse_kernel_spec("gaussian:-1", 0.1)
            .unwrap_err()
            .contains("valid range"));
        assert!(parse_kernel_spec("tricube", 0.1).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn no_kernels_panics() {
        run(&StreamBenchOptions {
            kernels: vec![],
            ..tiny_options()
        });
    }

    #[test]
    fn engine_names_round_trip() {
        for e in StreamEngine::ALL {
            assert_eq!(StreamEngine::parse(e.name()).unwrap(), e);
        }
        assert_eq!(StreamEngine::parse("kd").unwrap(), StreamEngine::KdTree);
        assert!(StreamEngine::parse("ball-tree").is_err());
        assert!(StreamEngine::parse("rtree").is_err());
    }

    #[test]
    fn json_snapshot_has_the_expected_fields() {
        let report = run(&StreamBenchOptions {
            batches: vec![1, 8],
            ..tiny_options()
        });
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"stream_throughput\"",
            "\"updates\": 40",
            "\"machine\"",
            "\"cpus\"",
            "\"engine\": \"grid\"",
            "\"batch\": 1",
            "\"mode\": \"incremental\"",
            "\"updates_per_sec\"",
            "\"fallbacks\"",
            "\"phase_us\"",
            "vs per-update maintenance (batch 1)",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // One maintenance path: no rebuild or adaptive rows, and exactly the
        // five phases of the incremental epoch.
        for gone in ["rebuild", "adaptive"] {
            assert!(!json.contains(gone), "stale {gone} in {json}");
        }
        let phases = json.split("\"phase_us\": { ").nth(1).unwrap();
        let phases = phases.split(" }").next().unwrap();
        assert_eq!(phases.matches(':').count(), 5, "{phases}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(report.render().contains("per-update maintenance"));
    }

    #[test]
    #[should_panic(expected = "at least one update")]
    fn zero_updates_panics() {
        run(&StreamBenchOptions {
            updates: 0,
            ..tiny_options()
        });
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn no_engines_panics() {
        run(&StreamBenchOptions {
            engines: vec![],
            ..tiny_options()
        });
    }

    #[test]
    #[should_panic(expected = "positive batch size")]
    fn zero_batch_panics() {
        run(&StreamBenchOptions {
            batches: vec![0],
            ..tiny_options()
        });
    }

    #[test]
    #[should_panic(expected = "exceeds the smallest window")]
    fn batch_larger_than_window_panics_with_a_clear_message() {
        // Checked up front, so the sweep never dies mid-run with a slice
        // error.
        run(&StreamBenchOptions {
            batches: vec![1, 512],
            ..tiny_options() // window 150
        });
    }
}
