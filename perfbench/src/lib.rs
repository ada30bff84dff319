//! # perfbench
//!
//! One benchmark for the three ways the workspace is used: batch clustering
//! over a prebuilt index (`batch-lists`, `batch-trees`), a streaming window
//! (`stream-bulk`) and concurrent serving of the published epochs
//! (`serve-trickle`). See `perfbench/README.md` for what each workload
//! stresses and which end-to-end metric each per-layer metric should move.
//!
//! Every layer is measured from outside, by timing calls into public entry
//! points (`DpcPipeline::run`, index constructors, `StreamingDpc::new` and
//! `advance`, `dpc_serve::Server` and `SnapshotReader`). An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) additionally
//! attaches the existing recorder hooks and reports the per-layer metrics.

pub mod batch;
pub mod layers;
pub mod probe;
pub mod report;
pub mod stats;
pub mod stream;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dpc_core::Dataset;
use dpc_datasets::generators::{checkins, CheckinConfig};
use dpc_datasets::SplitMix64;
use layers::LayerRecorder;
pub use report::{Metric, Outcome};

/// Seed of the Gowalla-like map: where its hotspot cities lie.
pub const MAP_SEED: u64 = 0x0060_A11A;

/// `n` Gowalla-like check-ins drawn by `seed` from one fixed map.
///
/// The map (the hotspot positions) is the same for every seed, as the real
/// Gowalla dataset of the paper is; `seed` picks which of four times `n`
/// check-ins on it are drawn, and in which order. With a fresh map per
/// seed, the cost of one workload differed by up to a quarter between
/// seeds, depending on whether two large hotspots happened to overlap.
pub fn gowalla_checkins(n: usize, seed: u64) -> Dataset {
    let mut pool = checkins(4 * n, &CheckinConfig::gowalla(), MAP_SEED)
        .into_dataset()
        .points()
        .to_vec();
    SplitMix64::new(seed).shuffle(&mut pool);
    pool.truncate(n);
    Dataset::new(pool)
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// S1 at paper size over the four list indexes, Fig-6 dc sweep.
    BatchLists,
    /// Gowalla-like check-ins over the three tree indexes, Fig-6 dc sweep.
    BatchTrees,
    /// A k-d tree streaming engine sliding 64-point epochs.
    StreamBulk,
    /// The grid engine behind `Server` with one-point epochs and an
    /// open-loop reader.
    ServeTrickle,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchLists,
        Workload::BatchTrees,
        Workload::StreamBulk,
        Workload::ServeTrickle,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchLists => "batch-lists",
            Workload::BatchTrees => "batch-trees",
            Workload::StreamBulk => "stream-bulk",
            Workload::ServeTrickle => "serve-trickle",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the paper-scale workloads, or tiny ones for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workloads are defined at.
    Paper,
    /// A few hundred points, for tests.
    Tiny,
}

impl Size {
    /// Bytes the host probe reads.
    pub fn probe_bytes(self) -> usize {
        match self {
            Size::Paper => probe::PAPER_BYTES,
            Size::Tiny => 1 << 20,
        }
    }
}

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Wall-clock seconds (whole rounds; the last one may overrun).
    Seconds(f64),
    /// A fixed number of rounds: dc sweeps for batch, blocks of writer
    /// epochs for stream and serve. Runs with equal rounds do identical
    /// work.
    Rounds(u64),
}

impl Budget {
    /// Half of this budget (at least one round): a traced run spends one
    /// half untraced and the other traced.
    pub fn half(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            Budget::Rounds(n) => Budget::Rounds((n / 2).max(1)),
        }
    }

    /// True once a phase that started at `started` and completed `rounds`
    /// rounds has used the budget up.
    pub fn spent(self, started: Instant, rounds: u64) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Rounds(n) => rounds >= n,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured-phase budget.
    pub budget: Budget,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where a traced run writes its Chrome trace (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("index_mb", "MB"),
    ("approx_ari", "ratio"),
];

/// List indexes of `batch-lists`, in measurement order.
pub const LIST_INDEXES: [&str; 4] = ["list", "ch", "list_star", "ch_star"];
/// Tree indexes of `batch-trees`, in measurement order.
pub const TREE_INDEXES: [&str; 3] = ["quadtree", "rtree", "kdtree"];
/// Epoch phases, as the engine's `stream.phase.*` spans name them.
pub const PHASES: [&str; 7] = [
    "validate",
    "apply",
    "rho_repair",
    "delta_repair",
    "batch_query",
    "recluster",
    "publish",
];
/// Tree-query counters published under `query.rho.*`.
pub const RHO_COUNTERS: [&str; 4] = [
    "nodes_visited",
    "nodes_discarded",
    "nodes_fully_contained",
    "points_scanned",
];
/// Tree-query counters published under `query.delta.*`.
pub const DELTA_COUNTERS: [&str; 4] = [
    "nodes_visited",
    "nodes_density_pruned",
    "nodes_distance_pruned",
    "points_scanned",
];
/// Reader query families of `serve-trickle`.
pub const READS: [&str; 3] = ["lookup", "eps", "sub"];
/// Index maintenance counters the streaming engines expose.
pub const MAINTENANCE: [&str; 3] = [
    "kdtree.subtree_rebuilds",
    "kdtree.full_rebuilds",
    "grid.rebuckets",
];

/// Every per-layer metric a traced run reports, with its unit. A metric
/// whose layer a workload does not exercise reads 0 there.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let built: Vec<&str> = LIST_INDEXES
        .iter()
        .chain(TREE_INDEXES.iter())
        .chain(std::iter::once(&"grid"))
        .copied()
        .collect();
    for idx in &built {
        out.push((format!("build_s.{idx}"), "s"));
    }
    for idx in &built {
        out.push((format!("bytes.{idx}"), "bytes"));
    }
    for idx in LIST_INDEXES.iter().chain(TREE_INDEXES.iter()) {
        out.push((format!("rho_ms.{idx}"), "ms"));
        out.push((format!("delta_ms.{idx}"), "ms"));
    }
    for idx in TREE_INDEXES {
        out.push((format!("delta_prune_frac.{idx}"), "ratio"));
        for c in RHO_COUNTERS {
            out.push((format!("query.rho.{c}.{idx}"), "count"));
        }
        for c in DELTA_COUNTERS {
            out.push((format!("query.delta.{c}.{idx}"), "count"));
        }
    }
    out.push(("core.select_assign_ms".into(), "ms"));
    out.push(("stream.seed_s".into(), "s"));
    for p in PHASES {
        out.push((format!("stream.phase.{p}_ms"), "ms"));
    }
    for p in ["p50", "p90", "p99"] {
        out.push((format!("stream.commit_{p}_ms"), "ms"));
    }
    out.push(("stream.fallback_frac".into(), "ratio"));
    out.push(("stream.invalidated_frac".into(), "ratio"));
    out.push(("stream.eps_queries_per_epoch".into(), "count"));
    for m in MAINTENANCE {
        out.push((format!("index.{m}_per_epoch"), "count"));
    }
    out.push(("serve.read_p50_us".into(), "us"));
    out.push(("serve.read_p99_us".into(), "us"));
    for r in READS {
        out.push((format!("serve.{r}_p50_us"), "us"));
        out.push((format!("serve.{r}_p99_us"), "us"));
    }
    out.push(("serve.resyncs".into(), "count"));
    out.push(("serve.retained_epochs_max".into(), "count"));
    out.push(("serve.reader_late_ms".into(), "ms"));
    out.push(("obs.trace_overhead_frac".into(), "ratio"));
    out.push(("obs.unattributed_frac".into(), "ratio"));
    out
}

/// Runs one workload and assembles its outcome. A traced run writes its
/// Chrome trace to `<trace_dir>/<workload>-<seed>.json`.
pub fn run(config: &Config) -> Outcome {
    let started = Instant::now();
    let rec = config.trace.then(LayerRecorder::shared);
    let mut out = match config.workload {
        Workload::BatchLists | Workload::BatchTrees => batch::run(config, rec.as_ref()),
        Workload::StreamBulk | Workload::ServeTrickle => stream::run(config, rec.as_ref()),
    };
    if let (Some(rec), Some(dir)) = (&rec, &config.trace_dir) {
        let path = dir.join(format!("{}-{}.json", config.workload.name(), config.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.chrome_json()));
        match written {
            Ok(()) => out.info("trace_file", format!("\"{}\"", path.display())),
            Err(e) => out.info("trace_error", format!("\"{e}\"")),
        }
    }
    out.info("wall_s", format!("{}", started.elapsed().as_secs_f64()));
    out
}

/// The traced run's recorder, shared by the writer and reader threads.
pub type Rec = Arc<LayerRecorder>;

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
