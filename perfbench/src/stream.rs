//! `stream-bulk` and `serve-trickle`: a sliding check-in window maintained
//! by `StreamingDpc` with its default `StreamParams`, committed by a
//! closed-loop writer. `serve-trickle` puts the engine behind
//! `dpc_serve::Server` and adds one open-loop reader thread.
//!
//! One writer operation is one `advance` call (one epoch); one reader
//! operation is one query, timed from when it was due.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpc_core::{Dataset, DpcPipeline, Point, UpdatableIndex};
use dpc_datasets::SplitMix64;
use dpc_metrics::rand_index::adjusted_rand_index_labels;
use dpc_obs::Recorder;
use dpc_serve::{Replay, Server, SnapshotReader};
use dpc_stream::{EpochSnapshot, StreamParams, StreamingDpc};
use dpc_tree_index::{GridIndex, KdTree};

use crate::probe::{HostProbe, SETUP_UP_FRONT};
use crate::report::{checked_quantile_ns, report_setup, report_timings};
use crate::stats::{Samples, Timings, MIN_BEYOND};
use crate::{
    gowalla_checkins, Budget, Config, Outcome, Rec, Size, Workload, MAINTENANCE, PHASES, READS,
};

/// Parameters of a streaming workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Engine index name (`kdtree` or `grid`).
    pub engine: &'static str,
    /// Points in the window.
    pub window: usize,
    /// Points slid in (and out) per epoch.
    pub batch: usize,
    /// Epochs per round; the end-to-end metrics keep the fastest rounds.
    pub block: usize,
    /// Cut-off distance.
    pub dc: f64,
    /// Arriving points generated up front; the writer cycles through them.
    pub arrivals: usize,
    /// Open-loop reader rate in queries per second (`None`: no server).
    pub read_rate: Option<f64>,
    /// Delta-ring capacity of the server.
    pub ring: usize,
    /// Commit-latency quantile reported as `latency_tail_ms`.
    pub tail_q: f64,
    /// Highest commit-latency quantile reported (per-layer
    /// `stream.commit_p90_ms` or `stream.commit_p99_ms`). Every measured
    /// phase commits until it has `MIN_BEYOND` samples beyond it.
    pub top_q: f64,
}

impl StreamSpec {
    /// The parameters of `workload` at `size`.
    ///
    /// # Panics
    /// Panics for a workload that is not a streaming workload.
    pub fn new(workload: Workload, size: Size) -> StreamSpec {
        let tiny = size == Size::Tiny;
        let window = if tiny { 300 } else { 4_000 };
        match workload {
            Workload::StreamBulk => StreamSpec {
                engine: "kdtree",
                window,
                batch: if tiny { 16 } else { 64 },
                block: if tiny { 2 } else { 4 },
                dc: 0.1,
                arrivals: if tiny { 2_000 } else { 64 * 1_024 },
                read_rate: None,
                ring: 0,
                tail_q: 0.9,
                top_q: 0.9,
            },
            Workload::ServeTrickle => StreamSpec {
                engine: "grid",
                window,
                batch: 1,
                block: if tiny { 8 } else { 64 },
                dc: 0.1,
                arrivals: if tiny { 2_000 } else { 20_000 },
                read_rate: Some(10_000.0),
                ring: 64,
                tail_q: 0.9,
                top_q: 0.99,
            },
            other => panic!("{} is not a streaming workload", other.name()),
        }
    }
}

/// Runs a streaming workload; `rec` is the traced run's recorder.
pub fn run(config: &Config, rec: Option<&Rec>) -> Outcome {
    let spec = StreamSpec::new(config.workload, config.size);
    match spec.engine {
        "kdtree" => run_engine(config, rec, &spec, KdTree::build),
        _ => run_engine(config, rec, &spec, GridIndex::build),
    }
}

/// The writer's side of one measured phase: commit latencies, each epoch
/// counting `batch` updates.
#[derive(Debug)]
struct WriterPhase {
    commits: Timings,
    attempted: u64,
    failed: u64,
    retained_max: u64,
}

/// The reader's side of one measured phase: latencies from due time, over
/// all families and per family, and how late each query was issued.
#[derive(Debug, Default)]
struct ReaderPhase {
    all: Samples,
    family: [Samples; 3],
    late: Samples,
    resyncs: u64,
    errors: u64,
    kept: Vec<Arc<EpochSnapshot>>,
}

/// The engine, optionally behind a server.
enum Front<I: UpdatableIndex> {
    Engine(StreamingDpc<I>),
    Server(Server<I>),
}

impl<I: UpdatableIndex> Front<I> {
    fn engine(&self) -> &StreamingDpc<I> {
        match self {
            Front::Engine(e) => e,
            Front::Server(s) => s.engine(),
        }
    }

    fn engine_mut(&mut self) -> &mut StreamingDpc<I> {
        match self {
            Front::Engine(e) => e,
            Front::Server(s) => s.engine_mut(),
        }
    }
}

fn run_engine<I: UpdatableIndex>(
    config: &Config,
    rec: Option<&Rec>,
    spec: &StreamSpec,
    build: fn(&Dataset) -> I,
) -> Outcome {
    let data = gowalla_checkins(spec.window + spec.arrivals, config.seed);
    let points = data.points();
    let seed_window = Dataset::new(points[..spec.window].to_vec());
    let arrivals = &points[spec.window..];
    let mut out = Outcome::new(config.trace);

    // Set-up: index build plus engine seeding (plus the server), in repeated
    // rounds (the probe spreads the cheap ones over the run); the last
    // up-front system is measured. A round's times are its total, the build
    // and the seeding.
    let set_up = |rec: Option<&Rec>| {
        let start = Instant::now();
        let index = build(&seed_window);
        let built = start.elapsed();
        let seeding = Instant::now();
        let engine =
            StreamingDpc::new(index, StreamParams::new(spec.dc)).map_err(|e| e.to_string())?;
        let front = match spec.read_rate {
            Some(_) => Front::Server(Server::new(engine, spec.ring)),
            None => Front::Engine(engine),
        };
        let seeded = seeding.elapsed();
        if let Some(rec) = rec {
            rec.span(&format!("index.build.{}", spec.engine), start, built);
            rec.span("stream.seed", seeding, seeded);
        }
        let times = [start.elapsed(), built, seeded].map(|d| d.as_secs_f64());
        Ok::<_, String>((front, times.to_vec()))
    };
    let mut front = None;
    let mut up_front = Vec::new();
    for _ in 0..SETUP_UP_FRONT {
        // Drop the previous round's engine before building the next.
        drop(front.take());
        match set_up(rec) {
            Ok((built, times)) => {
                front = Some(built);
                up_front.push(times);
            }
            Err(e) => {
                out.check(false, || format!("seeding the engine failed: {e}"));
                return out;
            }
        }
    }
    let mut front = front.expect("at least one set-up round");
    let more_setup = Box::new(move || set_up(None).ok().map(|(_, times)| times));
    let mut probe = HostProbe::new(config.size.probe_bytes(), up_front, more_setup);
    let mut cursor = 0usize;
    let mut writer = |front: &mut Front<I>, budget: Budget, rec: Option<&Rec>| {
        phase(
            front,
            spec,
            arrivals,
            points,
            &mut cursor,
            budget,
            rec,
            &mut probe,
            config.seed,
        )
    };

    let phases = match rec {
        None => {
            let (w, r) = writer(&mut front, config.budget, None);
            out.info("op", "\"one advance call (one epoch)\"".into());
            report_timings(&w.commits, spec.tail_q, &probe, &mut out);
            let mut commits = w.commits.kept().samples;
            let top = checked_quantile_ns(&mut commits, spec.top_q, "commit latency", &mut out);
            let p = (spec.top_q * 100.0).round();
            out.info(&format!("commit_p{p}_ms"), (top / 1e6).to_string());
            if let Some(r) = &r {
                let mut all = r.all.clone();
                out.info("read_samples", all.len().to_string());
                for (q, p) in [(0.5, "p50"), (0.99, "p99")] {
                    let ns = checked_quantile_ns(&mut all, q, "read latency", &mut out);
                    out.info(&format!("read_{p}_us"), (ns / 1e3).to_string());
                }
            }
            vec![(w, r)]
        }
        Some(rec) => {
            // The reader and commit latencies come from the untraced half:
            // in the traced half, the shared trace sink stalls the reader
            // by milliseconds and slows commits by its own overhead.
            let (plain, plain_reads) = writer(&mut front, config.budget.half(), None);
            let before = front.engine().stats();
            let counters_before = front.engine().index().maintenance_counters();
            front.engine_mut().set_recorder(rec.as_shared());
            let (traced, reads) = writer(&mut front, config.budget.half(), Some(rec));
            front.engine_mut().set_recorder(dpc_obs::noop());
            let after = front.engine().stats();
            let counters_after = front.engine().index().maintenance_counters();
            let layers = rec.snapshot();
            let epochs = (after.epochs - before.epochs).max(1) as f64;

            out.set(format!("build_s.{}", spec.engine), probe.setup_median(1));
            out.set(
                format!("bytes.{}", spec.engine),
                front.engine().index().memory_bytes() as f64,
            );
            out.set("stream.seed_s", probe.setup_median(2));
            let mut phases_ms = 0.0;
            for p in PHASES {
                let ms = layers.span(&format!("stream.phase.{p}")).ms();
                phases_ms += ms;
                out.set(format!("stream.phase.{p}_ms"), ms / epochs);
            }
            let mut commit = plain.commits.kept().samples;
            for (q, name) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                if q <= spec.top_q {
                    let ns = checked_quantile_ns(&mut commit, q, "commit latency", &mut out);
                    out.set(format!("stream.commit_{name}_ms"), ns / 1e6);
                }
            }
            out.set(
                "stream.fallback_frac",
                (after.fallback_epochs - before.fallback_epochs) as f64 / epochs,
            );
            out.set(
                "stream.invalidated_frac",
                layers.record_sum("stream.invalidated") as f64 / (epochs * spec.window as f64),
            );
            out.set(
                "stream.eps_queries_per_epoch",
                (after.eps_queries - before.eps_queries) as f64 / epochs,
            );
            for (name, value) in &counters_after {
                let key = format!("{}.{name}", spec.engine);
                if !MAINTENANCE.contains(&key.as_str()) {
                    continue;
                }
                let was = counters_before
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |&(_, v)| v);
                out.set(
                    format!("index.{key}_per_epoch"),
                    (value - was) as f64 / epochs,
                );
            }
            if let Some(r) = &plain_reads {
                let mut all = r.all.clone();
                let mut family = r.family.clone();
                let sets = std::iter::once(("read", &mut all))
                    .chain(READS.iter().copied().zip(family.iter_mut()));
                for (name, samples) in sets {
                    for (q, p) in [(0.5, "p50"), (0.99, "p99")] {
                        let ns = checked_quantile_ns(samples, q, name, &mut out);
                        out.set(format!("serve.{name}_{p}_us"), ns / 1e3);
                    }
                }
                out.set("serve.resyncs", r.resyncs as f64);
                out.set("serve.retained_epochs_max", plain.retained_max as f64);
                let late = checked_quantile_ns(&mut r.late.clone(), 0.99, "lateness", &mut out);
                out.set("serve.reader_late_ms", late / 1e6);
            }
            out.set(
                "obs.trace_overhead_frac",
                1.0 - traced.commits.throughput() / plain.commits.throughput(),
            );
            out.set(
                "obs.unattributed_frac",
                1.0 - phases_ms / (traced.commits.busy().as_secs_f64() * 1e3).max(1e-12),
            );
            vec![(plain, plain_reads), (traced, reads)]
        }
    };
    report_setup(&probe, &mut out);
    drop(probe);

    // Correctness gate, outside every timed region.
    for (w, reads) in &phases {
        out.ops("epochs", w.attempted, w.failed);
        let Some(r) = reads else { continue };
        out.ops("reads", r.all.len() as u64 + r.errors, r.errors);
        for snap in &r.kept {
            let consistent = catch_unwind(AssertUnwindSafe(|| snap.check_consistency())).is_ok();
            out.check(consistent, || {
                format!("snapshot of epoch {} is inconsistent", snap.epoch())
            });
        }
    }
    let engine = front.engine();
    let ari = gate(engine, build, &mut out);
    if !config.trace {
        out.set("index_mb", engine.index().memory_bytes() as f64 / 1e6);
        out.set("approx_ari", ari);
    }
    out.info("window", spec.window.to_string());
    out.info("batch", spec.batch.to_string());
    out.info("dc", spec.dc.to_string());
    out.info("engine", format!("\"{}\"", spec.engine));
    out.info("epochs", engine.stats().epochs.to_string());
    if let Some(rate) = spec.read_rate {
        out.info("read_rate_per_s", rate.to_string());
        out.info("threads", "2".into());
    } else {
        out.info("threads", "1".into());
    }
    out
}

/// One measured phase: the writer commits epochs until `budget` is spent,
/// while (for a server) a reader thread queries at the spec's rate.
#[allow(clippy::too_many_arguments)]
fn phase<I: UpdatableIndex>(
    front: &mut Front<I>,
    spec: &StreamSpec,
    arrivals: &[Point],
    points: &[Point],
    cursor: &mut usize,
    budget: Budget,
    rec: Option<&Rec>,
    probe: &mut HostProbe,
    seed: u64,
) -> (WriterPhase, Option<ReaderPhase>) {
    let server = match front {
        Front::Engine(engine) => {
            return (
                write(engine, spec, arrivals, cursor, budget, rec, probe, || 0),
                None,
            );
        }
        Front::Server(server) => server,
    };
    let rate = spec.read_rate.expect("a server has a reader rate");
    let reader = server.reader();
    let cell = Arc::clone(server.cell());
    let stop = AtomicBool::new(false);
    let reader_epoch = AtomicU64::new(reader.epoch());
    std::thread::scope(|s| {
        let reading = s.spawn(|| {
            read(
                reader,
                points,
                spec,
                rate,
                &stop,
                &reader_epoch,
                rec.cloned(),
                seed,
            )
        });
        let w = write(
            server.engine_mut(),
            spec,
            arrivals,
            cursor,
            budget,
            rec,
            probe,
            || {
                cell.latest_epoch()
                    .saturating_sub(reader_epoch.load(Ordering::Relaxed))
            },
        );
        stop.store(true, Ordering::Release);
        let r = reading.join().unwrap_or_else(|_| ReaderPhase {
            errors: 1,
            ..ReaderPhase::default()
        });
        (w, Some(r))
    })
}

/// The closed-loop writer: one `advance` of `spec.batch` points per epoch,
/// cycling through the arrivals, with the host probe between rounds.
/// `retained` samples how many published epochs the slowest reader lags
/// behind.
#[allow(clippy::too_many_arguments)]
fn write<I: UpdatableIndex>(
    engine: &mut StreamingDpc<I>,
    spec: &StreamSpec,
    arrivals: &[Point],
    cursor: &mut usize,
    budget: Budget,
    rec: Option<&Rec>,
    probe: &mut HostProbe,
    retained: impl Fn() -> u64,
) -> WriterPhase {
    let mut w = WriterPhase {
        commits: Timings::new(),
        attempted: 0,
        failed: 0,
        retained_max: 0,
    };
    let started = Instant::now();
    let mut epochs = 0;
    // Whole rounds of `spec.block` epochs; past the budget, they continue
    // until the top commit quantile over the kept rounds has enough samples
    // beyond it (or a commit failed, which fails the run).
    while !(epochs % spec.block == 0
        && budget.spent(started, (epochs / spec.block) as u64)
        && (w.commits.kept_beyond(spec.top_q) >= MIN_BEYOND || w.failed > 0))
    {
        if *cursor + spec.batch > arrivals.len() {
            *cursor = 0;
        }
        let chunk = &arrivals[*cursor..*cursor + spec.batch];
        *cursor += spec.batch;
        let start = Instant::now();
        let result = engine.advance(chunk, chunk.len());
        let took = start.elapsed();
        w.attempted += 1;
        match result {
            Ok(delta) => {
                w.commits.record(took, spec.batch as f64);
                black_box(delta);
                if let Some(rec) = rec {
                    rec.span("stream.advance", start, took);
                }
            }
            Err(_) => w.failed += 1,
        }
        w.retained_max = w.retained_max.max(retained());
        epochs += 1;
        if epochs % spec.block == 0 {
            w.commits.end_round();
            probe.between_rounds();
        }
    }
    w
}

/// Snapshots the reader keeps for the consistency check: one every this
/// many published epochs.
const KEEP_EVERY: u64 = 50;

/// How long before a query is due the reader stops sleeping and spins: the
/// scheduler's wake-up latency plus the default 50 µs timer slack.
const SPIN: Duration = Duration::from_micros(60);

/// The open-loop reader: query `i` is due `i / rate` seconds after the
/// start and cycles lookup, ε-neighbourhood and subscription poll; each is
/// timed from when it was due. Between queries it sleeps, spinning only
/// for the last `SPIN`, so that it leaves the writer a CPU. It stops once
/// the writer is done and every family's p99 has `MIN_BEYOND` samples
/// beyond it.
#[allow(clippy::too_many_arguments)]
fn read(
    mut reader: SnapshotReader,
    points: &[Point],
    spec: &StreamSpec,
    rate: f64,
    stop: &AtomicBool,
    reader_epoch: &AtomicU64,
    rec: Option<Rec>,
    seed: u64,
) -> ReaderPhase {
    let mut r = ReaderPhase::default();
    let mut rng = SplitMix64::new(seed ^ 0x5EAD_E125);
    let interval_ns = 1e9 / rate;
    let mut seen = reader.epoch();
    let mut next_keep = seen;
    let started = Instant::now();
    let mut i: u64 = 0;
    while !(stop.load(Ordering::Acquire) && r.family.iter().all(|f| f.beyond(0.99) >= MIN_BEYOND)) {
        let due = started + Duration::from_nanos((i as f64 * interval_ns) as u64);
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let family = (i % 3) as usize;
        let begin = Instant::now();
        match family {
            0 => {
                let snap = reader.current();
                let h = snap.handle_at(rng.uniform_usize(snap.len()));
                black_box(reader.cluster_of(h));
            }
            1 => {
                let c = points[rng.uniform_usize(points.len())];
                if reader.eps_neighbors(c, spec.dc).map(black_box).is_err() {
                    r.errors += 1;
                }
            }
            _ => match reader.deltas_since(seen) {
                Replay::Deltas(deltas) => {
                    if let Some(last) = deltas.last() {
                        seen = last.epoch;
                    }
                }
                Replay::Resync(snapshot) => {
                    seen = snapshot.epoch();
                    r.resyncs += 1;
                }
            },
        }
        let end = Instant::now();
        r.all.push_duration(end - due);
        r.family[family].push_duration(end - due);
        r.late.push_duration(begin.saturating_duration_since(due));
        if let Some(rec) = &rec {
            rec.span(&format!("serve.read.{}", READS[family]), begin, end - begin);
        }
        reader_epoch.store(reader.epoch(), Ordering::Relaxed);
        if reader.epoch() >= next_keep {
            r.kept.push(reader.current());
            next_keep = reader.epoch() + KEEP_EVERY;
        }
        i += 1;
    }
    r.kept.push(reader.current());
    r
}

/// The correctness gate: the engine's ρ, µ and labels equal a cold
/// `DpcPipeline` run over the surviving window. Returns the ARI of the two
/// labelings.
fn gate<I: UpdatableIndex>(
    engine: &StreamingDpc<I>,
    build: fn(&Dataset) -> I,
    out: &mut Outcome,
) -> f64 {
    let cold =
        match DpcPipeline::new(engine.params().dpc.clone()).run(&build(engine.index().dataset())) {
            Ok(cold) => cold,
            Err(e) => {
                out.check(false, || {
                    format!("cold pipeline over the window failed: {e}")
                });
                return 0.0;
            }
        };
    let same_rho = engine.rho().len() == cold.rho.len()
        && engine
            .rho()
            .iter()
            .zip(&cold.rho)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(same_rho, || "streamed rho differs from a cold run".into());
    out.check(engine.deltas().mu == cold.deltas.mu, || {
        "streamed mu differs from a cold run".into()
    });
    let labels = engine.clustering().labels();
    out.check(labels == cold.clustering.labels(), || {
        "streamed labels differ from a cold run".into()
    });
    adjusted_rand_index_labels(labels, cold.clustering.labels())
}
