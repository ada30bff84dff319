//! The serving-layer benchmark behind `BENCH_serve.json`: reader latency
//! percentiles vs writer epoch throughput.
//!
//! One writer drives a [`StreamingDpc`] over a sliding check-in window at a
//! fixed epoch cadence while `readers` threads issue a deterministic mix of
//! the three serving query families — point lookup, ε-neighbourhood, and
//! delta subscription — against the published epoch snapshots
//! ([`dpc_serve::Server`]). Each sweep row holds one reader count, so the
//! report answers the serving layer's two headline questions:
//!
//! * does reader concurrency degrade writer epoch throughput? (it must not:
//!   the read path takes no lock the writer contends on); and
//! * what do reader p50/p99 latencies look like while the writer is
//!   committing at full speed?
//!
//! The committed `BENCH_serve.json` under `target/experiments/` is produced
//! by the `bench_serve` binary; CI runs a tiny smoke invocation so the
//! benchmark cannot rot.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dpc_core::{CenterSelection, Dataset, DpcParams};
use dpc_datasets::generators::{checkins, CheckinConfig};
use dpc_datasets::SplitMix64;
use dpc_obs::Histogram;
use dpc_serve::{Replay, Server};
use dpc_stream::{StreamParams, StreamingDpc};
use dpc_tree_index::GridIndex;

/// Sweep configuration for the serving benchmark.
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Sliding-window size the writer maintains.
    pub window: usize,
    /// Points per epoch (one `advance` slides `batch` in, `batch` out).
    pub batch: usize,
    /// Number of epochs the writer commits per sweep row.
    pub epochs: usize,
    /// Reader-thread counts to sweep (0 measures the writer alone).
    pub reader_counts: Vec<usize>,
    /// Subscription delta-ring capacity.
    pub ring: usize,
    /// Cut-off distance for the engine and the readers' ε-queries.
    pub dc: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            window: 2_000,
            batch: 50,
            epochs: 100,
            reader_counts: vec![0, 1, 2, 4],
            ring: 64,
            dc: 0.5,
            seed: 42,
        }
    }
}

/// One sweep row: the writer's throughput and the merged reader tallies at
/// one reader count.
#[derive(Debug)]
pub struct ServeMeasurement {
    /// Concurrent reader threads during this row.
    pub readers: usize,
    /// Epochs the writer committed.
    pub epochs: usize,
    /// Wall-clock time of the writer's replay loop.
    pub total: Duration,
    /// Writer throughput in epochs per second.
    pub epochs_per_sec: f64,
    /// Total queries answered across all readers and families.
    pub queries: u64,
    /// Subscription resyncs (ring wrapped under the readers).
    pub resyncs: u64,
    /// Point-lookup latency distribution (µs).
    pub lookup: Histogram,
    /// ε-neighbourhood latency distribution (µs).
    pub eps: Histogram,
    /// Subscription-poll latency distribution (µs).
    pub sub: Histogram,
}

/// The full sweep.
#[derive(Debug)]
pub struct ServeBenchReport {
    /// The options the sweep ran with.
    pub options: ServeBenchOptions,
    /// Logical CPUs on the measuring machine.
    pub cpus: usize,
    /// One row per reader count, in sweep order.
    pub measurements: Vec<ServeMeasurement>,
}

/// Runs the sweep: one serving replay per reader count, same data and
/// engine configuration throughout.
pub fn run(options: &ServeBenchOptions) -> ServeBenchReport {
    assert!(options.window > 0, "need a positive window");
    assert!(
        options.batch > 0 && options.batch <= options.window,
        "epoch batch must be positive and fit in the window"
    );
    assert!(options.epochs > 0, "need at least one epoch");
    assert!(options.ring > 0, "need a positive ring capacity");
    assert!(
        !options.reader_counts.is_empty(),
        "need at least one reader count"
    );
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let total_points = options.window + options.epochs * options.batch;
    let data = checkins(total_points, &CheckinConfig::gowalla(), options.seed).into_dataset();
    let measurements = options
        .reader_counts
        .iter()
        .map(|&readers| measure(options, readers, &data))
        .collect();
    ServeBenchReport {
        options: options.clone(),
        cpus,
        measurements,
    }
}

/// Per-reader-thread tallies, merged at join.
#[derive(Default)]
struct ReaderTally {
    queries: u64,
    resyncs: u64,
    lookup: Histogram,
    eps: Histogram,
    sub: Histogram,
}

fn measure(options: &ServeBenchOptions, readers: usize, data: &Dataset) -> ServeMeasurement {
    let points = data.points();
    let seed_window = Dataset::new(points[..options.window].to_vec());
    let arriving = &points[options.window..];
    let params = StreamParams::new(options.dc).with_dpc(
        DpcParams::new(options.dc).with_centers(CenterSelection::GammaGap { max_centers: 64 }),
    );
    let engine = StreamingDpc::new(GridIndex::build(&seed_window), params)
        .expect("seeding the streaming engine must succeed");
    let mut server = Server::new(engine, options.ring);
    let reader_handles: Vec<_> = (0..readers).map(|_| server.reader()).collect();

    let stop = AtomicBool::new(false);
    let eps = options.dc;
    let (total, tallies) = std::thread::scope(|s| {
        let stop = &stop;
        let workers: Vec<_> = reader_handles
            .into_iter()
            .enumerate()
            .map(|(i, mut reader)| {
                s.spawn(move || {
                    let mut rng =
                        SplitMix64::new(0xBE4C_4E21 ^ (i as u64).wrapping_mul(0x9E37_79B9));
                    let mut tally = ReaderTally::default();
                    let mut seen = reader.epoch();
                    // At least one query each, even when the writer finishes
                    // before this thread is first scheduled.
                    while tally.queries == 0 || !stop.load(Ordering::Acquire) {
                        match rng.next_u64() % 3 {
                            0 => {
                                let snap = reader.current();
                                if snap.is_empty() {
                                    continue;
                                }
                                let h = snap.handle_at(rng.uniform_usize(snap.len()));
                                let start = Instant::now();
                                let _ = reader.cluster_of(h);
                                tally.lookup.record(start.elapsed().as_micros() as u64);
                            }
                            1 => {
                                let c = points[rng.uniform_usize(points.len())];
                                let start = Instant::now();
                                let _ = reader.eps_neighbors(c, eps);
                                tally.eps.record(start.elapsed().as_micros() as u64);
                            }
                            _ => {
                                let start = Instant::now();
                                match reader.deltas_since(seen) {
                                    Replay::Deltas(deltas) => {
                                        if let Some(last) = deltas.last() {
                                            seen = last.epoch;
                                        }
                                    }
                                    Replay::Resync(snapshot) => {
                                        seen = snapshot.epoch();
                                        tally.resyncs += 1;
                                    }
                                }
                                tally.sub.record(start.elapsed().as_micros() as u64);
                            }
                        }
                        tally.queries += 1;
                    }
                    tally
                })
            })
            .collect();

        let timer = dpc_obs::Timer::start();
        for chunk in arriving.chunks(options.batch) {
            server
                .engine_mut()
                .advance(chunk, chunk.len())
                .expect("streaming update must succeed");
        }
        let total = timer.elapsed();
        stop.store(true, Ordering::Release);
        let tallies: Vec<ReaderTally> = workers
            .into_iter()
            .map(|w| w.join().expect("reader thread panicked"))
            .collect();
        (total, tallies)
    });

    let mut row = ServeMeasurement {
        readers,
        epochs: options.epochs,
        total,
        epochs_per_sec: options.epochs as f64 / total.as_secs_f64().max(1e-9),
        queries: 0,
        resyncs: 0,
        lookup: Histogram::new(),
        eps: Histogram::new(),
        sub: Histogram::new(),
    };
    for tally in tallies {
        row.queries += tally.queries;
        row.resyncs += tally.resyncs;
        row.lookup.merge(&tally.lookup);
        row.eps.merge(&tally.eps);
        row.sub.merge(&tally.sub);
    }
    row
}

fn quantile(h: &Histogram, q: f64) -> u64 {
    h.value_at_quantile(q).unwrap_or(0)
}

impl ServeBenchReport {
    /// Serialises the report as a JSON snapshot (`BENCH_serve.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"options\": {{\"window\": {}, \"batch\": {}, \"epochs\": {}, \
             \"ring\": {}, \"dc\": {}, \"seed\": {}}},\n  \"cpus\": {},\n  \"rows\": [\n",
            self.options.window,
            self.options.batch,
            self.options.epochs,
            self.options.ring,
            self.options.dc,
            self.options.seed,
            self.cpus
        );
        for (i, m) in self.measurements.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"readers\": {}, \"epochs\": {}, \"elapsed_ms\": {:.3}, \
                 \"epochs_per_sec\": {:.1}, \"queries\": {}, \"resyncs\": {}, \
                 \"lookup_p50_us\": {}, \"lookup_p99_us\": {}, \
                 \"eps_p50_us\": {}, \"eps_p99_us\": {}, \
                 \"sub_p50_us\": {}, \"sub_p99_us\": {}}}{}",
                m.readers,
                m.epochs,
                m.total.as_secs_f64() * 1e3,
                m.epochs_per_sec,
                m.queries,
                m.resyncs,
                quantile(&m.lookup, 0.5),
                quantile(&m.lookup, 0.99),
                quantile(&m.eps, 0.5),
                quantile(&m.eps, 0.99),
                quantile(&m.sub, 0.5),
                quantile(&m.sub, 0.99),
                if i + 1 < self.measurements.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the sweep as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "serve throughput: window {}, batch {}, {} epochs, ring {}, dc {}, {} cpus\n\
             {:>7} {:>12} {:>10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            self.options.window,
            self.options.batch,
            self.options.epochs,
            self.options.ring,
            self.options.dc,
            self.cpus,
            "readers",
            "epochs/s",
            "queries",
            "resyncs",
            "look p50",
            "look p99",
            "eps p50",
            "eps p99",
            "sub p50",
            "sub p99",
        );
        for m in &self.measurements {
            let _ = writeln!(
                out,
                "{:>7} {:>12.1} {:>10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                m.readers,
                m.epochs_per_sec,
                m.queries,
                m.resyncs,
                quantile(&m.lookup, 0.5),
                quantile(&m.lookup, 0.99),
                quantile(&m.eps, 0.5),
                quantile(&m.eps, 0.99),
                quantile(&m.sub, 0.5),
                quantile(&m.sub, 0.99),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_a_row_per_reader_count() {
        let options = ServeBenchOptions {
            window: 120,
            batch: 20,
            epochs: 5,
            reader_counts: vec![0, 2],
            ring: 8,
            dc: 0.5,
            seed: 7,
        };
        let report = run(&options);
        assert_eq!(report.measurements.len(), 2);
        assert_eq!(report.measurements[0].readers, 0);
        assert_eq!(report.measurements[0].queries, 0);
        assert_eq!(report.measurements[1].readers, 2);
        assert!(report.measurements[1].queries > 0);
        for m in &report.measurements {
            assert_eq!(m.epochs, 5);
            assert!(m.epochs_per_sec > 0.0);
        }
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"readers\": 2"));
        assert!(report.render().contains("epochs/s"));
    }
}
