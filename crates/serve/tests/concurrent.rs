//! Concurrency stress for the serving layer.
//!
//! One writer thread drives commit epochs while reader threads hammer the
//! snapshot chain. The assertions are the serving contract:
//!
//! * no reader ever observes a torn snapshot (every observed snapshot
//!   passes `check_consistency`, epochs advance monotonically per reader);
//! * subscription replay reproduces *exactly* the writer's sequence of
//!   [`ClusterDelta`]s when the ring is large enough, and degrades to a
//!   documented resync when it is not;
//! * attaching recorders changes observability output only — engine state
//!   stays bit-identical to a recorder-free run;
//! * single-threaded reads are bit-identical to the engine at the published
//!   epoch.
//!
//! The suite is written to pass under `--release` (CI runs it there);
//! counts are sized so it also finishes quickly in debug.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use dpc_core::{CenterSelection, Dataset, DpcParams, Point, UpdatableIndex};
use dpc_datasets::testsupport::{test_points, TestDistribution};
use dpc_obs::{Fanout, MetricsRecorder, SharedRecorder, TraceSink};
use dpc_serve::{Replay, Server};
use dpc_stream::{ClusterDelta, StreamParams, StreamingDpc};
use dpc_tree_index::GridIndex;

const DC: f64 = 60.0;

fn params() -> StreamParams {
    StreamParams::new(DC)
        .with_dpc(DpcParams::new(DC).with_centers(CenterSelection::TopKGamma { k: 3 }))
}

fn seeded_engine(seed: u64) -> StreamingDpc<GridIndex> {
    let dataset = Dataset::new(test_points(TestDistribution::Clustered, 120, seed));
    StreamingDpc::new(GridIndex::build(&dataset), params()).unwrap()
}

/// The stream of arriving batches the writer replays, fully deterministic.
fn arrivals(seed: u64, epochs: usize, batch: usize) -> Vec<Vec<Point>> {
    let points = test_points(TestDistribution::Clustered, epochs * batch, seed ^ 0xA11);
    points.chunks(batch).map(<[Point]>::to_vec).collect()
}

#[test]
fn readers_never_observe_torn_snapshots() {
    let epochs = 60;
    let mut server = Server::new(seeded_engine(7), 64);
    let readers: Vec<_> = (0..4).map(|_| server.reader()).collect();
    let stop = AtomicBool::new(false);
    // The writer starts only once every reader is in its loop, so a fast
    // writer cannot finish all its epochs before a reader has looked.
    let start = Barrier::new(readers.len() + 1);

    let (final_epoch, reader_epochs) = thread::scope(|s| {
        let (stop, start) = (&stop, &start);
        let writer = s.spawn(move || {
            start.wait();
            for batch in arrivals(7, epochs, 3) {
                // Slide the window: 3 in, 2 out per epoch.
                server.engine_mut().advance(&batch, 2).unwrap();
            }
            let final_epoch = server.engine().epoch();
            stop.store(true, Ordering::Release);
            final_epoch
        });
        let readers: Vec<_> = readers
            .into_iter()
            .map(|mut reader| {
                s.spawn(move || {
                    let mut last = reader.epoch();
                    let mut observed = 0u64;
                    start.wait();
                    // Each pass checks one snapshot before it reads `stop`.
                    loop {
                        let snap = reader.current();
                        snap.check_consistency();
                        assert!(
                            snap.epoch() >= last,
                            "reader regressed from epoch {last} to {}",
                            snap.epoch()
                        );
                        last = snap.epoch();
                        observed += 1;
                        // Mixed queries racing the writer. Answers may come
                        // from a newer epoch than `snap` (the query refreshes
                        // first), so assert self-consistency of each answer,
                        // not equality with the pinned snapshot.
                        if let Some(&h) = snap.handles().first() {
                            if let Some(centre) = reader.cluster_of(h) {
                                let now = reader.current();
                                // Centre handles always resolve in the epoch
                                // that produced them or a newer one where the
                                // cluster survives; at minimum the answer is a
                                // real handle, not garbage from a torn read. A
                                // centre is its own member, so it resolves.
                                assert!(
                                    now.cluster_of(centre).is_some() || now.epoch() > snap.epoch()
                                );
                            }
                        }
                        let hits = reader.eps_neighbors(Point::new(0.0, 0.0), DC).unwrap();
                        let mut sorted = hits.clone();
                        sorted.dedup();
                        assert_eq!(hits.len(), sorted.len(), "eps answer contains duplicates");
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    // Catch up to the writer's final state.
                    let snap = reader.current();
                    snap.check_consistency();
                    assert!(observed > 0);
                    snap.epoch()
                })
            })
            .collect();
        let final_epoch = writer.join().unwrap();
        let reader_epochs: Vec<u64> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        (final_epoch, reader_epochs)
    });

    assert_eq!(final_epoch, epochs as u64);
    for epoch in reader_epochs {
        assert_eq!(epoch, final_epoch, "a reader failed to catch up");
    }
}

#[test]
fn subscription_replays_the_exact_writer_delta_sequence() {
    let epochs = 40;
    // Ring comfortably larger than the epoch count: no resync possible.
    let mut server = Server::new(seeded_engine(11), 128);
    let mut subscriber = server.reader();
    let stop = AtomicBool::new(false);

    let (written, replayed) = thread::scope(|s| {
        let stop = &stop;
        let writer = s.spawn(move || {
            let mut written: Vec<ClusterDelta> = Vec::new();
            for batch in arrivals(11, epochs, 2) {
                let (_, delta) = server.engine_mut().advance(&batch, 1).unwrap();
                written.push(delta);
            }
            let final_epoch = server.engine().epoch();
            stop.store(true, Ordering::Release);
            (written, final_epoch)
        });
        let sub = s.spawn(move || {
            let mut seen = subscriber.epoch();
            let mut replayed: Vec<ClusterDelta> = Vec::new();
            loop {
                match subscriber.deltas_since(seen) {
                    Replay::Deltas(deltas) => {
                        for delta in deltas {
                            assert_eq!(delta.epoch, seen + 1, "replayed deltas must be contiguous");
                            seen = delta.epoch;
                            replayed.push(delta);
                        }
                    }
                    Replay::Resync(_) => {
                        panic!("an oversized ring must never force a resync")
                    }
                }
                if stop.load(Ordering::Acquire) && subscriber.current().epoch() == seen {
                    return replayed;
                }
            }
        });
        let (written, final_epoch) = writer.join().unwrap();
        let replayed = sub.join().unwrap();
        assert_eq!(final_epoch, epochs as u64);
        (written, replayed)
    });

    // Byte-for-byte the writer's own delta sequence, in order.
    assert_eq!(replayed, written);
}

#[test]
fn lagging_subscriber_gets_a_resync_when_the_ring_wraps() {
    // Tiny ring: only the last 2 deltas survive.
    let mut server = Server::new(seeded_engine(13), 2);
    let mut reader = server.reader();
    let mut written = Vec::new();
    for batch in arrivals(13, 6, 2) {
        let (_, delta) = server.engine_mut().advance(&batch, 1).unwrap();
        written.push(delta);
    }

    // From epoch 0 the range 1..=6 is no longer in the ring: resync.
    let replay = reader.deltas_since(0);
    let snapshot = match replay {
        Replay::Resync(snapshot) => snapshot,
        Replay::Deltas(_) => panic!("a wrapped ring must force a resync"),
    };
    assert_eq!(snapshot.epoch(), 6);
    snapshot.check_consistency();
    assert_eq!(server.cell().ring_evictions(), 4);

    // From the resync point the subscriber is up to date...
    assert!(matches!(
        reader.deltas_since(snapshot.epoch()),
        Replay::Deltas(ref d) if d.is_empty()
    ));
    // ...and a subscriber only just behind still replays incrementally.
    match reader.deltas_since(4) {
        Replay::Deltas(deltas) => assert_eq!(deltas, written[4..]),
        Replay::Resync(_) => panic!("the last two epochs are still in the ring"),
    }
}

#[test]
fn recorders_change_observability_not_state() {
    let run = |recorder: Option<SharedRecorder>| {
        let mut engine = seeded_engine(17);
        if let Some(rec) = recorder {
            engine.set_recorder(rec);
        }
        let mut server = Server::new(engine, 32);
        let mut reader = server.reader();
        let mut lookups = Vec::new();
        for batch in arrivals(17, 20, 2) {
            server.engine_mut().advance(&batch, 1).unwrap();
            let epoch = reader.current().epoch();
            let h = reader.current().handle_at(0);
            lookups.push((epoch, reader.cluster_of(h)));
        }
        let engine = server.into_engine();
        (
            engine.epoch(),
            engine.rho().to_vec(),
            engine.deltas().clone(),
            engine.clustering().clone(),
            lookups,
        )
    };

    let metrics = Arc::new(MetricsRecorder::new());
    let trace = Arc::new(TraceSink::new());
    let fanout: SharedRecorder = Arc::new(
        Fanout::new()
            .with(metrics.clone() as SharedRecorder)
            .with(trace.clone() as SharedRecorder),
    );
    let silent = run(None);
    let observed = run(Some(fanout));
    assert_eq!(silent, observed, "recorders must not perturb engine state");

    // And the recorder actually saw the serving layer work.
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serve.published"), Some(20));
    assert!(snap.histogram("serve.query.lookup_us").is_some());
}

#[test]
fn single_threaded_reads_are_bit_identical_to_the_engine() {
    let mut server = Server::new(seeded_engine(23), 32);
    let mut reader = server.reader();
    for batch in arrivals(23, 10, 3) {
        server.engine_mut().advance(&batch, 2).unwrap();

        let snap = reader.current();
        assert_eq!(snap.epoch(), server.engine().epoch());
        assert_eq!(snap.version(), server.engine().version());
        let engine = server.engine();
        assert_eq!(snap.rho(), engine.rho());
        assert_eq!(snap.deltas(), engine.deltas());
        assert_eq!(snap.clustering(), engine.clustering());

        // Point lookups resolve through the engine's own labels.
        for p in 0..engine.len() {
            let h = engine.handle_at(p);
            let label = engine.clustering().label(p);
            let centre = engine.clustering().centers()[label];
            assert_eq!(reader.cluster_of(h), Some(engine.handle_at(centre)));
        }

        // ε-queries match the live index at the published epoch.
        for (center, eps) in [(Point::new(0.0, 0.0), DC), (Point::new(100.0, -50.0), 25.0)] {
            let expected: Vec<_> = engine
                .index()
                .eps_neighbors(center, eps)
                .unwrap()
                .into_iter()
                .map(|id| engine.handle_at(id))
                .collect();
            assert_eq!(reader.eps_neighbors(center, eps).unwrap(), expected);
        }
    }
}
