//! Observability must be a pure side channel: attaching any recorder to a
//! [`StreamingDpc`] engine must never change `(ρ, δ, µ, labels)` — they stay
//! bit-identical to the default no-op run — and the default recorder must
//! actually be the shared no-op (the zero-overhead path).
//!
//! The proptest replays a random insert/evict sequence on two engines fed
//! the identical operations — one untouched (no-op recorder), one with a
//! metrics registry *and* a trace sink fanned out — and compares the full
//! state after every epoch. A structural test then pins down what the trace
//! contains: per-epoch spans with the phase spans nested inside, inside
//! each δ repair the sub-spans that say which branch the epoch took, and
//! inside each recluster its select, assign and diff steps.

use std::sync::Arc;

use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{Dataset, DpcIndex, DpcPipeline, Point, UpdatableIndex};
use dpc_datasets::generators::{checkins, CheckinConfig};
use dpc_datasets::testsupport::lattice_point;
use dpc_obs::{Fanout, MetricsRecorder, SharedRecorder, TraceEvent, TraceSink};
use dpc_stream::{EpochMode, StreamParams, StreamingDpc};
use dpc_tree_index::{KdTree, KdTreeConfig};
use proptest::prelude::*;

fn small_kdtree(points: Vec<Point>) -> KdTree {
    KdTree::with_config(
        &dpc_core::Dataset::new(points),
        &KdTreeConfig {
            leaf_capacity: 4,
            ..KdTreeConfig::default()
        },
    )
}

fn engine_with(seed: &[Point], recorder: Option<SharedRecorder>) -> StreamingDpc<KdTree> {
    let mut engine = StreamingDpc::new(small_kdtree(seed.to_vec()), StreamParams::new(1.5))
        .expect("seeding must succeed");
    if let Some(rec) = recorder {
        engine.set_recorder(rec);
    }
    engine
}

/// Replays `ops` (insert when true, else evict-oldest) on `engine`.
fn replay(engine: &mut StreamingDpc<KdTree>, ops: &[(bool, u32, u32)]) {
    for &(insert, ix, iy) in ops {
        if insert || engine.is_empty() {
            engine
                .insert(lattice_point(ix, iy))
                .expect("insert must succeed");
        } else {
            let oldest = engine.oldest().expect("non-empty window has an oldest");
            engine.remove(oldest).expect("remove must succeed");
        }
    }
}

/// The full comparable state of an engine.
fn state_of(engine: &StreamingDpc<KdTree>) -> (Vec<f64>, Vec<f64>, Vec<Option<usize>>, Vec<usize>) {
    (
        engine.rho().to_vec(),
        engine.deltas().delta.clone(),
        engine.deltas().mu.clone(),
        engine.clustering().labels().to_vec(),
    )
}

#[test]
fn default_recorder_is_the_shared_noop() {
    let engine = engine_with(&[lattice_point(0, 0), lattice_point(5, 5)], None);
    assert!(
        !engine.recorder().enabled(),
        "the default recorder must be disabled"
    );
    assert!(
        Arc::ptr_eq(engine.recorder(), &dpc_obs::noop()),
        "the default recorder must be the shared no-op instance"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-identical ρ/δ/µ/labels with and without recording after every
    /// single epoch, and each epoch counted under exactly one mode.
    #[test]
    fn recording_never_changes_results(
        seed in prop::collection::vec((0u32..8, 0u32..8), 2..12),
        ops in prop::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 1..20),
    ) {
        let seed_points: Vec<Point> =
            seed.iter().map(|&(x, y)| lattice_point(x, y)).collect();

        let metrics = Arc::new(MetricsRecorder::new());
        let trace = Arc::new(TraceSink::new());
        let fanout: SharedRecorder = Arc::new(
            Fanout::new()
                .with(metrics.clone() as SharedRecorder)
                .with(trace.clone() as SharedRecorder),
        );

        let mut plain = engine_with(&seed_points, None);
        let mut recorded = engine_with(&seed_points, Some(fanout));

        for &(insert, ix, iy) in &ops {
            let before = recorded.stats();
            replay(&mut plain, &[(insert, ix, iy)]);
            replay(&mut recorded, &[(insert, ix, iy)]);
            prop_assert_eq!(
                state_of(&plain),
                state_of(&recorded),
                "state diverged after an epoch"
            );
            let after = recorded.stats();
            let advanced = (
                after.incremental_epochs - before.incremental_epochs,
                after.fallback_epochs - before.fallback_epochs,
            );
            let expected_mode = match advanced {
                (1, 0) => EpochMode::Incremental,
                (0, 1) => EpochMode::Fallback,
                other => panic!("exactly one mode counter must advance, got {other:?}"),
            };
            prop_assert_eq!(after.last_epoch_mode, Some(expected_mode));
            prop_assert_eq!(plain.stats().last_epoch_mode, Some(expected_mode));
        }
        prop_assert_eq!(plain.epoch(), recorded.epoch());

        // The recorded run must actually have recorded something.
        let snap = metrics.snapshot();
        prop_assert_eq!(snap.counter("stream.epochs"), Some(ops.len() as u64));
        prop_assert!(trace.events().iter().any(|e| e.name == "stream.epoch"));
    }
}

#[test]
fn trace_nests_phase_spans_and_delta_repair_sub_spans() {
    let seed: Vec<Point> = (0..10).map(|i| lattice_point(i % 4, i / 4)).collect();
    let trace = Arc::new(TraceSink::new());
    let mut engine = engine_with(&seed, Some(trace.clone()));

    let ops: Vec<(bool, u32, u32)> = (0..12).map(|i| (i % 3 != 0, i % 5, i % 7)).collect();
    replay(&mut engine, &ops);

    let events = trace.events();
    let epochs: Vec<_> = events
        .iter()
        .filter(|e| e.ph == 'X' && e.name == "stream.epoch")
        .collect();
    assert_eq!(
        epochs.len(),
        ops.len(),
        "one epoch span per committed epoch"
    );

    // Every phase span must be contained in some epoch span.
    for phase in events
        .iter()
        .filter(|e| e.ph == 'X' && e.name.starts_with("stream.phase."))
    {
        let (ts, dur) = (phase.ts_us, phase.dur_us.expect("complete event"));
        assert!(
            epochs
                .iter()
                .any(|ep| ep.ts_us <= ts && ts + dur <= ep.ts_us + ep.dur_us.unwrap()),
            "phase span {} at {ts} must nest inside an epoch span",
            phase.name
        );
    }
    // Each epoch has a validate and a recluster phase at minimum.
    assert!(
        events
            .iter()
            .filter(|e| e.name == "stream.phase.validate")
            .count()
            >= ops.len()
    );
    assert!(
        events
            .iter()
            .filter(|e| e.name == "stream.phase.recluster")
            .count()
            >= ops.len()
    );

    // Every epoch's δ repair contains the invalidation step plus exactly
    // one of its two branches: the full re-rank or the targeted repair.
    // Spans are emitted as they close, so each `stream.phase.delta_repair`
    // follows the `stream.delta.*` spans of its own epoch.
    let mut repairs = 0;
    let mut inner: Vec<&TraceEvent> = Vec::new();
    for e in events.iter().filter(|e| e.ph == 'X') {
        if e.name.starts_with("stream.delta.") {
            inner.push(e);
        } else if e.name == "stream.phase.delta_repair" {
            let end = e.ts_us + e.dur_us.unwrap();
            for child in &inner {
                assert!(
                    e.ts_us <= child.ts_us && child.ts_us + child.dur_us.unwrap() <= end,
                    "{} at {} must nest inside the δ repair",
                    child.name,
                    child.ts_us
                );
            }
            let has = |name: &str| inner.iter().any(|c| c.name == name);
            assert!(
                has("stream.delta.invalidate"),
                "repair {repairs}: no invalidate"
            );
            assert!(
                has("stream.delta.rerank") != has("stream.delta.targets"),
                "repair {repairs}: exactly one of rerank/targets expected"
            );
            inner.clear();
            repairs += 1;
        }
    }
    assert_eq!(repairs, ops.len(), "one δ repair per committed epoch");
    assert_recluster_sub_spans(&events, ops.len());

    // The export is well-formed Chrome trace JSON at the structural level.
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// Every `stream.phase.recluster` span holds exactly one
/// `stream.recluster.select`, `.assign` and `.diff` span, nested inside it,
/// and there are `expected` recluster spans. Spans are emitted as they
/// close, so each recluster span follows the sub-spans of its own epoch.
fn assert_recluster_sub_spans(events: &[TraceEvent], expected: usize) {
    let mut reclusters = 0;
    let mut inner: Vec<&TraceEvent> = Vec::new();
    for e in events.iter().filter(|e| e.ph == 'X') {
        if e.name.starts_with("stream.recluster.") {
            inner.push(e);
        } else if e.name == "stream.phase.recluster" {
            let end = e.ts_us + e.dur_us.unwrap();
            for child in &inner {
                assert!(
                    e.ts_us <= child.ts_us && child.ts_us + child.dur_us.unwrap() <= end,
                    "{} at {} must nest inside the recluster",
                    child.name,
                    child.ts_us
                );
            }
            let mut names: Vec<&str> = inner.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            assert_eq!(
                names,
                [
                    "stream.recluster.assign",
                    "stream.recluster.diff",
                    "stream.recluster.select"
                ],
                "recluster {reclusters}"
            );
            inner.clear();
            reclusters += 1;
        }
    }
    assert!(inner.is_empty(), "recluster sub-spans outside a recluster");
    assert_eq!(reclusters, expected, "one recluster per epoch");
}

/// A decay tick reclusters under the same three sub-spans as a committed
/// epoch.
#[test]
fn decay_ticks_trace_the_recluster_sub_spans() {
    let seed: Vec<Point> = (0..10).map(|i| lattice_point(i % 4, i / 4)).collect();
    let trace = Arc::new(TraceSink::new());
    let mut engine =
        StreamingDpc::new(small_kdtree(seed), StreamParams::new(1.5).with_decay(0.9)).unwrap();
    engine.set_recorder(trace.clone() as SharedRecorder);
    engine.tick().unwrap();
    engine.insert(lattice_point(1, 1)).unwrap();
    engine.tick().unwrap();
    assert_eq!(engine.stats().decay_epochs, 2);
    assert_recluster_sub_spans(&trace.events(), 3);
}

#[test]
fn maintenance_counters_surface_as_gauges() {
    let seed: Vec<Point> = (0..8).map(|i| lattice_point(i, i)).collect();
    let metrics = Arc::new(MetricsRecorder::new());
    let mut engine = engine_with(&seed, Some(metrics.clone() as SharedRecorder));
    let ops: Vec<(bool, u32, u32)> = (0..30).map(|i| (i % 2 == 0, i % 6, (i * 3) % 6)).collect();
    replay(&mut engine, &ops);

    let snap = metrics.snapshot();
    // Every maintenance counter the index reports must be visible as an
    // `index.kdtree.<counter>` gauge with the index's current value.
    for (name, value) in engine.index().maintenance_counters() {
        assert_eq!(
            snap.gauge(&format!("index.kdtree.{name}")),
            Some(value as f64),
            "gauge for maintenance counter {name}"
        );
    }
    assert_eq!(snap.counter("stream.epochs"), Some(ops.len() as u64));
    assert!(snap.histogram("stream.epoch.maintenance_us").is_some());
    assert!(snap.histogram("stream.phase.validate_us").is_some());
}

/// The engine's δ/µ queries run the index's pruned search and say so in the
/// recorder: on a k-d tree over 2 000 Gowalla-like check-ins, a full re-rank
/// and the repair of an invalidation set F must each scan a small fraction
/// of what a brute-force scan would. The bounds count points, not
/// microseconds, so they hold on any machine; a repair that fell back to the
/// brute-force kernel would publish no `query.delta.*` counters at all. The
/// `stream.delta.*` spans show which path each epoch took, the
/// `stream.invalidated.*` counters account for every member of F, and on a
/// one-point and a 64-point epoch alike the fold's cell filter passes a
/// small share of the (point, candidate) pairs.
#[test]
fn kdtree_delta_repair_scans_a_fraction_of_the_window() {
    let n = 2_000;
    let dc = 0.1;
    let data = checkins(n + 2, &CheckinConfig::gowalla(), 11).into_dataset();
    let (seed, arrivals) = data.points().split_at(n);
    let run_epoch = |params: StreamParams, arrivals: &[Point]| {
        let metrics = Arc::new(MetricsRecorder::new());
        let mut engine =
            StreamingDpc::new(KdTree::build(&Dataset::new(seed.to_vec())), params).unwrap();
        engine.set_recorder(metrics.clone() as SharedRecorder);
        engine.advance(arrivals, arrivals.len()).unwrap();
        assert_matches_cold_pipeline(&engine);
        (engine.stats(), metrics.snapshot())
    };
    let scanned = |snap: &dpc_obs::MetricsSnapshot| {
        snap.counter("query.delta.points_scanned")
            .expect("the δ query must publish its traversal counters")
    };
    let pairs = (n * (n - 1)) as u64;

    // Forced fallback: one re-rank of every point through the batch query.
    let (stats, snap) = run_epoch(
        StreamParams::new(dc).with_max_affected_fraction(0.0),
        &arrivals[..1],
    );
    assert_eq!(stats.fallback_epochs, 1);
    assert!(snap.histogram("stream.delta.rerank_us").is_some());
    assert!(snap.histogram("stream.delta.targets_us").is_none());
    let rerank = scanned(&snap);
    assert!(
        rerank < pairs / 10,
        "re-rank scanned {rerank} points, brute force is {pairs}"
    );

    // One-point incremental epoch: only F goes through the hook.
    let (stats, snap) = run_epoch(StreamParams::new(dc), &arrivals[1..]);
    assert_eq!(stats.incremental_epochs, 1);
    let invalidated = snap
        .histogram("stream.invalidated")
        .expect("|F| is recorded every epoch")
        .sum();
    let repair = scanned(&snap);
    assert!(invalidated > 0);
    for span in ["invalidate", "fold", "targets"] {
        let name = format!("stream.delta.{span}_us");
        assert!(snap.histogram(&name).is_some(), "{name} missing");
    }
    assert!(snap.histogram("stream.delta.rerank_us").is_none());
    // The invalidation causes count before dedup, so they cover |F|.
    let causes: u64 = snap
        .counters()
        .filter(|(name, _)| name.starts_with("stream.invalidated."))
        .map(|(_, count)| count)
        .sum();
    assert!(causes >= invalidated, "causes {causes} < |F| {invalidated}");
    assert_eq!(snap.counter("stream.invalidated.inserted"), Some(1));
    assert!(
        repair < invalidated * (n as u64 - 1) / 4,
        "repairing |F| = {invalidated} scanned {repair} points"
    );

    // The fold's counters split U into the members whose ρ rose
    // (candidates) and the rest; of those only the members whose ρ fell are
    // in F. The cell filter passes a point only the candidates near its
    // δ-disk.
    let fold = |snap: &dpc_obs::MetricsSnapshot, name: &str| {
        snap.counter(&format!("stream.fold.{name}")).unwrap_or(0)
    };
    let filter_share = |snap: &dpc_obs::MetricsSnapshot, invalidated: u64| {
        let candidates: u64 = ["entrants.inserted", "entrants.renamed", "entrants.risen"]
            .iter()
            .map(|name| fold(snap, name))
            .sum();
        (fold(snap, "pairs"), (n as u64 - invalidated) * candidates)
    };
    let risen = fold(&snap, "entrants.risen");
    assert_eq!(fold(&snap, "entrants.inserted"), 1);
    assert!(risen > 0, "the arrival must raise some ρ");
    let union = snap
        .histogram("stream.affected_union")
        .expect("|U| is recorded every epoch")
        .sum();
    assert_eq!(risen + fold(&snap, "unrisen"), union);
    assert!(snap.counter("stream.invalidated.rho_fell").unwrap() <= fold(&snap, "unrisen"));
    let (filtered, unfiltered) = filter_share(&snap, invalidated);
    assert!(
        filtered < unfiltered / 20,
        "{filtered} pairs passed the cell filter of {unfiltered} (point, candidate) pairs"
    );

    // A 64-point epoch: 64 arrivals beside window points, the 64 oldest
    // expire. It stays incremental, and the filter bound holds.
    let batch: Vec<Point> = seed
        .iter()
        .step_by(31)
        .take(64)
        .map(|p| Point::new(p.x + 1e-3, p.y - 1e-3))
        .collect();
    let (stats, snap) = run_epoch(StreamParams::new(dc), &batch);
    assert_eq!(stats.incremental_epochs, 1);
    let invalidated = snap.histogram("stream.invalidated").unwrap().sum();
    let (filtered, unfiltered) = filter_share(&snap, invalidated);
    assert!(
        filtered < unfiltered / 20,
        "{filtered} pairs passed the cell filter of {unfiltered} (point, candidate) pairs"
    );
}

/// The µ-forest keeps a one-point epoch's invalidation and relabel local: in
/// a 2 000-point window the invalidation examines the µ links of U, of
/// their children and of the renamed points, under a tenth of the window,
/// and the relabel rewrites the arrival's label and few others.
#[test]
fn a_one_point_epoch_examines_a_fraction_of_the_forest() {
    let n = 2_000;
    let data = checkins(n + 1, &CheckinConfig::gowalla(), 11).into_dataset();
    let (seed, arrival) = data.points().split_at(n);
    let metrics = Arc::new(MetricsRecorder::new());
    let mut engine = StreamingDpc::new(
        KdTree::build(&Dataset::new(seed.to_vec())),
        StreamParams::new(0.1),
    )
    .unwrap();
    engine.set_recorder(metrics.clone() as SharedRecorder);
    engine.advance(arrival, 1).unwrap();
    assert_eq!(engine.stats().incremental_epochs, 1);
    assert_matches_cold_pipeline(&engine);
    let snap = metrics.snapshot();
    let visited = snap
        .counter("stream.invalidate.visited")
        .expect("the invalidation counts the links it examined");
    let union = snap.histogram("stream.affected_union").unwrap().sum();
    assert!(visited >= union, "{visited} links for |U| = {union}");
    assert!(
        visited < n as u64 / 10,
        "the invalidation examined {visited} links in a window of {n}"
    );
    let relabelled = snap
        .counter("stream.recluster.relabelled")
        .expect("the relabel counts the labels it rewrote");
    assert!(
        (1..n as u64 / 10).contains(&relabelled),
        "{relabelled} labels rewritten"
    );
}

/// The engine's ρ, δ, µ, centres and labels equal a cold batch run of the
/// naive reference over its window, bit for bit.
fn assert_matches_cold_pipeline(engine: &StreamingDpc<KdTree>) {
    let cold = DpcPipeline::new(engine.params().dpc.clone())
        .run(&NaiveReferenceIndex::build(engine.index().dataset()))
        .unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(engine.rho()), bits(&cold.rho));
    assert_eq!(bits(&engine.deltas().delta), bits(&cold.deltas.delta));
    assert_eq!(engine.deltas().mu, cold.deltas.mu);
    assert_eq!(engine.clustering().centers(), cold.clustering.centers());
    assert_eq!(engine.clustering().labels(), cold.clustering.labels());
}
