//! The correctness anchor of the streaming engine: after **every** prefix of
//! a random insert/delete sequence, the incremental state `(ρ, δ, µ, labels,
//! centres)` must be **bit-identical** to a cold batch run (fresh index of
//! the same kind + full pipeline) over the surviving points — for every
//! [`UpdatableIndex`] implementation, at threads 1 and 4, on both the
//! incremental path and the full-recompute fallback.
//!
//! ## The generic harness
//!
//! [`check_equivalence`] replays one operation sequence against one index
//! family; the [`for_each_updatable_index!`] macro instantiates a check for
//! every family in the registry, so adding an index to the whole suite is
//! one line in the macro. Besides the state comparison, the harness asserts
//! after every single step that
//!
//! * the index's own structural invariants hold
//!   ([`UpdatableIndex::check_invariants`] — bbox containment, subtree
//!   counts, id bookkeeping), so a rebuild bug fails loudly at the step that
//!   corrupted the structure rather than as a distant label diff, and
//! * the index's ε-query agrees with a brute-force scan of its dataset at
//!   the mutated location — a deleted point that a tombstone keeps visible
//!   (or a live point a stale box hides) fails here immediately.
//!
//! Random points come from a coarse integer lattice
//! ([`dpc_datasets::testsupport::lattice_point`]) so that coincident points
//! and exact ρ/δ/γ ties — the cases where only a consistent tie-break rule
//! keeps incremental and batch in agreement — occur constantly rather than
//! never. The adversarial scenarios (deletion-heavy, drift-heavy) instead
//! draw from the shared clustered/skewed distributions and additionally
//! assert that the trees' amortised rebuild triggers actually fire
//! ([`UpdatableIndex::maintenance_counters`]).

use std::sync::Arc;

use dpc_core::brute::eps_neighbors_scan;
use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{CenterSelection, Dataset, DpcIndex, DpcParams, DpcPipeline, Point, UpdatableIndex};
use dpc_datasets::rng::SplitMix64;
use dpc_datasets::testsupport::{
    lattice_point, test_points, ulp_adversarial_points, TestDistribution,
};
use dpc_obs::MetricsRecorder;
use dpc_stream::{EpochPlan, Handle, StreamParams, StreamingDpc};
use dpc_tree_index::{GridConfig, GridIndex, KdTree, KdTreeConfig};
use proptest::prelude::*;

/// One streamed operation. `insert` chooses between inserting `point` and
/// evicting the live handle selected by `sel` (an eviction on an empty
/// window becomes the insert, so every prefix is executable).
#[derive(Debug, Clone, Copy)]
struct Op {
    insert: bool,
    point: Point,
    sel: u64,
}

/// The raw proptest encoding of an [`Op`] on the coarse lattice.
type RawOp = (bool, u32, u32, u64);

fn lattice_ops(raw: &[RawOp]) -> Vec<Op> {
    raw.iter()
        .map(|&(insert, ix, iy, sel)| Op {
            insert,
            point: lattice_point(ix, iy),
            sel,
        })
        .collect()
}

fn lattice_seed(seed: &[(u32, u32)]) -> Vec<Point> {
    seed.iter().map(|&(x, y)| lattice_point(x, y)).collect()
}

fn seed_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..10, 0u32..10), 0..16)
}

fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((any::<bool>(), 0u32..10, 0u32..10, 0u64..10_000), 1..18)
}

/// Small-leaf builder for the k-d tree: the lattice windows hold a few
/// dozen points, and a default 32-point leaf would hold most of them whole
/// — this config makes the suite exercise real tree structure (splits,
/// rebuilds) at window sizes the batch replay can afford.
fn kd_build(data: &Dataset) -> KdTree {
    KdTree::with_config(
        data,
        &KdTreeConfig {
            leaf_capacity: 3,
            ..Default::default()
        },
    )
}

/// Drift-sensitive grid builder: a one-point cell target and a low
/// re-bucket skew threshold, so the few consecutive drift points that land
/// in the same frozen cell already count as pathological occupancy. This is
/// the regression gate for the frozen-geometry bug where the streaming grid
/// kept its build-time origin and cell size forever and degenerated to
/// scans as the window drifted.
fn grid_drift_build(data: &Dataset) -> GridIndex {
    GridIndex::with_config(
        data,
        &GridConfig {
            target_points_per_cell: 1,
            rebucket_skew: 2.0,
            ..Default::default()
        },
    )
}

/// Instantiates `$body` once per updatable index family, with `$name` bound
/// to the family's label and `$build` to its `fn(&Dataset) -> impl
/// UpdatableIndex` builder. **Adding an index to the entire equivalence
/// suite is one line here.**
macro_rules! for_each_updatable_index {
    (|$name:ident, $build:ident| $body:expr) => {{
        {
            let $name = "naive";
            let $build = NaiveReferenceIndex::build;
            $body
        }
        {
            let $name = "grid";
            let $build = GridIndex::build;
            $body
        }
        {
            let $name = "kdtree";
            let $build = kd_build;
            $body
        }
    }};
}

/// Replays `ops` through a [`StreamingDpc`] over `build`'s index kind and
/// checks, after every single step: structural invariants, ε-query vs
/// brute-force scan at the mutated location, and bit-identity of the whole
/// engine state against a cold batch run. Returns the final index's
/// maintenance counters so scenario tests can assert rebuild triggers fired.
fn check_equivalence<I, F>(
    label: &str,
    build: F,
    dc: f64,
    seed_points: &[Point],
    ops: &[Op],
    threads: usize,
    max_affected_fraction: f64,
) -> Result<Vec<(&'static str, u64)>, TestCaseError>
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let dpc = DpcParams::new(dc)
        .with_centers(CenterSelection::GammaGap { max_centers: 8 })
        .with_threads(threads);
    let params = StreamParams::new(dc)
        .with_dpc(dpc.clone())
        .with_max_affected_fraction(max_affected_fraction);
    let mut engine = StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params)
        .map_err(|e| TestCaseError::fail(format!("[{label}] seeding failed: {e}")))?;

    for (step, op) in ops.iter().enumerate() {
        // The mutated location: where the insert lands, or where the evicted
        // point lived. The ε-query must agree with a brute-force scan there
        // after the update — the spot a tombstone or stale box would corrupt.
        let location;
        if op.insert || engine.is_empty() {
            location = op.point;
            engine.insert(op.point).map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: insert failed: {e}"))
            })?;
        } else {
            let live: Vec<_> = engine.live_handles().collect();
            let victim = live[op.sel as usize % live.len()];
            location = engine.point_of(victim).expect("live handle has a point");
            engine.remove(victim).map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: remove failed: {e}"))
            })?;
        }

        engine.index().check_invariants();
        let scan = eps_neighbors_scan(engine.index().dataset(), location, dc)
            .expect("scan accepts a valid dc");
        let indexed = engine.index().eps_neighbors(location, dc).map_err(|e| {
            TestCaseError::fail(format!("[{label}] step {step}: eps query failed: {e}"))
        })?;
        prop_assert_eq!(
            indexed,
            scan,
            "[{}] eps-query diverged from the scan at step {}",
            label,
            step
        );

        if engine.is_empty() {
            prop_assert_eq!(engine.clustering().num_clusters(), 0);
            continue;
        }
        let batch_index = build(engine.index().dataset());
        let run = DpcPipeline::new(dpc.clone())
            .run(&batch_index)
            .map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: batch run failed: {e}"))
            })?;
        prop_assert_eq!(
            engine.rho(),
            &run.rho[..],
            "[{}] rho diverged at step {}",
            label,
            step
        );
        prop_assert_eq!(
            &engine.deltas().delta,
            &run.deltas.delta,
            "[{}] delta diverged at step {} (must be bit-identical)",
            label,
            step
        );
        prop_assert_eq!(
            &engine.deltas().mu,
            &run.deltas.mu,
            "[{}] mu diverged at step {}",
            label,
            step
        );
        prop_assert_eq!(
            engine.clustering().centers(),
            run.clustering.centers(),
            "[{}] centres diverged at step {}",
            label,
            step
        );
        prop_assert_eq!(
            engine.clustering().labels(),
            run.clustering.labels(),
            "[{}] labels diverged at step {}",
            label,
            step
        );
    }
    Ok(engine.index().maintenance_counters())
}

/// Sliding-window `advance` (batched eviction + insertion in one epoch) for
/// one index family. After **every epoch** the batched engine must be
/// bit-identical to two independent oracles:
///
/// * a **per-update replay** — a second engine applying the same evictions
///   and insertions one `remove`/`insert` epoch at a time (the pre-batching
///   maintenance path), and
/// * a **cold batch run** — a fresh index of the same kind + the full
///   pipeline over the surviving points.
fn check_advance<I, F>(
    label: &str,
    build: F,
    seed_points: &[Point],
    ops: &[Op],
    batch_size: usize,
    threads: usize,
) -> Result<(), TestCaseError>
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let dc = 0.8;
    let dpc = DpcParams::new(dc)
        .with_centers(CenterSelection::GammaGap { max_centers: 8 })
        .with_threads(threads);
    let params = StreamParams::new(dc).with_dpc(dpc.clone());
    let mut batched = StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params.clone())
        .map_err(|e| TestCaseError::fail(format!("[{label}] seeding failed: {e}")))?;
    let mut replay = StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params)
        .map_err(|e| TestCaseError::fail(format!("[{label}] replay seeding failed: {e}")))?;

    for (chunk_idx, chunk) in ops.chunks(batch_size).enumerate() {
        let batch: Vec<Point> = chunk.iter().map(|op| op.point).collect();
        // Evict as many as we insert once the window is warm.
        let evict = if batched.len() > 8 { batch.len() } else { 0 };
        let (handles, _) = batched
            .advance(&batch, evict)
            .map_err(|e| TestCaseError::fail(format!("[{label}] advance failed: {e}")))?;
        prop_assert_eq!(handles.len(), batch.len());
        batched.index().check_invariants();

        // Oracle 1: per-update replay of the identical epoch — evictions
        // first (oldest each time, like `advance`), then the insertions.
        for _ in 0..evict.min(replay.len()) {
            let oldest = replay.oldest().expect("replay window is non-empty");
            replay.remove(oldest).map_err(|e| {
                TestCaseError::fail(format!("[{label}] per-update remove failed: {e}"))
            })?;
        }
        for &p in &batch {
            replay.insert(p).map_err(|e| {
                TestCaseError::fail(format!("[{label}] per-update insert failed: {e}"))
            })?;
        }
        prop_assert_eq!(
            batched.rho(),
            replay.rho(),
            "[{}] batched rho diverged from per-update replay @ chunk {}",
            label,
            chunk_idx
        );
        prop_assert_eq!(
            &batched.deltas().delta,
            &replay.deltas().delta,
            "[{}] batched delta diverged from per-update replay @ chunk {}",
            label,
            chunk_idx
        );
        prop_assert_eq!(&batched.deltas().mu, &replay.deltas().mu);
        prop_assert_eq!(
            batched.clustering().centers(),
            replay.clustering().centers()
        );
        prop_assert_eq!(batched.clustering().labels(), replay.clustering().labels());

        // Oracle 2: cold batch run over the surviving points.
        let batch_index = build(batched.index().dataset());
        let run = DpcPipeline::new(dpc.clone())
            .run(&batch_index)
            .map_err(|e| TestCaseError::fail(format!("[{label}] batch run failed: {e}")))?;
        prop_assert_eq!(
            batched.rho(),
            &run.rho[..],
            "[{}] rho @ chunk {}",
            label,
            chunk_idx
        );
        prop_assert_eq!(&batched.deltas().delta, &run.deltas.delta);
        prop_assert_eq!(&batched.deltas().mu, &run.deltas.mu);
        prop_assert_eq!(batched.clustering().labels(), run.clustering.labels());
    }
    Ok(())
}

/// Looks up a maintenance counter by name (0 when the index does not report
/// it).
fn counter(counters: &[(&'static str, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// Deletion-heavy adversarial sequence: delete 90% of a clustered window,
/// then refill it. This is the workload that accumulates tombstone
/// structure — the k-d tree's dead-fraction full rebuild must fire.
fn deletion_heavy_ops(n: usize, seed: u64) -> (Vec<Point>, Vec<Op>) {
    let seed_points = test_points(TestDistribution::Clustered, n, seed);
    let mut rng = SplitMix64::new(seed ^ 0x00DE_1E7E);
    let mut ops = Vec::new();
    for _ in 0..(n * 9 / 10) {
        ops.push(Op {
            insert: false,
            point: lattice_point(0, 0), // unused fallback for an empty window
            sel: rng.next_u64(),
        });
    }
    for p in test_points(TestDistribution::Clustered, n / 2, seed ^ 0xF111) {
        ops.push(Op {
            insert: true,
            point: p,
            sel: 0,
        });
    }
    (seed_points, ops)
}

/// Inserts the drift walk makes at its first position.
const DRIFT_LINGER: usize = 3;

/// Drift-heavy adversarial sequence: a sliding window whose points
/// random-walk away from the seed bounding box — every insert lands farther
/// out while the oldest point expires. One-sided growth is the worst case
/// for a frozen split structure (k-d scapegoat rebuilds) and for a grid
/// with a frozen origin and cell size.
///
/// The walk stays at its first position for [`DRIFT_LINGER`] inserts, so
/// that cell holds more points than `grid_drift_build`'s re-bucket
/// threshold (`rebucket_skew × target_points_per_cell` = 2) and the grid
/// re-anchors on every seed. A walk that moves on every insert overfills a
/// cell only by chance (its steps are 1–5% of the box's width plus height,
/// a cell about a seventh of its side): 4 seeds in 2 000 never did.
fn drift_heavy_ops(n: usize, steps: usize, seed: u64) -> (Vec<Point>, Vec<Op>) {
    let seed_points = test_points(TestDistribution::Clustered, n, seed);
    let mut rng = SplitMix64::new(seed ^ 0x000D_21F7);
    let bb = Dataset::new(seed_points.clone()).bounding_box();
    let (mut x, mut y) = (bb.max_x(), bb.max_y());
    let step = (bb.width() + bb.height()).max(1.0) * 0.05;
    let mut ops = Vec::new();
    for i in 0..steps {
        // Biased random walk: strictly outward on average.
        if i == 0 || i >= DRIFT_LINGER {
            x += rng.uniform(0.2, 1.0) * step;
            y += rng.uniform(-0.5, 1.0) * step;
        }
        ops.push(Op {
            insert: true,
            point: Point::new(x, y),
            sel: 0,
        });
        // Evict the oldest live point (sel 0 picks the smallest handle).
        ops.push(Op {
            insert: false,
            point: lattice_point(0, 0),
            sel: 0,
        });
    }
    (seed_points, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental path (default fallback threshold), sequential and 4-way
    /// parallel, for every updatable index kind.
    #[test]
    fn incremental_matches_batch_for_every_index_and_thread_count(
        seed in seed_strategy(),
        ops in ops_strategy()
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for &threads in &[1usize, 4] {
            for_each_updatable_index!(|name, build| {
                check_equivalence(name, build, 0.8, &seed_points, &ops, threads, 0.25)?;
            });
        }
    }

    /// The fallback threshold must not change results, only work: with the
    /// fallback forced on every update (fraction 0) and fully disabled
    /// (fraction 1) the state must be identical to batch all the same.
    #[test]
    fn fallback_extremes_match_batch(
        seed in seed_strategy(),
        ops in ops_strategy()
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for_each_updatable_index!(|name, build| {
            check_equivalence(name, build, 0.8, &seed_points, &ops, 1, 0.0)?;
            check_equivalence(name, build, 0.8, &seed_points, &ops, 1, 1.0)?;
        });
    }

    /// Sliding-window `advance` (batched eviction + insertion in one epoch)
    /// lands on state bit-identical to both a per-update replay and a cold
    /// batch run at every epoch, for every index, at the documented batch
    /// sizes {1, 7, 64} (1 = per-update epochs, 7 = several epochs per
    /// sequence, 64 = the whole sequence as one epoch).
    #[test]
    fn advance_matches_per_update_replay_and_batch(
        seed in seed_strategy(),
        ops in ops_strategy()
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for &batch_size in &[1usize, 7, 64] {
            for_each_updatable_index!(|name, build| {
                check_advance(
                    name,
                    build,
                    &seed_points,
                    &ops,
                    batch_size,
                    4,
                )?;
            });
        }
    }

    /// Deletion-heavy adversarial scenario: delete 90% of the window, then
    /// refill. Equivalence holds at every step, no tombstone is visible to
    /// the ε-query (both asserted inside the harness), and the k-d tree's
    /// dead-fraction full rebuild actually fires.
    #[test]
    fn deletion_heavy_stresses_rebuild_triggers(seed in any::<u64>()) {
        let (seed_points, ops) = deletion_heavy_ops(60, seed);
        let kd = check_equivalence("kdtree", kd_build, 40.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&kd, "full_rebuilds") >= 1,
            "k-d dead-fraction rebuild never fired: {:?}", kd
        );
    }

    /// Drift-heavy adversarial scenario: the window random-walks away from
    /// the seed bounding box. Equivalence and invariants hold at every step
    /// while the k-d tree rebuilds its drifting flank and the grid
    /// re-buckets.
    #[test]
    fn drift_heavy_stresses_rebalancing(seed in any::<u64>()) {
        let (seed_points, ops) = drift_heavy_ops(40, 40, seed);
        let kd = check_equivalence("kdtree", kd_build, 60.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&kd, "subtree_rebuilds") + counter(&kd, "full_rebuilds") >= 1,
            "k-d never rebuilt under drift: {:?}", kd
        );
        // The grid must re-anchor its origin/cell size as the window walks
        // away from the seed bounding box — and stay bit-identical to the
        // cold batch at every step while doing so (check_equivalence asserts
        // that per step; this gate asserts the re-anchor actually fired).
        let grid = check_equivalence("grid", grid_drift_build, 60.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&grid, "rebuckets") >= 1,
            "grid never re-bucketed under drift: {:?}", grid
        );
    }

    /// The stable handle ↔ dense id mapping stays consistent through any
    /// operation sequence: every live handle resolves to a dense id that
    /// resolves back, and coordinates follow the handle, not the id.
    #[test]
    fn handles_stay_consistent(seed in seed_strategy(), ops in ops_strategy()) {
        let seed_points = lattice_seed(&seed);
        let mut engine = StreamingDpc::new(
            NaiveReferenceIndex::build(&Dataset::new(seed_points)),
            StreamParams::new(0.8),
        )
        .map_err(|e| TestCaseError::fail(format!("seeding failed: {e}")))?;
        let mut expected: Vec<(dpc_stream::Handle, Point)> = engine
            .live_handles()
            .map(|h| (h, engine.point_of(h).unwrap()))
            .collect();

        for op in lattice_ops(&ops) {
            if op.insert || engine.is_empty() {
                let (h, _) = engine
                    .insert(op.point)
                    .map_err(|e| TestCaseError::fail(format!("insert failed: {e}")))?;
                expected.push((h, op.point));
            } else {
                let live: Vec<_> = engine.live_handles().collect();
                let victim = live[op.sel as usize % live.len()];
                engine
                    .remove(victim)
                    .map_err(|e| TestCaseError::fail(format!("remove failed: {e}")))?;
                expected.retain(|&(h, _)| h != victim);
            }
            prop_assert_eq!(engine.len(), expected.len());
            for &(h, p) in &expected {
                let dense = engine.dense_of(h);
                prop_assert!(dense.is_some(), "live handle {} lost its id", h);
                prop_assert_eq!(engine.point_of(h), Some(p), "handle {} moved", h);
                prop_assert_eq!(engine.handle_at(dense.unwrap()), h);
            }
        }
    }
}

/// Asserts one engine's maintained state is bit-identical to a cold batch
/// run (a fresh index from `build`, usually of the same kind, + the full
/// pipeline) over its dataset.
fn assert_cold_batch<I, J, F>(label: &str, build: &F, engine: &StreamingDpc<I>, dpc: &DpcParams)
where
    I: UpdatableIndex,
    J: DpcIndex,
    F: Fn(&Dataset) -> J,
{
    let run = DpcPipeline::new(dpc.clone())
        .run(&build(engine.index().dataset()))
        .expect("cold batch run must succeed");
    assert_eq!(engine.rho(), &run.rho[..], "[{label}] rho");
    assert_eq!(&engine.deltas().delta, &run.deltas.delta, "[{label}] delta");
    assert_eq!(&engine.deltas().mu, &run.deltas.mu, "[{label}] mu");
    assert_eq!(
        engine.clustering().centers(),
        run.clustering.centers(),
        "[{label}] centres"
    );
    assert_eq!(
        engine.clustering().labels(),
        run.clustering.labels(),
        "[{label}] labels"
    );
}

/// Large epochs: a 150-op clustered workload at batch 64 (several dozen
/// mutations per epoch) for every engine, checked against the per-update
/// replay and the cold batch run at every epoch. The proptest above covers
/// the same batch sizes on short sequences; this pins genuinely large
/// epochs, where the union/invalidation machinery and the trees' rebuild
/// triggers actually amortise.
#[test]
fn large_epochs_match_per_update_replay_across_engines() {
    let seed_points = test_points(TestDistribution::Clustered, 40, 99);
    let mut rng = SplitMix64::new(77);
    let extra = test_points(TestDistribution::Clustered, 150, 100);
    let ops: Vec<Op> = extra
        .into_iter()
        .map(|p| Op {
            insert: true,
            point: p,
            sel: rng.next_u64(),
        })
        .collect();
    for_each_updatable_index!(|name, build| {
        check_advance(name, build, &seed_points, &ops, 64, 4).unwrap();
    });
}

/// Epoch edge case: a batch that deletes the current global peak (whose δ is
/// the max-distance sentinel and whose removal re-anchors every point's
/// candidate peak) together with further mutations, for every engine.
#[test]
fn batch_deleting_the_global_peak_matches_batch() {
    let dc = 60.0;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    for_each_updatable_index!(|name, build| {
        let seed = Dataset::new(test_points(TestDistribution::Clustered, 30, 5));
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&seed), params).unwrap();
        let peak = dpc_core::DensityOrder::new(engine.rho())
            .global_peak()
            .expect("non-empty window has a peak");
        let peak_handle = engine.handle_at(peak);

        let mut plan = dpc_stream::EpochPlan::new();
        plan.remove(peak_handle);
        for p in test_points(TestDistribution::Clustered, 3, 6) {
            plan.insert(p);
        }
        let (handles, delta) = engine.commit(&plan).unwrap();
        assert_eq!(handles.len(), 3, "[{name}]");
        assert_eq!(delta.evictions(), 1, "[{name}]");
        assert_eq!(engine.dense_of(peak_handle), None, "[{name}]");
        engine.index().check_invariants();
        assert_cold_batch(name, &build, &engine, &dpc);
    });
}

/// Epoch edge case: points inserted and expired within the same batch
/// (ephemeral points) interleaved with surviving mutations, for every
/// engine. The committed state must be as if the ephemeral points never
/// existed — and bit-identical to the cold batch run.
#[test]
fn ephemeral_points_in_a_plan_match_batch() {
    let dc = 60.0;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    for_each_updatable_index!(|name, build| {
        let seed = Dataset::new(test_points(TestDistribution::Clustered, 20, 11));
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&seed), params).unwrap();
        let oldest = engine.oldest().unwrap();

        let mut plan = dpc_stream::EpochPlan::new();
        let keep = plan.insert(test_points(TestDistribution::Clustered, 1, 12)[0]);
        let flash = plan.insert(test_points(TestDistribution::Skewed, 1, 13)[0]);
        plan.remove(oldest); // a real eviction between the ephemeral's ops
        plan.remove_planned(flash);
        let (handles, delta) = engine.commit(&plan).unwrap();

        assert_eq!(engine.len(), 20, "[{name}]"); // +2 -1 -1
        assert!(
            engine.dense_of(handles[keep.ordinal()]).is_some(),
            "[{name}]"
        );
        assert_eq!(delta.insertions(), 1, "[{name}]"); // the ephemeral is invisible
        assert_eq!(delta.evictions(), 1, "[{name}]");
        engine.index().check_invariants();
        assert_cold_batch(name, &build, &engine, &dpc);
    });
}

/// A swap-remove rename moves a point's rank among equal densities without
/// any ρ change, so the invalidation must check the renamed point's µ on
/// the rename itself, not only when a ρ changed. Replays tie-heavy lattice
/// sequences (per-update and batched), where equal densities and equal
/// distances are the norm, and demands cold-batch bit-identity every epoch.
#[test]
fn tie_heavy_lattice_replay_matches_batch() {
    let dc = 0.8;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    let build = NaiveReferenceIndex::build;
    let mut rng = SplitMix64::new(4242);
    for trial in 0..20 {
        let seed_points: Vec<Point> = (0..12)
            .map(|_| lattice_point((rng.next_u64() % 5) as u32, (rng.next_u64() % 5) as u32))
            .collect();
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&Dataset::new(seed_points)), params).unwrap();
        for step in 0..25 {
            if rng.next_u64().is_multiple_of(2) && engine.len() > 2 {
                let live: Vec<_> = engine.live_handles().collect();
                let victim = live[(rng.next_u64() as usize) % live.len()];
                engine.remove(victim).unwrap();
            } else {
                let p = lattice_point((rng.next_u64() % 5) as u32, (rng.next_u64() % 5) as u32);
                engine.insert(p).unwrap();
            }
            let run = DpcPipeline::new(dpc.clone())
                .run(&build(engine.index().dataset()))
                .unwrap();
            assert_eq!(engine.rho(), &run.rho[..], "trial {trial} step {step}: rho");
            assert_eq!(
                &engine.deltas().delta,
                &run.deltas.delta,
                "trial {trial} step {step}: delta"
            );
            assert_eq!(
                &engine.deltas().mu,
                &run.deltas.mu,
                "trial {trial} step {step}: mu"
            );
        }
        // One batched epoch over the same window kind, same oracle.
        let batch: Vec<Point> = (0..6)
            .map(|_| lattice_point((rng.next_u64() % 5) as u32, (rng.next_u64() % 5) as u32))
            .collect();
        engine.advance(&batch, 4).unwrap();
        assert_cold_batch("naive/lattice", &build, &engine, &dpc);
    }
}

/// The k-d tree's amortised triggers fire inside the inserts of a large
/// epoch that overflows its tiny leaves.
#[test]
fn kdtree_rebuilds_fire_within_a_large_epoch() {
    let dc = 120.0;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    let arrivals = test_points(TestDistribution::Clustered, 60, 21);

    let seed = Dataset::new(test_points(TestDistribution::Clustered, 10, 20));
    let params = StreamParams::new(dc).with_dpc(dpc.clone());
    let mut kd_engine = StreamingDpc::new(kd_build(&seed), params).unwrap();
    kd_engine.advance(&arrivals, 0).unwrap();
    kd_engine.index().check_invariants();
    let kd = kd_engine.index().maintenance_counters();
    assert!(
        counter(&kd, "subtree_rebuilds") + counter(&kd, "full_rebuilds") >= 1,
        "k-d tree never rebuilt within a 60-insert epoch: {kd:?}"
    );
    assert_cold_batch("kdtree", &kd_build, &kd_engine, &dpc);
}

/// The ulp-adversarial generator through every engine: a window seeded with
/// half of the planted points takes the rest one insert at a time, then
/// evictions, with the δ fallback at its default, forced and disabled — and
/// must match the cold batch run after every step. Ties one ulp apart in
/// `fl(d²)` are where a repair that compared rounded roots, or minimised a
/// different order than the batch kernels, would diverge.
#[test]
fn ulp_adversarial_streams_match_batch_for_every_engine() {
    for (seed, dc, w) in [
        (1u64, 0.6098847240216778, 0.05),
        (2, 7.799999999999999, 0.3),
        (3, 3.1, 0.7),
    ] {
        let points = ulp_adversarial_points(dc, w, seed);
        let (seed_points, arrivals) = points.split_at(points.len() / 2);
        let mut rng = SplitMix64::new(seed);
        let mut ops: Vec<Op> = arrivals
            .iter()
            .map(|&point| Op {
                insert: true,
                point,
                sel: 0,
            })
            .collect();
        ops.extend((0..arrivals.len()).map(|_| Op {
            insert: false,
            point: lattice_point(0, 0),
            sel: rng.next_u64(),
        }));
        for fraction in [0.25, 0.0, 1.0] {
            for_each_updatable_index!(|name, build| {
                check_equivalence(name, build, dc, seed_points, &ops, 2, fraction).unwrap();
            });
        }
    }
}

/// Regression: a probe inserted between two denser candidates whose squared
/// distances are one ulp apart but whose roots are equal. The repair and the
/// cold oracle must both pick the nearer candidate in `(fl(d²), id)` order,
/// not the farther one with the smaller id, in every engine.
#[test]
fn probe_between_tied_root_candidates_matches_the_cold_oracle() {
    let dc = 0.05;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    let a = Point::new(0.2195841772600371, 0.9755935573265297);
    let seed = Dataset::new(vec![
        a,
        Point::new(1.0, 0.0),
        Point::new(a.x * 1.01, a.y * 1.01),
        Point::new(1.01, 0.0),
    ]);
    for_each_updatable_index!(|name, build| {
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&seed), params).unwrap();
        let (handle, _) = engine.insert(Point::origin()).unwrap();
        let probe = engine.dense_of(handle).unwrap();
        assert_eq!(engine.deltas().mu[probe], Some(1), "[{name}]");
        assert_eq!(engine.deltas().delta[probe], 1.0, "[{name}]");
        assert_cold_batch(name, &build, &engine, &dpc);
        assert_cold_batch(name, &NaiveReferenceIndex::build, &engine, &dpc);
    });
}

/// Two groups 2e200 apart, where every squared distance between them
/// overflows: their densest points take δ = +∞ from every exact index, and
/// the batch ranks them on the δ clipped to the largest finite one. With
/// `TopKGamma { k: 2 }` the clip decides the second centre: the middle
/// group's densest point (ρ 2, δ 9.7) beats the far pair's (ρ 1, clipped
/// to 9.7), which an unclipped +∞ would rank second. Epochs insert and
/// remove far points, so infinite δs come and go, and every epoch must
/// match the cold batch run.
#[test]
fn overflowed_distances_rank_on_the_clipped_delta_like_the_batch() {
    let far = 1e200;
    let near: Vec<Point> = [0.0, 0.1, 0.2, 0.3, 10.0, 10.1, 10.2]
        .iter()
        .map(|&y| Point::new(-far, y))
        .collect();
    let mut seed = near.clone();
    seed.extend([Point::new(far, 0.0), Point::new(far, 0.1)]);
    let dc = 0.8;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::TopKGamma { k: 2 });
    for_each_updatable_index!(|name, build| {
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&Dataset::new(seed.clone())), params).unwrap();
        assert!(engine.deltas().delta.contains(&f64::INFINITY), "[{name}]");
        assert_cold_batch(name, &build, &engine, &dpc);
        engine.insert(Point::new(far, 0.2)).unwrap();
        assert_cold_batch(name, &build, &engine, &dpc);
        let far_handles: Vec<Handle> = engine
            .live_handles()
            .filter(|&h| engine.point_of(h).unwrap().x > 0.0)
            .collect();
        let mut plan = EpochPlan::new();
        for &h in &far_handles {
            plan.remove(h);
        }
        engine.commit(&plan).unwrap();
        assert!(
            engine.deltas().delta.iter().all(|d| d.is_finite()),
            "[{name}]"
        );
        assert_cold_batch(name, &build, &engine, &dpc);
        for y in [5.0, 0.05] {
            let (h, _) = engine.insert(Point::new(far, y)).unwrap();
            assert_cold_batch(name, &build, &engine, &dpc);
            engine.remove(h).unwrap();
            assert_cold_batch(name, &build, &engine, &dpc);
        }
        engine.insert(Point::new(-far, 0.15)).unwrap();
        assert_cold_batch(name, &build, &engine, &dpc);
    });
}

/// What the small-m epochs did to the points ranked among the m best by
/// γ = ρ·δ before each epoch.
#[derive(Debug, Default)]
struct RankedEvents {
    /// Epochs that evicted a ranked point.
    evicted: usize,
    /// Epochs whose swap-removes moved a ranked point to another id.
    renamed: usize,
    /// Epochs after which a surviving ranked point's γ fell below the
    /// epoch's own 2m-th γ before it.
    pushed_down: usize,
}

/// Streams `epochs` plans of 1–7 ops through a `rule` engine over a window
/// of about `window` points on a `side` × `side` lattice, checking every
/// epoch against a cold batch run. Besides random inserts and evictions,
/// the plans evict a ranked point (one of the m best by γ), the neighbours
/// of a ranked point (its ρ, and with it its γ, falls), and, once a ranked
/// point is last in id order, another point, so that the swap-remove
/// renames it. Returns the events and the engine's `stream.select.keyed`
/// and `.rebuilds` counters.
fn check_small_m<I, F>(
    label: &str,
    build: F,
    rule: &CenterSelection,
    (window, side): (usize, u32),
    epochs: usize,
    seed: u64,
) -> (RankedEvents, u64, u64)
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let dc = 0.8;
    let dpc = DpcParams::new(dc).with_centers(rule.clone());
    let mut rng = SplitMix64::new(seed);
    let lattice = move |rng: &mut SplitMix64| {
        let (x, y) = (rng.next_u64() % side as u64, rng.next_u64() % side as u64);
        lattice_point(x as u32, y as u32)
    };
    let seed_points: Vec<Point> = (0..window).map(|_| lattice(&mut rng)).collect();
    let params = StreamParams::new(dc).with_dpc(dpc.clone());
    let mut engine = StreamingDpc::new(build(&Dataset::new(seed_points)), params).unwrap();
    let metrics = Arc::new(MetricsRecorder::new());
    engine.set_recorder(metrics.clone());
    let mut events = RankedEvents::default();
    for epoch in 0..epochs {
        let n = engine.len();
        let key = |p: usize| engine.rho()[p] * engine.deltas().delta[p];
        let mut by_key: Vec<usize> = (0..n).collect();
        by_key.sort_by(|&a, &b| key(b).partial_cmp(&key(a)).unwrap().then(a.cmp(&b)));
        let m = match *rule {
            CenterSelection::TopKGamma { k } => k,
            CenterSelection::GammaGap { max_centers } => (max_centers + 1).min(n),
            _ => unreachable!("the small-m rules rank"),
        };
        let slack_key = key(by_key[(2 * m).min(n) - 1]);
        let ranked: Vec<Handle> = by_key[..m].iter().map(|&p| engine.handle_at(p)).collect();
        let ranked_ids: Vec<(Handle, usize)> = ranked
            .iter()
            .map(|&h| (h, engine.dense_of(h).unwrap()))
            .collect();

        // The plan's ids as the engine will swap-remove them (`None` for a
        // planned insert).
        let mut ids: Vec<Option<Handle>> = (0..n).map(|p| Some(engine.handle_at(p))).collect();
        let mut plan = EpochPlan::new();
        let mut removed: Vec<Handle> = Vec::new();
        let mut evict = |at: usize, ids: &mut Vec<Option<Handle>>, plan: &mut EpochPlan| {
            if let Some(h) = ids[at] {
                plan.remove(h);
                removed.push(h);
                ids.swap_remove(at);
            }
        };
        let survivors = |ids: &[Option<Handle>]| ids.iter().filter(|h| h.is_some()).count();
        for _ in 0..1 + rng.next_u64() % 7 {
            let grow = ids.len() < window;
            match rng.next_u64() % 6 {
                0 | 1 if grow => {
                    plan.insert(lattice(&mut rng));
                    ids.push(None);
                }
                _ if survivors(&ids) <= m + 1 => {}
                0 | 1 => {
                    let at = (rng.next_u64() as usize) % ids.len();
                    evict(at, &mut ids, &mut plan);
                }
                2 => {
                    let at = ids
                        .iter()
                        .position(|h| h.is_some_and(|h| ranked.contains(&h)));
                    if let Some(at) = at {
                        evict(at, &mut ids, &mut plan);
                    }
                }
                3 => {
                    let r = ranked[(rng.next_u64() as usize) % m];
                    let Some(at_r) = ids.iter().position(|&h| h == Some(r)) else {
                        continue;
                    };
                    let near = engine
                        .index()
                        .eps_neighbors(engine.point_of(r).unwrap(), dc)
                        .unwrap();
                    let near: Vec<Handle> = near
                        .into_iter()
                        .map(|q| engine.handle_at(q))
                        .filter(|&h| h != r)
                        .collect();
                    let at = ids
                        .iter()
                        .position(|h| h.is_some_and(|h| near.contains(&h)));
                    if let Some(at) = at.filter(|&at| at != at_r) {
                        evict(at, &mut ids, &mut plan);
                    }
                }
                _ => {
                    let last = ids.len() - 1;
                    if ids[last].is_some_and(|h| ranked.contains(&h)) && last > 0 {
                        let at = (rng.next_u64() as usize) % last;
                        evict(at, &mut ids, &mut plan);
                    } else {
                        evict(last, &mut ids, &mut plan);
                    }
                }
            }
        }
        if plan.is_empty() {
            plan.insert(lattice(&mut rng));
        }
        engine.commit(&plan).unwrap();
        assert_cold_batch(
            &format!("{label} {rule:?} epoch {epoch}"),
            &build,
            &engine,
            &dpc,
        );

        events.evicted += usize::from(removed.iter().any(|h| ranked.contains(h)));
        let survived = ranked_ids
            .iter()
            .filter_map(|&(h, before)| engine.dense_of(h).map(|now| (now, before)));
        events.renamed += usize::from(survived.clone().any(|(now, before)| now != before));
        let key = |p: usize| engine.rho()[p] * engine.deltas().delta[p];
        events.pushed_down += usize::from(survived.clone().any(|(now, _)| key(now) < slack_key));
    }
    let snap = metrics.snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0);
    (
        events,
        counter("stream.select.keyed"),
        counter("stream.select.rebuilds"),
    )
}

/// Small-m centre rules make the bar of the kept candidates live: with
/// m ≤ 5 of about 40 or 90 lattice points, most points sit below it, and
/// the plans keep evicting, renaming and pushing down the ranked points
/// (see [`check_small_m`]). Every epoch matches the cold batch run on the
/// naive and k-d tree engines, every kind of event occurs, and the
/// selection counters show epochs answered from the kept set as well as
/// epochs that rescanned the window.
#[test]
fn small_m_rules_match_batch_while_their_candidates_churn() {
    let rules = [
        CenterSelection::TopKGamma { k: 1 },
        CenterSelection::TopKGamma { k: 2 },
        CenterSelection::TopKGamma { k: 3 },
        CenterSelection::GammaGap { max_centers: 1 },
        CenterSelection::GammaGap { max_centers: 2 },
        CenterSelection::GammaGap { max_centers: 4 },
    ];
    let epochs = 200;
    for (w, shape) in [(40, 8), (90, 12)].into_iter().enumerate() {
        let mut totals = RankedEvents::default();
        let (mut keyed, mut rebuilds) = (0, 0);
        for (r, rule) in rules.iter().enumerate() {
            let seed = 100 * w as u64 + r as u64;
            let runs = [
                check_small_m(
                    "naive",
                    NaiveReferenceIndex::build,
                    rule,
                    shape,
                    epochs,
                    seed,
                ),
                check_small_m("kdtree", kd_build, rule, shape, epochs, seed),
            ];
            for (events, k, b) in runs {
                totals.evicted += events.evicted;
                totals.renamed += events.renamed;
                totals.pushed_down += events.pushed_down;
                keyed += k;
                rebuilds += b;
            }
        }
        let total = (2 * rules.len() * epochs) as u64;
        println!(
            "window {shape:?}: {totals:?}, keyed {keyed}, rebuilds {rebuilds} of {total} epochs"
        );
        assert!(
            totals.evicted > 0 && totals.renamed > 0 && totals.pushed_down > 0,
            "{totals:?}"
        );
        assert!(rebuilds > 0, "no epoch rescanned the window");
        assert!(rebuilds < total, "every epoch rescanned the window");
        assert!(
            keyed < total * shape.0 as u64,
            "keyed {keyed} in {total} epochs"
        );
    }
}

/// Emits one wall-clock line per engine for a fixed replay. CI runs this
/// test with `--nocapture` and uploads the lines as a job artifact, so a
/// slow regression in any engine's maintenance path is visible in the PR
/// (the equivalence checks above assert correctness, this pins cost).
#[test]
fn per_engine_timing_summary() {
    let mut rng = SplitMix64::new(2024);
    let seed_points: Vec<Point> = (0..24)
        .map(|_| lattice_point((rng.next_u64() % 10) as u32, (rng.next_u64() % 10) as u32))
        .collect();
    let ops: Vec<Op> = (0..120)
        .map(|_| Op {
            insert: rng.next_u64().is_multiple_of(2),
            point: lattice_point((rng.next_u64() % 10) as u32, (rng.next_u64() % 10) as u32),
            sel: rng.next_u64(),
        })
        .collect();
    for_each_updatable_index!(|name, build| {
        let start = std::time::Instant::now();
        check_equivalence(name, build, 0.8, &seed_points, &ops, 1, 0.25).unwrap();
        println!(
            "timing engine={name} steps={} elapsed_ms={:.1}",
            ops.len(),
            start.elapsed().as_secs_f64() * 1e3
        );
    });
}
