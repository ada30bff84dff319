//! The kernel-equivalence battery: pluggable density kernels and time-decayed
//! windows must never perturb the streaming engine's bit-identity contract.
//!
//! Three anchors:
//!
//! * **Cutoff bit-identity** — an engine running the *generic weighted* ρ
//!   path with [`Kernel::Cutoff`] must stay bit-identical (ρ, δ, µ, labels,
//!   centres) to the cold batch pipeline — whose cutoff branch routes through
//!   the original integer-counting traversal — after every epoch, for every
//!   updatable index family, at threads {1, 4}. This is the proof that
//!   generalising `Rho` to weighted `f64` changed no observable bit of the
//!   paper-faithful configuration.
//! * **Weighted kernels vs the weight oracle** — under Gaussian and
//!   Exponential kernels the streamed ρ must equal an explicit accumulation
//!   oracle bit-for-bit (the oracle mirrors the engine's ±w(d) op order) and
//!   stay within 1e-9 of a cold pipeline run; the cold scan re-sums each
//!   neighbourhood from scratch, so f64 regrouping keeps it an epsilon — not
//!   bit — oracle for non-unit weights.
//! * **Decayed-window oracle** — with `decay` λ < 1 the engine's ρ must equal
//!   an *explicitly accumulated* weight table that mirrors the engine's
//!   arithmetic op-for-op (per-epoch `×λ` pre-pass, aged subtraction via
//!   [`aged_weight`], fresh ascending-id insertion sums), and δ/µ must equal
//!   a from-scratch re-rank of that table. A regression pins that a pure
//!   decay epoch ([`StreamingDpc::tick`]) re-ranks without issuing a single
//!   ε-query.

use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{
    CenterSelection, Dataset, DecisionGraph, DpcIndex, DpcParams, DpcPipeline, Kernel, Point,
    Query, UpdatableIndex,
};
use dpc_datasets::rng::SplitMix64;
use dpc_datasets::testsupport::{
    lattice_point, test_points, ulp_adversarial_points, TestDistribution,
};
use dpc_stream::{aged_weight, EpochMode, StreamParams, StreamingDpc};
use dpc_tree_index::{GridIndex, KdTree, KdTreeConfig};
use proptest::prelude::*;

const DC: f64 = 0.8;

/// One streamed operation on the coarse lattice (see `equivalence.rs`): an
/// eviction on an empty window becomes the insert, so every prefix runs.
#[derive(Debug, Clone, Copy)]
struct Op {
    insert: bool,
    point: Point,
    sel: u64,
}

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
    prop::collection::vec((0u32..10, 0u32..10), 0..12)
}

fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((any::<bool>(), 0u32..10, 0u32..10, 0u64..10_000), 1..12)
}

fn kd_build(data: &Dataset) -> KdTree {
    KdTree::with_config(
        data,
        &KdTreeConfig {
            leaf_capacity: 3,
            ..Default::default()
        },
    )
}

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

/// Replays `ops` as single-op epochs at cut-off `dc` under
/// `kernel`/`threads` and asserts, after every epoch, bit-identity
/// of the full engine state against a cold batch pipeline run (fresh index
/// of the same kind, same kernel).
fn check_kernel_equivalence<I, F>(
    label: &str,
    build: F,
    dc: f64,
    kernel: Kernel,
    seed_points: &[Point],
    ops: &[Op],
    threads: usize,
) -> Result<(), TestCaseError>
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let dpc = DpcParams::new(dc)
        .with_centers(CenterSelection::GammaGap { max_centers: 8 })
        .with_kernel(kernel)
        .with_threads(threads);
    let params = StreamParams::new(dc).with_dpc(dpc.clone());
    let mut engine = StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params)
        .map_err(|e| TestCaseError::fail(format!("[{label}] seeding failed: {e}")))?;

    for (step, op) in ops.iter().enumerate() {
        if op.insert || engine.is_empty() {
            engine.insert(op.point).map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: insert failed: {e}"))
            })?;
        } else {
            let live: Vec<_> = engine.live_handles().collect();
            let victim = live[op.sel as usize % live.len()];
            engine.remove(victim).map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: remove failed: {e}"))
            })?;
        }
        engine.index().check_invariants();
        if engine.is_empty() {
            continue;
        }
        let run = DpcPipeline::new(dpc.clone())
            .run(&build(engine.index().dataset()))
            .map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: batch run failed: {e}"))
            })?;
        prop_assert_eq!(
            engine.rho(),
            &run.rho[..],
            "[{}] {} rho diverged at step {}",
            label,
            kernel.name(),
            step
        );
        prop_assert_eq!(
            &engine.deltas().delta,
            &run.deltas.delta,
            "[{}] {} delta diverged at step {}",
            label,
            kernel.name(),
            step
        );
        prop_assert_eq!(
            &engine.deltas().mu,
            &run.deltas.mu,
            "[{}] {} mu diverged at step {}",
            label,
            kernel.name(),
            step
        );
        prop_assert_eq!(
            engine.clustering().centers(),
            run.clustering.centers(),
            "[{}] {} centres diverged at step {}",
            label,
            kernel.name(),
            step
        );
        prop_assert_eq!(
            engine.clustering().labels(),
            run.clustering.labels(),
            "[{}] {} labels diverged at step {}",
            label,
            kernel.name(),
            step
        );
    }
    Ok(())
}

/// Explicit weight-accumulation oracle for decayed windows. Mirrors the
/// engine's arithmetic op-for-op over dense ids — same swap-remove id churn,
/// same per-epoch `×λ` pre-pass, same [`aged_weight`] subtraction, same
/// ascending-id insertion sums — so the comparison is `assert_eq!` on f64
/// bits, not an epsilon.
struct DecayOracle {
    dc: f64,
    pts: Vec<Point>,
    births: Vec<u64>,
    rho: Vec<f64>,
    age: u64,
    lambda: f64,
    kernel: Kernel,
}

impl DecayOracle {
    fn new(seed: &[Point], dc: f64, lambda: f64, kernel: Kernel) -> Self {
        let pts = seed.to_vec();
        let n = pts.len();
        let mut rho = vec![0.0f64; n];
        let dc2 = dc * dc;
        // Seed densities: undecayed ascending-id sums, exactly like the
        // batch query that seeds the engine.
        for (i, r) in rho.iter_mut().enumerate() {
            let mut mass = 0.0f64;
            for (j, q) in pts.iter().enumerate() {
                if j == i {
                    continue;
                }
                let d2 = q.distance_squared(&pts[i]);
                if d2 < dc2 {
                    mass += kernel.weight_from_sq(d2);
                }
            }
            *r = mass;
        }
        DecayOracle {
            dc,
            pts,
            births: vec![0; n],
            rho,
            age: 0,
            lambda,
            kernel,
        }
    }

    fn decay_all(&mut self) {
        if self.lambda != 1.0 {
            for r in &mut self.rho {
                *r *= self.lambda;
            }
        }
    }

    fn insert(&mut self, p: Point) {
        self.age += 1;
        self.decay_all();
        let dc2 = self.dc * self.dc;
        let mut mass = 0.0f64;
        for (q, other) in self.pts.iter().enumerate() {
            let d2 = other.distance_squared(&p);
            if d2 < dc2 {
                // Fresh pair: born now, enters undecayed in both directions.
                mass += self.kernel.weight_from_sq(d2);
                self.rho[q] += self.kernel.weight_from_sq(d2);
            }
        }
        self.pts.push(p);
        self.births.push(self.age);
        self.rho.push(mass);
    }

    fn remove(&mut self, loc: usize) {
        self.age += 1;
        let removed = self.pts.swap_remove(loc);
        let removed_birth = self.births.swap_remove(loc);
        self.rho.swap_remove(loc);
        self.decay_all();
        let dc2 = self.dc * self.dc;
        for (q, other) in self.pts.iter().enumerate() {
            let d2 = other.distance_squared(&removed);
            if d2 < dc2 {
                let pair_age = self.age - removed_birth.max(self.births[q]);
                self.rho[q] -= aged_weight(self.kernel, d2, self.lambda, pair_age);
            }
        }
    }

    fn tick(&mut self) {
        if self.lambda == 1.0 {
            return; // mirrors the engine: λ = 1 ticks are no-ops
        }
        self.age += 1;
        self.decay_all();
    }
}

fn lambda_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.5), Just(0.75), Just(0.9), Just(1.0)]
}

fn decay_kernel_strategy() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        Just(Kernel::Cutoff),
        Just(Kernel::gaussian(0.7)),
        Just(Kernel::exponential(1.1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generic weighted ρ path with `Kernel::Cutoff` is bit-identical to
    /// the integer-counting cold pipeline after every epoch, for every
    /// engine at threads {1, 4}.
    #[test]
    fn cutoff_kernel_is_bit_identical_for_every_engine_and_thread_count(
        seed in seed_strategy(),
        ops in ops_strategy()
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for &threads in &[1usize, 4] {
            for_each_updatable_index!(|name, build| {
                check_kernel_equivalence(
                    name, build, DC, Kernel::Cutoff, &seed_points, &ops, threads,
                )?;
            });
        }
    }

    /// Gaussian and Exponential streamed ρ equals the explicit
    /// weight-accumulation oracle **bit-for-bit** after every epoch, for
    /// every engine at threads {1, 4}, and stays within 1e-9 (relative) of a
    /// cold pipeline run with the same kernel. Unlike cutoff's exact-1.0
    /// sums, incremental ±w(d) repair regroups f64 additions, so the cold
    /// scan — which re-sums each neighbourhood ascending from scratch — can
    /// differ in the last ulps; the oracle, which mirrors the engine's
    /// op order, is the bit-exact contract.
    #[test]
    fn weighted_kernels_match_the_weight_oracle_and_cold_batch(
        seed in seed_strategy(),
        ops in ops_strategy(),
        bandwidth in 0.3f64..3.0
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for kernel in [Kernel::gaussian(bandwidth), Kernel::exponential(bandwidth)] {
            for &threads in &[1usize, 4] {
                let dpc = DpcParams::new(DC)
                    .with_centers(CenterSelection::GammaGap { max_centers: 8 })
                    .with_kernel(kernel)
                    .with_threads(threads);
                let params = StreamParams::new(DC).with_dpc(dpc.clone());
                for_each_updatable_index!(|name, build| {
                    let mut engine = StreamingDpc::new(
                        build(&Dataset::new(seed_points.clone())),
                        params.clone(),
                    )
                    .map_err(|e| {
                        TestCaseError::fail(format!("[{name}] seeding failed: {e}"))
                    })?;
                    // λ = 1: the oracle reduces to undecayed ±w(d) repair.
                    let mut oracle = DecayOracle::new(&seed_points, DC, 1.0, kernel);
                    for (step, op) in ops.iter().enumerate() {
                        if op.insert || engine.is_empty() {
                            engine.insert(op.point).map_err(|e| {
                                TestCaseError::fail(format!(
                                    "[{name}] step {step}: insert failed: {e}"
                                ))
                            })?;
                            oracle.insert(op.point);
                        } else {
                            let live: Vec<_> = engine.live_handles().collect();
                            let victim = live[op.sel as usize % live.len()];
                            let loc = engine.dense_of(victim).expect("live handle");
                            engine.remove(victim).map_err(|e| {
                                TestCaseError::fail(format!(
                                    "[{name}] step {step}: remove failed: {e}"
                                ))
                            })?;
                            oracle.remove(loc);
                        }
                        prop_assert_eq!(
                            engine.rho(),
                            &oracle.rho[..],
                            "[{}] {} rho diverged from the weight oracle at step {} \
                             (threads {})",
                            name,
                            kernel.name(),
                            step,
                            threads
                        );
                        if engine.is_empty() {
                            continue;
                        }
                        // The centres kept across epochs are those one pass
                        // over the engine's own (ρ, δ) selects, whose ρ may
                        // differ from the cold batch's in the last ulps.
                        let own = DecisionGraph::new(engine.rho().to_vec(), engine.deltas())
                            .and_then(|graph| graph.select_centers(&dpc.centers))
                            .map_err(|e| TestCaseError::fail(e.to_string()))?;
                        prop_assert_eq!(
                            engine.clustering().centers(),
                            &own[..],
                            "[{}] {} centres at step {}",
                            name,
                            kernel.name(),
                            step
                        );
                        let run = DpcPipeline::new(dpc.clone())
                            .run(&build(engine.index().dataset()))
                            .map_err(|e| {
                                TestCaseError::fail(format!(
                                    "[{name}] step {step}: batch run failed: {e}"
                                ))
                            })?;
                        for (p, (&got, &want)) in
                            engine.rho().iter().zip(run.rho.iter()).enumerate()
                        {
                            prop_assert!(
                                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                                "[{}] {} rho[{}] drifted from cold batch at step {}: \
                                 {} vs {}",
                                name, kernel.name(), p, step, got, want
                            );
                        }
                    }
                });
            }
        }
    }

    /// Decayed windows: after every epoch (mutations and pure-decay ticks
    /// alike) the engine's ρ equals the explicit weight-accumulation oracle
    /// bit-for-bit, and δ/µ equal a from-scratch re-rank of the oracle's
    /// table.
    #[test]
    fn decayed_stream_matches_explicit_weight_accumulation(
        seed in seed_strategy(),
        ops in ops_strategy(),
        lambda in lambda_strategy(),
        kernel in decay_kernel_strategy(),
        tick_every in 1usize..4
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        let dpc = DpcParams::new(DC)
            .with_centers(CenterSelection::GammaGap { max_centers: 8 })
            .with_kernel(kernel);
        let params = StreamParams::new(DC).with_dpc(dpc.clone()).with_decay(lambda);
        for_each_updatable_index!(|name, build| {
            let mut engine =
                StreamingDpc::new(build(&Dataset::new(seed_points.clone())), params.clone())
                    .map_err(|e| TestCaseError::fail(format!("[{name}] seeding failed: {e}")))?;
            let mut oracle = DecayOracle::new(&seed_points, DC, lambda, kernel);
            prop_assert_eq!(engine.rho(), &oracle.rho[..], "[{}] seed rho", name);

            for (step, op) in ops.iter().enumerate() {
                if op.insert || engine.is_empty() {
                    engine.insert(op.point).map_err(|e| {
                        TestCaseError::fail(format!("[{name}] step {step}: insert failed: {e}"))
                    })?;
                    oracle.insert(op.point);
                } else {
                    let live: Vec<_> = engine.live_handles().collect();
                    let victim = live[op.sel as usize % live.len()];
                    let loc = engine.dense_of(victim).expect("live handle has a dense id");
                    engine.remove(victim).map_err(|e| {
                        TestCaseError::fail(format!("[{name}] step {step}: remove failed: {e}"))
                    })?;
                    oracle.remove(loc);
                }
                // Skip ticks on an empty window: the engine's tick is a
                // no-op there (no age bump), so the oracle must not age
                // either.
                if (step + 1) % tick_every == 0 && !engine.is_empty() {
                    engine.tick().map_err(|e| {
                        TestCaseError::fail(format!("[{name}] step {step}: tick failed: {e}"))
                    })?;
                    oracle.tick();
                }
                prop_assert_eq!(
                    engine.rho(),
                    &oracle.rho[..],
                    "[{}] rho diverged from the weight oracle at step {}",
                    name,
                    step
                );
                if engine.is_empty() {
                    continue;
                }
                // δ/µ re-rank of the oracle's table, via the reference index
                // (the δ-query is kernel- and decay-agnostic: it consumes ρ
                // only through the density order).
                let fresh = NaiveReferenceIndex::build(engine.index().dataset());
                let deltas = fresh.delta(&Query::new(DC), &oracle.rho).map_err(|e| {
                    TestCaseError::fail(format!("[{name}] step {step}: delta failed: {e}"))
                })?;
                prop_assert_eq!(
                    &engine.deltas().delta,
                    &deltas.delta,
                    "[{}] delta diverged at step {}",
                    name,
                    step
                );
                prop_assert_eq!(
                    &engine.deltas().mu,
                    &deltas.mu,
                    "[{}] mu diverged at step {}",
                    name,
                    step
                );
            }
        });
    }
}

/// The ulp-adversarial generator through the kernel battery: cut-off
/// bit-identity against the cold pipeline for every engine at threads
/// {1, 4}, and a decayed window whose δ/µ
/// re-rank must match a from-scratch re-rank of the explicit weight table.
#[test]
fn ulp_adversarial_points_keep_every_engine_exact() {
    for (seed, dc, w) in [(5u64, 0.6098847240216778, 0.1), (6, 7.799999999999999, 0.3)] {
        let points = ulp_adversarial_points(dc, w, seed);
        let (seed_points, arrivals) = points.split_at(points.len() / 2);
        let ops: Vec<Op> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &point)| Op {
                insert: i % 3 != 2,
                point,
                sel: seed.wrapping_mul(i as u64 + 1),
            })
            .collect();
        for threads in [1usize, 4] {
            for_each_updatable_index!(|name, build| {
                check_kernel_equivalence(
                    name,
                    build,
                    dc,
                    Kernel::Cutoff,
                    seed_points,
                    &ops,
                    threads,
                )
                .unwrap();
            });
        }
        let params = StreamParams::new(dc).with_decay(0.75);
        for_each_updatable_index!(|name, build| {
            let mut engine =
                StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params.clone())
                    .unwrap();
            let mut oracle = DecayOracle::new(seed_points, dc, 0.75, Kernel::Cutoff);
            for &p in arrivals {
                engine.insert(p).unwrap();
                oracle.insert(p);
                engine.tick().unwrap();
                oracle.tick();
                assert_eq!(engine.rho(), &oracle.rho[..], "[{name}] rho");
                let rerank = NaiveReferenceIndex::build(engine.index().dataset())
                    .delta(&Query::new(dc), &oracle.rho)
                    .unwrap();
                assert_eq!(engine.deltas(), &rerank, "[{name}] delta/mu");
            }
        });
    }
}

/// Undecayed weighted windows: `+w − w` repair leaves some densities a few
/// ulps below zero, and the engine must still find the true global peak
/// among them. After every epoch its `(δ, µ)` equal a brute re-rank of its
/// own ρ, for every engine; the run must actually reach negative ρ.
#[test]
fn undecayed_weighted_windows_rerank_exactly_over_their_own_densities() {
    let (window, dc) = (80, 0.1);
    let mut rng = SplitMix64::new(7);
    let points: Vec<Point> = (0..window + 600)
        .map(|_| Point::new(rng.next_f64(), rng.next_f64()))
        .collect();
    let (seed_points, arrivals) = points.split_at(window);
    for kernel in [Kernel::gaussian(dc), Kernel::exponential(dc)] {
        let dpc = DpcParams::new(dc)
            .with_centers(CenterSelection::TopKGamma { k: 4 })
            .with_kernel(kernel);
        let params = StreamParams::new(dc).with_dpc(dpc);
        for_each_updatable_index!(|name, build| {
            let mut engine =
                StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params.clone())
                    .unwrap();
            let mut negative_epochs = 0;
            for (step, &p) in arrivals.iter().enumerate() {
                engine.advance(&[p], 1).unwrap();
                negative_epochs += usize::from(engine.rho().iter().any(|&r| r < 0.0));
                let rerank = NaiveReferenceIndex::build(engine.index().dataset())
                    .delta(&Query::new(dc), engine.rho())
                    .unwrap();
                assert_eq!(
                    engine.deltas(),
                    &rerank,
                    "[{name}] {} δ/µ at step {step}",
                    kernel.name()
                );
            }
            assert!(
                negative_epochs > 0,
                "[{name}] {} never produced a negative ρ",
                kernel.name()
            );
        });
    }
}

/// Regression: a pure decay epoch (`tick`) rescales ρ bit-exactly, re-ranks
/// δ/µ, bumps only the decay counters — and issues **zero** ε-queries.
#[test]
fn decay_tick_reranks_without_eps_queries() {
    let seed = Dataset::new(test_points(TestDistribution::Clustered, 30, 17));
    let dpc = DpcParams::new(60.0)
        .with_centers(CenterSelection::GammaGap { max_centers: 8 })
        .with_kernel(Kernel::gaussian(40.0));
    let params = StreamParams::new(60.0).with_dpc(dpc).with_decay(0.5);
    let mut engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap();

    let rho_before = engine.rho().to_vec();
    let stats_before = engine.stats();
    let delta = engine.tick().unwrap();
    assert_eq!(delta.insertions(), 0);
    assert_eq!(delta.evictions(), 0);

    let stats = engine.stats();
    assert_eq!(
        stats.eps_queries, stats_before.eps_queries,
        "a pure decay epoch must not issue ε-queries"
    );
    assert_eq!(stats.decay_epochs, 1);
    assert_eq!(stats.incremental_epochs, stats_before.incremental_epochs);
    assert_eq!(stats.fallback_epochs, stats_before.fallback_epochs);
    assert_eq!(stats.last_epoch_mode, Some(EpochMode::Decay));

    let expected: Vec<f64> = rho_before.iter().map(|r| r * 0.5).collect();
    assert_eq!(
        engine.rho(),
        &expected[..],
        "tick must rescale ρ bit-exactly"
    );

    // The re-rank really happened: δ/µ equal a fresh re-rank of the scaled ρ.
    let fresh = NaiveReferenceIndex::build(engine.index().dataset());
    let deltas = fresh.delta(&Query::new(60.0), &expected).unwrap();
    assert_eq!(&engine.deltas().delta, &deltas.delta);
    assert_eq!(&engine.deltas().mu, &deltas.mu);
}

/// A λ = 1 tick is a no-op: no epoch is recorded and the state is untouched.
#[test]
fn undecayed_tick_is_a_no_op() {
    let seed = Dataset::new(test_points(TestDistribution::Clustered, 12, 3));
    let params = StreamParams::new(60.0);
    let mut engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap();
    let rho_before = engine.rho().to_vec();
    let delta = engine.tick().unwrap();
    assert!(delta.is_empty());
    assert_eq!(engine.stats().decay_epochs, 0);
    assert_eq!(engine.stats().last_epoch_mode, None);
    assert_eq!(engine.rho(), &rho_before[..]);
}

/// A decayed *mutation* epoch always takes the full-re-rank fallback, even
/// when the affected set is tiny: λ-rescaling can collapse distinct f64
/// densities and flip id tie-breaks anywhere in the window.
#[test]
fn decayed_commit_epochs_always_rerank() {
    let seed = Dataset::new(test_points(TestDistribution::Clustered, 25, 9));
    let params = StreamParams::new(60.0).with_decay(0.9);
    let mut engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap();
    engine
        .insert(test_points(TestDistribution::Clustered, 1, 10)[0])
        .unwrap();
    assert_eq!(engine.stats().last_epoch_mode, Some(EpochMode::Fallback));
}

/// Parameter validation: decay factors outside (0, 1] and non-finite values
/// are rejected at construction with a quoted-value message, matching the
/// `validate_dc` style.
#[test]
fn decay_validation_rejects_out_of_range_values() {
    let seed = Dataset::new(test_points(TestDistribution::Clustered, 5, 1));
    for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        let params = StreamParams::new(60.0).with_decay(bad);
        let err = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params)
            .err()
            .unwrap_or_else(|| panic!("decay {bad} must be rejected"));
        let msg = err.to_string();
        assert!(
            msg.contains("decay"),
            "message must name the parameter: {msg}"
        );
        assert!(msg.contains("got"), "message must quote the value: {msg}");
    }
}

/// Kernel bandwidth validation surfaces through the streaming constructor
/// too — including the ~1.5e-154 squared-underflow guard shared with
/// `validate_dc`.
#[test]
fn kernel_validation_rejects_bad_bandwidths_at_construction() {
    let seed = Dataset::new(test_points(TestDistribution::Clustered, 5, 1));
    for bad in [
        Kernel::gaussian(0.0),
        Kernel::gaussian(-1.0),
        Kernel::gaussian(f64::NAN),
        Kernel::exponential(f64::INFINITY),
        Kernel::gaussian(1e-160), // bandwidth² underflows to 0
    ] {
        let params = StreamParams::new(60.0).with_dpc(DpcParams::new(60.0).with_kernel(bad));
        let err = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params)
            .err()
            .unwrap_or_else(|| panic!("kernel {bad:?} must be rejected"));
        let msg = err.to_string();
        assert!(
            msg.contains("bandwidth"),
            "message must name the parameter: {msg}"
        );
        assert!(
            msg.contains("valid range"),
            "message must state the range: {msg}"
        );
    }
}
