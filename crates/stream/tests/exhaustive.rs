//! A bounded-exhaustive gate for the streaming engine's maintenance.
//!
//! The equivalence proptests draw random cases; this suite enumerates
//! **every** case in a small scope instead, on every engine, and checks
//! after every epoch that ρ, δ, µ, the centres and the labels are
//! bit-identical to a cold [`NaiveReferenceIndex`] run over the window,
//! and that the epoch's [`ClusterDelta`] equals `reference_diff` against
//! the previous epoch.
//!
//! ## The scope
//!
//! Points sit on a 3 × 3 lattice of spacing 0.5: cell `k` is the point
//! `(k mod 3, k div 3) × 0.5`. Coincident points and exact ρ, δ and γ ties
//! are routine there. Each case runs at dc 0.8 and at dc 0.5, where lattice
//! neighbours sit exactly at dc, outside the strict `<`; and with the
//! re-rank fallback at the default 0.6 and disabled (1.0). Centres come
//! from the default `GammaGap`, which clusters every non-empty window. Its
//! m = 33 best candidates hold every window of the scope whole, so the
//! sequences also run `TopKGamma { k: 1 }`, whose m = 1 leaves the bar of
//! the engine's kept candidates at the second γ from three points on.
//!
//! * **Sequences**: every sequence of one-op epochs from an empty window,
//!   under both centre rules. An op is `ins k` (insert cell `k`) or `rm j`
//!   (remove the `j`-th live point in handle order). Every prefix is
//!   checked.
//! * **Plans**: every plan of inserts on the lattice and distinct removals
//!   of seed points, committed as one epoch on every seed multiset, under
//!   the default rule.
//!
//! The default suite runs sequences of up to 3 epochs and 2-op plans on
//! seeds of up to two points, plus the shortest known witnesses of two
//! µ-forest faults that need more ops than that (named cases on every
//! engine). The `#[ignore]`d tests run the full depth:
//! every sequence of 5 epochs (135 594 of them per configuration), and
//! every 3-op plan on the 495 four-point seed multisets. They print their
//! deterministic case counts:
//!
//! ```text
//! cargo test --release -p dpc-stream --test exhaustive -- --ignored --nocapture
//! ```
//!
//! A failure, a panic included, reports its shortest witness, as
//! `[ins 0, ins 0, rm 1]` or as `plan [rm 0, ins 0] over seed cells [0, 2]`.

mod common;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{assignment_of, reference_diff, Assignment};
use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{CenterSelection, Dataset, DpcParams, DpcPipeline, Point, UpdatableIndex};
use dpc_stream::{ClusterDelta, EpochPlan, Handle, StreamParams, StreamingDpc};
use dpc_tree_index::{GridIndex, KdTree, KdTreeConfig};

/// Lattice cells.
const CELLS: usize = 9;
/// The cut-offs: neighbours inside dc, and neighbours exactly at dc.
const DCS: [f64; 2] = [0.8, 0.5];
/// The fallback threshold at its default, and disabled.
const FRACTIONS: [f64; 2] = [0.6, 1.0];
/// The sequences' centre rules: the default `GammaGap { max_centers: 32 }`,
/// and one best γ.
const RULES: [CenterSelection; 2] = [
    CenterSelection::GammaGap { max_centers: 32 },
    CenterSelection::TopKGamma { k: 1 },
];

/// The point of lattice cell `k`.
fn cell(k: usize) -> Point {
    Point::new((k % 3) as f64 * 0.5, (k / 3) as f64 * 0.5)
}

/// One op of a sequence or a plan.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert lattice cell `k`.
    Ins(usize),
    /// Remove the `j`-th live point in handle order (in a plan: the `j`-th
    /// seed point).
    Rm(usize),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Ins(k) => write!(f, "ins {k}"),
            Op::Rm(j) => write!(f, "rm {j}"),
        }
    }
}

fn show(ops: &[Op]) -> String {
    let ops: Vec<String> = ops.iter().map(Op::to_string).collect();
    format!("[{}]", ops.join(", "))
}

/// A small-leaf builder, as in the equivalence suite, so a handful of
/// points already splits the k-d tree.
fn kd_build(data: &Dataset) -> KdTree {
    KdTree::with_config(
        data,
        &KdTreeConfig {
            leaf_capacity: 3,
            ..Default::default()
        },
    )
}

/// Runs `$body` once per engine of the registry, with `$name` bound to its
/// label and `$build` to its builder.
macro_rules! for_each_engine {
    (|$name:ident, $build:ident| $body:expr) => {{
        {
            let ($name, $build) = ("naive", NaiveReferenceIndex::build);
            $body
        }
        {
            let ($name, $build) = ("grid", GridIndex::build);
            $body
        }
        {
            let ($name, $build) = ("kdtree", kd_build);
            $body
        }
    }};
}

/// The cases one run checked, and its failures with the shortest witness.
#[derive(Debug, Default)]
struct Tally {
    cases: u64,
    failures: u64,
    witness: Option<(usize, String)>,
}

impl Tally {
    fn fail(&mut self, length: usize, witness: String) {
        self.failures += 1;
        self.keep_shortest(length, witness);
    }

    fn keep_shortest(&mut self, length: usize, witness: String) {
        if self.witness.as_ref().is_none_or(|(l, _)| length < *l) {
            self.witness = Some((length, witness));
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.cases += other.cases;
        self.failures += other.failures;
        if let Some((length, witness)) = other.witness {
            self.keep_shortest(length, witness);
        }
    }

    fn assert_clean(&self, what: &str) {
        if let Some((_, witness)) = &self.witness {
            panic!(
                "{what}: {} of {} cases failed; shortest witness: {witness}",
                self.failures, self.cases
            );
        }
    }
}

/// Checks the engine after an epoch against a cold run and its delta
/// against the reference diff from `before`. Returns the epoch's assignment,
/// or the first mismatch.
fn check<I: UpdatableIndex>(
    engine: &StreamingDpc<I>,
    delta: &ClusterDelta,
    before: &Assignment,
) -> Result<Assignment, String> {
    let now = assignment_of(engine);
    let expected = reference_diff(engine.epoch(), before, &now);
    if *delta != expected {
        return Err(format!("delta {delta:?}, reference {expected:?}"));
    }
    if engine.is_empty() {
        return match engine.clustering().num_clusters() {
            0 => Ok(now),
            k => Err(format!("an empty window holds {k} clusters")),
        };
    }
    let cold = DpcPipeline::new(engine.params().dpc.clone())
        .run(&NaiveReferenceIndex::build(engine.index().dataset()))
        .map_err(|e| format!("cold run failed: {e}"))?;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(engine.rho()) != bits(&cold.rho) {
        return Err(format!("ρ {:?}, cold {:?}", engine.rho(), cold.rho));
    }
    if bits(&engine.deltas().delta) != bits(&cold.deltas.delta) {
        let (got, want) = (&engine.deltas().delta, &cold.deltas.delta);
        return Err(format!("δ {got:?}, cold {want:?}"));
    }
    if engine.deltas().mu != cold.deltas.mu {
        let (got, want) = (&engine.deltas().mu, &cold.deltas.mu);
        return Err(format!("µ {got:?}, cold {want:?}"));
    }
    if engine.clustering().centers() != cold.clustering.centers() {
        let (got, want) = (engine.clustering().centers(), cold.clustering.centers());
        return Err(format!("centres {got:?}, cold {want:?}"));
    }
    if engine.clustering().labels() != cold.clustering.labels() {
        let (got, want) = (engine.clustering().labels(), cold.clustering.labels());
        return Err(format!("labels {got:?}, cold {want:?}"));
    }
    Ok(now)
}

fn params(dc: f64, fraction: f64, rule: &CenterSelection) -> StreamParams {
    StreamParams::new(dc)
        .with_dpc(DpcParams::new(dc).with_centers(rule.clone()))
        .with_max_affected_fraction(fraction)
}

/// Runs one epoch and its check, turning a panic into a failure.
fn guarded<T>(epoch: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(epoch)).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic");
        Err(format!("panicked: {why}"))
    })
}

/// Every sequence of up to `depth` one-op epochs from an empty window,
/// under every rule of [`RULES`].
fn sequences<I: UpdatableIndex + Clone>(build: fn(&Dataset) -> I, depth: usize) -> Tally {
    let mut tally = Tally::default();
    for rule in &RULES {
        for dc in DCS {
            for fraction in FRACTIONS {
                let empty = build(&Dataset::new(Vec::new()));
                let engine = StreamingDpc::new(empty, params(dc, fraction, rule))
                    .expect("an empty window seeds");
                let mut path = Vec::new();
                let mut run = Tally::default();
                extend(&engine, &Assignment::new(), &mut path, depth, &mut run);
                if let Some((length, witness)) = run.witness.take() {
                    let at = format!("{witness} at dc {dc}, fraction {fraction}, {rule:?}");
                    run.witness = Some((length, at));
                }
                tally.absorb(run);
            }
        }
    }
    tally
}

/// Applies the one-op epoch `op` to `engine` and checks it against the
/// assignment `before` it.
fn step<I: UpdatableIndex>(
    engine: &mut StreamingDpc<I>,
    op: Op,
    before: &Assignment,
) -> Result<Assignment, String> {
    guarded(|| {
        let delta = match op {
            Op::Ins(k) => engine.insert(cell(k)).map(|(_, delta)| delta),
            Op::Rm(j) => {
                let victim = engine.live_handles().nth(j).expect("j < len");
                engine.remove(victim)
            }
        };
        delta
            .map_err(|e| format!("the epoch failed: {e}"))
            .and_then(|delta| check(engine, &delta, before))
    })
}

/// Applies every one-op epoch to `engine`, checks it, and recurses while
/// `depth` allows. A failing prefix is not extended.
fn extend<I: UpdatableIndex + Clone>(
    engine: &StreamingDpc<I>,
    before: &Assignment,
    path: &mut Vec<Op>,
    depth: usize,
    tally: &mut Tally,
) {
    let ops = (0..CELLS).map(Op::Ins).chain((0..engine.len()).map(Op::Rm));
    for op in ops {
        let mut next = engine.clone();
        path.push(op);
        tally.cases += 1;
        match step(&mut next, op, before) {
            Ok(now) if depth > 1 => extend(&next, &now, path, depth - 1, tally),
            Ok(_) => {}
            Err(why) => tally.fail(path.len(), format!("{}: {why}", show(path))),
        }
        path.pop();
    }
}

/// Every non-decreasing list of `len` lattice cells: the seed multisets.
fn multisets(len: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|s: Vec<usize>| {
                let from = s.last().copied().unwrap_or(0);
                (from..CELLS).map(move |k| {
                    let mut next = s.clone();
                    next.push(k);
                    next
                })
            })
            .collect();
    }
    out
}

/// Every plan of `len` ops over a seed of `seed_len` points: inserts of any
/// cell and removals of distinct seed points.
fn plans(len: usize, seed_len: usize) -> Vec<Vec<Op>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|plan: Vec<Op>| {
                let removed = |j: usize| plan.iter().any(|op| matches!(op, Op::Rm(r) if *r == j));
                let next: Vec<Op> = (0..CELLS)
                    .map(Op::Ins)
                    .chain((0..seed_len).filter(|&j| !removed(j)).map(Op::Rm))
                    .collect();
                next.into_iter().map(move |op| {
                    let mut extended = plan.clone();
                    extended.push(op);
                    extended
                })
            })
            .collect();
    }
    out
}

/// Commits `plan` as one epoch to a copy of `engine`, whose seed points
/// have the handles `seeds`, and checks it against the assignment `before`
/// it.
fn commit_plan<I: UpdatableIndex + Clone>(
    engine: &StreamingDpc<I>,
    seeds: &[Handle],
    plan: &[Op],
    before: &Assignment,
) -> Result<(), String> {
    let mut epoch = EpochPlan::new();
    for op in plan {
        match *op {
            Op::Ins(k) => {
                epoch.insert(cell(k));
            }
            Op::Rm(j) => epoch.remove(seeds[j]),
        }
    }
    let mut next = engine.clone();
    guarded(|| {
        next.commit(&epoch)
            .map_err(|e| format!("the epoch failed: {e}"))
            .and_then(|(_, delta)| check(&next, &delta, before))
    })
    .map(drop)
}

/// Every `plan_len`-op plan on every seed multiset of up to `seed_len`
/// points, each committed as one epoch. The seeded state is checked too.
fn seeded_plans<I: UpdatableIndex + Clone>(
    build: fn(&Dataset) -> I,
    seed_lens: std::ops::RangeInclusive<usize>,
    plan_len: usize,
) -> Tally {
    let mut tally = Tally::default();
    for seed_len in seed_lens {
        let plans = plans(plan_len, seed_len);
        for seed in multisets(seed_len) {
            let points: Vec<Point> = seed.iter().map(|&k| cell(k)).collect();
            for dc in DCS {
                for fraction in FRACTIONS {
                    let at = |what: String| {
                        format!("{what} over seed cells {seed:?} at dc {dc}, fraction {fraction}")
                    };
                    let engine = StreamingDpc::new(
                        build(&Dataset::new(points.clone())),
                        params(dc, fraction, &CenterSelection::default()),
                    )
                    .expect("a lattice seed clusters");
                    let handles: Vec<_> = engine.live_handles().collect();
                    let before = assignment_of(&engine);
                    for plan in &plans {
                        tally.cases += 1;
                        if let Err(why) = commit_plan(&engine, &handles, plan, &before) {
                            let witness = at(format!("plan {}: {why}", show(plan)));
                            tally.fail(seed_len + plan.len(), witness);
                        }
                    }
                }
            }
        }
    }
    tally
}

#[test]
fn the_scope_has_the_documented_size() {
    assert_eq!(multisets(4).len(), 495);
    assert_eq!(plans(3, 4).len(), 2049);
    assert_eq!(plans(2, 2).len(), 119);
}

#[test]
fn every_three_epoch_sequence_matches_the_cold_oracle() {
    for_each_engine!(|name, build| {
        let tally = sequences(build, 3);
        tally.assert_clean(name);
        assert_eq!(tally.cases, 8 * (9 + 90 + 972), "[{name}]");
    });
}

#[test]
fn every_two_op_plan_on_a_small_seed_matches_the_cold_oracle() {
    for_each_engine!(|name, build| {
        let tally = seeded_plans(build, 0..=2, 2);
        tally.assert_clean(name);
        assert_eq!(tally.cases, 4 * (81 + 9 * 99 + 45 * 119), "[{name}]");
    });
}

/// The shortest witnesses of two µ-forest faults, beyond the default depth:
/// not renaming the children of the point a swap-remove moves (a sequence
/// of 4 epochs), and not re-checking the children of a point whose ρ fell
/// (5 epochs, and a 3-op plan on a 4-point seed).
#[test]
fn the_forest_witnesses_match_the_cold_oracle() {
    use Op::{Ins, Rm};
    let sequences: [(&[Op], f64, f64); 2] = [
        (&[Ins(0), Ins(2), Ins(1), Rm(0)], 0.8, 0.6),
        (&[Ins(0), Ins(2), Ins(1), Ins(4), Rm(0)], 0.8, 1.0),
    ];
    let (seed_cells, plan) = ([0, 0, 1, 1], [Ins(2), Ins(2), Rm(1)]);
    for_each_engine!(|name, build| {
        for (ops, dc, fraction) in sequences {
            let rule = CenterSelection::default();
            let mut engine = StreamingDpc::new(
                build(&Dataset::new(Vec::new())),
                params(dc, fraction, &rule),
            )
            .expect("an empty window seeds");
            let mut before = Assignment::new();
            for (i, &op) in ops.iter().enumerate() {
                before = step(&mut engine, op, &before).unwrap_or_else(|why| {
                    panic!(
                        "[{name}] {} at dc {dc}, fraction {fraction}: {why}",
                        show(&ops[..=i])
                    )
                });
            }
        }
        for fraction in FRACTIONS {
            let points: Vec<Point> = seed_cells.iter().map(|&k| cell(k)).collect();
            let rule = CenterSelection::default();
            let engine =
                StreamingDpc::new(build(&Dataset::new(points)), params(0.5, fraction, &rule))
                    .expect("a lattice seed clusters");
            let handles: Vec<Handle> = engine.live_handles().collect();
            if let Err(why) = commit_plan(&engine, &handles, &plan, &assignment_of(&engine)) {
                panic!(
                    "[{name}] plan {} over seed cells {seed_cells:?} at dc 0.5, fraction {fraction}: {why}",
                    show(&plan)
                );
            }
        }
    });
}

#[test]
#[ignore = "full depth: run in release, as CI's stream-equivalence job does"]
fn every_five_epoch_sequence_matches_the_cold_oracle() {
    for_each_engine!(|name, build| {
        let tally = sequences(build, 5);
        println!(
            "[{name}] {} five-epoch sequence prefixes checked",
            tally.cases
        );
        tally.assert_clean(name);
    });
}

#[test]
#[ignore = "full depth: run in release, as CI's stream-equivalence job does"]
fn every_three_op_plan_on_a_four_point_seed_matches_the_cold_oracle() {
    for_each_engine!(|name, build| {
        let tally = seeded_plans(build, 4..=4, 3);
        println!(
            "[{name}] {} (seed, plan, dc, fallback) cases checked",
            tally.cases
        );
        tally.assert_clean(name);
    });
}
