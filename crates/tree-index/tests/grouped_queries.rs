//! The leaf-group ρ and the own-leaf-seeded δ of the tree indexes against
//! the brute-force kernels of `dpc_core::brute` and the naive reference.
//!
//! The queries answer one leaf at a time, so the inputs aim at leaves:
//! small capacities give many leaves, coincident points overfill a
//! quadtree leaf past its capacity, and random removals leave a k-d tree
//! and a grid with conservative boxes and empty leaves. Points sit on a
//! unit lattice, so whole leaves lie at exactly `dc` from each other and
//! the box-to-box bounds decide them; the ulp-adversarial points plant
//! squared distances a few ulps either side of `dc²`. The thread counts
//! cut the leaf order at different places, and every result and every
//! traversal counter must be the same at each.

use dpc_core::brute::{delta_one, delta_scan, rho_scan, weighted_rho_scan};
use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::obs::MetricsRecorder;
use dpc_core::{
    Dataset, DensityOrder, DpcIndex, ExecPolicy, Kernel, Point, PointId, Query, Rho, UpdatableIndex,
};
use dpc_datasets::testsupport::ulp_adversarial_points;
use dpc_tree_index::query::{self as tree_query, QueryStats};
use dpc_tree_index::{
    DeltaQueryConfig, GridConfig, GridIndex, KdTree, KdTreeConfig, Quadtree, QuadtreeConfig, RTree,
    RTreeConfig, SpatialPartition,
};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 3, 7];
/// Cut-offs on the unit lattice: below every non-zero distance, exactly on
/// lattice distances (1, 2, 3, 5 and the √5 the squares round to), between
/// them, and above the diameter.
const DCS: [f64; 7] = [0.5, 1.0, 2.0, 2.3, 3.0, 5.0, 1.0e6];
/// Side of the lattice the points are drawn from.
const SIDE: u64 = 12;

/// SplitMix64, for the lattice draws and the removals.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` points on a `SIDE × SIDE` unit lattice, possibly coincident, and
/// `pile` copies of one more lattice point.
fn lattice(n: usize, pile: usize, seed: u64) -> Vec<Point> {
    let mut next = rng(seed);
    let mut cell = move || {
        let c = next() % (SIDE * SIDE);
        Point::new((c % SIDE) as f64, (c / SIDE) as f64)
    };
    let heap = cell();
    (0..n)
        .map(|_| cell())
        .chain(std::iter::repeat_n(heap, pile))
        .collect()
}

/// Bit patterns, so that equal means bit-identical.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A density order with a few levels, so that many points tie and the id
/// breaks the tie.
fn tied_rho(n: usize, seed: u64) -> Vec<Rho> {
    let mut next = rng(seed ^ 0x5EED);
    (0..n).map(|_| (next() % 4) as Rho / 3.0).collect()
}

/// Checks one tree against the brute-force kernels and the naive
/// reference over its own dataset: ρ under every kernel, δ and µ under the
/// counted ρ and a tie-heavy ρ, at every thread count with identical
/// counters, and `delta_targets` when the tree has one.
fn check_tree<T>(
    name: &str,
    tree: &T,
    dcs: &[f64],
    updatable: Option<&dyn UpdatableIndex>,
) -> Result<(), TestCaseError>
where
    T: SpatialPartition + DpcIndex + Sync,
{
    let data = tree.dataset();
    let naive = NaiveReferenceIndex::build(data);
    let config = DeltaQueryConfig::default();
    for &dc in dcs {
        for kernel in [
            Kernel::Cutoff,
            Kernel::gaussian(dc),
            Kernel::exponential(0.5),
        ] {
            let what = format!("{name}, dc = {dc}, {}", kernel.name());
            let query = Query::new(dc).with_kernel(kernel);
            let expected = if kernel.is_cutoff() {
                rho_scan(data, &query)
            } else {
                weighted_rho_scan(data, &query)
            };
            let (rho, rho_stats) = tree_query::rho(tree, data, &query);
            prop_assert_eq!(bits(&rho), bits(&expected), "{}: rho", what);
            prop_assert_eq!(bits(&rho), bits(&naive.rho(&query).unwrap()), "{}", what);
            prop_assert_eq!(bits(&tree.rho(&query).unwrap()), bits(&rho), "{}", what);
            if !kernel.is_cutoff() {
                continue;
            }
            for rho in [rho.clone(), tied_rho(data.len(), dc.to_bits())] {
                let order = DensityOrder::new(&rho);
                let expected = delta_scan(data, &order, &query);
                let (delta, delta_stats) = tree_query::delta(tree, data, &rho, &config, &query);
                prop_assert_eq!(bits(&delta.delta), bits(&expected.delta), "{}: delta", what);
                prop_assert_eq!(&delta.mu, &expected.mu, "{}: mu", what);
                let reference = naive.delta(&query, &rho).unwrap();
                prop_assert_eq!(bits(&delta.delta), bits(&reference.delta), "{}", what);
                prop_assert_eq!(&delta.mu, &reference.mu, "{}", what);
                check_threads(
                    tree,
                    &rho,
                    (&rho_stats, &delta, &delta_stats),
                    &query,
                    &what,
                )?;
                if let Some(index) = updatable {
                    let ids: Vec<PointId> = (0..data.len()).rev().step_by(2).collect();
                    let repaired = index.delta_targets(&query, &rho, &ids).unwrap();
                    for (k, &p) in ids.iter().enumerate() {
                        let (d, mu) = delta_one(data, &order, p);
                        prop_assert_eq!(
                            repaired.delta[k].to_bits(),
                            d.to_bits(),
                            "{}: δ({})",
                            what,
                            p
                        );
                        prop_assert_eq!(repaired.mu[k], mu, "{}: µ({})", what, p);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Every thread count gives the sequential ρ, δ and µ bit for bit, the same
/// `QueryStats`, and one chunk sample per worker covering every point.
fn check_threads<T>(
    tree: &T,
    rho: &[Rho],
    (rho_stats, delta, delta_stats): (&QueryStats, &dpc_core::DeltaResult, &QueryStats),
    query: &Query<'_>,
    what: &str,
) -> Result<(), TestCaseError>
where
    T: SpatialPartition + DpcIndex + Sync,
{
    let data = tree.dataset();
    let config = DeltaQueryConfig::default();
    let (seq_rho, _) = tree_query::rho(tree, data, query);
    for t in THREADS {
        let metrics = MetricsRecorder::new();
        let threaded = query
            .with_exec(ExecPolicy::Threads(t))
            .with_recorder(&metrics);
        let (par_rho, par_rho_stats) = tree_query::rho(tree, data, &threaded);
        prop_assert_eq!(bits(&par_rho), bits(&seq_rho), "{}, threads = {}", what, t);
        prop_assert_eq!(&par_rho_stats, rho_stats, "{}, threads = {}", what, t);
        let (par_delta, par_delta_stats) = tree_query::delta(tree, data, rho, &config, &threaded);
        prop_assert_eq!(
            bits(&par_delta.delta),
            bits(&delta.delta),
            "{}, threads = {}",
            what,
            t
        );
        prop_assert_eq!(&par_delta.mu, &delta.mu, "{}, threads = {}", what, t);
        prop_assert_eq!(&par_delta_stats, delta_stats, "{}, threads = {}", what, t);
        let snap = metrics.snapshot();
        for label in ["query.rho.chunk", "query.delta.chunk"] {
            let items = snap.histogram(&format!("{label}.items")).map(|h| h.sum());
            prop_assert_eq!(items, Some(data.len() as u64), "{}, {}", what, label);
            let chunks = snap
                .histogram(&format!("{label}_us"))
                .map(|h| h.count() as usize);
            prop_assert!(chunks <= Some(ExecPolicy::Threads(t).workers(data.len())));
        }
    }
    Ok(())
}

/// Quadtree, R-tree, k-d tree and grid over `points`, with leaves of a few
/// points each; the quadtree stops splitting at depth 5, so a pile of
/// coincident points stays in one overfull leaf.
fn check_every_tree(points: Vec<Point>, dcs: &[f64]) -> Result<(), TestCaseError> {
    let data = Dataset::new(points);
    let quadtree = Quadtree::with_config(
        &data,
        &QuadtreeConfig {
            node_capacity: 3,
            max_depth: 5,
        },
    );
    check_tree("quadtree", &quadtree, dcs, None)?;
    let rtree = RTree::with_config(&data, &RTreeConfig { node_capacity: 4 });
    check_tree("rtree", &rtree, dcs, None)?;
    let kdtree = KdTree::with_config(
        &data,
        &KdTreeConfig {
            leaf_capacity: 3,
            ..Default::default()
        },
    );
    check_tree("kdtree", &kdtree, dcs, Some(&kdtree))?;
    let grid = GridIndex::with_config(
        &data,
        &GridConfig {
            target_points_per_cell: 3,
            ..Default::default()
        },
    );
    check_tree("grid", &grid, dcs, Some(&grid))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_tree_matches_the_brute_kernels_on_the_lattice(
        n in 0usize..70,
        pile in prop_oneof![Just(0usize), Just(1), 9usize..40],
        seed in any::<u64>(),
    ) {
        check_every_tree(lattice(n, pile, seed), &DCS)?;
    }

    #[test]
    fn every_tree_matches_the_brute_kernels_on_ulp_adversarial_points(
        seed in any::<u64>(),
        dc in prop_oneof![Just(1.0f64), Just(0.1), 0.3f64..3.0],
    ) {
        let points = ulp_adversarial_points(dc, dc / 8.0, seed);
        let ulps = |n: i64| f64::from_bits(dc.to_bits().wrapping_add_signed(n));
        check_every_tree(points, &[ulps(-1), dc, ulps(1)])?;
    }

    /// Removals leave the k-d tree (no rebuild: the dead fraction is never
    /// reached) and the grid with conservative boxes, and empty leaves and
    /// cells that the leaf walk must skip.
    #[test]
    fn trees_after_random_removals_match_the_brute_kernels(
        n in 1usize..70,
        pile in prop_oneof![Just(0usize), 9usize..30],
        removals in 0usize..60,
        seed in any::<u64>(),
    ) {
        let data = Dataset::new(lattice(n, pile, seed));
        let mut kdtree = KdTree::with_config(
            &data,
            &KdTreeConfig { leaf_capacity: 3, rebuild_dead_fraction: 1e9 },
        );
        let mut grid = GridIndex::with_config(
            &data,
            &GridConfig { target_points_per_cell: 3, ..Default::default() },
        );
        let mut next = rng(seed ^ 0xDEAD);
        for _ in 0..removals.min(data.len() - 1) {
            let victim = (next() % kdtree.len() as u64) as PointId;
            prop_assert_eq!(kdtree.remove(victim).unwrap(), grid.remove(victim).unwrap());
        }
        kdtree.check_invariants();
        grid.check_invariants();
        prop_assert_eq!(kdtree.dataset().points(), grid.dataset().points());
        check_tree("kdtree", &kdtree, &DCS, Some(&kdtree))?;
        check_tree("grid", &grid, &DCS, Some(&grid))?;
    }
}

/// Two columns of points exactly `dc` apart in two leaves: the group test
/// discards the far leaf at `min = dc²` and counts the own leaf in full, so
/// each group visits three nodes and no member scans a point.
#[test]
fn a_leaf_exactly_dc_away_is_discarded_for_the_whole_group() {
    let column = |x: f64| (0..4).map(move |y| (x, f64::from(y) * 0.25));
    let data = Dataset::from_coords(column(0.0).chain(column(1.0)));
    let tree = KdTree::with_config(
        &data,
        &KdTreeConfig {
            leaf_capacity: 4,
            ..Default::default()
        },
    );
    let (rho, stats) = tree_query::rho(&tree, &data, &Query::new(1.0));
    assert_eq!(rho, vec![3.0; 8]);
    let expected = QueryStats {
        nodes_visited: 6,
        nodes_discarded: 2,
        nodes_fully_contained: 2,
        ..Default::default()
    };
    assert_eq!(stats, expected);
}
