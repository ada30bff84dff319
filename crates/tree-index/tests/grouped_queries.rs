//! The leaf-group ρ and the group δ search of the tree indexes against the
//! brute-force kernels of `dpc_core::brute` and the naive reference.
//!
//! The queries answer one leaf at a time, so the inputs aim at leaves:
//! small capacities give many leaves, coincident points overfill a
//! quadtree leaf past its capacity, and random removals leave a k-d tree
//! and a grid with conservative boxes and empty leaves. Points sit on a
//! unit lattice, so whole leaves lie at exactly `dc` from each other and
//! the box-to-box bounds decide them; the ulp-adversarial points plant
//! squared distances a few ulps either side of `dc²`. The batch δ runs
//! under every combination of the two pruning rules, and `delta_targets`
//! groups shuffled, duplicated targets, the global peak among them, by
//! leaf. The thread counts cut the
//! group order at different places, and every result and every traversal
//! counter must be the same at each.

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

/// The four combinations of the two pruning rules.
fn configs() -> [DeltaQueryConfig; 4] {
    [(true, true), (true, false), (false, true), (false, false)].map(
        |(density_pruning, distance_pruning)| DeltaQueryConfig {
            density_pruning,
            distance_pruning,
        },
    )
}

/// The leaf holding each point of `tree`, from a walk of its leaves.
fn leaf_map<T: SpatialPartition + DpcIndex>(tree: &T) -> Vec<usize> {
    let mut leaf = vec![usize::MAX; tree.dataset().len()];
    let mut stack: Vec<usize> = tree.root().into_iter().collect();
    while let Some(node) = stack.pop() {
        stack.extend_from_slice(tree.children(node));
        for &p in tree.points(node) {
            leaf[p as usize] = node;
        }
    }
    leaf
}

/// The global peak of `rho`: the point with no denser point.
fn peak(rho: &[Rho]) -> Option<PointId> {
    let order = DensityOrder::new(rho);
    (0..rho.len()).max_by_key(|&p| order.key(p))
}

/// Target lists for `delta_targets`, each shuffled and with every third
/// target repeated: every point of the fullest leaf, and one point of every
/// leaf, each with the global peak of `rho`, whose δ is its farthest
/// distance.
fn target_lists<T: SpatialPartition + DpcIndex>(
    tree: &T,
    rho: &[Rho],
    seed: u64,
) -> [Vec<PointId>; 2] {
    let leaf = leaf_map(tree);
    let mut by_leaf = std::collections::BTreeMap::<usize, Vec<PointId>>::new();
    for (p, &l) in leaf.iter().enumerate() {
        by_leaf.entry(l).or_default().push(p);
    }
    let first_of_each = by_leaf.values().map(|members| members[0]).collect();
    let fullest = by_leaf
        .into_values()
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let mut next = rng(seed ^ 0x7A12);
    [fullest, first_of_each].map(|mut targets| {
        targets.extend(peak(rho));
        let repeats: Vec<PointId> = targets.iter().copied().step_by(3).collect();
        targets.extend(repeats);
        for i in (1..targets.len()).rev() {
            targets.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        targets
    })
}

/// Checks one tree against the brute-force kernels and the naive
/// reference over its own dataset: ρ under every kernel; δ and µ under the
/// counted ρ and a tie-heavy ρ, with every pruning configuration, at every
/// thread count with identical counters; and `delta_targets` on shuffled,
/// duplicated targets, through the tree's own leaf map when it has one.
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
            check_rho_threads(tree, (&rho, &rho_stats), &query, &what)?;
            for rho in [rho.clone(), tied_rho(data.len(), dc.to_bits())] {
                let order = DensityOrder::new(&rho);
                let expected = delta_scan(data, &order, &query);
                let reference = naive.delta(&query, &rho).unwrap();
                prop_assert_eq!(bits(&reference.delta), bits(&expected.delta), "{}", what);
                prop_assert_eq!(&reference.mu, &expected.mu, "{}", what);
                for config in configs() {
                    let what = format!("{what}, {config:?}");
                    let (delta, delta_stats) = tree_query::delta(tree, data, &rho, &config, &query);
                    prop_assert_eq!(bits(&delta.delta), bits(&expected.delta), "{}: delta", what);
                    prop_assert_eq!(&delta.mu, &expected.mu, "{}: mu", what);
                    check_delta_threads(
                        tree,
                        &rho,
                        &config,
                        (&delta, &delta_stats),
                        &query,
                        &what,
                    )?;
                }
                for targets in target_lists(tree, &rho, dc.to_bits()) {
                    check_targets(tree, &rho, &query, &targets, &what)?;
                }
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

/// Every thread count gives the sequential ρ bit for bit, the same
/// `QueryStats`, and one chunk sample per worker covering every point.
fn check_rho_threads<T>(
    tree: &T,
    (rho, rho_stats): (&[Rho], &QueryStats),
    query: &Query<'_>,
    what: &str,
) -> Result<(), TestCaseError>
where
    T: SpatialPartition + DpcIndex + Sync,
{
    let data = tree.dataset();
    for t in THREADS {
        let metrics = MetricsRecorder::new();
        let threaded = query
            .with_exec(ExecPolicy::Threads(t))
            .with_recorder(&metrics);
        let (par_rho, par_rho_stats) = tree_query::rho(tree, data, &threaded);
        prop_assert_eq!(bits(&par_rho), bits(rho), "{}, threads = {}", what, t);
        prop_assert_eq!(&par_rho_stats, rho_stats, "{}, threads = {}", what, t);
        check_chunks(&metrics, "query.rho.chunk", data.len(), t, what)?;
    }
    Ok(())
}

/// Every thread count gives the sequential δ and µ of `config` bit for bit,
/// the same `QueryStats`, and one chunk sample per worker covering every
/// point.
fn check_delta_threads<T>(
    tree: &T,
    rho: &[Rho],
    config: &DeltaQueryConfig,
    (delta, delta_stats): (&dpc_core::DeltaResult, &QueryStats),
    query: &Query<'_>,
    what: &str,
) -> Result<(), TestCaseError>
where
    T: SpatialPartition + DpcIndex + Sync,
{
    let data = tree.dataset();
    for t in THREADS {
        let metrics = MetricsRecorder::new();
        let threaded = query
            .with_exec(ExecPolicy::Threads(t))
            .with_recorder(&metrics);
        let (par_delta, par_delta_stats) = tree_query::delta(tree, data, rho, config, &threaded);
        prop_assert_eq!(
            bits(&par_delta.delta),
            bits(&delta.delta),
            "{}, threads = {}",
            what,
            t
        );
        prop_assert_eq!(&par_delta.mu, &delta.mu, "{}, threads = {}", what, t);
        prop_assert_eq!(&par_delta_stats, delta_stats, "{}, threads = {}", what, t);
        check_chunks(&metrics, "query.delta.chunk", data.len(), t, what)?;
    }
    Ok(())
}

/// The `label` chunks of a query over `n` points at `t` threads cover every
/// point, with at most one chunk per worker.
fn check_chunks(
    metrics: &MetricsRecorder,
    label: &str,
    n: usize,
    t: usize,
    what: &str,
) -> Result<(), TestCaseError> {
    let snap = metrics.snapshot();
    let items = snap.histogram(&format!("{label}.items")).map(|h| h.sum());
    prop_assert_eq!(items, Some(n as u64), "{}, {}", what, label);
    let chunks = snap
        .histogram(&format!("{label}_us"))
        .map(|h| h.count() as usize);
    prop_assert!(chunks <= Some(ExecPolicy::Threads(t).workers(n)));
    Ok(())
}

/// `tree_query::delta_targets` over `targets`, with the leaves of a walk as
/// its leaf map, gives every target's `brute::delta_one` bit for bit, and
/// the same result and `QueryStats` at every thread count. Returns the
/// sequential counters.
fn check_targets<T>(
    tree: &T,
    rho: &[Rho],
    query: &Query<'_>,
    targets: &[PointId],
    what: &str,
) -> Result<QueryStats, TestCaseError>
where
    T: SpatialPartition + DpcIndex + Sync,
{
    let data = tree.dataset();
    let order = DensityOrder::new(rho);
    let leaf = leaf_map(tree);
    let run = |query: &Query<'_>| {
        tree_query::delta_targets(tree, data, rho, query, targets, |p: PointId| leaf[p])
    };
    let (seq, seq_stats) = run(query);
    for (k, &p) in targets.iter().enumerate() {
        let (d, mu) = delta_one(data, &order, p);
        prop_assert_eq!(seq.delta[k].to_bits(), d.to_bits(), "{}: δ({})", what, p);
        prop_assert_eq!(seq.mu[k], mu, "{}: µ({})", what, p);
    }
    for t in THREADS {
        let (par, par_stats) = run(&query.with_exec(ExecPolicy::Threads(t)));
        prop_assert_eq!(
            bits(&par.delta),
            bits(&seq.delta),
            "{}, threads = {}",
            what,
            t
        );
        prop_assert_eq!(&par.mu, &seq.mu, "{}, threads = {}", what, t);
        prop_assert_eq!(&par_stats, &seq_stats, "{}, threads = {}", what, t);
    }
    Ok(seq_stats)
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

/// Eight clusters of four points on a diagonal, one k-d tree leaf each. In
/// the first cluster the densest member's nearest denser point is the peak,
/// six leaves away, while its group-mates find their µ inside their own
/// leaf and close at the first node they pop. One group answers all four
/// exactly, and visits fewer nodes than four searches of one.
#[test]
fn the_densest_member_searches_far_while_its_group_mates_close_at_home() {
    let corners = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)];
    let data = Dataset::from_coords((0..8).flat_map(|j| {
        corners.map(|(dx, dy)| (10.0 * f64::from(j) + dx, 10.0 * f64::from(j) + dy))
    }));
    let tree = KdTree::with_config(
        &data,
        &KdTreeConfig {
            leaf_capacity: 4,
            ..Default::default()
        },
    );
    let leaf = leaf_map(&tree);
    for cluster in leaf.chunks(4) {
        assert!(
            cluster.iter().all(|&l| l == cluster[0]),
            "one leaf per cluster"
        );
    }
    let mut rho = vec![1.0; data.len()];
    rho[..4].copy_from_slice(&[3.0, 2.0, 4.0, 1.0]);
    let peak = 6 * 4 + 1;
    rho[peak] = 5.0;
    let query = Query::new(1.0);
    let targets = [3, 0, 2, 1];
    let what = "the first cluster";
    let grouped = check_targets(&tree, &rho, &query, &targets, what).unwrap();
    let (found, _) = tree_query::delta_targets(&tree, &data, &rho, &query, &targets, |p| leaf[p]);
    assert_eq!(found.mu, vec![Some(1), Some(2), Some(peak), Some(0)]);
    assert_ne!(leaf[peak], leaf[2]);
    let mut alone = QueryStats::default();
    for p in targets {
        alone.merge(&check_targets(&tree, &rho, &query, &[p], what).unwrap());
    }
    assert!(
        grouped.nodes_visited < alone.nodes_visited,
        "one group visited {} nodes, four searches of one {}",
        grouped.nodes_visited,
        alone.nodes_visited
    );
}

/// The peak of an 8 × 10 block of lattice points 2 apart, and one point far
/// out at (40, 30): the peak's farthest point. Its δ is that distance, from
/// the batch δ under every pruning rule, from `delta_targets` and from the
/// updatable indexes' own `delta_targets`, bit for bit as
/// `brute::delta_one` gives it.
fn check_farthest<T>(name: &str, tree: &T, updatable: Option<&dyn UpdatableIndex>)
where
    T: SpatialPartition + DpcIndex + Sync,
{
    let data = tree.dataset();
    let at = |x: f64, y: f64| {
        let p = Point::new(x, y);
        data.points().iter().position(|&q| q == p).unwrap()
    };
    let (top, far) = (at(-1.0, -1.0), at(40.0, 30.0));
    let mut rho = vec![1.0; data.len()];
    rho[top] = 9.0;
    assert_eq!(peak(&rho), Some(top));
    let order = DensityOrder::new(&rho);
    let expected = delta_one(data, &order, top);
    assert_eq!(expected, (data.distance(top, far), None), "{name}");
    let query = Query::new(1.0);
    for config in configs() {
        let (delta, _) = tree_query::delta(tree, data, &rho, &config, &query);
        let got = (delta.delta[top], delta.mu[top]);
        assert_eq!(got, expected, "{name}, {config:?}");
    }
    check_targets(tree, &rho, &query, &[top, far, top], name).unwrap();
    if let Some(index) = updatable {
        let repaired = index.delta_targets(&query, &rho, &[top]).unwrap();
        assert_eq!((repaired.delta[0], repaired.mu[0]), expected, "{name}");
    }
}

/// How many points share the leaf that holds `p`.
fn leaf_size<T: SpatialPartition + DpcIndex>(tree: &T, p: Point) -> usize {
    let leaf = leaf_map(tree);
    let k = tree
        .dataset()
        .points()
        .iter()
        .position(|&q| q == p)
        .unwrap();
    leaf.iter().filter(|&&l| l == leaf[k]).count()
}

/// The block of [`check_farthest`], its far point, and `extra` more.
fn block_and_far(extra: &[(f64, f64)]) -> Dataset {
    let block = (0..80).map(|i| (f64::from(i % 8) * 2.0 - 7.0, f64::from(i / 8) * 2.0 - 9.0));
    Dataset::from_coords(block.chain([(40.0, 30.0)]).chain(extra.iter().copied()))
}

/// The peak's farthest point sits alone in a far leaf, behind the block's
/// nearer and fuller leaves, on the quadtree, the R-tree and the grid (the
/// k-d tree's median splits leave no point alone at build). Then two decoys
/// farther out than it are removed from a k-d tree and a grid, with the far
/// point's leaf-mates: the far point is alone in both, and the decoys'
/// leaves keep stale boxes that reach past it, and the grid empty cells.
#[test]
fn the_peaks_farthest_point_alone_in_a_far_leaf_behind_nearer_fuller_leaves() {
    let far = Point::new(40.0, 30.0);
    let data = block_and_far(&[]);
    let quadtree = Quadtree::with_config(
        &data,
        &QuadtreeConfig {
            node_capacity: 3,
            max_depth: 5,
        },
    );
    let rtree = RTree::with_config(&data, &RTreeConfig { node_capacity: 4 });
    let kdtree = KdTree::with_config(
        &data,
        &KdTreeConfig {
            leaf_capacity: 3,
            ..Default::default()
        },
    );
    let grid = GridIndex::with_config(
        &data,
        &GridConfig {
            target_points_per_cell: 3,
            ..Default::default()
        },
    );
    assert_eq!(leaf_size(&quadtree, far), 1, "quadtree");
    assert_eq!(leaf_size(&rtree, far), 1, "rtree");
    assert_eq!(leaf_size(&grid, far), 1, "grid");
    check_farthest("quadtree", &quadtree, None);
    check_farthest("rtree", &rtree, None);
    check_farthest("kdtree", &kdtree, Some(&kdtree));
    check_farthest("grid", &grid, Some(&grid));

    let decoys = [(-50.0, -45.0), (-45.0, 48.0)];
    let data = block_and_far(&decoys);
    let mut kdtree = KdTree::with_config(
        &data,
        &KdTreeConfig {
            leaf_capacity: 3,
            rebuild_dead_fraction: 1e9,
        },
    );
    let mut grid = GridIndex::with_config(
        &data,
        &GridConfig {
            target_points_per_cell: 3,
            ..Default::default()
        },
    );
    let leaf = leaf_map(&kdtree);
    let k = |p: Point| data.points().iter().position(|&q| q == p).unwrap();
    let mut victims: Vec<Point> = (0..data.len())
        .filter(|&q| leaf[q] == leaf[k(far)] && data.point(q) != far)
        .map(|q| data.point(q))
        .collect();
    victims.extend(decoys.map(|(x, y)| Point::new(x, y)));
    let stale = decoys.map(|(x, y)| leaf[k(Point::new(x, y))]);
    for victim in victims {
        let id = kdtree
            .dataset()
            .points()
            .iter()
            .position(|&q| q == victim)
            .unwrap();
        assert_eq!(kdtree.remove(id).unwrap(), grid.remove(id).unwrap());
    }
    kdtree.check_invariants();
    grid.check_invariants();
    assert_eq!(leaf_size(&kdtree, far), 1, "kdtree after removals");
    assert_eq!(leaf_size(&grid, far), 1, "grid after removals");
    // The decoys' leaves still hold block points, in boxes that reach
    // farther from the peak than the far point.
    let top = Point::new(-1.0, -1.0);
    for node in stale {
        let bbox = kdtree.bbox(node);
        assert!(
            bbox.max_dist_squared(top) > far.distance_squared(&top),
            "{bbox:?}"
        );
        assert!(!kdtree.points(node).is_empty(), "{bbox:?}");
    }
    check_farthest("kdtree after removals", &kdtree, Some(&kdtree));
    check_farthest("grid after removals", &grid, Some(&grid));
}
