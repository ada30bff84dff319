//! Property-based tests of the tree-based index structures: structural
//! invariants and query correctness on arbitrary point sets and parameters.
//!
//! Point sets are drawn from the shared distributions of
//! [`dpc_datasets::testsupport`] (uniform, clustered, skewed, collinear), so
//! this suite and the streaming equivalence suite stress the indexes with
//! the same geometry.

use dpc_baseline::LeanDpc;
use dpc_core::brute::{delta_one, delta_scan, eps_neighbors_scan, weighted_rho_scan};
use dpc_core::{Dataset, DensityOrder, DpcIndex, ExecPolicy, Kernel, Query, UpdatableIndex};
use dpc_datasets::testsupport::{
    test_points, ulp_adversarial_points, TestDistribution, ALL_DISTRIBUTIONS,
};
use dpc_datasets::SplitMix64;
use dpc_tree_index::common::check_partition_invariants;
use dpc_tree_index::query::{self as tree_query, subtree_max_density};
use dpc_tree_index::{
    DeltaQueryConfig, GridConfig, GridIndex, KdTree, KdTreeConfig, Quadtree, QuadtreeConfig, RTree,
    RTreeConfig, SpatialPartition,
};
use proptest::prelude::*;

fn distribution_strategy() -> impl Strategy<Value = TestDistribution> {
    prop_oneof![
        Just(TestDistribution::Uniform),
        Just(TestDistribution::Clustered),
        Just(TestDistribution::Skewed),
        Just(TestDistribution::Collinear),
    ]
}

/// Point sets from the shared test distributions; shrinks over size and
/// seed, which is what reproduces a failure.
fn coords_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (distribution_strategy(), 1usize..60, any::<u64>()).prop_map(|(dist, n, seed)| {
        test_points(dist, n, seed)
            .into_iter()
            .map(|p| (p.x, p.y))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quadtree_invariants_hold_for_any_capacity(
        coords in coords_strategy(),
        capacity in 1usize..16,
        max_depth in 4usize..16
    ) {
        let data = Dataset::from_coords(coords);
        let tree = Quadtree::with_config(
            &data,
            &QuadtreeConfig { node_capacity: capacity, max_depth },
        );
        check_partition_invariants(&tree, &data);
    }

    #[test]
    fn rtree_invariants_hold_for_any_fanout(coords in coords_strategy(), fanout in 2usize..20) {
        let data = Dataset::from_coords(coords);
        let tree = RTree::with_config(
            &data,
            &RTreeConfig { node_capacity: fanout },
        );
        check_partition_invariants(&tree, &data);
    }

    #[test]
    fn kdtree_invariants_hold_for_any_leaf_capacity(
        coords in coords_strategy(),
        capacity in 1usize..16
    ) {
        let data = Dataset::from_coords(coords);
        let tree = KdTree::with_config(
            &data,
            &KdTreeConfig { leaf_capacity: capacity, ..Default::default() },
        );
        check_partition_invariants(&tree, &data);
    }

    #[test]
    fn grid_invariants_hold_for_any_cell_size(
        coords in coords_strategy(),
        cell in 1.0f64..500.0
    ) {
        let data = Dataset::from_coords(coords);
        let grid = GridIndex::with_config(
            &data,
            &GridConfig { cell_size: Some(cell), ..Default::default() },
        );
        check_partition_invariants(&grid, &data);
    }

    #[test]
    fn all_trees_match_the_baseline_for_arbitrary_dc(
        coords in coords_strategy(),
        dc in 0.5f64..1500.0
    ) {
        let data = Dataset::from_coords(coords);
        let baseline = LeanDpc::build(&data);
        let (ref_rho, ref_delta) = baseline.rho_delta(&Query::new(dc)).unwrap();

        let quadtree = Quadtree::build(&data);
        let rtree = RTree::build(&data);
        let kdtree = KdTree::build(&data);
        let grid = GridIndex::build(&data);
        let trees: [(&str, &dyn DpcIndex); 4] = [
            ("quadtree", &quadtree),
            ("rtree", &rtree),
            ("kdtree", &kdtree),
            ("grid", &grid),
        ];
        for (name, tree) in trees {
            let (rho, delta) = tree.rho_delta(&Query::new(dc)).unwrap();
            prop_assert_eq!(&rho, &ref_rho, "{} rho", name);
            prop_assert_eq!(&delta.mu, &ref_delta.mu, "{} mu", name);
        }
    }

    /// The tree-accelerated weighted ρ traversal is **bit-identical** to the
    /// canonical brute-force scan for every truncated kernel, tree family and
    /// thread count, and the cutoff kernel routes through the exact integer
    /// counting path — the contract that lets kernels be swapped under every
    /// index without perturbing a single bit downstream.
    #[test]
    fn weighted_rho_matches_the_scan_for_every_tree(
        coords in coords_strategy(),
        dc in 0.5f64..1500.0,
        bandwidth in 1.0f64..2000.0
    ) {
        let data = Dataset::from_coords(coords);
        let quadtree = Quadtree::build(&data);
        let rtree = RTree::build(&data);
        let kdtree = KdTree::build(&data);
        let grid = GridIndex::build(&data);
        let trees: [(&str, &dyn DpcIndex); 4] = [
            ("quadtree", &quadtree),
            ("rtree", &rtree),
            ("kdtree", &kdtree),
            ("grid", &grid),
        ];
        for kernel in [Kernel::gaussian(bandwidth), Kernel::exponential(bandwidth)] {
            let query = Query::new(dc).with_kernel(kernel);
            let reference = weighted_rho_scan(&data, &query);
            for (name, tree) in trees {
                for threads in [1usize, 4] {
                    let threaded = query.with_exec(ExecPolicy::Threads(threads));
                    let rho = tree.rho(&threaded).unwrap();
                    prop_assert_eq!(
                        &rho, &reference,
                        "{} {} threads={}", name, kernel.name(), threads
                    );
                }
            }
        }
        for (name, tree) in trees {
            let counted = tree.rho(&Query::new(dc)).unwrap();
            let weighted_cutoff = weighted_rho_scan(&data, &Query::new(dc));
            prop_assert_eq!(&weighted_cutoff, &counted, "{} cutoff kernel", name);
        }
    }

    #[test]
    fn subtree_max_density_bounds_every_member(
        coords in coords_strategy(),
        dc in 1.0f64..800.0
    ) {
        let data = Dataset::from_coords(coords);
        let tree = RTree::build(&data);
        let (rho, _) = tree_query::rho(&tree, &data, &Query::new(dc));
        let maxrho = subtree_max_density(&tree, &rho);
        // For every node, maxrho equals the maximum density of the points in
        // its subtree (checked by walking leaves).
        if let Some(root) = tree.root() {
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                let mut points = Vec::new();
                let mut inner = vec![node];
                while let Some(m) = inner.pop() {
                    points.extend(tree.points(m).iter().map(|&q| q as usize));
                    inner.extend_from_slice(tree.children(m));
                }
                let expected = points.iter().map(|&q| rho[q]).fold(0.0f64, f64::max);
                prop_assert_eq!(maxrho[node], expected);
                stack.extend_from_slice(tree.children(node));
            }
        }
    }

    #[test]
    fn pruning_never_changes_the_delta_result(
        coords in coords_strategy(),
        dc in 0.5f64..1000.0
    ) {
        let data = Dataset::from_coords(coords);
        let tree = Quadtree::build(&data);
        let query = Query::new(dc);
        let rho = DpcIndex::rho(&tree, &query).unwrap();
        let configs = [
            DeltaQueryConfig::default(),
            DeltaQueryConfig { density_pruning: true, distance_pruning: false },
            DeltaQueryConfig { density_pruning: false, distance_pruning: true },
            DeltaQueryConfig::no_pruning(),
        ];
        let (reference, _) = tree_query::delta(&tree, &data, &rho, &configs[3], &query);
        for config in &configs[..3] {
            let (result, _) = tree_query::delta(&tree, &data, &rho, config, &query);
            prop_assert_eq!(&result, &reference);
        }
    }

    #[test]
    fn delta_result_is_structurally_valid_for_every_tree(
        coords in coords_strategy(),
        dc in 0.5f64..1000.0
    ) {
        let data = Dataset::from_coords(coords);
        for tree in [
            Box::new(Quadtree::build(&data)) as Box<dyn DpcIndex>,
            Box::new(RTree::build(&data)),
            Box::new(KdTree::build(&data)),
            Box::new(GridIndex::build(&data)),
        ] {
            let (rho, delta) = tree.rho_delta(&Query::new(dc)).unwrap();
            let order = DensityOrder::new(&rho);
            delta.validate(&order).unwrap();
        }
    }

    /// The updatable tree indexes stay structurally sound and query-exact
    /// through arbitrary insert/remove interleavings, on every shared
    /// distribution and on the ulp-adversarial points (`None` below): after
    /// each mutation the structural invariants hold and the ε-query sees
    /// exactly the live points (no tombstone leaks). On the churned
    /// structures ρ, the batch δ-query and `delta_targets` on a random subset
    /// of targets are then bit-identical to the brute-force kernels — under
    /// the counted ρ and under a tie-heavy fractional ρ, the shape of the
    /// weighted and decayed densities the streaming engine re-ranks.
    #[test]
    fn updatable_trees_survive_random_update_sequences(
        input in prop_oneof![distribution_strategy().prop_map(Some), Just(None)],
        n in 2usize..40,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<bool>(), 0usize..1000, any::<u64>()), 1..30)
    ) {
        let dc = 40.0;
        let adversarial = ulp_adversarial_points(dc, dc / 8.0, seed);
        let initial = Dataset::new(match input {
            Some(dist) => test_points(dist, n, seed),
            None => adversarial.clone(),
        });
        let mut kd = KdTree::with_config(
            &initial,
            &KdTreeConfig { leaf_capacity: 4, ..Default::default() },
        );
        let mut grid = GridIndex::build(&initial);
        for &(insert, sel, pseed) in &ops {
            if insert || kd.len() == 0 {
                let p = match input {
                    Some(dist) => test_points(dist, 1, pseed)[0],
                    None => adversarial[pseed as usize % adversarial.len()],
                };
                let a = UpdatableIndex::insert(&mut kd, p).unwrap();
                prop_assert_eq!(UpdatableIndex::insert(&mut grid, p).unwrap(), a);
            } else {
                let victim = sel % kd.len();
                let a = kd.remove(victim).unwrap();
                prop_assert_eq!(grid.remove(victim).unwrap(), a);
            }
            kd.check_invariants();
            grid.check_invariants();
            if kd.len() > 0 {
                let center = kd.dataset().point(sel % kd.len());
                let expected = eps_neighbors_scan(kd.dataset(), center, 50.0).unwrap();
                prop_assert_eq!(&kd.eps_neighbors(center, 50.0).unwrap(), &expected);
                prop_assert_eq!(&grid.eps_neighbors(center, 50.0).unwrap(), &expected);
            }
        }
        let data = kd.dataset();
        prop_assert_eq!(grid.dataset().points(), data.points());
        if data.is_empty() {
            return Ok(());
        }
        let query = Query::new(dc);
        let counted = LeanDpc::build(data).rho(&query).unwrap();
        let mut rng = SplitMix64::new(seed);
        let fractional: Vec<f64> = (0..data.len())
            .map(|_| (rng.next_u64() % 4) as f64 / 3.0)
            .collect();
        let targets: Vec<usize> = (0..=data.len() / 3)
            .map(|_| (rng.next_u64() % data.len() as u64) as usize)
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let trees: [(&str, &dyn UpdatableIndex); 2] = [("kdtree", &kd), ("grid", &grid)];
        for (name, tree) in trees {
            prop_assert_eq!(&tree.rho(&query).unwrap(), &counted, "{} rho after updates", name);
            for rho in [&counted, &fractional] {
                let order = DensityOrder::new(rho);
                let expected = delta_scan(data, &order, &query);
                let got = tree.delta(&query, rho).unwrap();
                prop_assert_eq!(bits(&got.delta), bits(&expected.delta), "{} delta", name);
                prop_assert_eq!(&got.mu, &expected.mu, "{} mu", name);
                let repaired = tree.delta_targets(&query, rho, &targets).unwrap();
                for (k, &p) in targets.iter().enumerate() {
                    let (delta, mu) = delta_one(data, &order, p);
                    prop_assert_eq!(repaired.delta[k].to_bits(), delta.to_bits(), "{} δ({})", name, p);
                    prop_assert_eq!(repaired.mu[k], mu, "{} µ({})", name, p);
                }
            }
        }
    }

    #[test]
    fn node_counts_are_consistent_with_memory_accounting(coords in coords_strategy()) {
        let data = Dataset::from_coords(coords);
        let quadtree = Quadtree::build(&data);
        let rtree = RTree::build(&data);
        // The indices keep a copy of the points, so their footprint is at
        // least the point payload (compare against len * size_of::<Point>,
        // not Dataset::memory_bytes(), because the latter reports the
        // *capacity* of the caller's vector, which proptest may over-allocate).
        let point_payload = data.len() * std::mem::size_of::<dpc_core::Point>();
        prop_assert!(quadtree.memory_bytes() >= point_payload);
        prop_assert!(rtree.memory_bytes() >= point_payload);
        if !data.is_empty() {
            prop_assert!(quadtree.num_nodes() >= 1);
            prop_assert!(rtree.num_nodes() >= 1);
            prop_assert!(rtree.height() >= 1);
        }
    }
}

/// Every index family passes the structural invariants on every shared
/// distribution — in particular the collinear one, whose zero-area boxes and
/// duplicate coordinates are the classic way to break median splits and
/// area-based R-tree heuristics.
#[test]
fn all_indexes_handle_every_shared_distribution() {
    for dist in ALL_DISTRIBUTIONS {
        let data = Dataset::new(test_points(dist, 150, 42));
        check_partition_invariants(&Quadtree::build(&data), &data);
        KdTree::build(&data).check_structure();
        RTree::build(&data).check_structure();
        GridIndex::build(&data).check_structure();
    }
}
