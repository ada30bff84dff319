//! Property-based tests of the list-based index structures.

use dpc_baseline::LeanDpc;
use dpc_core::obs::MetricsRecorder;
use dpc_core::{Dataset, DensityOrder, DpcIndex, Query};
use dpc_list_index::{ChIndex, ListIndex, NeighborLists};
use proptest::prelude::*;

fn coords_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-200.0f64..200.0, -200.0f64..200.0), 2..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nlists_are_sorted_complete_and_self_free(coords in coords_strategy()) {
        let data = Dataset::from_coords(coords);
        let lists = NeighborLists::build(&data, None);
        for p in 0..data.len() {
            let list = lists.list(p);
            // Complete: every other point appears exactly once.
            prop_assert_eq!(list.len(), data.len() - 1);
            let mut ids: Vec<usize> = list.iter().map(|nb| nb.point_id()).collect();
            ids.sort_unstable();
            let expected: Vec<usize> = (0..data.len()).filter(|&q| q != p).collect();
            prop_assert_eq!(ids, expected);
            // Sorted by (d², id) and squared distances are exact.
            for w in list.windows(2) {
                prop_assert!((w[0].dist_sq, w[0].id) < (w[1].dist_sq, w[1].id));
            }
            for nb in list {
                prop_assert_eq!(nb.dist_sq, data.point(p).distance_squared(&data.point(nb.point_id())));
            }
        }
    }

    #[test]
    fn count_within_matches_a_naive_count(coords in coords_strategy(), dc in 0.1f64..500.0) {
        let data = Dataset::from_coords(coords);
        let lists = NeighborLists::build(&data, None);
        for p in 0..data.len() {
            let naive = (0..data.len())
                .filter(|&q| q != p && data.point(p).distance_squared(&data.point(q)) < dc * dc)
                .count();
            prop_assert_eq!(lists.count_within(p, dc), naive);
        }
    }

    #[test]
    fn rn_lists_store_exactly_the_neighbours_within_tau(
        coords in coords_strategy(),
        tau in 1.0f64..300.0
    ) {
        let data = Dataset::from_coords(coords);
        let lists = NeighborLists::build(&data, Some(tau));
        for p in 0..data.len() {
            let expected: usize = (0..data.len())
                .filter(|&q| q != p && data.point(p).distance_squared(&data.point(q)) < tau * tau)
                .count();
            prop_assert_eq!(lists.list(p).len(), expected);
            prop_assert!(lists.list(p).iter().all(|nb| nb.dist_sq < tau * tau));
        }
    }

    #[test]
    fn list_index_matches_baseline_for_arbitrary_dc(
        coords in coords_strategy(),
        dc in 0.1f64..600.0
    ) {
        let data = Dataset::from_coords(coords);
        let index = ListIndex::build(&data);
        let baseline = LeanDpc::build(&data);
        let (rho_i, delta_i) = index.rho_delta(&Query::new(dc)).unwrap();
        let (rho_b, delta_b) = baseline.rho_delta(&Query::new(dc)).unwrap();
        prop_assert_eq!(rho_i, rho_b);
        prop_assert_eq!(delta_i, delta_b);
    }

    #[test]
    fn ch_index_rho_is_invariant_to_bin_width(
        coords in coords_strategy(),
        dc in 0.1f64..600.0,
        w1 in 0.5f64..50.0,
        w2 in 50.0f64..800.0
    ) {
        let data = Dataset::from_coords(coords);
        let list = ListIndex::build(&data);
        let fine = ChIndex::build(&data, w1);
        let coarse = ChIndex::build(&data, w2);
        let expected = list.rho(&Query::new(dc)).unwrap();
        prop_assert_eq!(fine.rho(&Query::new(dc)).unwrap(), expected.clone());
        prop_assert_eq!(coarse.rho(&Query::new(dc)).unwrap(), expected);
    }

    #[test]
    fn ch_histograms_are_monotone_and_end_at_the_list_length(
        coords in coords_strategy(),
        w in 0.5f64..200.0
    ) {
        let data = Dataset::from_coords(coords);
        let ch = ChIndex::build(&data, w);
        // The cumulative property is observable through rho at bin
        // boundaries: rho(k*w) never decreases with k and reaches n-1 once
        // k*w exceeds the diameter.
        let diameter = data.bbox_diameter();
        let mut prev = vec![0.0f64; data.len()];
        let mut k = 1usize;
        loop {
            let dc = k as f64 * w;
            let rho = ch.rho(&Query::new(dc)).unwrap();
            for p in 0..data.len() {
                prop_assert!(rho[p] >= prev[p], "rho must be monotone in dc");
            }
            prev = rho;
            if dc > diameter {
                prop_assert!(prev.iter().all(|&r| r as usize == data.len() - 1));
                break;
            }
            k += 1;
            if k > 10_000 {
                break; // safety for pathological (tiny w, huge diameter) combinations
            }
        }
    }

    #[test]
    fn delta_probe_count_is_bounded_by_total_entries(
        coords in coords_strategy(),
        dc in 0.5f64..400.0
    ) {
        let data = Dataset::from_coords(coords);
        let index = ListIndex::build(&data);
        let metrics = MetricsRecorder::new();
        let query = Query::new(dc).with_recorder(&metrics);
        let rho = index.rho(&query).unwrap();
        index.delta(&query, &rho).unwrap();
        let probes = metrics.snapshot().counter("query.delta.probes").unwrap();
        prop_assert!(probes <= index.lists().total_entries() as u64);
        prop_assert!(probes >= (data.len() as u64).saturating_sub(1));
    }

    #[test]
    fn approximate_and_exact_memory_ordering(coords in coords_strategy(), tau in 1.0f64..100.0) {
        let data = Dataset::from_coords(coords);
        let exact = ListIndex::build(&data);
        let approx = ListIndex::build_approx(&data, tau);
        prop_assert!(approx.lists().total_entries() <= exact.lists().total_entries());
        prop_assert!(approx.memory_bytes() <= exact.memory_bytes() + 64);
    }
}

#[test]
fn ch_bin_boundary_regression_cases() {
    // Regression guard for the exact-boundary arithmetic of Algorithm 4:
    // distances that are exact multiples of the bin width.
    let data = Dataset::from_coords(vec![
        (0.0, 0.0),
        (1.0, 0.0),
        (2.0, 0.0),
        (3.0, 0.0),
        (4.0, 0.0),
    ]);
    let ch = ChIndex::build(&data, 1.0);
    let baseline = LeanDpc::build(&data);
    for dc in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0] {
        assert_eq!(
            ch.rho(&Query::new(dc)).unwrap(),
            baseline.rho(&Query::new(dc)).unwrap(),
            "dc = {dc}"
        );
    }
    // Delta is consistent with the density order for every dc as well.
    for dc in [1.0, 2.0, 4.0] {
        let rho = ch.rho(&Query::new(dc)).unwrap();
        let deltas = ch.delta(&Query::new(dc), &rho).unwrap();
        deltas.validate(&DensityOrder::new(&rho)).unwrap();
    }
}
