//! Properties of the approximate RN-List solution (§3.3 of the paper).
//!
//! The approximation is one-sided and well characterised:
//!
//! * ρ is exact whenever `dc ≤ τ` and never over-counts otherwise;
//! * δ/µ are exact for every point whose dependent neighbour lies within `τ`;
//! * memory never grows when `τ` shrinks;
//! * with `τ` at least the bounding-box diameter the approximate index
//!   degenerates into the exact one.

use density_peaks::prelude::*;
use dpc_metrics::pair_counting_scores_for;
use proptest::prelude::*;

fn points_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 4..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn approximate_rho_is_exact_below_tau_and_never_overcounts(
        points in points_strategy(),
        dc in 0.5f64..30.0,
        tau in 0.5f64..200.0
    ) {
        let data = Dataset::from_coords(points);
        let exact = ListIndex::build(&data);
        let approx = ListIndex::build_approx(&data, tau);
        let rho_exact = exact.rho(&Query::new(dc)).unwrap();
        let rho_approx = approx.rho(&Query::new(dc)).unwrap();
        for p in 0..data.len() {
            prop_assert!(rho_approx[p] <= rho_exact[p], "over-count at {}", p);
            if dc <= tau {
                prop_assert_eq!(rho_approx[p], rho_exact[p], "mismatch at {} with dc <= tau", p);
            }
        }
    }

    #[test]
    fn approximate_delta_is_exact_for_points_with_near_dependent_neighbours(
        points in points_strategy(),
        dc in 0.5f64..30.0,
        tau in 1.0f64..100.0
    ) {
        let data = Dataset::from_coords(points);
        let exact = ListIndex::build(&data);
        let approx = ListIndex::build_approx(&data, tau);
        // Compare under the same densities (use the exact ones so the density
        // order is identical and only the neighbour truncation differs).
        let rho = exact.rho(&Query::new(dc.min(tau))).unwrap();
        let d_exact = exact.delta(&Query::new(dc.min(tau)), &rho).unwrap();
        let d_approx = approx.delta(&Query::new(dc.min(tau)), &rho).unwrap();
        for p in 0..data.len() {
            if let Some(q_exact) = d_exact.mu(p) {
                if d_exact.delta(p) < tau {
                    prop_assert_eq!(d_approx.mu(p), Some(q_exact), "mu mismatch at {}", p);
                    prop_assert_eq!(d_approx.delta(p), d_exact.delta(p));
                }
            }
        }
    }

    #[test]
    fn memory_never_grows_when_tau_shrinks(points in points_strategy()) {
        let data = Dataset::from_coords(points);
        let small = ListIndex::build_approx(&data, 5.0);
        let medium = ListIndex::build_approx(&data, 25.0);
        let large = ListIndex::build_approx(&data, 500.0);
        prop_assert!(small.lists().total_entries() <= medium.lists().total_entries());
        prop_assert!(medium.lists().total_entries() <= large.lists().total_entries());
        prop_assert!(small.memory_bytes() <= large.memory_bytes());
    }

    #[test]
    fn huge_tau_degenerates_to_the_exact_index(
        points in points_strategy(),
        dc in 0.5f64..30.0
    ) {
        let data = Dataset::from_coords(points);
        let tau = data.bbox_diameter() + 1.0;
        let exact = ListIndex::build(&data);
        let approx = ListIndex::build_approx(&data, tau);
        let (rho_e, delta_e) = exact.rho_delta(&Query::new(dc)).unwrap();
        let (rho_a, delta_a) = approx.rho_delta(&Query::new(dc)).unwrap();
        prop_assert_eq!(rho_a, rho_e);
        // Every stored list now contains every other point, so even the
        // global peak's delta matches (it is the max distance in both).
        for p in 0..data.len() {
            prop_assert_eq!(delta_a.mu(p), delta_e.mu(p));
            if delta_a.mu(p).is_some() {
                prop_assert_eq!(delta_a.delta(p), delta_e.delta(p));
            }
        }
    }

    #[test]
    fn approximate_ch_and_list_agree_with_each_other(
        points in points_strategy(),
        dc in 0.5f64..30.0,
        tau in 1.0f64..100.0,
        w in 0.5f64..20.0
    ) {
        let data = Dataset::from_coords(points);
        let list = ListIndex::build_approx(&data, tau);
        let ch = ChIndex::build_approx(&data, w, tau);
        prop_assert_eq!(list.rho(&Query::new(dc)).unwrap(), ch.rho(&Query::new(dc)).unwrap());
    }
}

#[test]
fn quality_degrades_gracefully_then_collapses_as_tau_shrinks() {
    // The Figure 10 story on a controlled dataset: grid clusters, fixed dc.
    let data = DatasetKind::Birch.generate(5, 0.01).into_dataset(); // 1 000 points
    let dc = 100_000.0;
    let k = 50;
    let params = DpcParams::new(dc).with_centers(CenterSelection::TopKGamma { k });
    let reference = cluster_with_index(&ListIndex::build(&data), &params).unwrap();

    let f1_at = |tau: f64| {
        let approx = ListIndex::build_approx(&data, tau);
        let obtained = cluster_with_index(&approx, &params).unwrap();
        pair_counting_scores_for(&obtained, &reference).f1
    };

    let high = f1_at(250_000.0); // tau well above dc
    let low = f1_at(5_000.0); // tau far below dc
    assert!(
        high > 0.95,
        "tau >= dc must stay essentially exact, F1 = {high}"
    );
    assert!(
        low < high,
        "tiny tau must not beat a sufficient tau (low = {low}, high = {high})"
    );
}
