//! Property-based cross-index consistency: every *exact* index must produce
//! exactly the same ρ, δ and µ as the naive baseline, for arbitrary point
//! sets and arbitrary cut-off distances.
//!
//! This is the central correctness claim of the reproduction: the paper's
//! indices are pure accelerations, not approximations (Theorem 3). "Exactly"
//! means bit for bit, including on inputs planted ulps away from every
//! decision of the distance contract (`dpc_core::metric`).

use density_peaks::core::brute::weighted_rho_scan;
use density_peaks::core::naive_reference::NaiveReferenceIndex;
use density_peaks::core::obs::{MetricsRecorder, NoopRecorder, Recorder};
use density_peaks::core::Kernel;
use density_peaks::datasets::testsupport::ulp_adversarial_points;
use density_peaks::prelude::*;
use proptest::prelude::*;

/// Strategy: between 2 and 60 points with coordinates in [-100, 100].
fn points_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..60)
}

/// Strategy: a cut-off distance spanning tiny to "covers everything".
fn dc_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![0.01f64..1.0, 1.0f64..50.0, 50.0f64..400.0]
}

/// CH bin width for the tests that do not plant points at bin edges.
const BIN_WIDTH: f64 = 7.5;

/// Every exact index: the lean brute-force baseline, the lists,
/// CH at bin width `w` and at a fifteenth of it, and the four spatial
/// indexes. Each test compares all of them with the naive reference.
fn exact_indexes(data: &Dataset, w: f64) -> Vec<(&'static str, Box<dyn DpcIndex>)> {
    vec![
        ("lean", Box::new(LeanDpc::build(data))),
        ("list", Box::new(ListIndex::build(data))),
        ("ch", Box::new(ChIndex::build(data, w))),
        ("ch-fine", Box::new(ChIndex::build(data, w / 15.0))),
        ("quadtree", Box::new(Quadtree::build(data))),
        ("rtree", Box::new(RTree::build(data))),
        ("kdtree", Box::new(KdTree::build(data))),
        ("grid", Box::new(GridIndex::build(data))),
    ]
}

/// The bit patterns of a float column: `assert_eq!` on these is bit
/// identity (no `-0.0 == 0.0` or NaN slack).
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that every exact index returns ρ, δ and µ bit-identical to the
/// naive reference for `query`, with CH at bin width `w`.
fn assert_bit_identical_everywhere(data: &Dataset, query: &Query<'_>, w: f64) {
    let (ref_rho, ref_delta) = NaiveReferenceIndex::build(data).rho_delta(query).unwrap();
    let what = |name: &str| format!("{name} at dc = {:e}, {query:?}", query.dc);
    for (name, index) in exact_indexes(data, w) {
        let (rho, delta) = index.rho_delta(query).unwrap();
        assert_eq!(bits(&rho), bits(&ref_rho), "{}: rho", what(name));
        assert_eq!(
            bits(&delta.delta),
            bits(&ref_delta.delta),
            "{}: delta",
            what(name)
        );
        assert_eq!(delta.mu, ref_delta.mu, "{}: mu", what(name));
    }
}

/// `points` scaled by `2^k`: exact, so every squared distance scales by
/// `4^k` exactly and every decision of the contract is the same at every
/// magnitude.
fn scaled(points: &[(f64, f64)], k: i32) -> Dataset {
    let s = 2f64.powi(k);
    Dataset::from_coords(
        points
            .iter()
            .map(|&(x, y)| (x * s, y * s))
            .collect::<Vec<_>>(),
    )
}

/// A pair whose distance rounds to exactly `dc` but whose squared distance is
/// below `fl(dc²)` is inside `dc`, though a rounded-root comparison would
/// count it out.
#[test]
fn rho_counts_a_pair_whose_root_rounds_to_dc_but_whose_square_is_inside() {
    let points = [(0.0, 0.0), (-0.47764100270488785, -0.379234029499025)];
    for k in [-60, 0, 60] {
        let data = scaled(&points, k);
        let dc = 0.6098847240216778 * 2f64.powi(k);
        let d2 = data.point(0).distance_squared(&data.point(1));
        assert_eq!(d2.sqrt(), dc, "2^{k}: the pair's distance rounds to dc");
        assert!(d2 < dc * dc, "2^{k}: the pair's square is inside dc²");
        let query = Query::new(dc);
        assert_eq!(LeanDpc::build(&data).rho(&query).unwrap(), vec![1.0, 1.0]);
        assert_bit_identical_everywhere(&data, &query, dc / 3.0);
    }
}

/// Two denser candidates whose squared distances are one ulp apart but whose
/// roots are equal: µ is the nearer one in `(fl(d²), id)` order, though the
/// farther one has the smaller id and would win a rounded-`(d, id)` order.
#[test]
fn mu_takes_the_smaller_square_when_two_candidates_share_a_root() {
    let (a, b) = ((0.2195841772600371, 0.9755935573265297), (1.0, 0.0));
    let points = [a, b, (a.0 * 1.01, a.1 * 1.01), (1.01, 0.0), (0.0, 0.0)];
    for k in [-60, 0, 60] {
        let data = scaled(&points, k);
        let s = 2f64.powi(k);
        let probe = data.point(4);
        let (da, db) = (
            data.point(0).distance_squared(&probe),
            data.point(1).distance_squared(&probe),
        );
        assert_eq!(da.to_bits(), db.to_bits() + 1, "2^{k}: one ulp apart");
        assert_eq!(da.sqrt(), db.sqrt(), "2^{k}: same root");
        let query = Query::new(0.05 * s);
        let (rho, delta) = LeanDpc::build(&data).rho_delta(&query).unwrap();
        assert_eq!(rho, vec![1.0, 1.0, 1.0, 1.0, 0.0]);
        assert_eq!((delta.mu(4), delta.delta(4)), (Some(1), s));
        assert_bit_identical_everywhere(&data, &query, 0.01 * s);
    }
}

/// CH bin edges are the multiples of `w`: a running sum of `w` drifts below
/// `26·w`, and at a `dc` just under it would miscount the entries between
/// the drifted edge and `dc`.
#[test]
fn ch_bin_edges_do_not_drift_from_the_multiples_of_the_bin_width() {
    let points = [
        (0.0, 0.0),
        (7.799999999999997, 0.0),
        (7.799999999999998, 0.0),
        (5.0, 0.0),
        (7.9, 0.0),
    ];
    for k in [-60, 0, 60] {
        let data = scaled(&points, k);
        let (dc, w) = (7.799999999999999 * 2f64.powi(k), 0.3 * 2f64.powi(k));
        let query = Query::new(dc);
        let ch = ChIndex::build(&data, w);
        assert_eq!(
            ch.rho(&query).unwrap(),
            vec![3.0, 4.0, 4.0, 4.0, 3.0],
            "2^{k}"
        );
        assert_bit_identical_everywhere(&data, &query, w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_exact_index_matches_the_baseline(points in points_strategy(), dc in dc_strategy()) {
        let data = Dataset::from_coords(points);
        let query = Query::new(dc);
        let (ref_rho, ref_delta) = NaiveReferenceIndex::build(&data).rho_delta(&query).unwrap();

        for (name, index) in exact_indexes(&data, BIN_WIDTH) {
            let (rho, delta) = index.rho_delta(&query).unwrap();
            prop_assert_eq!(&rho, &ref_rho, "rho mismatch for {}", name);
            prop_assert_eq!(&delta.mu, &ref_delta.mu, "mu mismatch for {}", name);
            prop_assert_eq!(
                bits(&delta.delta),
                bits(&ref_delta.delta),
                "delta mismatch for {}", name
            );
        }
    }

    /// The ulp-adversarial generator at the cut-offs of the regression tests
    /// above and at random ones, at magnitudes from 2^-40 to 2^40. The bin
    /// width splits `dc` into a whole number of bins, so `dc` lies within
    /// an ulp or two of a bin edge, where the CH Index is easiest to get
    /// wrong.
    #[test]
    fn ulp_adversarial_inputs_are_bit_identical_across_every_index(
        seed in any::<u64>(),
        dc in prop_oneof![Just(0.6098847240216778), Just(7.799999999999999), 0.1f64..10.0],
        bins_per_dc in 1u32..60,
        k in 0u32..80
    ) {
        let s = 2f64.powi(k as i32 - 40);
        let (dc, w) = (dc * s, dc / f64::from(bins_per_dc) * s);
        let data = Dataset::new(ulp_adversarial_points(dc, w, seed));
        assert_bit_identical_everywhere(&data, &Query::new(dc), w);
    }

    #[test]
    fn parallel_queries_are_bit_identical_to_sequential_for_every_index(
        points in points_strategy(),
        dc in dc_strategy()
    ) {
        // Neither the thread count, the kernel's accelerated traversal nor
        // the recorder may change a result: every index under every query
        // must return the naive reference's ρ, δ and µ bit for bit —
        // including more threads than points (n is 2..60 here, so
        // threads = 7 regularly exceeds n) — and weighted ρ must be the
        // canonical brute-force scan.
        let data = Dataset::from_coords(points);
        let naive = NaiveReferenceIndex::build(&data);
        let indexes = exact_indexes(&data, BIN_WIDTH);
        let metrics = MetricsRecorder::new();
        let recorders: [&dyn Recorder; 2] = [&NoopRecorder, &metrics];
        for kernel in [Kernel::Cutoff, Kernel::gaussian(dc)] {
            let base = Query::new(dc).with_kernel(kernel);
            let ref_rho = weighted_rho_scan(&data, &base);
            let ref_delta = naive.delta(&base, &ref_rho).unwrap();
            prop_assert_eq!(bits(&naive.rho(&base).unwrap()), bits(&ref_rho));
            for exec in [
                ExecPolicy::Sequential,
                ExecPolicy::Threads(1),
                ExecPolicy::Threads(2),
                ExecPolicy::Threads(3),
                ExecPolicy::Threads(7),
            ] {
                for rec in recorders {
                    let query = base.with_exec(exec).with_recorder(rec);
                    for (name, index) in &indexes {
                        let (rho, delta) = index.rho_delta(&query).unwrap();
                        let what = format!("{name} under {query:?}");
                        prop_assert_eq!(bits(&rho), bits(&ref_rho), "rho: {}", what);
                        prop_assert_eq!(
                            bits(&delta.delta), bits(&ref_delta.delta), "delta: {}", what
                        );
                        prop_assert_eq!(&delta.mu, &ref_delta.mu, "mu: {}", what);
                    }
                }
            }
        }
    }

    #[test]
    fn rho_is_symmetric_in_pair_membership(points in points_strategy(), dc in dc_strategy()) {
        // The sum of all densities equals twice the number of close pairs —
        // an invariant that catches double counting or self counting.
        let data = Dataset::from_coords(points);
        let rho = ListIndex::build(&data).rho(&Query::new(dc)).unwrap();
        let mut close_pairs = 0u64;
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                if data.point(i).distance_squared(&data.point(j)) < dc * dc {
                    close_pairs += 1;
                }
            }
        }
        let total: u64 = rho.iter().map(|&r| r as u64).sum();
        prop_assert_eq!(total, 2 * close_pairs);
    }

    #[test]
    fn delta_points_to_a_denser_point_at_that_exact_distance(
        points in points_strategy(),
        dc in dc_strategy()
    ) {
        let data = Dataset::from_coords(points);
        let index = RTree::build(&data);
        let (rho, delta) = index.rho_delta(&Query::new(dc)).unwrap();
        let order = density_peaks::core::DensityOrder::new(&rho);
        delta.validate(&order).unwrap();
        let d2 = |p: usize, q: usize| data.point(p).distance_squared(&data.point(q));
        for p in 0..data.len() {
            if let Some(q) = delta.mu(p) {
                prop_assert_eq!(delta.delta(p), d2(p, q).sqrt());
                // No denser point precedes mu in (d², id) order.
                for r in 0..data.len() {
                    if r != p && order.is_denser(r, p) {
                        prop_assert!((d2(p, r), r) >= (d2(p, q), q));
                    }
                }
            }
        }
    }

    #[test]
    fn clusterings_from_different_indices_are_identical(
        points in points_strategy(),
        dc in 1.0f64..60.0,
        k in 1usize..4
    ) {
        let data = Dataset::from_coords(points);
        let k = k.min(data.len());
        let params = DpcParams::new(dc).with_centers(CenterSelection::TopKGamma { k });
        let reference = cluster_with_index(&LeanDpc::build(&data), &params).unwrap();
        let from_ch = cluster_with_index(&ChIndex::build(&data, 3.0), &params).unwrap();
        let from_quadtree = cluster_with_index(&Quadtree::build(&data), &params).unwrap();
        let from_rtree = cluster_with_index(&RTree::build(&data), &params).unwrap();
        prop_assert_eq!(reference.labels(), from_ch.labels());
        prop_assert_eq!(reference.labels(), from_quadtree.labels());
        prop_assert_eq!(reference.labels(), from_rtree.labels());
        prop_assert_eq!(reference.centers(), from_rtree.centers());
    }
}

#[test]
fn duplicate_and_collinear_points_are_handled_by_every_index() {
    // Degenerate layouts that stress tie-breaking and zero-area boxes.
    let layouts: Vec<Vec<(f64, f64)>> = vec![
        vec![(1.0, 1.0); 12],                       // all identical
        (0..20).map(|i| (i as f64, 0.0)).collect(), // collinear on x
        (0..20).map(|i| (0.0, i as f64)).collect(), // collinear on y
        vec![(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0)], // duplicates
    ];
    for points in layouts {
        let data = Dataset::from_coords(points);
        let naive = NaiveReferenceIndex::build(&data);
        let indexes = exact_indexes(&data, BIN_WIDTH);
        for dc in [0.5, 1.5, 100.0] {
            let query = Query::new(dc);
            let (ref_rho, ref_delta) = naive.rho_delta(&query).unwrap();
            for (name, index) in &indexes {
                let (rho, delta) = index.rho_delta(&query).unwrap();
                assert_eq!(rho, ref_rho, "{name} at dc = {dc}");
                assert_eq!(delta.mu, ref_delta.mu, "{name} at dc = {dc}");
            }
        }
    }
}
