//! Property-based tests of the core geometric and ordering primitives.
//!
//! The pruning rules of the tree indices are only correct if
//! `min_dist_squared` / `max_dist_squared` really bound every point-to-region
//! squared distance — exactly, with no rounding slack — and the δ semantics
//! are only well defined if the density order is a strict total order —
//! these are the invariants checked here on random inputs. The definition
//! checks of the reference index are written out from the distance contract
//! here rather than calling `dpc_core::brute`, so the kernel is checked
//! against code it does not share.

use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{
    assign_clusters, AssignmentOptions, BoundingBox, CenterSelection, Dataset, DecisionGraph,
    DensityOrder, DpcIndex, Point, Query,
};
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    (-1_000.0f64..1_000.0, -1_000.0f64..1_000.0).prop_map(|(x, y)| Point::new(x, y))
}

fn points_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point_strategy(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bbox_contains_all_generating_points(points in points_strategy(50)) {
        let bb = BoundingBox::from_points(&points);
        for p in &points {
            prop_assert!(bb.contains(*p));
        }
    }

    #[test]
    fn min_and_max_dist_bound_every_contained_point(
        points in points_strategy(50),
        query in point_strategy()
    ) {
        // Monotone rounding makes both bounds exact: no epsilon.
        let bb = BoundingBox::from_points(&points);
        let dmin2 = bb.min_dist_squared(query);
        let dmax2 = bb.max_dist_squared(query);
        prop_assert!(dmin2 <= dmax2);
        for p in &points {
            let d2 = query.distance_squared(p);
            prop_assert!(dmin2 <= d2, "point closer than min_dist_squared");
            prop_assert!(d2 <= dmax2, "point farther than max_dist_squared");
        }
    }

    #[test]
    fn union_is_commutative_and_covers_operands(
        a in points_strategy(20),
        b in points_strategy(20)
    ) {
        let ba = BoundingBox::from_points(&a);
        let bb = BoundingBox::from_points(&b);
        let u1 = ba.union(&bb);
        let u2 = bb.union(&ba);
        prop_assert_eq!(u1, u2);
        prop_assert!(u1.contains_box(&ba));
        prop_assert!(u1.contains_box(&bb));
    }

    #[test]
    fn quadrants_cover_all_contained_points(points in points_strategy(60)) {
        let bb = BoundingBox::from_points(&points);
        if bb.is_empty() || bb.width() == 0.0 || bb.height() == 0.0 {
            return Ok(());
        }
        let quadrants = bb.quadrants();
        for p in &points {
            prop_assert!(
                quadrants.iter().any(|q| q.contains(*p)),
                "point {p:?} not covered by any quadrant"
            );
        }
    }

    #[test]
    fn density_order_is_a_strict_total_order(
        raw in prop::collection::vec(0u32..10, 2..40)
    ) {
        // Half-integer densities exercise the weighted-f64 order too.
        let rho: Vec<f64> = raw.iter().map(|&r| r as f64 * 0.5).collect();
        let order = DensityOrder::new(&rho);
        let n = rho.len();
        for a in 0..n {
            prop_assert!(!order.is_denser(a, a), "irreflexivity");
            for b in 0..n {
                if a != b {
                    prop_assert!(
                        order.is_denser(a, b) != order.is_denser(b, a),
                        "totality/antisymmetry for ({a},{b})"
                    );
                }
                for c in 0..n {
                    if order.is_denser(a, b) && order.is_denser(b, c) {
                        prop_assert!(order.is_denser(a, c), "transitivity for ({a},{b},{c})");
                    }
                }
            }
        }
        // The ranking is consistent with the relation.
        let ranked = order.rank_descending();
        for w in ranked.windows(2) {
            prop_assert!(order.is_denser(w[0], w[1]));
        }
    }

    #[test]
    fn reference_index_rho_delta_satisfy_definitions(
        coords in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..40),
        dc in 0.5f64..150.0
    ) {
        let data = Dataset::from_coords(coords);
        let index = NaiveReferenceIndex::build(&data);
        let (rho, deltas) = index.rho_delta(&Query::new(dc)).unwrap();
        let order = DensityOrder::new(&rho);
        let d2 = |p: usize, q: usize| data.point(p).distance_squared(&data.point(q));
        // Definition of rho.
        for (p, &rho_p) in rho.iter().enumerate() {
            let expected = (0..data.len())
                .filter(|&q| q != p && d2(p, q) < dc * dc)
                .count() as f64;
            prop_assert_eq!(rho_p, expected);
        }
        // Structural validity of delta.
        deltas.validate(&order).unwrap();
        // Definition of delta and mu: the (d², id) minimum over the denser
        // points, rooted once; the global peak gets its largest distance.
        for p in 0..data.len() {
            match deltas.mu(p) {
                Some(m) => {
                    prop_assert_eq!(deltas.delta(p), d2(p, m).sqrt());
                    for q in 0..data.len() {
                        if q != p && order.is_denser(q, p) {
                            prop_assert!((d2(p, q), q) >= (d2(p, m), m), "{} beats mu({})", q, p);
                        }
                    }
                }
                None => {
                    let max = (0..data.len()).map(|q| d2(p, q)).fold(0.0, f64::max);
                    prop_assert_eq!(deltas.delta(p), max.sqrt());
                }
            }
        }
    }

    #[test]
    fn top_k_selection_returns_exactly_k_distinct_centres(
        coords in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
        dc in 1.0f64..100.0,
        k in 1usize..5
    ) {
        let data = Dataset::from_coords(coords);
        let k = k.min(data.len());
        let index = NaiveReferenceIndex::build(&data);
        let (rho, deltas) = index.rho_delta(&Query::new(dc)).unwrap();
        let graph = DecisionGraph::new(rho, &deltas).unwrap();
        let centers = graph.select_centers(&CenterSelection::TopKGamma { k }).unwrap();
        prop_assert_eq!(centers.len(), k);
        let mut sorted = centers.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(centers.iter().all(|&c| c < data.len()));
    }

    #[test]
    fn assignment_is_total_and_respects_centres(
        coords in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
        dc in 1.0f64..100.0,
        k in 1usize..4
    ) {
        let data = Dataset::from_coords(coords);
        let k = k.min(data.len());
        let index = NaiveReferenceIndex::build(&data);
        let (rho, deltas) = index.rho_delta(&Query::new(dc)).unwrap();
        let graph = DecisionGraph::new(rho.clone(), &deltas).unwrap();
        let centers = graph.select_centers(&CenterSelection::TopKGamma { k }).unwrap();
        let order = DensityOrder::new(&rho);
        let clustering = assign_clusters(
            &data, &order, &deltas, &centers, dc, &AssignmentOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(clustering.len(), data.len());
        prop_assert_eq!(clustering.num_clusters(), centers.len());
        // Every label is valid and every centre belongs to its own cluster.
        for p in 0..data.len() {
            prop_assert!(clustering.label(p) < centers.len());
        }
        for (cluster_id, &c) in centers.iter().enumerate() {
            prop_assert_eq!(clustering.label(c), cluster_id);
        }
        // Cluster sizes sum to n.
        prop_assert_eq!(clustering.sizes().iter().sum::<usize>(), data.len());
    }

    #[test]
    fn assignment_follows_the_dependent_neighbour_chain(
        coords in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 4..40),
        dc in 1.0f64..100.0
    ) {
        // With a single centre every point must end up in that cluster, and
        // with centres = all points every point keeps its own label — two
        // degenerate cases that pin the chain-following logic.
        let data = Dataset::from_coords(coords);
        let index = NaiveReferenceIndex::build(&data);
        let (rho, deltas) = index.rho_delta(&Query::new(dc)).unwrap();
        let order = DensityOrder::new(&rho);

        let single = vec![order.global_peak().unwrap()];
        let clustering = assign_clusters(
            &data, &order, &deltas, &single, dc, &AssignmentOptions::default(),
        )
        .unwrap();
        prop_assert!(clustering.labels().iter().all(|&l| l == 0));

        let all: Vec<usize> = (0..data.len()).collect();
        let clustering = assign_clusters(
            &data, &order, &deltas, &all, dc, &AssignmentOptions::default(),
        )
        .unwrap();
        for p in 0..data.len() {
            prop_assert_eq!(clustering.label(p), p);
        }
    }
}
