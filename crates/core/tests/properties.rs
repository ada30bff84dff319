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

use std::cmp::Ordering;

use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{
    assign_clusters, AssignmentOptions, BoundingBox, CenterSelection, Dataset, DecisionGraph,
    DeltaResult, DensityOrder, DpcIndex, Point, PointId, Query,
};
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    (-1_000.0f64..1_000.0, -1_000.0f64..1_000.0).prop_map(|(x, y)| Point::new(x, y))
}

fn points_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point_strategy(), 1..max)
}

/// Densities drawn from this table collide exactly, and include the zero,
/// negative zero and negative values a weighted stream can produce.
const RHO_TABLE: [f64; 7] = [-1.5, -0.25, -0.0, 0.0, 1.0, 2.0, 3.0];
/// Dependent distances drawn from this table collide exactly; the
/// decision graph clips the infinite one to the largest finite δ.
const DELTA_TABLE: [f64; 6] = [0.0, 1e-13, 0.5, 1.0, 2.0, f64::INFINITY];

/// A decision graph over `(ρ, δ)` table indices (µ plays no part in
/// centre selection).
fn tabled_graph(entries: &[(usize, usize)]) -> DecisionGraph {
    let rho = entries.iter().map(|&(r, _)| RHO_TABLE[r]).collect();
    let delta = entries.iter().map(|&(_, d)| DELTA_TABLE[d]).collect();
    DecisionGraph::new(rho, &DeltaResult::new(delta, vec![None; entries.len()])).unwrap()
}

/// Every point's γ = ρ·δ, the raw product of its density and clipped δ.
fn gamma_keys(graph: &DecisionGraph) -> Vec<f64> {
    (0..graph.len())
        .map(|p| graph.rho(p) * graph.delta(p))
        .collect()
}

/// Every id ranked by decreasing γ, ties to the smaller id, by a full sort:
/// the ranking centre selection used before it switched to a partial
/// selection.
fn full_sort_gamma_ranking(graph: &DecisionGraph) -> Vec<PointId> {
    let gamma = gamma_keys(graph);
    let mut ids: Vec<PointId> = (0..graph.len()).collect();
    ids.sort_by(|&a, &b| {
        gamma[b]
            .partial_cmp(&gamma[a])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    ids
}

/// Top-k centres from the full-sort ranking, in id order.
fn reference_top_k(graph: &DecisionGraph, k: usize) -> Vec<PointId> {
    let mut centers = full_sort_gamma_ranking(graph)[..k].to_vec();
    centers.sort_unstable();
    centers
}

/// γ-gap centres from the full-sort ranking: cut at the largest relative
/// drop among the first `max_centers + 1` candidates, each divisor floored
/// at 1e-12 of the top γ's magnitude.
fn reference_gamma_gap(graph: &DecisionGraph, max_centers: usize) -> Vec<PointId> {
    let ranking = full_sort_gamma_ranking(graph);
    let gamma = gamma_keys(graph);
    let floor = 1e-12 * gamma[ranking[0]].abs();
    let cap = max_centers.min(ranking.len());
    let (mut best_cut, mut best_ratio) = (1, 0.0f64);
    for i in 0..cap.min(ranking.len() - 1) {
        let ratio = gamma[ranking[i]] / gamma[ranking[i + 1]].max(floor);
        if ratio > best_ratio {
            best_ratio = ratio;
            best_cut = i + 1;
        }
    }
    let mut centers = ranking[..best_cut].to_vec();
    centers.sort_unstable();
    centers
}

/// Labels by the densest-first pass: visit points from densest to
/// sparsest, a centre keeps its own cluster, every other point takes the
/// label of its (already visited) µ, and a point without µ takes the
/// nearest centre (ties to the earlier centre).
fn densest_first_labels(
    data: &Dataset,
    rho: &[f64],
    mu: &[Option<PointId>],
    centers: &[PointId],
) -> Vec<usize> {
    let order = DensityOrder::new(rho);
    let mut ranked: Vec<PointId> = (0..rho.len()).collect();
    ranked.sort_by(|&a, &b| {
        if order.is_denser(a, b) {
            Ordering::Less
        } else if order.is_denser(b, a) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    });
    let mut labels: Vec<Option<usize>> = vec![None; rho.len()];
    for (cluster, &c) in centers.iter().enumerate() {
        labels[c] = Some(cluster);
    }
    for p in ranked {
        if labels[p].is_some() {
            continue;
        }
        let nearest = || {
            let d2 = |c: PointId| data.point(p).distance_squared(&data.point(c));
            let mut best = 0;
            for (cluster, &c) in centers.iter().enumerate() {
                if d2(c) < d2(centers[best]) {
                    best = cluster;
                }
            }
            best
        };
        labels[p] = Some(match mu[p] {
            Some(q) => labels[q].expect("µ is denser, so already labelled"),
            None => nearest(),
        });
    }
    labels.into_iter().map(Option::unwrap).collect()
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

    /// The box-to-box bounds hold for every member pair of two random boxes,
    /// exactly, and never cut tighter than a member's own point-to-box
    /// bounds. Half the coordinates sit a few ulps off a shared base, so
    /// gaps and spans round across their neighbours.
    #[test]
    fn box_to_box_bounds_hold_for_every_member_pair(
        a in prop::collection::vec((0usize..4, 0usize..4, -1e3f64..1e3, -1e3f64..1e3), 1..12),
        b in prop::collection::vec((0usize..4, 0usize..4, -1e3f64..1e3, -1e3f64..1e3), 1..12),
        base in (-1e3f64..1e3, -1e3f64..1e3)
    ) {
        let ulps_off = |v: f64, k: usize| f64::from_bits((v.to_bits() as i64 + k as i64 - 2) as u64);
        let coord = |pick: usize, ulp: usize, free: f64, base: f64| match pick {
            0 => free,
            1 => ulps_off(base, ulp),
            2 => ulps_off(-base, ulp),
            _ => ulps_off(base * 0.5, ulp),
        };
        let members = |raw: &[(usize, usize, f64, f64)]| -> Vec<Point> {
            raw.iter()
                .map(|&(pick, ulp, x, y)| {
                    Point::new(coord(pick, ulp, x, base.0), coord(pick ^ ulp & 1, ulp, y, base.1))
                })
                .collect()
        };
        let (a, b) = (members(&a), members(&b));
        let (box_a, box_b) = (BoundingBox::from_points(&a), BoundingBox::from_points(&b));
        let min2 = box_a.min_dist_squared_to_box(&box_b);
        let max2 = box_a.max_dist_squared_to_box(&box_b);
        prop_assert_eq!(min2, box_b.min_dist_squared_to_box(&box_a));
        prop_assert_eq!(max2, box_b.max_dist_squared_to_box(&box_a));
        let corners = |bb: &BoundingBox| {
            [
                Point::new(bb.min_x(), bb.min_y()),
                Point::new(bb.min_x(), bb.max_y()),
                Point::new(bb.max_x(), bb.min_y()),
                Point::new(bb.max_x(), bb.max_y()),
            ]
        };
        let all_a: Vec<Point> = a.iter().copied().chain(corners(&box_a)).collect();
        let all_b: Vec<Point> = b.iter().copied().chain(corners(&box_b)).collect();
        for p in &all_a {
            prop_assert!(min2 <= box_b.min_dist_squared(*p), "tighter than a member's min");
            prop_assert!(max2 >= box_b.max_dist_squared(*p), "tighter than a member's max");
            for q in &all_b {
                let d2 = p.distance_squared(q);
                prop_assert!(min2 <= d2, "pair {p:?}-{q:?} closer than the box minimum");
                prop_assert!(d2 <= max2, "pair {p:?}-{q:?} farther than the box maximum");
            }
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
    }

    /// The sort key agrees with `is_denser` on every pair, and `global_peak`
    /// is the one point denser than all others, for finite densities with
    /// negatives, both zeros and exact ties.
    #[test]
    fn global_peak_is_the_is_denser_maximum(
        raw in prop::collection::vec((0usize..9, -1e3f64..1e3), 1..48)
    ) {
        let rho: Vec<f64> = raw
            .iter()
            .map(|&(pick, free)| match pick {
                0..=6 => RHO_TABLE[pick],
                7 => free * 1e-300,
                _ => free,
            })
            .collect();
        let order = DensityOrder::new(&rho);
        let n = rho.len();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    order.key(a) > order.key(b),
                    order.is_denser(a, b),
                    "key vs is_denser for ρ {} ({}) and {} ({})", rho[a], a, rho[b], b
                );
            }
        }
        let peak = order.global_peak().unwrap();
        prop_assert!(
            (0..n).all(|q| q == peak || order.is_denser(peak, q)),
            "global_peak {} (ρ {}) is not denser than every other point of {:?}",
            peak, rho[peak], rho
        );
    }

    #[test]
    fn gamma_selection_matches_a_full_sort_reference(
        entries in prop::collection::vec((0usize..7, 0usize..6), 1..48),
        k_pick in 0usize..4,
        max_pick in 0usize..6,
    ) {
        let graph = tabled_graph(&entries);
        let n = graph.len();
        let k = [1, n.saturating_sub(1).max(1), n, 1 + k_pick % n][k_pick];
        let max_centers = [1, 2, n.saturating_sub(1).max(1), n, n + 3, usize::MAX][max_pick];
        prop_assert_eq!(
            graph.select_centers(&CenterSelection::TopKGamma { k }).unwrap(),
            reference_top_k(&graph, k),
            "top-{} of {}", k, n
        );
        prop_assert_eq!(
            graph.select_centers(&CenterSelection::GammaGap { max_centers }).unwrap(),
            reference_gamma_gap(&graph, max_centers),
            "γ-gap with max_centers {} of {}", max_centers, n
        );
    }

    #[test]
    fn assignment_matches_a_densest_first_reference_walk(
        nodes in prop::collection::vec((0usize..7, 0u32..6, 0u32..6, 0usize..1000), 1..48),
        center_picks in prop::collection::vec(0usize..1000, 1..6),
        peak_is_center in any::<bool>(),
    ) {
        // A valid µ forest: each point's µ is a denser point, or none (a
        // root, as an approximate index leaves a truncated point).
        let rho: Vec<f64> = nodes.iter().map(|&(r, ..)| RHO_TABLE[r]).collect();
        let data = Dataset::new(
            nodes.iter().map(|&(_, x, y, _)| Point::new(x as f64, y as f64)).collect(),
        );
        let order = DensityOrder::new(&rho);
        let n = rho.len();
        let mu: Vec<Option<PointId>> = (0..n)
            .map(|p| {
                let pick = nodes[p].3;
                let denser: Vec<PointId> = (0..n).filter(|&q| order.is_denser(q, p)).collect();
                (pick % 5 != 0 && !denser.is_empty()).then(|| denser[pick % denser.len()])
            })
            .collect();
        let peak = order.global_peak().unwrap();
        let mut centers: Vec<PointId> = center_picks.iter().map(|&c| c % n).collect();
        centers.retain(|&c| c != peak);
        if peak_is_center || centers.is_empty() {
            centers.push(peak);
        }
        centers.sort_unstable();
        centers.dedup();
        let deltas = DeltaResult::new(vec![1.0; n], mu.clone());
        let clustering = assign_clusters(
            &data, &order, &deltas, &centers, 1.0, &AssignmentOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(
            clustering.labels(),
            &densest_first_labels(&data, &rho, &mu, &centers)[..]
        );
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
