//! Step 4 of DPC: assigning every point to the cluster of its dependent
//! neighbour, plus the optional halo (border-noise) computation of the
//! original DPC paper.
//!
//! Once the centres are chosen, every other point inherits the label of its
//! dependent neighbour `µ`, which is denser. So a point belongs to the first
//! centre on its µ chain: the chain climbs strictly in density and ends at a
//! centre or at a point without `µ`. The pass walks each chain up to the
//! first point that already has a label and hands that label down the whole
//! walked path, so every point is visited once and nothing is sorted. This
//! is the `O(n)` fourth step of the original algorithm and is reused
//! unchanged by every index-based variant in the paper.

use crate::cluster::Clustering;
use crate::delta::{DeltaResult, DensityOrder};
use crate::error::{DpcError, Result};
use crate::point::{Dataset, PointId};

/// Options controlling the assignment step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssignmentOptions {
    /// When `true`, compute the cluster halos: for every cluster the *border
    /// density* is the highest density among its points that lie within `dc`
    /// of a point of another cluster; members with density below the border
    /// density are flagged as halo (potential noise). This follows the
    /// original DPC paper. The computation is `O(n²)` in the worst case and
    /// is therefore opt-in.
    pub compute_halo: bool,
}

impl AssignmentOptions {
    /// Options with halo computation enabled.
    pub fn with_halo() -> Self {
        AssignmentOptions { compute_halo: true }
    }
}

/// Assigns every point to a cluster.
///
/// * `dataset` — the points (needed for the nearest-centre fallback and the
///   halo computation);
/// * `order` — the density total order (provides `ρ` and tie-breaking);
/// * `deltas` — the δ/µ query result;
/// * `centers` — the chosen cluster centres, sorted ascending;
/// * `dc` — the cut-off distance (used only for the halo computation);
/// * `options` — see [`AssignmentOptions`].
///
/// Points whose `µ` is unknown (the global peak when it is not itself a
/// centre, or points truncated by an approximate index) fall back to the
/// nearest centre by squared distance (ties to the earlier centre), which
/// keeps the assignment total. So does a point whose `µ` is neither denser
/// nor a centre; the walk never follows such a link, so a µ cycle cannot
/// loop.
pub fn assign_clusters(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    deltas: &DeltaResult,
    centers: &[PointId],
    dc: f64,
    options: &AssignmentOptions,
) -> Result<Clustering> {
    let n = dataset.len();
    if n == 0 {
        return Ok(Clustering::new(vec![], vec![], vec![]));
    }
    if centers.is_empty() {
        return Err(DpcError::invalid_parameter(
            "centers",
            "at least one cluster centre is required",
        ));
    }
    if order.len() != n || deltas.len() != n {
        return Err(DpcError::LengthMismatch {
            expected: n,
            actual: order.len().min(deltas.len()),
            what: "assignment inputs",
        });
    }
    for &c in centers {
        if c >= n {
            return Err(DpcError::invalid_parameter(
                "centers",
                format!("centre {c} is out of range (n = {n})"),
            ));
        }
    }

    const UNASSIGNED: usize = usize::MAX;
    let mut labels = vec![UNASSIGNED; n];
    // Centres are their own clusters; cluster id = rank of centre in the
    // (sorted) centre list.
    for (cluster_id, &c) in centers.iter().enumerate() {
        labels[c] = cluster_id;
    }

    // Climb each unlabelled point's µ chain to the first labelled point and
    // label the whole path with its label. A step is taken only to a denser
    // point, so a walk ends. A link to a point that is neither denser nor a
    // centre (an inconsistent µ, such as a cycle) ends the walk with the
    // nearest-centre fallback, as does a missing µ.
    let mut path: Vec<PointId> = Vec::new();
    for start in 0..n {
        if labels[start] != UNASSIGNED {
            continue;
        }
        let mut p = start;
        let label = loop {
            path.push(p);
            match deltas.mu(p) {
                Some(q) if order.is_denser(q, p) => {
                    if labels[q] != UNASSIGNED {
                        break labels[q];
                    }
                    p = q;
                }
                Some(q) if labels[q] != UNASSIGNED && centers[labels[q]] == q => break labels[q],
                _ => break nearest_center(dataset, p, centers),
            }
        };
        for &q in &path {
            labels[q] = label;
        }
        path.clear();
    }

    let halo = if options.compute_halo {
        compute_halo(dataset, order, &labels, centers.len(), dc)
    } else {
        vec![false; n]
    };

    Ok(Clustering::new(labels, centers.to_vec(), halo))
}

/// Index (cluster id) of the centre nearest to `p`: the first of `centers`
/// at the smallest squared distance. The assignment's fallback for a point
/// without a denser `µ`.
pub fn nearest_center(dataset: &Dataset, p: PointId, centers: &[PointId]) -> usize {
    let mut best = 0usize;
    let mut best_d2 = f64::INFINITY;
    for (cluster_id, &c) in centers.iter().enumerate() {
        let d2 = dataset.point(p).distance_squared(&dataset.point(c));
        if d2 < best_d2 {
            best_d2 = d2;
            best = cluster_id;
        }
    }
    best
}

/// Computes the halo flags following the original DPC paper: for every
/// cluster, the border density is the maximum density of a member lying
/// within `dc` of a member of a different cluster; members with strictly
/// lower density than the border density are halo points. `labels` are
/// cluster ids below `num_clusters`, one per point.
pub fn compute_halo(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    labels: &[usize],
    num_clusters: usize,
    dc: f64,
) -> Vec<bool> {
    let (n, pts) = (dataset.len(), dataset.points());
    let rho = order.rho();
    let dc2 = dc * dc;
    let mut border_density = vec![0.0f64; num_clusters];
    for i in 0..n {
        for j in (i + 1)..n {
            if labels[i] != labels[j] && pts[i].distance_squared(&pts[j]) < dc2 {
                border_density[labels[i]] = border_density[labels[i]].max(rho[i]);
                border_density[labels[j]] = border_density[labels[j]].max(rho[j]);
            }
        }
    }
    (0..n).map(|p| rho[p] < border_density[labels[p]]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{DpcIndex, Query};
    use crate::naive_reference::NaiveReferenceIndex;
    use crate::point::Point;

    /// Two tight blobs plus one isolated point halfway between them.
    fn dataset() -> Dataset {
        Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.0, 0.1),
            Point::new(0.1, 0.1),
            Point::new(10.0, 10.0),
            Point::new(10.1, 10.0),
            Point::new(10.0, 10.1),
            Point::new(5.0, 5.0),
        ])
    }

    fn rho_delta(data: &Dataset, dc: f64) -> (Vec<crate::density::Rho>, DeltaResult) {
        NaiveReferenceIndex::build(data)
            .rho_delta(&Query::new(dc))
            .unwrap()
    }

    #[test]
    fn assignment_follows_mu_chain() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let centers = vec![0, 4];
        let clustering = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert_eq!(clustering.num_clusters(), 2);
        // Blob around origin.
        for p in 0..4 {
            assert_eq!(clustering.label(p), clustering.label(0), "point {p}");
        }
        // Blob around (10, 10).
        for p in 4..7 {
            assert_eq!(clustering.label(p), clustering.label(4), "point {p}");
        }
        // The two blobs are distinct clusters.
        assert_ne!(clustering.label(0), clustering.label(4));
    }

    #[test]
    fn centres_label_themselves() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let centers = vec![0, 4];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert_eq!(c.label(0), 0);
        assert_eq!(c.label(4), 1);
    }

    #[test]
    fn isolated_point_is_assigned_somewhere() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let centers = vec![0, 4];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        // Point 7 sits exactly between the blobs; it must still receive one
        // of the two labels (DPC assigns every point).
        assert!(c.label(7) < 2);
    }

    #[test]
    fn global_peak_not_a_centre_falls_back_to_nearest_centre() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let peak = order.global_peak().unwrap();
        // Pick centres that deliberately exclude the global peak.
        let centers: Vec<PointId> = vec![4, 7];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        // The peak is in the origin blob, nearest centre is 7 (at 5,5) vs 4 (10,10).
        assert_eq!(c.label(peak), 1);
    }

    /// A µ cycle, which no exact index produces, must not send the walk
    /// round and round. The walk only climbs to denser points, so the
    /// cycle's densest point, whose µ points down, takes its nearest centre
    /// and the rest of the cycle follows it.
    #[test]
    fn a_mu_cycle_falls_back_to_the_nearest_centre() {
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),  // centre of cluster 0
            Point::new(10.0, 0.0), // centre of cluster 1
            Point::new(9.0, 0.0),  // 2 -> 3 -> 4 -> 2, all beside centre 1
            Point::new(9.5, 0.5),
            Point::new(9.0, 1.0),
        ]);
        let rho = vec![5.0, 5.0, 3.0, 2.0, 1.0];
        let deltas = DeltaResult::new(vec![1.0; 5], vec![None, None, Some(3), Some(4), Some(2)]);
        let order = DensityOrder::new(&rho);
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &[0, 1],
            1.0,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert_eq!(c.labels(), &[0, 1, 1, 1, 1]);
    }

    #[test]
    fn no_centres_is_an_error() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        assert!(assign_clusters(
            &data,
            &order,
            &deltas,
            &[],
            0.3,
            &AssignmentOptions::default()
        )
        .is_err());
    }

    #[test]
    fn out_of_range_centre_is_an_error() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        assert!(assign_clusters(
            &data,
            &order,
            &deltas,
            &[999],
            0.3,
            &AssignmentOptions::default()
        )
        .is_err());
    }

    #[test]
    fn halo_disabled_by_default() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &[0, 4],
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert_eq!(c.halo_count(), 0);
    }

    #[test]
    fn halo_flags_border_points_between_touching_clusters() {
        // Two 7x7 grid clusters whose facing edges lie within dc of each
        // other. The sparse edge/corner points must be flagged as halo while
        // the dense cluster cores must not.
        let mut pts = Vec::new();
        for x0 in [0.0, 1.6] {
            for i in 0..7 {
                for j in 0..7 {
                    pts.push(Point::new(x0 + i as f64 * 0.2, j as f64 * 0.2));
                }
            }
        }
        let data = Dataset::new(pts);
        let dc = 0.5;
        let (rho, deltas) = rho_delta(&data, dc);
        let order = DensityOrder::new(&rho);
        // Densest point of each half as centres.
        let peak_a = (0..49).max_by_key(|&p| order.key(p)).unwrap();
        let peak_b = (49..98).max_by_key(|&p| order.key(p)).unwrap();
        let centers = vec![peak_a, peak_b];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            dc,
            &AssignmentOptions::with_halo(),
        )
        .unwrap();
        assert!(c.halo_count() > 0, "facing edges must produce halo points");
        assert!(!c.is_halo(peak_a), "cluster core must not be halo");
        assert!(!c.is_halo(peak_b), "cluster core must not be halo");
        // The facing corner of the first grid (i=6, j=0 -> id 42) is sparse
        // and adjacent to the other cluster, so it must be halo.
        assert!(c.is_halo(42));
    }

    /// Regression pin for centre/assignment determinism when two candidate
    /// peaks are *exactly* tied: equal ρ, equal δ (hence equal γ).
    ///
    /// Two coincident pairs, far apart: every point has ρ = 1, and both pair
    /// leaders (ids 0 and 2) end up with δ = 10 — the decision graph cannot
    /// separate them on (ρ, δ) alone. The pinned behaviour is the workspace
    /// convention used everywhere else: ties resolve towards the smaller id
    /// (γ ranking is stable by id, the density order ranks equal densities
    /// by the smaller id, equidistant µ candidates pick the smaller id). The
    /// streaming engine re-runs this selection + assignment every epoch, so
    /// any drift here would make incremental and batch runs diverge.
    #[test]
    fn equal_rho_equal_delta_peaks_assign_deterministically() {
        use crate::decision::{CenterSelection, DecisionGraph};
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
        ]);
        let dc = 1.0;
        let (rho, deltas) = rho_delta(&data, dc);
        // Both pair leaders are exact ties on the decision graph.
        assert_eq!(rho, vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(deltas.delta, vec![10.0, 0.0, 10.0, 0.0]);

        let run_once = || {
            let graph = DecisionGraph::new(rho.clone(), &deltas).unwrap();
            let centers = graph
                .select_centers(&CenterSelection::TopKGamma { k: 2 })
                .unwrap();
            let order = DensityOrder::new(&rho);
            let clustering = assign_clusters(
                &data,
                &order,
                &deltas,
                &centers,
                dc,
                &AssignmentOptions::default(),
            )
            .unwrap();
            (centers, clustering)
        };

        let (centers, clustering) = run_once();
        // Tie resolves to the smaller ids: the two pair leaders.
        assert_eq!(centers, vec![0, 2]);
        assert_eq!(clustering.labels(), &[0, 0, 1, 1]);
        // Re-running the selection + assignment is bit-identical (the
        // streaming engine does this every epoch).
        let (centers2, clustering2) = run_once();
        assert_eq!(centers, centers2);
        assert_eq!(clustering, clustering2);
    }

    #[test]
    fn empty_dataset_gives_empty_clustering() {
        let data = Dataset::new(vec![]);
        let rho: Vec<crate::density::Rho> = vec![];
        let order = DensityOrder::new(&rho);
        let deltas = DeltaResult::unset(0);
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &[],
            1.0,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert!(c.is_empty());
    }
}
