//! A k-nearest-neighbour density variant of DPC (extension).
//!
//! The paper's related work (Wang & Song, *Automatic clustering via outward
//! statistical testing on density metrics*, TKDE 2016 — reference \[27\])
//! replaces the cut-off-distance density with a kNN-based density: dense
//! points have their k nearest neighbours very close. This removes the `dc`
//! parameter entirely (only `k` remains) and is a natural extension of the
//! List Index, whose sorted N-Lists give the k nearest neighbours of every
//! point for free.
//!
//! The density score used here is `k / Σ_{i≤k} dist(p, nn_i(p))` — the
//! inverse of the mean distance to the k nearest neighbours. Scores are
//! converted to dense ranks so that the integer-density machinery of
//! `dpc-core` (the [`DensityOrder`], the δ-scan, the decision graph and the
//! assignment step) is reused unchanged.

use std::time::{Duration, Instant};

use dpc_core::{
    assign_clusters, AssignmentOptions, CenterSelection, Clustering, Dataset, DecisionGraph,
    DeltaResult, DensityOrder, DpcError, ExecPolicy, PointId, Result, Rho,
};
use dpc_core::{exec, obs::NoopRecorder};

use crate::nlist::NeighborLists;

/// kNN-density DPC on top of per-object neighbour lists.
#[derive(Debug, Clone)]
pub struct KnnDpc {
    dataset: Dataset,
    lists: NeighborLists,
    construction_time: Duration,
}

impl KnnDpc {
    /// Builds the kNN-DPC structure (full N-Lists).
    pub fn build(dataset: &Dataset) -> Self {
        let timer = Instant::now();
        let lists = NeighborLists::build(dataset, None);
        KnnDpc {
            dataset: dataset.clone(),
            lists,
            construction_time: timer.elapsed(),
        }
    }

    /// Reuses already-built neighbour lists (they must be full N-Lists,
    /// i.e. built without a `τ` threshold, so that every k is answerable).
    ///
    /// # Panics
    /// Panics if the lists were built with a threshold or cover a different
    /// number of points than the dataset.
    pub fn from_lists(dataset: &Dataset, lists: NeighborLists) -> Self {
        assert!(
            lists.tau().is_none(),
            "KnnDpc requires full (untruncated) neighbour lists"
        );
        assert_eq!(lists.len(), dataset.len(), "lists must cover the dataset");
        KnnDpc {
            dataset: dataset.clone(),
            lists,
            construction_time: Duration::ZERO,
        }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Construction time of the underlying lists.
    pub fn construction_time(&self) -> Duration {
        self.construction_time
    }

    /// Heap footprint (same as the List Index).
    pub fn memory_bytes(&self) -> usize {
        self.lists.memory_bytes() + self.dataset.memory_bytes()
    }

    fn validate_k(&self, k: usize) -> Result<()> {
        let n = self.dataset.len();
        if n < 2 {
            return Err(DpcError::EmptyDataset);
        }
        if k == 0 || k >= n {
            return Err(DpcError::invalid_parameter(
                "k",
                format!("k must satisfy 1 <= k < n (n = {n}), got {k}"),
            ));
        }
        Ok(())
    }

    /// Distance from `p` to its k-th nearest neighbour.
    pub fn knn_distance(&self, p: PointId, k: usize) -> f64 {
        self.lists.list(p)[k - 1].dist_sq.sqrt()
    }

    /// The kNN density score of one point: `k / Σ_{i≤k} dist(p, nnᵢ)`.
    /// Larger is denser. Coincident points get `+∞`-like scores capped by the
    /// rank conversion, so they are simply the densest.
    pub fn density_score(&self, p: PointId, k: usize) -> f64 {
        let sum: f64 = self.lists.list(p)[..k]
            .iter()
            .map(|nb| nb.dist_sq.sqrt())
            .sum();
        if sum <= 0.0 {
            f64::INFINITY
        } else {
            k as f64 / sum
        }
    }

    /// Dense ranks of the kNN density scores (0 = sparsest), suitable as the
    /// integer densities expected by the rest of the workspace. Points with
    /// equal scores share a rank.
    ///
    /// The per-point score computation is partitioned across the policy's
    /// worker threads (the rank conversion itself is a cheap sequential
    /// sort); results are bit-identical at every thread count.
    pub fn density_ranks(&self, k: usize, policy: ExecPolicy) -> Result<Vec<Rho>> {
        self.validate_k(k)?;
        let n = self.dataset.len();
        let mut scores = vec![0.0f64; n];
        let score = |p, _: &mut ()| self.density_score(p, k);
        exec::fill_slice(&mut scores, policy, &NoopRecorder, "", || (), score);
        let mut by_score: Vec<PointId> = (0..n).collect();
        by_score.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        let mut ranks = vec![0.0 as Rho; n];
        let mut rank = 0.0 as Rho;
        for (i, &p) in by_score.iter().enumerate() {
            if i > 0 && scores[p] > scores[by_score[i - 1]] {
                rank += 1.0;
            }
            ranks[p] = rank;
        }
        Ok(ranks)
    }

    /// Computes the kNN densities (as ranks) and the dependent distances in
    /// one call. Both the density scores and the δ list scans run on the
    /// chunked parallel engine under `policy`; results are bit-identical at
    /// every thread count.
    pub fn rho_delta(&self, k: usize, policy: ExecPolicy) -> Result<(Vec<Rho>, DeltaResult)> {
        let ranks = self.density_ranks(k, policy)?;
        let order = DensityOrder::new(&ranks);
        let (deltas, _) = self.lists.delta_by_scan(&order, policy, &NoopRecorder);
        Ok((ranks, deltas))
    }

    /// Full kNN-DPC clustering: density ranks, δ, centre selection and
    /// assignment. No `dc` is needed anywhere.
    pub fn cluster(&self, k: usize, selection: &CenterSelection) -> Result<Clustering> {
        let (ranks, deltas) = self.rho_delta(k, ExecPolicy::Sequential)?;
        let graph = DecisionGraph::new(ranks.clone(), &deltas)?;
        let centers = graph.select_centers(selection)?;
        let order = DensityOrder::new(&ranks);
        // The assignment step only uses a distance for the (disabled) halo
        // computation; the median k-distance is a sensible stand-in.
        let mut kdists: Vec<f64> = (0..self.dataset.len())
            .map(|p| self.knn_distance(p, k))
            .collect();
        kdists.sort_by(f64::total_cmp);
        let pseudo_dc = kdists[kdists.len() / 2].max(f64::MIN_POSITIVE);
        assign_clusters(
            &self.dataset,
            &order,
            &deltas,
            &centers,
            pseudo_dc,
            &AssignmentOptions::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::Point;
    use dpc_datasets::generators::s1;
    use dpc_metrics_free::assert_same_partition;

    /// Tiny local helper avoiding a dev-dependency cycle on dpc-metrics:
    /// checks that two labelings induce the same partition.
    mod dpc_metrics_free {
        use dpc_core::Clustering;
        use std::collections::HashMap;

        pub fn assert_same_partition(a: &Clustering, b: &Clustering) {
            assert_eq!(a.len(), b.len());
            let mut forward: HashMap<usize, usize> = HashMap::new();
            let mut backward: HashMap<usize, usize> = HashMap::new();
            for p in 0..a.len() {
                let (la, lb) = (a.label(p), b.label(p));
                assert_eq!(*forward.entry(la).or_insert(lb), lb, "point {p}");
                assert_eq!(*backward.entry(lb).or_insert(la), la, "point {p}");
            }
        }
    }

    fn blobs() -> Dataset {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (5.0, 9.0)] {
            for i in 0..6 {
                for j in 0..6 {
                    pts.push(Point::new(cx + i as f64 * 0.1, cy + j as f64 * 0.1));
                }
            }
        }
        Dataset::new(pts)
    }

    #[test]
    fn density_ranks_are_a_permutation_compatible_ranking() {
        let data = blobs();
        let knn = KnnDpc::build(&data);
        let ranks = knn.density_ranks(5, ExecPolicy::Sequential).unwrap();
        assert_eq!(ranks.len(), data.len());
        // Ranks are bounded by n-1 and the densest rank is achieved.
        let max = ranks.iter().copied().fold(0.0f64, f64::max) as usize;
        assert!(max < data.len());
        // Denser score => higher or equal rank.
        for p in 0..data.len() {
            for q in 0..data.len() {
                if knn.density_score(p, 5) > knn.density_score(q, 5) {
                    assert!(ranks[p] > ranks[q], "{p} vs {q}");
                }
            }
        }
    }

    #[test]
    fn knn_distance_is_monotone_in_k() {
        let data = blobs();
        let knn = KnnDpc::build(&data);
        for p in 0..data.len() {
            for k in 1..10 {
                assert!(knn.knn_distance(p, k) <= knn.knn_distance(p, k + 1));
            }
        }
    }

    #[test]
    fn clusters_three_blobs_without_a_dc_parameter() {
        let data = blobs();
        let knn = KnnDpc::build(&data);
        let clustering = knn
            .cluster(6, &CenterSelection::TopKGamma { k: 3 })
            .unwrap();
        assert_eq!(clustering.num_clusters(), 3);
        assert_eq!(clustering.sizes(), vec![36, 36, 36]);
    }

    #[test]
    fn agrees_with_cutoff_dpc_on_well_separated_data() {
        // On cleanly separated blobs the kNN variant and the classic cut-off
        // variant must produce the same partition (up to label permutation).
        let data = s1(71, 0.06).into_dataset(); // 300 points
        let knn = KnnDpc::build(&data);
        let knn_clustering = knn
            .cluster(8, &CenterSelection::TopKGamma { k: 15 })
            .unwrap();

        let list = crate::list::ListIndex::build(&data);
        let params =
            dpc_core::DpcParams::new(30_000.0).with_centers(CenterSelection::TopKGamma { k: 15 });
        let cutoff_clustering = dpc_core::pipeline::cluster_with_index(&list, &params).unwrap();

        // Both produce 15 clusters with very similar size distributions
        // (label ids may differ, so compare the sorted size multisets).
        assert_eq!(knn_clustering.num_clusters(), 15);
        assert_eq!(cutoff_clustering.num_clusters(), 15);
        let mut a = knn_clustering.sizes();
        let mut b = cutoff_clustering.sizes();
        a.sort_unstable();
        b.sort_unstable();
        let total_diff: usize = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();
        assert!(
            total_diff <= data.len() / 10,
            "size distributions differ too much: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn identical_partitions_for_identical_parameters() {
        let data = blobs();
        let knn = KnnDpc::build(&data);
        let a = knn
            .cluster(5, &CenterSelection::TopKGamma { k: 3 })
            .unwrap();
        let b = knn
            .cluster(5, &CenterSelection::TopKGamma { k: 3 })
            .unwrap();
        assert_same_partition(&a, &b);
    }

    #[test]
    fn parallel_rho_delta_is_bit_identical_to_sequential() {
        let data = s1(73, 0.05).into_dataset(); // 250 points
        let knn = KnnDpc::build(&data);
        let (seq_ranks, seq_deltas) = knn.rho_delta(8, ExecPolicy::Sequential).unwrap();
        for threads in [1usize, 2, 3, 7] {
            let (ranks, deltas) = knn.rho_delta(8, ExecPolicy::Threads(threads)).unwrap();
            assert_eq!(ranks, seq_ranks, "threads = {threads}");
            assert_eq!(deltas.delta, seq_deltas.delta, "threads = {threads}");
            assert_eq!(deltas.mu, seq_deltas.mu, "threads = {threads}");
        }
    }

    #[test]
    fn invalid_k_is_rejected() {
        let data = blobs();
        let knn = KnnDpc::build(&data);
        let seq = ExecPolicy::Sequential;
        assert!(knn.density_ranks(0, seq).is_err());
        assert!(knn.density_ranks(data.len(), seq).is_err());
        assert!(knn.rho_delta(data.len() + 5, seq).is_err());
    }

    #[test]
    fn from_lists_requires_full_lists() {
        let data = blobs();
        let lists = NeighborLists::build(&data, None);
        let knn = KnnDpc::from_lists(&data, lists);
        assert!(knn.rho_delta(4, ExecPolicy::Sequential).is_ok());
    }

    #[test]
    #[should_panic(expected = "untruncated")]
    fn truncated_lists_panic() {
        let data = blobs();
        let lists = NeighborLists::build(&data, Some(1.0));
        KnnDpc::from_lists(&data, lists);
    }

    #[test]
    fn coincident_points_are_the_densest() {
        let mut pts = vec![Point::new(0.0, 0.0); 5];
        pts.extend((1..20).map(|i| Point::new(i as f64, 0.0)));
        let data = Dataset::new(pts);
        let knn = KnnDpc::build(&data);
        let ranks = knn.density_ranks(3, ExecPolicy::Sequential).unwrap();
        let max_rank = ranks.iter().copied().fold(0.0f64, f64::max);
        for (p, &rank) in ranks.iter().take(5).enumerate() {
            assert_eq!(
                rank, max_rank,
                "coincident point {p} must have the top rank"
            );
        }
    }
}
