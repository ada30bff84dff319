//! The List Index (§3.1 of the paper).
//!
//! Construction (Algorithm 1) sorts, for every object, all other objects by
//! distance. Queries (Algorithm 2) then answer ρ with a binary search per
//! object and δ with a short scan from the head of each list. Building with
//! a neighbour threshold `τ` yields the approximate RN-List variant of §3.3.
//! Weighted density kernels take the canonical brute-force scan
//! ([`dpc_core::brute::weighted_rho_scan`]): the lists answer the cut-off
//! count only.
//!
//! Both queries run a group of objects at a time
//! ([`NeighborLists`](crate::nlist) module docs): a lone binary search over
//! an 80 KB list waits on one cache miss after another, while 32 searches
//! advanced in lockstep wait on them together. On a 2-vCPU VM, perfbench's
//! `batch-lists` (S1, 5 000 points) spent 1.4–1.6 ms per ρ-query this way,
//! against 4.0–5.0 ms one search at a time.

use std::time::{Duration, Instant};

use dpc_core::{
    brute, Dataset, DeltaResult, DensityOrder, DpcIndex, IndexStats, Query, Result, Rho,
};

use crate::nlist::NeighborLists;

/// Configuration of a [`ListIndex`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ListIndexConfig {
    /// Neighbour threshold `τ`; `None` builds full N-Lists, `Some(t)` builds
    /// the approximate RN-Lists of §3.3.
    pub tau: Option<f64>,
    /// Worker threads for construction (`None` = all available cores).
    pub threads: Option<usize>,
}

/// The List Index.
#[derive(Debug, Clone)]
pub struct ListIndex {
    dataset: Dataset,
    lists: NeighborLists,
    construction_time: Duration,
}

impl ListIndex {
    /// Builds a full (exact) List Index.
    pub fn build(dataset: &Dataset) -> Self {
        Self::with_config(dataset, &ListIndexConfig::default())
    }

    /// Builds the approximate variant with RN-Lists truncated at `tau`.
    pub fn build_approx(dataset: &Dataset, tau: f64) -> Self {
        Self::with_config(
            dataset,
            &ListIndexConfig {
                tau: Some(tau),
                ..Default::default()
            },
        )
    }

    /// Builds the index with an explicit configuration.
    pub fn with_config(dataset: &Dataset, config: &ListIndexConfig) -> Self {
        let timer = Instant::now();
        let threads = config.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let lists = NeighborLists::build_with_threads(dataset, config.tau, threads);
        ListIndex {
            dataset: dataset.clone(),
            lists,
            construction_time: timer.elapsed(),
        }
    }

    /// The underlying neighbour lists.
    pub fn lists(&self) -> &NeighborLists {
        &self.lists
    }

    /// The neighbour threshold used at construction (`None` = exact).
    pub fn tau(&self) -> Option<f64> {
        self.lists.tau()
    }
}

impl DpcIndex for ListIndex {
    fn name(&self) -> &'static str {
        if self.lists.tau().is_some() {
            "list-approx"
        } else {
            "list"
        }
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn rho(&self, query: &Query<'_>) -> Result<Vec<Rho>> {
        query.validate()?;
        if !query.kernel.is_cutoff() {
            return Ok(brute::weighted_rho_scan(&self.dataset, query));
        }
        Ok(self.lists.rho_by_search(query, |_, len| 0..len))
    }

    /// The δ-query of Algorithm 2; the number of list entries it probed
    /// (the probe fraction of §5.4) goes to the query's recorder as
    /// `query.delta.probes`.
    fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        query.validate_delta(rho, self.dataset.len())?;
        Ok(self
            .lists
            .delta_by_scan(&DensityOrder::new(rho), query.exec, query.recorder)
            .0)
    }

    fn memory_bytes(&self) -> usize {
        self.lists.memory_bytes() + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            .with_counter("total_entries", self.lists.total_entries() as u64)
            .with_counter("max_list_len", self.lists.max_list_len() as u64)
    }

    fn is_exact(&self) -> bool {
        self.lists.tau().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_baseline::LeanDpc;
    use dpc_core::obs::MetricsRecorder;
    use dpc_core::{CenterSelection, DpcParams};
    use dpc_datasets::generators::{query, s1};

    fn assert_same_results(data: &Dataset, index: &ListIndex, dc: f64) {
        let baseline = LeanDpc::build(data);
        let (r1, d1) = index.rho_delta(&Query::new(dc)).unwrap();
        let (r2, d2) = baseline.rho_delta(&Query::new(dc)).unwrap();
        assert_eq!(r1, r2, "rho mismatch at dc = {dc}");
        assert_eq!(d1, d2, "delta/mu mismatch at dc = {dc}");
    }

    #[test]
    fn exact_index_matches_baseline_on_s1() {
        let data = s1(23, 0.06).into_dataset(); // 300 points
        let index = ListIndex::build(&data);
        for dc in [5_000.0, 30_000.0, 200_000.0, 2_000_000.0] {
            assert_same_results(&data, &index, dc);
        }
    }

    #[test]
    fn exact_index_matches_baseline_on_query_workload() {
        let data = query(29, 0.005).into_dataset(); // 250 points
        let index = ListIndex::build(&data);
        for dc in [0.001, 0.01, 0.1, 2.0] {
            assert_same_results(&data, &index, dc);
        }
    }

    #[test]
    fn approx_index_is_exact_while_dc_below_tau() {
        let data = s1(31, 0.05).into_dataset(); // 250 points
        let tau = 100_000.0;
        let approx = ListIndex::build_approx(&data, tau);
        let exact = ListIndex::build(&data);
        let dc = 30_000.0; // well below tau
        let rho_a = approx.rho(&Query::new(dc)).unwrap();
        let rho_e = exact.rho(&Query::new(dc)).unwrap();
        assert_eq!(rho_a, rho_e);
        // Deltas agree except possibly for points whose mu is beyond tau
        // (peaks); every non-sentinel delta must match.
        let d_a = approx.delta(&Query::new(dc), &rho_a).unwrap();
        let d_e = exact.delta(&Query::new(dc), &rho_e).unwrap();
        for p in 0..data.len() {
            if d_a.mu(p).is_some() {
                assert_eq!(d_a.mu(p), d_e.mu(p), "p = {p}");
                assert_eq!(d_a.delta(p), d_e.delta(p), "p = {p}");
            }
        }
    }

    #[test]
    fn approx_rho_undercounts_when_dc_exceeds_tau() {
        let data = s1(37, 0.04).into_dataset();
        let tau = 20_000.0;
        let approx = ListIndex::build_approx(&data, tau);
        let exact = ListIndex::build(&data);
        let dc = 200_000.0; // far above tau
        let rho_a = approx.rho(&Query::new(dc)).unwrap();
        let rho_e = exact.rho(&Query::new(dc)).unwrap();
        assert!(rho_a.iter().zip(&rho_e).all(|(a, e)| a <= e));
        assert!(rho_a.iter().zip(&rho_e).any(|(a, e)| a < e));
    }

    #[test]
    fn approx_index_uses_much_less_memory() {
        let data = s1(41, 0.2).into_dataset(); // 1000 points
        let exact = ListIndex::build(&data);
        let approx = ListIndex::build_approx(&data, 50_000.0);
        assert!(approx.memory_bytes() < exact.memory_bytes() / 2);
        assert!(!approx.is_exact());
        assert!(exact.is_exact());
        assert_eq!(approx.name(), "list-approx");
        assert_eq!(exact.name(), "list");
    }

    #[test]
    fn probe_count_is_small_for_clustered_data() {
        // Theorem 1: the expected number of probes per non-peak object is a
        // constant, so the total is far below n per object.
        let data = s1(43, 0.2).into_dataset(); // 1000 points
        let index = ListIndex::build(&data);
        let metrics = MetricsRecorder::new();
        let query = Query::new(30_000.0).with_recorder(&metrics);
        let rho = index.rho(&query).unwrap();
        index.delta(&query, &rho).unwrap();
        let probes = metrics.snapshot().counter("query.delta.probes").unwrap();
        let n = data.len() as u64;
        // Worst case would be ~n per object (n^2 total); expect well below
        // 5% of that for clustered data.
        assert!(probes < n * n / 20, "probes = {probes}, n = {n}");
    }

    #[test]
    fn clustering_through_pipeline_matches_baseline_clustering() {
        let data = s1(47, 0.1).into_dataset(); // 500 points
        let params = DpcParams::new(50_000.0).with_centers(CenterSelection::TopKGamma { k: 15 });
        let from_list =
            dpc_core::pipeline::cluster_with_index(&ListIndex::build(&data), &params).unwrap();
        let from_baseline =
            dpc_core::pipeline::cluster_with_index(&LeanDpc::build(&data), &params).unwrap();
        assert_eq!(from_list.labels(), from_baseline.labels());
        assert_eq!(from_list.centers(), from_baseline.centers());
    }

    #[test]
    fn stats_expose_entry_counts() {
        let data = s1(53, 0.02).into_dataset(); // 100 points
        let index = ListIndex::build(&data);
        let stats = index.stats();
        assert_eq!(stats.counter("total_entries"), Some((100 * 99) as u64));
        assert_eq!(stats.counter("max_list_len"), Some(99));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let data = s1(3, 0.01).into_dataset();
        let index = ListIndex::build(&data);
        assert!(index.rho(&Query::new(0.0)).is_err());
        assert!(index.delta(&Query::new(1.0), &[]).is_err());
    }

    #[test]
    fn single_point_dataset() {
        let data = Dataset::new(vec![dpc_core::Point::new(1.0, 2.0)]);
        let index = ListIndex::build(&data);
        let (rho, deltas) = index.rho_delta(&Query::new(1.0)).unwrap();
        assert_eq!(rho, vec![0.0]);
        assert_eq!(deltas.delta(0), 0.0);
        assert_eq!(deltas.mu(0), None);
    }
}
