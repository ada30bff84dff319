//! The Cumulative Histogram (CH) Index (§3.2 of the paper).
//!
//! On top of every object's N-List the CH Index stores a cumulative
//! histogram with bin width `w`: bin `k` records how many neighbours lie at
//! `d² < ((k+1)·w)²` (Algorithm 3; each edge is computed by multiplication,
//! never accumulated, so build and query see the same f64). The ρ-query
//! (Algorithm 4) first finds the bin containing `dc`, once per query, and
//! then searches only the list section covered by that single bin, so with
//! a well chosen `w` the per-object cost is constant and the whole ρ-query
//! is `O(n)` (Theorem 2). The sections are searched a group of objects at
//! a time, like the List Index's whole lists ([`NeighborLists`](crate::nlist)
//! module docs): the group's histogram entries are read first and its
//! section searches then advance in lockstep, so their cache misses
//! overlap.
//!
//! The δ-query is unchanged from the List Index — the histogram only helps
//! the cut-off ρ, and weighted kernels take the canonical brute-force scan
//! like the List Index does — and the approximate RN-List variant composes
//! with the histogram in the obvious way (`τ` truncates the lists, the
//! histogram covers what remains).

use std::ops::Range;
use std::time::{Duration, Instant};

use dpc_core::stats::nested_vec_bytes;
use dpc_core::{
    brute, Dataset, DeltaResult, DensityOrder, DpcIndex, IndexStats, PointId, Query, Result, Rho,
};

use crate::nlist::NeighborLists;

/// Configuration of a [`ChIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChIndexConfig {
    /// Histogram bin width `w`. Smaller bins mean faster ρ-queries and more
    /// memory (Figure 7 / Figure 9a of the paper).
    pub bin_width: f64,
    /// Neighbour threshold `τ` (`None` = exact index).
    pub tau: Option<f64>,
    /// Worker threads for construction (`None` = all available cores).
    pub threads: Option<usize>,
}

impl ChIndexConfig {
    /// Configuration with the given bin width and defaults otherwise.
    pub fn new(bin_width: f64) -> Self {
        ChIndexConfig {
            bin_width,
            tau: None,
            threads: None,
        }
    }

    /// Sets the neighbour threshold `τ`.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = Some(tau);
        self
    }
}

/// The Cumulative Histogram Index.
#[derive(Debug, Clone)]
pub struct ChIndex {
    dataset: Dataset,
    lists: NeighborLists,
    /// `histograms[p][k]` = number of neighbours of `p` with
    /// `d² < bin_edge_sq(k)`.
    histograms: Vec<Vec<u32>>,
    /// Length of the longest histogram.
    max_bins: usize,
    bin_width: f64,
    construction_time: Duration,
}

impl ChIndex {
    /// Builds an exact CH Index with the given bin width.
    pub fn build(dataset: &Dataset, bin_width: f64) -> Self {
        Self::with_config(dataset, &ChIndexConfig::new(bin_width))
    }

    /// Builds the approximate variant: RN-Lists truncated at `tau`, histogram
    /// over the truncated lists.
    pub fn build_approx(dataset: &Dataset, bin_width: f64, tau: f64) -> Self {
        Self::with_config(dataset, &ChIndexConfig::new(bin_width).with_tau(tau))
    }

    /// Builds the index with an explicit configuration.
    ///
    /// # Panics
    /// Panics if the bin width is not a positive finite number.
    pub fn with_config(dataset: &Dataset, config: &ChIndexConfig) -> Self {
        assert!(
            config.bin_width.is_finite() && config.bin_width > 0.0,
            "ChIndex: bin width must be positive and finite, got {}",
            config.bin_width
        );
        let timer = Instant::now();
        let threads = config.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let lists = NeighborLists::build_with_threads(dataset, config.tau, threads);
        let histograms = build_histograms(&lists, config.bin_width);
        ChIndex {
            dataset: dataset.clone(),
            lists,
            max_bins: histograms.iter().map(Vec::len).max().unwrap_or(0),
            histograms,
            bin_width: config.bin_width,
            construction_time: timer.elapsed(),
        }
    }

    /// Builds a CH Index reusing already-constructed neighbour lists. This is
    /// how the paper reports CH construction cost: only the extra histogram-
    /// building time on top of an existing List Index.
    pub fn from_lists(dataset: &Dataset, lists: NeighborLists, bin_width: f64) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "ChIndex: bin width must be positive and finite, got {bin_width}"
        );
        assert_eq!(lists.len(), dataset.len(), "lists must cover the dataset");
        let timer = Instant::now();
        let histograms = build_histograms(&lists, bin_width);
        ChIndex {
            dataset: dataset.clone(),
            lists,
            max_bins: histograms.iter().map(Vec::len).max().unwrap_or(0),
            histograms,
            bin_width,
            construction_time: timer.elapsed(),
        }
    }

    /// The histogram bin width `w`.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// The neighbour threshold used at construction (`None` = exact).
    pub fn tau(&self) -> Option<f64> {
        self.lists.tau()
    }

    /// The underlying neighbour lists.
    pub fn lists(&self) -> &NeighborLists {
        &self.lists
    }

    /// Memory of the histograms alone (the "extra cost over the List Index"
    /// reported in Table 3 / Figure 9a).
    pub fn histogram_memory_bytes(&self) -> usize {
        nested_vec_bytes(&self.histograms)
    }

    /// Total number of histogram bins across all objects.
    pub fn total_bins(&self) -> usize {
        self.histograms.iter().map(Vec::len).sum()
    }

    /// The first bin whose edge exceeds `dc²`, found by binary search over
    /// the non-decreasing edges. Entries before `hist[b-1]` are then
    /// provably inside `dc` (`d² < edge(b-1) ≤ dc²`) and entries from
    /// `hist[b]` on provably outside (`d² ≥ edge(b) > dc²`).
    fn first_bin_above(&self, dc2: f64) -> usize {
        let (mut lo, mut hi) = (0, self.max_bins);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if bin_edge_sq(mid, self.bin_width) <= dc2 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The list section of object `p` (of `len` stored neighbours) that can
    /// straddle `dc` — Algorithm 4, one iteration — given the query's
    /// [`first_bin_above`](Self::first_bin_above): `[hist[bin-1],
    /// hist[bin])`, everything before it inside `dc`, everything after it
    /// outside.
    fn section(&self, p: PointId, len: usize, bin: usize) -> Range<usize> {
        let hist = &self.histograms[p];
        if bin >= hist.len() {
            // Every edge up to the last one is within dc²: every stored
            // neighbour counts.
            return len..len;
        }
        let prev = if bin == 0 { 0 } else { hist[bin - 1] as usize };
        prev..hist[bin] as usize
    }
}

/// The squared upper edge of histogram bin `k`: `((k+1)·w)²`, by
/// multiplication so that build and query see the same f64.
#[inline]
fn bin_edge_sq(k: usize, bin_width: f64) -> f64 {
    let edge = (k as f64 + 1.0) * bin_width;
    edge * edge
}

/// Builds the per-object cumulative histograms (Algorithm 3).
fn build_histograms(lists: &NeighborLists, bin_width: f64) -> Vec<Vec<u32>> {
    (0..lists.len())
        .map(|p| {
            let list = lists.list(p);
            let mut hist: Vec<u32> = Vec::new();
            let mut edge = bin_edge_sq(0, bin_width);
            for (i, nb) in list.iter().enumerate() {
                while nb.dist_sq >= edge {
                    hist.push(i as u32);
                    edge = bin_edge_sq(hist.len(), bin_width);
                }
            }
            // Last bin: total number of stored neighbours.
            hist.push(list.len() as u32);
            hist.shrink_to_fit();
            hist
        })
        .collect()
}

impl DpcIndex for ChIndex {
    fn name(&self) -> &'static str {
        if self.lists.tau().is_some() {
            "ch-approx"
        } else {
            "ch"
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
        let bin = self.first_bin_above(query.dc * query.dc);
        Ok(self
            .lists
            .rho_by_search(query, |p, len| self.section(p, len, bin)))
    }

    fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        query.validate_delta(rho, self.dataset.len())?;
        Ok(self
            .lists
            .delta_by_scan(&DensityOrder::new(rho), query.exec, query.recorder)
            .0)
    }

    fn memory_bytes(&self) -> usize {
        self.lists.memory_bytes() + nested_vec_bytes(&self.histograms) + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            .with_counter("total_entries", self.lists.total_entries() as u64)
            .with_counter("total_bins", self.total_bins() as u64)
    }

    fn is_exact(&self) -> bool {
        self.lists.tau().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::ListIndex;
    use dpc_baseline::LeanDpc;
    use dpc_datasets::generators::{checkins, query, s1, CheckinConfig};

    fn assert_matches_baseline(data: &Dataset, index: &ChIndex, dc: f64) {
        let baseline = LeanDpc::build(data);
        let (r1, d1) = index.rho_delta(&Query::new(dc)).unwrap();
        let (r2, d2) = baseline.rho_delta(&Query::new(dc)).unwrap();
        assert_eq!(
            r1,
            r2,
            "rho mismatch at dc = {dc} (w = {})",
            index.bin_width()
        );
        assert_eq!(d1, d2, "delta/mu mismatch at dc = {dc}");
    }

    #[test]
    fn exact_ch_matches_baseline_for_various_bin_widths() {
        let data = s1(61, 0.05).into_dataset(); // 250 points
        for w in [2_000.0, 17_000.0, 120_000.0, 2_000_000.0] {
            let index = ChIndex::build(&data, w);
            for dc in [5_000.0, 34_000.0, 200_000.0, 1_500_000.0] {
                assert_matches_baseline(&data, &index, dc);
            }
        }
    }

    #[test]
    fn dc_equal_to_bin_boundary_is_handled() {
        let data = query(67, 0.004).into_dataset(); // 200 points
        let w = 0.01;
        let index = ChIndex::build(&data, w);
        for k in 1..5 {
            assert_matches_baseline(&data, &index, k as f64 * w);
        }
    }

    #[test]
    fn dc_larger_than_any_distance_counts_everything() {
        let data = query(71, 0.002).into_dataset(); // 100 points
        let index = ChIndex::build(&data, 0.05);
        let rho = index.rho(&Query::new(10.0)).unwrap();
        assert!(rho.iter().all(|&r| r as usize == data.len() - 1));
    }

    #[test]
    fn rho_agrees_with_list_index_on_skewed_checkin_data() {
        let data = checkins(300, &CheckinConfig::gowalla(), 5).into_dataset();
        let ch = ChIndex::build(&data, 0.015);
        let list = ListIndex::build(&data);
        for dc in [0.005, 0.03, 0.5, 10.0] {
            assert_eq!(
                ch.rho(&Query::new(dc)).unwrap(),
                list.rho(&Query::new(dc)).unwrap(),
                "dc = {dc}"
            );
        }
    }

    #[test]
    fn smaller_bins_use_more_histogram_memory() {
        let data = s1(73, 0.06).into_dataset();
        let fine = ChIndex::build(&data, 5_000.0);
        let coarse = ChIndex::build(&data, 100_000.0);
        assert!(fine.histogram_memory_bytes() > coarse.histogram_memory_bytes());
        assert!(fine.total_bins() > coarse.total_bins());
    }

    #[test]
    fn ch_memory_exceeds_list_memory_by_the_histograms() {
        let data = s1(79, 0.05).into_dataset();
        let list = ListIndex::build(&data);
        let ch = ChIndex::build(&data, 20_000.0);
        assert!(ch.memory_bytes() > list.memory_bytes());
        assert!(ch.memory_bytes() - list.memory_bytes() <= ch.histogram_memory_bytes() + 64);
    }

    #[test]
    fn from_lists_reuses_existing_lists() {
        let data = s1(83, 0.04).into_dataset();
        let lists = NeighborLists::build(&data, None);
        let ch = ChIndex::from_lists(&data, lists, 10_000.0);
        assert_matches_baseline(&data, &ch, 30_000.0);
    }

    #[test]
    fn approximate_ch_undercounts_beyond_tau() {
        let data = s1(89, 0.05).into_dataset();
        let tau = 40_000.0;
        let approx = ChIndex::build_approx(&data, 10_000.0, tau);
        let exact = ChIndex::build(&data, 10_000.0);
        assert_eq!(
            approx.rho(&Query::new(20_000.0)).unwrap(),
            exact.rho(&Query::new(20_000.0)).unwrap()
        );
        let ra = approx.rho(&Query::new(300_000.0)).unwrap();
        let re = exact.rho(&Query::new(300_000.0)).unwrap();
        assert!(ra.iter().zip(&re).all(|(a, e)| a <= e));
        assert!(ra.iter().zip(&re).any(|(a, e)| a < e));
        assert!(!approx.is_exact());
        assert_eq!(approx.name(), "ch-approx");
    }

    #[test]
    fn stats_report_bins_and_entries() {
        let data = s1(97, 0.02).into_dataset(); // 100 points
        let ch = ChIndex::build(&data, 50_000.0);
        let stats = ch.stats();
        assert_eq!(stats.counter("total_entries"), Some((100 * 99) as u64));
        assert!(stats.counter("total_bins").unwrap() >= 100);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data = s1(3, 0.01).into_dataset();
        let ch = ChIndex::build(&data, 1_000.0);
        assert!(ch.rho(&Query::new(-5.0)).is_err());
        assert!(ch.delta(&Query::new(1.0), &[1.0, 2.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_panics() {
        ChIndex::build(&Dataset::new(vec![]), 0.0);
    }
}
