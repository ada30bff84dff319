//! Shape-level checks of the paper's qualitative claims, small enough to run
//! in the normal test suite. The full experiment harness (`dpc-bench`)
//! regenerates the actual tables and figures; these tests pin down the
//! *relationships* the paper reports so a regression in any index
//! immediately shows up.

use density_peaks::core::obs::MetricsRecorder;
use density_peaks::prelude::*;
use dpc_list_index::NeighborLists;
use dpc_tree_index::query as tree_query;
use dpc_tree_index::DeltaQueryConfig;
use std::time::Duration;

fn median_query_time(index: &dyn DpcIndex, dc: f64) -> Duration {
    let query = Query::new(dc);
    dpc_metrics::measure_median(3, || index.rho_delta(&query).unwrap()).0
}

/// §5.2 / Table 3: list-based indices need orders of magnitude more memory
/// than tree-based indices; the CH Index adds a little on top of the List
/// Index; the R-tree is leaner than the quadtree.
#[test]
fn memory_ordering_matches_table3() {
    let kind = DatasetKind::Query;
    let data = kind.generate(1, 0.04).into_dataset(); // 2 000 points
    let list = ListIndex::build(&data);
    let ch = ChIndex::build(&data, kind.default_bin_width());
    let quadtree = Quadtree::build(&data);
    let rtree = RTree::build(&data);

    assert!(list.memory_bytes() > 20 * quadtree.memory_bytes());
    assert!(list.memory_bytes() > 20 * rtree.memory_bytes());
    assert!(ch.memory_bytes() > list.memory_bytes());
    assert!(ch.memory_bytes() < list.memory_bytes() * 2);
}

/// §5.2 / Table 4: tree construction is far cheaper than list construction,
/// and building the CH histograms on top of existing lists is much cheaper
/// than building the lists themselves.
#[test]
fn construction_cost_ordering_matches_table4() {
    let kind = DatasetKind::Range;
    let data = kind.generate(2, 0.01).into_dataset(); // 2 000 points

    let (list_time, lists) = dpc_metrics::measure_once(|| NeighborLists::build(&data, None));
    let (hist_time, _) = dpc_metrics::measure_once(|| {
        ChIndex::from_lists(&data, lists.clone(), kind.default_bin_width())
    });
    let (rtree_time, _) = dpc_metrics::measure_once(|| RTree::build(&data));
    let (quadtree_time, _) = dpc_metrics::measure_once(|| Quadtree::build(&data));

    assert!(
        rtree_time < list_time,
        "rtree {rtree_time:?} vs list {list_time:?}"
    );
    assert!(
        quadtree_time < list_time,
        "quadtree {quadtree_time:?} vs list {list_time:?}"
    );
    assert!(
        hist_time < list_time,
        "histograms {hist_time:?} vs lists {list_time:?}"
    );
}

/// §5.1 / Figure 5: on a medium dataset the index-based queries beat the
/// naive O(n²) baseline comfortably.
#[test]
fn indexed_queries_beat_the_naive_baseline() {
    let kind = DatasetKind::Query;
    let data = kind.generate(3, 0.06).into_dataset(); // 3 000 points
    let dc = kind.default_dc();

    let naive = LeanDpc::build(&data);
    let ch = ChIndex::build(&data, kind.default_bin_width());
    let rtree = RTree::build(&data);

    let t_naive = median_query_time(&naive, dc);
    let t_ch = median_query_time(&ch, dc);
    let t_rtree = median_query_time(&rtree, dc);

    assert!(
        t_ch < t_naive,
        "CH ({t_ch:?}) must beat the naive baseline ({t_naive:?})"
    );
    assert!(
        t_rtree < t_naive,
        "R-tree ({t_rtree:?}) must beat the naive baseline ({t_naive:?})"
    );
}

/// §3.1 Theorem 1: the number of list entries probed by the δ-query is a
/// small fraction of n² on clustered data (the paper quotes ~1–3% of the
/// index probed for Range/Birch).
#[test]
fn delta_probe_fraction_is_small_on_clustered_data() {
    let data = DatasetKind::Birch.generate(4, 0.02).into_dataset(); // 2 000 points
    let index = ListIndex::build(&data);
    let metrics = MetricsRecorder::new();
    let query = Query::new(100_000.0).with_recorder(&metrics);
    let rho = index.rho(&query).unwrap();
    index.delta(&query, &rho).unwrap();
    let probes = metrics.snapshot().counter("query.delta.probes").unwrap();
    let total_entries = (data.len() * (data.len() - 1)) as u64;
    let fraction = probes as f64 / total_entries as f64;
    assert!(
        fraction < 0.05,
        "probed {:.2}% of the index",
        fraction * 100.0
    );
}

/// §4.1 Lemmas 1–2: pruning must cut the work of the tree δ-query
/// substantially without changing its result.
#[test]
fn pruning_cuts_tree_query_work_substantially() {
    let data = DatasetKind::Gowalla.generate(5, 0.002).into_dataset(); // ~2 500 points
    let query = Query::new(DatasetKind::Gowalla.default_dc());
    let tree = RTree::build(&data);
    let (rho, _) = tree_query::rho(&tree, &data, &query);
    let pruned = DeltaQueryConfig::default();
    let (with, stats_with) = tree_query::delta(&tree, &data, &rho, &pruned, &query);
    let exhaustive = DeltaQueryConfig::no_pruning();
    let (without, stats_without) = tree_query::delta(&tree, &data, &rho, &exhaustive, &query);
    assert_eq!(with.mu, without.mu);
    assert!(
        stats_with.points_scanned * 2 < stats_without.points_scanned,
        "pruning saved too little: {} vs {}",
        stats_with.points_scanned,
        stats_without.points_scanned
    );
}

/// §5.3.1 / Figure 6: list-based query time is essentially flat in dc, while
/// the tree-based rho-query gets more expensive as dc grows (until the
/// fully-contained shortcut kicks in at the very largest dc).
#[test]
fn tree_rho_work_grows_with_dc_then_collapses_at_the_largest_dc() {
    let data = DatasetKind::Range.generate(6, 0.01).into_dataset(); // 2 000 points
    let tree = Quadtree::build(&data);
    let work = |dc: f64| tree_query::rho(&tree, &data, &Query::new(dc)).1;
    let (small, medium) = (work(300.0), work(5_000.0));
    let huge = work(data.bbox_diameter() * 1.01);
    assert!(
        medium.points_scanned > small.points_scanned,
        "medium dc must scan more points than small dc"
    );
    assert_eq!(
        huge.points_scanned, 0,
        "largest dc must be answered from node counts alone"
    );
}

/// §3.2 / Figure 7: a finer bin width makes the CH ρ-query cheaper (it
/// searches a smaller list section), at the cost of more histogram memory
/// (Figure 9a).
#[test]
fn finer_bins_trade_memory_for_query_work() {
    let kind = DatasetKind::Birch;
    let data = kind.generate(7, 0.02).into_dataset(); // 2 000 points
    let fine = ChIndex::build(&data, 2_000.0);
    let coarse = ChIndex::build(&data, 200_000.0);
    assert!(fine.histogram_memory_bytes() > coarse.histogram_memory_bytes());
    // Work proxy: the section searched per object is bounded by the bin
    // population; compare total bins instead of wall-clock to stay
    // deterministic.
    assert!(fine.total_bins() > coarse.total_bins());
    // And the results are identical regardless of w.
    let dc = 150_000.0;
    assert_eq!(
        fine.rho(&Query::new(dc)).unwrap(),
        coarse.rho(&Query::new(dc)).unwrap()
    );
}

/// §5.4 / Figures 8–9b: smaller τ means a smaller and faster approximate
/// index.
#[test]
fn smaller_tau_means_smaller_and_faster_approximate_index() {
    let kind = DatasetKind::Brightkite;
    let data = kind.generate(8, 0.008).into_dataset(); // ~3 200 points
    let dc = 0.5;
    let small = ListIndex::build_approx(&data, 1.0);
    let large = ListIndex::build_approx(&data, 10.0);
    assert!(small.memory_bytes() < large.memory_bytes());
    let t_small = median_query_time(&small, dc);
    let t_large = median_query_time(&large, dc);
    // Allow generous slack; the claim is only that the small index is not slower.
    assert!(
        t_small <= t_large + Duration::from_millis(50),
        "small tau {t_small:?} vs large tau {t_large:?}"
    );
}
