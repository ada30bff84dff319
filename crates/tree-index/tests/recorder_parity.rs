//! Recorder parity of the tree queries: attaching a `MetricsRecorder` never
//! changes a result, the published `query.rho.*` / `query.delta.*` counters
//! are exactly the `QueryStats` the generic queries return, and every worker
//! chunk reports one span.

use dpc_core::{DpcIndex, ExecPolicy, Query};
use dpc_datasets::testsupport::{test_dataset, TestDistribution};
use dpc_obs::{MetricsRecorder, MetricsSnapshot};
use dpc_tree_index::query::{self as tree_query, QueryStats};
use dpc_tree_index::{DeltaQueryConfig, GridIndex, KdTree, Quadtree, RTree, SpatialPartition};

const DC: f64 = 20.0;

fn assert_published(snap: &MetricsSnapshot, prefix: &str, stats: &QueryStats, what: &str) {
    for (name, value) in [
        ("nodes_visited", stats.nodes_visited),
        ("nodes_discarded", stats.nodes_discarded),
        ("nodes_fully_contained", stats.nodes_fully_contained),
        ("nodes_density_pruned", stats.nodes_density_pruned),
        ("nodes_distance_pruned", stats.nodes_distance_pruned),
        ("points_scanned", stats.points_scanned),
    ] {
        let key = format!("{prefix}.{name}");
        assert_eq!(snap.counter(&key), Some(value), "{what}: {key}");
    }
}

fn check_parity<T: SpatialPartition + DpcIndex + Sync>(tree: &T) {
    let data = tree.dataset();
    let n = data.len();
    for policy in [ExecPolicy::Sequential, ExecPolicy::Threads(3)] {
        let what = format!("{} {policy:?}", tree.name());
        let query = Query::new(DC).with_exec(policy);
        let (plain_rho, plain_delta) = tree.rho_delta(&query).unwrap();
        let metrics = MetricsRecorder::new();
        let (rho, delta) = tree.rho_delta(&query.with_recorder(&metrics)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rho), bits(&plain_rho), "{what}: rho");
        assert_eq!(
            bits(&delta.delta),
            bits(&plain_delta.delta),
            "{what}: delta"
        );
        assert_eq!(delta.mu, plain_delta.mu, "{what}: mu");

        let (_, rho_stats) = tree_query::rho(tree, data, &query);
        let config = DeltaQueryConfig::default();
        let (_, delta_stats) = tree_query::delta(tree, data, &rho, &config, &query);
        let snap = metrics.snapshot();
        assert_published(&snap, "query.rho", &rho_stats, &what);
        assert_published(&snap, "query.delta", &delta_stats, &what);
        assert!(rho_stats.nodes_visited > 0, "{what}: rho traversal ran");
        assert!(delta_stats.nodes_visited > 0, "{what}: delta traversal ran");

        for label in ["query.rho.chunk", "query.delta.chunk"] {
            let spans = snap.histogram(&format!("{label}_us")).expect(label);
            assert_eq!(spans.count() as usize, policy.workers(n), "{what}: {label}");
            let items = snap.histogram(&format!("{label}.items")).expect(label);
            assert_eq!(items.sum() as usize, n, "{what}: {label}.items");
        }
    }
}

#[test]
fn recorded_tree_queries_match_unrecorded_and_publish_their_stats() {
    let data = test_dataset(TestDistribution::Clustered, 300, 17);
    check_parity(&Quadtree::build(&data));
    check_parity(&RTree::build(&data));
    check_parity(&KdTree::build(&data));
    check_parity(&GridIndex::build(&data));
}
