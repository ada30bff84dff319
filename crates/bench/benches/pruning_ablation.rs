//! Criterion companion to the pruning-ablation experiment: δ-query time of
//! the tree indices with both, one or neither of the paper's pruning rules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dpc_core::Query;
use dpc_datasets::DatasetKind;
use dpc_tree_index::query as tree_query;
use dpc_tree_index::{DeltaQueryConfig, Quadtree, RTree};

fn bench_pruning(c: &mut Criterion) {
    let kind = DatasetKind::Birch;
    let data = kind.generate(42, 0.02).into_dataset(); // 2 000 points
    let query = Query::new(kind.default_dc());
    let quadtree = Quadtree::build(&data);
    let rtree = RTree::build(&data);
    let (rho_q, _) = tree_query::rho(&quadtree, &data, &query);
    let (rho_r, _) = tree_query::rho(&rtree, &data, &query);

    let variants = [
        ("both", DeltaQueryConfig::default()),
        (
            "density_only",
            DeltaQueryConfig {
                density_pruning: true,
                distance_pruning: false,
            },
        ),
        (
            "distance_only",
            DeltaQueryConfig {
                density_pruning: false,
                distance_pruning: true,
            },
        ),
        ("none", DeltaQueryConfig::no_pruning()),
    ];

    let mut group = c.benchmark_group("delta_pruning_birch2k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, config) in variants {
        group.bench_with_input(BenchmarkId::new("quadtree", name), &config, |b, cfg| {
            b.iter(|| tree_query::delta(&quadtree, &data, &rho_q, cfg, &query))
        });
        group.bench_with_input(BenchmarkId::new("rtree", name), &config, |b, cfg| {
            b.iter(|| tree_query::delta(&rtree, &data, &rho_r, cfg, &query))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
