//! Criterion companion to Figure 5 / Figure 6: ρ+δ query time of every index
//! on a fixed mid-size dataset, at a small and a large cut-off distance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dpc_bench::IndexKind;
use dpc_core::{DpcIndex, Query};
use dpc_datasets::DatasetKind;

fn bench_query_time(c: &mut Criterion) {
    let kind = DatasetKind::Range;
    let data = kind.generate(42, 0.02).into_dataset(); // 4 000 points
    let indices: Vec<(IndexKind, Box<dyn DpcIndex>)> = [
        IndexKind::List,
        IndexKind::Ch,
        IndexKind::Quadtree,
        IndexKind::RTree,
        IndexKind::KdTree,
        IndexKind::Grid,
    ]
    .into_iter()
    .map(|k| (k, k.build(&data, kind)))
    .collect();

    let mut group = c.benchmark_group("query_time_range4k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for dc in [300.0, 2_200.0] {
        for (kind, index) in &indices {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), format!("dc={dc}")),
                &dc,
                |b, &dc| b.iter(|| index.rho_delta(&Query::new(dc)).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query_time);
criterion_main!(benches);
