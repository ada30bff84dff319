//! Criterion view of the parallel query engine: combined ρ+δ query time of
//! the Grid and k-d tree indexes across worker thread counts.
//!
//! The committed `BENCH_parallel.json` snapshot (see the `bench_parallel`
//! binary) is the canonical record at n = 20 000; this bench is the quick
//! interactive version at a smaller n so `cargo bench` stays fast. Wall-clock
//! speedup is bounded by the number of physical cores of the machine running
//! the bench; the results are bit-identical at every thread count either way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dpc_core::{DpcIndex, ExecPolicy, Query};
use dpc_datasets::generators::s1;
use dpc_datasets::DatasetKind;
use dpc_tree_index::{GridIndex, KdTree};

const DC: f64 = 30_000.0;
const N: usize = 4_000;

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling");
    let scale = N as f64 / DatasetKind::S1.paper_size() as f64;
    let data = s1(42, scale).into_dataset();
    let grid = GridIndex::build(&data);
    let kdtree = KdTree::build(&data);
    for &threads in &[1usize, 2, 4, 8] {
        let query = Query::new(DC).with_exec(ExecPolicy::Threads(threads));
        group.bench_with_input(BenchmarkId::new("grid", threads), &threads, |b, _| {
            b.iter(|| grid.rho_delta(&query).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("kdtree", threads), &threads, |b, _| {
            b.iter(|| kdtree.rho_delta(&query).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
