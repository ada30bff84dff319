//! Empirical scaling check for Theorems 1 and 2: how the ρ- and δ-query
//! times of the List Index and the CH Index grow with the dataset size `n`.
//!
//! The theorems predict `O(n log n)` for the List Index query (binary search
//! per object + constant expected probes for δ) and `O(n)` for the CH Index
//! ρ-query. Criterion reports per-`n` timings; the EXPERIMENTS.md shape check
//! is that doubling `n` roughly doubles both (i.e. neither behaves
//! quadratically like the naive baseline, which is also measured here on the
//! smaller sizes for contrast).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dpc_baseline::LeanDpc;
use dpc_core::{DpcIndex, Query};
use dpc_datasets::generators::s1;
use dpc_datasets::DatasetKind;
use dpc_list_index::{ChIndex, ListIndex};

const DC: f64 = 30_000.0;

fn bench_query_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[500usize, 1_000, 2_000, 4_000] {
        let scale = n as f64 / DatasetKind::S1.paper_size() as f64;
        let data = s1(42, scale).into_dataset();
        let list = ListIndex::build(&data);
        let ch = ChIndex::build(&data, DatasetKind::S1.default_bin_width());

        group.bench_with_input(BenchmarkId::new("list", n), &n, |b, _| {
            b.iter(|| list.rho_delta(&Query::new(DC)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("ch", n), &n, |b, _| {
            b.iter(|| ch.rho_delta(&Query::new(DC)).unwrap())
        });
        if n <= 2_000 {
            let naive = LeanDpc::build(&data);
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
                b.iter(|| naive.rho_delta(&Query::new(DC)).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query_scaling);
criterion_main!(benches);
