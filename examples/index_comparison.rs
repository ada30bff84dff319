//! Compare every index structure on the same dataset: identical results,
//! very different costs.
//!
//! ```text
//! cargo run --release --example index_comparison
//! ```
//!
//! This is the paper's core message in one program: the List and CH indices
//! answer the two DPC queries fastest but pay quadratic memory and
//! construction cost, while the tree indices stay near-linear in memory and
//! build almost instantly — and all of them produce exactly the same
//! clustering as the naive O(n²) algorithm.

use std::time::Instant;

use density_peaks::prelude::*;

fn main() {
    let kind = DatasetKind::Range;
    let data = kind.generate(7, 0.02).into_dataset(); // 4 000 points
    let dc = kind.default_dc();
    println!("dataset: {} points (Range-like), dc = {dc}\n", data.len());

    let mut results: Vec<(String, Vec<usize>)> = Vec::new();
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "index", "build (ms)", "query (ms)", "memory (KiB)"
    );

    let mut report = |name: &str, index: &dyn DpcIndex, build_ms: f64| {
        let start = Instant::now();
        let (rho, deltas) = index.rho_delta(&Query::new(dc)).expect("query failed");
        let query_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>14.1}",
            name,
            build_ms,
            query_ms,
            index.memory_bytes() as f64 / 1024.0
        );
        // Keep a fingerprint of the result to prove all indices agree.
        let fingerprint: Vec<usize> = rho.iter().map(|&r| r as usize).take(32).collect();
        let _ = deltas;
        results.push((name.to_string(), fingerprint));
    };

    macro_rules! timed_build {
        ($name:expr, $ctor:expr) => {{
            let start = Instant::now();
            let index = $ctor;
            let build_ms = start.elapsed().as_secs_f64() * 1e3;
            report($name, &index, build_ms);
        }};
    }

    timed_build!("list", ListIndex::build(&data));
    timed_build!("ch", ChIndex::build(&data, kind.default_bin_width()));
    timed_build!("quadtree", Quadtree::build(&data));
    timed_build!("rtree", RTree::build(&data));
    timed_build!("kdtree", KdTree::build(&data));
    timed_build!("grid", GridIndex::build(&data));
    timed_build!("naive", LeanDpc::build(&data));

    let first = &results[0].1;
    let all_agree = results.iter().all(|(_, f)| f == first);
    println!("\nall indices produced identical densities: {all_agree}");
    assert!(all_agree, "exact indices must agree bit-for-bit");
}
