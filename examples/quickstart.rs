//! Quickstart: cluster a synthetic dataset with Density Peak Clustering.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the S1 benchmark (15 Gaussian clusters), indexes it once with the
//! Cumulative Histogram Index, and then clusters it for a cut-off distance —
//! printing the decision graph's strongest centre candidates and the final
//! cluster sizes.

use density_peaks::prelude::*;

fn main() {
    // 1. Data: the S1 benchmark at 20% of its paper size (1 000 points).
    let data = density_peaks::datasets::generators::s1(42, 0.2).into_dataset();
    println!(
        "dataset: {} points, bounding box diagonal = {:.0}",
        data.len(),
        data.bbox_diameter()
    );

    // 2. Index: built once, reusable for any dc.
    let index = ChIndex::build(&data, 2_000.0);

    // 3. Cluster at a chosen dc. The decision graph ranks centre candidates
    //    by gamma = rho * delta; we ask for the top 15.
    let dc = 30_000.0;
    let params = DpcParams::new(dc).with_centers(CenterSelection::TopKGamma { k: 15 });
    let run = DpcPipeline::new(params)
        .run(&index)
        .expect("clustering failed");

    // The selected centres are the 15 largest gamma; show the top 5.
    println!("\ndecision graph: top centre candidates (rho, delta):");
    let gamma = run.decision_graph.gamma();
    let mut strongest = run.centers.clone();
    strongest.sort_by(|&a, &b| gamma[b].total_cmp(&gamma[a]));
    for (rank, &p) in strongest.iter().take(5).enumerate() {
        println!(
            "  #{rank}: point {p} with rho = {}, delta = {:.0}",
            run.decision_graph.rho(p),
            run.decision_graph.delta(p)
        );
    }

    let mut sizes = run.clustering.sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\nfound {} clusters with dc = {dc}",
        run.clustering.num_clusters()
    );
    println!("cluster sizes (largest first): {sizes:?}");
    println!(
        "query time: rho = {:.2} ms, delta = {:.2} ms",
        run.rho_time.as_secs_f64() * 1e3,
        run.delta_time.as_secs_f64() * 1e3
    );
}
