//! Geospatial scenario: finding activity hotspots in location check-ins and
//! watching how the clustering changes with the cut-off distance `dc`.
//!
//! ```text
//! cargo run --release --example checkin_hotspots
//! ```
//!
//! This is the motivating workload of the paper (its Figure 1 uses Gowalla
//! check-ins): a user explores several `dc` values before settling on a
//! clustering, and the index makes every additional `dc` almost free because
//! it is built only once.

use density_peaks::datasets::generators::{checkins, CheckinConfig};
use density_peaks::prelude::*;

fn main() {
    let config = CheckinConfig::gowalla();
    let data = checkins(8_000, &config, 2026).into_dataset();
    println!(
        "simulated {} check-ins over a {:.0}°×{:.0}° region\n",
        data.len(),
        data.bounding_box().width(),
        data.bounding_box().height()
    );

    // One R-tree, many dc values: the index is built once.
    let index = RTree::build(&data);
    println!(
        "index: {} ({} KiB)\n",
        index.name(),
        index.memory_bytes() / 1024
    );

    for dc in [0.05, 0.2, 1.0, 5.0] {
        // Check-in data is heavily skewed (a few huge hotspots, many small
        // ones), so instead of an automatic knee heuristic we use the rule a
        // user would apply on the decision graph: a centre has above-average
        // density and is itself a peak at scale dc (its nearest denser point
        // is farther than dc away).
        let rho = index.rho(&Query::new(dc)).expect("rho query");
        let mean_rho = (rho.iter().sum::<f64>() / rho.len() as f64).ceil();
        let params = DpcParams::new(dc).with_centers(CenterSelection::Threshold {
            rho_min: mean_rho.max(1.0),
            delta_min: dc,
        });
        let run = DpcPipeline::new(params)
            .run(&index)
            .expect("clustering failed");
        let mut sizes = run.clustering.sizes();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let top: Vec<usize> = sizes.iter().copied().take(5).collect();
        println!(
            "dc = {dc:>5}: {:>3} hotspots, top-5 sizes {:?}, query {:.1} ms",
            run.clustering.num_clusters(),
            top,
            run.query_time().as_secs_f64() * 1e3
        );
        // Show where the biggest hotspot is.
        let biggest_center = run.clustering.centers()[0];
        let p = data.point(biggest_center);
        println!(
            "          densest hotspot centre near ({:.2}, {:.2})",
            p.x, p.y
        );
    }

    println!("\nDifferent dc values give genuinely different clusterings —");
    println!("which is why the paper indexes the data instead of re-running DPC from scratch.");
}
