//! Tests of the benchmark itself, at tiny sizes and fixed round counts.

use perfbench::{
    gowalla_checkins, per_layer_catalogue, run, Budget, Config, Outcome, Size, Workload, END_TO_END,
};

fn tiny(workload: Workload, trace: bool, rounds: u64) -> Outcome {
    run(&Config {
        workload,
        seed: 7,
        budget: Budget::Rounds(rounds),
        trace,
        size: Size::Tiny,
        trace_dir: None,
    })
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let mut out = tiny(workload, false, 2);
        let line = out.result_line();
        assert!(out.correct(), "{}: {}", workload.name(), out.info_line());
        for (name, unit) in END_TO_END {
            let v = out.value(name).unwrap_or(f64::NAN);
            assert!(
                v > 0.0 && v.is_finite(),
                "{}: {name} = {v}",
                workload.name()
            );
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")) && line.contains(unit),
                "{line}"
            );
        }
    }
}

#[test]
fn every_traced_workload_emits_every_per_layer_metric() {
    // The metrics each workload must measure as non-zero: the layers it
    // exercises.
    let exercised: [(Workload, &[&str]); 4] = [
        (
            Workload::BatchLists,
            &[
                "build_s.list",
                "build_s.ch_star",
                "bytes.list_star",
                "rho_ms.ch",
                "delta_ms.list",
                "core.select_assign_ms",
            ],
        ),
        (
            Workload::BatchTrees,
            &[
                "build_s.quadtree",
                "bytes.rtree",
                "rho_ms.kdtree",
                "delta_ms.rtree",
                "delta_prune_frac.quadtree",
                "query.rho.nodes_visited.kdtree",
                "query.delta.points_scanned.rtree",
                "core.select_assign_ms",
            ],
        ),
        (
            Workload::StreamBulk,
            &[
                "build_s.kdtree",
                "stream.seed_s",
                "stream.phase.apply_ms",
                "stream.phase.delta_repair_ms",
                "stream.phase.recluster_ms",
                "stream.commit_p50_ms",
                "stream.commit_p90_ms",
                "stream.eps_queries_per_epoch",
            ],
        ),
        (
            Workload::ServeTrickle,
            &[
                "build_s.grid",
                "stream.phase.publish_ms",
                "stream.phase.delta_repair_ms",
                "stream.commit_p99_ms",
                "serve.lookup_p50_us",
                "serve.eps_p99_us",
                "serve.sub_p50_us",
                "serve.reader_late_ms",
            ],
        ),
    ];
    let catalogue = per_layer_catalogue();
    for (workload, nonzero) in exercised {
        let mut out = tiny(workload, true, 4);
        let metrics = out.metrics();
        assert!(out.correct(), "{}: {}", workload.name(), out.info_line());
        assert_eq!(metrics.len(), catalogue.len());
        for (m, (name, unit)) in metrics.iter().zip(&catalogue) {
            assert_eq!((&m.name, m.unit), (name, *unit));
            assert!(m.value.is_finite(), "{}: {name}", workload.name());
        }
        for name in nonzero {
            let v = out.value(name).unwrap_or(0.0);
            assert!(v > 0.0, "{}: {name} = {v}", workload.name());
        }
        for name in ["obs.trace_overhead_frac", "obs.unattributed_frac"] {
            assert!(out.value(name).is_some(), "{}: {name}", workload.name());
        }
    }
}

#[test]
fn same_seed_runs_give_identical_counts() {
    for workload in Workload::ALL {
        let a = tiny(workload, false, 3);
        let b = tiny(workload, false, 3);
        for name in ["index_mb", "approx_ari"] {
            assert_eq!(a.value(name), b.value(name), "{}: {name}", workload.name());
        }
        if workload != Workload::ServeTrickle {
            // The open-loop reader's query count depends on timing.
            assert_eq!(a.attempted, b.attempted, "{}", workload.name());
        }
        assert_eq!(
            a.info_value("epochs"),
            b.info_value("epochs"),
            "{}",
            workload.name()
        );

        let a = tiny(workload, true, 4);
        let b = tiny(workload, true, 4);
        let counts = per_layer_catalogue()
            .into_iter()
            .filter(|(name, unit)| {
                *unit == "count" && !name.starts_with("serve.") || name.ends_with("_frac")
            })
            .filter(|(name, _)| !name.starts_with("obs."));
        for (name, _) in counts {
            assert_eq!(
                a.value(&name),
                b.value(&name),
                "{}: {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn benchmark_manifest_matches_the_catalogue() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let entry = |name: &str, unit: &str| format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
    for workload in Workload::ALL {
        assert!(
            manifest.contains(&format!("\"name\": \"{}\"", workload.name())),
            "{}",
            workload.name()
        );
    }
    for (name, unit) in END_TO_END {
        assert!(manifest.contains(&entry(name, unit)), "{name}");
    }
    let catalogue = per_layer_catalogue();
    for (name, unit) in &catalogue {
        assert!(manifest.contains(&entry(name, unit)), "{name}");
    }
    let names = manifest.matches("\"name\":").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + catalogue.len(),
        "BENCHMARK.json lists a metric or workload the benchmark does not emit"
    );
}

#[test]
fn gowalla_checkins_are_drawn_by_the_seed_from_one_map() {
    let a = gowalla_checkins(500, 1);
    assert_eq!(a.points(), gowalla_checkins(500, 1).points());
    let b = gowalla_checkins(500, 2);
    assert_ne!(a.points(), b.points());
    // Draws by different seeds share points only if they come from one map.
    let pool = gowalla_checkins(2_000, 3);
    let small = gowalla_checkins(500, 4);
    let in_pool = small
        .points()
        .iter()
        .filter(|p| pool.points().contains(p))
        .count();
    assert!(in_pool > 0, "seeds drew from different maps");
}
