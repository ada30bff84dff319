//! `batch-lists` and `batch-trees`: build a set of indexes once, then run
//! `DpcPipeline::run` over the paper's Fig-6 dc sweep, round after round.
//!
//! One operation is one clustering (one index at one dc). Its latency is the
//! wall time of the `run` call; the ρ, δ and centre-selection-plus-
//! assignment layers come from the `DpcRun` timings it returns.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dpc_bench::IndexKind;
use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{CenterSelection, Dataset, DpcIndex, DpcParams, DpcPipeline, DpcRun, ExecPolicy};
use dpc_datasets::DatasetKind;
use dpc_metrics::rand_index::adjusted_rand_index_labels;
use dpc_obs::Recorder;

use crate::layers::LayerRecorder;
use crate::probe::{HostProbe, SETUP_UP_FRONT};
use crate::report::{report_setup, report_timings};
use crate::stats::{Timings, MIN_BEYOND};
use crate::{
    gowalla_checkins, Budget, Config, Outcome, Rec, Size, Workload, DELTA_COUNTERS, LIST_INDEXES,
    RHO_COUNTERS, TREE_INDEXES,
};

/// Parameters of a batch workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Generator of the input points.
    pub dataset: DatasetKind,
    /// Fraction of the paper's dataset size.
    pub scale: f64,
    /// The dc sweep, one clustering per index per value.
    pub dcs: Vec<f64>,
    /// Top-k γ centre count.
    pub k: usize,
    /// Indexes built and measured, in order.
    pub indexes: &'static [&'static str],
    /// Pairs (approximate or alternative index, exact reference) whose
    /// labels `approx_ari` compares.
    pub ari_pairs: &'static [(&'static str, &'static str)],
    /// Whether the exact indexes are also checked against a cold
    /// `NaiveReferenceIndex`.
    pub naive_check: bool,
    /// Quantile reported as `latency_tail_ms`.
    pub tail_q: f64,
}

impl BatchSpec {
    /// The parameters of `workload` at `size`.
    ///
    /// # Panics
    /// Panics for a workload that is not a batch workload.
    pub fn new(workload: Workload, size: Size) -> BatchSpec {
        let tiny = size == Size::Tiny;
        match workload {
            Workload::BatchLists => BatchSpec {
                dataset: DatasetKind::S1,
                scale: if tiny { 0.04 } else { 1.0 },
                dcs: DatasetKind::S1.fig6_dc_values().to_vec(),
                k: 15,
                indexes: &LIST_INDEXES,
                ari_pairs: &[("list_star", "list"), ("ch_star", "ch")],
                naive_check: true,
                tail_q: 0.99,
            },
            Workload::BatchTrees => BatchSpec {
                dataset: DatasetKind::Gowalla,
                scale: if tiny { 0.001 } else { 0.04 },
                dcs: vec![0.005, 0.01, 0.03],
                k: 90,
                indexes: &TREE_INDEXES,
                ari_pairs: &[("rtree", "quadtree"), ("kdtree", "quadtree")],
                naive_check: false,
                tail_q: 0.75,
            },
            other => panic!("{} is not a batch workload", other.name()),
        }
    }

    /// The input points. Gowalla-like check-ins come from the fixed map of
    /// `gowalla_checkins`; S1's cluster centres are fixed already.
    fn data(&self, seed: u64) -> Dataset {
        match self.dataset {
            DatasetKind::Gowalla => {
                let n = (self.dataset.paper_size() as f64 * self.scale).round() as usize;
                gowalla_checkins(n, seed)
            }
            kind => kind.generate(seed, self.scale).into_dataset(),
        }
    }

    fn params(&self, dc: f64) -> DpcParams {
        DpcParams::new(dc).with_centers(CenterSelection::TopKGamma { k: self.k })
    }

    /// Builds index `name` (`list_star` is List*) with the paper's
    /// per-dataset CH bin width and approximation threshold.
    fn build(&self, name: &str, data: &Dataset) -> Box<dyn DpcIndex> {
        IndexKind::parse(&name.replace("_star", "*"))
            .unwrap_or_else(|| panic!("unknown index {name}"))
            .build(data, self.dataset)
    }
}

/// What a clustering produced, compared bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
struct Outputs {
    rho: Vec<u64>,
    mu: Vec<Option<usize>>,
    labels: Vec<usize>,
}

impl Outputs {
    fn of(run: &DpcRun) -> Outputs {
        Outputs {
            rho: run.rho.iter().map(|r| r.to_bits()).collect(),
            mu: run.deltas.mu.clone(),
            labels: run.clustering.labels().to_vec(),
        }
    }
}

/// Per-index layer times accumulated over a phase.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    runs: u64,
    rho: Duration,
    delta: Duration,
    assign: Duration,
}

/// One measured phase.
#[derive(Debug)]
struct Phase {
    timings: Timings,
    attempted: u64,
    failed: u64,
    per_index: Vec<LayerTimes>,
}

/// The built indexes plus the first outputs of every (dc, index) pair.
struct System<'a> {
    spec: &'a BatchSpec,
    indexes: Vec<Box<dyn DpcIndex>>,
    pipelines: Vec<DpcPipeline>,
    first: Vec<Vec<Option<Outputs>>>,
}

/// Runs a batch workload; `rec` is the traced run's recorder.
pub fn run(config: &Config, rec: Option<&Rec>) -> Outcome {
    let spec = BatchSpec::new(config.workload, config.size);
    let data = spec.data(config.seed);
    let mut out = Outcome::new(config.trace);

    // Set-up: build every index, in repeated rounds (the probe spreads the
    // cheap ones over the run); the last up-front set is measured. A round's
    // times are its total and then each index's build.
    let build_all = |rec: Option<&Rec>| {
        let mut indexes: Vec<Box<dyn DpcIndex>> = Vec::new();
        let mut times = vec![0.0];
        for name in spec.indexes {
            let start = Instant::now();
            let index = spec.build(name, &data);
            let took = start.elapsed();
            if let Some(rec) = rec {
                rec.span(&format!("index.build.{name}"), start, took);
            }
            times[0] += took.as_secs_f64();
            times.push(took.as_secs_f64());
            indexes.push(index);
        }
        (indexes, times)
    };
    let mut indexes = Vec::new();
    let mut up_front = Vec::new();
    for _ in 0..SETUP_UP_FRONT {
        indexes.clear();
        let (built, times) = build_all(rec);
        indexes = built;
        up_front.push(times);
    }
    let more_setup = Box::new(move || Some(build_all(None).1));
    let mut probe = HostProbe::new(config.size.probe_bytes(), up_front, more_setup);
    let mut sys = System {
        spec: &spec,
        pipelines: spec
            .dcs
            .iter()
            .map(|&dc| DpcPipeline::new(spec.params(dc)))
            .collect(),
        first: vec![vec![None; spec.indexes.len()]; spec.dcs.len()],
        indexes,
    };
    let index_bytes: Vec<usize> = sys.indexes.iter().map(|i| i.memory_bytes()).collect();

    let measured = match rec {
        None => {
            let phase = sys.measure(config.budget, None, &mut probe, &mut out);
            out.set("index_mb", index_bytes.iter().sum::<usize>() as f64 / 1e6);
            out.info("op", "\"one DpcPipeline::run clustering\"".into());
            report_timings(&phase.timings, spec.tail_q, &probe, &mut out);
            phase
        }
        Some(rec) => {
            let plain = sys.measure(config.budget.half(), None, &mut probe, &mut out);
            let traced = sys.measure(config.budget.half(), Some(rec), &mut probe, &mut out);
            for (slot, name) in spec.indexes.iter().enumerate() {
                out.set(format!("build_s.{name}"), probe.setup_median(slot + 1));
                out.set(format!("bytes.{name}"), index_bytes[slot] as f64);
            }
            report_layers(&sys, &plain, &traced, &mut out);
            traced
        }
    };
    report_setup(&probe, &mut out);
    drop(probe);
    let ari = sys.gate(&data, &mut out);
    if !config.trace {
        out.set("approx_ari", ari);
    }
    out.ops("clusterings", measured.attempted, measured.failed);
    out.info("n", data.len().to_string());
    out.info("dcs", format!("{:?}", spec.dcs));
    out.info("k", spec.k.to_string());
    out.info("threads", "1".into());
    out
}

impl System<'_> {
    /// Runs whole dc sweeps, with the host probe between them, until
    /// `budget` is spent and the latency tail has `MIN_BEYOND` samples
    /// beyond it.
    fn measure(
        &mut self,
        budget: Budget,
        rec: Option<&Rec>,
        probe: &mut HostProbe,
        out: &mut Outcome,
    ) -> Phase {
        let mut phase = Phase {
            timings: Timings::new(),
            attempted: 0,
            failed: 0,
            per_index: vec![LayerTimes::default(); self.indexes.len()],
        };
        let started = Instant::now();
        let mut rounds = 0;
        // Past the budget, sweeps continue until the tail over the kept
        // sweeps has enough samples beyond it (or a clustering failed, which
        // fails the run).
        while !(budget.spent(started, rounds)
            && (phase.timings.kept_beyond(self.spec.tail_q) >= MIN_BEYOND || phase.failed > 0))
        {
            for (d, pipeline) in self.pipelines.iter().enumerate() {
                for (slot, index) in self.indexes.iter().enumerate() {
                    let start = Instant::now();
                    let result = pipeline.run(index.as_ref());
                    let took = start.elapsed();
                    phase.attempted += 1;
                    let Ok(run) = result else {
                        phase.failed += 1;
                        continue;
                    };
                    phase.timings.record(took, 1.0);
                    let layer = &mut phase.per_index[slot];
                    layer.runs += 1;
                    layer.rho += run.rho_time;
                    layer.delta += run.delta_time;
                    layer.assign += run.assign_time;
                    if let Some(rec) = rec {
                        let name = self.spec.indexes[slot];
                        rec.span(&format!("dpc.run.{name}"), start, took);
                        rec.span("query.rho", start, run.rho_time);
                        rec.span("query.delta", start + run.rho_time, run.delta_time);
                        rec.span(
                            "core.select_assign",
                            start + run.rho_time + run.delta_time,
                            run.assign_time,
                        );
                    }
                    let outputs = Outputs::of(&run);
                    match &self.first[d][slot] {
                        None => self.first[d][slot] = Some(outputs),
                        Some(first) => out.check(*first == outputs, || {
                            format!(
                                "{} at dc {} changed between rounds",
                                self.spec.indexes[slot], self.spec.dcs[d]
                            )
                        }),
                    }
                    black_box(run);
                }
            }
            phase.timings.end_round();
            probe.between_rounds();
            rounds += 1;
        }
        phase
    }

    /// The correctness gate: every exact index agrees bit-for-bit on ρ, µ
    /// and labels at every dc (and with a cold `NaiveReferenceIndex` where
    /// the spec asks for it). Returns the mean ARI over the spec's pairs.
    fn gate(&self, data: &Dataset, out: &mut Outcome) -> f64 {
        let spec = self.spec;
        let slot_of = |name: &str| {
            spec.indexes
                .iter()
                .position(|n| *n == name)
                .expect("ARI pair names a measured index")
        };
        let naive = spec.naive_check.then(|| NaiveReferenceIndex::build(data));
        let mut ari_sum = 0.0;
        let mut ari_count = 0usize;
        for (d, pipeline) in self.pipelines.iter().enumerate() {
            let dc = spec.dcs[d];
            let exact: Vec<(usize, &Outputs)> = self
                .indexes
                .iter()
                .enumerate()
                .filter(|(_, index)| index.is_exact())
                .filter_map(|(slot, _)| self.first[d][slot].as_ref().map(|o| (slot, o)))
                .collect();
            out.check(!exact.is_empty(), || {
                format!("no exact clustering at dc {dc}")
            });
            let reference = match &naive {
                Some(naive) => match pipeline.run(naive) {
                    Ok(run) => Some(Outputs::of(&run)),
                    Err(e) => {
                        out.check(false, || format!("naive reference at dc {dc}: {e}"));
                        None
                    }
                },
                None => exact.first().map(|(_, o)| (*o).clone()),
            };
            if let Some(reference) = &reference {
                for (slot, outputs) in &exact {
                    out.check(*outputs == reference, || {
                        format!(
                            "{} disagrees with the reference at dc {dc}",
                            spec.indexes[*slot]
                        )
                    });
                }
            }
            for (approx, exact) in spec.ari_pairs {
                let (Some(a), Some(e)) = (
                    &self.first[d][slot_of(approx)],
                    &self.first[d][slot_of(exact)],
                ) else {
                    out.check(false, || {
                        format!("no {approx}/{exact} clustering at dc {dc}")
                    });
                    continue;
                };
                ari_sum += adjusted_rand_index_labels(&a.labels, &e.labels);
                ari_count += 1;
            }
        }
        ari_sum / ari_count.max(1) as f64
    }
}

fn report_layers(sys: &System<'_>, plain: &Phase, traced: &Phase, out: &mut Outcome) {
    let spec = sys.spec;
    let mut covered = Duration::ZERO;
    let mut assign = Duration::ZERO;
    let mut runs = 0;
    for (slot, name) in spec.indexes.iter().enumerate() {
        let t = traced.per_index[slot];
        let per_run = |d: Duration| d.as_secs_f64() * 1e3 / t.runs.max(1) as f64;
        out.set(format!("rho_ms.{name}"), per_run(t.rho));
        out.set(format!("delta_ms.{name}"), per_run(t.delta));
        covered += t.rho + t.delta + t.assign;
        assign += t.assign;
        runs += t.runs;
    }
    out.set(
        "core.select_assign_ms",
        assign.as_secs_f64() * 1e3 / runs.max(1) as f64,
    );
    out.set(
        "obs.trace_overhead_frac",
        1.0 - traced.timings.throughput() / plain.timings.throughput(),
    );
    out.set(
        "obs.unattributed_frac",
        1.0 - covered.as_secs_f64() / traced.timings.busy().as_secs_f64().max(1e-12),
    );
    // Tree traversal counters, from the observed query hook, summed over
    // the sweep. They are deterministic, so one pass outside the measured
    // phases gives the same counts the measured clusterings did.
    for (slot, name) in spec.indexes.iter().enumerate() {
        if !TREE_INDEXES.contains(name) {
            continue;
        }
        let counting = LayerRecorder::shared();
        for &dc in &spec.dcs {
            let result =
                sys.indexes[slot].rho_delta_observed(dc, ExecPolicy::Sequential, counting.as_ref());
            out.check(result.is_ok(), || {
                format!("observed query on {name} at dc {dc}")
            });
        }
        let data = counting.snapshot();
        for c in RHO_COUNTERS {
            let v = data.counter(&format!("query.rho.{c}"));
            out.set(format!("query.rho.{c}.{name}"), v as f64);
        }
        for c in DELTA_COUNTERS {
            let v = data.counter(&format!("query.delta.{c}"));
            out.set(format!("query.delta.{c}.{name}"), v as f64);
        }
        let pruned = data.counter("query.delta.nodes_density_pruned")
            + data.counter("query.delta.nodes_distance_pruned");
        let visited = data.counter("query.delta.nodes_visited");
        out.set(
            format!("delta_prune_frac.{name}"),
            pruned as f64 / (pruned + visited).max(1) as f64,
        );
    }
}
