//! The result of one run: counts, correctness, metrics and the JSON lines
//! the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::probe::HostProbe;
use crate::stats::{median, Samples, Timings, MIN_BEYOND};
use crate::{per_layer_catalogue, END_TO_END};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// Operations that returned an error plus checks that failed.
    pub failed: u64,
    /// One line per failed check or failed operation kind.
    pub problems: Vec<String>,
    values: BTreeMap<String, f64>,
    info: Vec<(String, String)>,
}

impl Outcome {
    /// An empty outcome for an untraced (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Outcome {
            trace,
            ..Outcome::default()
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// A metric value, if set.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `attempted` operations of which `failed` returned an error.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// Counts one correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Adds a diagnostic key with a raw JSON value to the info line.
    pub fn info(&mut self, key: &str, json_value: String) {
        self.info.push((key.to_owned(), json_value));
    }

    /// The raw JSON value of an info key, if added.
    pub fn info_value(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The metrics this run reports: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one. A per-layer
    /// metric the workload does not exercise reads 0.
    ///
    /// Marks the run incorrect if an end-to-end metric is missing, not
    /// positive, or any value is not finite.
    pub fn metrics(&mut self) -> Vec<Metric> {
        let catalogue: Vec<(String, &'static str)> = if self.trace {
            per_layer_catalogue()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
        };
        let mut out = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match (self.values.get(&name), self.trace) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => f64::NAN,
            };
            let valid = value.is_finite() && (self.trace || value > 0.0);
            if !valid {
                self.failed += 1;
                self.problems
                    .push(format!("metric {name} has no valid value ({value})"));
            }
            out.push(Metric {
                name,
                value: if value.is_finite() { value } else { 0.0 },
                unit,
            });
        }
        out
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&mut self) -> String {
        let metrics = self.metrics();
        let mut body = String::new();
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The diagnostic line printed before the result: parameters, sample
    /// counts, CPUs and threads, the error fraction and any problems.
    pub fn info_line(&self) -> String {
        let mut out = String::from("{");
        for (key, value) in &self.info {
            let _ = write!(out, "\"{key}\": {value}, ");
        }
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "'")))
            .collect();
        let _ = write!(
            out,
            "\"error_frac\": {}, \"problems\": [{}]}}",
            self.failed as f64 / self.attempted.max(1) as f64,
            problems.join(", ")
        );
        out
    }
}

/// Sets `ops_per_s`, `latency_p50_ms` (the median of the rounds' medians)
/// and `latency_tail_ms` (the `tail_q` quantile of the pooled samples) over
/// the fastest quarter of the rounds of `timings`, scaled by the host factor
/// of `probe`. Fails the run when the tail has fewer than
/// `MIN_BEYOND` samples beyond it. Records the unscaled values, the probe,
/// the sample and round counts, the throughput over every round and the
/// spread of the round rates on the info line.
pub fn report_timings(timings: &Timings, tail_q: f64, probe: &HostProbe, out: &mut Outcome) {
    let mut kept = timings.kept();
    // The tail lies beyond the median, so its check covers the median too.
    let p50 = kept.median_ns as f64 / 1e6;
    let tail = checked_quantile_ns(&mut kept.samples, tail_q, "latency", out) / 1e6;
    let factor = probe.factor();
    out.check(probe.runs() > 0, || "the host probe never ran".into());
    out.set("ops_per_s", kept.rate / factor);
    out.set("latency_p50_ms", p50 * factor);
    out.set("latency_tail_ms", tail * factor);
    out.info("host_factor", factor.to_string());
    let [read, distance] = probe.kept_ms();
    out.info("probe_kept_ms", format!("[{read}, {distance}]"));
    out.info("probe_runs", probe.runs().to_string());
    out.info("ops_per_s_unscaled", kept.rate.to_string());
    out.info("latency_p50_ms_unscaled", p50.to_string());
    out.info("latency_tail_ms_unscaled", tail.to_string());
    out.info("latency_samples", kept.samples.len().to_string());
    out.info("tail_q", tail_q.to_string());
    out.info("beyond_tail", kept.samples.beyond(tail_q).to_string());
    out.info(
        "rounds_kept",
        format!("[{}, {}]", kept.rounds, timings.rounds()),
    );
    out.info("ops_per_s_over_all", timings.throughput().to_string());
    let rates = timings.round_rates();
    if !rates.is_empty() {
        let (lo, hi) = rates
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        out.info(
            "round_rates_min_median_max",
            format!("[{lo}, {}, {hi}]", median(&rates)),
        );
    }
}

/// Sets `setup_s` (untraced runs) and records the unscaled median and how
/// many set-up rounds ran on the info line; fails the run if a set-up round
/// failed.
pub fn report_setup(probe: &HostProbe, out: &mut Outcome) {
    if !out.trace {
        out.set("setup_s", probe.setup_s());
    }
    let (rounds, failed) = probe.setup_rounds();
    out.info("setup_s_unscaled", probe.setup_median(0).to_string());
    out.info("setup_rounds", rounds.to_string());
    out.check(failed == 0, || format!("{failed} set-up rounds failed"));
}

/// The `q`-quantile of `samples` in nanoseconds. Fails the run when fewer
/// than `MIN_BEYOND` samples lie beyond it; `what` names the samples.
pub fn checked_quantile_ns(samples: &mut Samples, q: f64, what: &str, out: &mut Outcome) -> f64 {
    let beyond = samples.beyond(q);
    out.check(beyond >= MIN_BEYOND, || {
        format!("{what} quantile {q} has only {beyond} samples beyond it")
    });
    samples.quantile_ns(q) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_result_lists_every_end_to_end_metric() {
        let mut o = Outcome::new(false);
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.ops("clusterings", 10, 0);
        o.check(true, || unreachable!());
        let line = o.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 11, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!(
                    "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
                )),
                "{line}"
            );
        }
        assert!(o.info_line().contains("\"error_frac\": 0"));
    }

    #[test]
    fn a_missing_end_to_end_metric_or_failed_check_fails_the_run() {
        let mut o = Outcome::new(false);
        o.set("setup_s", 1.0);
        o.result_line();
        assert!(!o.correct());

        let mut o = Outcome::new(true);
        o.check(false, || "labels differ".into());
        let line = o.result_line();
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(o.info_line().contains("labels differ"));
    }

    #[test]
    fn a_tail_with_too_few_samples_beyond_it_fails_the_run() {
        let mut samples = Samples::new();
        for v in 0..500u64 {
            samples.push(v);
        }
        let mut o = Outcome::new(true);
        assert_eq!(
            checked_quantile_ns(&mut samples, 0.9, "reads", &mut o),
            449.0
        );
        assert!(o.correct());
        checked_quantile_ns(&mut samples, 0.99, "reads", &mut o);
        assert!(!o.correct());
        assert!(o.info_line().contains("reads quantile 0.99 has only 5"));
    }

    #[test]
    fn traced_result_fills_unexercised_layers_with_zero() {
        let mut o = Outcome::new(true);
        o.set("rho_ms.list", 2.0);
        let metrics = o.metrics();
        assert_eq!(metrics.len(), per_layer_catalogue().len());
        assert!(o.correct());
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("rho_ms.list"), 2.0);
        assert_eq!(get("rho_ms.kdtree"), 0.0);
    }
}
