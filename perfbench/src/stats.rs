//! Exact order statistics over recorded samples.
//!
//! Percentiles are read straight from the sorted samples (nearest rank), so
//! a 20% change in a latency shows as a 20% change in its percentile. The
//! log-bucketed `dpc_obs::Histogram` rounds up to the next power of two and
//! is deliberately not used here.

use std::time::Duration;

/// Samples every reported percentile has beyond it, in every run. Measured
/// phases run on past their budget until their percentiles have them.
pub const MIN_BEYOND: usize = 10;

/// The end-to-end metrics keep one round in this many: the fastest ones.
pub const KEEP_ONE_IN: usize = 4;

/// Latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Records one duration.
    pub fn push_duration(&mut self, d: Duration) {
        self.push(nanos(d));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The nearest-rank `q`-quantile in nanoseconds (0 for an empty set).
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        if self.ns.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        self.ns[rank(self.ns.len(), q) - 1]
    }

    /// The `q`-quantile in milliseconds.
    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e6
    }

    /// How many samples lie strictly beyond the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        beyond(self.ns.len(), q)
    }
}

/// One round of timed operations: a dc sweep that repeats the work of every
/// other sweep, or a block of consecutive epochs.
#[derive(Debug, Clone, Default)]
struct Round {
    ns: Vec<u64>,
    busy: Duration,
    units: f64,
}

impl Round {
    /// Units of work per second of busy time.
    fn rate(&self) -> f64 {
        self.units / self.busy.as_secs_f64().max(1e-12)
    }
}

/// Timed operations, grouped into rounds: their latencies, the time spent
/// inside the timed calls and the units of work they completed.
///
/// The end-to-end metrics are taken over the fastest quarter of the rounds
/// (`kept`). A shared host can only make a round slower, while a change to
/// the code moves every round. On the 2-vCPU virtual machine this was tuned
/// on, other tenants slowed the same work by up to half for stretches of
/// seconds to a minute, so that statistics over all rounds moved with the
/// share of the run that happened to be slow.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    rounds: Vec<Round>,
    open: Round,
}

/// The fastest quarter of a run's rounds.
#[derive(Debug, Clone)]
pub struct Kept {
    /// Latencies of every operation in the kept rounds.
    pub samples: Samples,
    /// The median over the kept rounds of each round's median latency, in
    /// nanoseconds. A dc sweep repeats a fixed set of clusterings whose
    /// latencies form separate clusters; with an even number of them, the
    /// median of the pooled samples falls on the edge between two clusters
    /// and jumps between them from run to run, where each sweep's own
    /// median is always the same clustering.
    pub median_ns: u64,
    /// Units of work per second of busy time over the kept rounds.
    pub rate: f64,
    /// How many rounds were kept.
    pub rounds: usize,
}

impl Timings {
    /// No operations yet.
    pub fn new() -> Self {
        Timings::default()
    }

    /// Records one timed operation that completed `units` units of work.
    pub fn record(&mut self, latency: Duration, units: f64) {
        self.open.ns.push(nanos(latency));
        self.open.busy += latency;
        self.open.units += units;
    }

    /// Ends the current round (an empty one is dropped).
    pub fn end_round(&mut self) {
        if !self.open.ns.is_empty() {
            self.rounds.push(std::mem::take(&mut self.open));
        }
    }

    /// Completed rounds.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Every completed round's rate, in order.
    pub fn round_rates(&self) -> Vec<f64> {
        self.rounds.iter().map(Round::rate).collect()
    }

    /// The fastest quarter of the completed rounds (rounded up), fastest
    /// first.
    fn fastest(&self) -> Vec<&Round> {
        let mut by_rate: Vec<&Round> = self.rounds.iter().collect();
        by_rate.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
        by_rate.truncate(self.rounds.len().div_ceil(KEEP_ONE_IN));
        by_rate
    }

    /// How many samples of the kept rounds lie beyond their `q`-quantile.
    pub fn kept_beyond(&self, q: f64) -> usize {
        beyond(self.fastest().iter().map(|r| r.ns.len()).sum(), q)
    }

    /// The fastest quarter of the completed rounds.
    pub fn kept(&self) -> Kept {
        let fastest = self.fastest();
        let mut samples = Samples::new();
        let mut medians = Samples::new();
        let (mut busy, mut units) = (Duration::ZERO, 0.0);
        for round in &fastest {
            let mut own = Samples::new();
            for &ns in &round.ns {
                samples.push(ns);
                own.push(ns);
            }
            medians.push(own.quantile_ns(0.5));
            busy += round.busy;
            units += round.units;
        }
        Kept {
            median_ns: medians.quantile_ns(0.5),
            samples,
            rate: units / busy.as_secs_f64().max(1e-12),
            rounds: fastest.len(),
        }
    }

    /// Latencies of every operation.
    pub fn all(&self) -> Samples {
        let mut samples = Samples::new();
        for round in self.every() {
            for &ns in &round.ns {
                samples.push(ns);
            }
        }
        samples
    }

    /// Units of work per second of busy time, over every operation.
    pub fn throughput(&self) -> f64 {
        let units: f64 = self.every().map(|r| r.units).sum();
        units / self.busy().as_secs_f64().max(1e-12)
    }

    /// Summed duration of the timed calls.
    pub fn busy(&self) -> Duration {
        self.every().map(|r| r.busy).sum()
    }

    fn every(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().chain(std::iter::once(&self.open))
    }
}

/// A duration in whole nanoseconds.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the `q`-quantile's rank.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of a non-empty list of values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let mut s = Samples::new();
        for v in 1..=100u64 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_ns(0.5), 50_000);
        assert_eq!(s.quantile_ns(0.9), 90_000);
        assert_eq!(s.quantile_ns(0.99), 99_000);
        assert_eq!(s.quantile_ns(1.0), 100_000);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.quantile_ms(0.5), 0.05);
    }

    #[test]
    fn a_twenty_percent_shift_shows_as_twenty_percent() {
        let mut a = Samples::new();
        let mut b = Samples::new();
        for v in 0..1000u64 {
            a.push(1000 + v);
            b.push((1000 + v) * 6 / 5);
        }
        let ratio = b.quantile_ns(0.99) as f64 / a.quantile_ns(0.99) as f64;
        assert!((ratio - 1.2).abs() < 1e-3, "{ratio}");
    }

    #[test]
    fn timings_give_throughput_over_busy_time() {
        let mut t = Timings::new();
        for _ in 0..100 {
            t.record(Duration::from_micros(100), 1.0);
        }
        t.record(Duration::from_millis(10), 100.0);
        assert_eq!(t.busy(), Duration::from_millis(20));
        assert!((t.throughput() - 10_000.0).abs() < 1e-6);
        assert_eq!(t.all().len(), 101);
        assert_eq!(t.all().beyond(0.9), 10);
        assert_eq!(t.rounds(), 0);
    }

    #[test]
    fn kept_rounds_are_the_fastest_quarter() {
        let mut t = Timings::new();
        for each in [200, 100, 400, 300, 150, 250, 350, 450] {
            for _ in 0..10 {
                t.record(Duration::from_micros(each), 1.0);
            }
            t.end_round();
        }
        t.end_round();
        assert_eq!(t.rounds(), 8);
        let mut kept = t.kept();
        assert_eq!(kept.rounds, 2);
        assert_eq!(kept.samples.len(), 20);
        assert_eq!(t.kept_beyond(0.5), 10);
        assert_eq!(kept.samples.quantile_ns(0.5), 100_000);
        assert_eq!(kept.median_ns, 100_000);
        assert_eq!(kept.samples.quantile_ns(1.0), 150_000);
        assert!((kept.rate - 8_000.0).abs() < 1e-6, "{}", kept.rate);
        assert!(t.throughput() < kept.rate);
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
