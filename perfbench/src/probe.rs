//! A host-speed probe: two fixed kernels, timed between measured rounds.
//!
//! On the shared 2-vCPU virtual machine the benchmark was tuned on, other
//! tenants slowed the same work by up to half for stretches of seconds to
//! several minutes (no steal time showed; the cores' caches, the 105 MiB L3
//! and the memory bus are shared). A stretch can cover whole runs, so no
//! statistic over one run's rounds can tell it from a slower program. The
//! probe runs none of the program's code, so the program cannot move it,
//! while the host slows it with the program: the end-to-end timings are
//! scaled by how fast the probe ran in the same run.
//!
//! The workloads both stream memory (lists, δ scans) and compute
//! (distances), and the host slowed the two by different amounts: in one
//! slow stretch a 128 MiB read took 1.5 times as long, an L1-resident
//! distance loop 2.1 times, and batch-lists' sweeps 1.8 times. So the probe
//! times one kernel of each kind, and the host factor is the geometric mean
//! of their speeds. Over 17–25 s windows of long runs, scaling by it cut the
//! spread of the fastest-quarter throughput across windows from 0.06–0.41
//! to 0.03–0.09 (interquartile range over median); either kernel alone
//! over-corrected some workload.
//!
//! The probe also spreads the set-up rounds over the run. Three rounds run
//! up front; when a round is cheap, one more runs after each probe run. A
//! set-up round of a few tens of milliseconds repeated only up front sampled
//! the host for about a second: the median of 50 such rounds moved by up to
//! half between runs of the same seed, as bursts of other tenants' work came
//! and went.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dpc_datasets::SplitMix64;

use crate::stats::{median, KEEP_ONE_IN};

/// Bytes the read kernel reads at the workloads' sizes.
pub const PAPER_BYTES: usize = 128 << 20;

/// Times of the read kernel (over `PAPER_BYTES`) and of the distance
/// kernel on the quiet tuning host, in milliseconds: the host factor is
/// about 1 there. On another host it only rescales every run alike.
pub const REFERENCE_MS: [f64; 2] = [12.0, 1.4];

/// Points of the distance kernel: all pairs of them are compared.
const POINTS: usize = 2_000;

/// Least time between two probes; a probe takes about 14 ms.
const EVERY: Duration = Duration::from_millis(500);

/// Set-up rounds every run makes up front; the last one's system is measured.
pub const SETUP_UP_FRONT: usize = 3;

/// Set-up rounds whose median up-front round is shorter than this, in
/// seconds, are repeated after each probe run as well.
const CHEAP_SETUP_S: f64 = 0.1;

/// One set-up round, outside every timed region: its seconds, the total
/// first and then its parts, or `None` if it failed.
pub type SetupRound<'a> = Box<dyn FnMut() -> Option<Vec<f64>> + 'a>;

/// The probe and its timings over one run, plus the run's set-up rounds.
pub struct HostProbe<'a> {
    buf: Vec<u64>,
    points: Vec<(f64, f64)>,
    /// Milliseconds of each run of the read and the distance kernel.
    ms: [Vec<f64>; 2],
    last: Option<Instant>,
    setup: Vec<Vec<f64>>,
    more_setup: Option<SetupRound<'a>>,
    setup_failures: usize,
}

impl<'a> HostProbe<'a> {
    /// A probe reading `bytes` bytes, touched once here, outside every
    /// timed region, and `up_front`: the set-up rounds made before it (each
    /// its total and then its parts, in seconds). If their median total is
    /// under a tenth of a second, `more_setup` runs after each probe run.
    pub fn new(bytes: usize, up_front: Vec<Vec<f64>>, more_setup: SetupRound<'a>) -> Self {
        let mut rng = SplitMix64::new(0x0050_B0E5);
        let totals: Vec<f64> = up_front.iter().map(|round| round[0]).collect();
        let cheap = !totals.is_empty() && median(&totals) < CHEAP_SETUP_S;
        HostProbe {
            buf: (0..(bytes / 8).max(1) as u64).collect(),
            points: (0..POINTS)
                .map(|_| (rng.next_f64(), rng.next_f64()))
                .collect(),
            ms: [Vec::new(), Vec::new()],
            last: None,
            setup: up_front,
            more_setup: cheap.then_some(more_setup),
            setup_failures: 0,
        }
    }

    /// The median over every set-up round of part `part` (0: the round's
    /// total).
    pub fn setup_median(&self, part: usize) -> f64 {
        let values: Vec<f64> = self.setup.iter().map(|round| round[part]).collect();
        median(&values)
    }

    /// `setup_s`: the median set-up round, scaled by the host factor when
    /// the rounds were spread over the run, where the probe ran beside them.
    pub fn setup_s(&self) -> f64 {
        let median = self.setup_median(0);
        if self.more_setup.is_some() {
            median * self.factor()
        } else {
            median
        }
    }

    /// Set-up rounds so far, and how many of the spread ones failed.
    pub fn setup_rounds(&self) -> (usize, usize) {
        (self.setup.len(), self.setup_failures)
    }

    /// Runs the probe between two rounds, and then a set-up round if set-up
    /// is cheap, unless they ran less than half a second ago.
    pub fn between_rounds(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        let start = Instant::now();
        let sum = black_box(&self.buf)
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_add(v));
        black_box(sum);
        let read = start.elapsed();

        let start = Instant::now();
        let points = black_box(&self.points);
        let mut close = 0u64;
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                let (dx, dy) = (a.0 - b.0, a.1 - b.1);
                close += u64::from(dx * dx + dy * dy < 0.01);
            }
        }
        black_box(close);
        let distance = start.elapsed();

        let scale = PAPER_BYTES as f64 / (self.buf.len() * 8) as f64;
        self.ms[0].push(read.as_secs_f64() * 1e3 * scale);
        self.ms[1].push(distance.as_secs_f64() * 1e3);
        if let Some(more_setup) = &mut self.more_setup {
            match more_setup() {
                Some(round) => self.setup.push(round),
                None => self.setup_failures += 1,
            }
        }
        self.last = Some(Instant::now());
    }

    /// Probe runs so far.
    pub fn runs(&self) -> usize {
        self.ms[0].len()
    }

    /// Mean time of each kernel over its fastest quarter of runs, in
    /// milliseconds (the read scaled to `PAPER_BYTES`; 0 before the first
    /// run).
    pub fn kept_ms(&self) -> [f64; 2] {
        self.ms.clone().map(|mut ms| {
            ms.sort_by(f64::total_cmp);
            ms.truncate(ms.len().div_ceil(KEEP_ONE_IN));
            ms.iter().sum::<f64>() / ms.len().max(1) as f64
        })
    }

    /// The geometric mean over both kernels of `REFERENCE_MS` over the kept
    /// time: below 1 on a host slower than the quiet tuning host (1 before
    /// the first run). End-to-end latencies are multiplied by it and
    /// throughputs divided by it.
    pub fn factor(&self) -> f64 {
        if self.runs() == 0 {
            return 1.0;
        }
        let [read, distance] = self.kept_ms();
        (REFERENCE_MS[0] / read * REFERENCE_MS[1] / distance).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_runs_at_most_every_half_second_and_keeps_its_fastest_quarter() {
        let mut p = HostProbe::new(1 << 20, vec![vec![1.0]], Box::new(|| unreachable!()));
        assert_eq!(p.factor(), 1.0);
        p.between_rounds();
        p.between_rounds();
        assert_eq!(p.runs(), 1);
        assert_eq!(p.setup_rounds(), (1, 0));
        assert!(p.kept_ms().iter().all(|&ms| ms > 0.0));
        p.ms = [vec![48.0, 12.0, 36.0, 24.0, 60.0], vec![2.8; 5]];
        assert_eq!(p.kept_ms(), [18.0, 2.8]);
        let expected = (12.0 / 18.0 * 1.4 / 2.8f64).sqrt();
        assert!((p.factor() - expected).abs() < 1e-12);
    }

    #[test]
    fn only_cheap_setup_rounds_repeat_after_each_probe_run() {
        let mut made = 0;
        let more = Box::new(|| {
            made += 1;
            (made != 2).then(|| vec![0.05, 0.02, 0.03])
        });
        let mut p = HostProbe::new(1 << 20, vec![vec![0.01, 0.004, 0.006]; 3], more);
        p.between_rounds();
        assert_eq!(p.setup_rounds(), (4, 0));
        p.last = None;
        p.between_rounds();
        assert_eq!(p.setup_rounds(), (4, 1));
        p.last = None;
        p.between_rounds();
        assert_eq!(p.setup_rounds(), (5, 1));
        assert_eq!(p.setup_median(0), 0.01);
        assert_eq!(p.setup_median(2), 0.006);
        p.ms = [vec![24.0], vec![2.8]];
        assert!((p.setup_s() - 0.005).abs() < 1e-12, "{}", p.setup_s());

        let mut p = HostProbe::new(1 << 20, vec![vec![4.0]; 3], Box::new(|| unreachable!()));
        p.between_rounds();
        assert_eq!(p.setup_rounds(), (3, 0));
        assert_eq!(p.setup_median(0), 4.0);
        assert_eq!(p.setup_s(), 4.0);
    }
}
