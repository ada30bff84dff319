//! Multi-threaded variant of the lean baseline.
//!
//! Not part of the paper (all of its measurements are single-threaded), but a
//! useful reference point: it shows how far brute force can be pushed by
//! parallelism alone before the index structures still win asymptotically.
//! The chunked work partitioning lives in [`dpc_core::exec`] and the
//! per-point kernels in [`dpc_core::brute`] (both shared with
//! [`LeanDpc`](crate::LeanDpc)), so this type is little more than a stored
//! thread count. Each query
//! remains `Θ(n²)` total work, streamed over the dataset's
//! structure-of-arrays coordinate slices so the inner loops vectorise.

use std::time::Duration;

use dpc_core::index::{validate_dc, validate_rho_len};
use dpc_core::{
    brute, Dataset, DeltaResult, DensityOrder, DpcIndex, ExecPolicy, IndexStats, Result, Rho,
    TieBreak, Timer,
};

/// The parallel O(n²) baseline.
#[derive(Debug, Clone)]
pub struct ParallelDpc {
    dataset: Dataset,
    tie: TieBreak,
    threads: usize,
    construction_time: Duration,
}

impl ParallelDpc {
    /// Builds the baseline using all available CPU parallelism.
    pub fn build(dataset: &Dataset) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::build_with_threads(dataset, threads)
    }

    /// Builds the baseline with an explicit thread count.
    ///
    /// The worker count is clamped to the number of points, so
    /// [`threads()`](Self::threads) and the `threads` stats counter always
    /// report the number of workers a query actually spawns (the chunked
    /// partitioning never creates more chunks than points).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn build_with_threads(dataset: &Dataset, threads: usize) -> Self {
        assert!(threads > 0, "ParallelDpc: need at least one thread");
        let timer = Timer::start();
        ParallelDpc {
            tie: TieBreak::default(),
            threads: threads.min(dataset.len()).max(1),
            dataset: dataset.clone(),
            construction_time: timer.elapsed(),
        }
    }

    /// Number of worker threads used per query (unless a call-site policy
    /// overrides it through [`DpcIndex::rho_with_policy`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The policy the plain [`rho`](DpcIndex::rho)/[`delta`](DpcIndex::delta)
    /// queries run under.
    fn default_policy(&self) -> ExecPolicy {
        ExecPolicy::Threads(self.threads)
    }
}

impl DpcIndex for ParallelDpc {
    fn name(&self) -> &'static str {
        "dpc-parallel"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn rho(&self, dc: f64) -> Result<Vec<Rho>> {
        self.rho_with_policy(dc, self.default_policy())
    }

    fn delta(&self, dc: f64, rho: &[Rho]) -> Result<DeltaResult> {
        self.delta_with_policy(dc, rho, self.default_policy())
    }

    fn rho_with_policy(&self, dc: f64, policy: ExecPolicy) -> Result<Vec<Rho>> {
        validate_dc(dc)?;
        Ok(brute::rho_scan(&self.dataset, dc, policy))
    }

    fn delta_with_policy(&self, dc: f64, rho: &[Rho], policy: ExecPolicy) -> Result<DeltaResult> {
        validate_dc(dc)?;
        validate_rho_len(rho, self.dataset.len())?;
        let order = DensityOrder::with_tie_break(rho, self.tie);
        Ok(brute::delta_scan(&self.dataset, &order, policy))
    }

    fn memory_bytes(&self) -> usize {
        self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            .with_counter("threads", self.threads as u64)
    }

    fn tie_break(&self) -> TieBreak {
        self.tie
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lean::LeanDpc;
    use dpc_datasets::generators::{query, s1};

    #[test]
    fn matches_lean_baseline() {
        let data = s1(3, 0.06).into_dataset(); // 300 points
        let lean = LeanDpc::build(&data);
        for threads in [1, 2, 4, 7] {
            let par = ParallelDpc::build_with_threads(&data, threads);
            for dc in [20_000.0, 100_000.0] {
                let (r1, d1) = par.rho_delta(dc).unwrap();
                let (r2, d2) = lean.rho_delta(dc).unwrap();
                assert_eq!(r1, r2, "threads {threads}, dc {dc}");
                assert_eq!(d1.mu, d2.mu, "threads {threads}, dc {dc}");
            }
        }
    }

    #[test]
    fn explicit_policy_overrides_the_built_in_thread_count() {
        let data = s1(5, 0.04).into_dataset(); // 200 points
        let par = ParallelDpc::build_with_threads(&data, 4);
        let dc = 40_000.0;
        let (default_rho, default_delta) = par.rho_delta(dc).unwrap();
        for policy in [
            ExecPolicy::Sequential,
            ExecPolicy::Threads(1),
            ExecPolicy::Threads(3),
            ExecPolicy::Threads(9),
        ] {
            let (rho, delta) = par.rho_delta_with_policy(dc, policy).unwrap();
            assert_eq!(rho, default_rho, "{policy:?}");
            assert_eq!(delta.delta, default_delta.delta, "{policy:?}");
            assert_eq!(delta.mu, default_delta.mu, "{policy:?}");
        }
    }

    #[test]
    fn tiny_dc_whose_square_underflows_is_rejected() {
        use dpc_core::Point;
        // dc = 1e-170 is positive and finite but dc² underflows to 0.0,
        // which would break the squared-distance comparisons (and previously
        // drove `count - 1` below zero); validate_dc rejects it up front.
        let data = Dataset::new(vec![Point::new(0.0, 0.0); 3]);
        let par = ParallelDpc::build_with_threads(&data, 2);
        assert!(par.rho(1e-170).is_err());
        assert!(LeanDpc::build(&data).rho(1e-170).is_err());
        // A comfortably-above-the-limit dc counts coincident points.
        assert_eq!(par.rho(1e-100).unwrap(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn works_when_threads_exceed_points() {
        let data = query(5, 0.0005).into_dataset(); // tiny
        let par = ParallelDpc::build_with_threads(&data, 64);
        let (rho, deltas) = par.rho_delta(0.05).unwrap();
        assert_eq!(rho.len(), data.len());
        assert_eq!(deltas.len(), data.len());
    }

    #[test]
    fn clamps_threads_to_point_count() {
        use dpc_core::Point;
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        let par = ParallelDpc::build_with_threads(&data, 8);
        assert_eq!(par.threads(), 3, "worker count must be clamped to n");
        assert_eq!(par.stats().counter("threads"), Some(3));
        let lean = LeanDpc::build(&data);
        let (r1, d1) = par.rho_delta(1.5).unwrap();
        let (r2, d2) = lean.rho_delta(1.5).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(d1.mu, d2.mu);
    }

    #[test]
    fn empty_dataset_is_fine() {
        let par = ParallelDpc::build_with_threads(&Dataset::new(vec![]), 4);
        let (rho, deltas) = par.rho_delta(1.0).unwrap();
        assert!(rho.is_empty());
        assert!(deltas.is_empty());
    }

    #[test]
    fn reports_thread_count() {
        let data = s1(3, 0.01).into_dataset();
        let par = ParallelDpc::build_with_threads(&data, 3);
        assert_eq!(par.threads(), 3);
        assert_eq!(par.stats().counter("threads"), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ParallelDpc::build_with_threads(&Dataset::new(vec![]), 0);
    }
}
