//! Memory-lean baseline: recomputes every pairwise distance on the fly.
//!
//! This is what the paper actually measures as "DPC" — `Θ(n²)` time per
//! query and only `O(n)` working memory, so it runs (slowly) even where the
//! distance matrix would not fit. Both queries are the [`dpc_core::brute`]
//! kernels under the query's kernel, execution policy and recorder; with
//! [`ExecPolicy::Threads`](dpc_core::ExecPolicy::Threads) it is the
//! multi-threaded brute-force baseline.

use std::time::{Duration, Instant};

use dpc_core::{
    brute, Dataset, DeltaResult, DensityOrder, DpcIndex, IndexStats, Query, Result, Rho,
};

/// The memory-lean O(n²)-time baseline.
#[derive(Debug, Clone)]
pub struct LeanDpc {
    dataset: Dataset,
    construction_time: Duration,
}

impl LeanDpc {
    /// Builds the baseline (only clones the dataset).
    pub fn build(dataset: &Dataset) -> Self {
        let timer = Instant::now();
        LeanDpc {
            dataset: dataset.clone(),
            construction_time: timer.elapsed(),
        }
    }
}

impl DpcIndex for LeanDpc {
    fn name(&self) -> &'static str {
        "dpc-lean"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn rho(&self, query: &Query<'_>) -> Result<Vec<Rho>> {
        query.validate()?;
        Ok(brute::rho_scan(&self.dataset, query))
    }

    fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        query.validate_delta(rho, self.dataset.len())?;
        Ok(brute::delta_scan(
            &self.dataset,
            &DensityOrder::new(rho),
            query,
        ))
    }

    fn memory_bytes(&self) -> usize {
        self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::{ExecPolicy, Kernel, Point};
    use dpc_datasets::generators::{query, s1};

    #[test]
    fn threaded_queries_are_bit_identical_to_sequential() {
        let data = s1(3, 0.06).into_dataset(); // 300 points
        let lean = LeanDpc::build(&data);
        for kernel in [Kernel::Cutoff, Kernel::gaussian(30_000.0)] {
            for dc in [20_000.0, 100_000.0] {
                let seq = Query::new(dc).with_kernel(kernel);
                let (seq_rho, seq_delta) = lean.rho_delta(&seq).unwrap();
                for threads in [1usize, 2, 3, 4, 7] {
                    let policy = ExecPolicy::Threads(threads);
                    let (rho, delta) = lean.rho_delta(&seq.with_exec(policy)).unwrap();
                    assert_eq!(rho, seq_rho, "threads {threads}, dc {dc}");
                    assert_eq!(delta.delta, seq_delta.delta, "threads {threads}, dc {dc}");
                    assert_eq!(delta.mu, seq_delta.mu, "threads {threads}, dc {dc}");
                }
            }
        }
    }

    #[test]
    fn more_threads_than_points_and_empty_datasets_are_fine() {
        let data = query(5, 0.0005).into_dataset(); // tiny
        let many = Query::new(0.05).with_exec(ExecPolicy::Threads(64));
        let (rho, deltas) = LeanDpc::build(&data).rho_delta(&many).unwrap();
        assert_eq!(rho.len(), data.len());
        assert_eq!(deltas.len(), data.len());
        let four = Query::new(1.0).with_exec(ExecPolicy::Threads(4));
        let (rho, deltas) = LeanDpc::build(&Dataset::new(vec![]))
            .rho_delta(&four)
            .unwrap();
        assert!(rho.is_empty());
        assert!(deltas.is_empty());
    }

    #[test]
    fn tiny_dc_whose_square_underflows_is_rejected() {
        // dc = 1e-170 is positive and finite but dc² underflows to 0.0,
        // which would break the squared-distance comparisons (and previously
        // drove `count - 1` below zero); validation rejects it up front.
        let data = Dataset::new(vec![Point::new(0.0, 0.0); 3]);
        let lean = LeanDpc::build(&data);
        let threads = ExecPolicy::Threads(2);
        assert!(lean.rho(&Query::new(1e-170).with_exec(threads)).is_err());
        // A comfortably-above-the-limit dc counts coincident points.
        let rho = lean.rho(&Query::new(1e-100).with_exec(threads)).unwrap();
        assert_eq!(rho, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn strict_inequality_on_dc_boundary() {
        let data = Dataset::new(vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)]);
        let lean = LeanDpc::build(&data);
        assert_eq!(lean.rho(&Query::new(2.0)).unwrap(), vec![0.0, 0.0]);
        assert_eq!(lean.rho(&Query::new(2.0000001)).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let data = Dataset::new(vec![Point::origin()]);
        let lean = LeanDpc::build(&data);
        assert!(lean.rho(&Query::new(-1.0)).is_err());
        assert!(lean.delta(&Query::new(1.0), &[]).is_err());
    }
}
