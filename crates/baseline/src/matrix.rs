//! Distance-matrix baseline: pairwise squared distances are computed once
//! and reused across queries for different `dc`.

use std::time::{Duration, Instant};

use dpc_core::{
    brute, closer, Dataset, DeltaResult, DensityOrder, DpcIndex, IndexStats, Query, Result, Rho,
};

/// Condensed symmetric matrix of pairwise *squared* distances, the values
/// every comparison of the distance contract works on (see
/// [`dpc_core::metric`]).
///
/// Only the strict upper triangle is stored (`n·(n−1)/2` entries, `f64`), so
/// the memory cost is half of a full matrix but still quadratic — this is the
/// memory wall that motivates the paper's tree-based indices for large
/// datasets.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    /// Upper-triangular entries in row-major order: (0,1), (0,2), …, (1,2), …
    entries: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes the pairwise squared-distance matrix of a dataset.
    pub fn compute(dataset: &Dataset) -> Self {
        let n = dataset.len();
        let mut entries = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
        let pts = dataset.points();
        for i in 0..n {
            for j in (i + 1)..n {
                entries.push(pts[i].distance_squared(&pts[j]));
            }
        }
        DistanceMatrix { n, entries }
    }

    /// Number of points covered by the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Squared distance between points `i` and `j` (0 when `i == j`).
    #[inline]
    pub fn distance_squared(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        // Index of (a, b) in the condensed upper triangle.
        let idx = a * self.n - a * (a + 1) / 2 + (b - a - 1);
        self.entries[idx]
    }

    /// Heap bytes used by the matrix.
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<f64>()
    }
}

/// The matrix-based baseline index.
#[derive(Debug, Clone)]
pub struct MatrixDpc {
    dataset: Dataset,
    matrix: DistanceMatrix,
    construction_time: Duration,
}

impl MatrixDpc {
    /// Builds the baseline: computes and stores all pairwise squared
    /// distances.
    pub fn build(dataset: &Dataset) -> Self {
        let timer = Instant::now();
        let matrix = DistanceMatrix::compute(dataset);
        MatrixDpc {
            dataset: dataset.clone(),
            matrix,
            construction_time: timer.elapsed(),
        }
    }

    /// Access to the stored distance matrix.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }
}

impl DpcIndex for MatrixDpc {
    fn name(&self) -> &'static str {
        "dpc-matrix"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn rho(&self, query: &Query<'_>) -> Result<Vec<Rho>> {
        query.validate()?;
        // The matrix serves the cut-off count; weighted kernels take the
        // canonical scan.
        if !query.kernel.is_cutoff() {
            return Ok(brute::weighted_rho_scan(&self.dataset, query));
        }
        let n = self.dataset.len();
        let dc2 = query.dc * query.dc;
        let mut rho = vec![0.0 as Rho; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if self.matrix.distance_squared(i, j) < dc2 {
                    rho[i] += 1.0;
                    rho[j] += 1.0;
                }
            }
        }
        Ok(rho)
    }

    fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        query.validate_delta(rho, self.dataset.len())?;
        let n = self.dataset.len();
        let order = DensityOrder::new(rho);
        let mut result = DeltaResult::unset(n);
        for p in 0..n {
            let mut best_sq = f64::INFINITY;
            let mut best_q = None;
            let mut max_sq = 0.0f64;
            for q in 0..n {
                if q == p {
                    continue;
                }
                let d2 = self.matrix.distance_squared(p, q);
                max_sq = max_sq.max(d2);
                if closer(d2, q, best_sq, best_q) && order.is_denser(q, p) {
                    best_sq = d2;
                    best_q = Some(q);
                }
            }
            result.delta[p] = if best_q.is_some() { best_sq } else { max_sq }.sqrt();
            result.mu[p] = best_q;
        }
        Ok(result)
    }

    fn memory_bytes(&self) -> usize {
        self.matrix.memory_bytes() + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            .with_counter("matrix_entries", self.matrix.entries.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::Point;

    fn dataset() -> Dataset {
        Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 6.0),
        ])
    }

    #[test]
    fn condensed_matrix_matches_direct_distances() {
        let data = dataset();
        let m = DistanceMatrix::compute(&data);
        for i in 0..data.len() {
            for j in 0..data.len() {
                assert_eq!(
                    m.distance_squared(i, j),
                    data.point(i).distance_squared(&data.point(j)),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matrix_diagonal_is_zero_and_symmetric() {
        let m = DistanceMatrix::compute(&dataset());
        for i in 0..5 {
            assert_eq!(m.distance_squared(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(m.distance_squared(i, j), m.distance_squared(j, i));
            }
        }
    }

    #[test]
    fn matrix_memory_is_quadratic() {
        let small = DistanceMatrix::compute(&Dataset::new(vec![Point::origin(); 10]));
        let big = DistanceMatrix::compute(&Dataset::new(vec![Point::origin(); 100]));
        assert!(big.memory_bytes() > 50 * small.memory_bytes());
    }

    #[test]
    fn matches_reference_implementation() {
        let data = dataset();
        let baseline = MatrixDpc::build(&data);
        let reference = NaiveReferenceIndex::build(&data);
        for dc in [0.5, 1.5, 3.0, 10.0] {
            let (r1, d1) = baseline.rho_delta(&Query::new(dc)).unwrap();
            let (r2, d2) = reference.rho_delta(&Query::new(dc)).unwrap();
            assert_eq!(r1, r2, "dc = {dc}");
            assert_eq!(d1, d2, "dc = {dc}");
        }
    }

    #[test]
    fn stats_report_matrix_entries() {
        let baseline = MatrixDpc::build(&dataset());
        assert_eq!(baseline.stats().counter("matrix_entries"), Some(10));
        assert!(baseline.memory_bytes() >= 10 * 8);
    }

    #[test]
    fn rejects_invalid_dc() {
        let baseline = MatrixDpc::build(&dataset());
        assert!(baseline.rho(&Query::new(0.0)).is_err());
        assert!(baseline.delta(&Query::new(f64::NAN), &[0.0; 5]).is_err());
    }

    #[test]
    fn empty_dataset() {
        let baseline = MatrixDpc::build(&Dataset::new(vec![]));
        let (rho, deltas) = baseline.rho_delta(&Query::new(1.0)).unwrap();
        assert!(rho.is_empty());
        assert!(deltas.is_empty());
    }
}
