//! A deliberately simple O(n²) reference implementation of the ρ- and
//! δ-queries.
//!
//! This is *not* the paper's baseline (that is `LeanDpc` in the
//! `dpc-baseline` crate); it is the smallest possible implementation of
//! [`DpcIndex`] — a dataset handed to the sequential [`brute`] kernels —
//! used as ground truth in unit tests, doctests and property tests
//! throughout the workspace, and as the default index for tiny datasets in
//! examples.

use std::time::Duration;

use dpc_obs::Timer;

use crate::brute;
use crate::delta::{DeltaResult, DensityOrder};
use crate::density::Rho;
use crate::error::Result;
use crate::exec::ExecPolicy;
use crate::index::{DpcIndex, IndexStats, Query, UpdatableIndex};
use crate::point::{Dataset, Point, PointId};

/// The reference index: stores only a clone of the dataset and answers every
/// query by scanning all pairs.
#[derive(Debug, Clone)]
pub struct NaiveReferenceIndex {
    dataset: Dataset,
    stats: IndexStats,
}

impl NaiveReferenceIndex {
    /// "Builds" the reference index (just clones the dataset).
    pub fn build(dataset: &Dataset) -> Self {
        let timer = Timer::start();
        let dataset = dataset.clone();
        let memory = dataset.memory_bytes();
        let stats = IndexStats::new(timer.elapsed(), memory);
        NaiveReferenceIndex { dataset, stats }
    }
}

impl DpcIndex for NaiveReferenceIndex {
    fn name(&self) -> &'static str {
        "naive-reference"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn len(&self) -> usize {
        self.dataset.len()
    }

    fn rho(&self, query: &Query<'_>) -> Result<Vec<Rho>> {
        query.validate()?;
        Ok(brute::rho_scan(&self.dataset, &sequential(query)))
    }

    fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        query.validate_delta(rho, self.dataset.len())?;
        let order = DensityOrder::new(rho);
        Ok(brute::delta_scan(&self.dataset, &order, &sequential(query)))
    }

    fn memory_bytes(&self) -> usize {
        self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            construction_time: self.stats.construction_time.max(Duration::ZERO),
            memory_bytes: self.memory_bytes(),
            counters: self.stats.counters.clone(),
        }
    }
}

/// The reference stays single-threaded whatever the query asks for: the
/// parallel executor is one of the things it checks.
fn sequential<'r>(query: &Query<'r>) -> Query<'r> {
    query.with_exec(ExecPolicy::Sequential)
}

/// The reference index is trivially updatable: it holds nothing but the
/// dataset, so the mutations delegate straight to [`Dataset`] and the
/// ε-query is a linear scan. This makes it the ground truth for the
/// streaming engine exactly as it is for the batch queries.
impl UpdatableIndex for NaiveReferenceIndex {
    fn insert(&mut self, p: Point) -> Result<PointId> {
        self.dataset.push(p)
    }

    fn remove(&mut self, id: PointId) -> Result<Option<PointId>> {
        self.dataset.swap_remove(id)
    }

    fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>> {
        brute::eps_neighbors_scan(&self.dataset, center, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn two_blobs() -> Dataset {
        Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.0, 0.1),
            Point::new(5.0, 5.0),
            Point::new(5.1, 5.0),
        ])
    }

    #[test]
    fn rho_counts_strictly_within_dc() {
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ]);
        let idx = NaiveReferenceIndex::build(&data);
        // dc exactly equal to a pairwise distance must NOT count it.
        let rho = idx.rho(&Query::new(1.0)).unwrap();
        assert_eq!(rho, vec![0.0, 0.0, 0.0]);
        let rho = idx.rho(&Query::new(1.0001)).unwrap();
        assert_eq!(rho, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn rho_never_counts_self() {
        let data = Dataset::new(vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)]);
        let idx = NaiveReferenceIndex::build(&data);
        // Coincident points: each sees the other but not itself.
        assert_eq!(idx.rho(&Query::new(0.5)).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn delta_of_global_peak_is_max_distance() {
        let data = two_blobs();
        let idx = NaiveReferenceIndex::build(&data);
        let (rho, dres) = idx.rho_delta(&Query::new(0.2)).unwrap();
        let order = DensityOrder::new(&rho);
        let peak = order.global_peak().unwrap();
        assert_eq!(dres.mu(peak), None);
        let expected: f64 = (0..data.len())
            .filter(|&q| q != peak)
            .map(|q| data.distance(peak, q))
            .fold(0.0, f64::max);
        assert_eq!(dres.delta(peak), expected);
    }

    #[test]
    fn delta_points_to_strictly_denser_neighbours() {
        let data = two_blobs();
        let idx = NaiveReferenceIndex::build(&data);
        let (rho, dres) = idx.rho_delta(&Query::new(0.2)).unwrap();
        let order = DensityOrder::new(&rho);
        dres.validate(&order).unwrap();
    }

    #[test]
    fn delta_is_distance_to_mu() {
        let data = two_blobs();
        let idx = NaiveReferenceIndex::build(&data);
        let (_, dres) = idx.rho_delta(&Query::new(0.2)).unwrap();
        for p in 0..data.len() {
            if let Some(q) = dres.mu(p) {
                assert_eq!(dres.delta(p), data.distance(p, q));
            }
        }
    }

    #[test]
    fn queries_reject_invalid_dc() {
        let idx = NaiveReferenceIndex::build(&two_blobs());
        assert!(idx.rho(&Query::new(0.0)).is_err());
        assert!(idx.rho(&Query::new(-2.0)).is_err());
        assert!(idx.rho(&Query::new(f64::NAN)).is_err());
        assert!(idx.delta(&Query::new(0.0), &[0.0; 5]).is_err());
    }

    #[test]
    fn delta_rejects_wrong_rho_length() {
        let idx = NaiveReferenceIndex::build(&two_blobs());
        assert!(idx.delta(&Query::new(0.5), &[0.0; 3]).is_err());
    }

    #[test]
    fn empty_dataset_yields_empty_results() {
        let idx = NaiveReferenceIndex::build(&Dataset::new(vec![]));
        let (rho, dres) = idx.rho_delta(&Query::new(1.0)).unwrap();
        assert!(rho.is_empty());
        assert!(dres.is_empty());
    }

    #[test]
    fn single_point_is_its_own_peak_with_zero_delta() {
        let idx = NaiveReferenceIndex::build(&Dataset::new(vec![Point::new(1.0, 1.0)]));
        let (rho, dres) = idx.rho_delta(&Query::new(1.0)).unwrap();
        assert_eq!(rho, vec![0.0]);
        assert_eq!(dres.mu(0), None);
        assert_eq!(dres.delta(0), 0.0);
    }

    #[test]
    fn updatable_impl_matches_a_fresh_build_after_mutations() {
        let mut idx = NaiveReferenceIndex::build(&two_blobs());
        let x = idx.insert(Point::new(0.05, 0.05)).unwrap();
        assert_eq!(x, 5);
        // Removing id 1 renames the last point (5) to 1.
        assert_eq!(idx.remove(1).unwrap(), Some(5));
        let fresh = NaiveReferenceIndex::build(idx.dataset());
        let (r1, d1) = idx.rho_delta(&Query::new(0.2)).unwrap();
        let (r2, d2) = fresh.rho_delta(&Query::new(0.2)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn eps_neighbors_is_strict_and_sorted() {
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.5, 0.0),
        ]);
        let idx = NaiveReferenceIndex::build(&data);
        // Strictly-within: the point at distance exactly 1.0 is excluded.
        assert_eq!(
            idx.eps_neighbors(Point::new(0.0, 0.0), 1.0).unwrap(),
            vec![0, 3]
        );
        assert_eq!(
            idx.eps_neighbors(Point::new(0.0, 0.0), 1.5).unwrap(),
            vec![0, 1, 3]
        );
        assert!(idx.eps_neighbors(Point::origin(), 0.0).is_err());
    }
}
