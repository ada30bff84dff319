//! End-to-end DPC pipeline on top of any [`DpcIndex`].
//!
//! The pipeline performs the four steps of the original algorithm, with steps
//! 1–2 delegated to the index:
//!
//! 1. ρ-query (index),
//! 2. δ-query (index),
//! 3. centre selection on the decision graph,
//! 4. assignment of every point to the cluster of its dependent neighbour.
//!
//! [`cluster_with_index`] returns just the [`Clustering`];
//! [`DpcPipeline::run`] additionally returns the intermediate quantities and
//! per-step timings as a [`DpcRun`], which is what the experiment harness
//! consumes.

use std::time::Duration;

use dpc_obs::Timer;

use crate::assign::assign_clusters;
use crate::cluster::Clustering;
use crate::decision::DecisionGraph;
use crate::delta::{DeltaResult, DensityOrder};
use crate::density::Rho;
use crate::error::Result;
use crate::index::DpcIndex;
use crate::params::DpcParams;
use crate::point::PointId;

/// Everything produced by one DPC run: intermediate quantities, the final
/// clustering and per-step timings.
#[derive(Debug, Clone)]
pub struct DpcRun {
    /// Local density of every point.
    pub rho: Vec<Rho>,
    /// Dependent distance / neighbour of every point.
    pub deltas: DeltaResult,
    /// The decision graph built from `rho` and `deltas`.
    pub decision_graph: DecisionGraph,
    /// The selected cluster centres (sorted).
    pub centers: Vec<PointId>,
    /// The final clustering.
    pub clustering: Clustering,
    /// Wall-clock time of the ρ-query.
    pub rho_time: Duration,
    /// Wall-clock time of the δ-query.
    pub delta_time: Duration,
    /// Wall-clock time of centre selection plus assignment.
    pub assign_time: Duration,
}

impl DpcRun {
    /// Total time of the two index queries (the quantity the paper's Figure 5
    /// and Figure 6 report).
    pub fn query_time(&self) -> Duration {
        self.rho_time + self.delta_time
    }

    /// Total end-to-end time.
    pub fn total_time(&self) -> Duration {
        self.rho_time + self.delta_time + self.assign_time
    }
}

/// A reusable pipeline configuration.
#[derive(Debug, Clone)]
pub struct DpcPipeline {
    params: DpcParams,
}

impl DpcPipeline {
    /// Creates a pipeline with the given parameters.
    pub fn new(params: DpcParams) -> Self {
        DpcPipeline { params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &DpcParams {
        &self.params
    }

    /// Runs the full pipeline against an index.
    pub fn run<I: DpcIndex + ?Sized>(&self, index: &I) -> Result<DpcRun> {
        self.params.validate()?;
        let query = self.params.query();

        let timer = Timer::start();
        let rho = index.rho(&query)?;
        let rho_time = timer.elapsed();

        let timer = Timer::start();
        let deltas = index.delta(&query, &rho)?;
        let delta_time = timer.elapsed();

        let timer = Timer::start();
        let decision_graph = DecisionGraph::new(rho.clone(), &deltas)?;
        let centers = decision_graph.select_centers(&self.params.centers)?;
        let order = DensityOrder::new(&rho);
        let clustering = assign_clusters(
            index.dataset(),
            &order,
            &deltas,
            &centers,
            self.params.dc,
            &self.params.assignment,
        )?;
        let assign_time = timer.elapsed();

        Ok(DpcRun {
            rho,
            deltas,
            decision_graph,
            centers,
            clustering,
            rho_time,
            delta_time,
            assign_time,
        })
    }
}

/// Convenience wrapper: runs the pipeline and returns only the clustering.
pub fn cluster_with_index<I: DpcIndex + ?Sized>(
    index: &I,
    params: &DpcParams,
) -> Result<Clustering> {
    DpcPipeline::new(params.clone())
        .run(index)
        .map(|run| run.clustering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::CenterSelection;
    use crate::naive_reference::NaiveReferenceIndex;
    use crate::point::{Dataset, Point};

    fn three_blobs() -> Dataset {
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)] {
            for i in 0..5 {
                for j in 0..5 {
                    pts.push(Point::new(cx + i as f64 * 0.05, cy + j as f64 * 0.05));
                }
            }
        }
        Dataset::new(pts)
    }

    #[test]
    fn pipeline_recovers_three_blobs() {
        let data = three_blobs();
        let index = NaiveReferenceIndex::build(&data);
        let params = DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 3 });
        let run = DpcPipeline::new(params).run(&index).unwrap();

        assert_eq!(run.clustering.num_clusters(), 3);
        let sizes = run.clustering.sizes();
        assert_eq!(sizes, vec![25, 25, 25]);

        // Points of the same blob share a label, different blobs differ.
        assert_eq!(run.clustering.label(0), run.clustering.label(24));
        assert_ne!(run.clustering.label(0), run.clustering.label(25));
        assert_ne!(run.clustering.label(25), run.clustering.label(50));
    }

    #[test]
    fn gamma_gap_auto_selection_also_finds_three() {
        let data = three_blobs();
        let index = NaiveReferenceIndex::build(&data);
        let params =
            DpcParams::new(0.5).with_centers(CenterSelection::GammaGap { max_centers: 10 });
        let clustering = cluster_with_index(&index, &params).unwrap();
        assert_eq!(clustering.num_clusters(), 3);
    }

    #[test]
    fn run_reports_timings_and_intermediates() {
        let data = three_blobs();
        let index = NaiveReferenceIndex::build(&data);
        let params = DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 3 });
        let run = DpcPipeline::new(params).run(&index).unwrap();
        assert_eq!(run.rho.len(), data.len());
        assert_eq!(run.deltas.len(), data.len());
        assert_eq!(run.centers.len(), 3);
        assert!(run.query_time() <= run.total_time());
    }

    #[test]
    fn invalid_dc_is_rejected_before_querying() {
        let data = three_blobs();
        let index = NaiveReferenceIndex::build(&data);
        let params = DpcParams::new(-1.0);
        assert!(DpcPipeline::new(params).run(&index).is_err());
    }

    /// Equal densities everywhere on a line: the index's δ/µ and the
    /// assignment read one density order (higher ρ, then smaller id), so the
    /// dependent chain of every point leads to the one centre.
    #[test]
    fn tie_heavy_line_assigns_along_the_one_density_order() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let index = NaiveReferenceIndex::build(&data);
        let params = DpcParams::new(1.5).with_centers(CenterSelection::TopKGamma { k: 1 });
        let run = DpcPipeline::new(params).run(&index).unwrap();
        assert_eq!(run.rho, vec![1.0, 2.0, 2.0, 1.0]);
        assert_eq!(run.deltas.mu, vec![Some(1), None, Some(1), Some(2)]);
        assert_eq!(run.centers, vec![1]);
        assert_eq!(run.clustering.labels(), &[0, 0, 0, 0]);
    }

    #[test]
    fn centres_are_members_of_their_own_cluster() {
        let data = three_blobs();
        let index = NaiveReferenceIndex::build(&data);
        let params = DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 3 });
        let run = DpcPipeline::new(params).run(&index).unwrap();
        for (cluster_id, &c) in run.centers.iter().enumerate() {
            assert_eq!(run.clustering.label(c), cluster_id);
        }
    }
}
