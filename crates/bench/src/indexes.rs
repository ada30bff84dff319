//! Uniform construction of every index the experiments compare.

use dpc_baseline::LeanDpc;
use dpc_core::{Dataset, DpcIndex};
use dpc_datasets::DatasetKind;
use dpc_list_index::{ChIndex, ListIndex};
use dpc_tree_index::{GridIndex, KdTree, Quadtree, RTree};

/// The index structures compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The paper's List Index (full N-Lists).
    List,
    /// The paper's Cumulative Histogram Index (full N-Lists + histograms).
    Ch,
    /// The approximate List Index (RN-Lists truncated at the dataset's
    /// largest τ).
    ListApprox,
    /// The approximate CH Index.
    ChApprox,
    /// The point-region quadtree.
    Quadtree,
    /// The STR-packed R-tree.
    RTree,
    /// The k-d tree (extension / ablation).
    KdTree,
    /// The uniform grid (extension / ablation).
    Grid,
    /// The original O(n²) DPC algorithm (memory-lean variant).
    Naive,
}

impl IndexKind {
    /// The four exact indices the paper's headline comparison covers, plus
    /// the naive baseline.
    pub const PAPER_SET: [IndexKind; 5] = [
        IndexKind::List,
        IndexKind::Ch,
        IndexKind::RTree,
        IndexKind::Quadtree,
        IndexKind::Naive,
    ];

    /// All tree-based indices (low-memory family).
    pub const TREES: [IndexKind; 4] = [
        IndexKind::Quadtree,
        IndexKind::RTree,
        IndexKind::KdTree,
        IndexKind::Grid,
    ];

    /// Short name used in table columns.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::List => "List",
            IndexKind::Ch => "CH",
            IndexKind::ListApprox => "List*",
            IndexKind::ChApprox => "CH*",
            IndexKind::Quadtree => "Quadtree",
            IndexKind::RTree => "R-tree",
            IndexKind::KdTree => "k-d tree",
            IndexKind::Grid => "Grid",
            IndexKind::Naive => "DPC",
        }
    }

    /// Parses an index name (case-insensitive; accepts the display names
    /// above and a few obvious aliases).
    pub fn parse(name: &str) -> Option<IndexKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "list" => Some(IndexKind::List),
            "ch" | "histogram" => Some(IndexKind::Ch),
            "list*" | "list-approx" | "listapprox" => Some(IndexKind::ListApprox),
            "ch*" | "ch-approx" | "chapprox" => Some(IndexKind::ChApprox),
            "quadtree" | "quad" => Some(IndexKind::Quadtree),
            "rtree" | "r-tree" => Some(IndexKind::RTree),
            "kdtree" | "kd" | "k-d tree" => Some(IndexKind::KdTree),
            "grid" => Some(IndexKind::Grid),
            "dpc" | "naive" | "baseline" => Some(IndexKind::Naive),
            _ => None,
        }
    }

    /// Whether the index stores per-object lists and therefore has `Θ(n²)`
    /// memory unless approximated.
    pub fn is_list_based(&self) -> bool {
        matches!(
            self,
            IndexKind::List | IndexKind::Ch | IndexKind::ListApprox | IndexKind::ChApprox
        )
    }

    /// Whether the index returns results identical to the baseline.
    pub fn is_exact(&self) -> bool {
        !matches!(self, IndexKind::ListApprox | IndexKind::ChApprox)
    }

    /// Builds the index over a dataset. The `dataset_kind` supplies the
    /// paper's per-dataset parameters (CH bin width `w`, approximation
    /// threshold `τ`).
    pub fn build(&self, dataset: &Dataset, dataset_kind: DatasetKind) -> Box<dyn DpcIndex> {
        let w = dataset_kind.default_bin_width();
        let tau = dataset_kind
            .largest_tau()
            .unwrap_or_else(|| dataset.bbox_diameter() / 4.0);
        match self {
            IndexKind::List => Box::new(ListIndex::build(dataset)),
            IndexKind::Ch => Box::new(ChIndex::build(dataset, w)),
            IndexKind::ListApprox => Box::new(ListIndex::build_approx(dataset, tau)),
            IndexKind::ChApprox => Box::new(ChIndex::build_approx(dataset, w, tau)),
            IndexKind::Quadtree => Box::new(Quadtree::build(dataset)),
            IndexKind::RTree => Box::new(RTree::build(dataset)),
            IndexKind::KdTree => Box::new(KdTree::build(dataset)),
            IndexKind::Grid => Box::new(GridIndex::build(dataset)),
            IndexKind::Naive => Box::new(LeanDpc::build(dataset)),
        }
    }

    /// Whether running the full (non-approximate) variant of this index at
    /// the given dataset size would be unreasonable, mirroring the paper's
    /// memory wall: the list-based indices and the naive baseline are only
    /// run in full on the small and medium datasets.
    pub fn feasible_for(&self, dataset_kind: DatasetKind, n: usize) -> bool {
        match self {
            IndexKind::List | IndexKind::Ch | IndexKind::Naive => {
                dataset_kind.full_list_feasible() || n <= 20_000
            }
            _ => true,
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::Query;
    use dpc_datasets::generators::s1;

    #[test]
    fn parse_round_trips_names() {
        for kind in [
            IndexKind::List,
            IndexKind::Ch,
            IndexKind::Quadtree,
            IndexKind::RTree,
            IndexKind::KdTree,
            IndexKind::Grid,
            IndexKind::Naive,
        ] {
            assert_eq!(IndexKind::parse(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(IndexKind::parse("nonsense"), None);
    }

    #[test]
    fn every_kind_builds_and_answers_queries() {
        let data = s1(1, 0.02).into_dataset(); // 100 points
        let kinds = [
            IndexKind::List,
            IndexKind::Ch,
            IndexKind::ListApprox,
            IndexKind::ChApprox,
            IndexKind::Quadtree,
            IndexKind::RTree,
            IndexKind::KdTree,
            IndexKind::Grid,
            IndexKind::Naive,
        ];
        for kind in kinds {
            let index = kind.build(&data, DatasetKind::S1);
            let (rho, deltas) = index.rho_delta(&Query::new(30_000.0)).unwrap();
            assert_eq!(rho.len(), data.len(), "{kind}");
            assert_eq!(deltas.len(), data.len(), "{kind}");
            assert!(index.memory_bytes() > 0, "{kind}");
        }
    }

    #[test]
    fn exact_kinds_agree_with_each_other() {
        let data = s1(2, 0.02).into_dataset();
        let dc = 40_000.0;
        let reference = IndexKind::Naive.build(&data, DatasetKind::S1);
        let (ref_rho, ref_delta) = reference.rho_delta(&Query::new(dc)).unwrap();
        for kind in [
            IndexKind::List,
            IndexKind::Ch,
            IndexKind::Quadtree,
            IndexKind::RTree,
            IndexKind::KdTree,
            IndexKind::Grid,
        ] {
            let index = kind.build(&data, DatasetKind::S1);
            let (rho, delta) = index.rho_delta(&Query::new(dc)).unwrap();
            assert_eq!(rho, ref_rho, "{kind}");
            assert_eq!(delta.mu, ref_delta.mu, "{kind}");
        }
    }

    #[test]
    fn feasibility_mirrors_the_papers_memory_wall() {
        assert!(IndexKind::List.feasible_for(DatasetKind::S1, 5_000));
        assert!(IndexKind::List.feasible_for(DatasetKind::Query, 50_000));
        assert!(!IndexKind::List.feasible_for(DatasetKind::Gowalla, 1_256_680));
        assert!(IndexKind::RTree.feasible_for(DatasetKind::Gowalla, 1_256_680));
        assert!(IndexKind::ListApprox.feasible_for(DatasetKind::Gowalla, 1_256_680));
    }

    #[test]
    fn classification_helpers() {
        assert!(IndexKind::Ch.is_list_based());
        assert!(!IndexKind::RTree.is_list_based());
        assert!(IndexKind::List.is_exact());
        assert!(!IndexKind::ChApprox.is_exact());
    }
}
