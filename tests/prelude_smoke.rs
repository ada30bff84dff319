//! Umbrella-crate smoke test: every index re-exported through
//! `density_peaks::prelude` must produce the *same* clustering as the naive
//! reference implementation on a seeded blob dataset. This is the one-glance
//! check that the whole workspace is wired together correctly — the prelude
//! re-exports resolve, every `DpcIndex` implementor agrees on the seam, and
//! the end-to-end pipeline runs for each of them.

use density_peaks::core::naive_reference::NaiveReferenceIndex;
use density_peaks::prelude::*;

#[test]
fn every_prelude_index_matches_the_naive_reference() {
    // A seeded 500-point blob dataset (S1 at a tenth of its paper size).
    let data = density_peaks::datasets::generators::s1(11, 0.1).into_dataset();
    assert_eq!(data.len(), 500);

    let kind = DatasetKind::S1;
    let params =
        DpcParams::new(kind.default_dc()).with_centers(CenterSelection::TopKGamma { k: 15 });

    let reference = NaiveReferenceIndex::build(&data);
    let expected = cluster_with_index(&reference, &params).unwrap();
    assert_eq!(expected.num_clusters(), 15);
    assert_eq!(expected.len(), data.len());

    let indexes: Vec<(&str, Box<dyn DpcIndex>)> = vec![
        ("list", Box::new(ListIndex::build(&data))),
        (
            "ch",
            Box::new(ChIndex::build(&data, kind.default_bin_width())),
        ),
        ("quadtree", Box::new(Quadtree::build(&data))),
        ("rtree", Box::new(RTree::build(&data))),
        ("kdtree", Box::new(KdTree::build(&data))),
        ("grid", Box::new(GridIndex::build(&data))),
        ("lean", Box::new(LeanDpc::build(&data))),
    ];

    for (name, index) in &indexes {
        let clustering = cluster_with_index(index.as_ref(), &params).unwrap();
        assert_eq!(
            clustering.labels(),
            expected.labels(),
            "index {name} disagrees with the naive reference"
        );
    }
    // The multi-threaded brute-force baseline is the lean one under a
    // threaded query.
    let threaded = cluster_with_index(&LeanDpc::build(&data), &params.with_threads(4)).unwrap();
    assert_eq!(threaded.labels(), expected.labels(), "threaded lean");
}
