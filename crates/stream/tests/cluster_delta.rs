//! The epoch's [`ClusterDelta`] against a reference diff.
//!
//! After every epoch the suite rebuilds the handle → centre-handle map from
//! the engine's public state (`live_handles`, `dense_of`, `clustering`,
//! `handle_at`) and diffs it against the last successful epoch's map with
//! `reference_diff` from the shared `common` module, an ordered-map
//! implementation of the diff rules. The delta the engine returned must
//! equal it field for field: births, deaths, re-centred pairs, every label
//! change and the cluster count.
//!
//! The streams drift three lattice blobs under a sliding window, so centres
//! keep expiring, being re-elected and dying (centre churn), on the k-d tree
//! and the naive engine, at epoch sizes 1, 7 and 64, under `GammaGap` and
//! `TopKGamma`. A last scenario drains a window until no point passes a
//! `Threshold` rule, so recluster fails, and then refills it: the
//! recovering epoch must diff against the last epoch that clustered.

mod common;

use common::{assignment_of, reference_diff};
use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{CenterSelection, Dataset, DpcParams, Point, UpdatableIndex};
use dpc_datasets::rng::SplitMix64;
use dpc_datasets::testsupport::lattice_point;
use dpc_stream::{StreamParams, StreamingDpc};
use dpc_tree_index::{KdTree, KdTreeConfig};

/// Lattice points around three blobs that drift one lattice step every 12
/// arrivals: a sliding window keeps losing centres and electing new ones.
/// Coincident points and exact γ ties are routine on the lattice.
fn drifting_stream(len: usize, seed: u64) -> Vec<Point> {
    let mut rng = SplitMix64::new(seed);
    let mut below = |m: u64| (rng.next_u64() % m) as u32;
    (0..len)
        .map(|i| {
            let (bx, by) = [(0, 0), (12, 4), (4, 12)][below(3) as usize];
            let shift = (i / 12) as u32 % 16;
            lattice_point(bx + shift + below(4), by + below(4))
        })
        .collect()
}

fn kd_build(data: &Dataset) -> KdTree {
    KdTree::with_config(
        data,
        &KdTreeConfig {
            leaf_capacity: 4,
            ..Default::default()
        },
    )
}

fn params(centers: CenterSelection) -> StreamParams {
    StreamParams::new(1.0).with_dpc(DpcParams::new(1.0).with_centers(centers))
}

/// What one scenario's deltas contained, so a scenario that stopped
/// churning centres is caught.
#[derive(Debug, Default)]
struct Churn {
    births: usize,
    deaths: usize,
    recentred: usize,
}

/// Slides a window of 96 over a drifting stream, `batch` in and `batch`
/// out per epoch, checking every epoch's delta against the reference.
fn check_sliding<I: UpdatableIndex>(
    build: fn(&Dataset) -> I,
    centers: CenterSelection,
    batch: usize,
    seed: u64,
) -> Churn {
    let window = 96;
    let epochs = 240 / batch + 2;
    let stream = drifting_stream(window + epochs * batch, seed);
    let seed_window = Dataset::new(stream[..window].to_vec());
    let mut engine = StreamingDpc::new(build(&seed_window), params(centers)).unwrap();
    let mut last = assignment_of(&engine);
    let mut churn = Churn::default();
    for arrivals in stream[window..].chunks(batch) {
        let (_, delta) = engine.advance(arrivals, arrivals.len()).unwrap();
        let now = assignment_of(&engine);
        assert_eq!(
            delta,
            reference_diff(engine.epoch(), &last, &now),
            "epoch {} (batch {batch})",
            engine.epoch()
        );
        churn.births += delta.births.len();
        churn.deaths += delta.deaths.len();
        churn.recentred += delta.recentred.len();
        last = now;
    }
    churn
}

#[test]
fn cluster_deltas_match_the_reference_diff_under_centre_churn() {
    let selections = [
        CenterSelection::GammaGap { max_centers: 8 },
        CenterSelection::TopKGamma { k: 4 },
    ];
    let mut total = Churn::default();
    for batch in [1, 7, 64] {
        for (s, centers) in selections.iter().enumerate() {
            let seed = 100 * batch as u64 + s as u64;
            for churn in [
                check_sliding(kd_build, centers.clone(), batch, seed),
                check_sliding(NaiveReferenceIndex::build, centers.clone(), batch, seed),
            ] {
                assert!(
                    churn.births + churn.deaths + churn.recentred > 0,
                    "no centre churn at batch {batch} under {centers:?}: {churn:?}"
                );
                total.births += churn.births;
                total.deaths += churn.deaths;
                total.recentred += churn.recentred;
            }
        }
    }
    assert!(
        total.births > 0 && total.deaths > 0 && total.recentred > 0,
        "{total:?}"
    );
}

/// Drains a window to four points, so two epochs fail to cluster under a
/// `Threshold` rule, then refills it: the recovering epoch's delta diffs
/// against the last epoch that clustered, whose handles are still valid
/// names.
#[test]
fn an_epoch_after_failed_reclusters_diffs_against_the_last_good_one() {
    let stream = drifting_stream(20, 2);
    let seed_window = Dataset::new(stream[..10].to_vec());
    // The densest point has ρ 3 in the 10-point seed, 1 in the drained 4-
    // and 5-point windows, and 4 in the two 8-point windows after them.
    let params = params(CenterSelection::Threshold {
        rho_min: 2.0,
        delta_min: 0.0,
    });
    fail_then_recover(
        StreamingDpc::new(kd_build(&seed_window), params.clone()).unwrap(),
        &stream,
    );
    fail_then_recover(
        StreamingDpc::new(NaiveReferenceIndex::build(&seed_window), params).unwrap(),
        &stream,
    );
}

fn fail_then_recover<I: UpdatableIndex>(mut engine: StreamingDpc<I>, stream: &[Point]) {
    let good_epoch = engine.epoch();
    let last_good = assignment_of(&engine);
    // 10 → 4 points, then 4 → 5: no point passes the threshold either time.
    assert!(engine.advance(&[], 6).is_err());
    assert!(engine.advance(&stream[10..11], 0).is_err());
    assert_eq!(engine.epoch(), good_epoch, "a failed recluster is no epoch");
    // 5 → 8 points: clusters again, and reports the six evictions and four
    // insertions of all three commits.
    let (_, delta) = engine.advance(&stream[11..14], 0).unwrap();
    let now = assignment_of(&engine);
    assert_eq!(delta, reference_diff(engine.epoch(), &last_good, &now));
    assert_eq!(delta.epoch, good_epoch + 1);
    assert_eq!((delta.evictions(), delta.insertions()), (6, 4));
    // The next epoch diffs against the recovered one.
    let (_, delta) = engine.advance(&stream[14..17], 3).unwrap();
    assert_eq!(
        delta,
        reference_diff(engine.epoch(), &now, &assignment_of(&engine))
    );
}
