//! The epoch's [`ClusterDelta`] against a reference diff.
//!
//! After every epoch the suite rebuilds the handle → centre-handle map from
//! the engine's public state (`live_handles`, `dense_of`, `clustering`,
//! `handle_at`) and diffs it against the last successful epoch's map with
//! [`reference_diff`], an ordered-map implementation of the diff rules. The
//! delta the engine returned must equal it field for field: births,
//! deaths, re-centred pairs, every label change and the cluster count.
//!
//! The streams drift three lattice blobs under a sliding window, so centres
//! keep expiring, being re-elected and dying (centre churn), on the k-d tree
//! and the naive engine, at epoch sizes 1, 7 and 64, under `GammaGap` and
//! `TopKGamma`. A last scenario drains a `TopKGamma` window below `k`, so
//! recluster fails, and then refills it: the recovering epoch must diff
//! against the last epoch that clustered.

use std::collections::{BTreeMap, BTreeSet};

use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{CenterSelection, Dataset, DpcParams, Point, UpdatableIndex};
use dpc_datasets::rng::SplitMix64;
use dpc_datasets::testsupport::lattice_point;
use dpc_stream::{ClusterDelta, Handle, LabelChange, StreamParams, StreamingDpc};
use dpc_tree_index::{KdTree, KdTreeConfig};

/// Point handle → centre handle, for every point of one epoch.
type Assignment = BTreeMap<Handle, Handle>;

/// The engine's current assignment, from its public state only.
fn assignment_of<I: UpdatableIndex>(engine: &StreamingDpc<I>) -> Assignment {
    let clustering = engine.clustering();
    engine
        .live_handles()
        .map(|h| {
            let id = engine.dense_of(h).expect("live handle");
            let centre = clustering.centers()[clustering.label(id)];
            (h, engine.handle_at(centre))
        })
        .collect()
}

/// The diff rules on ordered maps and sets: centres that appear are births
/// and centres that vanish are deaths, except that a dying and a newborn
/// centre whose memberships overlap with Jaccard ≥
/// [`ClusterDelta::JACCARD_THRESHOLD`] are matched greedily (best overlap
/// first, then by handles) as re-centred; every point whose centre handle
/// differs, or that entered or left, is a label change.
fn reference_diff(epoch: u64, old: &Assignment, new: &Assignment) -> ClusterDelta {
    let old_centers: BTreeSet<Handle> = old.values().copied().collect();
    let new_centers: BTreeSet<Handle> = new.values().copied().collect();
    let mut births: Vec<Handle> = new_centers.difference(&old_centers).copied().collect();
    let mut deaths: Vec<Handle> = old_centers.difference(&new_centers).copied().collect();

    let mut recentred: Vec<(Handle, Handle)> = Vec::new();
    if !births.is_empty() && !deaths.is_empty() {
        let mut old_size: BTreeMap<Handle, usize> = BTreeMap::new();
        let mut new_size: BTreeMap<Handle, usize> = BTreeMap::new();
        for &c in old.values() {
            *old_size.entry(c).or_default() += 1;
        }
        for &c in new.values() {
            *new_size.entry(c).or_default() += 1;
        }
        let dead: BTreeSet<Handle> = deaths.iter().copied().collect();
        let born: BTreeSet<Handle> = births.iter().copied().collect();
        let mut overlap: BTreeMap<(Handle, Handle), usize> = BTreeMap::new();
        for (h, &co) in old {
            if let Some(&cn) = new.get(h) {
                if dead.contains(&co) && born.contains(&cn) {
                    *overlap.entry((co, cn)).or_default() += 1;
                }
            }
        }
        let mut candidates: Vec<(f64, Handle, Handle)> = overlap
            .iter()
            .map(|(&(co, cn), &inter)| {
                let union = old_size[&co] + new_size[&cn] - inter;
                (inter as f64 / union as f64, co, cn)
            })
            .filter(|&(jaccard, _, _)| jaccard >= ClusterDelta::JACCARD_THRESHOLD)
            .collect();
        candidates.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        let mut matched_old: BTreeSet<Handle> = BTreeSet::new();
        let mut matched_new: BTreeSet<Handle> = BTreeSet::new();
        for (_, co, cn) in candidates {
            if !matched_old.contains(&co) && !matched_new.contains(&cn) {
                matched_old.insert(co);
                matched_new.insert(cn);
                recentred.push((co, cn));
            }
        }
        recentred.sort_unstable();
        births.retain(|c| !matched_new.contains(c));
        deaths.retain(|c| !matched_old.contains(c));
    }

    let handles: BTreeSet<Handle> = old.keys().chain(new.keys()).copied().collect();
    let changed = handles
        .into_iter()
        .filter_map(|handle| {
            let (co, cn) = (old.get(&handle).copied(), new.get(&handle).copied());
            (co != cn).then_some(LabelChange {
                handle,
                old: co,
                new: cn,
            })
        })
        .collect();

    ClusterDelta {
        epoch,
        num_clusters: new_centers.len(),
        births,
        deaths,
        recentred,
        changed,
    }
}

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

/// Drains a `TopKGamma { k: 6 }` window to four points, so two epochs fail
/// to cluster, then refills it: the recovering epoch's delta diffs against
/// the last epoch that clustered, whose handles are still valid names.
#[test]
fn an_epoch_after_failed_reclusters_diffs_against_the_last_good_one() {
    let stream = drifting_stream(20, 7);
    let seed_window = Dataset::new(stream[..10].to_vec());
    let params = params(CenterSelection::TopKGamma { k: 6 });
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
    // 10 → 4 points, then 4 → 5: fewer than k = 6 both times.
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
