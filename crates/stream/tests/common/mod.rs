//! Test support shared by the stream suites: an engine's stable
//! assignment read from its public state, and [`reference_diff`], an
//! ordered-map implementation of the [`ClusterDelta`] rules that every
//! epoch's delta must equal.

use std::collections::{BTreeMap, BTreeSet};

use dpc_core::UpdatableIndex;
use dpc_stream::{ClusterDelta, Handle, LabelChange, StreamingDpc};

/// Point handle → centre handle, for every point of one epoch.
pub type Assignment = BTreeMap<Handle, Handle>;

/// The engine's current assignment, from its public state only
/// (`live_handles`, `dense_of`, `clustering`, `handle_at`).
pub fn assignment_of<I: UpdatableIndex>(engine: &StreamingDpc<I>) -> Assignment {
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
pub fn reference_diff(epoch: u64, old: &Assignment, new: &Assignment) -> ClusterDelta {
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
