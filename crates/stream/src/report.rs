//! What changed between two clustering epochs.
//!
//! Dense cluster ids (`ClusterId`) are re-derived every epoch from the
//! sorted centre list, so they are meaningless across epochs. The delta
//! report therefore identifies a cluster by the [`Handle`] of its *centre
//! point* and a point's label by its cluster's centre handle — both stable
//! for as long as the underlying points live.
//!
//! A centre handle alone is too brittle an identity: when a cluster's centre
//! point expires but its population persists, the next epoch picks a new
//! centre among the survivors and a naive diff reports the cluster as one
//! death plus one birth. The delta therefore matches dying and newborn
//! centres by member overlap (Jaccard similarity of the two member sets,
//! threshold [`ClusterDelta::JACCARD_THRESHOLD`]); matched pairs are
//! reported as [`ClusterDelta::recentred`] instead of a death + birth.

use crate::handle::Handle;

/// One point whose cluster membership changed between two epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelChange {
    /// The point whose label changed.
    pub handle: Handle,
    /// Centre handle of its previous cluster; `None` when the point was
    /// inserted this epoch.
    pub old: Option<Handle>,
    /// Centre handle of its new cluster; `None` when the point was evicted
    /// this epoch.
    pub new: Option<Handle>,
}

impl LabelChange {
    /// True when the point entered the window this epoch.
    pub fn is_insertion(&self) -> bool {
        self.old.is_none()
    }

    /// True when the point left the window this epoch.
    pub fn is_eviction(&self) -> bool {
        self.new.is_none()
    }
}

/// Everything that changed between the previous epoch's clustering and the
/// current one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterDelta {
    /// The epoch this delta advanced *to*.
    pub epoch: u64,
    /// Number of clusters after the epoch.
    pub num_clusters: usize,
    /// Centre handles of clusters that exist now but not before (sorted).
    pub births: Vec<Handle>,
    /// Centre handles of clusters that existed before but not any more
    /// (sorted).
    pub deaths: Vec<Handle>,
    /// Clusters that survived a centre change, as `(old_centre, new_centre)`
    /// pairs sorted by old centre: the old centre left the centre set (its
    /// point may have expired) but the population persists under a new
    /// centre with member overlap of at least
    /// [`ClusterDelta::JACCARD_THRESHOLD`]. These clusters are *not* listed
    /// in `births`/`deaths`.
    pub recentred: Vec<(Handle, Handle)>,
    /// Points whose cluster changed, sorted by handle. Includes inserted
    /// points (`old = None`) and evicted points (`new = None`).
    pub changed: Vec<LabelChange>,
}

impl ClusterDelta {
    /// Minimum Jaccard similarity (`|A ∩ B| / |A ∪ B|` over member sets) for
    /// a dying and a newborn cluster to be matched as one re-centred
    /// surviving cluster. `0.5` means the surviving population must make up
    /// the majority of the union of the two memberships, so at most one old
    /// cluster can match any new cluster (and vice versa) on overlap alone.
    pub const JACCARD_THRESHOLD: f64 = 0.5;

    /// The delta of an epoch in which nothing changed: no births, deaths,
    /// re-centred clusters or relabelled points.
    pub fn empty(epoch: u64, num_clusters: usize) -> Self {
        ClusterDelta {
            epoch,
            num_clusters,
            births: Vec::new(),
            deaths: Vec::new(),
            recentred: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// True when nothing changed (no births, deaths, re-centred clusters or
    /// relabelled points).
    pub fn is_empty(&self) -> bool {
        self.births.is_empty()
            && self.deaths.is_empty()
            && self.recentred.is_empty()
            && self.changed.is_empty()
    }

    /// Number of points that stayed in the window but switched cluster.
    pub fn relabelled(&self) -> usize {
        self.changed
            .iter()
            .filter(|c| c.old.is_some() && c.new.is_some())
            .count()
    }

    /// Number of points inserted this epoch.
    pub fn insertions(&self) -> usize {
        self.changed.iter().filter(|c| c.is_insertion()).count()
    }

    /// Number of points evicted this epoch.
    pub fn evictions(&self) -> usize {
        self.changed.iter().filter(|c| c.is_eviction()).count()
    }

    /// One-line human-readable summary, used by the CLI replay.
    pub fn summary(&self) -> String {
        let fmt_handles = |hs: &[Handle]| {
            hs.iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut parts = vec![format!("{} clusters", self.num_clusters)];
        if !self.births.is_empty() {
            parts.push(format!("born {}", fmt_handles(&self.births)));
        }
        if !self.deaths.is_empty() {
            parts.push(format!("died {}", fmt_handles(&self.deaths)));
        }
        if !self.recentred.is_empty() {
            let pairs = self
                .recentred
                .iter()
                .map(|(old, new)| format!("{old}->{new}"))
                .collect::<Vec<_>>()
                .join(",");
            parts.push(format!("recentred {pairs}"));
        }
        parts.push(format!(
            "+{} / -{} points, {} relabelled",
            self.insertions(),
            self.evictions(),
            self.relabelled()
        ));
        format!("epoch {:>4}: {}", self.epoch, parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta() -> ClusterDelta {
        ClusterDelta {
            epoch: 7,
            num_clusters: 2,
            births: vec![Handle(9)],
            deaths: vec![Handle(2)],
            recentred: vec![(Handle(3), Handle(11))],
            changed: vec![
                LabelChange {
                    handle: Handle(4),
                    old: Some(Handle(2)),
                    new: Some(Handle(9)),
                },
                LabelChange {
                    handle: Handle(10),
                    old: None,
                    new: Some(Handle(9)),
                },
                LabelChange {
                    handle: Handle(1),
                    old: Some(Handle(2)),
                    new: None,
                },
            ],
        }
    }

    #[test]
    fn counts_split_by_change_kind() {
        let d = delta();
        assert!(!d.is_empty());
        assert_eq!(d.relabelled(), 1);
        assert_eq!(d.insertions(), 1);
        assert_eq!(d.evictions(), 1);
    }

    #[test]
    fn summary_mentions_births_deaths_and_counts() {
        let s = delta().summary();
        assert!(s.contains("epoch"));
        assert!(s.contains("born #9"));
        assert!(s.contains("died #2"));
        assert!(s.contains("recentred #3->#11"));
        assert!(s.contains("+1 / -1 points, 1 relabelled"));
    }

    #[test]
    fn empty_delta() {
        let d = ClusterDelta::empty(1, 3);
        assert!(d.is_empty());
        assert_eq!(d.relabelled(), 0);
    }

    #[test]
    fn recentring_alone_is_not_empty() {
        let d = ClusterDelta {
            recentred: vec![(Handle(1), Handle(5))],
            ..ClusterDelta::empty(2, 1)
        };
        assert!(!d.is_empty());
        assert!(d.summary().contains("recentred #1->#5"));
    }
}
