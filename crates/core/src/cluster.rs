//! The result of a DPC run: cluster labels, centres and halo flags.

use crate::point::PointId;

/// Identifier of a cluster: the position of its centre in the sorted centre
/// list, i.e. a dense index in `0..num_clusters`.
pub type ClusterId = usize;

/// A complete clustering of a dataset.
///
/// Every point carries the label of the cluster it was assigned to. Points in
/// the *halo* of a cluster (border points whose density is below the
/// cluster's border density, per the original DPC paper) keep their label but
/// are flagged so callers can treat them as noise if desired.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    labels: Vec<ClusterId>,
    centers: Vec<PointId>,
    halo: Vec<bool>,
}

impl Clustering {
    /// Creates a clustering from its parts.
    ///
    /// # Panics
    /// Panics if `labels` and `halo` have different lengths, if a label is
    /// out of range, or if a centre id is out of range.
    pub fn new(labels: Vec<ClusterId>, centers: Vec<PointId>, halo: Vec<bool>) -> Self {
        assert_eq!(
            labels.len(),
            halo.len(),
            "labels and halo must have the same length"
        );
        let k = centers.len();
        assert!(
            labels.iter().all(|&l| l < k),
            "every label must reference one of the {k} centres"
        );
        assert!(
            centers
                .iter()
                .all(|&c| c < labels.len() || labels.is_empty()),
            "centre ids must reference points of the dataset"
        );
        Clustering {
            labels,
            centers,
            halo,
        }
    }

    /// Edits the labels, centres and halo flags in place, for a caller that
    /// keeps a clustering in step with a changing dataset: the streaming
    /// engine rewrites only the labels that changed in an epoch. The
    /// invariants of [`new`](Self::new) must hold again when `edit` returns.
    /// Checking them is a pass over every label, so only debug builds check.
    pub fn edit(
        &mut self,
        edit: impl FnOnce(&mut Vec<ClusterId>, &mut Vec<PointId>, &mut Vec<bool>),
    ) {
        edit(&mut self.labels, &mut self.centers, &mut self.halo);
        debug_assert_eq!(self.labels.len(), self.halo.len());
        debug_assert!(self.labels.iter().all(|&l| l < self.centers.len()));
        debug_assert!(self.centers.iter().all(|&c| c < self.labels.len()));
    }

    /// Number of clustered points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no points were clustered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Cluster label of a point.
    pub fn label(&self, p: PointId) -> ClusterId {
        self.labels[p]
    }

    /// All labels, indexed by [`PointId`].
    pub fn labels(&self) -> &[ClusterId] {
        &self.labels
    }

    /// The centre point of each cluster; `centers()[c]` is the centre of
    /// cluster `c`.
    pub fn centers(&self) -> &[PointId] {
        &self.centers
    }

    /// Whether a point lies in the halo (border noise) of its cluster.
    pub fn is_halo(&self, p: PointId) -> bool {
        self.halo[p]
    }

    /// Halo flags, indexed by [`PointId`].
    pub fn halo(&self) -> &[bool] {
        &self.halo
    }

    /// Number of halo points.
    pub fn halo_count(&self) -> usize {
        self.halo.iter().filter(|&&h| h).count()
    }

    /// The members of one cluster (including halo points), in id order.
    pub fn members(&self, cluster: ClusterId) -> Vec<PointId> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == cluster)
            .map(|(p, _)| p)
            .collect()
    }

    /// The *core* members of one cluster (halo excluded), in id order.
    pub fn core_members(&self, cluster: ClusterId) -> Vec<PointId> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(p, &l)| l == cluster && !self.halo[*p])
            .map(|(p, _)| p)
            .collect()
    }

    /// Size of every cluster (halo included), indexed by [`ClusterId`].
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters()];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Labels with halo points mapped to `None`, which is the form most
    /// external quality metrics expect for "noise".
    pub fn labels_with_noise(&self) -> Vec<Option<ClusterId>> {
        self.labels
            .iter()
            .zip(&self.halo)
            .map(|(&l, &h)| if h { None } else { Some(l) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Clustering {
        // 6 points, 2 clusters with centres at points 0 and 3; point 5 is halo.
        Clustering::new(
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 3],
            vec![false, false, false, false, false, true],
        )
    }

    #[test]
    fn accessors() {
        let c = sample();
        assert_eq!(c.len(), 6);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.label(4), 1);
        assert_eq!(c.centers(), &[0, 3]);
        assert!(c.is_halo(5));
        assert!(!c.is_halo(0));
        assert_eq!(c.halo_count(), 1);
    }

    #[test]
    fn members_and_core_members() {
        let c = sample();
        assert_eq!(c.members(1), vec![3, 4, 5]);
        assert_eq!(c.core_members(1), vec![3, 4]);
        assert_eq!(c.members(0), vec![0, 1, 2]);
    }

    #[test]
    fn sizes_sum_to_len() {
        let c = sample();
        let sizes = c.sizes();
        assert_eq!(sizes, vec![3, 3]);
        assert_eq!(sizes.iter().sum::<usize>(), c.len());
    }

    #[test]
    fn labels_with_noise_masks_halo() {
        let c = sample();
        let l = c.labels_with_noise();
        assert_eq!(l[0], Some(0));
        assert_eq!(l[5], None);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_halo_length_panics() {
        Clustering::new(vec![0, 0], vec![0], vec![false]);
    }

    #[test]
    #[should_panic(expected = "centres")]
    fn out_of_range_label_panics() {
        Clustering::new(vec![0, 2], vec![0, 1], vec![false, false]);
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering::new(vec![], vec![], vec![]);
        assert!(c.is_empty());
        assert_eq!(c.num_clusters(), 0);
        assert!(c.sizes().is_empty());
    }
}
