//! The µ-forest: DPC's dependency links kept across epochs.
//!
//! Every point but the global peak has a dependent neighbour `µ`, which is
//! denser, so the links `p → µ(p)` form a forest: a chain climbs strictly
//! in density and ends at the peak. DPC's last step gives every point the
//! label of the first centre on its chain, so a point's label can change
//! only if its own link or centre status changed, or a point above it
//! relabelled. The engine keeps the forest's child lists as intrusive
//! doubly linked sibling lists, in step with `µ`: they follow the same
//! push/swap-remove sequence as ρ, and every write of `µ` relinks one
//! point. With the lists, the δ invalidation reaches the points that depend
//! on a touched point, and the relabel walks only the subtrees whose label
//! changed, without a pass over the window.

use dpc_core::PointId;

/// The end of a list: no child, no sibling.
const NIL: u32 = u32::MAX;

/// The panic message of a walk that visits more points than the forest
/// holds.
pub(crate) const CORRUPTED: &str = "a µ-forest walk visited more points than the window holds";

/// The child lists of the µ-forest. The children of `p` are the points
/// whose `µ` is `p`: `first[p]`, then along `next`. Ids are stored as `u32`
/// to halve the lists' cache footprint.
#[derive(Debug, Clone, Default)]
pub(crate) struct Forest {
    first: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

/// `p` as a stored id.
fn id(p: PointId) -> u32 {
    let stored = p as u32;
    debug_assert!(
        stored != NIL && stored as PointId == p,
        "forest ids fit in u32"
    );
    stored
}

impl Forest {
    /// The forest of the links `mu`.
    pub(crate) fn new(mu: &[Option<PointId>]) -> Self {
        let mut forest = Forest::default();
        forest.rebuild(mu);
        forest
    }

    /// Replaces every list by the forest of `mu` (after a full δ re-rank).
    pub(crate) fn rebuild(&mut self, mu: &[Option<PointId>]) {
        assert!(
            mu.len() < NIL as usize,
            "the µ-forest numbers points with u32 ids"
        );
        for list in [&mut self.first, &mut self.next, &mut self.prev] {
            list.clear();
            list.resize(mu.len(), NIL);
        }
        for (p, &m) in mu.iter().enumerate() {
            if let Some(m) = m {
                self.link(p, m);
            }
        }
    }

    /// The children of `p`.
    ///
    /// # Panics
    /// Panics when the list runs past as many points as the forest holds,
    /// which only a corrupted list (a cycle) can: the walks over it fail
    /// instead of looping.
    pub(crate) fn children(&self, p: PointId) -> impl Iterator<Item = PointId> + '_ {
        let linked = |c: u32| (c != NIL).then_some(c as PointId);
        let mut left = self.first.len();
        std::iter::successors(linked(self.first[p]), move |&c| {
            left = left.checked_sub(1).expect(CORRUPTED);
            linked(self.next[c])
        })
    }

    /// Appends a point without links, in step with a push of `µ`.
    pub(crate) fn push(&mut self) {
        assert!(
            self.first.len() < NIL as usize,
            "the µ-forest numbers points with u32 ids"
        );
        self.first.push(NIL);
        self.next.push(NIL);
        self.prev.push(NIL);
    }

    /// Moves `p` from the children of `from` to those of `to`, the write of
    /// `µ(p)` from `from` to `to`.
    pub(crate) fn relink(&mut self, p: PointId, from: Option<PointId>, to: Option<PointId>) {
        if from == to {
            return;
        }
        if let Some(m) = from {
            self.unlink(p, m);
        }
        if let Some(m) = to {
            self.link(p, m);
        }
    }

    /// Removes point `id` the way `swap_remove` does, together with its `µ`
    /// entry. The children of `id` lose their `µ` (set to `None`, and each
    /// reported to `orphaned` under its id before the move). Then the last
    /// point moves into slot `id`: its parent and siblings point to the new
    /// slot, and its children's `µ` is renamed to it. Returns the links
    /// visited: the orphaned and the renamed children.
    pub(crate) fn swap_remove(
        &mut self,
        slot: PointId,
        mu: &mut Vec<Option<PointId>>,
        mut orphaned: impl FnMut(PointId),
    ) -> usize {
        if let Some(m) = mu[slot] {
            self.unlink(slot, m);
        }
        let mut visited = 0;
        while self.first[slot] != NIL {
            assert!(visited < mu.len(), "{CORRUPTED}");
            let c = self.first[slot] as PointId;
            self.unlink(c, slot);
            mu[c] = None;
            orphaned(c);
            visited += 1;
        }
        mu.swap_remove(slot);
        for list in [&mut self.first, &mut self.next, &mut self.prev] {
            list.swap_remove(slot);
        }
        if slot == mu.len() {
            return visited; // the removed point was the last one
        }
        match (self.prev[slot], mu[slot]) {
            (NIL, Some(m)) => self.first[m] = id(slot),
            (NIL, None) => {}
            (prev, _) => self.next[prev as PointId] = id(slot),
        }
        if self.next[slot] != NIL {
            let next = self.next[slot] as PointId;
            self.prev[next] = id(slot);
        }
        for c in self.children(slot) {
            mu[c] = Some(slot);
            visited += 1;
        }
        visited
    }

    /// Makes `p` the first child of `parent`.
    fn link(&mut self, p: PointId, parent: PointId) {
        let head = self.first[parent];
        self.next[p] = head;
        self.prev[p] = NIL;
        if head != NIL {
            self.prev[head as PointId] = id(p);
        }
        self.first[parent] = id(p);
    }

    /// Takes `p` out of the children of `parent`.
    fn unlink(&mut self, p: PointId, parent: PointId) {
        let (prev, next) = (self.prev[p], self.next[p]);
        if prev == NIL {
            self.first[parent] = next;
        } else {
            self.next[prev as PointId] = next;
        }
        if next != NIL {
            self.prev[next as PointId] = prev;
        }
        self.next[p] = NIL;
        self.prev[p] = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The child lists as sorted vectors, for comparison.
    fn lists(forest: &Forest, n: usize) -> Vec<Vec<PointId>> {
        (0..n)
            .map(|p| {
                let mut children: Vec<PointId> = forest.children(p).collect();
                children.sort_unstable();
                children
            })
            .collect()
    }

    /// What a rebuild from `mu` gives.
    fn rebuilt(mu: &[Option<PointId>]) -> Vec<Vec<PointId>> {
        lists(&Forest::new(mu), mu.len())
    }

    #[test]
    fn relinking_moves_a_point_between_child_lists() {
        let mut mu = vec![None, Some(0), Some(0), Some(1)];
        let mut forest = Forest::new(&mu);
        assert_eq!(lists(&forest, 4), vec![vec![1, 2], vec![3], vec![], vec![]]);
        forest.relink(3, mu[3], Some(2));
        mu[3] = Some(2);
        forest.relink(1, mu[1], Some(2));
        mu[1] = Some(2);
        assert_eq!(lists(&forest, 4), rebuilt(&mu));
        forest.relink(2, mu[2], None);
        mu[2] = None;
        assert_eq!(lists(&forest, 4), rebuilt(&mu));
    }

    #[test]
    fn a_swap_remove_orphans_the_children_and_renames_the_moved_point() {
        // 0 ← 1 ← {2, 4}, 0 ← 3 ← 5: removing 1 orphans 2 and 4, and 5
        // moves into slot 1 under 3.
        let mut mu = vec![None, Some(0), Some(1), Some(0), Some(1), Some(3)];
        let mut forest = Forest::new(&mu);
        let mut orphaned = Vec::new();
        let visited = forest.swap_remove(1, &mut mu, |c| orphaned.push(c));
        orphaned.sort_unstable();
        assert_eq!(orphaned, vec![2, 4]);
        assert_eq!(visited, 2);
        assert_eq!(mu, vec![None, Some(3), None, Some(0), None]);
        assert_eq!(lists(&forest, 5), rebuilt(&mu));
    }

    #[test]
    fn a_moved_parent_renames_its_children() {
        // 0 ← 3 ← {1, 2}: removing 0 orphans 3, which moves to slot 0 and
        // keeps its children, now under µ 0.
        let mut mu = vec![None, Some(3), Some(3), Some(0)];
        let mut forest = Forest::new(&mu);
        let mut orphaned = Vec::new();
        let visited = forest.swap_remove(0, &mut mu, |c| orphaned.push(c));
        assert_eq!(orphaned, vec![3]);
        assert_eq!(visited, 3);
        assert_eq!(mu, vec![None, Some(0), Some(0)]);
        assert_eq!(lists(&forest, 3), rebuilt(&mu));
        // Removing the last point moves nothing.
        forest.swap_remove(2, &mut mu, |_| unreachable!("a leaf has no children"));
        assert_eq!(mu, vec![None, Some(0)]);
        assert_eq!(lists(&forest, 2), rebuilt(&mu));
    }

    #[test]
    fn random_edits_match_a_rebuild() {
        let mut state = 0x5EED_u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let mut mu: Vec<Option<PointId>> = vec![None];
        let mut forest = Forest::new(&mu);
        for _ in 0..2_000 {
            match next(3) {
                0 => {
                    mu.push(None);
                    forest.push();
                }
                1 if mu.len() > 1 => {
                    forest.swap_remove(next(mu.len()), &mut mu, |_| {});
                }
                _ => {
                    let p = next(mu.len());
                    let to = (p > 0).then(|| next(p));
                    forest.relink(p, mu[p], to);
                    mu[p] = to;
                }
            }
            assert_eq!(lists(&forest, mu.len()), rebuilt(&mu));
        }
    }
}
