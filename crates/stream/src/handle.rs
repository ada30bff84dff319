//! Stable point handles over a swap-remove dataset.
//!
//! [`Dataset`](dpc_core::Dataset) ids are *dense*: removing a point renames
//! the last point into the hole. A stream client cannot work with ids that
//! change under its feet, so the engine hands out [`Handle`]s — u64 tickets
//! that stay valid for the lifetime of their point — and the [`HandleMap`]
//! keeps the two id spaces in sync with O(log n) bookkeeping per mutation.

use std::collections::BTreeMap;

use dpc_core::PointId;

/// A stable identifier of a streamed point.
///
/// Handles are allocated in insertion order and never reused, so comparing
/// two handles also compares the arrival order of their points — the
/// sliding-window eviction of the engine exploits exactly that (the oldest
/// live point is the smallest live handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(pub u64);

impl std::fmt::Display for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Bidirectional map between stable [`Handle`]s and dense [`PointId`]s,
/// mirroring a dataset mutated through push/swap-remove.
#[derive(Debug, Clone, Default)]
pub struct HandleMap {
    /// `dense_to_handle[id]` is the handle of the point currently at `id`.
    dense_to_handle: Vec<Handle>,
    /// Inverse map; a BTreeMap so [`oldest`](HandleMap::oldest) is O(log n).
    handle_to_dense: BTreeMap<Handle, PointId>,
    next: u64,
}

impl HandleMap {
    /// An empty map.
    pub fn new() -> Self {
        HandleMap::default()
    }

    /// A map for a pre-existing dataset of `n` points: ids `0..n` get the
    /// first `n` handles in order.
    pub fn with_dense_len(n: usize) -> Self {
        let mut map = HandleMap::new();
        for _ in 0..n {
            map.push();
        }
        map
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.dense_to_handle.len()
    }

    /// True when no point is tracked.
    pub fn is_empty(&self) -> bool {
        self.dense_to_handle.is_empty()
    }

    /// Registers a new point at dense id `len()` and returns its handle.
    pub fn push(&mut self) -> Handle {
        let handle = Handle(self.next);
        self.next += 1;
        self.handle_to_dense
            .insert(handle, self.dense_to_handle.len());
        self.dense_to_handle.push(handle);
        handle
    }

    /// Mirrors `Dataset::swap_remove(id)`: forgets the handle at `id` and
    /// moves the last handle into its slot. Returns the removed handle.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn swap_remove(&mut self, id: PointId) -> Handle {
        let removed = self.dense_to_handle.swap_remove(id);
        self.handle_to_dense.remove(&removed);
        if let Some(&moved) = self.dense_to_handle.get(id) {
            self.handle_to_dense.insert(moved, id);
        }
        removed
    }

    /// The handle of the point currently at dense id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn handle_at(&self, id: PointId) -> Handle {
        self.dense_to_handle[id]
    }

    /// The dense id currently behind `handle`, or `None` when the point was
    /// removed (or never existed).
    pub fn dense_of(&self, handle: Handle) -> Option<PointId> {
        self.handle_to_dense.get(&handle).copied()
    }

    /// The oldest live handle (smallest), or `None` when empty.
    pub fn oldest(&self) -> Option<Handle> {
        self.handle_to_dense.keys().next().copied()
    }

    /// All live handles in ascending (arrival) order.
    pub fn live(&self) -> impl Iterator<Item = Handle> + '_ {
        self.handle_to_dense.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_allocates_monotonic_handles() {
        let mut m = HandleMap::new();
        assert!(m.is_empty());
        let a = m.push();
        let b = m.push();
        assert!(a < b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.handle_at(0), a);
        assert_eq!(m.dense_of(b), Some(1));
        assert_eq!(m.oldest(), Some(a));
    }

    #[test]
    fn swap_remove_moves_last_handle_into_hole() {
        let mut m = HandleMap::with_dense_len(4);
        let (h0, h1, h3) = (m.handle_at(0), m.handle_at(1), m.handle_at(3));
        let removed = m.swap_remove(1);
        assert_eq!(removed, h1);
        assert_eq!(m.len(), 3);
        assert_eq!(m.handle_at(1), h3);
        assert_eq!(m.dense_of(h3), Some(1));
        assert_eq!(m.dense_of(h1), None);
        assert_eq!(m.oldest(), Some(h0));
    }

    #[test]
    fn handles_are_never_reused() {
        let mut m = HandleMap::new();
        let a = m.push();
        m.swap_remove(0);
        let b = m.push();
        assert_ne!(a, b);
        assert!(b > a);
        assert_eq!(m.dense_of(a), None);
        assert_eq!(m.dense_of(b), Some(0));
    }

    #[test]
    fn removing_the_last_point_moves_nothing() {
        let mut m = HandleMap::with_dense_len(2);
        let h0 = m.handle_at(0);
        m.swap_remove(1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.handle_at(0), h0);
        m.swap_remove(0);
        assert!(m.is_empty());
        assert_eq!(m.oldest(), None);
    }

    #[test]
    fn live_iterates_in_arrival_order() {
        let mut m = HandleMap::with_dense_len(5);
        m.swap_remove(0); // removes handle 0; handle 4 moves to id 0
        m.swap_remove(2); // removes handle 2; handle 3 moves to id 2
        let live: Vec<u64> = m.live().map(|h| h.0).collect();
        assert_eq!(live, vec![1, 3, 4]);
        let pairs: Vec<(u64, PointId)> = m.live().map(|h| (h.0, m.dense_of(h).unwrap())).collect();
        assert_eq!(pairs, vec![(1, 1), (3, 2), (4, 0)]);
    }
}
