//! Per-thread snapshot readers: wait-free access to the latest published
//! epoch, point lookups, ε-neighbourhood queries, and delta subscriptions.

use std::fmt;
use std::sync::Arc;

use dpc_core::{Point, Result};
use dpc_obs::{span, SharedRecorder};
use dpc_stream::{EpochSnapshot, Handle};

use crate::cell::{ChainNode, Replay, SnapshotCell};

/// A reader handle over one [`SnapshotCell`].
///
/// Each reader owns a cursor into the snapshot chain; queries refresh the
/// cursor to the newest published epoch first (wait-free — see the
/// [`cell`](crate::cell) module docs), then answer from that immutable
/// snapshot. Create one reader per thread with
/// [`Server::reader`](crate::Server::reader): a reader is `Send`, but
/// queries take `&mut self` to advance the cursor.
///
/// Every query publishes a latency span through the cell's recorder:
/// `serve.query.lookup`, `serve.query.eps`, `serve.query.sub`.
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    cursor: Arc<ChainNode>,
    recorder: SharedRecorder,
}

impl fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("epoch", &self.cursor.snap.epoch())
            .finish_non_exhaustive()
    }
}

impl SnapshotReader {
    pub(crate) fn new(cell: Arc<SnapshotCell>, recorder: SharedRecorder) -> Self {
        let cursor = cell.tail_node();
        SnapshotReader {
            cell,
            cursor,
            recorder,
        }
    }

    /// The epoch of the snapshot the cursor currently sits on, *without*
    /// refreshing. [`Self::current`] may return a newer epoch.
    pub fn epoch(&self) -> u64 {
        self.cursor.snap.epoch()
    }

    /// Advances the cursor to the newest published snapshot and returns it.
    ///
    /// Wait-free: each hop is one atomic load of the current node's `next`
    /// cell; in steady state (no publish since the last call) it is a single
    /// load that misses. Never blocks the writer, never observes a torn
    /// snapshot — nodes carry immutable, fully-constructed snapshots.
    pub fn current(&mut self) -> Arc<EpochSnapshot> {
        while let Some(next) = self.cursor.next.get() {
            self.cursor = Arc::clone(next);
        }
        Arc::clone(&self.cursor.snap)
    }

    /// Point lookup: the centre handle of the cluster `handle` belongs to at
    /// the newest published epoch, or `None` if the point is not in the
    /// window. Span: `serve.query.lookup`.
    pub fn cluster_of(&mut self, handle: Handle) -> Option<Handle> {
        let rec = self.recorder.clone();
        let _guard = span(&rec, "serve.query.lookup");
        self.current().cluster_of(handle)
    }

    /// Handles of all points strictly within `eps` of `center` at the newest
    /// published epoch, bit-identical to querying the engine's index at that
    /// epoch. Span: `serve.query.eps`.
    ///
    /// # Errors
    /// Rejects a non-finite or non-positive `eps`.
    pub fn eps_neighbors(&mut self, center: Point, eps: f64) -> Result<Vec<Handle>> {
        let rec = self.recorder.clone();
        let _guard = span(&rec, "serve.query.eps");
        self.current().eps_neighbor_handles(center, eps)
    }

    /// Subscription poll: everything that changed since epoch `since`.
    ///
    /// Returns [`Replay::Deltas`] with the contiguous per-epoch deltas
    /// `since + 1 ..= current` (empty when up to date), or
    /// [`Replay::Resync`] with the full current snapshot when the bounded
    /// delta ring has already evicted part of that range — the subscriber
    /// fell more than the ring capacity behind and must rebase. Span:
    /// `serve.query.sub`; each resync also bumps the
    /// `serve.reader.resyncs` counter.
    pub fn deltas_since(&mut self, since: u64) -> Replay {
        let rec = self.recorder.clone();
        let _guard = span(&rec, "serve.query.sub");
        let latest = self.current();
        let replay = self.cell.replay_since(since, latest);
        if replay.is_resync() && rec.enabled() {
            rec.counter("serve.reader.resyncs", 1);
        }
        replay
    }
}
