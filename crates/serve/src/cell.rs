//! The publication cell: an append-only snapshot chain readers walk without
//! locks, plus a bounded ring of [`ClusterDelta`]s for subscription replay.
//!
//! # Lock analysis
//!
//! The hot read path — [`SnapshotReader::current`](crate::SnapshotReader) —
//! takes **no lock**: the reader holds an `Arc` to its current `ChainNode`
//! and advances by loading the node's `next` cell ([`OnceLock::get`], one
//! atomic load per hop, usually zero hops). It can neither block the writer
//! nor be blocked by it, and it can never observe a torn snapshot because a
//! node's payload is an immutable [`EpochSnapshot`] frozen before the node
//! is linked in.
//!
//! Two mutexes exist *off* the hot path, documented honestly:
//!
//! * `tail` — touched by the single writer on publish and by
//!   `SnapshotCell::tail_node` when a *new reader is created*. Reader
//!   creation is rare; steady-state queries never touch it.
//! * `ring` — touched by the writer on publish and by subscription replay
//!   ([`SnapshotReader::deltas_since`](crate::SnapshotReader)). Replay is a
//!   catch-up operation, not a per-query step.
//!
//! # Publish ordering
//!
//! [`SnapshotCell::publish`] pushes the epoch's delta into the ring *before*
//! linking the snapshot into the chain, and bumps the published counter
//! last. A reader that observes a snapshot at epoch `E` is therefore
//! guaranteed the ring already processed every delta up to `E` — the chain
//! is never ahead of the ring.
//!
//! # Memory
//!
//! Old chain nodes are freed as soon as every reader has advanced past them
//! (each hop drops the previous node's `Arc`). An abandoned reader that is
//! never polled pins history from its cursor onward; drop readers you no
//! longer poll.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dpc_obs::SharedRecorder;
use dpc_stream::{ClusterDelta, EpochSnapshot, SnapshotSink};

/// One link of the append-only snapshot chain.
///
/// The payload is immutable once the node is constructed; `next` is written
/// exactly once, by the single writer, when the following epoch publishes.
pub(crate) struct ChainNode {
    pub(crate) snap: Arc<EpochSnapshot>,
    pub(crate) next: OnceLock<Arc<ChainNode>>,
}

impl ChainNode {
    fn new(snap: Arc<EpochSnapshot>) -> Arc<Self> {
        Arc::new(ChainNode {
            snap,
            next: OnceLock::new(),
        })
    }
}

/// Bounded FIFO of per-epoch deltas. When full, the oldest delta is evicted
/// — subscribers that fall further behind than the capacity must resync.
#[derive(Debug)]
struct DeltaRing {
    capacity: usize,
    deltas: VecDeque<ClusterDelta>,
    /// Total deltas evicted since construction (diagnostics).
    evicted: u64,
}

impl DeltaRing {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "delta ring capacity must be positive");
        DeltaRing {
            capacity,
            deltas: VecDeque::with_capacity(capacity),
            evicted: 0,
        }
    }

    fn push(&mut self, delta: ClusterDelta) {
        if self.deltas.len() == self.capacity {
            self.deltas.pop_front();
            self.evicted += 1;
        }
        self.deltas.push_back(delta);
    }
}

/// The answer to a [`deltas_since`](crate::SnapshotReader::deltas_since)
/// subscription poll.
#[derive(Debug, Clone)]
pub enum Replay {
    /// The contiguous deltas from `since + 1` through the latest published
    /// epoch, oldest first. Empty means the subscriber is already up to
    /// date.
    Deltas(Vec<ClusterDelta>),
    /// The ring no longer holds every delta the subscriber missed (it fell
    /// more than the ring capacity behind). Rebase on this full snapshot
    /// and resume polling from its epoch.
    Resync(Arc<EpochSnapshot>),
}

impl Replay {
    /// Whether this replay demands a full resync.
    pub fn is_resync(&self) -> bool {
        matches!(self, Replay::Resync(_))
    }

    /// The replayed deltas, or `None` for a resync.
    pub fn deltas(&self) -> Option<&[ClusterDelta]> {
        match self {
            Replay::Deltas(d) => Some(d),
            Replay::Resync(_) => None,
        }
    }
}

/// The single-writer / many-reader publication point.
///
/// Attach a cell to a [`StreamingDpc`](dpc_stream::StreamingDpc) via
/// [`set_snapshot_sink`](dpc_stream::StreamingDpc::set_snapshot_sink) (the
/// [`Server`](crate::Server) wrapper does this for you) and hand
/// [`SnapshotReader`](crate::SnapshotReader)s to query threads. See the
/// [module docs](self) for the lock analysis and ordering contract.
pub struct SnapshotCell {
    /// Newest chain node. Locked only on publish and reader creation.
    tail: Mutex<Arc<ChainNode>>,
    /// Count of epochs published through this cell (excludes the seed
    /// snapshot the cell was constructed with).
    published: AtomicU64,
    ring: Mutex<DeltaRing>,
    recorder: SharedRecorder,
}

impl fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("published", &self.published.load(Ordering::Acquire))
            .field("latest_epoch", &self.latest_epoch())
            .finish_non_exhaustive()
    }
}

impl SnapshotCell {
    /// Creates a cell seeded with `initial` (published immediately as the
    /// chain head, *without* a ring entry — there is no delta to replay for
    /// a snapshot consumers start from).
    ///
    /// # Panics
    /// Panics if `ring_capacity` is zero.
    pub fn new(initial: Arc<EpochSnapshot>, ring_capacity: usize) -> Self {
        SnapshotCell {
            tail: Mutex::new(ChainNode::new(initial)),
            published: AtomicU64::new(0),
            ring: Mutex::new(DeltaRing::new(ring_capacity)),
            recorder: dpc_obs::noop(),
        }
    }

    /// Publishes reader/writer metrics through `recorder`; builder-style.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The recorder this cell emits into.
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// Number of epochs published since construction (the seed snapshot is
    /// not counted).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Epoch of the newest published snapshot. Locks `tail` briefly; meant
    /// for monitoring, not the query path — readers track their own epoch.
    pub fn latest_epoch(&self) -> u64 {
        self.tail.lock().unwrap().snap.epoch()
    }

    /// The newest chain node, for seeding a reader cursor. Locks `tail`
    /// briefly (reader creation only — never on the query path).
    pub(crate) fn tail_node(&self) -> Arc<ChainNode> {
        Arc::clone(&self.tail.lock().unwrap())
    }

    /// Deltas evicted from the ring since construction.
    pub fn ring_evictions(&self) -> u64 {
        self.ring.lock().unwrap().evicted
    }

    /// Computes the replay for a subscriber that last saw epoch `since`,
    /// given the `latest` snapshot its reader just refreshed to.
    ///
    /// Published epochs are contiguous (the engine increments its epoch
    /// exactly when a non-empty commit succeeds, and publishes exactly
    /// then), so the ring's entries with `epoch > since` are a complete
    /// replay if and only if they start at `since + 1`.
    pub(crate) fn replay_since(&self, since: u64, latest: Arc<EpochSnapshot>) -> Replay {
        let newer: Vec<ClusterDelta> = {
            let ring = self.ring.lock().unwrap();
            ring.deltas
                .iter()
                .filter(|d| d.epoch > since)
                .cloned()
                .collect()
        };
        match newer.first() {
            None if latest.epoch() > since => Replay::Resync(latest),
            None => Replay::Deltas(Vec::new()),
            Some(first) if first.epoch == since + 1 => Replay::Deltas(newer),
            Some(_) => Replay::Resync(latest),
        }
    }
}

impl SnapshotSink for SnapshotCell {
    /// Publishes one committed epoch: ring first, then the chain, then the
    /// published counter (see the [module docs](self) for why this order).
    ///
    /// # Panics
    /// Panics if two writers race a publish — the serving layer is
    /// single-writer by contract, and a violated contract must not be
    /// silently absorbed.
    fn publish(&self, snapshot: Arc<EpochSnapshot>) {
        self.ring.lock().unwrap().push(snapshot.delta().clone());
        let node = ChainNode::new(Arc::clone(&snapshot));
        {
            let mut tail = self.tail.lock().unwrap();
            tail.next
                .set(Arc::clone(&node))
                .unwrap_or_else(|_| panic!("single-writer publication contract violated"));
            *tail = node;
        }
        self.published.fetch_add(1, Ordering::Release);
        if self.recorder.enabled() {
            self.recorder.counter("serve.published", 1);
            self.recorder.gauge("serve.epoch", snapshot.epoch() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64) -> Arc<EpochSnapshot> {
        Arc::new(EpochSnapshot::capture(
            &dpc_core::Dataset::new(Vec::new()),
            &[],
            &dpc_core::DeltaResult::new(Vec::new(), Vec::new()),
            &dpc_core::Clustering::new(Vec::new(), Vec::new(), Vec::new()),
            Vec::new(),
            Arc::default(),
            ClusterDelta::empty(epoch, 0),
        ))
    }

    #[test]
    fn publish_links_chain_and_counts() {
        let cell = SnapshotCell::new(snap(0), 4);
        assert_eq!(cell.published(), 0);
        assert_eq!(cell.latest_epoch(), 0);
        cell.publish(snap(1));
        cell.publish(snap(2));
        assert_eq!(cell.published(), 2);
        assert_eq!(cell.latest_epoch(), 2);
        // The tail node is the newest snapshot, with no successor yet.
        let node = cell.tail_node();
        assert_eq!(node.snap.epoch(), 2);
        assert!(node.next.get().is_none());
        assert!(format!("{cell:?}").contains("published: 2"));
    }

    #[test]
    fn replay_is_contiguous_or_resync() {
        let cell = SnapshotCell::new(snap(0), 2);
        for e in 1..=2 {
            cell.publish(snap(e));
        }
        let latest = cell.tail_node().snap.clone();
        // Up to date.
        assert!(matches!(
            cell.replay_since(2, latest.clone()),
            Replay::Deltas(ref d) if d.is_empty()
        ));
        // Contiguous catch-up.
        match cell.replay_since(0, latest.clone()) {
            Replay::Deltas(d) => {
                assert_eq!(d.iter().map(|d| d.epoch).collect::<Vec<_>>(), vec![1, 2]);
            }
            Replay::Resync(_) => panic!("expected contiguous replay"),
        }
        // Wrap the ring: epochs 1..=2 evicted in favour of 3..=4.
        cell.publish(snap(3));
        cell.publish(snap(4));
        assert_eq!(cell.ring_evictions(), 2);
        let latest = cell.tail_node().snap.clone();
        let replay = cell.replay_since(1, latest);
        assert!(replay.is_resync());
        assert!(replay.deltas().is_none());
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_ring_capacity_panics() {
        let _ = SnapshotCell::new(snap(0), 0);
    }
}
