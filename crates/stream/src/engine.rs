//! The streaming DPC engine: [`StreamingDpc`].
//!
//! ## The epoch-batched maintenance pipeline
//!
//! Every mutation of the window — a single [`insert`](StreamingDpc::insert),
//! a single [`remove`](StreamingDpc::remove), a sliding-window
//! [`advance`](StreamingDpc::advance), or an arbitrary
//! [`EpochPlan`] — runs through one pipeline,
//! [`commit`](StreamingDpc::commit), which pays the expensive maintenance
//! **once per epoch** rather than once per update:
//!
//! 1. **Validate** the whole batch up front (finite coordinates, live
//!    handles, no duplicates) so a rejected plan leaves the engine untouched.
//! 2. **Mutate the index** one [`UpdatableIndex::insert`] or
//!    [`UpdatableIndex::remove`] per op, in submission order (inserts
//!    append, removals swap-remove); the index's amortised triggers (k-d
//!    scapegoat and dead-fraction rebuilds) fire inside the op that trips
//!    them. The engine mirrors every op in its handle map and per-point
//!    arrays, tracking the provenance of each final slot (survivor of old
//!    id `o` / inserted this epoch).
//! 3. **Repair ρ** with one ε-query per *net* mutation, all against the
//!    final index: each expired pre-epoch location subtracts its (aged)
//!    pair weight `λᵃᵍᵉ·w(d)` from the surviving neighbours it used to
//!    count, each surviving insert gets a fresh weighted sum and adds
//!    `w(d)` to its surviving neighbours — under the default
//!    [`Kernel::Cutoff`](dpc_core::Kernel) without decay every weight is
//!    exactly 1.0 and this is the classic integer ±1 repair, bit for bit. A
//!    visited bitmap deduplicates the touched survivors into the epoch's
//!    **affected union** `U`, recording each member's ρ as the repair first
//!    touches it. Points both inserted and expired within the batch are
//!    *ephemeral* and contribute nothing.
//! 4. **Repair δ/µ once**: the invalidation set `F` — the members of `U`
//!    whose ρ fell, the inserted points, points whose µ expired or is no
//!    longer denser than them, and the old and new global peaks — is
//!    recomputed from scratch through the index's
//!    [`UpdatableIndex::delta_targets`] (the pruned search of Lemmas 1–2 on
//!    the trees). The µ links are kept as a persistent forest, a child list
//!    per point in step with `µ`: the swap-removes of step 2 orphan the
//!    removed points' children and rename the moved points' children, and
//!    the overtaken µ are found over the links of `U` and the renamed
//!    points, never by a pass over the window. Everyone else keeps its
//!    `(δ, µ)` and min-folds the candidates: the inserted and renamed
//!    points, and each member of `U` whose ρ rose. A point looks only at
//!    the candidates in the cells its δ-disk overlaps (see
//!    [`crate::maintenance`]). Every write of µ relinks the point in the
//!    forest. When `|F|` exceeds [`StreamParams::max_affected_fraction`] of
//!    the window, and on every decayed epoch, the engine instead re-ranks
//!    every point once through the index's batch δ-query
//!    ([`DpcIndex::delta`](dpc_core::DpcIndex::delta)) and rebuilds the
//!    forest. Every δ query carries the engine's recorder, so a trace shows
//!    the index's `query.delta.*` counters beside the `stream.delta.*`
//!    spans.
//! 5. **Re-cluster once** and emit one [`ClusterDelta`] for the whole batch:
//!    a selection of the centres from the γ candidates kept across epochs,
//!    which keys only the points whose ρ or δ changed, then a relabel of
//!    the points whose µ or centre status changed, densest first, walking
//!    the subtree under each whose label changed. Each label is the handle
//!    of its centre; the rank labels of [`Clustering`] are rebuilt in full
//!    only when the centres or their id order changed. The delta is built
//!    from the relabel, insert and evict events, which also update the
//!    shared `(point handle, centre handle)` list in place.
//!
//! Why each piece of `F` is sufficient, and why everyone else only needs the
//! candidate fold, is derived step by step in `docs/STREAMING.md`.
//!
//! This is the engine's only maintenance path: the index is built once, at
//! seeding, and from then on only mutated in place. Which branch of step 4
//! an epoch took is reported as an [`EpochMode`] in [`StreamStats`].
//!
//! The correctness anchor (enforced by the equivalence property suite at
//! batch sizes 1, 7 and 64) is: after **every** epoch, the engine's `(ρ, δ,
//! µ, labels, centres)` are bit-identical both to a per-update replay of the
//! same ops and to a cold batch run over the surviving points, for every
//! [`UpdatableIndex`] implementation, at every thread count.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use dpc_core::decision::select_centers;
use dpc_core::{
    compute_halo, nearest_center, CenterSelection, ClusterId, Clustering, DecisionGraph,
    DeltaResult, DensityOrder, DpcError, DpcParams, Kernel, Point, PointId, Result, Rho,
    UpdatableIndex,
};
use dpc_obs::{span, SharedRecorder};

use crate::epoch::{EpochPlan, PlanOp};
use crate::forest::{Forest, CORRUPTED};
use crate::handle::{Handle, HandleMap};
use crate::maintenance::candidate_pass;
use crate::report::{ClusterDelta, LabelChange};
use crate::select::TopSet;
use crate::snapshot::{EpochSnapshot, SnapshotSink};

/// Parameters of a streaming run: the batch DPC parameters plus the
/// incremental-maintenance knobs.
///
/// ```
/// use dpc_stream::StreamParams;
///
/// let params = StreamParams::new(0.5).with_max_affected_fraction(0.4);
/// assert_eq!(params.dpc.dc, 0.5);
/// assert!(params.validate().is_ok());
/// assert!(StreamParams::new(0.5)
///     .with_max_affected_fraction(f64::NAN)
///     .validate()
///     .is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamParams {
    /// The clustering parameters (`dc`, centre selection, assignment
    /// options, execution policy, kernel). The execution policy is used
    /// for the parallel maintenance passes as well as the seeding batch
    /// queries.
    pub dpc: DpcParams,
    /// When an epoch's invalidation set exceeds this fraction of the window,
    /// fall back to re-ranking δ/µ of every point through the index's batch
    /// δ-query instead of recomputing the invalidation set through
    /// [`UpdatableIndex::delta_targets`] and folding the candidates into
    /// every other point. Both paths query the index; the fold visits every
    /// point outside the set, but looks only at the candidates in the cells
    /// its δ-disk overlaps, and the threshold trades that visit plus the
    /// targeted searches against one search per point.
    ///
    /// The default, 0.6, sits at the measured crossover on the k-d tree.
    /// On a Gowalla-like window of 4 000 at dc 0.1 (`dpc generate --dataset
    /// gowalla --scale 0.05 --seed 42`, 20 epochs per run, 6 runs per side,
    /// 2-vCPU VM), always-incremental against always-re-rank epochs took
    /// 3.4–3.6 against 3.9–4.3 ms with `|F|` 38% of the window, tied at 52%
    /// (5.0–6.6 against 5.1–6.9 ms), and lost at 62% (6.7–8.6 against
    /// 6.0–7.7 ms) and 70% (8.1–10.9 against 7.3–10.7 ms). The grid's
    /// crossover is higher: it still won at 70% (16.4–20.1 against
    /// 19.5–21.3 ms) and lost at 90% (25.1–26.1 against 22.9–23.8 ms).
    /// 1.0 (or anything ≥ 1.0) effectively disables the fallback; 0.0 forces
    /// it on every epoch (useful for testing).
    pub max_affected_fraction: f64,
    /// Per-epoch time-decay factor λ ∈ (0, 1] of the weighted densities:
    /// every committed epoch (and every [`StreamingDpc::tick`]) multiplies
    /// each pair's density contribution by λ, so a contribution aged `k`
    /// epochs weighs `λᵏ·w(d)`. The default 1.0 disables decay — densities
    /// then depend only on the current window, never on its history.
    ///
    /// Decay never changes *which* points interact (the kernel support stays
    /// strictly within `dc`), so the affected-set machinery is untouched; it
    /// only rescales the weights. A decayed epoch always re-ranks δ/µ in
    /// full through the index's batch δ-query.
    pub decay: f64,
}

impl StreamParams {
    /// Streaming parameters with the given cut-off and defaults for
    /// everything else (fallback threshold 0.6, no decay).
    pub fn new(dc: f64) -> Self {
        StreamParams {
            dpc: DpcParams::new(dc),
            max_affected_fraction: 0.6,
            decay: 1.0,
        }
    }

    /// Replaces the embedded batch parameters.
    pub fn with_dpc(mut self, dpc: DpcParams) -> Self {
        self.dpc = dpc;
        self
    }

    /// Sets the fallback threshold.
    pub fn with_max_affected_fraction(mut self, fraction: f64) -> Self {
        self.max_affected_fraction = fraction;
        self
    }

    /// Sets the per-epoch time-decay factor λ (1.0 disables decay).
    pub fn with_decay(mut self, decay: f64) -> Self {
        self.decay = decay;
        self
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        self.dpc.validate()?;
        if !(self.max_affected_fraction.is_finite() && self.max_affected_fraction >= 0.0) {
            return Err(DpcError::invalid_parameter(
                "max_affected_fraction",
                format!(
                    "must be a finite non-negative fraction, got {}",
                    self.max_affected_fraction
                ),
            ));
        }
        if !(self.decay.is_finite() && self.decay > 0.0 && self.decay <= 1.0) {
            return Err(DpcError::invalid_parameter(
                "decay",
                format!(
                    "per-epoch decay factor must be a positive finite number \
                     (valid range: 0 < decay <= 1), got {}",
                    self.decay
                ),
            ));
        }
        Ok(())
    }
}

/// Cumulative counters describing how much incremental work the engine did.
///
/// An *epoch* is one clustering step (one `insert`, `remove`, `advance` or
/// committed [`EpochPlan`]); an *update* is one point mutation inside it.
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{Dataset, Point};
/// use dpc_stream::{StreamParams, StreamingDpc};
///
/// let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (4.0, 4.0), (4.1, 4.0)]);
/// let mut engine =
///     StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
/// // One advance = one epoch, however many points it slides.
/// engine.advance(&[Point::new(0.05, 0.0), Point::new(4.05, 4.0)], 2).unwrap();
/// let stats = engine.stats();
/// assert_eq!(stats.epochs, 1);
/// assert_eq!(stats.updates, 4); // 2 evictions + 2 insertions
/// assert_eq!(stats.incremental_epochs + stats.fallback_epochs, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Clustering epochs emitted (committed plans; an empty plan is not an
    /// epoch). The seeding pass is epoch 0 and is not counted.
    pub epochs: u64,
    /// Individual point updates applied (an `advance` counts each insertion
    /// and eviction separately; an ephemeral point counts both its insert
    /// and its expiry).
    pub updates: u64,
    /// Epochs repaired incrementally (candidate fold + bounded recompute).
    pub incremental_epochs: u64,
    /// Epochs that fell back to a full δ/µ recomputation. Every
    /// plan-committing epoch lands in exactly one of the two mode counters;
    /// pure decay ticks land in [`decay_epochs`](Self::decay_epochs)
    /// instead.
    pub fallback_epochs: u64,
    /// Pure decay epochs ([`StreamingDpc::tick`]): scalar ρ aging plus a
    /// full δ/µ re-rank, no window mutation. Effective ticks only — with
    /// decay disabled a tick is a no-op and is not counted.
    pub decay_epochs: u64,
    /// ε-range queries issued by the incremental ρ repair (one per expired
    /// survivor location and one per surviving insert). Decay ticks issue
    /// none — the regression suite pins that down.
    pub eps_queries: u64,
    /// Sum over epochs of the affected-union size |U| (distinct surviving
    /// points whose ρ was touched by the epoch's ε-neighbourhoods).
    pub affected_points: u64,
    /// Sum over committed epochs of the invalidation-set size |F|: the
    /// points an incremental epoch recomputes, and on a fallback epoch the
    /// set whose size sent it to the full re-rank.
    pub invalidated_points: u64,
    /// Wall-clock µs the *last* epoch spent in density maintenance (plan
    /// application through δ/µ repair; excludes re-clustering).
    pub last_epoch_micros: u64,
    /// What the last committed epoch did (`None` before the first epoch).
    pub last_epoch_mode: Option<EpochMode>,
}

/// What one committed epoch did — recorded in
/// [`StreamStats::last_epoch_mode`], and counted per mode in
/// [`StreamStats`], so which branch of the δ repair ran is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// Affected-set repair: candidate fold + bounded δ/µ recompute.
    Incremental,
    /// The invalidation set exceeded `max_affected_fraction` (or the epoch
    /// decayed every density) and δ/µ were re-ranked for every point.
    Fallback,
    /// A pure decay tick ([`StreamingDpc::tick`]): no window mutation, one
    /// scalar ρ aging pass plus a full δ/µ re-rank, zero ε-queries.
    Decay,
}

impl EpochMode {
    /// The mode's stable name (log lines and report fields).
    pub fn name(self) -> &'static str {
        match self {
            EpochMode::Incremental => "incremental",
            EpochMode::Fallback => "fallback",
            EpochMode::Decay => "decay",
        }
    }
}

/// Provenance of a dense slot while an epoch is being applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Survivor: held pre-epoch dense id `o`.
    Old(PointId),
    /// Inserted by this epoch (payload: the plan's insert ordinal).
    New(usize),
}

/// One index mutation of an epoch, with the dense id it has when it runs.
#[derive(Debug, Clone, Copy)]
enum IndexOp {
    /// Append a point at the current length.
    Insert(Point),
    /// Swap-remove the point at this id.
    Remove(PointId),
}

/// Reusable per-epoch working memory of [`StreamingDpc::commit`]. Every
/// buffer is cleared (not shrunk) at the start of the phase that fills it,
/// so a steady-state stream commits epochs without allocating.
#[derive(Debug, Clone, Default)]
struct CommitScratch {
    /// Provenance of each dense slot while the plan is applied.
    owner: Vec<Origin>,
    /// The plan translated to resolved-id index ops.
    index_ops: Vec<IndexOp>,
    /// Pre-epoch coordinates of every expired survivor.
    removed_old_locs: Vec<Point>,
    /// Birth epoch of every expired survivor, parallel to
    /// `removed_old_locs` — the ρ repair needs it to subtract each expiring
    /// pair at its current decayed weight.
    removed_old_births: Vec<u64>,
    /// Final dense ids of the points inserted this epoch.
    inserted_final: Vec<PointId>,
    /// Pre-epoch id → final id (`None` = expired).
    final_of_old: Vec<Option<PointId>>,
    /// Dedup bitmap behind the affected union U.
    visited: Vec<bool>,
    /// The affected union U (distinct survivors whose ρ changed), each with
    /// its ρ from before the repair first touched it.
    union: Vec<(PointId, Rho)>,
    /// The invalidation set F (recompute targets).
    invalidated: Vec<PointId>,
    /// Membership bitmap of F for the candidate fold.
    skip: Vec<bool>,
    /// The fold's candidates: the inserted and renamed points, and the
    /// members of U whose ρ rose.
    candidates: Vec<PointId>,
    /// Survivors whose µ expired, by pre-epoch id while the plan is
    /// applied, then by final id.
    orphaned: Vec<PointId>,
    /// Survivors a swap-remove moved, likewise (a point may move twice).
    renamed: Vec<PointId>,
    /// µ links the plan's swap-removes visited: orphaned and renamed
    /// children.
    links: usize,
    /// Points whose µ is no longer denser than them.
    overtaken: Vec<PointId>,
    /// Points whose µ the fold replaced, with their previous µ.
    moved: Vec<(PointId, Option<PointId>)>,
    /// The relabel's roots: the points whose µ changed, the inserted
    /// points and those whose µ expired.
    roots: Vec<PointId>,
    /// The relabel's pending subtree roots, each with its new label.
    walk: Vec<(PointId, Handle)>,
    /// The points the relabel rewrote, with their previous labels.
    relabelled: Vec<(PointId, Option<Handle>)>,
    /// `(point handle, centre handle)` of the points evicted since the
    /// last successful recluster.
    evictions: Vec<(Handle, Handle)>,
    /// The epoch's label changes by handle, with their index into
    /// `relabelled` then `evictions`: a relabel of the whole window sorts
    /// one key per point, not one `LabelChange`.
    by_handle: Vec<(Handle, u32)>,
}

/// Why the engine's δ queries cannot fail: [`StreamParams::validate`] checks
/// `dc` and the kernel before the seeding query, the engine keeps one ρ per
/// window point, and every target is a live id.
const QUERY_VALIDATED: &str = "δ query over validated parameters, one ρ per point and live targets";

/// What one committed epoch's maintenance did, handed from
/// [`StreamingDpc::maintain`] back to [`StreamingDpc::commit`] for timing
/// and stats.
struct EpochOutcome {
    /// One handle per planned insert, in plan order.
    planned_handles: Vec<Handle>,
    /// Which branch of the δ repair the epoch took.
    mode: EpochMode,
    /// |F|, the invalidation-set size (0 for an epoch that empties the
    /// window).
    invalidated: usize,
}

/// An online Density Peak Clustering engine over a mutable window of points.
///
/// See the [module docs](self) for the maintenance pipeline and
/// `docs/STREAMING.md` for the full internals contract. Typical use:
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{CenterSelection, Dataset, Point};
/// use dpc_stream::{StreamParams, StreamingDpc};
///
/// let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
/// let index = NaiveReferenceIndex::build(&seed);
/// let params = StreamParams::new(0.5)
///     .with_dpc(dpc_core::DpcParams::new(0.5)
///         .with_centers(CenterSelection::TopKGamma { k: 2 }));
/// let mut engine = StreamingDpc::new(index, params).unwrap();
/// assert_eq!(engine.clustering().num_clusters(), 2);
///
/// // Points arrive and expire without ever rebuilding the index.
/// let (handle, delta) = engine.insert(Point::new(0.05, 0.05)).unwrap();
/// assert_eq!(delta.insertions(), 1);
/// let delta = engine.remove(handle).unwrap();
/// assert_eq!(delta.evictions(), 1);
/// ```
///
/// The sliding-window loop most stream consumers want — batches arrive, the
/// same number of oldest points expire, one clustering epoch per batch:
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{Dataset, Point};
/// use dpc_stream::{StreamParams, StreamingDpc};
///
/// let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.1), (4.0, 4.0), (4.1, 4.1)]);
/// let mut engine =
///     StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
/// let arrivals = vec![
///     vec![Point::new(4.05, 4.0), Point::new(0.05, 0.0)],
///     vec![Point::new(0.0, 0.05), Point::new(4.0, 4.05)],
/// ];
/// for batch in &arrivals {
///     let (handles, delta) = engine.advance(batch, batch.len()).unwrap();
///     assert_eq!(handles.len(), 2);
///     assert_eq!(delta.insertions(), 2);
///     assert_eq!(delta.evictions(), 2);
/// }
/// assert_eq!(engine.len(), 4); // the window size never drifted
/// assert_eq!(engine.epoch(), 2); // one epoch per batch, not per point
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDpc<I: UpdatableIndex> {
    index: I,
    params: StreamParams,
    rho: Vec<Rho>,
    deltas: DeltaResult,
    /// Birth epoch of each dense slot, on the [`age_epoch`](Self::age_epoch)
    /// clock: a pair's decay exponent is `age_epoch − max(birth_p, birth_q)`.
    /// Maintained through the same push/swap-remove choreography as `rho`;
    /// inert (but still tracked) when decay is disabled.
    births: Vec<u64>,
    handles: HandleMap,
    /// Dense id of the global peak (`None` for an empty window).
    peak: Option<PointId>,
    /// The child lists of the µ links, in step with `deltas.mu`.
    forest: Forest,
    /// Each point's label: the handle of its cluster's centre, or `None`
    /// for a point inserted since the last successful recluster. Follows
    /// the push/swap-remove sequence of `rho`.
    centre_of: Vec<Option<Handle>>,
    /// The centres of the last successful epoch with their member counts,
    /// ascending by handle.
    centres: Vec<(Handle, usize)>,
    /// The same centres' handles in ascending dense-id order, the order of
    /// their rank labels in `clustering`.
    ranked: Vec<Handle>,
    /// Handles evicted since the last successful recluster.
    evicted: Vec<Handle>,
    /// Whether the next recluster relabels every point: after seeding, a
    /// full re-rank, a decay tick or a failed recluster.
    relabel_all: bool,
    /// The `TopKGamma` / `GammaGap` candidates kept across epochs.
    top_set: TopSet,
    clustering: Clustering,
    /// Stable view of the last successful epoch: `(point handle, centre
    /// handle)` for every point, in ascending point-handle order. Behind an
    /// `Arc` so published snapshots share it instead of copying it; a
    /// deque, so evicting the oldest point moves nothing.
    assignment: Arc<VecDeque<(Handle, Handle)>>,
    epoch: u64,
    /// The decay clock: how many aging passes (committed epochs + effective
    /// ticks) have run. Decoupled from [`epoch`](Self::epoch) so a
    /// clustering-stage error — which leaves the density state exact but the
    /// epoch counter unbumped — cannot skew the decay exponents.
    age_epoch: u64,
    stats: StreamStats,
    /// Reusable per-epoch working memory (taken out for the duration of a
    /// commit, put back afterwards).
    scratch: CommitScratch,
    /// Observability sink for phase spans, maintenance counters and
    /// gauges. Defaults to the shared no-op recorder, which keeps every
    /// instrumented site down to a predictable branch; see
    /// [`set_recorder`](Self::set_recorder).
    recorder: SharedRecorder,
    /// Publication sink for epoch snapshots (`None` by default). When set,
    /// every successfully committed non-empty epoch freezes an
    /// [`EpochSnapshot`] after re-clustering and hands it to the sink; see
    /// [`set_snapshot_sink`](Self::set_snapshot_sink).
    sink: Option<Arc<dyn SnapshotSink>>,
}

impl<I: UpdatableIndex> StreamingDpc<I> {
    /// Seeds the engine with an index (and the dataset it owns), running one
    /// batch ρ/δ query plus an initial clustering epoch.
    ///
    /// Errors when the parameters are invalid, when the index is
    /// approximate (incremental maintenance needs exact δ/µ), or when the
    /// initial centre selection fails.
    pub fn new(index: I, params: StreamParams) -> Result<Self> {
        params.validate()?;
        if !index.is_exact() {
            return Err(DpcError::invalid_parameter(
                "index",
                "streaming maintenance requires an exact index (approximate \
                 δ clipping cannot be repaired incrementally)",
            ));
        }
        let n = index.len();
        let (rho, deltas) = if n == 0 {
            (Vec::new(), DeltaResult::unset(0))
        } else {
            index.rho_delta(&params.dpc.query())?
        };
        let peak = DensityOrder::new(&rho).global_peak();
        let mut engine = StreamingDpc {
            index,
            params,
            rho,
            forest: Forest::new(&deltas.mu),
            deltas,
            births: vec![0; n],
            handles: HandleMap::with_dense_len(n),
            peak,
            centre_of: vec![None; n],
            centres: Vec::new(),
            ranked: Vec::new(),
            evicted: Vec::new(),
            relabel_all: true,
            top_set: TopSet::default(),
            clustering: Clustering::new(vec![], vec![], vec![]),
            assignment: Arc::default(),
            epoch: 0,
            age_epoch: 0,
            stats: StreamStats::default(),
            scratch: CommitScratch::default(),
            recorder: dpc_obs::noop(),
            sink: None,
        };
        // The seeding pass is epoch 0, not a streamed delta.
        engine.recluster()?;
        engine.epoch = 0;
        engine.stats.epochs = 0;
        Ok(engine)
    }

    /// Number of points currently in the window.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// The current clustering epoch (0 right after seeding).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutation version of the underlying dataset: monotonically
    /// increasing, bumped by every applied point mutation and by nothing
    /// else — committing an empty [`EpochPlan`] (or `advance(&[], 0)`)
    /// leaves it unchanged.
    ///
    /// ```
    /// use dpc_core::naive_reference::NaiveReferenceIndex;
    /// use dpc_core::{Dataset, Point};
    /// use dpc_stream::{StreamParams, StreamingDpc};
    ///
    /// let seed = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 1.0)]);
    /// let mut engine =
    ///     StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
    /// let v0 = engine.version();
    /// engine.advance(&[], 0).unwrap(); // empty epoch: a no-op
    /// assert_eq!(engine.version(), v0);
    /// engine.insert(Point::new(2.0, 2.0)).unwrap();
    /// assert!(engine.version() > v0);
    /// ```
    pub fn version(&self) -> u64 {
        self.index.dataset().version()
    }

    /// The underlying index (and through it the current dataset).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The streaming parameters.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    /// Maintained local densities, indexed by dense [`PointId`].
    pub fn rho(&self) -> &[Rho] {
        &self.rho
    }

    /// Maintained δ/µ, indexed by dense [`PointId`].
    pub fn deltas(&self) -> &DeltaResult {
        &self.deltas
    }

    /// The clustering of the current epoch.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Cumulative maintenance counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The engine's observability sink (the shared no-op recorder by
    /// default).
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// Attaches an observability sink, effective from the next committed
    /// epoch. Every epoch then emits phase spans (`stream.phase.*` nested
    /// under `stream.epoch`), the `stream.delta.*` sub-spans of the δ
    /// repair, maintenance counters/histograms and per-query telemetry.
    ///
    /// Recording never changes results: ρ, δ, µ and labels are bit-identical
    /// whatever the recorder (the equivalence proptests pin this down).
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// Builder-style [`set_recorder`](Self::set_recorder).
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// Attaches a snapshot publication sink, effective from the next
    /// committed epoch: every successfully committed non-empty epoch then
    /// freezes an [`EpochSnapshot`] (after re-clustering, under a
    /// `stream.phase.publish` span) and hands it to the sink. Committing an
    /// empty plan publishes nothing — the state did not change. The sink
    /// never affects results; it only observes them.
    pub fn set_snapshot_sink(&mut self, sink: Arc<dyn SnapshotSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the snapshot sink, if any.
    pub fn clear_snapshot_sink(&mut self) {
        self.sink = None;
    }

    /// Freezes the engine's *current* state as an [`EpochSnapshot`] with an
    /// empty delta — the form a serving layer publishes at attach time,
    /// before any epoch has been committed through the sink.
    pub fn snapshot(&self) -> EpochSnapshot {
        self.snapshot_with_delta(ClusterDelta::empty(
            self.epoch,
            self.clustering.num_clusters(),
        ))
    }

    /// Freezes the engine's current state, attaching `delta` as the epoch's
    /// advancing delta. The assignment is shared, not copied.
    fn snapshot_with_delta(&self, delta: ClusterDelta) -> EpochSnapshot {
        let handles: Vec<Handle> = (0..self.rho.len())
            .map(|p| self.handles.handle_at(p))
            .collect();
        EpochSnapshot::capture(
            self.index.dataset(),
            &self.rho,
            &self.deltas,
            &self.clustering,
            handles,
            Arc::clone(&self.assignment),
            delta,
        )
    }

    /// The stable handle of the point at dense id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn handle_at(&self, id: PointId) -> Handle {
        self.handles.handle_at(id)
    }

    /// The dense id currently behind a handle (`None` once evicted).
    pub fn dense_of(&self, handle: Handle) -> Option<PointId> {
        self.handles.dense_of(handle)
    }

    /// The coordinates behind a handle (`None` once evicted).
    pub fn point_of(&self, handle: Handle) -> Option<Point> {
        self.dense_of(handle)
            .map(|id| self.index.dataset().point(id))
    }

    /// The oldest live handle (the next sliding-window eviction victim).
    pub fn oldest(&self) -> Option<Handle> {
        self.handles.oldest()
    }

    /// All live handles in ascending (arrival) order.
    pub fn live_handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.handles.live()
    }

    /// Inserts a point — an epoch of one update. Maintains ρ/δ/µ,
    /// re-clusters, and reports what changed.
    ///
    /// # Errors and partial progress
    ///
    /// A rule that cannot cluster the new window for its size alone —
    /// [`TopKGamma`](dpc_core::CenterSelection::TopKGamma) with `k` above a
    /// non-empty post-epoch window — is rejected with
    /// [`TooManyCenters`](DpcError::TooManyCenters) before anything is
    /// applied, and the window is untouched. A rule that fails on the data
    /// (a `Threshold` no point satisfies) shows only after the window
    /// mutation and the density maintenance: the point stays **inserted**
    /// and ρ/δ/µ exact — only [`clustering`](Self::clustering) still
    /// describes the previous epoch. The new point's handle is then
    /// reachable via [`live_handles`](Self::live_handles) (it is the
    /// largest). Do not retry the mutation after such an error; fix the
    /// selection rule instead (the adaptive default,
    /// [`GammaGap`](dpc_core::CenterSelection::GammaGap), cannot fail on a
    /// non-empty window).
    pub fn insert(&mut self, p: Point) -> Result<(Handle, ClusterDelta)> {
        let mut plan = EpochPlan::new();
        plan.insert(p);
        let (handles, delta) = self.commit(&plan)?;
        Ok((handles[0], delta))
    }

    /// Evicts a point by handle — an epoch of one update. Maintains ρ/δ/µ,
    /// re-clusters, and reports what changed.
    ///
    /// # Errors and partial progress
    ///
    /// Same contract as [`insert`](Self::insert): an eviction that would
    /// leave fewer points than `TopKGamma`'s `k` is rejected with the window
    /// untouched; if the clustering stage fails on the data, the point
    /// **has been evicted** and the density state is exact; only the stored
    /// clustering is stale. Do not retry the eviction.
    pub fn remove(&mut self, handle: Handle) -> Result<ClusterDelta> {
        let mut plan = EpochPlan::new();
        plan.remove(handle);
        let (_, delta) = self.commit(&plan)?;
        Ok(delta)
    }

    /// Slides the window: evicts the `evict_count` oldest points (clamped to
    /// the window size), inserts `batch_in`, then runs **one** clustering
    /// epoch covering the whole batch. Returns the handles of the inserted
    /// points and the epoch's delta.
    ///
    /// An empty advance (`batch_in` empty, `evict_count` 0) is a complete
    /// no-op: no epoch is counted, [`version`](Self::version) is unchanged,
    /// and the returned delta is empty.
    ///
    /// # Errors and partial progress
    ///
    /// The batch is validated before anything is applied, so an invalid
    /// point (NaN/∞ coordinates), or a slide that leaves a non-empty window
    /// smaller than `TopKGamma`'s `k`, rejects the whole advance with the
    /// window untouched. If the *clustering* stage fails on the data, the
    /// contract of [`insert`](Self::insert) applies: every update has been
    /// applied and ρ/δ/µ are exact, only the stored clustering is stale.
    pub fn advance(
        &mut self,
        batch_in: &[Point],
        evict_count: usize,
    ) -> Result<(Vec<Handle>, ClusterDelta)> {
        let mut plan = EpochPlan::new();
        for victim in self.handles.live().take(evict_count.min(self.len())) {
            plan.remove(victim);
        }
        for &p in batch_in {
            plan.insert(p);
        }
        self.commit(&plan)
    }

    /// Advances time without moving the window: one **pure decay epoch**.
    ///
    /// Every pair's density contribution ages by one factor of λ
    /// ([`StreamParams::decay`]), δ/µ are re-ranked in full through the
    /// index's batch δ-query — λ-scaling can collapse two neighbouring f64
    /// densities onto the same float and flip an id tie-break, so the whole
    /// order is re-derived — and one clustering epoch runs. The window
    /// itself is untouched: **no ε-queries are issued**
    /// ([`StreamStats::eps_queries`] is unchanged; the regression suite pins
    /// this down) and [`version`](Self::version) does not move.
    ///
    /// With decay disabled (λ = 1.0) or an empty window a tick is a
    /// complete no-op: no epoch is counted and the returned delta is empty.
    ///
    /// # Errors and partial progress
    ///
    /// Same contract as [`insert`](Self::insert): only the clustering stage
    /// can fail, leaving the aged density state exact and the stored
    /// clustering stale.
    pub fn tick(&mut self) -> Result<ClusterDelta> {
        let lambda = self.params.decay;
        if lambda == 1.0 || self.is_empty() {
            return Ok(ClusterDelta::empty(
                self.epoch,
                self.clustering.num_clusters(),
            ));
        }
        let rec = self.recorder.clone();
        let _epoch_span = span(&rec, "stream.epoch");
        let started = Instant::now();
        {
            let _decay_span = span(&rec, "stream.phase.decay");
            self.age_epoch += 1;
            for r in &mut self.rho {
                *r *= lambda;
            }
            self.rerank(&rec);
            self.peak = DensityOrder::new(&self.rho).global_peak();
        }
        let micros = started.elapsed().as_micros() as u64;
        self.stats.decay_epochs += 1;
        self.stats.last_epoch_micros = micros;
        self.stats.last_epoch_mode = Some(EpochMode::Decay);
        if rec.enabled() {
            rec.counter("stream.epochs", 1);
            rec.counter("stream.epochs.decay", 1);
            rec.record("stream.decay.rerank_points", self.rho.len() as u64);
            rec.record("stream.epoch.maintenance_us", micros);
        }
        self.recluster_and_publish(&rec)
    }

    /// Applies a whole [`EpochPlan`] as **one** clustering epoch — the
    /// engine's single maintenance pipeline (see the [module docs](self);
    /// `insert`, `remove` and `advance` are thin wrappers over it).
    ///
    /// Returns one [`Handle`] per planned insert, in plan order (handles of
    /// ephemeral points — inserted and expired by the same plan — are
    /// already dead), and the epoch's [`ClusterDelta`]. Committing an empty
    /// plan is a no-op: no mutation, no epoch, an empty delta.
    ///
    /// # Errors and partial progress
    ///
    /// The plan is validated *before* any mutation (finite coordinates, live
    /// un-duplicated handles, tokens belonging to this plan, and a
    /// `TopKGamma` `k` no larger than a non-empty post-plan window), so a
    /// rejected plan leaves the engine untouched. After validation the only
    /// failable stage is clustering; see [`insert`](Self::insert) for that
    /// contract.
    pub fn commit(&mut self, plan: &EpochPlan) -> Result<(Vec<Handle>, ClusterDelta)> {
        if plan.is_empty() {
            let delta = ClusterDelta::empty(self.epoch, self.clustering.num_clusters());
            return Ok((Vec::new(), delta));
        }
        // One guard for the whole epoch: created before the phase spans and
        // dropped after re-clustering, so phases nest under it in a trace.
        let rec = self.recorder.clone();
        let _epoch_span = span(&rec, "stream.epoch");
        {
            let _validate_span = span(&rec, "stream.phase.validate");
            self.validate_plan(plan)?;
        }

        // The scratch buffers move out for the duration of the epoch so the
        // maintenance can borrow them field-by-field alongside `self`; they
        // are put back (grown, never shrunk) whatever the outcome.
        let mut scratch = std::mem::take(&mut self.scratch);
        let started = Instant::now();
        let outcome = self.maintain(plan, &mut scratch);
        self.scratch = scratch;
        let outcome = outcome?;
        let micros = started.elapsed().as_micros() as u64;

        match outcome.mode {
            EpochMode::Incremental => self.stats.incremental_epochs += 1,
            EpochMode::Fallback => self.stats.fallback_epochs += 1,
            EpochMode::Decay => unreachable!("decay epochs come from tick(), not commit()"),
        }
        self.stats.invalidated_points += outcome.invalidated as u64;
        self.stats.last_epoch_micros = micros;
        self.stats.last_epoch_mode = Some(outcome.mode);

        if rec.enabled() {
            rec.counter("stream.epochs", 1);
            rec.counter("stream.updates", plan.ops.len() as u64);
            rec.counter(&format!("stream.epochs.{}", outcome.mode.name()), 1);
            rec.record("stream.invalidated", outcome.invalidated as u64);
            rec.record("stream.epoch.maintenance_us", micros);
            // Index maintenance triggers (scapegoat/dead-fraction rebuilds,
            // grid re-buckets) as gauges: cumulative values, plottable as
            // counter tracks.
            let index_name = self.index.name();
            for (counter, value) in self.index.maintenance_counters() {
                rec.gauge(&format!("index.{index_name}.{counter}"), value as f64);
            }
        }

        let delta = self.recluster_and_publish(&rec)?;
        Ok((outcome.planned_handles, delta))
    }

    /// The tail of every epoch, committed or ticked. Phase 5: one
    /// clustering epoch for the whole batch. Phase 6, with a sink attached:
    /// freeze and publish the epoch snapshot. This is the single-writer half
    /// of the serving layer: the snapshot is immutable from here on, so
    /// readers need no coordination with the next epoch's maintenance.
    fn recluster_and_publish(&mut self, rec: &SharedRecorder) -> Result<ClusterDelta> {
        let delta = {
            let _recluster_span = span(rec, "stream.phase.recluster");
            self.recluster()?
        };
        if let Some(sink) = &self.sink {
            let _publish_span = span(rec, "stream.phase.publish");
            sink.publish(Arc::new(self.snapshot_with_delta(delta.clone())));
        }
        Ok(delta)
    }

    /// Phase 1 — translates the plan into resolved-id index ops, mirroring
    /// every op in the handle map, the per-point arrays and the µ-forest so
    /// handle → id resolution tracks the mid-batch state. `scratch.owner`
    /// records, for each dense slot, whether it holds a survivor (and its
    /// pre-epoch id) or a point inserted this epoch. A removal orphans the
    /// removed point's children and renames the moved point's children, so
    /// µ ids stay current; the orphaned and the moved survivors are noted
    /// by pre-epoch id. The dataset itself is not mutated yet.
    fn apply_plan(&mut self, plan: &EpochPlan, scratch: &mut CommitScratch) -> Vec<Handle> {
        let n_old = self.rho.len();
        scratch.owner.clear();
        scratch.owner.extend((0..n_old).map(Origin::Old));
        scratch.index_ops.clear();
        scratch.removed_old_locs.clear();
        scratch.removed_old_births.clear();
        scratch.orphaned.clear();
        scratch.renamed.clear();
        scratch.links = 0;
        scratch.roots.clear();
        let mut planned_handles: Vec<Handle> = Vec::with_capacity(plan.insert_count());
        for op in &plan.ops {
            let handle = match *op {
                PlanOp::Insert(p, _) => {
                    scratch.index_ops.push(IndexOp::Insert(p));
                    planned_handles.push(self.handles.push());
                    scratch.owner.push(Origin::New(planned_handles.len() - 1));
                    self.rho.push(0.0);
                    self.births.push(self.age_epoch);
                    self.deltas.delta.push(f64::INFINITY);
                    self.deltas.mu.push(None);
                    self.forest.push();
                    self.centre_of.push(None);
                    continue;
                }
                PlanOp::Remove(h) => h,
                PlanOp::RemovePlanned(k) => planned_handles[k],
            };
            let id = self
                .handles
                .dense_of(handle)
                .expect("validated: handle is live at this op");
            if let Origin::Old(old_id) = scratch.owner[id] {
                // The dataset is still unmutated here, so the pre-epoch id
                // addresses the expiring coordinates.
                scratch
                    .removed_old_locs
                    .push(self.index.dataset().point(old_id));
                scratch.removed_old_births.push(self.births[id]);
            }
            let last = self.rho.len() - 1;
            if let (true, Origin::Old(moved)) = (last != id, scratch.owner[last]) {
                scratch.renamed.push(moved);
            }
            let (owner, orphaned) = (&scratch.owner, &mut scratch.orphaned);
            scratch.links += self.forest.swap_remove(id, &mut self.deltas.mu, |c| {
                if let Origin::Old(o) = owner[c] {
                    orphaned.push(o);
                }
            });
            scratch.index_ops.push(IndexOp::Remove(id));
            self.evicted.push(self.handles.swap_remove(id));
            scratch.owner.swap_remove(id);
            self.rho.swap_remove(id);
            self.births.swap_remove(id);
            self.centre_of.swap_remove(id);
            self.deltas.delta.swap_remove(id);
        }
        planned_handles
    }

    /// Phases 2–4 of the pipeline: index mutation, ρ repair, and the
    /// bounded δ/µ repair with its fallback. Re-clustering and the stats
    /// bookkeeping happen in [`commit`](Self::commit).
    fn maintain(&mut self, plan: &EpochPlan, scratch: &mut CommitScratch) -> Result<EpochOutcome> {
        let rec = self.recorder.clone();
        let apply_span = span(&rec, "stream.phase.apply");
        let n_old = self.rho.len();
        // One tick of the decay clock per committed epoch: points inserted
        // below are born on it, and every surviving pair ages by one λ in
        // the pre-pass of the ρ repair.
        self.age_epoch += 1;
        let planned_handles = self.apply_plan(plan, scratch);

        // Phase 2 — the ops in submission order, one insert or remove each.
        // Validation guarantees the ops themselves cannot fail.
        for op in &scratch.index_ops {
            match *op {
                IndexOp::Insert(p) => self.index.insert(p).map(drop),
                IndexOp::Remove(id) => self.index.remove(id).map(drop),
            }?;
        }
        debug_assert_eq!(self.index.len(), self.rho.len());
        debug_assert_eq!(self.handles.len(), self.rho.len());
        self.stats.updates += scratch.index_ops.len() as u64;
        drop(apply_span);

        let n = self.rho.len();
        if n == 0 {
            self.peak = None;
            return Ok(EpochOutcome {
                planned_handles,
                mode: EpochMode::Incremental,
                invalidated: 0,
            });
        }

        // Phase 3 — ρ repair against the final index. `final_of_old` maps a
        // pre-epoch id to its final slot (None = expired); `visited` is the
        // dedup bitmap building the affected union U.
        let rho_span = span(&rec, "stream.phase.rho_repair");
        let dc = self.params.dpc.dc;
        scratch.inserted_final.clear();
        scratch.final_of_old.clear();
        scratch.final_of_old.resize(n_old, None);
        for (i, origin) in scratch.owner.iter().enumerate() {
            match *origin {
                Origin::Old(o) => scratch.final_of_old[o] = Some(i),
                Origin::New(_) => scratch.inserted_final.push(i),
            }
        }
        scratch.visited.clear();
        scratch.visited.resize(n, false);
        scratch.union.clear();
        // Called before q's ρ changes, so U records the ρ each member had
        // when the repair first reached it.
        let touch = |q: PointId, rho_q: Rho, visited: &mut Vec<bool>, union: &mut Vec<_>| {
            if !visited[q] {
                visited[q] = true;
                union.push((q, rho_q));
            }
        };
        let kernel = self.params.dpc.kernel;
        let lambda = self.params.decay;
        // Decay pre-pass: every surviving pair ages by one λ before the
        // epoch's own mutations land. Inserted placeholders are zero and
        // unaffected; their fresh weights enter undecayed below. With decay
        // disabled the pass is skipped — ×1.0 would be a bit-exact no-op,
        // but an O(n) one.
        if lambda != 1.0 {
            for r in &mut self.rho {
                *r *= lambda;
            }
        }
        // Each expired pre-epoch location stops contributing to the ρ of
        // the survivors around it: the pair (r, q) entered at weight w(d)
        // when its younger member was born and has aged by λ every epoch
        // since — including this one's pre-pass — so the subtraction is the
        // aged weight λ^(age_epoch − max(birth_r, birth_q))·w(d). With the
        // cutoff kernel and no decay that is exactly 1.0, the pre-PR
        // integer decrement. Inserted points are skipped: their ρ is summed
        // fresh below, against the final window.
        for (&loc, &birth) in scratch
            .removed_old_locs
            .iter()
            .zip(&scratch.removed_old_births)
        {
            self.stats.eps_queries += 1;
            for q in self.index.eps_neighbors(loc, dc)? {
                if matches!(scratch.owner[q], Origin::Old(_)) {
                    let d2 = self.index.dataset().point(q).distance_squared(&loc);
                    let age = self.age_epoch - birth.max(self.births[q]);
                    touch(q, self.rho[q], &mut scratch.visited, &mut scratch.union);
                    self.rho[q] -= aged_weight(kernel, d2, lambda, age);
                }
            }
        }
        // Each surviving insert sums its final neighbourhood's kernel
        // weights in ascending id order — the canonical summation order of
        // `weighted_rho_scan` (the ε-query returns ascending ids and
        // includes the point itself at distance 0, skipped here) — and
        // raises the ρ of the survivors in it by the same fresh, undecayed
        // pair weight; inserted neighbours are covered by their own fresh
        // sums.
        for &x in &scratch.inserted_final {
            let center = self.index.dataset().point(x);
            let neighborhood = self.index.eps_neighbors(center, dc)?;
            self.stats.eps_queries += 1;
            let mut mass = 0.0f64;
            for q in neighborhood {
                if q == x {
                    continue;
                }
                let w =
                    kernel.weight_from_sq(self.index.dataset().point(q).distance_squared(&center));
                mass += w;
                if matches!(scratch.owner[q], Origin::Old(_)) {
                    touch(q, self.rho[q], &mut scratch.visited, &mut scratch.union);
                    self.rho[q] += w;
                }
            }
            self.rho[x] = mass;
        }
        self.stats.affected_points += scratch.union.len() as u64;
        rec.record("stream.affected_union", scratch.union.len() as u64);
        rec.counter(
            "stream.kernel.eps_queries",
            (scratch.removed_old_locs.len() + scratch.inserted_final.len()) as u64,
        );
        drop(rho_span);

        // Phase 4 — build the invalidation set F, then repair δ/µ once for
        // the whole epoch.
        let delta_span = span(&rec, "stream.phase.delta_repair");
        let invalidate_span = span(&rec, "stream.delta.invalidate");
        let order = DensityOrder::new(&self.rho);
        // The survivors whose µ expired and those a swap-remove renamed, by
        // final id.
        let final_of_old = &scratch.final_of_old;
        for noted in [&mut scratch.orphaned, &mut scratch.renamed] {
            noted.retain_mut(|o| final_of_old[*o].map(|p| *o = p).is_some());
        }
        scratch.renamed.sort_unstable();
        scratch.renamed.dedup();
        let old_peak = self.peak.and_then(|pk| final_of_old[pk]);

        // A member of U whose ρ fell gained, in its denser set, the
        // unchanged points whose ρ lies between its new and its old value;
        // those are never candidates, so only a recompute finds them. One
        // whose ρ rose or stayed lost denser points but gained only
        // candidates, so it keeps its minimum while its µ stays denser.
        scratch.invalidated.clear();
        scratch.invalidated.extend(
            scratch
                .union
                .iter()
                .filter(|&&(q, before)| self.rho[q] < before)
                .map(|&(q, _)| q),
        );
        let rho_fell = scratch.invalidated.len();
        // Only ρ (the members of U) and ids (the inserted and renamed
        // points) move a point in the density order, so the old peak stays
        // denser than every other point unless it expired, its ρ fell, or a
        // decay pass scaled every ρ.
        let new_peak = match old_peak {
            Some(pk) if lambda == 1.0 && !scratch.invalidated.contains(&pk) => Some(
                scratch
                    .union
                    .iter()
                    .map(|&(q, _)| q)
                    .chain(scratch.inserted_final.iter().copied())
                    .chain(scratch.renamed.iter().copied())
                    .fold(
                        pk,
                        |best, q| if order.is_denser(q, best) { q } else { best },
                    ),
            ),
            _ => order.global_peak(),
        };
        scratch
            .invalidated
            .extend_from_slice(&scratch.inserted_final);
        scratch.invalidated.extend_from_slice(&scratch.orphaned);
        // Their labels are unknown or came through the expired µ.
        scratch.roots.extend_from_slice(&scratch.inserted_final);
        scratch.roots.extend_from_slice(&scratch.orphaned);
        // The candidates: the points that can have entered a denser set.
        // The inserted and renamed points can enter any, a member of U
        // whose ρ rose (added in the fold below) those of the points whose
        // ρ it crossed, and one whose ρ fell or stayed none.
        scratch.candidates.clear();
        scratch
            .candidates
            .extend_from_slice(&scratch.inserted_final);
        scratch.candidates.extend_from_slice(&scratch.renamed);
        // Invalidate the points whose µ is no longer denser than them. The
        // order between p and µ(p) can only have flipped if p's ρ rose or
        // stayed while it was touched, p was renamed to a smaller id (it now
        // wins ties it lost), or µ's ρ fell. A p whose ρ fell, and a µ whose
        // ρ rose or that was renamed, only widened the gap, and µ stays the
        // `(fl(d²), id)` minimum. The forest reaches those links: the
        // members of U whose ρ did not fall, the renamed points, and the
        // children of the members whose ρ fell.
        let mut links = scratch.links;
        scratch.overtaken.clear();
        for &(u, before) in &scratch.union {
            if self.rho[u] < before {
                for c in self.forest.children(u) {
                    links += 1;
                    if !order.is_denser(u, c) {
                        scratch.overtaken.push(c);
                    }
                }
            } else {
                links += 1;
                if self.deltas.mu[u].is_some_and(|m| !order.is_denser(m, u)) {
                    scratch.overtaken.push(u);
                }
            }
        }
        for &r in &scratch.renamed {
            links += 1;
            if self.deltas.mu[r].is_some_and(|m| !order.is_denser(m, r)) {
                scratch.overtaken.push(r);
            }
        }
        scratch.overtaken.sort_unstable();
        scratch.overtaken.dedup();
        let mu_overtaken = scratch.overtaken.len();
        scratch.invalidated.extend_from_slice(&scratch.overtaken);
        let peaks = [old_peak, new_peak];
        scratch.invalidated.extend(peaks.into_iter().flatten());
        // Why F is as large as it is: each cause's contributions, counted
        // before the dedup below (a point can have several causes).
        if rec.enabled() {
            let causes = [
                ("rho_fell", rho_fell),
                ("inserted", scratch.inserted_final.len()),
                ("mu_expired", scratch.orphaned.len()),
                ("mu_overtaken", mu_overtaken),
                ("peak", peaks.iter().flatten().count()),
            ];
            for (cause, count) in causes {
                rec.counter(&format!("stream.invalidated.{cause}"), count as u64);
            }
            rec.counter("stream.invalidate.visited", links as u64);
        }
        scratch.invalidated.sort_unstable();
        scratch.invalidated.dedup();
        drop(invalidate_span);

        // A decayed epoch rescaled *every* density in the pre-pass: λ-scaling
        // is order-preserving in exact arithmetic, but two neighbouring f64
        // densities can collapse onto the same float and hand the comparison
        // to the id tie-break — so no point's (δ, µ) minimum is trustworthy
        // and the epoch always re-ranks in full.
        let mode = if lambda != 1.0 || self.needs_fallback(scratch.invalidated.len(), n) {
            self.rerank(&rec);
            EpochMode::Fallback
        } else {
            let fold_span = span(&rec, "stream.delta.fold");
            scratch.skip.clear();
            scratch.skip.resize(n, false);
            for &f in &scratch.invalidated {
                scratch.skip[f] = true;
            }
            let inserted_or_renamed = scratch.candidates.len();
            scratch.candidates.extend(
                scratch
                    .union
                    .iter()
                    .filter(|&&(c, before)| self.rho[c] > before)
                    .map(|&(c, _)| c),
            );
            scratch.moved.clear();
            let fold = candidate_pass(
                self.index.dataset(),
                &order,
                &scratch.candidates,
                dc / 2.0,
                &scratch.skip,
                &mut self.deltas,
                self.params.dpc.exec,
                &mut scratch.moved,
            );
            for &(p, before) in &scratch.moved {
                self.forest.relink(p, before, self.deltas.mu[p]);
                scratch.roots.push(p);
            }
            // Why the fold cost what it did: its candidates by kind, the U
            // members it dropped, the points its box test passed and the
            // (point, candidate) pairs its cell filter passed.
            if rec.enabled() {
                let risen = scratch.candidates.len() - inserted_or_renamed;
                let counts = [
                    ("entrants.inserted", scratch.inserted_final.len() as u64),
                    ("entrants.renamed", scratch.renamed.len() as u64),
                    ("entrants.risen", risen as u64),
                    ("unrisen", (scratch.union.len() - risen) as u64),
                    ("scanned", fold.scanned),
                    ("pairs", fold.pairs),
                ];
                for (name, count) in counts {
                    rec.counter(&format!("stream.fold.{name}"), count);
                }
            }
            drop(fold_span);
            let _targets_span = span(&rec, "stream.delta.targets");
            let query = self.params.dpc.query().with_recorder(&*rec);
            let repaired = self
                .index
                .delta_targets(&query, &self.rho, &scratch.invalidated)
                .expect(QUERY_VALIDATED);
            for (k, &p) in scratch.invalidated.iter().enumerate() {
                self.deltas.delta[p] = repaired.delta[k];
                let mu = repaired.mu[k];
                if mu != self.deltas.mu[p] {
                    self.forest.relink(p, self.deltas.mu[p], mu);
                    self.deltas.mu[p] = mu;
                    scratch.roots.push(p);
                }
            }
            EpochMode::Incremental
        };
        drop(delta_span);
        self.peak = new_peak;
        Ok(EpochOutcome {
            planned_handles,
            mode,
            invalidated: scratch.invalidated.len(),
        })
    }

    /// Rejects a plan that could fail mid-application: non-finite insert
    /// coordinates, dead/duplicated handles, or tokens from another plan;
    /// and one whose window the centre rule cannot cluster for its size
    /// alone: `TopKGamma { k }` with `k` above a non-empty post-plan window.
    /// Runs before any mutation, so a rejected plan changes nothing.
    fn validate_plan(&self, plan: &EpochPlan) -> Result<()> {
        let mut removed: std::collections::HashSet<Handle> = std::collections::HashSet::new();
        let mut inserts_seen = 0usize;
        let mut planned_removed = vec![false; plan.insert_count()];
        for (k, op) in plan.ops.iter().enumerate() {
            match *op {
                PlanOp::Insert(p, _) => {
                    if !(p.x.is_finite() && p.y.is_finite()) {
                        return Err(DpcError::InvalidPoint {
                            id: k,
                            x: p.x,
                            y: p.y,
                        });
                    }
                    inserts_seen += 1;
                }
                PlanOp::Remove(handle) => {
                    if self.handles.dense_of(handle).is_none() {
                        return Err(DpcError::invalid_parameter(
                            "handle",
                            format!("point {handle} is not (or no longer) in the window"),
                        ));
                    }
                    if !removed.insert(handle) {
                        return Err(DpcError::invalid_parameter(
                            "handle",
                            format!("point {handle} is removed twice by the same plan"),
                        ));
                    }
                }
                PlanOp::RemovePlanned(i) => {
                    if i >= inserts_seen {
                        return Err(DpcError::invalid_parameter(
                            "token",
                            format!(
                                "planned-insert token {i} does not name an earlier \
                                 insert of this plan (did it come from another plan?)"
                            ),
                        ));
                    }
                    if planned_removed[i] {
                        return Err(DpcError::invalid_parameter(
                            "token",
                            format!("planned insert {i} is removed twice by the same plan"),
                        ));
                    }
                    planned_removed[i] = true;
                }
            }
        }
        let planned_kept = planned_removed.iter().filter(|&&gone| !gone).count();
        let available = self.len() - removed.len() + planned_kept;
        match self.params.dpc.centers {
            CenterSelection::TopKGamma { k } if available > 0 && k > available => {
                Err(DpcError::TooManyCenters {
                    requested: k,
                    available,
                })
            }
            _ => Ok(()),
        }
    }

    /// Re-ranks δ/µ of every point in full through the index's batch
    /// δ-query — the pruned search of Lemmas 1–2 on the trees — reporting
    /// the query's telemetry to `rec` under a `stream.delta.rerank` span.
    /// Every µ may have moved, so the forest is rebuilt and the next
    /// recluster relabels every point.
    fn rerank(&mut self, rec: &SharedRecorder) {
        let _rerank_span = span(rec, "stream.delta.rerank");
        let query = self.params.dpc.query().with_recorder(&**rec);
        self.deltas = self.index.delta(&query, &self.rho).expect(QUERY_VALIDATED);
        self.forest.rebuild(&self.deltas.mu);
        self.relabel_all = true;
    }

    /// Whether an invalidation set of `invalidated` points (out of `n`)
    /// triggers the full-recompute fallback.
    fn needs_fallback(&self, invalidated: usize, n: usize) -> bool {
        invalidated as f64 > self.params.max_affected_fraction * n as f64
    }

    /// Re-runs centre selection on the maintained `(ρ, δ, µ)`, relabels the
    /// points whose label can have changed, and builds the epoch's
    /// [`ClusterDelta`] from its label changes, under the
    /// `stream.recluster.select`, `.assign` and `.diff` spans.
    ///
    /// On error (e.g. a centre-selection rule that no point satisfies this
    /// epoch) the density state remains exact, but the stored clustering and
    /// assignment still describe the last successful epoch. Handles are
    /// stable, so the next successful epoch relabels every point and diffs
    /// against that one.
    fn recluster(&mut self) -> Result<ClusterDelta> {
        let rec = self.recorder.clone();
        let centers = {
            let _select_span = span(&rec, "stream.recluster.select");
            let selected = self.select(&rec);
            selected.inspect_err(|_| self.relabel_all = true)?
        };

        let assign_span = span(&rec, "stream.recluster.assign");
        // The centres' handles in id order, and each handle's rank label.
        let ranked: Vec<Handle> = centers.iter().map(|&c| self.handles.handle_at(c)).collect();
        let mut ranks: Vec<(Handle, ClusterId)> = ranked.iter().copied().zip(0..).collect();
        ranks.sort_unstable();
        let rank_of = |h: Option<Handle>| {
            let h = h.expect("every point is labelled");
            ranks[ranks
                .binary_search_by_key(&h, |&(c, _)| c)
                .expect("labels name centres")]
            .1
        };
        let full = std::mem::take(&mut self.relabel_all);
        let mut scratch = std::mem::take(&mut self.scratch);
        if !full {
            // A centre that came or went relabels its subtree.
            let held = |centres: &[(Handle, ClusterId)], h| {
                centres.binary_search_by_key(&h, |&(c, _)| c).is_ok()
            };
            for (&c, &h) in centers.iter().zip(&ranked) {
                if !held(&self.centres, h) {
                    scratch.roots.push(c);
                }
            }
            for &(h, _) in &self.centres {
                if !held(&ranks, h) {
                    scratch.roots.extend(self.handles.dense_of(h));
                }
            }
            // A point without µ that is no centre takes its nearest
            // centre's label, which any change of centres can move.
            scratch
                .roots
                .extend(self.peak.filter(|pk| centers.binary_search(pk).is_err()));
        }
        self.relabel(&centers, &ranked, full, &mut scratch);
        let relabelled = &scratch.relabelled;
        rec.counter("stream.recluster.relabelled", relabelled.len() as u64);

        // The rank labels follow the epoch's swap-removes and change only
        // where a label did, unless the centres or their id order changed.
        let same_ranks = !full && ranked == self.ranked;
        let (ops, centre_of) = (&scratch.index_ops, &self.centre_of);
        let halo = self.params.dpc.assignment.compute_halo;
        let (dataset, rho, dc) = (self.index.dataset(), &self.rho, self.params.dpc.dc);
        self.clustering.edit(|labels, centres, flags| {
            if same_ranks {
                for op in ops {
                    match *op {
                        IndexOp::Insert(_) => {
                            labels.push(0);
                            flags.push(false);
                        }
                        IndexOp::Remove(id) => {
                            labels.swap_remove(id);
                            flags.swap_remove(id);
                        }
                    }
                }
                for &(p, _) in relabelled {
                    labels[p] = rank_of(centre_of[p]);
                }
            } else {
                labels.clear();
                labels.extend(centre_of.iter().map(|&h| rank_of(h)));
                flags.clear();
                flags.resize(labels.len(), false);
            }
            centres.clone_from(&centers);
            if halo {
                *flags = compute_halo(dataset, &DensityOrder::new(rho), labels, centers.len(), dc);
            }
        });

        // The epoch's label changes: the relabelled and inserted points,
        // and every point evicted since the last successful epoch that it
        // labelled, in handle order. They update the shared assignment in
        // place.
        let assignment = Arc::make_mut(&mut self.assignment);
        self.evicted.sort_unstable();
        scratch.evictions.clear();
        let mut slot = 0;
        for &h in &self.evicted {
            slot = seek(assignment, slot, h);
            if assignment.get(slot).is_some_and(|&(p, _)| p == h) {
                scratch
                    .evictions
                    .push(assignment.remove(slot).expect("slot in range"));
            }
        }
        self.evicted.clear();
        let keys = &mut scratch.by_handle;
        keys.clear();
        keys.extend(
            relabelled
                .iter()
                .zip(0..)
                .map(|(&(p, _), i)| (self.handles.handle_at(p), i)),
        );
        keys.extend(
            scratch
                .evictions
                .iter()
                .zip(relabelled.len() as u32..)
                .map(|(&(h, _), i)| (h, i)),
        );
        keys.sort_unstable();
        let changed: Vec<LabelChange> = keys
            .iter()
            .map(|&(handle, i)| match relabelled.get(i as usize) {
                Some(&(p, old)) => LabelChange {
                    handle,
                    old,
                    new: self.centre_of[p],
                },
                None => LabelChange {
                    handle,
                    old: Some(scratch.evictions[i as usize - relabelled.len()].1),
                    new: None,
                },
            })
            .collect();
        let mut slot = 0;
        for change in &changed {
            match (change.old, change.new) {
                (Some(_), Some(c)) => {
                    slot = seek(assignment, slot, change.handle);
                    assignment[slot].1 = c;
                }
                // Inserted handles are the largest yet.
                (None, Some(c)) => assignment.push_back((change.handle, c)),
                _ => {}
            }
        }
        self.scratch = scratch;
        drop(assign_span);

        self.epoch += 1;
        self.stats.epochs += 1;
        let delta = {
            let _diff_span = span(&rec, "stream.recluster.diff");
            let sizes = centre_sizes(&self.centres, &ranks, &changed);
            let delta = diff(self.epoch, &self.centres, &sizes, changed);
            self.centres = sizes;
            delta
        };
        self.ranked = ranked;
        Ok(delta)
    }

    /// Selects the centres of the maintained `(ρ, δ)`, as
    /// [`DecisionGraph::select_centers`] would over the window.
    /// `TopKGamma` and `GammaGap` rank the candidates kept across epochs:
    /// an incremental epoch carries them over its renames and keys, besides
    /// them, only the points whose ρ or δ changed, the members of U and F
    /// and the points whose µ the fold moved. F holds the inserted points,
    /// and a renamed point's key is unchanged. An epoch that relabels every
    /// point scans the window instead. `Threshold` and `Explicit` run
    /// their one pass.
    fn select(&mut self, rec: &SharedRecorder) -> Result<Vec<PointId>> {
        let rule = &self.params.dpc.centers;
        if self.rho.is_empty() {
            self.top_set.clear();
            return Ok(Vec::new());
        }
        if !matches!(
            rule,
            CenterSelection::TopKGamma { .. } | CenterSelection::GammaGap { .. }
        ) {
            return DecisionGraph::new(self.rho.clone(), &self.deltas)
                .and_then(|graph| graph.select_centers(rule));
        }
        let (rho, deltas, scratch) = (&self.rho, &self.deltas, &self.scratch);
        let (top_set, full) = (&mut self.top_set, self.relabel_all);
        let (mut keyed, mut scanned) = (0, false);
        let selected = select_centers(rho, &deltas.delta, rule, |m| {
            if full {
                top_set.clear();
            } else {
                let changed = (scratch.union.iter().map(|&(q, _)| q))
                    .chain(scratch.invalidated.iter().copied())
                    .chain(scratch.moved.iter().map(|&(p, _)| p));
                keyed = top_set.carry(&scratch.final_of_old, changed, rho, &deltas.delta);
            }
            let (best, scan) = top_set.best(m, rho, deltas);
            scanned = scan;
            best
        });
        if scanned {
            keyed += rho.len();
        }
        rec.counter("stream.select.keyed", keyed as u64);
        rec.counter("stream.select.rebuilds", u64::from(scanned));
        selected
    }

    /// Relabels the roots in `scratch.roots` and, under each root whose
    /// label changed, its subtree, and lists the relabelled points with
    /// their previous labels in `scratch.relabelled`. A point's label is its
    /// own handle if it is a centre, else the label of its µ, which is
    /// denser; a point without µ that is no centre takes its nearest
    /// centre's, as in [`dpc_core::assign_clusters`]. The roots are resolved
    /// densest first, so a root's µ is final when its turn comes, and a walk
    /// stops at centres and at points that already carry the new label:
    /// below them only other roots changed, and those are resolved in their
    /// turn. With `full`, every point is relabelled: the roots are the
    /// points without µ, and the walks cover the whole forest from the top.
    ///
    /// In a forest every point is reached at most once, so a walk that
    /// steps to more points than the window holds has met a cycle of
    /// corrupted links, and panics instead of looping.
    fn relabel(
        &mut self,
        centers: &[PointId],
        ranked: &[Handle],
        full: bool,
        scratch: &mut CommitScratch,
    ) {
        let (roots, walk) = (&mut scratch.roots, &mut scratch.walk);
        if full {
            roots.clear();
            roots.extend((0..self.rho.len()).filter(|&p| self.deltas.mu[p].is_none()));
        } else {
            let order = DensityOrder::new(&self.rho);
            roots.sort_by_cached_key(|&p| Reverse(order.key(p)));
            roots.dedup();
        }
        let is_centre = |p: PointId| centers.binary_search(&p).is_ok();
        scratch.relabelled.clear();
        let mut steps = 0;
        for &r in roots.iter() {
            let label = match self.deltas.mu[r] {
                _ if is_centre(r) => self.handles.handle_at(r),
                Some(m) => self.centre_of[m].expect("a denser point is labelled first"),
                None => ranked[nearest_center(self.index.dataset(), r, centers)],
            };
            walk.push((r, label));
            while let Some((p, label)) = walk.pop() {
                if self.centre_of[p] == Some(label) && !full {
                    continue;
                }
                if self.centre_of[p] != Some(label) {
                    scratch.relabelled.push((p, self.centre_of[p]));
                    self.centre_of[p] = Some(label);
                }
                for c in self.forest.children(p) {
                    steps += 1;
                    assert!(steps <= self.rho.len(), "{CORRUPTED}");
                    match is_centre(c) {
                        true if full => walk.push((c, self.handles.handle_at(c))),
                        true => {}
                        false => walk.push((c, label)),
                    }
                }
            }
        }
    }
}

/// `λ^age` with the exact no-decay fast path: with `lambda == 1.0` (or age
/// 0) the factor is *exactly* 1.0, so multiplying by it never perturbs a
/// weight — this is what keeps the cutoff/no-decay path bit-identical to
/// the pre-weighted integer counting.
pub fn decay_factor(lambda: f64, age: u64) -> f64 {
    if lambda == 1.0 || age == 0 {
        1.0
    } else {
        lambda.powi(age.min(i32::MAX as u64) as i32)
    }
}

/// The current contribution of a pair at squared distance `d2` whose weight
/// entered `age` epochs ago under per-epoch decay `lambda`:
/// `w(d²) · λ^age`.
///
/// This is the engine's **only** aging arithmetic — the replay oracle of
/// the kernel-equivalence suite calls the same function, so engine and
/// oracle round identically and can be compared for bit equality.
pub fn aged_weight(kernel: Kernel, d2: f64, lambda: f64, age: u64) -> f64 {
    kernel.weight_from_sq(d2) * decay_factor(lambda, age)
}

/// The first slot at or after `from` of `assignment` (ascending by point
/// handle) whose handle is not below `h`. The search gallops from `from`,
/// so a sweep over `c` ascending handles costs `O(c·log(n/c))`: a few
/// relabels cost a binary search each, a relabel of the whole window one
/// pass.
fn seek(assignment: &VecDeque<(Handle, Handle)>, from: usize, h: Handle) -> usize {
    let below = |slot: usize| slot < assignment.len() && assignment[slot].0 < h;
    let (mut lo, mut step) = (from, 1);
    while below(lo + step - 1) {
        lo += step;
        step *= 2;
    }
    let mut hi = (lo + step - 1).min(assignment.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The member count of every centre in `ranks` after the epoch's label
/// `changes`, from the counts of the `old` centres, ascending by handle.
fn centre_sizes(
    old: &[(Handle, usize)],
    ranks: &[(Handle, ClusterId)],
    changes: &[LabelChange],
) -> Vec<(Handle, usize)> {
    let slot =
        |centres: &[(Handle, usize)], c: Handle| centres.binary_search_by_key(&c, |&(h, _)| h).ok();
    let mut sizes: Vec<(Handle, usize)> = ranks
        .iter()
        .map(|&(c, _)| (c, slot(old, c).map_or(0, |i| old[i].1)))
        .collect();
    for change in changes {
        if let Some(i) = change.old.and_then(|c| slot(&sizes, c)) {
            sizes[i].1 -= 1;
        }
        if let Some(i) = change.new.and_then(|c| slot(&sizes, c)) {
            sizes[i].1 += 1;
        }
    }
    sizes
}

/// Builds an epoch's delta from its label changes (ascending by handle)
/// and the centres with their member counts before and after (each
/// ascending by handle).
///
/// A centre handle that leaves the centre set does not necessarily mean its
/// cluster died: when the centre *point* expires but the population
/// persists, the next epoch elects a new centre among the survivors. Dying
/// and newborn centres whose member sets overlap with Jaccard similarity of
/// at least [`ClusterDelta::JACCARD_THRESHOLD`] are therefore matched
/// greedily (best overlap first, deterministic handle-order tie-break) and
/// reported as `recentred` survivors instead of a death + birth pair. A
/// point in both member sets changed label from the dying to the newborn
/// centre, so the changes give every overlap.
fn diff(
    epoch: u64,
    old: &[(Handle, usize)],
    new: &[(Handle, usize)],
    changed: Vec<LabelChange>,
) -> ClusterDelta {
    let absent_from = |centres: &[(Handle, usize)], c: Handle| {
        centres.binary_search_by_key(&c, |&(h, _)| h).is_err()
    };
    let mut births: Vec<Handle> = new
        .iter()
        .map(|&(c, _)| c)
        .filter(|&c| absent_from(old, c))
        .collect();
    let mut deaths: Vec<Handle> = old
        .iter()
        .map(|&(c, _)| c)
        .filter(|&c| absent_from(new, c))
        .collect();

    // Identity matching: pair each dying centre with the newborn centre
    // whose membership overlaps it the most, if the overlap clears the
    // Jaccard threshold. Clusters whose centre survived keep their identity
    // trivially and never take part.
    let mut recentred: Vec<(Handle, Handle)> = Vec::new();
    if !births.is_empty() && !deaths.is_empty() {
        // Sizes of the dying and newborn clusters, and the overlap of each
        // (dying, newborn) pair, indexed by position in the sorted
        // `deaths` / `births`.
        let nb = births.len();
        let size = |centres: &[(Handle, usize)], c: &Handle| {
            centres[centres
                .binary_search_by_key(c, |&(h, _)| h)
                .expect("a centre")]
            .1
        };
        let old_size: Vec<usize> = deaths.iter().map(|c| size(old, c)).collect();
        let new_size: Vec<usize> = births.iter().map(|c| size(new, c)).collect();
        let mut overlap = vec![0usize; deaths.len() * nb];
        for change in &changed {
            if let (Some(co), Some(cn)) = (change.old, change.new) {
                if let (Ok(d), Ok(b)) = (deaths.binary_search(&co), births.binary_search(&cn)) {
                    overlap[d * nb + b] += 1;
                }
            }
        }
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
        for (d, &dying) in old_size.iter().enumerate() {
            for (b, &newborn) in new_size.iter().enumerate() {
                let inter = overlap[d * nb + b];
                let jaccard = inter as f64 / (dying + newborn - inter) as f64;
                if jaccard >= ClusterDelta::JACCARD_THRESHOLD {
                    candidates.push((jaccard, d, b));
                }
            }
        }
        // Positions order like the handles they hold (both lists ascend).
        candidates.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        let mut matched_old = vec![false; deaths.len()];
        let mut matched_new = vec![false; nb];
        for (_, d, b) in candidates {
            if !matched_old[d] && !matched_new[b] {
                matched_old[d] = true;
                matched_new[b] = true;
                recentred.push((deaths[d], births[b]));
            }
        }
        recentred.sort_unstable();
        births.retain(|c| !recentred.iter().any(|&(_, b)| b == *c));
        deaths.retain(|c| !recentred.iter().any(|&(d, _)| d == *c));
    }

    ClusterDelta {
        epoch,
        num_clusters: new.len(),
        births,
        deaths,
        recentred,
        changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::{CenterSelection, Dataset, DpcIndex};

    fn two_blob_engine() -> StreamingDpc<NaiveReferenceIndex> {
        let seed = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.1, 0.0),
            (0.0, 0.1),
            (5.0, 5.0),
            (5.1, 5.0),
            (5.0, 5.1),
        ]);
        let params = StreamParams::new(0.5)
            .with_dpc(DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 2 }));
        StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap()
    }

    /// The engine's density state must equal a cold batch run over its own
    /// surviving dataset.
    fn assert_matches_cold_batch(engine: &StreamingDpc<NaiveReferenceIndex>) {
        let batch = NaiveReferenceIndex::build(engine.index().dataset());
        let (rho, deltas) = batch.rho_delta(&engine.params().dpc.query()).unwrap();
        assert_eq!(engine.rho(), &rho[..]);
        assert_eq!(engine.deltas(), &deltas);
    }

    /// A 1-D window at dc 1: `m` (id 0, ρ 2 with its neighbours 2 and 3)
    /// is µ of `p` (id 1, ρ 1 with its neighbour 4 at 3.6), and a far
    /// cluster (ids 5–10, ρ 5) holds the global peak.
    fn rise_engine() -> (
        StreamingDpc<NaiveReferenceIndex>,
        Arc<dpc_obs::MetricsRecorder>,
    ) {
        let mut coords = vec![(0.0, 0.0), (3.0, 0.0), (-0.5, 0.0), (0.5, 0.0), (3.6, 0.0)];
        coords.extend((0..6).map(|i| (100.0 + 0.1 * f64::from(i), 0.0)));
        let params = StreamParams::new(1.0).with_max_affected_fraction(1.0);
        let mut engine = StreamingDpc::new(
            NaiveReferenceIndex::build(&Dataset::from_coords(coords)),
            params,
        )
        .unwrap();
        assert_eq!((engine.rho()[1], engine.deltas().mu[1]), (1.0, Some(0)));
        let metrics = Arc::new(dpc_obs::MetricsRecorder::new());
        engine.set_recorder(metrics.clone());
        (engine, metrics)
    }

    #[test]
    fn a_risen_point_whose_mu_stays_denser_is_folded_not_recomputed() {
        // The arrival at 2.6 raises ρ(p) to 2, level with m, whose smaller
        // id keeps it denser: p keeps (δ, µ), and so does 4, whose µ is p.
        // F is the arrival and the (unchanged) peak; U = {p} is not in it.
        let (mut engine, metrics) = rise_engine();
        engine.advance(&[Point::new(2.6, 0.0)], 0).unwrap();
        assert_eq!(engine.stats().incremental_epochs, 1);
        assert_eq!(engine.stats().invalidated_points, 2);
        assert_eq!((engine.rho()[1], engine.deltas().mu[1]), (2.0, Some(0)));
        let snap = metrics.snapshot();
        let cause = |name: &str| snap.counter(&format!("stream.invalidated.{name}"));
        assert_eq!(cause("inserted"), Some(1));
        assert_eq!(cause("peak"), Some(2));
        assert_eq!(cause("rho_fell"), Some(0));
        assert_eq!(cause("mu_overtaken"), Some(0));
        assert_eq!(snap.counter("stream.fold.entrants.risen"), Some(1));
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn a_point_whose_rho_rises_past_its_mu_is_recomputed() {
        // Arrivals at 2.6 and 3.3 raise ρ(p) to 3, past m's unchanged 2: m
        // is no longer denser than p, though m itself was never touched.
        let (mut engine, metrics) = rise_engine();
        engine
            .advance(&[Point::new(2.6, 0.0), Point::new(3.3, 0.0)], 0)
            .unwrap();
        assert_eq!(engine.stats().incremental_epochs, 1);
        assert_eq!(engine.rho()[1], 3.0);
        assert_eq!(engine.deltas().mu[1], Some(5));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("stream.invalidated.mu_overtaken"), Some(1));
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn seeding_matches_the_batch_pipeline() {
        let engine = two_blob_engine();
        assert_eq!(engine.len(), 6);
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.clustering().num_clusters(), 2);
        assert_eq!(engine.clustering().label(0), engine.clustering().label(1));
        assert_ne!(engine.clustering().label(0), engine.clustering().label(3));
    }

    #[test]
    fn insert_emits_a_delta_with_the_new_point() {
        let mut engine = two_blob_engine();
        let (h, delta) = engine.insert(Point::new(0.05, 0.05)).unwrap();
        assert_eq!(engine.len(), 7);
        assert_eq!(delta.insertions(), 1);
        assert_eq!(delta.epoch, 1);
        assert_eq!(engine.point_of(h), Some(Point::new(0.05, 0.05)));
        // The new point joined the origin blob.
        let id = engine.dense_of(h).unwrap();
        assert_eq!(engine.clustering().label(id), engine.clustering().label(0));
    }

    #[test]
    fn remove_emits_a_delta_and_invalidates_the_handle() {
        let mut engine = two_blob_engine();
        let victim = engine.handle_at(1);
        let delta = engine.remove(victim).unwrap();
        assert_eq!(engine.len(), 5);
        assert_eq!(delta.evictions(), 1);
        assert_eq!(engine.dense_of(victim), None);
        assert!(engine.remove(victim).is_err());
    }

    #[test]
    fn centre_expiry_with_survivors_is_recentred_not_death_and_birth() {
        let mut engine = two_blob_engine();
        let far_centre_id = engine
            .clustering()
            .centers()
            .iter()
            .copied()
            .find(|&c| engine.index().dataset().point(c).x > 1.0)
            .expect("one centre per blob");
        let old_centre = engine.handle_at(far_centre_id);
        let delta = engine.remove(old_centre).unwrap();
        // Regression: before overlap matching this epoch reported the far
        // blob as one death plus one birth even though two of its three
        // points survive under a freshly elected centre.
        assert!(delta.births.is_empty(), "births: {:?}", delta.births);
        assert!(delta.deaths.is_empty(), "deaths: {:?}", delta.deaths);
        assert_eq!(delta.recentred.len(), 1);
        let (dead, reborn) = delta.recentred[0];
        assert_eq!(dead, old_centre);
        let new_id = engine.dense_of(reborn).expect("new centre must be live");
        assert!(engine.index().dataset().point(new_id).x > 1.0);
        assert_eq!(delta.num_clusters, 2);
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn whole_cluster_eviction_is_still_a_death() {
        let mut engine = two_blob_engine();
        let far_centre_id = engine
            .clustering()
            .centers()
            .iter()
            .copied()
            .find(|&c| engine.index().dataset().point(c).x > 1.0)
            .unwrap();
        let far_centre = engine.handle_at(far_centre_id);
        let far: Vec<Handle> = (0..engine.len())
            .filter(|&p| engine.index().dataset().point(p).x > 1.0)
            .map(|p| engine.handle_at(p))
            .collect();
        let mut plan = EpochPlan::new();
        for &h in &far {
            plan.remove(h);
        }
        let (_, delta) = engine.commit(&plan).unwrap();
        // No surviving population: overlap matching must not resurrect it.
        assert!(delta.deaths.contains(&far_centre));
        assert!(delta.recentred.is_empty());
    }

    /// The delta between two `(point, centre)` assignments, through the
    /// events and centre sizes the engine hands to [`diff`].
    fn diff_assignments(
        epoch: u64,
        old: &[(Handle, Handle)],
        new: &[(Handle, Handle)],
    ) -> ClusterDelta {
        use std::collections::BTreeMap;
        let sizes = |assignment: &[(Handle, Handle)]| {
            let mut sizes: BTreeMap<Handle, usize> = BTreeMap::new();
            for &(_, c) in assignment {
                *sizes.entry(c).or_default() += 1;
            }
            sizes.into_iter().collect::<Vec<_>>()
        };
        let (before, after): (BTreeMap<_, _>, BTreeMap<_, _>) =
            (old.iter().copied().collect(), new.iter().copied().collect());
        let mut handles: Vec<Handle> = before.keys().chain(after.keys()).copied().collect();
        handles.sort_unstable();
        handles.dedup();
        let changed = handles
            .into_iter()
            .map(|handle| LabelChange {
                handle,
                old: before.get(&handle).copied(),
                new: after.get(&handle).copied(),
            })
            .filter(|change| change.old != change.new)
            .collect();
        diff(epoch, &sizes(old), &sizes(new), changed)
    }

    #[test]
    fn diff_matches_identity_only_above_the_jaccard_threshold() {
        let map = |pairs: &[(u64, u64)]| -> Vec<(Handle, Handle)> {
            pairs.iter().map(|&(h, c)| (Handle(h), Handle(c))).collect()
        };
        // Centre #0 expires, survivors {1, 2} re-centre at #1:
        // Jaccard 2/3 ≥ 0.5 → matched.
        let old = map(&[(0, 0), (1, 0), (2, 0)]);
        let new = map(&[(1, 1), (2, 1)]);
        let d = diff_assignments(1, &old, &new);
        assert_eq!(d.recentred, vec![(Handle(0), Handle(1))]);
        assert!(d.births.is_empty() && d.deaths.is_empty());

        // Only one of four old members flows into the newborn cluster:
        // Jaccard 1/8 < 0.5 → the naive death + birth stands.
        let old = map(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let new = map(&[(3, 7), (7, 7), (8, 7), (9, 7), (10, 7)]);
        let d = diff_assignments(2, &old, &new);
        assert!(d.recentred.is_empty());
        assert_eq!(d.births, vec![Handle(7)]);
        assert_eq!(d.deaths, vec![Handle(0)]);

        // A merge: two dying clusters pour into one newborn; only the
        // dominant contributor (Jaccard 3/5) keeps the identity, the minor
        // one (2/6: its centre #5 expired) dies.
        let old = map(&[(0, 0), (1, 0), (2, 0), (5, 5), (10, 5), (11, 5)]);
        let new = map(&[(0, 1), (1, 1), (2, 1), (10, 1), (11, 1)]);
        let d = diff_assignments(3, &old, &new);
        assert_eq!(d.recentred, vec![(Handle(0), Handle(1))]);
        assert!(d.births.is_empty());
        assert_eq!(d.deaths, vec![Handle(5)]);
    }

    #[test]
    fn advance_slides_the_window_in_one_epoch() {
        let mut engine = two_blob_engine();
        let (hs, delta) = engine
            .advance(&[Point::new(5.05, 5.05), Point::new(0.05, 0.0)], 2)
            .unwrap();
        assert_eq!(hs.len(), 2);
        assert_eq!(engine.len(), 6);
        assert_eq!(delta.insertions(), 2);
        assert_eq!(delta.evictions(), 2);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.stats().updates, 4);
        assert_eq!(engine.stats().epochs, 1);
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn empty_advance_is_a_complete_noop() {
        let mut engine = two_blob_engine();
        let before_version = engine.version();
        let before_stats = engine.stats();
        let (hs, delta) = engine.advance(&[], 0).unwrap();
        assert!(hs.is_empty());
        assert!(delta.is_empty());
        assert_eq!(delta.epoch, 0);
        assert_eq!(delta.num_clusters, 2);
        assert_eq!(engine.version(), before_version);
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.stats(), before_stats);
    }

    #[test]
    fn commit_applies_interleaved_ops_in_submission_order() {
        let mut engine = two_blob_engine();
        let oldest = engine.oldest().unwrap();
        let mut plan = EpochPlan::new();
        let kept = plan.insert(Point::new(0.05, 0.0));
        plan.remove(oldest);
        let (handles, delta) = engine.commit(&plan).unwrap();
        assert_eq!(engine.len(), 6);
        assert_eq!(delta.insertions(), 1);
        assert_eq!(delta.evictions(), 1);
        assert_eq!(engine.dense_of(oldest), None);
        assert!(engine.dense_of(handles[kept.0]).is_some());
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn ephemeral_point_leaves_no_trace() {
        let mut engine = two_blob_engine();
        let before: Vec<Point> = engine.index().dataset().points().to_vec();
        let before_rho = engine.rho().to_vec();
        let mut plan = EpochPlan::new();
        // Inserted on top of the origin blob, expired within the same epoch:
        // the committed state must be as if it never existed.
        let flash = plan.insert(Point::new(0.05, 0.05));
        plan.remove_planned(flash);
        let (handles, delta) = engine.commit(&plan).unwrap();
        assert_eq!(engine.dense_of(handles[0]), None);
        assert_eq!(engine.index().dataset().points(), &before[..]);
        assert_eq!(engine.rho(), &before_rho[..]);
        assert_eq!(delta.insertions(), 0);
        assert_eq!(delta.evictions(), 0);
        assert_eq!(engine.stats().updates, 2); // but both mutations count
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn invalid_plans_are_rejected_before_any_mutation() {
        let mut engine = two_blob_engine();
        let v0 = engine.version();
        let oldest = engine.oldest().unwrap();

        // A non-finite point anywhere in the batch rejects the whole plan.
        let mut plan = EpochPlan::new();
        plan.insert(Point::new(1.0, 1.0));
        plan.insert(Point::new(f64::NAN, 0.0));
        assert!(engine.commit(&plan).is_err());

        // Removing the same handle twice.
        let mut plan = EpochPlan::new();
        plan.remove(oldest);
        plan.remove(oldest);
        assert!(engine.commit(&plan).is_err());

        // A token from another plan.
        let mut other = EpochPlan::new();
        let foreign = other.insert(Point::new(1.0, 1.0));
        let mut plan = EpochPlan::new();
        plan.remove_planned(foreign);
        assert!(engine.commit(&plan).is_err());

        // Removing the same planned insert twice.
        let mut plan = EpochPlan::new();
        let t = plan.insert(Point::new(1.0, 1.0));
        plan.remove_planned(t);
        plan.remove_planned(t);
        assert!(engine.commit(&plan).is_err());

        // Nothing was applied by any of the rejected plans.
        assert_eq!(engine.version(), v0);
        assert_eq!(engine.len(), 6);
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn top_k_above_the_post_plan_window_is_rejected_before_any_mutation() {
        let seed = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.1, 0.0),
            (5.0, 5.0),
            (5.1, 5.0),
            (9.0, 0.0),
        ]);
        let params = StreamParams::new(0.5)
            .with_dpc(DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 4 }));
        let mut engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap();
        engine.remove(engine.oldest().unwrap()).unwrap();
        let (v, epoch) = (engine.version(), engine.epoch());
        let err = engine.remove(engine.oldest().unwrap()).unwrap_err();
        assert!(
            matches!(
                err,
                DpcError::TooManyCenters {
                    requested: 4,
                    available: 3
                }
            ),
            "{err:?}"
        );
        assert_eq!(
            (engine.len(), engine.version(), engine.epoch()),
            (4, v, epoch)
        );
        let snap = engine.snapshot();
        snap.check_consistency();
        assert_eq!(snap.epoch(), engine.epoch());
        assert_matches_cold_batch(&engine);
        // Draining the window to empty is no clustering failure.
        let mut plan = EpochPlan::new();
        for h in engine.live_handles().collect::<Vec<_>>() {
            plan.remove(h);
        }
        engine.commit(&plan).unwrap();
        assert!(engine.is_empty());
    }

    #[test]
    fn draining_the_window_to_empty_and_refilling_works() {
        // The automatic γ-gap selection adapts to any window size; a fixed
        // top-k would (correctly) error once fewer than k points remain.
        let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
        let mut engine =
            StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
        while let Some(h) = engine.oldest() {
            engine.remove(h).unwrap();
        }
        assert!(engine.is_empty());
        assert_eq!(engine.clustering().num_clusters(), 0);
        let (_, delta) = engine.insert(Point::new(1.0, 1.0)).unwrap();
        assert_eq!(delta.births.len(), 1);
        assert_eq!(engine.clustering().num_clusters(), 1);
    }

    #[test]
    fn draining_in_one_epoch_works() {
        let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
        let mut engine =
            StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
        let (_, delta) = engine.advance(&[], 4).unwrap();
        assert!(engine.is_empty());
        assert_eq!(delta.evictions(), 4);
        assert_eq!(engine.clustering().num_clusters(), 0);
        assert_eq!(engine.stats().epochs, 1);
        // Emptying the window is a (trivial) incremental epoch.
        assert_eq!(engine.stats().incremental_epochs, 1);
        assert_eq!(engine.stats().last_epoch_mode, Some(EpochMode::Incremental));
    }

    #[test]
    fn forced_fallback_still_produces_exact_state() {
        let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
        let params = StreamParams::new(0.5)
            .with_dpc(DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 2 }))
            .with_max_affected_fraction(0.0);
        let mut engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap();
        engine.insert(Point::new(0.05, 0.0)).unwrap();
        engine.remove(engine.handle_at(0)).unwrap();
        assert_eq!(engine.stats().fallback_epochs, 2);
        assert_eq!(engine.stats().incremental_epochs, 0);
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn fallback_epochs_count_their_invalidation_sets() {
        // Every epoch falls back, and each still adds the |F| that sent it
        // there, as the `stream.invalidated` histogram records it.
        let seed = Dataset::from_coords((0..12).map(|i| (f64::from(i % 4), f64::from(i / 4))));
        let params = StreamParams::new(1.5).with_max_affected_fraction(0.0);
        let mut engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap();
        let metrics = Arc::new(dpc_obs::MetricsRecorder::new());
        engine.set_recorder(metrics.clone());
        engine.advance(&[Point::new(0.5, 0.5)], 0).unwrap();
        engine
            .advance(&[Point::new(2.5, 1.5), Point::new(3.0, 2.5)], 2)
            .unwrap();
        engine.remove(engine.handle_at(4)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.fallback_epochs, 3);
        assert_eq!(stats.incremental_epochs, 0);
        let sets = metrics.snapshot().histogram("stream.invalidated").cloned();
        let sets = sets.expect("every epoch records its |F|");
        assert_eq!(sets.count(), 3);
        assert!(sets.sum() > 0);
        assert_eq!(stats.invalidated_points, sets.sum());
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let seed = Dataset::from_coords(vec![(0.0, 0.0)]);
        let index = NaiveReferenceIndex::build(&seed);
        assert!(StreamingDpc::new(index.clone(), StreamParams::new(-1.0)).is_err());
        assert!(StreamingDpc::new(
            index,
            StreamParams::new(1.0).with_max_affected_fraction(f64::NAN)
        )
        .is_err());
    }

    #[test]
    fn epoch_mode_names_are_stable() {
        assert_eq!(EpochMode::Incremental.name(), "incremental");
        assert_eq!(EpochMode::Fallback.name(), "fallback");
        assert_eq!(EpochMode::Decay.name(), "decay");
    }

    #[test]
    fn stats_accumulate_over_epochs() {
        let mut engine = two_blob_engine();
        engine.insert(Point::new(0.05, 0.0)).unwrap();
        engine.insert(Point::new(5.05, 5.0)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.epochs, 2);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.incremental_epochs + stats.fallback_epochs, 2);
        assert!(stats.affected_points >= 2);
    }
}
