//! The [`DpcIndex`] trait — the seam between the clustering pipeline and the
//! concrete index structures.
//!
//! An index is built once over a dataset and can then answer, for *any*
//! cut-off distance `dc`, the two expensive DPC queries:
//!
//! * the **ρ-query**: local density of every point,
//! * the **δ-query**: dependent distance and dependent neighbour of every
//!   point (given the densities).
//!
//! The motivation in the paper is exactly this split: the user typically runs
//! DPC for many `dc` values while searching for a satisfactory clustering, so
//! the index is amortised across runs.

use std::time::Duration;

use crate::delta::{DeltaResult, TieBreak};
use crate::density::Rho;
use crate::error::{DpcError, Result};
use crate::exec::ExecPolicy;
use crate::kernel::Kernel;
use crate::point::{Dataset, Point, PointId};

/// Construction-time statistics of an index, reported by every
/// implementation and consumed by the experiment harness (Tables 3–4 of the
/// paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Wall-clock time spent building the index.
    pub construction_time: Duration,
    /// Analytic heap footprint of the index in bytes.
    pub memory_bytes: usize,
    /// Implementation-specific counters (number of tree nodes, bins per
    /// object, truncated list length, …).
    pub counters: Vec<(&'static str, u64)>,
}

impl IndexStats {
    /// Creates stats with the given construction time and memory footprint.
    pub fn new(construction_time: Duration, memory_bytes: usize) -> Self {
        IndexStats {
            construction_time,
            memory_bytes,
            counters: Vec::new(),
        }
    }

    /// Adds an implementation-specific counter (builder style).
    pub fn with_counter(mut self, name: &'static str, value: u64) -> Self {
        self.counters.push((name, value));
        self
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// An index over a dataset that can answer the DPC ρ- and δ-queries for any
/// cut-off distance.
///
/// Implementations must agree on the exact semantics defined in
/// [`crate::density`] and [`crate::delta`], under the distance contract of
/// [`crate::metric`]:
///
/// * `ρ(p)` counts the *other* points `q` with `fl(d²(p, q)) < fl(dc²)`;
/// * "denser" is the total order of [`DensityOrder`](crate::DensityOrder)
///   with the index's [`tie_break`](DpcIndex::tie_break) rule;
/// * `µ(p)` is the lexicographic minimum of `(fl(d²), id)` over the points
///   denser than `p` ([`closer`](crate::metric::closer)), and `δ(p)` the
///   root of that `fl(d²)`;
/// * the global peak gets `µ = None` and `δ` = the root of its largest
///   `fl(d²)` to any other point.
///
/// Exact indices (List, CH, Quadtree, R-tree, k-d tree, grid and the
/// baselines) return results bit-identical to the [`crate::brute`] kernels.
/// Approximate indices (RN-List with threshold `τ`) may return a clipped `δ`
/// for points whose dependent neighbour is farther than `τ`; see
/// `dpc-list-index` for details.
pub trait DpcIndex {
    /// Short, stable name used in reports and plots (e.g. `"list"`,
    /// `"ch"`, `"quadtree"`, `"rtree"`).
    fn name(&self) -> &'static str;

    /// The dataset the index was built over.
    ///
    /// The clustering pipeline needs the raw points for the assignment step
    /// (nearest-centre fallback, halo computation), so every index keeps a
    /// copy of — or a handle to — its dataset. Relative to the index payload
    /// this is negligible.
    fn dataset(&self) -> &Dataset;

    /// Number of indexed points.
    fn len(&self) -> usize {
        self.dataset().len()
    }

    /// True when the index covers no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Computes the local density of every point for the cut-off `dc`.
    ///
    /// Returns [`DpcError::InvalidParameter`] when `dc` is not a positive
    /// finite number.
    fn rho(&self, dc: f64) -> Result<Vec<Rho>>;

    /// Computes `δ` and `µ` for every point, given per-point densities
    /// previously obtained from [`rho`](DpcIndex::rho).
    ///
    /// `dc` is passed through because approximate indices need it to decide
    /// whether a truncated neighbourhood is sufficient.
    fn delta(&self, dc: f64, rho: &[Rho]) -> Result<DeltaResult>;

    /// Runs the ρ-query and δ-query back to back.
    fn rho_delta(&self, dc: f64) -> Result<(Vec<Rho>, DeltaResult)> {
        let rho = self.rho(dc)?;
        let delta = self.delta(dc, &rho)?;
        Ok((rho, delta))
    }

    /// [`rho`](DpcIndex::rho) under an explicit [`ExecPolicy`].
    ///
    /// Implementations that support the parallel query engine override this;
    /// the default ignores the policy and runs the sequential query, so the
    /// result is identical either way (parallelism is a pure acceleration,
    /// never a semantic change).
    fn rho_with_policy(&self, dc: f64, policy: ExecPolicy) -> Result<Vec<Rho>> {
        let _ = policy;
        self.rho(dc)
    }

    /// [`delta`](DpcIndex::delta) under an explicit [`ExecPolicy`].
    ///
    /// Same contract as [`rho_with_policy`](DpcIndex::rho_with_policy):
    /// bit-identical results at every thread count.
    fn delta_with_policy(&self, dc: f64, rho: &[Rho], policy: ExecPolicy) -> Result<DeltaResult> {
        let _ = policy;
        self.delta(dc, rho)
    }

    /// Runs both queries back to back under an explicit [`ExecPolicy`].
    fn rho_delta_with_policy(
        &self,
        dc: f64,
        policy: ExecPolicy,
    ) -> Result<(Vec<Rho>, DeltaResult)> {
        let rho = self.rho_with_policy(dc, policy)?;
        let delta = self.delta_with_policy(dc, &rho, policy)?;
        Ok((rho, delta))
    }

    /// [`rho`](DpcIndex::rho) under an explicit density [`Kernel`] and
    /// [`ExecPolicy`].
    ///
    /// For [`Kernel::Cutoff`] this **is**
    /// [`rho_with_policy`](DpcIndex::rho_with_policy) — same code path,
    /// bit-identical results.
    /// For weighted kernels the default falls back to the canonical
    /// brute-force scan ([`weighted_rho_scan`]); indices whose structure can
    /// enumerate the `dc`-neighbourhood override this with an accelerated
    /// traversal that must reproduce the scan bit-for-bit (same ascending-id
    /// summation order; see [`crate::kernel`]).
    fn rho_kernel_with_policy(
        &self,
        dc: f64,
        kernel: Kernel,
        policy: ExecPolicy,
    ) -> Result<Vec<Rho>> {
        if kernel.is_cutoff() {
            return self.rho_with_policy(dc, policy);
        }
        weighted_rho_scan(self.dataset(), dc, kernel, policy)
    }

    /// [`rho`](DpcIndex::rho) under an explicit density [`Kernel`],
    /// sequentially.
    fn rho_kernel(&self, dc: f64, kernel: Kernel) -> Result<Vec<Rho>> {
        self.rho_kernel_with_policy(dc, kernel, ExecPolicy::Sequential)
    }

    /// Runs the kernel-weighted ρ-query and the δ-query back to back.
    ///
    /// The δ-query is kernel-agnostic: it only consumes the densities through
    /// the total order, so every index's accelerated δ traversal works
    /// unchanged on weighted densities.
    fn rho_delta_kernel_with_policy(
        &self,
        dc: f64,
        kernel: Kernel,
        policy: ExecPolicy,
    ) -> Result<(Vec<Rho>, DeltaResult)> {
        let rho = self.rho_kernel_with_policy(dc, kernel, policy)?;
        let delta = self.delta_with_policy(dc, &rho, policy)?;
        Ok((rho, delta))
    }

    /// Runs both queries under an explicit [`Kernel`] and [`ExecPolicy`],
    /// reporting query telemetry to `rec`.
    ///
    /// For [`Kernel::Cutoff`] this delegates to
    /// [`rho_delta_observed`](DpcIndex::rho_delta_observed) — the exact
    /// pre-existing instrumented path. For weighted kernels the default runs
    /// the kernel ρ-query (unrecorded fallback unless overridden) followed by
    /// the policy δ-query; results are bit-identical with or without the
    /// recorder.
    fn rho_delta_kernel_observed(
        &self,
        dc: f64,
        kernel: Kernel,
        policy: ExecPolicy,
        rec: &dyn dpc_obs::Recorder,
    ) -> Result<(Vec<Rho>, DeltaResult)> {
        if kernel.is_cutoff() {
            return self.rho_delta_observed(dc, policy, rec);
        }
        self.rho_delta_kernel_with_policy(dc, kernel, policy)
    }

    /// Runs both queries under an explicit [`ExecPolicy`], reporting query
    /// telemetry (per-worker chunk timings, traversal statistics) to `rec`.
    ///
    /// The default ignores the recorder and delegates to
    /// [`rho_delta_with_policy`](DpcIndex::rho_delta_with_policy); indices
    /// wired into the `dpc-obs` layer override this. The results must be
    /// bit-identical regardless of the recorder — observability is never a
    /// semantic change.
    fn rho_delta_observed(
        &self,
        dc: f64,
        policy: ExecPolicy,
        rec: &dyn dpc_obs::Recorder,
    ) -> Result<(Vec<Rho>, DeltaResult)> {
        let _ = rec;
        self.rho_delta_with_policy(dc, policy)
    }

    /// Analytic heap footprint of the index in bytes.
    fn memory_bytes(&self) -> usize;

    /// Construction statistics recorded while building the index.
    fn stats(&self) -> IndexStats;

    /// The tie-break rule this index uses for the density order.
    fn tie_break(&self) -> TieBreak {
        TieBreak::SmallerIdDenser
    }

    /// Whether the index guarantees results identical to the naive baseline
    /// (`true`) or may trade accuracy for memory (`false`).
    fn is_exact(&self) -> bool {
        true
    }
}

/// One mutation of an epoch batch, consumed by
/// [`UpdatableIndex::apply_batch`].
///
/// A batch is an ordered sequence of these: the streaming engine translates
/// a whole epoch of inserts and expiries into `BatchOp`s (resolving handles
/// to the dense ids they hold *at execution time*) and hands them to the
/// index in one call, so the index can amortise its internal maintenance
/// triggers over the epoch instead of paying them per update.
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{BatchOp, Dataset, DpcIndex, Point, UpdatableIndex};
///
/// let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 1.0)]);
/// let mut index = NaiveReferenceIndex::build(&data);
/// // Insert two points, then swap-remove the point at dense id 0: the
/// // default implementation replays the ops through insert()/remove().
/// index
///     .apply_batch(&[
///         BatchOp::Insert(Point::new(2.0, 2.0)),
///         BatchOp::Insert(Point::new(3.0, 3.0)),
///         BatchOp::Remove(0),
///     ])
///     .unwrap();
/// assert_eq!(index.len(), 3);
/// // Swap-remove semantics: the last point (3,3) was renamed to id 0.
/// assert_eq!(index.dataset().point(0), Point::new(3.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchOp {
    /// Append a point (its id becomes the dataset length before the op).
    Insert(Point),
    /// Swap-remove the point at this dense id (resolved against the dataset
    /// state at the moment the op executes, mid-batch).
    Remove(PointId),
}

/// An index that supports online point insertion and deletion, plus the
/// ε-range query the streaming engine uses to find the *affected set* of an
/// update.
///
/// This is the seam behind `dpc-stream`'s incremental clustering: inserting
/// or deleting a point `p` only changes `ρ` for points within `dc` of `p`
/// (the locality property the paper's indexes already exploit for batch
/// queries), so an updatable index lets `ρ` be *maintained* instead of
/// recomputed — the same insight as the parallel-exact and k-d-tree DPC
/// follow-ups ("Faster Parallel Exact Density Peaks Clustering", Huang, Yu &
/// Shun 2023; Shan et al. 2022).
///
/// ## Contract
///
/// * The index's [`dataset`](DpcIndex::dataset) mirrors the mutations:
///   [`insert`](UpdatableIndex::insert) appends (new id = old `len()`),
///   [`remove`](UpdatableIndex::remove) uses *swap-remove* semantics exactly
///   like [`Dataset::swap_remove`] — the last point is renamed to the removed
///   id, and the old id of the moved point is returned so callers can fix up
///   external references.
/// * After any sequence of updates, every [`DpcIndex`] query must return
///   exactly what a freshly built index over the same dataset would return.
///   (Internal bookkeeping such as node bounding boxes may be *conservative*
///   after deletions — correct but less tight — as long as query results are
///   unchanged.)
/// * [`eps_neighbors`](UpdatableIndex::eps_neighbors) takes a *location*, not
///   an id, so it can be asked about a point before it is inserted or after
///   it is removed. It returns ids in ascending order.
pub trait UpdatableIndex: DpcIndex {
    /// Inserts a point, returning its id (the previous `len()`).
    ///
    /// Returns [`DpcError::InvalidPoint`] for non-finite coordinates.
    fn insert(&mut self, p: Point) -> Result<PointId>;

    /// Removes the point with the given id via swap-remove.
    ///
    /// Returns the old id of the point that was moved into the hole
    /// (`Some(len - 1)`), or `None` when the last point was removed. Errors
    /// when `id` is out of range.
    fn remove(&mut self, id: PointId) -> Result<Option<PointId>>;

    /// Applies a whole epoch of mutations in order.
    ///
    /// Semantically this is exactly a loop over [`insert`](Self::insert) and
    /// [`remove`](Self::remove) — the default implementation *is* that loop,
    /// and every override must leave the dataset in the identical state
    /// (same points at the same dense ids; the id effects of each op are
    /// deterministic: an insert lands at the current length, a remove renames
    /// the last point into the hole). What an override **may** change is the
    /// *internal* structural maintenance: amortised triggers such as the k-d
    /// tree's scapegoat/dead-fraction rebuilds or the R-tree's forced
    /// reinsertion round are allowed to fire **once per batch** instead of
    /// once per op, as long as every [`DpcIndex`] query still returns exactly
    /// what a freshly built index over the final dataset would return.
    ///
    /// # Errors and partial progress
    ///
    /// An op that fails (non-finite point, out-of-range id) aborts the batch
    /// at that op; ops already applied **stay applied**, mirroring the
    /// per-update contract. Callers that need atomicity must validate the
    /// batch first (the streaming engine does).
    fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<()> {
        for op in ops {
            match *op {
                BatchOp::Insert(p) => {
                    self.insert(p)?;
                }
                BatchOp::Remove(id) => {
                    self.remove(id)?;
                }
            }
        }
        Ok(())
    }

    /// Replaces the index's contents with `dataset` in one **bulk load** —
    /// the fast path behind the streaming engine's rebuild commits.
    ///
    /// The caller (see `dpc-stream`'s rebuild commit path) materialises the
    /// epoch's final dataset itself — applying the batch with the exact
    /// per-update id semantics, so the dataset's points, ids *and* its
    /// mutation [`version`](Dataset::version) already carry the same state an
    /// in-place [`apply_batch`](Self::apply_batch) would have produced — and
    /// hands it over here. Afterwards every [`DpcIndex`] query must return
    /// exactly what a freshly built index over `dataset` would return, and
    /// [`dataset`](DpcIndex::dataset) must expose the adopted points at the
    /// same dense ids. Implementations should adopt `dataset` **verbatim**
    /// (including its version) and rebuild their structure with their bulk
    /// constructor: construction is `O(n log n)`-ish where incremental
    /// maintenance of a churned structure is not, which is what makes rebuild
    /// a genuine per-epoch alternative instead of a penalty box.
    ///
    /// The default implementation is the portable slow path — evict
    /// everything, re-insert every point — which leaves the same points at
    /// the same ids but pays per-update maintenance `old_len + new_len` times
    /// and advances the dataset version by that many mutations instead of
    /// adopting `dataset`'s version. Every in-tree engine overrides it.
    fn rebuild_from(&mut self, dataset: Dataset) -> Result<()> {
        while self.len() > 0 {
            self.remove(self.len() - 1)?;
        }
        for (_, p) in dataset.iter() {
            self.insert(p)?;
        }
        Ok(())
    }

    /// Ids of all points strictly within `eps` of `center`, ascending.
    ///
    /// Strictness matches the ρ definition (`dist < eps`), so
    /// `eps_neighbors(point(p), dc)` returns exactly the points whose ρ a
    /// mutation of `p` touches (including `p` itself when it is indexed —
    /// its distance to its own location is 0). `eps` is validated like a
    /// cut-off distance ([`validate_dc`]).
    fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>>;

    /// Counters describing the amortised structural maintenance the index
    /// has performed so far (subtree rebuilds, forced reinsertions, node
    /// merges, …).
    ///
    /// Indexes that keep themselves healthy through occasional restructuring
    /// expose their triggers here so the test harness can assert they
    /// actually fire under adversarial workloads (a rebuild threshold that
    /// never trips is dead code, and a rebuild bug should fail as a counter
    /// assertion, not as a distant label diff). Indexes with no amortised
    /// maintenance return an empty list.
    fn maintenance_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Checks the index's internal structural invariants (bounding-box
    /// containment, subtree counts, id bookkeeping), panicking with a
    /// descriptive message on the first violation.
    ///
    /// This is a test/debug hook: the generic streaming equivalence harness
    /// calls it after every mutation so a broken rebuild fails loudly at the
    /// step that corrupted the structure. The default does nothing (the
    /// brute-force baselines have no structure to check).
    fn check_invariants(&self) {}
}

/// Brute-force ε-range scan over the structure-of-arrays coordinate slices:
/// ids of all points strictly within `eps` of `center`, ascending.
///
/// This is the shared reference implementation of
/// [`UpdatableIndex::eps_neighbors`] used by the index-free baselines
/// (`NaiveReferenceIndex`, `LeanDpc`); real indexes answer the same query
/// through their structure. Keeping one copy pins the contract — strict
/// `fl(d²) < fl(eps²)`, same validation as a cut-off distance — in one
/// place.
pub fn eps_neighbors_scan(dataset: &Dataset, center: Point, eps: f64) -> Result<Vec<PointId>> {
    validate_dc(eps)?;
    let (xs, ys) = dataset.coord_slices();
    let eps2 = eps * eps;
    Ok((0..dataset.len())
        .filter(|&q| {
            let (dx, dy) = (xs[q] - center.x, ys[q] - center.y);
            dx * dx + dy * dy < eps2
        })
        .collect())
}

/// Canonical kernel-weighted ρ scan: for every point `p`, the sum of
/// `kernel` weights over the *other* points strictly within `dc`, accumulated
/// in **ascending neighbour-id order** (the workspace-wide canonical
/// summation order for weighted densities; see [`crate::kernel`]).
///
/// This is the reference implementation every accelerated weighted traversal
/// must match bit-for-bit, and the fallback behind
/// [`DpcIndex::rho_kernel_with_policy`]. Parallelism partitions the *output*
/// points across workers; each point's sum is still accumulated in ascending
/// id order, so results are bit-identical at every thread count.
pub fn weighted_rho_scan(
    dataset: &Dataset,
    dc: f64,
    kernel: Kernel,
    policy: ExecPolicy,
) -> Result<Vec<Rho>> {
    validate_dc(dc)?;
    kernel.validate()?;
    let n = dataset.len();
    let (xs, ys) = dataset.coord_slices();
    let dc2 = dc * dc;
    let mut rho = vec![0.0 as Rho; n];
    crate::exec::fill_slice(
        &mut rho,
        policy,
        || (),
        |i, ()| {
            let (xi, yi) = (xs[i], ys[i]);
            let mut mass = 0.0f64;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let (dx, dy) = (xs[j] - xi, ys[j] - yi);
                let d2 = dx * dx + dy * dy;
                if d2 < dc2 {
                    mass += kernel.weight_from_sq(d2);
                }
            }
            mass
        },
    );
    Ok(rho)
}

/// Validates a cut-off distance, shared by all index implementations.
///
/// Besides rejecting non-positive and non-finite values, this rejects
/// cut-offs whose square leaves the finite f64 range: the sqrt-free hot
/// loops compare squared distances against `dc²` (see [`crate::metric`]),
/// so an *underflowed* square (`dc` ≲ 1.5e-154, `dc²` rounding to 0) would
/// silently classify every point — including coincident ones — as outside
/// the neighbourhood, and an *overflowed* square (`dc` ≳ 1.3e154, `dc²`
/// rounding to +∞) would make the comparison against equally-overflowed
/// pairwise distances undercount. No meaningful dataset has a cut-off within
/// 150 orders of magnitude of either limit.
pub fn validate_dc(dc: f64) -> Result<()> {
    if !(dc.is_finite() && dc > 0.0) {
        return Err(DpcError::invalid_parameter(
            "dc",
            format!(
                "cut-off distance must be a positive finite number \
                 (valid range: approx. 1.5e-154 to 1.3e154), got {dc}"
            ),
        ));
    }
    if dc * dc < f64::MIN_POSITIVE {
        return Err(DpcError::invalid_parameter(
            "dc",
            format!(
                "cut-off distance {dc:e} is below the minimum of approx. 1.5e-154 \
                 (valid range: approx. 1.5e-154 to 1.3e154): its square underflows \
                 f64, which would break the squared-distance comparisons"
            ),
        ));
    }
    if !(dc * dc).is_finite() {
        return Err(DpcError::invalid_parameter(
            "dc",
            format!(
                "cut-off distance {dc:e} is above the maximum of approx. 1.3e154 \
                 (valid range: approx. 1.5e-154 to 1.3e154): its square overflows \
                 f64, which would break the squared-distance comparisons"
            ),
        ));
    }
    Ok(())
}

/// Validates that a `rho` slice covers the whole dataset, shared by all index
/// implementations.
pub fn validate_rho_len(rho: &[Rho], expected: usize) -> Result<()> {
    if rho.len() != expected {
        return Err(DpcError::LengthMismatch {
            expected,
            actual: rho.len(),
            what: "rho slice passed to delta query",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_dc_accepts_positive_finite() {
        assert!(validate_dc(0.1).is_ok());
        assert!(validate_dc(1e9).is_ok());
    }

    #[test]
    fn validate_dc_rejects_bad_values() {
        assert!(validate_dc(0.0).is_err());
        assert!(validate_dc(-1.0).is_err());
        assert!(validate_dc(f64::NAN).is_err());
        assert!(validate_dc(f64::INFINITY).is_err());
    }

    #[test]
    fn validate_dc_rejects_cutoffs_whose_square_underflows() {
        // 1e-170 is positive and finite but (1e-170)² == 0.0 in f64.
        assert!(validate_dc(1e-170).is_err());
        assert!(validate_dc(1e-160).is_err());
        // Just above the underflow limit is fine.
        assert!(validate_dc(1e-150).is_ok());
    }

    #[test]
    fn validate_dc_rejects_cutoffs_whose_square_overflows() {
        // 1e200 is positive and finite but (1e200)² == +inf in f64.
        assert!(validate_dc(1e200).is_err());
        assert!(validate_dc(f64::MAX).is_err());
        let msg = validate_dc(1e200).unwrap_err().to_string();
        assert!(msg.contains("1e200"), "value missing in: {msg}");
        assert!(msg.contains("1.3e154"), "range missing in: {msg}");
        // Just below the overflow limit is fine.
        assert!(validate_dc(1e150).is_ok());
    }

    #[test]
    fn validate_dc_errors_name_the_value_and_the_valid_range() {
        // Out-of-domain values: the message must quote the offending value
        // and state the valid range.
        for bad in [-3.25f64, 0.0, f64::NAN, f64::NEG_INFINITY] {
            let msg = validate_dc(bad).unwrap_err().to_string();
            assert!(msg.contains(&format!("{bad}")), "value missing in: {msg}");
            assert!(msg.contains("1.5e-154"), "range missing in: {msg}");
        }
        // Underflowing values: same requirements through the other branch.
        let msg = validate_dc(1e-170).unwrap_err().to_string();
        assert!(msg.contains("1e-170"), "value missing in: {msg}");
        assert!(msg.contains("1.5e-154"), "range missing in: {msg}");
    }

    /// A delegating wrapper that deliberately does NOT override
    /// `rebuild_from`, pinning the default evict-and-reinsert path.
    struct NoOverride(crate::naive_reference::NaiveReferenceIndex);

    impl DpcIndex for NoOverride {
        fn name(&self) -> &'static str {
            "no-override"
        }
        fn dataset(&self) -> &Dataset {
            self.0.dataset()
        }
        fn rho(&self, dc: f64) -> Result<Vec<crate::density::Rho>> {
            self.0.rho(dc)
        }
        fn delta(&self, dc: f64, rho: &[crate::density::Rho]) -> Result<DeltaResult> {
            self.0.delta(dc, rho)
        }
        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }
        fn stats(&self) -> IndexStats {
            self.0.stats()
        }
    }

    impl UpdatableIndex for NoOverride {
        fn insert(&mut self, p: Point) -> Result<PointId> {
            self.0.insert(p)
        }
        fn remove(&mut self, id: PointId) -> Result<Option<PointId>> {
            self.0.remove(id)
        }
        fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>> {
            self.0.eps_neighbors(center, eps)
        }
    }

    #[test]
    fn default_rebuild_from_replays_the_dataset_in_id_order() {
        let old = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let new = Dataset::from_coords(vec![(5.0, 5.0), (6.0, 6.0)]);
        let mut index = NoOverride(crate::naive_reference::NaiveReferenceIndex::build(&old));
        index.rebuild_from(new.clone()).unwrap();
        assert_eq!(index.len(), 2);
        assert_eq!(index.dataset().points(), new.points());
        // The default is a mutation replay, so the version advances by
        // old_len + new_len on top of the index's own dataset — overrides
        // instead adopt the passed dataset (and its version) verbatim.
        assert_eq!(index.dataset().version(), 3 + 2);
        // Queries match a fresh build over the adopted dataset.
        let fresh = crate::naive_reference::NaiveReferenceIndex::build(&new);
        assert_eq!(index.rho_delta(2.0).unwrap(), fresh.rho_delta(2.0).unwrap());
    }

    #[test]
    fn validate_rho_len_checks_length() {
        assert!(validate_rho_len(&[1.0, 2.0, 3.0], 3).is_ok());
        assert!(validate_rho_len(&[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn weighted_rho_scan_cutoff_matches_integer_counts() {
        let data = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.5, 0.0),
            (0.0, 0.5),
            (5.0, 5.0),
            (5.2, 5.0),
        ]);
        let rho = weighted_rho_scan(
            &data,
            1.0,
            crate::kernel::Kernel::Cutoff,
            ExecPolicy::Sequential,
        )
        .unwrap();
        assert_eq!(rho, vec![2.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn weighted_rho_scan_gaussian_weights_and_truncates() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (0.5, 0.0), (2.0, 0.0)]);
        let k = crate::kernel::Kernel::gaussian(1.0);
        let rho = weighted_rho_scan(&data, 1.0, k, ExecPolicy::Sequential).unwrap();
        let w = k.weight(0.5);
        // Point 2 is outside everyone's dc: weight truncates to exactly 0.
        assert_eq!(rho[2], 0.0);
        assert_eq!(rho[0], w);
        assert_eq!(rho[1], w);
        // Parallel partitioning is bit-identical.
        let rho_par = weighted_rho_scan(&data, 1.0, k, ExecPolicy::Threads(4)).unwrap();
        assert_eq!(rho, rho_par);
    }

    #[test]
    fn weighted_rho_scan_validates_dc_and_kernel() {
        let data = Dataset::from_coords(vec![(0.0, 0.0)]);
        let k = crate::kernel::Kernel::gaussian(1.0);
        assert!(weighted_rho_scan(&data, 0.0, k, ExecPolicy::Sequential).is_err());
        let bad = crate::kernel::Kernel::gaussian(-1.0);
        assert!(weighted_rho_scan(&data, 1.0, bad, ExecPolicy::Sequential).is_err());
    }

    #[test]
    fn index_stats_counters() {
        let s = IndexStats::new(Duration::from_millis(5), 1024)
            .with_counter("nodes", 17)
            .with_counter("height", 3);
        assert_eq!(s.counter("nodes"), Some(17));
        assert_eq!(s.counter("height"), Some(3));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.memory_bytes, 1024);
    }
}
