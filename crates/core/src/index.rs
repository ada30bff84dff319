//! The [`DpcIndex`] trait — the seam between the clustering pipeline and the
//! concrete index structures — and the [`Query`] every index answers.
//!
//! An index is built once over a dataset and can then answer, for *any*
//! cut-off distance `dc`, the two expensive DPC queries:
//!
//! * the **ρ-query** ([`DpcIndex::rho`]): local density of every point,
//! * the **δ-query** ([`DpcIndex::delta`]): dependent distance and dependent
//!   neighbour of every point (given the densities).
//!
//! The motivation in the paper is exactly this split: the user typically runs
//! DPC for many `dc` values while searching for a satisfactory clustering, so
//! the index is amortised across runs. Everything else about a run — the
//! density kernel, how many threads the per-point work spreads over, and
//! where its telemetry goes — is a property of the [`Query`], not of the
//! index, so each index has exactly one entry point per query.

use std::time::Duration;

use dpc_obs::{NoopRecorder, Recorder};

use crate::brute;
use crate::delta::{DeltaResult, DensityOrder};
use crate::density::Rho;
use crate::error::{DpcError, Result};
use crate::exec::{self, ExecPolicy};
use crate::kernel::Kernel;
use crate::point::{Dataset, Point, PointId};

/// One ρ/δ query: the cut-off distance plus how to answer it.
///
/// [`Query::new`] gives the paper's setting — the cut-off kernel, sequential
/// execution, no telemetry — and the builders change one property each:
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{Dataset, DpcIndex, ExecPolicy, Kernel, Query};
/// use dpc_obs::MetricsRecorder;
///
/// let data = Dataset::from_coords(vec![(0.0, 0.0), (0.5, 0.0), (3.0, 0.0)]);
/// let index = NaiveReferenceIndex::build(&data);
/// let (rho, _) = index.rho_delta(&Query::new(1.0)).unwrap();
/// assert_eq!(rho, vec![1.0, 1.0, 0.0]);
///
/// let metrics = MetricsRecorder::new();
/// let query = Query::new(1.0)
///     .with_kernel(Kernel::gaussian(1.0))
///     .with_exec(ExecPolicy::Threads(2))
///     .with_recorder(&metrics);
/// let (weighted, _) = index.rho_delta(&query).unwrap();
/// assert!(weighted[0] > 0.0 && weighted[0] < 1.0);
/// ```
///
/// Neither the kernel's accelerated traversal, the thread count nor the
/// recorder changes a result: every index returns bit-identical ρ, δ and µ
/// for the same `dc` and kernel under every policy and recorder.
#[derive(Debug, Clone, Copy)]
pub struct Query<'r> {
    /// Cut-off distance defining the density neighbourhood.
    pub dc: f64,
    /// Density kernel weighting the neighbours within `dc`.
    pub kernel: Kernel,
    /// How the per-point work is partitioned across threads.
    pub exec: ExecPolicy,
    /// Where the query reports per-worker chunk spans and traversal
    /// counters; the no-op recorder keeps nothing and costs one branch.
    pub recorder: &'r dyn Recorder,
}

impl Query<'static> {
    /// A query for `dc` with the cut-off kernel, sequential execution and
    /// the no-op recorder.
    pub fn new(dc: f64) -> Self {
        Query {
            dc,
            kernel: Kernel::Cutoff,
            exec: ExecPolicy::Sequential,
            recorder: &NoopRecorder,
        }
    }
}

impl<'r> Query<'r> {
    /// Sets the density kernel.
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        Query { kernel, ..self }
    }

    /// Sets the execution policy.
    pub fn with_exec(self, exec: ExecPolicy) -> Self {
        Query { exec, ..self }
    }

    /// Reports the query's telemetry to `recorder`.
    pub fn with_recorder<'s>(self, recorder: &'s dyn Recorder) -> Query<'s> {
        Query {
            dc: self.dc,
            kernel: self.kernel,
            exec: self.exec,
            recorder,
        }
    }

    /// Checks `dc` ([`validate_dc`]) and the kernel's bandwidth
    /// ([`Kernel::validate`]); every index calls this before a ρ-query.
    pub fn validate(&self) -> Result<()> {
        validate_dc(self.dc)?;
        self.kernel.validate()
    }

    /// [`validate`](Self::validate) plus the length of the densities a
    /// δ-query over `n` points receives.
    pub fn validate_delta(&self, rho: &[Rho], n: usize) -> Result<()> {
        self.validate()?;
        validate_rho_len(rho, n)
    }

    /// [`validate_delta`](Self::validate_delta) plus the range of the ids a
    /// [`UpdatableIndex::delta_targets`] query over `n` points receives.
    pub fn validate_targets(&self, rho: &[Rho], n: usize, targets: &[PointId]) -> Result<()> {
        self.validate_delta(rho, n)?;
        match targets.iter().find(|&&p| p >= n) {
            Some(&p) => Err(DpcError::invalid_parameter(
                "targets",
                format!("target id {p} is out of range (valid range: 0 <= id < {n})"),
            )),
            None => Ok(()),
        }
    }

    /// Runs a per-point ρ body over `n` points on the [`exec`] engine under
    /// this query's policy, reporting `query.rho.chunk` spans to its
    /// recorder. Returns the densities and the per-worker scratches.
    pub fn fill_rho<S, M, B>(&self, n: usize, make_scratch: M, body: B) -> (Vec<Rho>, Vec<S>)
    where
        S: Send,
        M: Fn() -> S + Sync,
        B: Fn(PointId, &mut S) -> Rho + Sync,
    {
        let mut rho = vec![0.0; n];
        let scratches = exec::fill_slice(
            &mut rho,
            self.exec,
            self.recorder,
            "query.rho.chunk",
            make_scratch,
            body,
        );
        (rho, scratches)
    }

    /// Runs a per-point `(δ, µ)` body over `n` points like
    /// [`fill_rho`](Self::fill_rho), reporting `query.delta.chunk` spans.
    pub fn fill_delta<S, M, B>(&self, n: usize, make_scratch: M, body: B) -> (DeltaResult, Vec<S>)
    where
        S: Send,
        M: Fn() -> S + Sync,
        B: Fn(PointId, &mut S) -> (f64, Option<PointId>) + Sync,
    {
        let mut result = DeltaResult::unset(n);
        let scratches = exec::fill_slice_pair(
            &mut result.delta,
            &mut result.mu,
            self.exec,
            self.recorder,
            "query.delta.chunk",
            make_scratch,
            |p, delta, mu, scratch| (*delta, *mu) = body(p, scratch),
        );
        (result, scratches)
    }
}

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
/// * `ρ(p)` sums the [`Kernel`] weight of the *other* points `q` with
///   `fl(d²(p, q)) < fl(dc²)` (for the cut-off kernel: counts them);
/// * "denser" is the total order of [`DensityOrder`]:
///   higher ρ, then smaller id;
/// * `µ(p)` is the lexicographic minimum of `(fl(d²), id)` over the points
///   denser than `p` ([`closer`](crate::metric::closer)), and `δ(p)` the
///   root of that `fl(d²)`;
/// * the global peak gets `µ = None` and `δ` = the root of its largest
///   `fl(d²)` to any other point.
///
/// Exact indices (List, CH, Quadtree, R-tree, k-d tree, grid and the
/// baselines) return results bit-identical to the [`crate::brute`] kernels,
/// under every kernel, [`ExecPolicy`] and recorder of the [`Query`].
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

    /// Computes the local density of every point.
    ///
    /// Returns [`DpcError::InvalidParameter`] when the query's `dc` or
    /// kernel is invalid ([`Query::validate`]).
    fn rho(&self, query: &Query<'_>) -> Result<Vec<Rho>>;

    /// Computes `δ` and `µ` for every point, given per-point densities
    /// previously obtained from [`rho`](DpcIndex::rho).
    ///
    /// The query's `dc` is passed through because approximate indices need
    /// it to decide whether a truncated neighbourhood is sufficient; the
    /// kernel does not matter here, since δ only reads the densities through
    /// their order.
    fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult>;

    /// Runs the ρ-query and δ-query back to back.
    fn rho_delta(&self, query: &Query<'_>) -> Result<(Vec<Rho>, DeltaResult)> {
        let rho = self.rho(query)?;
        let delta = self.delta(query, &rho)?;
        Ok((rho, delta))
    }

    /// [`rho_delta`](DpcIndex::rho_delta) for the cut-off kernel under
    /// `policy`, reporting to `rec`.
    fn rho_delta_observed(
        &self,
        dc: f64,
        policy: ExecPolicy,
        rec: &dyn Recorder,
    ) -> Result<(Vec<Rho>, DeltaResult)> {
        self.rho_delta(&Query::new(dc).with_exec(policy).with_recorder(rec))
    }

    /// Analytic heap footprint of the index in bytes.
    fn memory_bytes(&self) -> usize;

    /// Construction statistics recorded while building the index.
    fn stats(&self) -> IndexStats;

    /// Whether the index guarantees results identical to the naive baseline
    /// (`true`) or may trade accuracy for memory (`false`).
    fn is_exact(&self) -> bool {
        true
    }
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
/// The engine builds the index once, when it is seeded, and from then on
/// only mutates it in place: one [`insert`](UpdatableIndex::insert) or
/// [`remove`](UpdatableIndex::remove) per op of an epoch,
/// [`eps_neighbors`](UpdatableIndex::eps_neighbors) for the ρ repair, and
/// [`delta_targets`](UpdatableIndex::delta_targets) or [`DpcIndex::delta`]
/// for the δ/µ repair. An index with amortised maintenance (the k-d tree's
/// rebuilds) runs it inside the insert or remove that trips it.
///
/// ## Contract
///
/// * The index's [`dataset`](DpcIndex::dataset) mirrors the mutations:
///   [`insert`](UpdatableIndex::insert) appends (new id = old `len()`),
///   [`remove`](UpdatableIndex::remove) uses *swap-remove* semantics exactly
///   like [`Dataset::swap_remove`] — the last point is renamed to the removed
///   id, and the old id of the moved point is returned so callers can fix up
///   external references.
/// * After any sequence of updates, every [`DpcIndex`] query and
///   [`delta_targets`](UpdatableIndex::delta_targets) must return exactly
///   what a freshly built index over the same dataset would return.
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

    /// Ids of all points strictly within `eps` of `center`, ascending.
    ///
    /// Strictness matches the ρ definition (`dist < eps`), so
    /// `eps_neighbors(point(p), dc)` returns exactly the points whose ρ a
    /// mutation of `p` touches (including `p` itself when it is indexed —
    /// its distance to its own location is 0). `eps` is validated like a
    /// cut-off distance ([`validate_dc`]).
    fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>>;

    /// δ and µ of each point of `targets` under the density order of
    /// `rho`: entry `k` of the result (which has `targets.len()` entries)
    /// belongs to `targets[k]`. This is how the streaming engine repairs the
    /// points whose dependent neighbour an epoch may have invalidated.
    ///
    /// Every entry must be bit-identical to [`brute::delta_one`] of its
    /// target — the `(fl(d²), id)` minimum over the denser points, or the
    /// global peak's largest distance with `µ = None` — under every
    /// execution policy and recorder of the query. The default runs that kernel per target on
    /// the query's executor, O(n) each; the tree indexes override it with
    /// the pruned search of their batch δ-query.
    ///
    /// Errors like [`DpcIndex::delta`] for an invalid query or `rho`, and for
    /// a target id out of range ([`Query::validate_targets`]).
    fn delta_targets(
        &self,
        query: &Query<'_>,
        rho: &[Rho],
        targets: &[PointId],
    ) -> Result<DeltaResult> {
        query.validate_targets(rho, self.len(), targets)?;
        let (dataset, order) = (self.dataset(), DensityOrder::new(rho));
        let fill = query.fill_delta(
            targets.len(),
            || (),
            |k, ()| brute::delta_one(dataset, &order, targets[k]),
        );
        Ok(fill.0)
    }

    /// Counters describing the amortised structural maintenance the index
    /// has performed so far (the k-d tree's subtree and full rebuilds, the
    /// grid's re-buckets, …).
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
    /// `delta_targets`, pinning the default brute kernel per target.
    struct NoOverride(crate::naive_reference::NaiveReferenceIndex);

    impl DpcIndex for NoOverride {
        fn name(&self) -> &'static str {
            "no-override"
        }
        fn dataset(&self) -> &Dataset {
            self.0.dataset()
        }
        fn rho(&self, query: &Query<'_>) -> Result<Vec<Rho>> {
            self.0.rho(query)
        }
        fn delta(&self, query: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
            self.0.delta(query, rho)
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
    fn default_delta_targets_runs_the_brute_kernel_per_target() {
        let data = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.1, 0.0),
            (0.0, 0.1),
            (5.0, 5.0),
            (5.1, 5.0),
            (2.5, 2.5),
        ]);
        let index = NoOverride(crate::naive_reference::NaiveReferenceIndex::build(&data));
        let query = Query::new(0.3);
        let (rho, all) = index.rho_delta(&query).unwrap();
        // Repeated and unordered targets; the global peak among them.
        let targets = [4, 1, 4, all.mu.iter().position(Option::is_none).unwrap()];
        for exec in [ExecPolicy::Sequential, ExecPolicy::Threads(3)] {
            let got = index
                .delta_targets(&query.with_exec(exec), &rho, &targets)
                .unwrap();
            assert_eq!(got.len(), targets.len());
            for (k, &p) in targets.iter().enumerate() {
                assert_eq!(got.delta[k].to_bits(), all.delta[p].to_bits(), "target {p}");
                assert_eq!(got.mu[k], all.mu[p], "target {p}");
            }
        }
        let err = index
            .delta_targets(&query, &rho, &[6])
            .unwrap_err()
            .to_string();
        assert!(err.contains("6") && err.contains("valid range"), "{err}");
        assert!(index.delta_targets(&query, &rho[..5], &[0]).is_err());
        assert!(index.delta_targets(&query, &rho, &[]).unwrap().is_empty());
    }

    #[test]
    fn validate_rho_len_checks_length() {
        assert!(validate_rho_len(&[1.0, 2.0, 3.0], 3).is_ok());
        assert!(validate_rho_len(&[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn query_validation_checks_dc_kernel_and_rho_length() {
        let query = Query::new(1.0).with_kernel(Kernel::gaussian(1.0));
        assert!(query.validate().is_ok());
        assert!(query.validate_delta(&[0.0; 2], 2).is_ok());
        assert!(query.validate_delta(&[0.0; 2], 3).is_err());
        assert!(Query::new(0.0).validate().is_err());
        let bad_kernel = Query::new(1.0).with_kernel(Kernel::gaussian(-1.0));
        assert!(bad_kernel.validate().is_err());
        assert!(bad_kernel.validate_delta(&[0.0; 2], 2).is_err());
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
