//! The per-epoch commit policy of the streaming engine: [`CommitPolicy`]
//! and the calibrated [`CostModel`] behind its adaptive variant.
//!
//! The policy was built for a performance cliff: while the
//! `max_affected_fraction` fallback recomputed δ/µ by brute force, a fresh
//! bulk rebuild plus the index's *pruned* batch queries beat incremental
//! maintenance by 2–9× at batch 64, and lost by 3–9× at batch 1. The
//! fallback and the invalidation-set repair now run the index's pruned δ
//! search too, and the regenerated `BENCH_stream.json` has incremental
//! maintenance ahead in every cell (1.0–1.4× at batch 64, 4.0–10.9× at
//! batch 1). The engine still chooses **per epoch**:
//!
//! * [`CommitPolicy::AlwaysIncremental`] — the affected-set repair pipeline
//!   (with its documented fallback), the pre-policy behaviour and still the
//!   default;
//! * [`CommitPolicy::AlwaysRebuild`] — bulk-load the final window
//!   ([`UpdatableIndex::rebuild_from`](dpc_core::UpdatableIndex::rebuild_from))
//!   and re-run the batch ρ/δ queries every epoch;
//! * [`CommitPolicy::Adaptive`] — predict both costs with a [`CostModel`]
//!   **before mutating anything** and take the cheaper path.
//!
//! The model keeps three per-engine EWMA estimates: the incremental cost per
//! invalidated point, the rebuild cost per window point, and the measured
//! invalidation-set size per plan operation. All three are seeded by a
//! one-shot calibration inside `StreamingDpc::new` — the seeding batch query
//! is timed for the rebuild rate, one
//! [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets)
//! call over a handful of probe points for the incremental rate, and the mean
//! ρ for the union prior — and then updated
//! online from observed epoch timings, so the model tracks the actual window
//! size, point distribution and machine. Whichever path is taken, the
//! committed state is **bit-identical** (both paths are anchored to the cold
//! batch oracle), so a misprediction costs time, never correctness.

use dpc_core::{DpcError, Result};

/// How [`StreamingDpc::commit`](crate::StreamingDpc::commit) maintains the
/// clustering each epoch. See the [module docs](self) for the trade-off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Always repair incrementally (affected-set ρ repair + bounded δ/µ
    /// recompute, falling back to a full δ/µ recomputation past
    /// `max_affected_fraction`). The default, and the pre-policy behaviour.
    #[default]
    AlwaysIncremental,
    /// Always bulk-rebuild the index over the epoch's final window and
    /// re-run the batch ρ/δ queries.
    AlwaysRebuild,
    /// Predict both costs with the calibrated [`CostModel`] before mutating
    /// and take the cheaper path.
    Adaptive,
}

impl CommitPolicy {
    /// The policy's stable name (CLI value and report field).
    pub fn name(self) -> &'static str {
        match self {
            CommitPolicy::AlwaysIncremental => "incremental",
            CommitPolicy::AlwaysRebuild => "rebuild",
            CommitPolicy::Adaptive => "adaptive",
        }
    }

    /// Parses a CLI policy name.
    pub fn parse(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "incremental" | "inc" => Ok(CommitPolicy::AlwaysIncremental),
            "rebuild" => Ok(CommitPolicy::AlwaysRebuild),
            "adaptive" | "auto" => Ok(CommitPolicy::Adaptive),
            other => Err(DpcError::invalid_parameter(
                "policy",
                format!("unknown commit policy {other:?} (valid: incremental, rebuild, adaptive)"),
            )),
        }
    }
}

/// What one committed epoch actually did — recorded in
/// [`StreamStats::last_epoch_mode`](crate::StreamStats::last_epoch_mode) so
/// the policy's choices are observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// Affected-set repair: candidate fold + bounded δ/µ recompute.
    Incremental,
    /// Incremental path, but the invalidation set exceeded
    /// `max_affected_fraction` and δ/µ were recomputed for every point.
    Fallback,
    /// Bulk index rebuild + batch ρ/δ queries over the final window.
    Rebuild,
    /// A pure decay tick ([`StreamingDpc::tick`](crate::StreamingDpc::tick)):
    /// no window mutation, one scalar ρ aging pass plus a full δ/µ re-rank,
    /// zero ε-queries.
    Decay,
}

impl EpochMode {
    /// The mode's stable name (log lines and report fields).
    pub fn name(self) -> &'static str {
        match self {
            EpochMode::Incremental => "incremental",
            EpochMode::Fallback => "fallback",
            EpochMode::Rebuild => "rebuild",
            EpochMode::Decay => "decay",
        }
    }
}

/// The adaptive policy's verdict for one epoch, computed **before** any
/// mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted invalidation-set size |F| (clamped to the window).
    pub invalidated: f64,
    /// Predicted cost of the incremental path in µs (including its own
    /// fallback, when the predicted |F| exceeds the fallback threshold).
    pub incremental_us: f64,
    /// Predicted cost of the rebuild path in µs (after the configured bias).
    pub rebuild_us: f64,
    /// True when the rebuild path is predicted strictly cheaper.
    pub rebuild_wins: bool,
}

impl Prediction {
    /// Predicted cost of the winning path in µs.
    pub fn chosen_us(&self) -> f64 {
        if self.rebuild_wins {
            self.rebuild_us
        } else {
            self.incremental_us
        }
    }
}

/// Exponential moving average step.
fn ewma(alpha: f64, old: f64, sample: f64) -> f64 {
    old + alpha * (sample - old)
}

/// Floor for the per-point rate estimates: timers can observe 0 µs on tiny
/// windows, and a zero rate would pin one path as free forever.
const MIN_RATE_US: f64 = 1e-3;

/// Per-engine EWMA estimates of the two commit paths' costs, seeded by a
/// one-shot calibration and updated online from observed epoch timings. See
/// the [module docs](self) for how the estimates are obtained and used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// µs of incremental δ/µ repair per invalidated point. The fallback
    /// runs the same per-point index search — the batch δ-query instead of
    /// `delta_targets`, over every window point — so it updates this rate
    /// too (with the whole window as the target set).
    inc_us_per_point: f64,
    /// µs of bulk rebuild + batch ρ/δ queries per window point.
    rebuild_us_per_point: f64,
    /// Measured invalidation-set size per plan operation.
    union_per_update: f64,
    /// EWMA smoothing factor α ∈ (0, 1].
    alpha: f64,
}

impl CostModel {
    /// Seeds the model from the one-shot calibration of
    /// `StreamingDpc::new`: the timed seeding batch query (`rebuild_us` per
    /// point), timed `delta_targets` probes (`inc_us` per point) and the mean
    /// ρ plus one as the union prior (an update invalidates its
    /// ε-neighbourhood plus itself).
    pub fn seeded(
        rebuild_us_per_point: f64,
        inc_us_per_point: f64,
        union_per_update: f64,
        alpha: f64,
    ) -> Self {
        CostModel {
            inc_us_per_point: inc_us_per_point.max(MIN_RATE_US),
            rebuild_us_per_point: rebuild_us_per_point.max(MIN_RATE_US),
            union_per_update: union_per_update.max(1.0),
            alpha,
        }
    }

    /// Current µs-per-invalidated-point estimate of the incremental path.
    pub fn inc_us_per_point(&self) -> f64 {
        self.inc_us_per_point
    }

    /// Current µs-per-window-point estimate of the rebuild path.
    pub fn rebuild_us_per_point(&self) -> f64 {
        self.rebuild_us_per_point
    }

    /// Current invalidated-points-per-update estimate.
    pub fn union_per_update(&self) -> f64 {
        self.union_per_update
    }

    /// Folds in an observed incremental epoch: `invalidated` points repaired
    /// for `updates` plan ops in `micros` µs.
    pub fn observe_incremental(&mut self, invalidated: usize, updates: usize, micros: f64) {
        let per_point = micros / invalidated.max(1) as f64;
        self.inc_us_per_point = ewma(
            self.alpha,
            self.inc_us_per_point,
            per_point.max(MIN_RATE_US),
        );
        self.observe_union(invalidated, updates);
    }

    /// Folds in an observed fallback epoch: the whole window (`n` points)
    /// was recomputed with the incremental kernels after `updates` plan ops
    /// produced an invalidation set of `invalidated`.
    pub fn observe_fallback(&mut self, n: usize, invalidated: usize, updates: usize, micros: f64) {
        let per_point = micros / n.max(1) as f64;
        self.inc_us_per_point = ewma(
            self.alpha,
            self.inc_us_per_point,
            per_point.max(MIN_RATE_US),
        );
        self.observe_union(invalidated, updates);
    }

    /// Folds in an observed rebuild epoch over a window of `n` points.
    ///
    /// The rebuild path never measures an invalidation set, so the union
    /// estimate is left untouched during rebuild streaks — the stored value
    /// keeps predicting the incremental path's fallback behaviour until an
    /// incremental epoch refreshes it.
    pub fn observe_rebuild(&mut self, n: usize, micros: f64) {
        let per_point = micros / n.max(1) as f64;
        self.rebuild_us_per_point = ewma(
            self.alpha,
            self.rebuild_us_per_point,
            per_point.max(MIN_RATE_US),
        );
    }

    fn observe_union(&mut self, invalidated: usize, updates: usize) {
        let per_update = invalidated as f64 / updates.max(1) as f64;
        self.union_per_update = ewma(self.alpha, self.union_per_update, per_update.max(1.0));
    }

    /// Predicts both paths' costs for an epoch of `updates` plan ops over a
    /// final window of `n` points, **before** anything is mutated.
    ///
    /// The predicted invalidation set is `union_per_update · updates`
    /// clamped to the window; when it exceeds `max_affected_fraction · n`
    /// the incremental path is predicted at its fallback cost (every window
    /// point through the index's δ-query). The rebuild prediction is
    /// multiplied by `rebuild_bias`, so callers can make the switch sticky
    /// in either direction.
    pub fn predict(
        &self,
        updates: usize,
        n: usize,
        max_affected_fraction: f64,
        rebuild_bias: f64,
    ) -> Prediction {
        let n_f = n as f64;
        let invalidated = (self.union_per_update * updates as f64).min(n_f);
        let incremental_targets = if invalidated > max_affected_fraction * n_f {
            n_f
        } else {
            invalidated
        };
        let incremental_us = incremental_targets * self.inc_us_per_point;
        let rebuild_us = n_f * self.rebuild_us_per_point * rebuild_bias;
        Prediction {
            invalidated,
            incremental_us,
            rebuild_us,
            rebuild_wins: n > 0 && rebuild_us < incremental_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            CommitPolicy::AlwaysIncremental,
            CommitPolicy::AlwaysRebuild,
            CommitPolicy::Adaptive,
        ] {
            assert_eq!(CommitPolicy::parse(policy.name()).unwrap(), policy);
        }
        assert_eq!(CommitPolicy::parse("AUTO").unwrap(), CommitPolicy::Adaptive);
        assert_eq!(
            CommitPolicy::parse(" inc ").unwrap(),
            CommitPolicy::AlwaysIncremental
        );
        let err = CommitPolicy::parse("hybrid").unwrap_err().to_string();
        assert!(err.contains("hybrid"), "{err}");
        assert!(err.contains("adaptive"), "{err}");
        assert_eq!(CommitPolicy::default(), CommitPolicy::AlwaysIncremental);
    }

    #[test]
    fn epoch_mode_names_are_stable() {
        assert_eq!(EpochMode::Incremental.name(), "incremental");
        assert_eq!(EpochMode::Fallback.name(), "fallback");
        assert_eq!(EpochMode::Rebuild.name(), "rebuild");
        assert_eq!(EpochMode::Decay.name(), "decay");
    }

    #[test]
    fn small_epochs_predict_incremental_large_epochs_predict_rebuild() {
        // Brute incremental repair is 10× the per-point rebuild rate, and an
        // update invalidates ~8 points: one update is far cheaper to repair,
        // a 64-op epoch trips the fallback and the rebuild must win.
        let model = CostModel::seeded(1.0, 10.0, 8.0, 0.3);
        let small = model.predict(1, 1000, 0.25, 1.0);
        assert!(!small.rebuild_wins, "{small:?}");
        assert!(small.incremental_us < small.rebuild_us);
        let large = model.predict(128, 1000, 0.25, 1.0);
        assert!(large.rebuild_wins, "{large:?}");
        assert_eq!(large.invalidated, 1000.0); // clamped to the window
        assert_eq!(large.chosen_us(), large.rebuild_us);
    }

    #[test]
    fn rebuild_bias_shifts_the_crossover() {
        let model = CostModel::seeded(1.0, 10.0, 8.0, 0.3);
        // Past the fallback threshold both predictions are ~n·rate; a large
        // enough bias keeps the incremental path predicted cheaper anyway.
        assert!(model.predict(128, 1000, 0.25, 1.0).rebuild_wins);
        assert!(!model.predict(128, 1000, 0.25, 20.0).rebuild_wins);
    }

    #[test]
    fn observations_move_the_estimates_toward_the_samples() {
        let mut model = CostModel::seeded(1.0, 1.0, 4.0, 0.5);
        // Observed incremental epochs are much more expensive per point.
        model.observe_incremental(10, 2, 200.0); // 20 µs/point
        assert!(model.inc_us_per_point() > 1.0);
        assert!(model.inc_us_per_point() < 20.0); // EWMA, not replacement
        model.observe_rebuild(100, 50.0); // 0.5 µs/point
        assert!(model.rebuild_us_per_point() < 1.0);
        // The union estimate follows the measured |F| per update.
        let before = model.union_per_update();
        model.observe_fallback(100, 80, 2, 1000.0); // 40 invalidated/update
        assert!(model.union_per_update() > before);
    }

    #[test]
    fn zero_samples_never_poison_the_rates() {
        let mut model = CostModel::seeded(0.0, 0.0, 0.0, 1.0);
        model.observe_incremental(0, 0, 0.0);
        model.observe_rebuild(0, 0.0);
        let p = model.predict(1, 100, 0.25, 1.0);
        assert!(p.incremental_us > 0.0);
        assert!(p.rebuild_us > 0.0);
        // An empty window never predicts a rebuild win.
        assert!(!model.predict(1, 0, 0.25, 1.0).rebuild_wins);
    }
}
