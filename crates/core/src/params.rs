//! Parameters of a DPC run.

use crate::assign::AssignmentOptions;
use crate::decision::CenterSelection;
use crate::error::{DpcError, Result};
use crate::exec::ExecPolicy;
use crate::index::Query;
use crate::kernel::Kernel;

/// All parameters needed to turn an index's ρ/δ answers into a clustering.
///
/// The only mandatory parameter is the cut-off distance `dc` — the parameter
/// whose sensitivity motivates the whole paper. Centre selection defaults to
/// the automatic γ-gap heuristic and halo computation is off by default.
#[derive(Debug, Clone, PartialEq)]
pub struct DpcParams {
    /// Cut-off distance defining the density neighbourhood.
    pub dc: f64,
    /// How cluster centres are chosen from the decision graph.
    pub centers: CenterSelection,
    /// Assignment options (halo computation).
    pub assignment: AssignmentOptions,
    /// How the per-point ρ/δ queries are partitioned across threads.
    /// Defaults to [`ExecPolicy::Sequential`] so measurements stay
    /// paper-faithful unless parallelism is explicitly requested.
    pub exec: ExecPolicy,
    /// Density kernel weighting neighbours within `dc`. Defaults to the
    /// paper-faithful [`Kernel::Cutoff`] (every neighbour counts exactly 1).
    pub kernel: Kernel,
}

impl DpcParams {
    /// Parameters with the given `dc` and defaults for everything else.
    pub fn new(dc: f64) -> Self {
        DpcParams {
            dc,
            centers: CenterSelection::default(),
            assignment: AssignmentOptions::default(),
            exec: ExecPolicy::default(),
            kernel: Kernel::default(),
        }
    }

    /// Sets the centre-selection strategy.
    pub fn with_centers(mut self, centers: CenterSelection) -> Self {
        self.centers = centers;
        self
    }

    /// Enables or disables halo computation.
    pub fn with_halo(mut self, compute_halo: bool) -> Self {
        self.assignment = AssignmentOptions { compute_halo };
        self
    }

    /// Sets the execution policy for the ρ/δ queries.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Convenience: runs the ρ/δ queries on `threads` worker threads
    /// (`threads <= 1` keeps the sequential default).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_exec(ExecPolicy::from_threads(threads))
    }

    /// Sets the density kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The ρ/δ [`Query`] these parameters describe: `dc`, the kernel and
    /// the execution policy, with the no-op recorder.
    pub fn query(&self) -> Query<'static> {
        Query::new(self.dc)
            .with_kernel(self.kernel)
            .with_exec(self.exec)
    }

    /// Validates the parameters: `dc` must pass the same checks every index
    /// applies at query time ([`validate_dc`](crate::index::validate_dc)),
    /// the kernel's bandwidth must be in range ([`Kernel::validate`]), a
    /// γ-ranked centre selection must ask for at least one centre, and a
    /// threshold selection must not compare against NaN.
    pub fn validate(&self) -> Result<()> {
        crate::index::validate_dc(self.dc)?;
        self.kernel.validate()?;
        match self.centers {
            CenterSelection::TopKGamma { k: 0 } => Err(DpcError::invalid_parameter(
                "k",
                "top-k selection must select at least one centre (valid range: k >= 1), got 0",
            )),
            CenterSelection::GammaGap { max_centers: 0 } => Err(DpcError::invalid_parameter(
                "max_centers",
                "γ-gap selection must consider at least one centre \
                 (valid range: max_centers >= 1), got 0",
            )),
            CenterSelection::Threshold { rho_min, delta_min } => {
                for (name, value) in [("rho_min", rho_min), ("delta_min", delta_min)] {
                    if value.is_nan() {
                        return Err(DpcError::invalid_parameter(
                            name,
                            format!(
                                "threshold selection compares against a number \
                                 (valid range: any non-NaN value), got {value}"
                            ),
                        ));
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let p = DpcParams::new(0.5)
            .with_centers(CenterSelection::TopKGamma { k: 3 })
            .with_halo(true)
            .with_threads(4);
        assert_eq!(p.dc, 0.5);
        assert_eq!(p.centers, CenterSelection::TopKGamma { k: 3 });
        assert!(p.assignment.compute_halo);
        assert_eq!(p.exec, ExecPolicy::Threads(4));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn defaults_are_sensible() {
        let p = DpcParams::new(1.0);
        assert!(!p.assignment.compute_halo);
        assert!(matches!(p.centers, CenterSelection::GammaGap { .. }));
        assert_eq!(p.exec, ExecPolicy::Sequential);
    }

    #[test]
    fn one_thread_stays_sequential() {
        assert_eq!(
            DpcParams::new(1.0).with_threads(1).exec,
            ExecPolicy::Sequential
        );
        assert_eq!(
            DpcParams::new(1.0).with_threads(0).exec,
            ExecPolicy::Sequential
        );
        assert_eq!(
            DpcParams::new(1.0).with_exec(ExecPolicy::Threads(3)).exec,
            ExecPolicy::Threads(3)
        );
    }

    #[test]
    fn validation_rejects_non_positive_dc() {
        assert!(DpcParams::new(0.0).validate().is_err());
        assert!(DpcParams::new(-1.0).validate().is_err());
        assert!(DpcParams::new(f64::NAN).validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_centres_and_nan_thresholds() {
        let with = |centers| DpcParams::new(1.0).with_centers(centers).validate();
        let err = with(CenterSelection::GammaGap { max_centers: 0 })
            .unwrap_err()
            .to_string();
        for needle in ["max_centers", "0", "valid range"] {
            assert!(err.contains(needle), "{needle:?} missing in: {err}");
        }
        assert!(with(CenterSelection::TopKGamma { k: 0 }).is_err());
        for (rho_min, delta_min, name) in [(f64::NAN, 1.0, "rho_min"), (1.0, f64::NAN, "delta_min")]
        {
            let err = with(CenterSelection::Threshold { rho_min, delta_min })
                .unwrap_err()
                .to_string();
            for needle in [name, "NaN", "valid range"] {
                assert!(err.contains(needle), "{needle:?} missing in: {err}");
            }
        }
        assert!(with(CenterSelection::GammaGap { max_centers: 1 }).is_ok());
        assert!(with(CenterSelection::Threshold {
            rho_min: f64::NEG_INFINITY,
            delta_min: 0.0
        })
        .is_ok());
    }

    #[test]
    fn default_kernel_is_cutoff_and_with_kernel_sets_it() {
        let p = DpcParams::new(1.0);
        assert_eq!(p.kernel, Kernel::Cutoff);
        let p = p.with_kernel(Kernel::gaussian(1.0));
        assert_eq!(p.kernel, Kernel::gaussian(1.0));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_kernel_bandwidths() {
        assert!(DpcParams::new(1.0)
            .with_kernel(Kernel::gaussian(0.0))
            .validate()
            .is_err());
        assert!(DpcParams::new(1.0)
            .with_kernel(Kernel::exponential(f64::NAN))
            .validate()
            .is_err());
    }
}
