//! Local density (`ρ`) representation.
//!
//! The paper defines the local density of an object `p` as the number of
//! *other* objects within the cut-off distance `dc`:
//!
//! ```text
//! ρ(p) = |{ q ∈ P, q ≠ p : dist(p, q) < dc }|
//! ```
//!
//! i.e. the indicator `χ(dist(p,q) − dc)` is 1 exactly when the distance is
//! *strictly* smaller than `dc` and the point itself is never counted. Every
//! index in this workspace follows that convention so their results are
//! bit-identical to the naive baseline.
//!
//! ## Weighted densities
//!
//! With a pluggable [`Kernel`](crate::Kernel) the indicator generalises to a
//! weight `w(dist(p,q))` for neighbours strictly within `dc` (truncated
//! kernels; see [`crate::kernel`]), so `ρ` is an `f64`. The paper-faithful
//! [`Kernel::Cutoff`](crate::Kernel::Cutoff) keeps every weight exactly
//! `1.0`: sums of exact ones are exact integers in f64 (up to 2⁵³ ≫ any
//! window), so the cut-off path remains **bit-identical** to the historical
//! integer-count representation.

/// Local density of a single point: the (possibly kernel-weighted) mass of
/// neighbours within `dc`. Under [`Kernel::Cutoff`](crate::Kernel::Cutoff)
/// this is an exact integer-valued count.
pub type Rho = f64;
