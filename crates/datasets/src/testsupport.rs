//! Deterministic point-set generators shared by the workspace's test suites.
//!
//! Before this module existed, every test file rolled its own point
//! distributions — the tree-index property tests drew uniform coordinates,
//! the streaming equivalence suite used a coarse integer lattice, and the
//! index unit tests sampled the paper-shaped generators — so "the k-d tree
//! is tested on skewed data" and "the streaming engine is tested on skewed
//! data" quietly meant different things. All suites now draw from the four
//! distributions here, each chosen to stress a different structural failure
//! mode:
//!
//! * [`TestDistribution::Uniform`] — no structure; the baseline case.
//! * [`TestDistribution::Clustered`] — Gaussian blobs; stresses density
//!   pruning and centre selection.
//! * [`TestDistribution::Skewed`] — power-law hotspots; stresses indexes
//!   whose partitioning assumes uniformity (the paper's core argument for
//!   hierarchical indexes over grids).
//! * [`TestDistribution::Collinear`] — lattice points on a line; produces
//!   zero-area bounding boxes, duplicate coordinates and mass ties, the
//!   degenerate geometry that breaks naive median splits and area-based
//!   R-tree heuristics.
//!
//! Everything is seeded [`SplitMix64`], so a failing case reproduces from
//! its seed alone. The [`lattice_point`] helper is the streaming suite's
//! coarse grid: coincident points and exact ρ/δ/γ ties — the cases where
//! only a consistent tie-break keeps incremental and batch in agreement —
//! occur constantly rather than never.
//!
//! [`ulp_adversarial_points`] plants squared distances ulps away from the
//! ρ threshold, the µ order and the CH bin edges, where an index that
//! compared rounded roots would disagree with the brute-force kernels.

use dpc_core::{Dataset, Point};

use crate::rng::SplitMix64;

/// The point distributions shared by the test suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestDistribution {
    /// Uniform over `[-500, 500]²`.
    Uniform,
    /// `max(1, n/20)` Gaussian blobs with σ = 25 on uniform centres.
    Clustered,
    /// Eight power-law-weighted hotspots of sharply varying spread.
    Skewed,
    /// Lattice points on a noisy line (duplicates and zero-height boxes).
    Collinear,
}

/// All four distributions, for suites that sweep them.
pub const ALL_DISTRIBUTIONS: [TestDistribution; 4] = [
    TestDistribution::Uniform,
    TestDistribution::Clustered,
    TestDistribution::Skewed,
    TestDistribution::Collinear,
];

/// `n` points drawn from `dist`, fully determined by `seed`.
pub fn test_points(dist: TestDistribution, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SplitMix64::new(seed ^ 0xD157_0000);
    let mut out = Vec::with_capacity(n);
    match dist {
        TestDistribution::Uniform => {
            for _ in 0..n {
                out.push(Point::new(
                    rng.uniform(-500.0, 500.0),
                    rng.uniform(-500.0, 500.0),
                ));
            }
        }
        TestDistribution::Clustered => {
            let k = (n / 20).max(1);
            let centers: Vec<Point> = (0..k)
                .map(|_| Point::new(rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0)))
                .collect();
            for _ in 0..n {
                let c = centers[rng.uniform_usize(k)];
                out.push(Point::new(
                    rng.normal_with(c.x, 25.0),
                    rng.normal_with(c.y, 25.0),
                ));
            }
        }
        TestDistribution::Skewed => {
            let hotspots = 8;
            let w = SplitMix64::zipf_total_weight(hotspots, 1.2);
            let centers: Vec<Point> = (0..hotspots)
                .map(|_| Point::new(rng.uniform(-450.0, 450.0), rng.uniform(-450.0, 450.0)))
                .collect();
            for _ in 0..n {
                let h = rng.zipf(hotspots, 1.2, w);
                // The busiest hotspot is also the tightest: density varies by
                // orders of magnitude across the domain.
                let sigma = 2.0 * (1 << h.min(8)) as f64;
                let c = centers[h];
                out.push(Point::new(
                    rng.normal_with(c.x, sigma),
                    rng.normal_with(c.y, sigma),
                ));
            }
        }
        TestDistribution::Collinear => {
            for _ in 0..n {
                // Integer parameter on a line: duplicates are common, the
                // y-extent of any subset is 0 or near-0.
                let t = rng.uniform_usize(n.max(2)) as f64;
                out.push(Point::new(t * 3.0 - 500.0, t * 0.5));
            }
        }
    }
    out
}

/// [`test_points`] packed into a [`Dataset`].
pub fn test_dataset(dist: TestDistribution, n: usize, seed: u64) -> Dataset {
    Dataset::new(test_points(dist, n, seed))
}

/// The streaming suite's coarse lattice: half-unit spacing, so a `dc` under
/// 1.0 spans a couple of cells and coincident points are routine.
pub fn lattice_point(ix: u32, iy: u32) -> Point {
    Point::new(ix as f64 * 0.5, iy as f64 * 0.5)
}

/// Points planted on the floating-point edges of the distance contract
/// (`dpc_core::metric`) for the cut-off `dc` and the CH bin width
/// `bin_width`, in groups more than `dc` apart:
///
/// * the origin, with neighbours on the x axis a few ulps either side of
///   `dc` and of the bin edges `(k+1)·w` nearest it;
/// * pairs whose distance rounds to exactly `dc` while `fl(d²) < fl(dc²)`,
///   where this `dc` admits such squares (not every `dc` does);
/// * a probe with two candidates whose `fl(d²)` are one ulp apart but share
///   a root, the farther one with the smaller id. Outward neighbours make
///   both denser than the probe, so its `µ` is the nearer candidate.
///
/// Fully determined by `seed`.
///
/// # Panics
/// Panics if `dc` or `bin_width` is not positive and finite.
pub fn ulp_adversarial_points(dc: f64, bin_width: f64, seed: u64) -> Vec<Point> {
    assert!(
        dc.is_finite() && dc > 0.0 && bin_width.is_finite() && bin_width > 0.0,
        "ulp_adversarial_points: dc and bin width must be positive and finite"
    );
    let mut rng = SplitMix64::new(seed ^ 0x0071_9000);
    let d2 = |a: Point, b: Point| a.distance_squared(&b);
    let mut out = vec![Point::origin()];
    let top = (dc / bin_width).floor().min(1e15);
    let edges = [top, top + 1.0, top + 2.0].map(|k| k * bin_width);
    for edge in edges.into_iter().chain([dc]).filter(|&e| e > 0.0) {
        out.extend((-2..=2).map(|n| Point::new(ulps(edge, n), 0.0)));
    }
    let radius = 4.0 * dc; // of the tied-root candidates around their probe
    let spacing = 4.0 * (radius + dc + bin_width);
    let anchor = |i: u32| Point::new(f64::from(i) * spacing, spacing);
    if (1..=4).any(|n| ulps(dc * dc, -n).sqrt() == dc) {
        for p in (1..=3).map(anchor) {
            out.push(p);
            out.extend(
                search(&mut rng, |rng| {
                    let t = rng.uniform(0.0, std::f64::consts::TAU);
                    Point::new(p.x + dc * t.cos(), p.y + dc * t.sin())
                })
                .find(|&q| d2(p, q) < dc * dc && d2(p, q).sqrt() == dc),
            );
        }
    }
    for o in (4..=5).map(anchor) {
        // The nearer candidate on the x axis, at a square whose successor
        // shares its root, and the farther one at that successor, a third of
        // a turn away.
        let b = search(&mut rng, |rng| {
            Point::new(o.x + radius * rng.uniform(1.0, 1.01), o.y)
        })
        .find(|&b| ulps(d2(o, b), 1).sqrt() == d2(o, b).sqrt())
        .unwrap_or(Point::new(o.x + radius, o.y));
        let (r, target) = (d2(o, b).sqrt(), ulps(d2(o, b), 1));
        let a = search(&mut rng, |rng| {
            let t = rng.uniform(1.5, 2.5);
            Point::new(o.x + r * t.cos(), o.y + r * t.sin())
        })
        .find(|&a| d2(o, a) == target)
        .unwrap_or(Point::new(o.x, o.y + radius * 1.01));
        let outward = |c: Point| Point::new(o.x + (c.x - o.x) * 1.0625, o.y + (c.y - o.y) * 1.0625);
        out.extend([a, b, outward(a), outward(b), o]);
    }
    out
}

/// Positive finite `x` moved by `n` ulps.
fn ulps(x: f64, n: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(n))
}

/// Up to 20 000 draws from `draw`, each nudged by up to two ulps per
/// coordinate (all positive): the candidates the planting searches filter.
fn search<'a>(
    rng: &'a mut SplitMix64,
    mut draw: impl FnMut(&mut SplitMix64) -> Point + 'a,
) -> impl Iterator<Item = Point> + 'a {
    (0..20_000).flat_map(move |_| {
        let p = draw(rng);
        (-2..=2).flat_map(move |i| (-2..=2).map(move |j| Point::new(ulps(p.x, i), ulps(p.y, j))))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_sized() {
        for dist in ALL_DISTRIBUTIONS {
            let a = test_points(dist, 100, 7);
            let b = test_points(dist, 100, 7);
            assert_eq!(a.len(), 100);
            assert_eq!(a, b, "{dist:?} not deterministic");
            let c = test_points(dist, 100, 8);
            assert_ne!(a, c, "{dist:?} ignores its seed");
            assert!(a.iter().all(|p| p.is_finite()), "{dist:?} non-finite point");
        }
    }

    #[test]
    fn collinear_points_have_duplicates_and_lie_on_a_line() {
        let pts = test_points(TestDistribution::Collinear, 200, 3);
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0;
        for p in &pts {
            if !seen.insert((p.x.to_bits(), p.y.to_bits())) {
                dups += 1;
            }
        }
        assert!(dups > 0, "no duplicates in the collinear distribution");
        for p in &pts {
            // y = (x + 500) / 6.
            assert!((p.y - (p.x + 500.0) / 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn skewed_distribution_concentrates_mass() {
        let pts = test_points(TestDistribution::Skewed, 400, 11);
        let data = Dataset::new(pts);
        let bb = data.bounding_box();
        // A tight busiest hotspot means many points share a small region:
        // count neighbours of the densest point within 1% of the diameter.
        let r = bb.diagonal() * 0.01;
        let best = (0..data.len())
            .map(|p| (0..data.len()).filter(|&q| data.distance(p, q) < r).count())
            .max()
            .unwrap();
        assert!(best > 40, "no dense hotspot: best = {best}");
    }

    #[test]
    fn ulp_adversarial_points_plant_every_case() {
        // 0.6098847240216778 admits boundary squares; 7.799999999999999
        // with w = 0.3 is the histogram case, at several magnitudes.
        for (dc, w) in [
            (0.6098847240216778, 0.05),
            (7.799999999999999, 0.3),
            (7.799999999999999 * 1024.0, 0.3 * 1024.0),
            (0.6098847240216778 / 65536.0, 1e-6),
        ] {
            let pts = ulp_adversarial_points(dc, w, 3);
            assert_eq!(pts, ulp_adversarial_points(dc, w, 3), "deterministic");
            let d2 = |a: &Point, b: &Point| a.distance_squared(b);
            let pairs: Vec<(&Point, &Point)> = pts
                .iter()
                .enumerate()
                .flat_map(|(i, a)| pts[i + 1..].iter().map(move |b| (a, b)))
                .collect();
            let edge = (dc / w).floor() * w;
            assert!(
                pts.contains(&Point::new(ulps(edge, -1), 0.0)),
                "dc {dc}: bin edge"
            );
            let admits = (1..=4).any(|n| ulps(dc * dc, -n).sqrt() == dc);
            let inside = pairs
                .iter()
                .filter(|(a, b)| d2(a, b) < dc * dc && d2(a, b).sqrt() == dc)
                .count();
            assert!(!admits || inside >= 3, "dc {dc}: {inside} boundary pairs");
            let tied = pairs
                .iter()
                .filter(|(a, b)| {
                    let (da, db) = (d2(&pts[pts.len() - 1], a), d2(&pts[pts.len() - 1], b));
                    (da == ulps(db, 1) || db == ulps(da, 1)) && da.sqrt() == db.sqrt()
                })
                .count();
            assert!(
                tied >= 1,
                "dc {dc}: no tied-root candidates around the last probe"
            );
        }
    }

    #[test]
    fn lattice_is_coarse() {
        assert_eq!(lattice_point(0, 0), Point::new(0.0, 0.0));
        assert_eq!(lattice_point(3, 1), Point::new(1.5, 0.5));
    }
}
