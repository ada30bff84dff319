//! Axis-aligned bounding boxes.
//!
//! Bounding boxes are the geometric primitive behind both tree indices: a
//! quadtree node covers a square region and an R-tree node covers the minimum
//! bounding rectangle of its children. The pruning rules of the paper
//! (Observation 1, Lemma 2) are phrased in terms of the minimum and maximum
//! distance from a query point to such a region, which is what
//! [`BoundingBox::min_dist_squared`] and [`BoundingBox::max_dist_squared`]
//! provide — squared, like every distance comparison in the workspace.
//! [`BoundingBox::min_dist_squared_to_box`] and
//! [`BoundingBox::max_dist_squared_to_box`] give the same two bounds for a
//! whole box of query points, which lets the tree queries test a node once
//! for every point of a leaf.

use crate::point::Point;

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// The *empty* box is represented with inverted bounds
/// (`min = +∞`, `max = −∞`) so that it behaves as the identity for
/// [`BoundingBox::union`] and contains nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BoundingBox {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl BoundingBox {
    /// The empty bounding box (identity element of [`union`](Self::union)).
    pub const EMPTY: BoundingBox = BoundingBox {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Creates a bounding box from explicit bounds.
    ///
    /// # Panics
    /// Panics if `min_x > max_x` or `min_y > max_y` (use [`BoundingBox::EMPTY`]
    /// for an empty box).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x <= max_x && min_y <= max_y,
            "BoundingBox::new: inverted bounds ({min_x},{min_y})-({max_x},{max_y})"
        );
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The degenerate box containing exactly one point.
    pub fn from_point(p: Point) -> Self {
        BoundingBox {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// The tight bounding box of a set of points (empty box for no points).
    pub fn from_points(points: &[Point]) -> Self {
        points
            .iter()
            .fold(BoundingBox::EMPTY, |bb, p| bb.extended(*p))
    }

    /// Minimum x bound.
    #[inline]
    pub fn min_x(&self) -> f64 {
        self.min_x
    }

    /// Minimum y bound.
    #[inline]
    pub fn min_y(&self) -> f64 {
        self.min_y
    }

    /// Maximum x bound.
    #[inline]
    pub fn max_x(&self) -> f64 {
        self.max_x
    }

    /// Maximum y bound.
    #[inline]
    pub fn max_y(&self) -> f64 {
        self.max_y
    }

    /// Whether the box contains no points at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Width of the box along x (0 for the empty box).
    #[inline]
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_x - self.min_x
        }
    }

    /// Height of the box along y (0 for the empty box).
    #[inline]
    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_y - self.min_y
        }
    }

    /// Length of the diagonal (0 for the empty box).
    pub fn diagonal(&self) -> f64 {
        let w = self.width();
        let h = self.height();
        (w * w + h * h).sqrt()
    }

    /// Centre of the box.
    ///
    /// # Panics
    /// Panics if the box is empty.
    pub fn center(&self) -> Point {
        assert!(!self.is_empty(), "BoundingBox::center on empty box");
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether the box contains the given point (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether this box fully contains `other` (empty boxes are contained in
    /// everything).
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// Returns this box grown to also cover `p`.
    pub fn extended(&self, p: Point) -> BoundingBox {
        BoundingBox {
            min_x: self.min_x.min(p.x),
            min_y: self.min_y.min(p.y),
            max_x: self.max_x.max(p.x),
            max_y: self.max_y.max(p.y),
        }
    }

    /// Smallest box covering both operands.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Squared minimum Euclidean distance from `p` to any point of the box.
    ///
    /// This is the `dmin(p, node)` bound of the paper, in squared space: `0`
    /// when `p` lies inside the box, `+∞` for the empty box so that empty
    /// regions are always pruned. It is never larger than the
    /// [`Point::distance_squared`] from `p` to any point of the box — exactly,
    /// not up to rounding (see the distance contract in [`crate::metric`]).
    #[inline]
    pub fn min_dist_squared(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = if p.x < self.min_x {
            self.min_x - p.x
        } else if p.x > self.max_x {
            p.x - self.max_x
        } else {
            0.0
        };
        let dy = if p.y < self.min_y {
            self.min_y - p.y
        } else if p.y > self.max_y {
            p.y - self.max_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    /// Squared maximum Euclidean distance from `p` to any point of the box.
    ///
    /// This is the `dmax(p, node)` bound of the paper, in squared space, used
    /// to detect that a node is *fully contained* in the query circle. Never
    /// smaller than the [`Point::distance_squared`] from `p` to any point of
    /// the box; `0` for the empty box (an empty region can always be counted
    /// as fully contained — it contributes nothing).
    #[inline]
    pub fn max_dist_squared(&self, p: Point) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let dx = (p.x - self.min_x).abs().max((p.x - self.max_x).abs());
        let dy = (p.y - self.min_y).abs().max((p.y - self.max_y).abs());
        dx * dx + dy * dy
    }

    /// Squared minimum Euclidean distance between any point of this box and
    /// any point of `other`: [`min_dist_squared`](Self::min_dist_squared)
    /// for a whole box of query points at once, `0` when the boxes touch,
    /// `+∞` when either is empty.
    ///
    /// Each axis gap is the rounded difference of the facing sides. For
    /// members `p` of one box and `q` of the other, `|fl(q.x − p.x)|` is at
    /// least that gap, because rounded subtraction is monotone in each
    /// operand; rounded squaring and addition are monotone too. So the bound
    /// never exceeds any member pair's [`Point::distance_squared`].
    #[inline]
    pub fn min_dist_squared_to_box(&self, other: &BoundingBox) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let gap = |a_min: f64, a_max: f64, b_min: f64, b_max: f64| {
            if b_min > a_max {
                b_min - a_max
            } else if a_min > b_max {
                a_min - b_max
            } else {
                0.0
            }
        };
        let dx = gap(self.min_x, self.max_x, other.min_x, other.max_x);
        let dy = gap(self.min_y, self.max_y, other.min_y, other.max_y);
        dx * dx + dy * dy
    }

    /// Squared maximum Euclidean distance between any point of this box and
    /// any point of `other`: [`max_dist_squared`](Self::max_dist_squared)
    /// for a whole box of query points at once, `0` when either is empty.
    ///
    /// Each axis span runs between far sides, `other.max − self.min` or
    /// `self.max − other.min`, whichever is larger, and by the same
    /// monotonicity the bound never falls below any member pair's
    /// [`Point::distance_squared`].
    #[inline]
    pub fn max_dist_squared_to_box(&self, other: &BoundingBox) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let dx = (other.max_x - self.min_x).max(self.max_x - other.min_x);
        let dy = (other.max_y - self.min_y).max(self.max_y - other.min_y);
        dx * dx + dy * dy
    }

    /// Splits the box into four equal quadrants: `[SW, SE, NW, NE]`.
    ///
    /// Used by the quadtree. The quadrants share their boundaries; the
    /// quadtree resolves boundary membership with half-open comparisons
    /// against the centre.
    ///
    /// # Panics
    /// Panics if the box is empty.
    pub fn quadrants(&self) -> [BoundingBox; 4] {
        let c = self.center();
        [
            BoundingBox::new(self.min_x, self.min_y, c.x, c.y), // SW
            BoundingBox::new(c.x, self.min_y, self.max_x, c.y), // SE
            BoundingBox::new(self.min_x, c.y, c.x, self.max_y), // NW
            BoundingBox::new(c.x, c.y, self.max_x, self.max_y), // NE
        ]
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        BoundingBox::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_properties() {
        let e = BoundingBox::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.width(), 0.0);
        assert_eq!(e.height(), 0.0);
        assert!(!e.contains(Point::origin()));
        assert_eq!(e.min_dist_squared(Point::origin()), f64::INFINITY);
        assert_eq!(e.max_dist_squared(Point::origin()), 0.0);
        let unit = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        for (a, b) in [(e, unit), (unit, e), (e, e)] {
            assert_eq!(a.min_dist_squared_to_box(&b), f64::INFINITY);
            assert_eq!(a.max_dist_squared_to_box(&b), 0.0);
        }
    }

    #[test]
    fn from_points_is_tight() {
        let pts = vec![
            Point::new(1.0, 2.0),
            Point::new(-3.0, 5.0),
            Point::new(0.0, 0.0),
        ];
        let bb = BoundingBox::from_points(&pts);
        assert_eq!(bb, BoundingBox::new(-3.0, 0.0, 1.0, 5.0));
        for p in &pts {
            assert!(bb.contains(*p));
        }
    }

    #[test]
    fn union_with_empty_is_identity() {
        let bb = BoundingBox::new(0.0, 0.0, 2.0, 3.0);
        assert_eq!(bb.union(&BoundingBox::EMPTY), bb);
        assert_eq!(BoundingBox::EMPTY.union(&bb), bb);
    }

    #[test]
    fn union_covers_both() {
        let a = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BoundingBox::new(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
        assert_eq!(u, BoundingBox::new(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn min_dist_squared_inside_is_zero() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(bb.min_dist_squared(Point::new(5.0, 5.0)), 0.0);
        assert_eq!(bb.min_dist_squared(Point::new(0.0, 0.0)), 0.0); // boundary
    }

    #[test]
    fn min_dist_squared_outside_axis_aligned_and_corner() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(bb.min_dist_squared(Point::new(13.0, 5.0)), 9.0);
        assert_eq!(bb.min_dist_squared(Point::new(5.0, -4.0)), 16.0);
        assert_eq!(bb.min_dist_squared(Point::new(13.0, 14.0)), 25.0);
    }

    #[test]
    fn max_dist_squared_is_to_farthest_corner() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let q = Point::new(1.0, 1.0);
        assert_eq!(
            bb.max_dist_squared(q),
            q.distance_squared(&Point::new(10.0, 10.0))
        );
    }

    #[test]
    fn squared_bounds_hold_exactly_for_every_member() {
        // No epsilon: rounding is monotone, so the bounds hold bit-exactly,
        // including for members on the box boundary.
        let bb = BoundingBox::new(-2.0, -2.0, 7.0, 3.0);
        for q in [
            Point::new(1.0, 1.0),
            Point::new(-3.0, 5.0),
            Point::new(0.1, -7.3),
            Point::new(10.0, -10.0),
        ] {
            assert!(bb.min_dist_squared(q) <= bb.max_dist_squared(q));
            for p in [
                Point::new(-2.0, -2.0),
                Point::new(7.0, 3.0),
                Point::new(0.0, 0.0),
                Point::new(7.0, -2.0),
                Point::new(0.3, 2.9),
            ] {
                assert!(bb.min_dist_squared(q) <= q.distance_squared(&p));
                assert!(q.distance_squared(&p) <= bb.max_dist_squared(q));
            }
        }
    }

    #[test]
    fn quadrants_partition_area() {
        let bb = BoundingBox::new(0.0, 0.0, 8.0, 4.0);
        let qs = bb.quadrants();
        let c = bb.center();
        // SW's far corner and NE's near corner are the centre, so the four
        // quadrants meet there without a gap or an overlap of area.
        assert_eq!((qs[0].max_x(), qs[0].max_y()), (c.x, c.y));
        assert_eq!((qs[3].min_x(), qs[3].min_y()), (c.x, c.y));
        assert_eq!((qs[1].min_x(), qs[1].max_y()), (c.x, c.y));
        assert_eq!((qs[2].max_x(), qs[2].min_y()), (c.x, c.y));
        let union = qs.iter().fold(BoundingBox::EMPTY, |u, q| u.union(q));
        assert_eq!(union, bb);
        for q in &qs {
            assert!(bb.contains_box(q));
        }
    }

    #[test]
    fn contains_box_needs_every_side_inside() {
        let a = BoundingBox::new(0.0, 0.0, 4.0, 4.0);
        let b = BoundingBox::new(2.0, 2.0, 6.0, 6.0);
        assert!(a.contains_box(&BoundingBox::new(1.0, 1.0, 2.0, 2.0)));
        assert!(!a.contains_box(&b));
    }

    #[test]
    fn box_to_box_bounds_are_gap_and_far_corners() {
        let a = BoundingBox::new(0.0, 0.0, 2.0, 1.0);
        // Apart on x only, on both axes, touching, and nested.
        let right = BoundingBox::new(5.0, 0.5, 6.0, 3.0);
        assert_eq!(a.min_dist_squared_to_box(&right), 9.0);
        assert_eq!(a.max_dist_squared_to_box(&right), 36.0 + 9.0);
        let corner = BoundingBox::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.min_dist_squared_to_box(&corner), 9.0 + 16.0);
        assert_eq!(a.max_dist_squared_to_box(&corner), 36.0 + 36.0);
        let touching = BoundingBox::new(2.0, -3.0, 3.0, 0.0);
        assert_eq!(a.min_dist_squared_to_box(&touching), 0.0);
        let inner = BoundingBox::new(0.5, 0.5, 1.0, 1.0);
        assert_eq!(a.min_dist_squared_to_box(&inner), 0.0);
        assert_eq!(a.max_dist_squared_to_box(&inner), 1.5 * 1.5 + 1.0);
        for b in [right, corner, touching, inner] {
            assert_eq!(a.min_dist_squared_to_box(&b), b.min_dist_squared_to_box(&a));
            assert_eq!(a.max_dist_squared_to_box(&b), b.max_dist_squared_to_box(&a));
        }
        // A degenerate box is one query point.
        let q = Point::new(7.0, -2.0);
        let point = BoundingBox::from_point(q);
        assert_eq!(point.min_dist_squared_to_box(&a), a.min_dist_squared(q));
        assert_eq!(point.max_dist_squared_to_box(&a), a.max_dist_squared(q));
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn new_rejects_inverted_bounds() {
        BoundingBox::new(1.0, 0.0, 0.0, 2.0);
    }
}
