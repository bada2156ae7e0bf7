//! Planar geography.
//!
//! The world simulator lays out entities and users on a flat plane measured
//! in meters. A real deployment would use WGS-84 coordinates; for the
//! behaviours the paper cares about — distance travelled as an *effort*
//! feature (§4.1), visit detection from location fixes, nearby-alternative
//! counting — a local tangent plane is an exact stand-in at city scale.
//!
//! A [`Zipcode`] is a disk-shaped neighbourhood with a population weight,
//! mirroring the paper's measurement methodology ("the most populous zipcode
//! in each of the 50 states" — §2).

use std::fmt;

/// A point on the simulation plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// East-west coordinate, meters.
    pub x: f64,
    /// North-south coordinate, meters.
    pub y: f64,
}

impl GeoPoint {
    /// The origin.
    pub const ORIGIN: GeoPoint = GeoPoint { x: 0.0, y: 0.0 };

    /// Construct a point.
    pub const fn new(x: f64, y: f64) -> Self {
        GeoPoint { x, y }
    }

    /// Euclidean distance to another point, meters.
    pub fn distance_to(&self, other: &GeoPoint) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Squared distance — cheaper when only comparing.
    pub fn distance_sq(&self, other: &GeoPoint) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The point translated by `(dx, dy)` meters.
    pub fn offset(&self, dx: f64, dy: f64) -> GeoPoint {
        GeoPoint::new(self.x + dx, self.y + dy)
    }

    /// Linear interpolation toward `other`; `t = 0` is `self`, `t = 1` is
    /// `other`.
    pub fn lerp(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        GeoPoint::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// The midpoint between two points.
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        self.lerp(other, 0.5)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}m, {:.1}m)", self.x, self.y)
    }
}

/// An axis-aligned rectangle on the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum corner (south-west).
    pub min: GeoPoint,
    /// Maximum corner (north-east).
    pub max: GeoPoint,
}

impl BoundingBox {
    /// Construct from two corners, normalizing so `min <= max` per axis.
    pub fn new(a: GeoPoint, b: GeoPoint) -> Self {
        BoundingBox {
            min: GeoPoint::new(a.x.min(b.x), a.y.min(b.y)),
            max: GeoPoint::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The box centered at `center` extending `radius` meters in every
    /// direction.
    pub fn around(center: GeoPoint, radius: f64) -> Self {
        BoundingBox { min: center.offset(-radius, -radius), max: center.offset(radius, radius) }
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in meters.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Geometric center.
    pub fn center(&self) -> GeoPoint {
        self.min.midpoint(&self.max)
    }

    /// True iff the point lies inside (inclusive of edges).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True iff the two boxes overlap (inclusive of edges).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The smallest box containing both.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min: GeoPoint::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: GeoPoint::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }
}

/// A zipcode: a disk-shaped neighbourhood with a population weight.
///
/// The paper issues queries as (zipcode, category) pairs over the most
/// populous zipcode in each of the 50 US states; the world generator places
/// one [`Zipcode`] per simulated region and scales entity density by
/// `population`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipcode {
    /// Five-digit-style numeric code (unique within a world).
    pub code: u32,
    /// Center of the neighbourhood.
    pub center: GeoPoint,
    /// Radius of the neighbourhood disk, meters.
    pub radius: f64,
    /// Resident population (drives entity and user density).
    pub population: u32,
}

impl Zipcode {
    /// Construct a zipcode.
    pub fn new(code: u32, center: GeoPoint, radius: f64, population: u32) -> Self {
        Zipcode { code, center, radius, population }
    }

    /// True iff the point falls within the neighbourhood disk.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        self.center.distance_to(p) <= self.radius
    }

    /// The bounding box of the neighbourhood disk.
    pub fn bounds(&self) -> BoundingBox {
        BoundingBox::around(self.center, self.radius)
    }
}

impl fmt::Display for Zipcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:05}", self.code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_euclidean() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(3.0, 4.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(10.0, -10.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.midpoint(&b), GeoPoint::new(5.0, -5.0));
    }

    #[test]
    fn bbox_normalizes_corners() {
        let b = BoundingBox::new(GeoPoint::new(5.0, -1.0), GeoPoint::new(-5.0, 1.0));
        assert_eq!(b.min, GeoPoint::new(-5.0, -1.0));
        assert_eq!(b.max, GeoPoint::new(5.0, 1.0));
        assert!((b.width() - 10.0).abs() < 1e-12);
        assert!((b.height() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bbox_contains_edges() {
        let b = BoundingBox::around(GeoPoint::ORIGIN, 10.0);
        assert!(b.contains(&GeoPoint::new(10.0, 10.0)));
        assert!(b.contains(&GeoPoint::ORIGIN));
        assert!(!b.contains(&GeoPoint::new(10.0, 10.1)));
    }

    #[test]
    fn bbox_intersection_cases() {
        let a = BoundingBox::around(GeoPoint::ORIGIN, 10.0);
        let b = BoundingBox::around(GeoPoint::new(15.0, 0.0), 10.0);
        let c = BoundingBox::around(GeoPoint::new(100.0, 100.0), 10.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn bbox_union_covers_both() {
        let a = BoundingBox::around(GeoPoint::ORIGIN, 1.0);
        let b = BoundingBox::around(GeoPoint::new(10.0, 10.0), 1.0);
        let u = a.union(&b);
        assert!(u.contains(&a.min) && u.contains(&a.max));
        assert!(u.contains(&b.min) && u.contains(&b.max));
    }

    #[test]
    fn zipcode_membership() {
        let z = Zipcode::new(19120, GeoPoint::ORIGIN, 1_000.0, 70_000);
        assert!(z.contains(&GeoPoint::new(999.0, 0.0)));
        assert!(!z.contains(&GeoPoint::new(1_001.0, 0.0)));
        assert_eq!(z.to_string(), "19120");
        assert!(z.bounds().contains(&GeoPoint::new(999.0, 999.0)));
    }

    #[test]
    fn zipcode_display_pads() {
        let z = Zipcode::new(7, GeoPoint::ORIGIN, 1.0, 1);
        assert_eq!(z.to_string(), "00007");
    }

    proptest! {
        #[test]
        fn distance_symmetry(ax in -1e6f64..1e6, ay in -1e6f64..1e6, bx in -1e6f64..1e6, by in -1e6f64..1e6) {
            let a = GeoPoint::new(ax, ay);
            let b = GeoPoint::new(bx, by);
            prop_assert!((a.distance_to(&b) - b.distance_to(&a)).abs() < 1e-9);
        }

        #[test]
        fn triangle_inequality(
            ax in -1e5f64..1e5, ay in -1e5f64..1e5,
            bx in -1e5f64..1e5, by in -1e5f64..1e5,
            cx in -1e5f64..1e5, cy in -1e5f64..1e5,
        ) {
            let a = GeoPoint::new(ax, ay);
            let b = GeoPoint::new(bx, by);
            let c = GeoPoint::new(cx, cy);
            prop_assert!(a.distance_to(&c) <= a.distance_to(&b) + b.distance_to(&c) + 1e-6);
        }

        #[test]
        fn union_contains_center(
            ax in -1e5f64..1e5, ay in -1e5f64..1e5,
            bx in -1e5f64..1e5, by in -1e5f64..1e5,
        ) {
            let a = BoundingBox::around(GeoPoint::new(ax, ay), 5.0);
            let b = BoundingBox::around(GeoPoint::new(bx, by), 5.0);
            let u = a.union(&b);
            prop_assert!(u.contains(&a.center()));
            prop_assert!(u.contains(&b.center()));
        }
    }
}
