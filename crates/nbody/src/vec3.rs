//! Minimal 3-component single-precision vector used throughout the device
//! code paths.
//!
//! GOTHIC performs the gravity calculation in single precision on the GPU
//! (the paper reports FP32 instruction counts and single-precision
//! sustained performance), so the simulation state is stored as `f32`.
//! Diagnostics that need to detect small drifts (energy, momentum) widen to
//! `f64` at the accumulation site instead.

use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// Single-precision scalar used on the "device" (simulated GPU) paths.
pub type Real = f32;

/// A 3-vector of [`Real`] components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: Real,
    pub y: Real,
    pub z: Real,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline(always)]
    pub const fn new(x: Real, y: Real, z: Real) -> Self {
        Vec3 { x, y, z }
    }

    /// All components set to `v`.
    #[inline(always)]
    pub const fn splat(v: Real) -> Self {
        Vec3::new(v, v, v)
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm2(self) -> Real {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Euclidean norm.
    #[inline(always)]
    pub fn norm(self) -> Real {
        self.norm2().sqrt()
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, o: Vec3) -> Real {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline(always)]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Component-wise minimum.
    #[inline(always)]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline(always)]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Largest component.
    #[inline(always)]
    pub fn max_component(self) -> Real {
        self.x.max(self.y).max(self.z)
    }

    /// Widen to `f64` components (for diagnostics accumulation).
    #[inline(always)]
    pub fn as_f64(self) -> [f64; 3] {
        [self.x as f64, self.y as f64, self.z as f64]
    }

    /// True when every component is finite.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline(always)]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline(always)]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<Real> for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, s: Real) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for Real {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<Real> for Vec3 {
    #[inline(always)]
    fn mul_assign(&mut self, s: Real) {
        *self = *self * s;
    }
}

impl Div<Real> for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn div(self, s: Real) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<Real> for Vec3 {
    #[inline(always)]
    fn div_assign(&mut self, s: Real) {
        *self = *self / s;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = Real;
    #[inline(always)]
    fn index(&self, i: usize) -> &Real {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl From<[Real; 3]> for Vec3 {
    #[inline(always)]
    fn from(a: [Real; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [Real; 3] {
    #[inline(always)]
    fn from(v: Vec3) -> [Real; 3] {
        [v.x, v.y, v.z]
    }
}

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The empty box (inverted bounds); grows correctly under [`Aabb::grow`].
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(Real::INFINITY),
        max: Vec3::splat(Real::NEG_INFINITY),
    };

    #[inline(always)]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// Expand the box to include `p`.
    #[inline(always)]
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Merge two boxes.
    #[inline(always)]
    pub fn union(self, o: Aabb) -> Aabb {
        Aabb::new(self.min.min(o.min), self.max.max(o.max))
    }

    /// Box centre.
    #[inline(always)]
    pub fn center(self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths.
    #[inline(always)]
    pub fn extent(self) -> Vec3 {
        self.max - self.min
    }

    /// Smallest cube enclosing this box, centred on the box centre. Octree
    /// construction roots the tree in this cube so all eight children are
    /// congruent.
    pub fn bounding_cube(self) -> Aabb {
        let c = self.center();
        // Pad slightly so points exactly on the max faces still map into
        // [0, 1) after normalization. The floor term must survive f32
        // rounding against the centre magnitude (a degenerate single-point
        // box would otherwise collapse to zero extent).
        let floor = (c.x.abs().max(c.y.abs()).max(c.z.abs()) * 1e-5).max(1e-6);
        let h = self.extent().max_component() * 0.5 * 1.000_1 + floor;
        Aabb::new(c - Vec3::splat(h), c + Vec3::splat(h))
    }

    /// True when `p` lies inside (min-inclusive, max-exclusive).
    #[inline(always)]
    pub fn contains(self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.y >= self.min.y
            && p.z >= self.min.z
            && p.x < self.max.x
            && p.y < self.max.y
            && p.z < self.max.z
    }

    /// Bounding box of a point set (empty box for an empty slice).
    pub fn from_points(pts: &[Vec3]) -> Aabb {
        let mut b = Aabb::EMPTY;
        for &p in pts {
            b.grow(p);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-0.5, 4.0, 0.25);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn dot_and_norm_agree() {
        let a = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(a.dot(a), a.norm2());
        assert!((a.norm() - 13.0).abs() < 1e-6);
    }

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 1.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-5);
        assert!(c.dot(b).abs() < 1e-5);
    }

    #[test]
    fn cross_right_handed() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn component_min_max() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(2.0, 3.0, -1.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, -1.0));
        assert_eq!(a.max_component(), 5.0);
    }

    #[test]
    fn index_matches_fields() {
        let a = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(a[0], 7.0);
        assert_eq!(a[1], 8.0);
        assert_eq!(a[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn aabb_grow_and_contains() {
        let mut b = Aabb::EMPTY;
        b.grow(Vec3::new(0.0, 0.0, 0.0));
        b.grow(Vec3::new(1.0, 2.0, 3.0));
        assert!(b.contains(Vec3::new(0.5, 1.0, 1.5)));
        assert!(!b.contains(Vec3::new(-0.1, 1.0, 1.5)));
        assert_eq!(b.extent(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn bounding_cube_is_cubic_and_contains_box() {
        let b = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(3.0, 1.0, 2.5));
        let c = b.bounding_cube();
        let e = c.extent();
        assert!((e.x - e.y).abs() < 1e-3 && (e.y - e.z).abs() < 1e-3);
        assert!(c.contains(b.min));
        // max corner is inside the strictly padded cube
        assert!(c.contains(b.max - Vec3::splat(1e-6)));
    }

    #[test]
    fn from_points_empty_is_empty() {
        let b = Aabb::from_points(&[]);
        assert!(b.min.x > b.max.x);
    }
}
