//! Structure-of-arrays particle container.
//!
//! GOTHIC stores particle data as separate arrays on the device so that
//! memory accesses coalesce; we mirror that layout because the tree build
//! permutes particles into Morton order every rebuild and the traversal
//! touches positions/masses only.

use crate::vec3::{Aabb, Real, Vec3};

/// Structure-of-arrays particle set.
///
/// Invariants: all arrays have identical length; `id[i]` is the particle's
/// original index (stable across the Morton reorderings performed by the
/// tree build).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParticleSet {
    /// Positions.
    pub pos: Vec<Vec3>,
    /// Velocities.
    pub vel: Vec<Vec3>,
    /// Masses.
    pub mass: Vec<Real>,
    /// Current acceleration.
    pub acc: Vec<Vec3>,
    /// Gravitational potential (per unit mass) from the latest force pass.
    pub pot: Vec<Real>,
    /// |a| from the *previous* force evaluation; the acceleration MAC
    /// (Eq. 2 of the paper) compares against this.
    pub acc_old: Vec<Real>,
    /// Original particle index, stable under reordering.
    pub id: Vec<u32>,
}

impl ParticleSet {
    /// Empty set with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        ParticleSet {
            pos: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            acc: Vec::with_capacity(n),
            pot: Vec::with_capacity(n),
            acc_old: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
        }
    }

    /// Number of particles.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when the set holds no particles.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Append one particle (acceleration fields zero-initialised).
    pub fn push(&mut self, pos: Vec3, vel: Vec3, mass: Real) {
        let id = self.pos.len() as u32;
        self.pos.push(pos);
        self.vel.push(vel);
        self.mass.push(mass);
        self.acc.push(Vec3::ZERO);
        self.pot.push(0.0);
        self.acc_old.push(0.0);
        self.id.push(id);
    }

    /// Build from parallel position/velocity/mass slices.
    pub fn from_parts(pos: Vec<Vec3>, vel: Vec<Vec3>, mass: Vec<Real>) -> Self {
        assert_eq!(pos.len(), vel.len());
        assert_eq!(pos.len(), mass.len());
        let n = pos.len();
        ParticleSet {
            acc: vec![Vec3::ZERO; n],
            pot: vec![0.0; n],
            acc_old: vec![0.0; n],
            id: (0..n as u32).collect(),
            pos,
            vel,
            mass,
        }
    }

    /// Total mass (f64 accumulation).
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().map(|&m| m as f64).sum()
    }

    /// Axis-aligned bounding box of the positions.
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.pos)
    }

    /// Apply a permutation: element `i` of the result is element `perm[i]`
    /// of the original. Used to reorder the set into Morton order after the
    /// radix sort of keys. `perm` must be a permutation of `0..len`.
    pub fn permute(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.len());
        fn apply<T: Copy>(src: &[T], perm: &[u32]) -> Vec<T> {
            perm.iter().map(|&p| src[p as usize]).collect()
        }
        self.pos = apply(&self.pos, perm);
        self.vel = apply(&self.vel, perm);
        self.mass = apply(&self.mass, perm);
        self.acc = apply(&self.acc, perm);
        self.pot = apply(&self.pot, perm);
        self.acc_old = apply(&self.acc_old, perm);
        self.id = apply(&self.id, perm);
    }

    /// Validate internal invariants (equal lengths, finite state, `id` is a
    /// permutation). Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        for (name, len) in [
            ("vel", self.vel.len()),
            ("mass", self.mass.len()),
            ("acc", self.acc.len()),
            ("pot", self.pot.len()),
            ("acc_old", self.acc_old.len()),
            ("id", self.id.len()),
        ] {
            if len != n {
                return Err(format!("array {name} has length {len}, expected {n}"));
            }
        }
        let mut seen = vec![false; n];
        for &i in &self.id {
            let i = i as usize;
            if i >= n || seen[i] {
                return Err(format!(
                    "id array is not a permutation (duplicate or out-of-range {i})"
                ));
            }
            seen[i] = true;
        }
        for (name, v) in [("position", &self.pos), ("velocity", &self.vel)] {
            if let Some(i) = v.iter().position(|p| !p.is_finite()) {
                return Err(format!("non-finite {name} at {i}"));
            }
        }
        for (i, &m) in self.mass.iter().enumerate() {
            if !(m.is_finite() && m >= 0.0) {
                return Err(format!("invalid mass at {i}: {m}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(n: usize) -> ParticleSet {
        let mut s = ParticleSet::with_capacity(n);
        for i in 0..n {
            let f = i as Real;
            s.push(
                Vec3::new(f, 2.0 * f, -f),
                Vec3::new(0.1 * f, 0.0, 0.0),
                1.0 + f,
            );
        }
        s
    }

    #[test]
    fn push_grows_all_arrays() {
        let s = sample_set(5);
        assert_eq!(s.len(), 5);
        s.check_invariants().unwrap();
    }

    #[test]
    fn from_parts_builds_consistent_set() {
        let s = ParticleSet::from_parts(vec![Vec3::ZERO; 3], vec![Vec3::ZERO; 3], vec![1.0; 3]);
        assert_eq!(s.len(), 3);
        assert!((s.total_mass() - 3.0).abs() < 1e-12);
        s.check_invariants().unwrap();
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_mismatched_lengths() {
        let _ = ParticleSet::from_parts(vec![Vec3::ZERO; 3], vec![Vec3::ZERO; 2], vec![1.0; 3]);
    }

    #[test]
    fn permute_reorders_consistently() {
        let mut s = sample_set(4);
        s.permute(&[2, 0, 3, 1]);
        assert_eq!(s.id, vec![2, 0, 3, 1]);
        assert_eq!(s.pos[0].x, 2.0);
        assert_eq!(s.mass[1], 1.0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_bad_id() {
        let mut s = sample_set(3);
        s.id[0] = 1; // duplicate
        assert!(s.check_invariants().is_err());
    }

    #[test]
    fn bounds_covers_positions() {
        let s = sample_set(10);
        let b = s.bounds();
        for &p in &s.pos {
            assert!(p.x >= b.min.x && p.x <= b.max.x);
        }
    }
}
