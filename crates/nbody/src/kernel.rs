//! The softened point-mass gravity kernel (Eq. 1 of the paper).
//!
//! One interaction computes the acceleration and potential contribution of
//! a source (particle or tree pseudo-particle) on a sink particle:
//!
//! ```text
//! a_i += G · m_j (r_j − r_i) / (|r_j − r_i|² + ε²)^{3/2}
//! φ_i −= G · m_j / √(|r_j − r_i|² + ε²)
//! ```
//!
//! with G = 1 in simulation units. The instruction mix of this kernel is
//! what the paper counts with nvprof (Fig. 6); the equivalent per-event
//! mix table lives in `gpu-model::events`.

use crate::vec3::{Real, Vec3};

/// A gravity source: position and mass. Tree pseudo-particles and raw
/// particles are both flattened into this form inside interaction lists.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Source {
    pub pos: Vec3,
    pub mass: Real,
}

/// Accumulated acceleration and potential for one sink.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AccPot {
    pub acc: Vec3,
    pub pot: Real,
}

impl AccPot {
    #[inline(always)]
    pub fn add(&mut self, o: AccPot) {
        self.acc += o.acc;
        self.pot += o.pot;
    }
}

/// Evaluate one softened interaction.
///
/// `eps2` is the square of the Plummer softening length ε. The softening
/// also suppresses self-interaction: a source at the sink position
/// contributes zero acceleration and a finite potential, exactly as in the
/// GPU kernel (which relies on ε² > 0 instead of an `i != j` branch).
#[inline(always)]
pub fn interact(sink: Vec3, src: Source, eps2: Real) -> AccPot {
    let d = src.pos - sink;
    let r2 = eps2 + d.norm2();
    if r2 <= 0.0 {
        // Exact overlap with zero softening: define the contribution as
        // zero rather than dividing by zero (only reachable in unsoftened
        // test configurations; the GPU kernel always runs with ε² > 0).
        return AccPot::default();
    }
    let rinv = 1.0 / r2.sqrt(); // device: rsqrtf(r2)
    let rinv2 = rinv * rinv;
    let m_rinv = src.mass * rinv;
    let m_rinv3 = m_rinv * rinv2;
    AccPot {
        acc: d * m_rinv3,
        pot: -m_rinv,
    }
}

/// Accumulate the gravity of a list of sources onto one sink, in list
/// order, starting from +0.0. This is the oracle the vectorized
/// interaction-list flush of `octree::walk` must match bit for bit.
#[inline]
pub fn accumulate(sink: Vec3, sources: &[Source], eps2: Real) -> AccPot {
    let mut out = AccPot::default();
    for &s in sources {
        out.add(interact(sink, s, eps2));
    }
    out
}

/// Remove the self-interaction potential bias: a particle in its own
/// interaction list contributes `-m/ε` to its potential (and nothing to
/// acceleration). Calibrated diagnostics subtract this term.
#[inline(always)]
pub fn self_potential(mass: Real, eps2: Real) -> Real {
    if eps2 > 0.0 {
        -mass / eps2.sqrt()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsoftened_matches_newton() {
        // Unit mass at distance 2 along x: a = m/r² = 0.25 toward source.
        let out = interact(
            Vec3::ZERO,
            Source {
                pos: Vec3::new(2.0, 0.0, 0.0),
                mass: 1.0,
            },
            0.0,
        );
        assert!((out.acc.x - 0.25).abs() < 1e-6);
        assert_eq!(out.acc.y, 0.0);
        assert!((out.pot + 0.5).abs() < 1e-6);
    }

    #[test]
    fn softening_removes_divergence() {
        let out = interact(
            Vec3::ZERO,
            Source {
                pos: Vec3::ZERO,
                mass: 3.0,
            },
            0.01,
        );
        assert_eq!(out.acc, Vec3::ZERO);
        assert!((out.pot - self_potential(3.0, 0.01)).abs() < 1e-6);
        assert!(out.pot.is_finite());
    }

    #[test]
    fn acceleration_points_toward_source() {
        let src = Source {
            pos: Vec3::new(-1.0, 2.0, 0.5),
            mass: 2.0,
        };
        let out = interact(Vec3::ZERO, src, 1e-4);
        let d = src.pos;
        // acc ∝ d with positive coefficient
        let cosine = out.acc.dot(d) / (out.acc.norm() * d.norm());
        assert!((cosine - 1.0).abs() < 1e-5);
    }

    #[test]
    fn accumulate_is_sum_of_interactions() {
        let sinks = Vec3::new(0.3, -0.2, 0.9);
        let srcs = [
            Source {
                pos: Vec3::new(1.0, 0.0, 0.0),
                mass: 1.0,
            },
            Source {
                pos: Vec3::new(0.0, 2.0, 0.0),
                mass: 0.5,
            },
            Source {
                pos: Vec3::new(0.0, 0.0, -3.0),
                mass: 2.0,
            },
        ];
        let total = accumulate(sinks, &srcs, 1e-3);
        let mut manual = AccPot::default();
        for &s in &srcs {
            manual.add(interact(sinks, s, 1e-3));
        }
        assert_eq!(total, manual);
    }

    #[test]
    fn softened_force_weaker_than_unsoftened() {
        let src = Source {
            pos: Vec3::new(1.0, 0.0, 0.0),
            mass: 1.0,
        };
        let hard = interact(Vec3::ZERO, src, 0.0);
        let soft = interact(Vec3::ZERO, src, 0.5);
        assert!(soft.acc.norm() < hard.acc.norm());
    }
}
