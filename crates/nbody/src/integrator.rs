//! Orbit integration: the second-order Runge–Kutta predictor/corrector
//! used by GOTHIC (`predict` and `correct` kernels in Table 2 of the
//! paper).
//!
//! The scheme is the PEC (predict–evaluate–correct) form of the 2nd-order
//! Runge–Kutta / velocity-Verlet family:
//!
//! * `predict`: `x ← x + v·dt + a·dt²/2`, `v_pred ← v + a·dt` (all
//!   particles are drifted so the tree sees source positions at the new
//!   time),
//! * evaluate: new accelerations at the predicted positions,
//! * `correct`: `v ← v + (a_old + a_new)·dt/2` for the *active* particles
//!   (with block time steps, only the particles whose sub-step ends at the
//!   new time).

use crate::blockstep::BlockSteps;
use crate::particles::ParticleSet;
use crate::vec3::{Real, Vec3};

/// Non-destructive prediction used by the block-time-step pipeline: drift
/// each particle's position from its committed time to the global time of
/// `blocks` into `out`, leaving the committed state untouched (inactive
/// particles serve as force sources at the predicted position but are not
/// advanced). Runs after [`BlockSteps::advance`] and before any commit,
/// so the drift is its level's ([`BlockSteps::drift_of_level`]).
pub fn predict_positions(ps: &ParticleSet, blocks: &BlockSteps, out: &mut [Vec3]) {
    assert_eq!(blocks.len(), ps.len());
    assert_eq!(out.len(), ps.len());
    parallel::for_each_mut(out, |i, o| {
        let h = blocks.drift_of_level(blocks.levels()[i]);
        *o = ps.pos[i] + ps.vel[i] * h + ps.acc[i] * (0.5 * h * h);
    });
}

/// One shared-timestep integration step using a caller-provided force
/// evaluator: predict every position, evaluate, then correct every
/// velocity with the averaged old and new accelerations. `ps` is
/// advanced by `dt`.
///
/// This is the convenience path used by the examples and the correctness
/// tests; the GOTHIC pipeline runs its own predict and correct because it
/// interleaves tree maintenance and block-step bookkeeping.
pub fn step_shared<F>(ps: &mut ParticleSet, dt: Real, mut eval_forces: F)
where
    F: FnMut(&mut ParticleSet),
{
    let acc_old = ps.acc.clone();
    let (vel, acc) = (&ps.vel, &ps.acc);
    parallel::for_each_mut(&mut ps.pos, |i, p| {
        *p = *p + vel[i] * dt + acc[i] * (0.5 * dt * dt);
    });
    eval_forces(ps);
    let acc = &ps.acc;
    parallel::for_each_mut(&mut ps.vel, |i, v| {
        *v += (acc_old[i] + acc[i]) * (0.5 * dt);
    });
}

/// Standard collisionless time-step criterion: `dt = η · √(ε / |a|)`.
/// Returns `dt_max` when the acceleration is (numerically) zero.
#[inline]
pub fn timestep_criterion(eta: Real, eps: Real, acc: Vec3, dt_max: Real) -> Real {
    let a = acc.norm();
    if a <= Real::MIN_POSITIVE {
        dt_max
    } else {
        (eta * (eps / a).sqrt()).min(dt_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Source;

    /// Two-body circular orbit: m=1 central mass (pinned by symmetry using
    /// a large mass ratio), test particle on circular orbit.
    #[test]
    fn circular_orbit_stays_circular() {
        let m_central: Real = 1.0;
        let r0: Real = 1.0;
        let v0 = (m_central / r0).sqrt();
        let mut ps = ParticleSet::with_capacity(1);
        ps.push(Vec3::new(r0, 0.0, 0.0), Vec3::new(0.0, v0, 0.0), 1e-12);

        let eval = |ps: &mut ParticleSet| {
            let src = Source {
                pos: Vec3::ZERO,
                mass: m_central,
            };
            for i in 0..ps.len() {
                let o = crate::kernel::interact(ps.pos[i], src, 0.0);
                ps.acc[i] = o.acc;
                ps.pot[i] = o.pot;
            }
        };

        // Prime accelerations.
        eval(&mut ps);
        let period = 2.0 * std::f32::consts::PI * r0 / v0;
        let steps = 2000;
        let dt = period / steps as Real;
        for _ in 0..steps {
            step_shared(&mut ps, dt, eval);
        }
        // After one period the particle should be back near the start.
        let err = (ps.pos[0] - Vec3::new(r0, 0.0, 0.0)).norm();
        assert!(err < 2e-2, "orbit closure error {err}");
        // Radius conserved throughout (2nd-order scheme).
        assert!((ps.pos[0].norm() - r0).abs() < 1e-2);
    }

    #[test]
    fn predict_is_exact_for_constant_acceleration() {
        let mut ps = ParticleSet::with_capacity(1);
        ps.push(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1.0);
        ps.acc[0] = Vec3::new(0.0, 2.0, 0.0);
        // The evaluator leaves the acceleration constant.
        step_shared(&mut ps, 0.5, |_| {});
        // x = v t + a t²/2, v' = v + a t.
        assert_eq!(ps.pos[0], Vec3::new(0.5, 0.25, 0.0));
        assert_eq!(ps.vel[0], Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn timestep_criterion_scales_inversely_with_sqrt_acc() {
        let dt1 = timestep_criterion(0.1, 0.01, Vec3::new(1.0, 0.0, 0.0), 1e3);
        let dt2 = timestep_criterion(0.1, 0.01, Vec3::new(4.0, 0.0, 0.0), 1e3);
        assert!((dt1 / dt2 - 2.0).abs() < 1e-5);
    }

    #[test]
    fn timestep_criterion_caps_at_dt_max() {
        let dt = timestep_criterion(0.1, 0.01, Vec3::ZERO, 0.5);
        assert_eq!(dt, 0.5);
        let dt = timestep_criterion(10.0, 100.0, Vec3::new(1e-8, 0.0, 0.0), 0.5);
        assert_eq!(dt, 0.5);
    }
}
