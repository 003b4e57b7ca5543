//! The O(N²) direct-summation baseline.
//!
//! The paper contrasts the tree method against the direct method (§1): the
//! direct method executes floating-point operations only, while the tree
//! method interleaves integer bookkeeping — which is exactly what makes the
//! Volta INT/FP overlap analysis (§4.2) interesting. This module is both
//! the correctness oracle for the tree code and the "FP-only" baseline
//! workload for the performance model.

use crate::kernel::{interact, Source};
use crate::particles::ParticleSet;
use crate::vec3::{Real, Vec3};

/// Accelerations and potentials of `sinks` positions due to all
/// `sources`, summed in source order per sink, so the result does not
/// depend on the pool's thread count. Returns (acc, pot) vectors.
pub fn direct_parallel(sinks: &[Vec3], sources: &[Source], eps2: Real) -> (Vec<Vec3>, Vec<Real>) {
    let results: Vec<(Vec3, Real)> = parallel::map_range(0..sinks.len(), |i| {
        let p = sinks[i];
        let mut a = Vec3::ZERO;
        let mut ph = 0.0;
        for &s in sources {
            let o = interact(p, s, eps2);
            a += o.acc;
            ph += o.pot;
        }
        (a, ph)
    });
    let acc = results.iter().map(|r| r.0).collect();
    let pot = results.iter().map(|r| r.1).collect();
    (acc, pot)
}

/// Evaluate self-gravity of a particle set with direct summation and store
/// the result in `ps.acc` / `ps.pot`. The self-interaction potential bias
/// (−mᵢ/ε per particle) is retained, matching the GPU kernel; diagnostics
/// correct for it explicitly.
pub fn self_gravity(ps: &mut ParticleSet, eps2: Real) {
    let sources: Vec<Source> = ps
        .pos
        .iter()
        .zip(&ps.mass)
        .map(|(&pos, &mass)| Source { pos, mass })
        .collect();
    let (acc, pot) = direct_parallel(&ps.pos, &sources, eps2);
    ps.acc = acc;
    ps.pot = pot;
}

/// Number of FP32 operations of one direct interaction under the paper's
/// counting convention (rsqrt = 4 Flops): 3 sub + 3 fma(×2) + rsqrt(4) +
/// 3 mul + 3 fma(×2) + 1 fma(×2) = 3 + 6 + 4 + 3 + 6 + 2 = 24. GOTHIC's
/// published performance figures use a comparable convention.
pub const FLOPS_PER_INTERACTION: u64 = 24;

#[cfg(test)]
mod tests {
    use super::*;
    use prng::prelude::*;

    fn random_set(n: usize, seed: u64) -> ParticleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let p = Vec3::new(
                rng.random::<Real>(),
                rng.random::<Real>(),
                rng.random::<Real>(),
            );
            let v = Vec3::new(
                rng.random::<Real>() - 0.5,
                rng.random::<Real>() - 0.5,
                rng.random::<Real>() - 0.5,
            );
            ps.push(p, v, 1.0 / n as Real);
        }
        ps
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Serial (one thread) and parallel (four threads) agree bit for
        // bit. Enough sinks for several pool chunks, so four threads split
        // them.
        let ps = random_set(4 * parallel::DEFAULT_CHUNK + 7, 1);
        let sources: Vec<Source> = ps
            .pos
            .iter()
            .zip(&ps.mass)
            .take(64)
            .map(|(&pos, &mass)| Source { pos, mass })
            .collect();
        let run = |t| parallel::with_thread_count(t, || direct_parallel(&ps.pos, &sources, 1e-4));
        let bits = |(acc, pot): (Vec<Vec3>, Vec<Real>)| {
            let a = acc.into_iter().flat_map(<[Real; 3]>::from);
            a.chain(pot).map(Real::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(bits(run(1)), bits(run(4)));
    }

    #[test]
    fn two_body_forces_are_opposite() {
        let mut ps = ParticleSet::with_capacity(2);
        ps.push(Vec3::new(-0.5, 0.0, 0.0), Vec3::ZERO, 2.0);
        ps.push(Vec3::new(0.5, 0.0, 0.0), Vec3::ZERO, 3.0);
        self_gravity(&mut ps, 1e-6);
        // Newton's third law: m0·a0 = −m1·a1
        let f0 = ps.acc[0] * ps.mass[0];
        let f1 = ps.acc[1] * ps.mass[1];
        assert!((f0 + f1).norm() < 1e-4 * f0.norm());
    }

    #[test]
    fn net_force_on_isolated_system_is_zero() {
        let mut ps = random_set(64, 7);
        self_gravity(&mut ps, 1e-4);
        let mut net = [0.0f64; 3];
        for i in 0..ps.len() {
            let f = (ps.acc[i] * ps.mass[i]).as_f64();
            net[0] += f[0];
            net[1] += f[1];
            net[2] += f[2];
        }
        let scale: f64 = ps
            .acc
            .iter()
            .zip(&ps.mass)
            .map(|(a, &m)| (a.norm() * m) as f64)
            .sum();
        let mag = (net[0] * net[0] + net[1] * net[1] + net[2] * net[2]).sqrt();
        assert!(mag < 1e-4 * scale, "net = {mag}, scale = {scale}");
    }

    #[test]
    fn potential_is_negative_definite_for_point_cloud() {
        let mut ps = random_set(32, 3);
        self_gravity(&mut ps, 1e-4);
        for &p in &ps.pot {
            assert!(p < 0.0);
        }
    }
}
