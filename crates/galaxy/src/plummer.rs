//! Plummer-sphere convenience sampler (exact analytic construction, used
//! by the quickstart example and as the reference distribution in tests).

use nbody::{ParticleSet, Real, Vec3};
use prng::prelude::*;

/// Sample an equal-mass Plummer sphere of total mass `mass` and scale
/// radius `a` in virial equilibrium, using the exact inverse-transform /
/// rejection construction of Aarseth, Hénon & Wielen (1974).
pub fn plummer_model(n: usize, mass: Real, a: Real, seed: u64) -> ParticleSet {
    let _span = telemetry::span("ics");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParticleSet::with_capacity(n);
    let m_particle = mass / n as Real;
    for _ in 0..n {
        // Radius from M(r) inverse: r = a (u^{-2/3} − 1)^{-1/2};
        // cap u away from 0 to avoid rare huge radii.
        let u: f64 = rng.random::<f64>().clamp(1e-6, 0.99999);
        let r = a as f64 * (u.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
        let cos_t = rng.random::<f64>() * 2.0 - 1.0;
        let sin_t = (1.0 - cos_t * cos_t).sqrt();
        let phi = rng.random::<f64>() * std::f64::consts::TAU;
        let pos = Vec3::new(
            (r * sin_t * phi.cos()) as Real,
            (r * sin_t * phi.sin()) as Real,
            (r * cos_t) as Real,
        );
        // Speed fraction q = v/v_esc from g(q) ∝ q²(1−q²)^{7/2}.
        let q = loop {
            let x: f64 = rng.random();
            let y: f64 = rng.random::<f64>() * 0.1;
            if y < x * x * (1.0 - x * x).powf(3.5) {
                break x;
            }
        };
        let v_esc = (2.0 * mass as f64 / (r * r + (a * a) as f64).sqrt()).sqrt();
        let v = q * v_esc;
        let cos_tv = rng.random::<f64>() * 2.0 - 1.0;
        let sin_tv = (1.0 - cos_tv * cos_tv).sqrt();
        let phiv = rng.random::<f64>() * std::f64::consts::TAU;
        let vel = Vec3::new(
            (v * sin_tv * phiv.cos()) as Real,
            (v * sin_tv * phiv.sin()) as Real,
            (v * cos_tv) as Real,
        );
        ps.push(pos, vel, m_particle);
    }
    crate::m31::zero_com(&mut ps);
    ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::direct::self_gravity;
    use nbody::energy::{measure, virial_ratio};

    #[test]
    fn plummer_is_in_virial_equilibrium() {
        let mut ps = plummer_model(4000, 1.0, 1.0, 42);
        let eps2 = 1e-4;
        self_gravity(&mut ps, eps2);
        let d = measure(&ps, eps2);
        let q = virial_ratio(&d);
        assert!((q - 1.0).abs() < 0.06, "virial ratio {q}");
    }

    #[test]
    fn plummer_half_mass_radius() {
        let ps = plummer_model(8000, 1.0, 2.0, 7);
        let mut radii: Vec<f64> = ps.pos.iter().map(|p| p.norm() as f64).collect();
        radii.sort_by(|a, b| a.total_cmp(b));
        let median = radii[radii.len() / 2];
        // r_half = 1.3048 a.
        assert!(
            (median / 2.0 - 1.3048).abs() < 0.08,
            "median/a = {}",
            median / 2.0
        );
    }

    #[test]
    fn energies_scale_with_mass_and_radius() {
        // Plummer virial equilibrium: W = −3πGM²/(32a), K = −W/2 =
        // 3πGM²/(64a). With M = 2, a = 1: K = 3π/16 ≈ 0.589.
        let mut ps = plummer_model(6000, 2.0, 1.0, 9);
        self_gravity(&mut ps, 1e-4);
        let d = measure(&ps, 1e-4);
        let k_analytic = 3.0 * std::f64::consts::PI / 64.0 * 4.0;
        assert!(
            (d.kinetic / k_analytic - 1.0).abs() < 0.1,
            "K = {}, expect {k_analytic}",
            d.kinetic
        );
    }
}
