//! Exponential stellar disk (§2.2): surface density
//! Σ(R) = M/(2πR_d²)·exp(−R/R_d), isothermal sech² vertical structure,
//! and velocities from the epicyclic approximation with the radial
//! dispersion normalised so the minimum Toomre Q equals the target
//! (Q_min = 1.8 for the paper's M31 model).

use crate::eddington::CompositePotential;
use crate::profiles::SphericalProfile;
use nbody::{Real, Vec3};
use prng::Rng;
use prng::{Distribution, Normal};

/// Exponential disk parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExponentialDisk {
    /// Total mass.
    pub mass: f64,
    /// Radial scale length R_d.
    pub rd: f64,
    /// Vertical scale height z_d (sech² profile).
    pub zd: f64,
    /// Target minimum Toomre Q.
    pub q_min: f64,
    /// Truncation radius.
    pub rt: f64,
}

impl ExponentialDisk {
    /// Surface density Σ(R).
    pub fn surface_density(&self, r: f64) -> f64 {
        if r >= self.rt {
            return 0.0;
        }
        self.mass / (2.0 * std::f64::consts::PI * self.rd * self.rd) * (-r / self.rd).exp()
    }

    /// Cylindrical mass enclosed within R (untruncated form):
    /// M(R) = M[1 − (1 + R/R_d)e^{−R/R_d}].
    pub fn enclosed_mass_2d(&self, r: f64) -> f64 {
        let x = r.min(self.rt) / self.rd;
        self.mass * (1.0 - (1.0 + x) * (-x).exp())
    }

    /// Sample a radius from the cumulative surface-density profile.
    fn sample_radius<R: Rng>(&self, rng: &mut R) -> f64 {
        let m_max = self.enclosed_mass_2d(self.rt);
        let u = rng.random::<f64>() * m_max;
        // Bisection on the monotone M(R).
        let (mut lo, mut hi) = (0.0, self.rt);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.enclosed_mass_2d(mid) < u {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Radial-dispersion normalisation σ₀ such that
    /// min_R Q(R) = q_min, with σ_R(R) = σ₀ e^{−R/(2R_d)} and
    /// Q = σ_R κ / (3.36 Σ).
    pub fn sigma0_for_q(&self, pot: &CompositePotential) -> f64 {
        let mut worst = f64::INFINITY;
        for k in 1..64 {
            let r = self.rt * k as f64 / 64.0;
            let kappa = epicyclic_frequency(pot, r);
            let sigma_unit = (-r / (2.0 * self.rd)).exp();
            if kappa <= 0.0 {
                continue;
            }
            // Q with σ₀ = 1; the needed σ₀ is q_min / min(Q₁).
            let q1 = sigma_unit * kappa / (3.36 * self.surface_density(r));
            worst = worst.min(q1);
        }
        self.q_min / worst
    }

    /// Sample `n` (position, velocity) pairs in the composite potential.
    pub fn sample<R: Rng>(
        &self,
        pot: &CompositePotential,
        n: usize,
        rng: &mut R,
    ) -> Vec<(Vec3, Vec3)> {
        let sigma0 = self.sigma0_for_q(pot);
        let normal = Normal::new(0.0, 1.0).unwrap();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let r = self.sample_radius(rng);
            let phi = rng.random::<f64>() * std::f64::consts::TAU;
            // sech² vertical profile: z = z_d · atanh(2u − 1).
            let u: f64 = rng.random::<f64>().clamp(1e-9, 1.0 - 1e-9);
            let z = self.zd * (2.0 * u - 1.0).atanh();

            let vc = pot.v_circ(r);
            let kappa = epicyclic_frequency(pot, r);
            let omega = vc / r.max(1e-9);
            let sigma_r = sigma0 * (-r / (2.0 * self.rd)).exp();
            // Epicyclic ratio σ_φ/σ_R = κ/(2Ω).
            let sigma_phi = sigma_r * (kappa / (2.0 * omega)).clamp(0.0, 1.0);
            // Isothermal-sheet vertical dispersion: σ_z² = π G Σ z_d.
            let sigma_z = (std::f64::consts::PI * self.surface_density(r) * self.zd).sqrt();
            // Asymmetric drift (first order): v̄_φ² = v_c² − σ_R²(2R/R_d −
            // 1 + κ²/(4Ω²)) … clamp at zero for the innermost radii.
            let ad = sigma_r
                * sigma_r
                * (2.0 * r / self.rd - 1.0 + (kappa * kappa) / (4.0 * omega * omega));
            let v_phi_mean = (vc * vc - ad).max(0.0).sqrt();

            let v_r = sigma_r * normal.sample(rng);
            let v_phi = v_phi_mean + sigma_phi * normal.sample(rng);
            let v_z = sigma_z * normal.sample(rng);

            let (s, c) = phi.sin_cos();
            let pos = Vec3::new((r * c) as Real, (r * s) as Real, z as Real);
            let vel = Vec3::new(
                (v_r * c - v_phi * s) as Real,
                (v_r * s + v_phi * c) as Real,
                v_z as Real,
            );
            out.push((pos, vel));
        }
        out
    }
}

/// Epicyclic frequency κ² = 4Ω² + R dΩ²/dR from the composite rotation
/// curve (finite differences).
pub fn epicyclic_frequency(pot: &CompositePotential, r: f64) -> f64 {
    let h = r * 1e-3 + 1e-6;
    let om2 = |rr: f64| {
        let v = pot.v_circ(rr);
        (v * v) / (rr * rr)
    };
    let d_om2 = (om2(r + h) - om2(r - h)) / (2.0 * h);
    let k2 = 4.0 * om2(r) + r * d_om2;
    k2.max(0.0).sqrt()
}

/// Adapter exposing the disk's spherically-averaged mass profile so it
/// can enter the composite potential used for sampling the spheroidal
/// components (the standard approximation in multi-component galaxy
/// initialisers).
#[derive(Clone, Copy, Debug)]
pub struct DiskAsSpherical(pub ExponentialDisk);

impl SphericalProfile for DiskAsSpherical {
    fn density(&self, r: f64) -> f64 {
        // ρ(r) = dM/dr / (4πr²) with M the cylindrical profile.
        let h = r * 1e-4 + 1e-9;
        let dm = (self.0.enclosed_mass_2d(r + h) - self.0.enclosed_mass_2d((r - h).max(0.0)))
            / (2.0 * h);
        dm / (4.0 * std::f64::consts::PI * r * r).max(1e-12)
    }

    fn enclosed_mass(&self, r: f64) -> f64 {
        self.0.enclosed_mass_2d(r)
    }

    fn r_max(&self) -> f64 {
        self.0.rt
    }

    fn scale_length(&self) -> f64 {
        self.0.rd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Hernquist;
    use prng::prelude::*;

    fn test_disk() -> ExponentialDisk {
        ExponentialDisk {
            mass: 366.0,
            rd: 5.4,
            zd: 0.6,
            q_min: 1.8,
            rt: 35.0,
        }
    }

    fn host_potential(disk: &ExponentialDisk) -> CompositePotential {
        // Disk plus a massive halo-like spheroid, so the rotation curve
        // is realistic.
        let halo = Hernquist::new(8000.0, 15.0, 300.0);
        CompositePotential::build(&[&halo, &DiskAsSpherical(*disk)])
    }

    #[test]
    fn surface_density_integrates_to_mass() {
        let d = test_disk();
        // 2π ∫ Σ R dR over the truncation range.
        let mut m = 0.0;
        let n = 20_000;
        for i in 0..n {
            let r = d.rt * (i as f64 + 0.5) / n as f64;
            m += 2.0 * std::f64::consts::PI * r * d.surface_density(r) * (d.rt / n as f64);
        }
        let expect = d.enclosed_mass_2d(d.rt);
        assert!(((m - expect) / expect).abs() < 1e-3, "{m} vs {expect}");
    }

    #[test]
    fn sampled_radii_match_profile() {
        let d = test_disk();
        let mut rng = StdRng::seed_from_u64(5);
        let mut radii: Vec<f64> = (0..8000).map(|_| d.sample_radius(&mut rng)).collect();
        radii.sort_by(|a, b| a.total_cmp(b));
        // Median of the exponential-disk mass profile: M(R)=M/2 at
        // R ≈ 1.678 R_d.
        let median = radii[radii.len() / 2];
        assert!(
            (median / d.rd - 1.678).abs() < 0.08,
            "median/Rd = {}",
            median / d.rd
        );
    }

    #[test]
    fn toomre_q_is_at_least_q_min() {
        let d = test_disk();
        let pot = host_potential(&d);
        let sigma0 = d.sigma0_for_q(&pot);
        for k in 1..32 {
            let r = d.rt * k as f64 / 32.0;
            let kappa = epicyclic_frequency(&pot, r);
            let q = sigma0 * (-r / (2.0 * d.rd)).exp() * kappa / (3.36 * d.surface_density(r));
            assert!(q >= d.q_min * 0.99, "Q({r}) = {q}");
        }
    }

    #[test]
    fn disk_rotates_near_circular_speed() {
        let d = test_disk();
        let pot = host_potential(&d);
        let mut rng = StdRng::seed_from_u64(11);
        let samples = d.sample(&pot, 4000, &mut rng);
        // Mean tangential velocity at R ≈ 2 R_d within 20% of v_circ.
        let mut vphi_sum = 0.0;
        let mut count = 0;
        for (p, v) in &samples {
            let r = (p.x * p.x + p.y * p.y).sqrt() as f64;
            if (r - 2.0 * d.rd).abs() < d.rd * 0.5 {
                // v_φ = (x v_y − y v_x)/R
                let vphi = (p.x * v.y - p.y * v.x) as f64 / r;
                vphi_sum += vphi;
                count += 1;
            }
        }
        let vphi_mean = vphi_sum / count as f64;
        let vc = pot.v_circ(2.0 * d.rd);
        assert!(
            (vphi_mean / vc - 1.0).abs() < 0.2,
            "⟨v_φ⟩ = {vphi_mean}, v_c = {vc}"
        );
    }

    #[test]
    fn vertical_structure_has_requested_scale() {
        let d = test_disk();
        let pot = host_potential(&d);
        let mut rng = StdRng::seed_from_u64(13);
        let samples = d.sample(&pot, 8000, &mut rng);
        let mut zs: Vec<f64> = samples.iter().map(|(p, _)| (p.z as f64).abs()).collect();
        zs.sort_by(|a, b| a.total_cmp(b));
        // Median |z| of a sech² profile: z_d·atanh(1/2) ≈ 0.5493 z_d.
        let median = zs[zs.len() / 2];
        assert!(
            (median / d.zd - 0.5493).abs() < 0.06,
            "median|z|/zd = {}",
            median / d.zd
        );
    }

    #[test]
    fn spherical_adapter_mass_consistent() {
        let d = test_disk();
        let s = DiskAsSpherical(d);
        assert!((s.total_mass() - d.enclosed_mass_2d(d.rt)).abs() < 1e-9);
        // dM/dr consistency at a couple of radii.
        for r in [2.0, 8.0] {
            let h = 1e-4;
            let dm = (s.enclosed_mass(r + h) - s.enclosed_mass(r - h)) / (2.0 * h);
            let expect = 4.0 * std::f64::consts::PI * r * r * s.density(r);
            assert!(((dm - expect) / expect).abs() < 1e-2, "r = {r}");
        }
    }
}
