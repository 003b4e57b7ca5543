//! Spherical density profiles of the M31 model (§2.2 of the paper).
//!
//! The paper's mass model follows Geehan et al. (2006) / Fardal et al.
//! (2007) as updated by MAGI: an NFW dark halo, a Sérsic stellar halo, a
//! Hernquist bulge (the exponential disk lives in `disk.rs`). Each
//! profile provides density and enclosed mass; the composite potential
//! and the Eddington inversion are built on top in `eddington.rs`.
//!
//! All quantities are in simulation units (G = 1, kpc, 10⁸ M⊙).

/// A spherically-symmetric density profile.
pub trait SphericalProfile {
    /// Density ρ(r).
    fn density(&self, r: f64) -> f64;
    /// Mass enclosed within `r`.
    fn enclosed_mass(&self, r: f64) -> f64;
    /// Truncation radius (sampling draws r within it).
    fn r_max(&self) -> f64;
    /// Characteristic scale length (used for grid construction).
    fn scale_length(&self) -> f64;
    /// Total mass (within the truncation radius).
    fn total_mass(&self) -> f64 {
        self.enclosed_mass(self.r_max())
    }
}

/// Navarro–Frenk–White halo with an exponentially tapered truncation:
/// ρ ∝ 1 / [(r/rs)(1 + r/rs)²] inside `rt`, decaying as
/// `ρ(rt)·exp(−(r − rt)/w)` beyond (taper width `w = 0.3·rt`).
///
/// A *hard* truncation would make the Eddington distribution function
/// vanish (and formally go negative) over the energy range of the outer
/// halo — exactly where an NFW profile keeps a large share of its mass —
/// so equilibrium sampling requires the smooth cutoff (the same device
/// MAGI and Kazantzidis-style initialisers use).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Nfw {
    /// Scale density ρ₀.
    pub rho0: f64,
    /// Scale radius rs.
    pub rs: f64,
    /// Truncation radius (taper onset).
    pub rt: f64,
}

/// Taper width as a fraction of the truncation radius.
const NFW_TAPER_FRACTION: f64 = 0.3;

impl Nfw {
    fn taper_width(&self) -> f64 {
        NFW_TAPER_FRACTION * self.rt
    }

    /// Density at the taper onset for ρ₀ = 1.
    fn edge_density_unit(&self) -> f64 {
        let x = self.rt / self.rs;
        1.0 / (x * (1.0 + x) * (1.0 + x))
    }

    /// ∫_{rt}^{r} 4π r'² e^{−(r'−rt)/w} dr' (unit edge density).
    fn taper_mass_unit(&self, r: f64) -> f64 {
        let w = self.taper_width();
        let u = ((r - self.rt) / w).max(0.0);
        // Large-u limit: every e^{-u} term vanishes (avoid inf·0 = NaN).
        let (u, eu) = if u > 500.0 {
            (500.0, 0.0)
        } else {
            (u, (-u).exp())
        };
        let rt = self.rt;
        4.0 * std::f64::consts::PI
            * self.edge_density_unit()
            * w
            * (rt * rt * (1.0 - eu)
                + 2.0 * rt * w * (1.0 - (1.0 + u) * eu)
                + w * w * (2.0 - (u * u + 2.0 * u + 2.0) * eu))
    }

    /// Construct from the total mass (inner profile + taper out to
    /// [`SphericalProfile::r_max`]).
    pub fn from_mass(mass: f64, rs: f64, rt: f64) -> Self {
        let x = rt / rs;
        let mu = (1.0 + x).ln() - x / (1.0 + x);
        let probe = Nfw { rho0: 1.0, rs, rt };
        let unit_total =
            4.0 * std::f64::consts::PI * rs.powi(3) * mu + probe.taper_mass_unit(probe.r_max());
        Nfw {
            rho0: mass / unit_total,
            rs,
            rt,
        }
    }
}

impl SphericalProfile for Nfw {
    fn density(&self, r: f64) -> f64 {
        if r >= self.r_max() {
            return 0.0;
        }
        if r <= self.rt {
            let x = (r / self.rs).max(1e-12);
            self.rho0 / (x * (1.0 + x) * (1.0 + x))
        } else {
            self.rho0 * self.edge_density_unit() * (-(r - self.rt) / self.taper_width()).exp()
        }
    }

    fn enclosed_mass(&self, r: f64) -> f64 {
        let r = r.min(self.r_max());
        let x = (r.min(self.rt) / self.rs).max(0.0);
        let mu = (1.0 + x).ln() - x / (1.0 + x);
        let inner = 4.0 * std::f64::consts::PI * self.rho0 * self.rs.powi(3) * mu;
        if r <= self.rt {
            inner
        } else {
            inner + self.rho0 * self.taper_mass_unit(r)
        }
    }

    fn r_max(&self) -> f64 {
        self.rt + 8.0 * self.taper_width()
    }

    fn scale_length(&self) -> f64 {
        self.rs
    }
}

/// Hernquist (1990) bulge: ρ = M a / [2π r (r + a)³].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hernquist {
    pub mass: f64,
    pub a: f64,
    pub rt: f64,
}

impl Hernquist {
    /// `mass` is the mass inside the truncation radius; the internal
    /// profile parameter is inflated by ((rt+a)/rt)² so the truncated
    /// total matches exactly.
    pub fn new(mass: f64, a: f64, rt: f64) -> Self {
        let infl = ((rt + a) / rt).powi(2);
        Hernquist {
            mass: mass * infl,
            a,
            rt,
        }
    }
}

impl SphericalProfile for Hernquist {
    fn density(&self, r: f64) -> f64 {
        if r >= self.rt {
            return 0.0;
        }
        let r = r.max(1e-12);
        self.mass * self.a / (2.0 * std::f64::consts::PI * r * (r + self.a).powi(3))
    }

    fn enclosed_mass(&self, r: f64) -> f64 {
        let r = r.min(self.rt);
        self.mass * r * r / ((r + self.a) * (r + self.a))
    }

    fn r_max(&self) -> f64 {
        self.rt
    }

    fn scale_length(&self) -> f64 {
        self.a
    }
}

/// Deprojected Sérsic profile (stellar halo) using the Prugniel–Simien
/// (1997) approximation:
/// ρ(r) ∝ (r/Re)^{-p} exp(−b (r/Re)^{1/n}),
/// with p = 1 − 0.6097/n + 0.05463/n² and b = 2n − 1/3 + 0.009876/n.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sersic {
    pub mass: f64,
    /// Effective (projected half-light) radius.
    pub re: f64,
    /// Sérsic index n.
    pub n: f64,
    pub rt: f64,
    rho_scale: f64,
}

impl Sersic {
    pub fn new(mass: f64, re: f64, n: f64, rt: f64) -> Self {
        let mut s = Sersic {
            mass,
            re,
            n,
            rt,
            rho_scale: 1.0,
        };
        // Normalise numerically so the enclosed mass at rt equals `mass`.
        let raw = s.raw_mass(rt);
        s.rho_scale = mass / raw;
        s
    }

    fn b(&self) -> f64 {
        2.0 * self.n - 1.0 / 3.0 + 0.009876 / self.n
    }

    fn p(&self) -> f64 {
        1.0 - 0.6097 / self.n + 0.05463 / (self.n * self.n)
    }

    fn raw_density(&self, r: f64) -> f64 {
        let x = (r / self.re).max(1e-12);
        x.powf(-self.p()) * (-self.b() * x.powf(1.0 / self.n)).exp()
    }

    /// ∫₀ʳ 4π r'² ρ_raw dr' by adaptive trapezoid on a log grid.
    fn raw_mass(&self, r: f64) -> f64 {
        let r = r.min(self.rt);
        if r <= 0.0 {
            return 0.0;
        }
        let n_steps = 512;
        let lo = (self.re * 1e-6).ln();
        let hi = r.ln();
        if hi <= lo {
            return 0.0;
        }
        let dx = (hi - lo) / n_steps as f64;
        let mut sum = 0.0;
        for i in 0..=n_steps {
            let x = lo + i as f64 * dx;
            let rr = x.exp();
            // log-space substitution: dr = r d(ln r)
            let f = 4.0 * std::f64::consts::PI * rr.powi(3) * self.raw_density(rr);
            let w = if i == 0 || i == n_steps { 0.5 } else { 1.0 };
            sum += w * f;
        }
        sum * dx
    }
}

impl SphericalProfile for Sersic {
    fn density(&self, r: f64) -> f64 {
        if r >= self.rt {
            return 0.0;
        }
        self.rho_scale * self.raw_density(r)
    }

    fn enclosed_mass(&self, r: f64) -> f64 {
        self.rho_scale * self.raw_mass(r)
    }

    /// The normalisation itself, which `enclosed_mass(rt)` may miss in the
    /// last bit; the sampler's radius draws scale with it.
    fn total_mass(&self) -> f64 {
        self.mass
    }

    fn r_max(&self) -> f64 {
        self.rt
    }

    fn scale_length(&self) -> f64 {
        self.re
    }
}

/// Plummer sphere — not part of the M31 model, but the standard test
/// distribution with an analytic distribution function (used by the
/// quickstart example and the sampling tests).
#[derive(Clone, Copy, Debug)]
pub struct Plummer {
    pub mass: f64,
    pub a: f64,
    pub rt: f64,
}

impl SphericalProfile for Plummer {
    fn density(&self, r: f64) -> f64 {
        if r >= self.rt {
            return 0.0;
        }
        let a2 = self.a * self.a;
        3.0 * self.mass / (4.0 * std::f64::consts::PI * self.a.powi(3))
            * (1.0 + r * r / a2).powf(-2.5)
    }

    fn enclosed_mass(&self, r: f64) -> f64 {
        let r = r.min(self.rt);
        let x = r / self.a;
        self.mass * x.powi(3) * (1.0 + x * x).powf(-1.5)
    }

    fn r_max(&self) -> f64 {
        self.rt
    }

    fn scale_length(&self) -> f64 {
        self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_density_mass_consistency(p: &dyn SphericalProfile, tol: f64) {
        // dM/dr = 4π r² ρ on a few radii, via central differences of the
        // profile's own enclosed_mass.
        for frac in [0.3, 1.0, 3.0] {
            let r = frac * p.scale_length();
            if r >= p.r_max() {
                continue;
            }
            let h = r * 1e-4;
            let dm = (p.enclosed_mass(r + h) - p.enclosed_mass(r - h)) / (2.0 * h);
            let expect = 4.0 * std::f64::consts::PI * r * r * p.density(r);
            let rel = ((dm - expect) / expect).abs();
            assert!(rel < tol, "r = {r}: dM/dr {dm} vs 4πr²ρ {expect}");
        }
    }

    #[test]
    fn nfw_mass_profile_consistent() {
        let nfw = Nfw::from_mass(8110.0, 7.63, 200.0);
        check_density_mass_consistency(&nfw, 1e-5);
        assert!((nfw.total_mass() - 8110.0).abs() / 8110.0 < 1e-12);
    }

    #[test]
    fn hernquist_half_mass_radius() {
        // Hernquist: M(r) = M r²/(r+a)² ⇒ half mass at r = a(1+√2).
        let h = Hernquist::new(324.0, 0.61, 100.0);
        let r_half = h.a * (1.0 + 2.0f64.sqrt());
        let frac = h.enclosed_mass(r_half) / h.mass;
        assert!((frac - 0.5).abs() < 1e-3, "frac = {frac}");
        check_density_mass_consistency(&h, 1e-5);
    }

    #[test]
    fn sersic_normalises_to_requested_mass() {
        let s = Sersic::new(80.0, 9.0, 2.2, 300.0);
        assert!((s.enclosed_mass(300.0) - 80.0).abs() / 80.0 < 1e-6);
        check_density_mass_consistency(&s, 1e-2);
    }

    #[test]
    fn sersic_density_decreases() {
        let s = Sersic::new(80.0, 9.0, 2.2, 300.0);
        let mut last = f64::INFINITY;
        for r in [0.1, 0.5, 1.0, 5.0, 10.0, 50.0] {
            let d = s.density(r);
            assert!(d < last);
            last = d;
        }
    }

    #[test]
    fn plummer_analytic_checks() {
        let p = Plummer {
            mass: 1.0,
            a: 1.0,
            rt: 100.0,
        };
        check_density_mass_consistency(&p, 1e-5);
        // Half-mass radius of a Plummer sphere: r ≈ 1.30 a.
        let frac = p.enclosed_mass(1.3048) / p.total_mass();
        assert!((frac - 0.5).abs() < 2e-3, "frac = {frac}");
    }

    #[test]
    fn truncation_tapers_density_and_caps_mass() {
        let nfw = Nfw::from_mass(1000.0, 5.0, 50.0);
        // Density is continuous at the taper onset and zero past r_max.
        let inner = nfw.density(50.0 - 1e-6);
        let outer = nfw.density(50.0 + 1e-6);
        assert!(((inner - outer) / inner).abs() < 1e-3);
        assert!(nfw.density(60.0) > 0.0 && nfw.density(60.0) < inner);
        assert_eq!(nfw.density(nfw.r_max() + 1.0), 0.0);
        assert_eq!(nfw.enclosed_mass(1e6), nfw.total_mass());
        assert!((nfw.total_mass() - 1000.0).abs() / 1000.0 < 1e-9);
    }

    #[test]
    fn nfw_taper_mass_matches_numeric_integral() {
        let nfw = Nfw::from_mass(500.0, 4.0, 40.0);
        // Numerically integrate 4πr²ρ from rt to rmax and compare with
        // the closed form.
        let (lo, hi) = (40.0, nfw.r_max());
        let n = 40_000;
        let mut m = 0.0;
        for i in 0..n {
            let r = lo + (hi - lo) * (i as f64 + 0.5) / n as f64;
            m += 4.0 * std::f64::consts::PI * r * r * nfw.density(r) * (hi - lo) / n as f64;
        }
        let closed = nfw.total_mass() - nfw.enclosed_mass(40.0);
        assert!(((m - closed) / closed).abs() < 1e-3, "{m} vs {closed}");
    }
}
