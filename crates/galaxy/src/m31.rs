//! The Andromeda (M31) model of §2.2.
//!
//! "a dark matter halo with the Navarro–Frenk–White model (the mass is
//! 8.11 × 10¹¹ M⊙ and the scale length is 7.63 kpc), a stellar halo with
//! the Sérsic model (the mass is 8 × 10⁹ M⊙, the scale length is 9 kpc,
//! and the Sérsic index is 2.2), a stellar bulge with the Hernquist model
//! (the mass is 3.24 × 10¹⁰ M⊙ and the scale length is 0.61 kpc), and an
//! exponential disk (the mass is 3.66 × 10¹⁰ M⊙, the scale length is
//! 5.4 kpc, the scale height is 0.6 kpc, and the minimum of the Toomre's
//! Q-value is 1.8)" — sampled in dynamical equilibrium with **identical
//! particle masses** across all components, as MAGI does.

use crate::disk::{DiskAsSpherical, ExponentialDisk};
use crate::eddington::{
    draw_component, eddington_df, mass_table, CompositePotential, EddingtonDf, N_GRID,
};
use crate::profiles::{Hernquist, Nfw, Sersic, SphericalProfile};
use nbody::{ParticleSet, Real, Vec3};
use prng::prelude::*;
use std::sync::OnceLock;

/// The four-component M31 model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct M31Model {
    pub halo: Nfw,
    pub stellar_halo: Sersic,
    pub bulge: Hernquist,
    pub disk: ExponentialDisk,
}

/// Truncation radius of the spheroidal components, kpc.
const R_TRUNC: f64 = 240.0;

impl M31Model {
    /// The paper's parameters, in simulation units (10⁸ M⊙, kpc).
    pub fn paper_model() -> Self {
        M31Model {
            halo: Nfw::from_mass(8110.0, 7.63, R_TRUNC),
            stellar_halo: Sersic::new(80.0, 9.0, 2.2, R_TRUNC),
            bulge: Hernquist::new(324.0, 0.61, R_TRUNC),
            disk: ExponentialDisk {
                mass: 366.0,
                rd: 5.4,
                zd: 0.6,
                q_min: 1.8,
                rt: 40.0,
            },
        }
    }

    /// Total model mass.
    pub fn total_mass(&self) -> f64 {
        self.halo.total_mass()
            + self.stellar_halo.total_mass()
            + self.bulge.total_mass()
            + self.disk.mass
    }

    /// Composite potential including the spherically-averaged disk.
    pub fn potential(&self) -> CompositePotential {
        let disk_sph = DiskAsSpherical(self.disk);
        CompositePotential::build(&[&self.halo, &self.stellar_halo, &self.bulge, &disk_sph])
    }

    /// Sample `n_total` equal-mass particles in dynamical equilibrium.
    /// Particle counts per component are proportional to the component
    /// masses (the MAGI constraint quoted in §2.2).
    ///
    /// The paper model's tables (potential, M(r) and DF of each
    /// spheroid) are built by the first call in the process and kept in
    /// a static; any other model builds its own for the call. The
    /// particles are drawn afresh every time.
    pub fn sample(&self, n_total: usize, seed: u64) -> ParticleSet {
        static PAPER_TABLES: OnceLock<ModelTables> = OnceLock::new();
        assert!(n_total >= 16, "need at least a handful of particles");
        let _span = telemetry::span("ics");
        let own;
        let tables = if *self == M31Model::paper_model() {
            PAPER_TABLES.get_or_init(|| ModelTables::build(self))
        } else {
            own = ModelTables::build(self);
            &own
        };
        self.draw(tables, n_total, seed)
    }

    /// Draw `n_total` particles from this model's `tables`.
    fn draw(&self, tables: &ModelTables, n_total: usize, seed: u64) -> ParticleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let pot = &tables.pot;
        let m_tot = self.total_mass();
        let m_particle = (m_tot / n_total as f64) as Real;

        let count = |mass: f64| -> usize { (mass / m_tot * n_total as f64).round() as usize };
        let n_halo = count(self.halo.total_mass());
        let n_sersic = count(self.stellar_halo.total_mass());
        let n_bulge = count(self.bulge.total_mass());
        let n_disk = n_total.saturating_sub(n_halo + n_sersic + n_bulge);

        let mut ps = ParticleSet::with_capacity(n_total);
        let add = |pairs: Vec<(Vec3, Vec3)>, ps: &mut ParticleSet| {
            for (p, v) in pairs {
                ps.push(p, v, m_particle);
            }
        };

        for (t, n) in tables.spheroids.iter().zip([n_halo, n_sersic, n_bulge]) {
            if n == 0 {
                continue;
            }
            let pairs = draw_component(pot, &t.df, t.total_mass, &t.mass, n, &mut rng);
            add(pairs, &mut ps);
        }
        if n_disk > 0 {
            add(self.disk.sample(pot, n_disk, &mut rng), &mut ps);
        }

        // Zero the centre of mass and the net momentum.
        zero_com(&mut ps);
        ps
    }
}

/// Everything [`M31Model::sample`] draws from that depends only on the
/// model: the composite potential and the tables of the dark halo, the
/// stellar halo and the bulge, in that order. All inline arrays, so the
/// paper model's copy lives in a static without holding heap.
struct ModelTables {
    pot: CompositePotential,
    spheroids: [SpheroidTables; 3],
}

/// One spheroid's total mass, M(r) on the potential's radii and
/// Eddington DF in the composite potential.
struct SpheroidTables {
    total_mass: f64,
    mass: [f64; N_GRID],
    df: EddingtonDf,
}

impl ModelTables {
    fn build(model: &M31Model) -> Self {
        let pot = model.potential();
        let spheroid = |c: &dyn SphericalProfile| SpheroidTables {
            total_mass: c.total_mass(),
            mass: mass_table(c, &pot),
            df: eddington_df(c, &pot),
        };
        let spheroids = [
            spheroid(&model.halo),
            spheroid(&model.stellar_halo),
            spheroid(&model.bulge),
        ];
        ModelTables { pot, spheroids }
    }
}

/// Remove the centre-of-mass offset and drift.
pub fn zero_com(ps: &mut ParticleSet) {
    let mut m = 0.0f64;
    let mut com = [0.0f64; 3];
    let mut mom = [0.0f64; 3];
    for i in 0..ps.len() {
        let mi = ps.mass[i] as f64;
        m += mi;
        let p = ps.pos[i].as_f64();
        let v = ps.vel[i].as_f64();
        for k in 0..3 {
            com[k] += mi * p[k];
            mom[k] += mi * v[k];
        }
    }
    if m == 0.0 {
        return;
    }
    let dc = Vec3::new(
        (com[0] / m) as Real,
        (com[1] / m) as Real,
        (com[2] / m) as Real,
    );
    let dv = Vec3::new(
        (mom[0] / m) as Real,
        (mom[1] / m) as Real,
        (mom[2] / m) as Real,
    );
    for i in 0..ps.len() {
        ps.pos[i] -= dc;
        ps.vel[i] -= dv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_masses_and_scales() {
        let m = M31Model::paper_model();
        // 8.11e11 M⊙ = 8110 simulation units, etc.
        assert!((m.halo.total_mass() - 8110.0).abs() / 8110.0 < 1e-9);
        assert!((m.stellar_halo.total_mass() - 80.0).abs() < 1e-9);
        assert!((m.bulge.total_mass() - 324.0).abs() < 1e-9);
        assert!((m.disk.mass - 366.0).abs() < 1e-9);
        assert!((m.halo.rs - 7.63).abs() < 1e-12);
        assert!((m.stellar_halo.re - 9.0).abs() < 1e-12);
        assert!((m.stellar_halo.n - 2.2).abs() < 1e-12);
        assert!((m.bulge.a - 0.61).abs() < 1e-12);
        assert!((m.disk.rd - 5.4).abs() < 1e-12);
        assert!((m.disk.zd - 0.6).abs() < 1e-12);
        assert!((m.disk.q_min - 1.8).abs() < 1e-12);
    }

    #[test]
    fn sample_produces_equal_mass_particles() {
        let m31 = M31Model::paper_model();
        let ps = m31.sample(4096, 1);
        assert_eq!(ps.len(), 4096);
        let m0 = ps.mass[0];
        assert!(ps.mass.iter().all(|&m| (m - m0).abs() < 1e-9 * m0));
        // Total sampled mass ≈ model mass.
        let rel = (ps.total_mass() - m31.total_mass()).abs() / m31.total_mass();
        assert!(rel < 1e-3, "rel = {rel}");
        ps.check_invariants().unwrap();
    }

    /// Only the paper model reads the kept tables: a model that differs
    /// in one field, sampled after the paper model, gets what a cold
    /// build of its own tables gives.
    #[test]
    fn kept_tables_serve_only_the_paper_model() {
        let paper = M31Model::paper_model();
        let mut heavy_bulge = paper;
        heavy_bulge.bulge = Hernquist::new(2.0 * paper.bulge.mass, paper.bulge.a, R_TRUNC);
        assert_ne!(heavy_bulge, paper);
        let from_paper = paper.sample(2048, 5);
        let warm = heavy_bulge.sample(2048, 5);
        let cold = heavy_bulge.draw(&ModelTables::build(&heavy_bulge), 2048, 5);
        assert_eq!(warm, cold);
        assert_ne!(warm, from_paper);
        assert_eq!(from_paper, paper.draw(&ModelTables::build(&paper), 2048, 5));
    }

    /// Concurrent calls (as `gothicd` jobs make), released together by a
    /// barrier, may race to build the kept tables; every caller must get
    /// the same particles.
    #[test]
    fn concurrent_paper_samples_are_identical() {
        let start = std::sync::Barrier::new(2);
        let sets: Vec<ParticleSet> = std::thread::scope(|s| {
            let jobs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        M31Model::paper_model().sample(1024, 11)
                    })
                })
                .collect();
            jobs.into_iter().map(|j| j.join().unwrap()).collect()
        });
        assert_eq!(sets[0], sets[1]);
        let paper = M31Model::paper_model();
        assert_eq!(sets[0], paper.draw(&ModelTables::build(&paper), 1024, 11));
    }

    #[test]
    fn component_fractions_follow_masses() {
        // With equal-mass particles, ~91% belong to the dark halo.
        let m31 = M31Model::paper_model();
        let frac = m31.halo.total_mass() / m31.total_mass();
        assert!((frac - 0.913) < 0.02, "halo fraction {frac}");
    }

    #[test]
    fn com_and_momentum_are_zeroed() {
        let m31 = M31Model::paper_model();
        let ps = m31.sample(2048, 3);
        let mut com = [0.0f64; 3];
        let mut mom = [0.0f64; 3];
        for i in 0..ps.len() {
            let m = ps.mass[i] as f64;
            for (k, (&p, &v)) in ps.pos[i]
                .as_f64()
                .iter()
                .zip(ps.vel[i].as_f64().iter())
                .enumerate()
            {
                com[k] += m * p;
                mom[k] += m * v;
            }
        }
        for k in 0..3 {
            assert!(com[k].abs() < 1.0, "com[{k}] = {}", com[k]);
            assert!(mom[k].abs() < 1.0, "mom[{k}] = {}", mom[k]);
        }
    }

    #[test]
    fn rotation_curve_is_flat_ish_at_disk_radii() {
        // M31's rotation curve is ~230–260 km/s over the disk — check
        // the composite model lands in that neighbourhood (the unit of
        // velocity is ≈ 20.74 km/s).
        let m31 = M31Model::paper_model();
        let pot = m31.potential();
        let vc10 = pot.v_circ(10.0) * nbody::units::velocity_unit_kms();
        let vc20 = pot.v_circ(20.0) * nbody::units::velocity_unit_kms();
        assert!((180.0..320.0).contains(&vc10), "v_c(10 kpc) = {vc10} km/s");
        assert!((180.0..320.0).contains(&vc20), "v_c(20 kpc) = {vc20} km/s");
    }

    #[test]
    fn sampled_model_is_centrally_concentrated() {
        let m31 = M31Model::paper_model();
        let ps = m31.sample(4096, 9);
        let inside: usize = ps.pos.iter().filter(|p| p.norm() < 30.0).count();
        // NFW with rs = 7.63 truncated at 240 kpc holds roughly half its
        // mass within ~30 kpc.
        let frac = inside as f64 / ps.len() as f64;
        assert!(
            (0.3..0.85).contains(&frac),
            "fraction inside 30 kpc: {frac}"
        );
    }
}
