//! The M31 initial-condition generator (MAGI substitute) under
//! integration-level scrutiny: equilibrium quality and component
//! structure, verified with the direct-summation oracle.

use gothic::galaxy::{eddington_df, sample_component, M31Model, SphericalProfile};
use gothic::nbody::direct::self_gravity;
use gothic::nbody::energy::{measure, virial_ratio};
use gothic::nbody::units;

#[test]
fn m31_sample_is_near_virial_equilibrium() {
    let m31 = M31Model::paper_model();
    let mut ps = m31.sample(4096, 100);
    let eps2 = 1e-4f32;
    self_gravity(&mut ps, eps2);
    let d = measure(&ps, eps2);
    let q = virial_ratio(&d);
    // Composite equilibrium via Eddington inversion + epicyclic disk:
    // a few percent from exact virial balance is expected at this N.
    assert!((q - 1.0).abs() < 0.15, "virial ratio {q}");
    assert!(d.total_energy() < 0.0);
}

#[test]
fn rotation_curve_is_m31_like() {
    let pot = M31Model::paper_model().potential();
    for (r, lo, hi) in [
        (5.0, 150.0, 330.0),
        (10.0, 180.0, 320.0),
        (25.0, 170.0, 300.0),
    ] {
        let vc = pot.v_circ(r) * units::velocity_unit_kms();
        assert!((lo..hi).contains(&vc), "v_c({r} kpc) = {vc} km/s");
    }
}

#[test]
fn disk_subset_is_flattened_and_rotating() {
    // Sample the disk component alone through its public API and verify
    // its structure.
    let m31 = M31Model::paper_model();
    let pot = m31.potential();
    let mut rng = prng::StdRng::seed_from_u64(5);
    let samples = m31.disk.sample(&pot, 4000, &mut rng);
    let mut lz = 0.0f64;
    let mut z2 = 0.0f64;
    let mut r2 = 0.0f64;
    for (p, v) in &samples {
        lz += (p.x * v.y - p.y * v.x) as f64;
        z2 += (p.z * p.z) as f64;
        r2 += (p.x * p.x + p.y * p.y) as f64;
    }
    let n = samples.len() as f64;
    // Strong net rotation.
    assert!(lz / n > 0.0);
    // Flattening: rms z far below rms R.
    let flat = (z2 / n).sqrt() / (r2 / n).sqrt();
    assert!(flat < 0.25, "rms z / rms R = {flat}");
}

#[test]
fn halo_is_roughly_isotropic() {
    let m31 = M31Model::paper_model();
    let pot = m31.potential();
    let df = eddington_df(&m31.halo as &dyn SphericalProfile, &pot);
    let mut rng = prng::StdRng::seed_from_u64(9);
    let samples = sample_component(&m31.halo, &pot, &df, 4000, &mut rng);
    // Net angular momentum of an ergodic component ≈ 0 relative to its
    // total |L| budget.
    let mut lsum = [0.0f64; 3];
    let mut labs = 0.0f64;
    for (p, v) in &samples {
        let l = [
            (p.y * v.z - p.z * v.y) as f64,
            (p.z * v.x - p.x * v.z) as f64,
            (p.x * v.y - p.y * v.x) as f64,
        ];
        for k in 0..3 {
            lsum[k] += l[k];
        }
        labs += (l[0] * l[0] + l[1] * l[1] + l[2] * l[2]).sqrt();
    }
    let net = (lsum[0] * lsum[0] + lsum[1] * lsum[1] + lsum[2] * lsum[2]).sqrt();
    assert!(net < 0.05 * labs, "net/|L| = {}", net / labs);
}

#[test]
fn component_density_structure_is_layered() {
    // Bulge (0.61 kpc) is the most concentrated, then the disk
    // (Rd = 5.4), then the NFW halo (rs = 7.63, extending to 240 kpc):
    // check via median radii of the sampled composite, split by radius
    // rank against component mass fractions.
    let m31 = M31Model::paper_model();
    let ps = m31.sample(8192, 3);
    let mut radii: Vec<f64> = ps.pos.iter().map(|p| p.norm() as f64).collect();
    radii.sort_by(|a, b| a.total_cmp(b));
    let median = radii[radii.len() / 2];
    // NFW with rs = 7.63 truncated at 240: half-mass radius ≈ 30–60 kpc.
    assert!((10.0..80.0).contains(&median), "median radius {median}");
    // Innermost percent dominated by the bulge: those radii are sub-kpc-ish.
    let inner = radii[radii.len() / 100];
    assert!(inner < 3.0, "1st-percentile radius {inner}");
}

#[test]
fn m31_survives_dynamical_evolution_without_artifacts() {
    use gothic::{Gothic, RunConfig};
    let ps = M31Model::paper_model().sample(4096, 21);
    let mut sim = Gothic::new(ps, RunConfig::default());
    let r_half_before = half_mass_radius(&sim);
    for _ in 0..50 {
        sim.step();
    }
    let r_half_after = half_mass_radius(&sim);
    // An equilibrium model must neither collapse nor evaporate.
    let ratio = r_half_after / r_half_before;
    assert!(
        (0.8..1.25).contains(&ratio),
        "half-mass radius ratio {ratio}"
    );
}

fn half_mass_radius(sim: &gothic::Gothic) -> f64 {
    let mut radii: Vec<f64> = sim.ps.pos.iter().map(|p| p.norm() as f64).collect();
    radii.sort_by(|a, b| a.total_cmp(b));
    radii[radii.len() / 2]
}

/// The sampler's realization, bit for bit: FNV-1a over each particle's
/// `pos.xyz, vel.xyz, mass` as little-endian f32, in index order. Every
/// pipeline digest starts from these initial conditions.
#[test]
fn m31_realization_is_pinned() {
    let ps = M31Model::paper_model().sample(131_072, 20_190_807);
    let mut bytes = Vec::with_capacity(ps.len() * 7 * 4);
    for i in 0..ps.len() {
        let (p, v) = (ps.pos[i], ps.vel[i]);
        for x in [p.x, p.y, p.z, v.x, v.y, v.z, ps.mass[i]] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
    }
    assert_eq!(gothic::fnv1a64(&bytes), 0x7929_2d4a_3fea_560b);
}

/// The N = 8192 realization that `paper_sweep` and the Fig. 1–10 sweeps
/// sample once per Δacc point, hashed like `m31_realization_is_pinned`.
/// It is sampled twice in one process, so that a second call, whatever
/// it reuses from the first, must draw the same particles.
#[test]
fn m31_sweep_realization_is_pinned() {
    for _ in 0..2 {
        let ps = M31Model::paper_model().sample(8192, 20_190_807);
        let mut bytes = Vec::with_capacity(ps.len() * 7 * 4);
        for i in 0..ps.len() {
            let (p, v) = (ps.pos[i], ps.vel[i]);
            for x in [p.x, p.y, p.z, v.x, v.y, v.z, ps.mass[i]] {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
        }
        assert_eq!(gothic::fnv1a64(&bytes), 0x9f74_4ecb_f482_ece9);
    }
}
