//! Ablation: GOTHIC's predictor/corrector (predict + correct kernels)
//! against the symplectic KDK leapfrog, on shared time steps over a
//! Plummer sphere. Both are second order; the PEC form exists because
//! block time steps need predicted source positions mid-step. The energy
//! error oscillates along an orbit, so each run reports its peak
//! |E(t) − E₀|/|E₀| over every step, not the value at the last one.

use gothic::galaxy::plummer_model;
use gothic::nbody::direct::self_gravity;
use gothic::nbody::energy::measure;
use gothic::nbody::integrator::step_shared;
use gothic::nbody::leapfrog::step_kdk;
use gothic::nbody::ParticleSet;

fn drift(
    label: &str,
    mut stepper: impl FnMut(&mut ParticleSet, f32),
    dt: f32,
    steps: usize,
) -> f64 {
    let eps2 = 1e-3f32;
    let mut ps = plummer_model(2048, 100.0, 1.0, 2024);
    self_gravity(&mut ps, eps2);
    let e0 = measure(&ps, eps2);
    let mut peak = 0.0f64;
    for _ in 0..steps {
        stepper(&mut ps, dt);
        peak = peak.max(measure(&ps, eps2).relative_energy_drift(&e0));
    }
    println!("{label:<36} dt = {dt:<8} steps = {steps:<6} max |dE/E| = {peak:.3e}");
    peak
}

fn main() {
    println!("# Ablation — integrator comparison (Plummer N = 2048, direct forces)");
    println!();
    let eps2 = 1e-3f32;
    let dt = 1.0 / 256.0;
    let steps = 256; // one time unit ≈ 0.2 crossing times at this scale

    let d_pec = drift(
        "GOTHIC PEC (predict/correct)",
        |ps, h| step_shared(ps, h, |p| self_gravity(p, eps2)),
        dt,
        steps,
    );
    let d_kdk = drift(
        "KDK leapfrog",
        |ps, h| step_kdk(ps, h, |p| self_gravity(p, eps2)),
        dt,
        steps,
    );
    // Halved step: both schemes are 2nd order, so the drift should fall
    // by roughly 4x (modulo the f32 round-off floor).
    let d_pec_fine = drift(
        "GOTHIC PEC, dt/2",
        |ps, h| step_shared(ps, h, |p| self_gravity(p, eps2)),
        dt / 2.0,
        steps * 2,
    );

    println!();
    println!("# Both schemes conserve at comparable 2nd-order levels:");
    println!("#   PEC/KDK drift ratio = {:.2}", d_pec / d_kdk.max(1e-12));
    println!(
        "#   PEC convergence factor at dt/2 = {:.2} (ideal 4.0)",
        d_pec / d_pec_fine.max(1e-12)
    );
    assert!(
        d_pec < 1e-3 && d_kdk < 1e-3,
        "both schemes must conserve energy"
    );
    assert!(
        d_pec < 20.0 * d_kdk.max(1e-9) && d_kdk < 20.0 * d_pec.max(1e-9),
        "schemes must be within an order of magnitude of each other"
    );
}
