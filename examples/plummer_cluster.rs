//! Cold-collapse experiment: start a Plummer sphere with half its virial
//! velocity (2T/|W| = 0.25) and follow the collapse and relaxation with
//! the GOTHIC pipeline, tracking Lagrangian radii and energy.
//!
//! This exercises the block time steps hard: during the collapse the
//! central dynamical time shrinks by orders of magnitude and the
//! hierarchy must refine locally.
//!
//! ```text
//! cargo run --release --example plummer_cluster [N]
//! ```

use gothic::galaxy::plummer_model;
use gothic::nbody::units;
use gothic::octree::Mac;
use gothic::{Gothic, RunConfig};

fn lagrangian_radii(sim: &Gothic, fractions: &[f64]) -> Vec<f64> {
    let mut radii: Vec<f64> = sim.ps.pos.iter().map(|p| p.norm() as f64).collect();
    radii.sort_by(|a, b| a.total_cmp(b));
    fractions
        .iter()
        .map(|&f| radii[((radii.len() as f64 * f) as usize).min(radii.len() - 1)])
        .collect()
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8192);
    println!("cold collapse of a Plummer sphere, N = {n} (virial ratio 0.25)");

    let mut particles = plummer_model(n, 100.0, 1.0, 11);
    for v in &mut particles.vel {
        *v *= 0.5; // T -> T/4
    }

    let cfg = RunConfig {
        mac: Mac::Acceleration {
            delta_acc: 2.0f32.powi(-7),
        },
        eps: 0.02,
        eta: 0.3,
        dt_max: 1.0 / 32.0,
        ..RunConfig::default()
    };
    let mut sim = Gothic::new(particles, cfg);
    let e0 = sim.diagnostics();
    println!(
        "initial E = {:.4}, virial ratio = {:.3}",
        e0.total_energy(),
        gothic::nbody::energy::virial_ratio(&e0)
    );

    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "t [Myr]", "r10%", "r50%", "r90%", "active", "levels", "dE/E"
    );
    let fractions = [0.1, 0.5, 0.9];
    let mut next_report = 0.0f64;
    let t_end = 1.5f64; // simulation units: a bit beyond the collapse time
    let mut reports = 0;
    while sim.time() < t_end && reports < 4000 {
        let r = sim.step();
        reports += 1;
        if sim.time() >= next_report {
            next_report = sim.time() + 0.15;
            let lr = lagrangian_radii(&sim, &fractions);
            let e = sim.diagnostics();
            let lmin = *sim.blocks.levels().iter().min().unwrap();
            let lmax = *sim.blocks.levels().iter().max().unwrap();
            println!(
                "{:>10.1} {:>8.3} {:>8.3} {:>8.3} {:>8} {:>4}-{:<4} {:>10.2e}",
                sim.time() * units::time_unit_myr(),
                lr[0],
                lr[1],
                lr[2],
                r.n_active,
                lmin,
                lmax,
                e.relative_energy_drift(&e0)
            );
        }
    }

    let e1 = sim.diagnostics();
    println!();
    println!(
        "final virial ratio = {:.3} (re-virialisation after collapse)",
        gothic::nbody::energy::virial_ratio(&e1)
    );
    println!(
        "energy drift over the collapse: {:.2e}",
        e1.relative_energy_drift(&e0)
    );
}
