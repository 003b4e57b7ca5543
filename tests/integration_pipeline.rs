//! End-to-end pipeline tests on the paper's M31 workload (scaled down).

use gothic::galaxy::{plummer_model, M31Model};
use gothic::nbody::{energy, ParticleSet, Real, Vec3};
use gothic::octree::Mac;
use gothic::{Gothic, RebuildPolicy, RunConfig};

fn m31(n: usize, seed: u64) -> gothic::nbody::ParticleSet {
    M31Model::paper_model().sample(n, seed)
}

#[test]
fn m31_run_produces_consistent_reports() {
    let mut sim = Gothic::new(m31(2048, 1), RunConfig::default());
    let reports = sim.run(16);
    assert_eq!(reports.len(), 16);
    for (k, r) in reports.iter().enumerate() {
        assert_eq!(r.step as usize, k + 1);
        assert!(r.n_active > 0, "step {k} had no active particles");
        assert!(r.profile.total_seconds() > 0.0);
        assert!(r.events.walk.interactions > 0);
        assert_eq!(r.events.predict.particles, 2048);
        assert_eq!(r.events.correct.particles, r.n_active as u64);
        // Rebuild steps must carry make-tree events, others must not.
        assert_eq!(r.events.make.is_some(), r.rebuilt);
    }
    sim.ps.check_invariants().unwrap();
    sim.blocks.check_invariants().unwrap();
}

#[test]
fn m31_energy_conservation_fiducial_accuracy() {
    let mut sim = Gothic::new(m31(4096, 2), RunConfig::default());
    let e0 = sim.diagnostics();
    assert!(e0.total_energy() < 0.0, "bound system required");
    for _ in 0..120 {
        sim.step();
        if sim.time() > 0.5 {
            break;
        }
    }
    assert!(sim.time() > 0.0);
    let e1 = sim.diagnostics();
    let drift = e1.relative_energy_drift(&e0);
    assert!(drift < 1e-2, "energy drift {drift}");
}

#[test]
fn angular_momentum_is_conserved() {
    let mut sim = Gothic::new(m31(2048, 3), RunConfig::default());
    let l0 = sim.diagnostics().angular_momentum;
    for _ in 0..40 {
        sim.step();
    }
    let l1 = sim.diagnostics().angular_momentum;
    let mag0 = (l0[0] * l0[0] + l0[1] * l0[1] + l0[2] * l0[2]).sqrt();
    let diff = ((l1[0] - l0[0]).powi(2) + (l1[1] - l0[1]).powi(2) + (l1[2] - l0[2]).powi(2)).sqrt();
    // The M31 disk carries a large Lz; drift must be a small fraction.
    assert!(diff < 2e-2 * mag0, "dL = {diff}, |L| = {mag0}");
}

#[test]
fn auto_rebuild_interval_shrinks_with_accuracy() {
    // Paper §4.1: ~6-step intervals at the highest accuracy, ~30 at the
    // lowest. Verify the ordering (tight accuracy rebuilds more often).
    let count_rebuilds = |dacc: f32| -> usize {
        let mut sim = Gothic::new(m31(4096, 4), RunConfig::with_delta_acc(dacc));
        sim.run(60).iter().filter(|r| r.rebuilt).count()
    };
    let loose = count_rebuilds(0.5);
    let tight = count_rebuilds(2.0f32.powi(-20));
    assert!(
        tight >= loose,
        "tight accuracy must rebuild at least as often: tight {tight} vs loose {loose}"
    );
    assert!(
        tight >= 2,
        "tight accuracy must rebuild more than the initial build"
    );
}

#[test]
fn fixed_rebuild_policy_is_deterministic() {
    let cfg = RunConfig {
        rebuild: RebuildPolicy::Fixed(5),
        ..RunConfig::default()
    };
    let mut sim = Gothic::new(m31(1024, 5), cfg);
    let reports = sim.run(15);
    let steps: Vec<u64> = reports
        .iter()
        .filter(|r| r.rebuilt)
        .map(|r| r.step)
        .collect();
    assert_eq!(steps, vec![1, 6, 11]);
}

#[test]
fn virial_equilibrium_is_roughly_maintained() {
    let mut sim = Gothic::new(m31(4096, 6), RunConfig::default());
    let q0 = energy::virial_ratio(&sim.diagnostics());
    assert!((q0 - 1.0).abs() < 0.25, "initial virial ratio {q0}");
    for _ in 0..60 {
        sim.step();
    }
    let q1 = energy::virial_ratio(&sim.diagnostics());
    assert!((q1 - 1.0).abs() < 0.3, "evolved virial ratio {q1}");
}

#[test]
fn bootstrap_uses_opening_angle_then_switches_to_acceleration_mac() {
    // The acceleration MAC needs |a_old|; after construction every
    // particle must carry one.
    let sim = Gothic::new(m31(1024, 7), RunConfig::default());
    assert!(sim.ps.acc_old.iter().all(|&a| a > 0.0 && a.is_finite()));
    match sim.cfg.mac {
        Mac::Acceleration { .. } => {}
        _ => panic!("fiducial config must use the acceleration MAC"),
    }
}

#[test]
fn block_hierarchy_develops_multiple_levels() {
    let mut sim = Gothic::new(m31(4096, 8), RunConfig::default());
    sim.run(10);
    let lmin = *sim.blocks.levels().iter().min().unwrap();
    let lmax = *sim.blocks.levels().iter().max().unwrap();
    assert!(
        lmax > lmin,
        "M31's dynamic range must spread the block levels ({lmin}..{lmax})"
    );
    // Active counts reflect the hierarchy: not every step touches all N.
    let touched_all = sim.run(8).iter().all(|r| r.n_active == 4096);
    assert!(!touched_all);
}

#[test]
fn walk_events_scale_with_accuracy() {
    let run = |dacc: f32| {
        let mut sim = Gothic::new(m31(2048, 9), RunConfig::with_delta_acc(dacc));
        let reps = sim.run(8);
        reps.iter().map(|r| r.events.walk.interactions).sum::<u64>()
    };
    let coarse = run(0.5);
    let medium = run(2.0f32.powi(-9));
    let fine = run(2.0f32.powi(-16));
    assert!(coarse < medium, "coarse {coarse} < medium {medium}");
    assert!(medium < fine, "medium {medium} < fine {fine}");
}

/// `Gothic::new` plus four block steps must keep every position and
/// acceleration finite, however degenerate the input.
#[test]
fn degenerate_inputs_stay_finite() {
    let mut coincident = ParticleSet::with_capacity(64);
    for _ in 0..64 {
        coincident.push(Vec3::new(0.25, -0.5, 1.0), Vec3::ZERO, 1.0 / 64.0);
    }
    let unsoftened = RunConfig {
        eps: 0.0,
        ..RunConfig::default()
    };
    let cases = [
        ("N = 1", plummer_model(1, 1.0, 1.0, 5), RunConfig::default()),
        (
            "N = 17",
            plummer_model(17, 1.0, 1.0, 5),
            RunConfig::default(),
        ),
        ("64 coincident", coincident, RunConfig::default()),
        ("eps = 0", plummer_model(256, 1.0, 1.0, 5), unsoftened),
    ];
    for (label, ps, cfg) in cases {
        let mut sim = Gothic::new(ps, cfg);
        sim.run(4);
        let ps = &sim.ps;
        let finite = ps.pos.iter().chain(&ps.acc).all(|v| v.is_finite());
        assert!(finite, "{label}: non-finite position or acceleration");
    }
}

/// Each particle's position at `t_end` (a multiple of `dt_max`, where every
/// particle is synchronised), indexed by particle id. Forces are direct
/// sums (θ = 0 opens every node), so only the time steps differ between
/// runs. `nudge` moves every initial x by one f32 ulp.
fn positions_at(seed: u64, eta: Real, dt_max: Real, t_end: f64, nudge: bool) -> Vec<Vec3> {
    let mut ps = plummer_model(256, 1.0, 1.0, seed);
    if nudge {
        for p in &mut ps.pos {
            p.x = f32::from_bits(p.x.to_bits() + 1);
        }
    }
    let cfg = RunConfig {
        mac: Mac::OpeningAngle { theta: 0.0 },
        eps: 0.05,
        eta,
        dt_max,
        ..RunConfig::default()
    };
    let mut sim = Gothic::new(ps, cfg);
    while sim.time() < t_end {
        sim.step();
    }
    assert_eq!(sim.time(), t_end, "the clock stops on a dt_max boundary");
    let mut pos = vec![Vec3::ZERO; sim.len()];
    for (&id, &p) in sim.ps.id.iter().zip(&sim.ps.pos) {
        pos[id as usize] = p;
    }
    pos
}

/// The median over particles of the distance between two runs'
/// positions. A few particles change level at different moments in runs
/// of different resolution, which makes their error jump; the median
/// reads the bulk.
fn median_distance(a: &[Vec3], b: &[Vec3]) -> f64 {
    let mut d: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(p, q)| (*p - *q).norm() as f64)
        .collect();
    d.sort_by(f64::total_cmp);
    d[d.len() / 2]
}

/// The block-step pipeline is second order: halving η and `dt_max`
/// together keeps every particle's level (their ratio, which
/// `level_for_dt` reads, is exact in f32), so each step halves and the
/// difference between successive resolutions falls fourfold.
#[test]
fn block_steps_converge_at_second_order() {
    let (eta, dt_max, t_end) = (0.25, 0.125, 1.0);
    for seed in 1..4 {
        let x: Vec<Vec<Vec3>> = (0..3)
            .map(|k| {
                let f = (1 << k) as Real;
                positions_at(seed, eta / f, dt_max / f, t_end, false)
            })
            .collect();
        let (coarse, fine) = (median_distance(&x[0], &x[1]), median_distance(&x[1], &x[2]));
        let order = (coarse / fine).log2();
        // Over seeds 1..=20 the order read 1.94–2.11 at N = 256 and
        // 1.92–2.13 at N = 512.
        assert!(
            (1.75..=2.25).contains(&order),
            "seed {seed}: observed order {order:.3} ({coarse:.3e} then {fine:.3e})"
        );
        // The f32 floor: what one ulp in the initial x grows to by t_end
        // at the finest resolution. Measured ~350–570× below `fine`.
        let floor = median_distance(
            &x[2],
            &positions_at(seed, eta / 4.0, dt_max / 4.0, t_end, true),
        );
        assert!(
            fine > 30.0 * floor,
            "seed {seed}: finest difference {fine:.3e} is near the f32 floor {floor:.3e}"
        );
    }
}
