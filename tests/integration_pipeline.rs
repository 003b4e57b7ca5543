//! End-to-end pipeline tests on the paper's M31 workload (scaled down).

use gothic::galaxy::{plummer_model, M31Model};
use gothic::nbody::{energy, ParticleSet, Vec3};
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
    let lmin = *sim.blocks.level.iter().min().unwrap();
    let lmax = *sim.blocks.level.iter().max().unwrap();
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
