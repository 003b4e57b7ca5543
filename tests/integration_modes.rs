//! Cross-architecture / execution-mode pricing tests: the quantitative
//! claims of §3 and §4 as integration-level checks over real measured
//! event streams.

use gothic::galaxy::M31Model;
use gothic::gpu_model::{
    capacity, predict_speedup, sustained_tflops, ExecMode, GpuArch, GridBarrier,
};
use gothic::{price_step, Function, Gothic, RunConfig, StepEvents};

/// Run a short M31 simulation and return its events summed over `steps`
/// steps after a warm-up.
fn measured_events(n: usize, delta_acc: f32, steps: u64) -> StepEvents {
    let ps = M31Model::paper_model().sample(n, 77);
    let mut sim = Gothic::new(ps, RunConfig::with_delta_acc(delta_acc));
    // Warm up to pass the bootstrap/first-build phase.
    for _ in 0..3 {
        sim.step();
    }
    let mut acc = StepEvents::default();
    for _ in 0..steps {
        acc.merge(&sim.step().events);
    }
    acc
}

/// The paper's particle count, N = 2²³: events are scaled there so fixed
/// overheads don't dominate.
const PAPER_N: u64 = 1 << 23;

#[test]
fn pascal_mode_beats_volta_mode_at_every_accuracy() {
    let v100 = GpuArch::tesla_v100();
    for exp in [1i32, 9, 16] {
        let ev = measured_events(2048, 2.0f32.powi(-exp), 8).scaled_to(2048, PAPER_N);
        let pm = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
        let vm = price_step(&ev, &v100, ExecMode::VoltaMode, GridBarrier::LockFree);
        let gain = vm.total_seconds() / pm.total_seconds();
        // Paper band: 1.1–1.2 ("irrespective of the accuracy").
        assert!(
            (1.03..1.30).contains(&gain),
            "mode gain at 2^-{exp}: {gain}"
        );
    }
}

#[test]
fn v100_speedup_band_matches_paper() {
    let v100 = GpuArch::tesla_v100();
    let p100 = GpuArch::tesla_p100();
    let peak_ratio = v100.peak_sp_tflops() / p100.peak_sp_tflops();
    let mut speedups = Vec::new();
    for exp in [1i32, 9, 20] {
        let ev = measured_events(2048, 2.0f32.powi(-exp), 8).scaled_to(2048, PAPER_N);
        let tv = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
        let tp = price_step(&ev, &p100, ExecMode::PascalMode, GridBarrier::LockFree);
        speedups.push(tp.total_seconds() / tv.total_seconds());
    }
    // Paper: 1.4–2.2, larger at tighter accuracy, exceeding the peak
    // ratio there.
    assert!(
        speedups.windows(2).all(|w| w[0] <= w[1] * 1.02),
        "{speedups:?}"
    );
    assert!(
        *speedups.last().unwrap() > peak_ratio,
        "tight-accuracy speed-up {} must exceed the peak ratio {peak_ratio}",
        speedups.last().unwrap()
    );
    assert!(
        speedups.iter().all(|&s| (1.3..2.6).contains(&s)),
        "{speedups:?}"
    );
}

#[test]
fn per_function_mode_gains_follow_fig5_ordering() {
    let v100 = GpuArch::tesla_v100();
    let ev = measured_events(2048, 2.0f32.powi(-9), 8).scaled_to(2048, PAPER_N);
    let pm = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
    let vm = price_step(&ev, &v100, ExecMode::VoltaMode, GridBarrier::LockFree);
    let gain = |f: Function| vm.get(f).seconds / pm.get(f).seconds.max(1e-30);
    // pred/corr identical; calcNode > walkTree > 1 (paper: 23% vs 15%).
    assert_eq!(pm.predict.seconds, vm.predict.seconds);
    assert_eq!(pm.correct.seconds, vm.correct.seconds);
    assert!(gain(Function::CalcNode) > gain(Function::WalkTree));
    assert!(gain(Function::WalkTree) > 1.03);
    assert!(gain(Function::CalcNode) < 1.4);
}

#[test]
fn fig8_model_supports_the_observed_speedup() {
    let v100 = GpuArch::tesla_v100();
    let p100 = GpuArch::tesla_p100();
    let ev = measured_events(2048, 2.0f32.powi(-12), 8);
    let ops = ev.walk.to_ops(false);
    let pred = predict_speedup(&v100, &p100, &ops);
    // §4.2: the prediction must support a ≥2 speed-up at tight accuracy.
    assert!(pred.expected > 1.9, "expected {}", pred.expected);
    assert!(pred.hiding_ratio > 1.2 && pred.hiding_ratio < 2.0);
    assert!(pred.expected <= pred.peak_ratio * 2.0);
}

#[test]
fn older_gpus_are_slower_across_the_lineup() {
    let ev = measured_events(2048, 2.0f32.powi(-9), 8).scaled_to(2048, PAPER_N);
    let mut last = 0.0;
    for arch in GpuArch::paper_lineup() {
        let t = price_step(&ev, &arch, ExecMode::PascalMode, GridBarrier::LockFree).total_seconds();
        assert!(t > last, "{} must be slower than its successor", arch.name);
        last = t;
    }
}

#[test]
fn gravity_kernel_efficiency_peaks_over_40_percent() {
    // Fig. 9: ~45% of the SP peak at tight accuracy.
    let v100 = GpuArch::tesla_v100();
    let ev = measured_events(2048, 2.0f32.powi(-18), 8).scaled_to(2048, PAPER_N);
    let p = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
    let tf = sustained_tflops(&p.walk_tree.ops, p.walk_tree.seconds);
    let frac = tf / v100.peak_sp_tflops();
    assert!((0.30..0.60).contains(&frac), "kernel efficiency {frac}");
}

#[test]
fn capacity_limits_match_section3() {
    let v = capacity::max_particles(&GpuArch::tesla_v100());
    let p = capacity::max_particles(&GpuArch::tesla_p100());
    assert!((v as f64 / (25u64 << 20) as f64 - 1.0).abs() < 0.01);
    assert!((p as f64 / (30u64 << 20) as f64 - 1.0).abs() < 0.01);
}

#[test]
fn cooperative_groups_pricing_matches_appendix_a() {
    let v100 = GpuArch::tesla_v100();
    let ev = measured_events(2048, 2.0f32.powi(-9), 8).scaled_to(2048, PAPER_N);
    let lf = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
    let cg = price_step(
        &ev,
        &v100,
        ExecMode::PascalMode,
        GridBarrier::CooperativeGroups,
    );
    let per_sync = (cg.calc_node.seconds - lf.calc_node.seconds) / ev.calc.grid_syncs as f64;
    assert!(
        (per_sync - 2.3e-5).abs() < 1e-6,
        "per-sync extra {per_sync}"
    );
}
