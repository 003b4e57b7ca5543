//! Figure 5: per-function speed-up of the Pascal mode relative to the
//! Volta mode on Tesla V100, as a function of Δacc.
//!
//! Paper reference: every function is at least as fast in the Pascal
//! mode; walkTree gains ~15% (growing toward loose accuracy), calcNode
//! ~23%, makeTree a smaller amount (its radix sort needs few intra-warp
//! syncs), and orbit integration shows *no* difference (it has no
//! intra-warp synchronization at all).

use bench::{
    default_barrier, delta_acc_sweep, figure_header, fmt_dacc, m31_particles, measure,
    price_paper_scale, BenchScale,
};
use gothic::gpu_model::{ExecMode, GpuArch};
use gothic::Function;
use telemetry::json::JsonObject;

fn main() {
    let scale = BenchScale::from_env();
    figure_header("Figure 5 — Pascal-mode speed-up per function", &scale);
    let v100 = GpuArch::tesla_v100();
    let mut report = bench::report("fig5_mode_speedup", &scale);
    report.meta_str("arch", v100.name);

    println!(
        "{:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
        "dacc", "walk_tree", "calc_node", "make_tree", "pred/corr"
    );
    let mut walk_gains = Vec::new();
    let mut calc_gains = Vec::new();
    for dacc in delta_acc_sweep() {
        let run = measure(m31_particles(scale.n), dacc, &scale, None);
        report
            .add_counters(&run.summary.counters())
            .add_histogram("step.wall.ns", &run.summary.step_wall);
        let pm = price_paper_scale(&run, &v100, ExecMode::PascalMode, default_barrier());
        let vm = price_paper_scale(&run, &v100, ExecMode::VoltaMode, default_barrier());
        let gain = |f: Function| {
            let p = pm.get(f).seconds;
            let v = vm.get(f).seconds;
            if p > 0.0 {
                v / p
            } else {
                1.0
            }
        };
        let g_walk = gain(Function::WalkTree);
        let g_calc = gain(Function::CalcNode);
        let g_make = gain(Function::MakeTree);
        let g_int =
            (vm.predict.seconds + vm.correct.seconds) / (pm.predict.seconds + pm.correct.seconds);
        println!(
            "{:>8}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}",
            fmt_dacc(dacc),
            g_walk,
            g_calc,
            g_make,
            g_int
        );
        walk_gains.push(g_walk);
        calc_gains.push(g_calc);
        let mut jrow = JsonObject::new();
        jrow.f64("dacc", dacc as f64)
            .f64("walk_tree", g_walk)
            .f64("calc_node", g_calc)
            .f64("make_tree", g_make)
            .f64("integrate", g_int);
        report.add_row(jrow);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!();
    println!("# Paper: walkTree ≈ 1.15, calcNode ≈ 1.23, pred/corr = 1.00 exactly.");
    println!(
        "# Measured means: walkTree {:.3}, calcNode {:.3}",
        mean(&walk_gains),
        mean(&calc_gains)
    );
    println!(
        "# calcNode gain exceeds walkTree gain (paper ordering): {}",
        mean(&calc_gains) > mean(&walk_gains)
    );
    report
        .meta_f64("mean_walk_gain", mean(&walk_gains))
        .meta_f64("mean_calc_gain", mean(&calc_gains));
    bench::write_report(&report);
}
