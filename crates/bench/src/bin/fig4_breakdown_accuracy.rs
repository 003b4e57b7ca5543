//! Figure 4: breakdown of the elapsed time over the representative
//! functions as a function of Δacc, on Tesla V100 in the Pascal mode.
//!
//! Paper reference: walkTree decreases as the accuracy is loosened (and
//! always dominates); calcNode and orbit integration are independent of
//! Δacc; makeTree's amortised cost falls with Δacc because the auto-tuned
//! rebuild interval stretches from ~6 steps (tight accuracy) to ~30
//! (loose accuracy).

use bench::{
    default_barrier, delta_acc_sweep, figure_header, fmt_dacc, m31_particles, measure,
    price_paper_scale, BenchScale,
};
use gothic::gpu_model::{ExecMode, GpuArch};

fn main() {
    let scale = BenchScale::from_env();
    figure_header("Figure 4 — per-function breakdown vs accuracy", &scale);
    let v100 = GpuArch::tesla_v100();

    println!(
        "{:>8}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}  {:>10}",
        "dacc", "total", "walk_tree", "calc_node", "make_tree", "pred/corr", "rebuild-iv"
    );
    let mut walk_first = None;
    let mut walk_last = 0.0;
    let mut calc_series = Vec::new();
    for dacc in delta_acc_sweep() {
        let run = measure(m31_particles(scale.n), dacc, &scale, None);
        let p = price_paper_scale(&run, &v100, ExecMode::PascalMode, default_barrier());
        // A run that built its tree only once, at its first step, bounds
        // the interval by its length.
        let rebuild_interval = match run.mean_rebuild_interval {
            Some(k) => format!("{k:.1}"),
            None => format!(">{}", scale.warmup + scale.steps - 1),
        };
        println!(
            "{:>8}  {:>12.4e}  {:>12.4e}  {:>12.4e}  {:>12.4e}  {:>12.4e}  {:>10}",
            fmt_dacc(dacc),
            p.total_seconds(),
            p.walk_tree.seconds,
            p.calc_node.seconds,
            p.make_tree.seconds,
            p.predict.seconds + p.correct.seconds,
            rebuild_interval,
        );
        if walk_first.is_none() {
            walk_first = Some(p.walk_tree.seconds);
        }
        walk_last = p.walk_tree.seconds;
        calc_series.push(p.calc_node.seconds);
    }

    println!();
    // Sweep is loose → tight: tight-accuracy walk must cost more.
    let loose = walk_first.unwrap();
    let spread = calc_series
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        / calc_series
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-30);
    println!("# Paper shapes: walkTree grows as dacc tightens — measured 2^-1 {loose:.3e} s vs 2^-20 {walk_last:.3e} s: {}",
        if walk_last > loose { "OK" } else { "MISMATCH" });
    println!(
        "# calcNode ~independent of accuracy — measured max/min spread {:.2} (paper: flat)",
        spread
    );
    println!("# Paper rebuild interval: ~6 steps at the highest accuracy, ~30 at the lowest.");
}
