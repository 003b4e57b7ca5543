//! Figure 1: execution time per step as a function of the accuracy
//! controlling parameter Δacc, for the six GPU configurations.
//!
//! Paper reference points at Δacc = 2⁻⁹ (N = 2²³): 7.4×10⁻² s (P100),
//! 3.8×10⁻² s (V100 Volta mode), 3.3×10⁻² s (V100 Pascal mode); the
//! V100 curve sits ~10× below Tesla M2090; curves decrease monotonically
//! with Δacc and flatten in the loose-accuracy regime.

use bench::{
    default_barrier, delta_acc_sweep, fig1_configs, figure_header, fmt_dacc, m31_particles,
    measure, price_paper_scale, BenchScale,
};
use telemetry::json::JsonObject;

fn main() {
    let scale = BenchScale::from_env();
    figure_header(
        "Figure 1 — elapsed time per step vs accuracy parameter",
        &scale,
    );
    let mut report = bench::report("fig1_time_vs_accuracy", &scale);

    let configs = fig1_configs();
    print!("{:>8}", "dacc");
    for (name, _, _) in &configs {
        print!("  {:>28}", name);
    }
    println!();

    let mut fiducial_row: Option<Vec<f64>> = None;
    for dacc in delta_acc_sweep() {
        let run = measure(m31_particles(scale.n), dacc, &scale, None);
        report
            .add_counters(&run.summary.counters())
            .add_histogram("step.wall.ns", &run.summary.step_wall);
        print!("{:>8}", fmt_dacc(dacc));
        let mut row = Vec::new();
        let mut jrow = JsonObject::new();
        jrow.f64("dacc", dacc as f64);
        for (name, arch, mode) in &configs {
            let p = price_paper_scale(&run, arch, *mode, default_barrier());
            row.push(p.total_seconds());
            jrow.f64(name, p.total_seconds());
            print!("  {:>28.4e}", p.total_seconds());
        }
        report.add_row(jrow);
        println!();
        if (dacc - 2.0f32.powi(-9)).abs() < 1e-9 {
            fiducial_row = Some(row);
        }
    }

    println!();
    println!("# Paper reference at dacc = 2^-9 (N = 2^23, real silicon):");
    println!("#   V100 Pascal mode 3.3e-2 s | V100 Volta mode 3.8e-2 s | P100 7.4e-2 s");
    if let Some(row) = fiducial_row {
        // Columns: [v100 pascal, v100 volta, p100, titanx, k20x, m2090]
        println!("# Measured shape checks at 2^-9 (scaled N — compare RATIOS, not absolutes):");
        println!(
            "#   Pascal-mode gain (paper 3.8/3.3 = 1.15): {:.3}",
            row[1] / row[0]
        );
        println!(
            "#   V100(Pascal)/P100 speed-up (paper 7.4/3.3 = 2.24): {:.3}",
            row[2] / row[0]
        );
        println!(
            "#   V100 vs M2090 (paper: ~10x in the same algorithm): {:.1}x",
            row[5] / row[0]
        );
    }
    bench::write_report(&report);
}
