//! The paper's central porting question (§2.1/§4.1): run the same
//! simulation and price it under the **Volta mode** (`compute_70`,
//! explicit `__syncwarp()`s execute) and the **Pascal mode**
//! (`compute_60`, implicit warp synchrony), plus a demonstration of *why*
//! the synchronizations are needed, straight from the simt interpreter.
//!
//! ```text
//! cargo run --release --example mode_comparison [N]
//! ```

use gothic::galaxy::M31Model;
use gothic::gpu_model::{ExecMode, GpuArch, GridBarrier};
use gothic::simt::microbench::run_reduction_profiled;
use gothic::simt::Scheduler;
use gothic::{price_step, Function, Gothic, RunConfig};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8192);

    // Part 1: semantics. A warp reduction with Volta-style syncs is
    // correct under both schedulers; the issue-cycle overhead of the
    // syncs is what the Pascal mode saves.
    println!("== semantics (simt interpreter) ==");
    let volta = run_reduction_profiled(128, 32, true, Scheduler::Independent).0;
    let pascal = run_reduction_profiled(128, 32, false, Scheduler::Lockstep).0;
    println!(
        "volta mode  (independent scheduling + __syncwarp): correct = {}, {} cycles, {} syncwarps",
        volta.correct, volta.stats.total_cycles, volta.stats.syncwarps
    );
    println!(
        "pascal mode (lockstep, syncs compiled away):       correct = {}, {} cycles",
        pascal.correct, pascal.stats.total_cycles
    );

    // Part 2: whole-code cost on the M31 workload.
    println!();
    println!("== whole-code comparison (M31, N = {n}, dacc = 2^-9) ==");
    let particles = M31Model::paper_model().sample(n, 7);
    let mut sim = Gothic::new(particles, RunConfig::default());
    // Warm up, then measure.
    for _ in 0..4 {
        sim.step();
    }
    let v100 = GpuArch::tesla_v100();
    let mut t_pascal = 0.0;
    let mut t_volta = 0.0;
    let mut per_fn = vec![(0.0f64, 0.0f64); Function::ALL.len()];
    let steps = 16;
    println!("(events extrapolated to the paper's N = 2^23 before pricing)");
    for _ in 0..steps {
        let r = sim.step();
        let ev = r.events.scaled_to(n as u64, 1 << 23);
        let pm = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
        let vm = price_step(&ev, &v100, ExecMode::VoltaMode, GridBarrier::LockFree);
        t_pascal += pm.total_seconds();
        t_volta += vm.total_seconds();
        for (k, f) in Function::ALL.into_iter().enumerate() {
            per_fn[k].0 += pm.get(f).seconds;
            per_fn[k].1 += vm.get(f).seconds;
        }
    }

    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "function", "pascal mode", "volta mode", "speed-up"
    );
    for (k, f) in Function::ALL.into_iter().enumerate() {
        let (p, v) = per_fn[k];
        let gain = if p > 0.0 { v / p } else { 1.0 };
        println!(
            "{:<10} {:>12.3e} s {:>12.3e} s {:>10.3}",
            f.name(),
            p / steps as f64,
            v / steps as f64,
            gain
        );
    }
    println!(
        "{:<10} {:>12.3e} s {:>12.3e} s {:>10.3}",
        "total",
        t_pascal / steps as f64,
        t_volta / steps as f64,
        t_volta / t_pascal
    );
    println!();
    println!("paper: the Pascal mode is 1.1-1.2x faster overall (3.3e-2 vs 3.8e-2 s");
    println!("per step at N = 2^23); walkTree gains ~15%, calcNode ~23%, pred/corr 0%.");
}
