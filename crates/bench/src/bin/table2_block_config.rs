//! Table 2: the optimal number of threads per thread-block (Ttot) and
//! sub-group width (Tsub) for each representative function, on Tesla
//! V100 and Tesla P100.
//!
//! Methodology (mirroring §2.2's micro-benchmarks): for every candidate
//! (Ttot, Tsub) we execute the function's characteristic warp pattern
//! (shuffle reduction or scan) in the `simt` interpreter to get the
//! block makespan in issue cycles, combine it with the occupancy the
//! function's register/shared-memory footprint allows on each GPU, and
//! pick the configuration minimising modeled time per element:
//!
//! ```text
//! cost ∝ block_cycles / (Ttot · blocks_per_SM)
//! ```
//!
//! The footprints are model inputs (documented below, chosen to match
//! GOTHIC's kernels: the traversal holds per-warp interaction lists in
//! shared memory; calcNode is register-heavy at 56 regs — Appendix A).

use gothic::gpu_model::occupancy::{occupancy, BlockResources};
use gothic::gpu_model::GpuArch;
use gothic::simt::microbench::{run_reduction_profiled, run_scan_profiled};
use gothic::simt::Scheduler;

/// Per-function micro-benchmark shape.
#[derive(Clone, Copy)]
struct FnModel {
    name: &'static str,
    /// Register footprint per thread.
    regs: u32,
    /// Shared memory bytes per thread.
    shared_per_thread: u32,
    /// Warp pattern: reduction, scan or element-wise.
    pattern: Pattern,
    /// Paper's Table 2 optimum (Ttot, Tsub) on (V100, P100).
    paper: ((u32, &'static str), (u32, &'static str)),
}

#[derive(Clone, Copy, PartialEq)]
enum Pattern {
    Reduction,
    Scan,
    Elementwise,
}

fn models() -> Vec<FnModel> {
    vec![
        FnModel {
            name: "walkTree",
            regs: 64,
            shared_per_thread: 40, // interaction list share per lane
            pattern: Pattern::Scan,
            paper: ((512, "32"), (512, "32")),
        },
        FnModel {
            name: "calcNode",
            regs: 56, // Appendix A: 56 registers per thread
            shared_per_thread: 16,
            pattern: Pattern::Reduction,
            paper: ((128, "32"), (256, "16")),
        },
        FnModel {
            name: "makeTree",
            regs: 48,
            shared_per_thread: 8,
            pattern: Pattern::Scan,
            paper: ((512, "8"), (512, "8")),
        },
        FnModel {
            name: "predict",
            regs: 32,
            shared_per_thread: 0,
            pattern: Pattern::Elementwise,
            paper: ((512, "-"), (512, "-")),
        },
        FnModel {
            name: "correct",
            regs: 40,
            shared_per_thread: 0,
            pattern: Pattern::Reduction,
            paper: ((512, "32"), (512, "32")),
        },
    ]
}

/// Interpreter makespan (max warp cycles) of one block running the
/// pattern. Measured at a fixed small Ttot and scaled linearly in warps —
/// the pattern cost per warp is Ttot-independent, the barrier cost is not
/// (handled by the +syncthreads term inside the kernels themselves).
fn pattern_cycles(pattern: Pattern, ttot: usize, tsub: u32) -> f64 {
    match pattern {
        Pattern::Elementwise => ttot as f64, // one pass, no sub-group work
        Pattern::Reduction => {
            let r = run_reduction_profiled(ttot.min(256), tsub, true, Scheduler::Independent).0;
            assert!(r.correct);
            r.stats.total_cycles as f64 * (ttot as f64 / ttot.min(256) as f64)
        }
        Pattern::Scan => {
            let r = run_scan_profiled(ttot.min(256), tsub, true, Scheduler::Independent).0;
            assert!(r.correct);
            r.stats.total_cycles as f64 * (ttot as f64 / ttot.min(256) as f64)
        }
    }
}

fn optimum(arch: &GpuArch, m: &FnModel) -> (u32, String, f64) {
    let tsubs: Vec<u32> = match m.pattern {
        Pattern::Elementwise => vec![0],
        _ => vec![8, 16, 32],
    };
    let mut best: Option<(u32, String, f64)> = None;
    for &ttot in &[128u32, 256, 512, 1024] {
        for &tsub in &tsubs {
            let occ = occupancy(
                arch,
                &BlockResources {
                    threads: ttot,
                    regs_per_thread: m.regs,
                    shared_bytes: m.shared_per_thread * ttot,
                },
            );
            if occ.blocks_per_sm == 0 {
                continue;
            }
            let cycles = if tsub == 0 {
                pattern_cycles(Pattern::Elementwise, ttot as usize, 32)
            } else {
                pattern_cycles(m.pattern, ttot as usize, tsub)
            };
            // Modeled time per element, up to a constant.
            let cost = cycles / (ttot as f64 * occ.blocks_per_sm as f64);
            let tsub_label = if tsub == 0 {
                "-".to_string()
            } else {
                tsub.to_string()
            };
            if best.as_ref().map(|b| cost < b.2).unwrap_or(true) {
                best = Some((ttot, tsub_label, cost));
            }
        }
    }
    best.expect("at least one configuration must fit")
}

fn main() {
    println!("# Table 2 — optimal thread-block configuration per function");
    println!("# cost model: simt-interpreter block makespan / (Ttot x blocks-per-SM)");
    println!();
    println!(
        "{:<10} | {:>6} {:>6} {:>12} {:>12} | {:>6} {:>6} {:>12} {:>12}",
        "", "V100", "", "", "", "P100", "", "", ""
    );
    println!(
        "{:<10} | {:>6} {:>6} {:>12} {:>12} | {:>6} {:>6} {:>12} {:>12}",
        "function",
        "Ttot",
        "Tsub",
        "paper Ttot",
        "paper Tsub",
        "Ttot",
        "Tsub",
        "paper Ttot",
        "paper Tsub"
    );
    let v100 = GpuArch::tesla_v100();
    let p100 = GpuArch::tesla_p100();
    let mut report = telemetry::RunReport::new("table2_block_config");
    let mut matches = 0;
    let mut total = 0;
    for m in models() {
        let (tv, sv, _) = optimum(&v100, &m);
        let (tp, sp, _) = optimum(&p100, &m);
        println!(
            "{:<10} | {:>6} {:>6} {:>12} {:>12} | {:>6} {:>6} {:>12} {:>12}",
            m.name, tv, sv, m.paper.0 .0, m.paper.0 .1, tp, sp, m.paper.1 .0, m.paper.1 .1
        );
        let mut jrow = telemetry::json::JsonObject::new();
        jrow.str("function", m.name)
            .u64("v100_ttot", tv as u64)
            .str("v100_tsub", &sv)
            .u64("v100_paper_ttot", m.paper.0 .0 as u64)
            .u64("p100_ttot", tp as u64)
            .str("p100_tsub", &sp)
            .u64("p100_paper_ttot", m.paper.1 .0 as u64);
        report.add_row(jrow);
        total += 2;
        matches += (tv == m.paper.0 .0) as u32 + (tp == m.paper.1 .0) as u32;
    }
    println!();
    println!("# Paper Table 2: walkTree 512/32 on both GPUs; calcNode 128/32 (V100) vs");
    println!("#   256/16 (P100); makeTree 512/8; predict 512/-; correct 512/32.");
    println!("# Ttot agreement with the paper: {matches}/{total} cells.");
    report
        .meta_u64("ttot_matches", matches as u64)
        .meta_u64("ttot_cells", total as u64);
    bench::write_report(&report);
}
