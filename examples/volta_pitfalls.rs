//! A guided tour of the §2.1 porting pitfalls, executed live in the SIMT
//! interpreter — the "recipes for porting applications to the Volta
//! architecture" the paper sets out to provide, as runnable code.
//!
//! ```text
//! cargo run --release --example volta_pitfalls [-- --racecheck]
//! ```
//!
//! With `--racecheck`, each pitfall kernel is additionally executed under
//! the happens-before hazard detector ([`gothic::simt::racecheck`]) and
//! its diagnosis is printed next to the observed behaviour.

use gothic::simt::{
    carveout_capacity_kib, carveout_percent_for, ExecEnv, MaskSpec, Op, Program, Racecheck,
    RacecheckReport, Reg, Scheduler, StepOutcome, Stmt, Warp, FULL_MASK, POISON,
};

fn run_warp(p: &Program, sched: Scheduler) -> Warp {
    let mut shared = vec![0u32; 64];
    let mut global = vec![0u32; 16];
    let mut w = Warp::new(0, p);
    let mut env = ExecEnv::new(&mut shared, &mut global, 0, 1);
    while w.step(p, sched, &mut env).unwrap() != StepOutcome::Done {}
    w
}

/// Re-run `p` single-warp under the race detector and return the report.
fn diagnose(p: &Program, sched: Scheduler) -> RacecheckReport {
    let mut shared = vec![0u32; 64];
    let mut global = vec![0u32; 16];
    let mut w = Warp::new(0, p);
    let mut rc = Racecheck::for_single_warp();
    let mut env = ExecEnv::new(&mut shared, &mut global, 0, 1).with_racecheck(&mut rc);
    while w.step(p, sched, &mut env).unwrap() != StepOutcome::Done {}
    let _ = env;
    rc.finish()
}

fn print_diagnosis(label: &str, rep: &RacecheckReport) {
    if rep.is_clean() {
        println!("    racecheck [{label}]: clean");
    } else {
        println!(
            "    racecheck [{label}]: {} hazard site(s)",
            rep.records.len()
        );
        for r in &rep.records {
            println!("      {}", r.describe());
        }
    }
}

fn pitfall_1_implicit_synchrony(racecheck: bool) {
    println!("── Pitfall 1: relying on implicit warp synchrony ──────────────────");
    println!("A divergent producer/consumer exchange through shared memory:");
    println!("  if (lane < 16) shared[lane] = lane + 1000;");
    println!("  out = shared[lane & 15];   // no __syncwarp()");
    let build = |with_sync: bool| {
        let (lane, c16, cond, val, addr, out, c1000, c15) = (
            Reg(0),
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
        );
        let mut stmts = vec![
            Stmt::Op(Op::LaneId(lane)),
            Stmt::Op(Op::ConstI(c16, 16)),
            Stmt::Op(Op::ConstI(c1000, 1000)),
            Stmt::Op(Op::ConstI(c15, 15)),
            Stmt::Op(Op::LtI(cond, lane, c16)),
            Stmt::If {
                cond,
                then: vec![
                    Stmt::Op(Op::AddI(val, lane, c1000)),
                    Stmt::Op(Op::StShared(lane, val)),
                ],
                els: vec![],
            },
        ];
        if with_sync {
            stmts.push(Stmt::Op(Op::SyncWarp(MaskSpec::Const(FULL_MASK))));
        }
        stmts.push(Stmt::Op(Op::AndI(addr, lane, c15)));
        stmts.push(Stmt::Op(Op::LdShared(out, addr)));
        Program::compile(&stmts)
    };
    let stale = |w: &Warp| (16..32).filter(|&l| w.reg(l, Reg(5)) == 0).count();

    let w = run_warp(&build(false), Scheduler::Lockstep);
    println!(
        "  Pascal mode (lockstep)      : {} stale reads — implicit sync saves it",
        stale(&w)
    );
    if racecheck {
        // Implicit synchrony is NOT an ordering edge: the detector flags
        // the latent Volta bug even though the lockstep run looks fine.
        print_diagnosis(
            "lockstep, no sync",
            &diagnose(&build(false), Scheduler::Lockstep),
        );
    }
    let w = run_warp(&build(false), Scheduler::Independent);
    println!(
        "  Volta, no __syncwarp()      : {} stale reads — THE BUG",
        stale(&w)
    );
    if racecheck {
        print_diagnosis(
            "independent, no sync",
            &diagnose(&build(false), Scheduler::Independent),
        );
    }
    let w = run_warp(&build(true), Scheduler::Independent);
    println!(
        "  Volta, with __syncwarp()    : {} stale reads — the recipe",
        stale(&w)
    );
    if racecheck {
        print_diagnosis(
            "independent, __syncwarp()",
            &diagnose(&build(true), Scheduler::Independent),
        );
    }
    println!();
}

fn pitfall_2_shuffle_masks(racecheck: bool) {
    println!("── Pitfall 2: warp-shuffle masks with sub-warp groups ─────────────");
    println!("Two 16-lane groups call a width-16 shfl_xor at the same time (§2.1):");
    let program = |mask: MaskSpec| {
        Program::compile(&[
            Stmt::Op(Op::LaneId(Reg(0))),
            Stmt::Op(Op::ActiveMask(Reg(2))),
            Stmt::Op(Op::ShflXor(Reg(1), Reg(0), 1, mask)),
        ])
    };
    let poisoned = |w: &Warp| (0..32).filter(|&l| w.reg(l, Reg(1)) == POISON).count();
    let w = run_warp(&program(MaskSpec::Const(0xffff)), Scheduler::Lockstep);
    println!(
        "  mask = 0xffff               : {} lanes undefined (upper half!)",
        poisoned(&w)
    );
    if racecheck {
        // The executing upper half is omitted from the mask: a shuffle
        // participation hazard, not merely "undefined values".
        print_diagnosis(
            "mask = 0xffff",
            &diagnose(&program(MaskSpec::Const(0xffff)), Scheduler::Lockstep),
        );
    }
    let w = run_warp(&program(MaskSpec::Const(FULL_MASK)), Scheduler::Lockstep);
    println!(
        "  mask = 0xffffffff           : {} lanes undefined",
        poisoned(&w)
    );
    if racecheck {
        print_diagnosis(
            "mask = 0xffffffff",
            &diagnose(&program(MaskSpec::Const(FULL_MASK)), Scheduler::Lockstep),
        );
    }
    let w = run_warp(&program(MaskSpec::FromReg(Reg(2))), Scheduler::Independent);
    println!(
        "  mask = __activemask()       : {} lanes undefined — the runtime recipe",
        poisoned(&w)
    );
    if racecheck {
        print_diagnosis(
            "mask = __activemask()",
            &diagnose(&program(MaskSpec::FromReg(Reg(2))), Scheduler::Independent),
        );
    }
    println!();
}

fn pitfall_3_carveout(racecheck: bool) {
    println!("── Pitfall 3: shared-memory carveout rounding ─────────────────────");
    println!("cudaFuncAttributePreferredSharedMemoryCarveout takes a percentage of");
    println!("96 KiB; CUDA grants the smallest candidate ≥ the request:");
    for pct in [60u32, 66, 67, 100] {
        println!(
            "  request {pct:>3}% → granted {:>2} KiB",
            carveout_capacity_kib(pct)
        );
    }
    println!(
        "  → asking for 64 KiB safely requires floor(64/96·100) = {}%",
        carveout_percent_for(64)
    );
    if racecheck {
        println!("    racecheck: n/a — a host-API rounding pitfall, no kernel to check");
    }
    println!();
}

fn pitfall_4_divergence_duration(racecheck: bool) {
    println!("── Pitfall 4: divergence outlives the branch ──────────────────────");
    println!("After an if/else, Pascal reconverges automatically; Volta does not —");
    println!("__activemask() *after* the branch shows who is actually together:");
    let (lane, c16, cond, am) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let nop = Reg(4);
    let p = Program::compile(&[
        Stmt::Op(Op::LaneId(lane)),
        Stmt::Op(Op::ConstI(c16, 16)),
        Stmt::Op(Op::LtI(cond, lane, c16)),
        Stmt::If {
            cond,
            then: vec![Stmt::Op(Op::ConstI(nop, 1))],
            els: vec![Stmt::Op(Op::ConstI(nop, 2))],
        },
        // Post-branch: measure convergence.
        Stmt::Op(Op::ActiveMask(am)),
    ]);
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let w = run_warp(&p, sched);
        let masks: std::collections::BTreeSet<u32> = (0..32).map(|l| w.reg(l, Reg(3))).collect();
        let desc: Vec<String> = masks.iter().map(|m| format!("{m:#010x}")).collect();
        println!(
            "  {sched:?}: post-branch activemask values = {{{}}}",
            desc.join(", ")
        );
    }
    println!("  (a single 0xffffffff means reconverged; two half-masks mean the");
    println!("   divergence persisted past the branch — insert a __syncwarp())");
    if racecheck {
        // Divergence by itself orders nothing and races on nothing.
        print_diagnosis("independent", &diagnose(&p, Scheduler::Independent));
        println!("    (divergence alone is not a hazard — only unordered data flow is)");
    }
    println!();
}

fn main() {
    let racecheck = std::env::args().any(|a| a == "--racecheck");
    println!("The four §2.1 porting pitfalls, reproduced in the simt interpreter\n");
    pitfall_1_implicit_synchrony(racecheck);
    pitfall_2_shuffle_masks(racecheck);
    pitfall_3_carveout(racecheck);
    pitfall_4_divergence_duration(racecheck);
    println!("All of GOTHIC's kernels in this repository apply the recipes:");
    println!("explicit __syncwarp() in the Volta mode, __activemask()-derived");
    println!("shuffle masks, and floor-function carveout requests.");
}
