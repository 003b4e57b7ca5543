//! The §2.1 porting semantics, exercised through the public simt API:
//! independent thread scheduling, explicit synchronization, runtime
//! shuffle masks, shared-memory carveout, inter-block barriers and the
//! occupancy effects of Appendix A.

use gothic::gpu_model::occupancy::{occupancy, BlockResources};
use gothic::gpu_model::GpuArch;
use gothic::simt::microbench::{run_reduction_profiled, run_scan_profiled};
use gothic::simt::{
    carveout_capacity_kib, carveout_percent_for, Grid, MaskSpec, Op, Program, Reg, Scheduler, Stmt,
    Warp, FULL_MASK, POISON,
};
use gothic::simt::{ExecEnv, StepOutcome};

/// Helper: run a single warp to completion.
fn run_warp(p: &Program, sched: Scheduler, shared: usize) -> (Warp, Vec<u32>) {
    let mut sh = vec![0u32; shared];
    let mut gl = vec![0u32; 16];
    let mut w = Warp::new(0, p);
    let mut env = ExecEnv::new(&mut sh, &mut gl, 0, 1);
    for _ in 0..200_000 {
        if w.step(p, sched, &mut env).unwrap() == StepOutcome::Done {
            break;
        }
    }
    assert!(w.is_done());
    (w, sh)
}

/// The paper's central porting hazard, end to end: a divergent
/// producer/consumer exchange is correct under Pascal-mode lockstep,
/// breaks under Volta independent scheduling, and is repaired by the
/// explicit `__syncwarp()` the paper prescribes.
#[test]
fn porting_recipe_syncwarp_fixes_independent_scheduling() {
    let build = |with_sync: bool| {
        let lane = Reg(0);
        let c16 = Reg(1);
        let cond = Reg(2);
        let val = Reg(3);
        let addr = Reg(4);
        let out = Reg(5);
        let c1000 = Reg(6);
        let c15 = Reg(7);
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

    // Pascal mode (lockstep): correct even without the sync.
    let (w, _) = run_warp(&build(false), Scheduler::Lockstep, 16);
    for l in 0..32 {
        assert_eq!(w.reg(l, Reg(5)), (l % 16 + 1000) as u32);
    }
    // Volta mode without sync: stale reads in the upper half-warp.
    let (w, _) = run_warp(&build(false), Scheduler::Independent, 16);
    let stale = (16..32).filter(|&l| w.reg(l, Reg(5)) == 0).count();
    assert!(stale > 0, "independent scheduling must expose the race");
    // Volta mode with the prescribed sync: correct again.
    let (w, _) = run_warp(&build(true), Scheduler::Independent, 16);
    for l in 0..32 {
        assert_eq!(w.reg(l, Reg(5)), (l % 16 + 1000) as u32);
    }
}

/// §2.1's shuffle-mask discussion: two 16-lane groups calling a width-16
/// shuffle simultaneously need mask 0xffffffff (or activemask()), not
/// 0xffff.
#[test]
fn shuffle_mask_rules_match_section_2_1() {
    let program = |mask: MaskSpec| {
        Program::compile(&[
            Stmt::Op(Op::LaneId(Reg(0))),
            Stmt::Op(Op::ActiveMask(Reg(2))),
            Stmt::Op(Op::ShflXor(Reg(1), Reg(0), 1, mask)),
        ])
    };
    // Wrong constant mask: upper half poisoned.
    let (w, _) = run_warp(&program(MaskSpec::Const(0xffff)), Scheduler::Lockstep, 1);
    assert!((16..32).all(|l| w.reg(l, Reg(1)) == POISON));
    assert!((0..16).all(|l| w.reg(l, Reg(1)) == (l as u32 ^ 1)));
    // Full constant mask: correct (the converged two-group case).
    let (w, _) = run_warp(&program(MaskSpec::Const(FULL_MASK)), Scheduler::Lockstep, 1);
    assert!((0..32).all(|l| w.reg(l, Reg(1)) == (l as u32 ^ 1)));
    // activemask(): correct at runtime in both cases — the paper's recipe.
    let (w, _) = run_warp(
        &program(MaskSpec::FromReg(Reg(2))),
        Scheduler::Independent,
        1,
    );
    assert!((0..32).all(|l| w.reg(l, Reg(1)) == (l as u32 ^ 1)));
}

/// The carveout pitfall, exactly as §2.1 documents it.
#[test]
fn carveout_pitfall_66_vs_67() {
    assert_eq!(carveout_capacity_kib(66), 64);
    assert_eq!(carveout_capacity_kib(67), 96);
    // The safe request for 64 KiB is floor(64/96·100) = 66.
    assert_eq!(carveout_percent_for(64), 66);
}

/// GOTHIC's reductions/scans are correct under both schedulers at every
/// sub-group width of Table 2, and the Volta-mode syncs cost cycles.
#[test]
fn table2_subgroup_widths_all_work() {
    for tsub in [8u32, 16, 32] {
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            assert!(
                run_reduction_profiled(256, tsub, true, sched).0.correct,
                "reduction {tsub} {sched:?}"
            );
            assert!(
                run_scan_profiled(256, tsub, true, sched).0.correct,
                "scan {tsub} {sched:?}"
            );
        }
    }
    let synced = run_reduction_profiled(256, 32, true, Scheduler::Independent).0;
    let plain = run_reduction_profiled(256, 32, false, Scheduler::Lockstep).0;
    assert!(synced.stats.total_cycles > plain.stats.total_cycles);
}

/// Appendix A occupancy: the Cooperative-Groups compilation path costs a
/// resident block per SM on V100.
#[test]
fn appendix_a_occupancy_drop() {
    let v100 = GpuArch::tesla_v100();
    let orig = occupancy(
        &v100,
        &BlockResources {
            threads: 128,
            regs_per_thread: 56,
            shared_bytes: 0,
        },
    );
    let cg = occupancy(
        &v100,
        &BlockResources {
            threads: 128,
            regs_per_thread: 64,
            shared_bytes: 0,
        },
    );
    assert_eq!((orig.blocks_per_sm, cg.blocks_per_sm), (9, 8));
}

/// The lock-free inter-block barrier synchronises a grid correctly under
/// independent scheduling (the production configuration of GOTHIC), and
/// costs fewer issue cycles than grid.sync() on the same kernel.
#[test]
fn lockfree_barrier_beats_grid_sync() {
    use gothic::simt::barrier::{grid_sync_barrier, lockfree_barrier, BarrierRegs};

    let build = |lockfree: bool, grid_dim: u32| {
        let tid = Reg(0);
        let bid = Reg(1);
        let gd = Reg(2);
        let goal = Reg(3);
        let regs = BarrierRegs {
            tid,
            bid,
            grid_dim: gd,
            goal,
            scratch: [Reg(4), Reg(5), Reg(6), Reg(7)],
        };
        let out = Reg(8);
        let zero = Reg(9);
        let one = Reg(10);
        let cond = Reg(11);
        let old = Reg(12);
        let mut stmts = vec![
            Stmt::Op(Op::ThreadId(tid)),
            Stmt::Op(Op::BlockId(bid)),
            Stmt::Op(Op::GridDim(gd)),
            Stmt::Op(Op::ConstI(goal, 1)),
            Stmt::Op(Op::ConstI(zero, 0)),
            Stmt::Op(Op::ConstI(one, 1)),
            Stmt::Op(Op::EqI(cond, tid, zero)),
            Stmt::If {
                cond,
                then: vec![Stmt::Op(Op::AtomicAddGlobal(old, zero, one))],
                els: vec![],
            },
        ];
        if lockfree {
            stmts.extend(lockfree_barrier(&regs, 4, grid_dim));
        } else {
            stmts.extend(grid_sync_barrier());
        }
        stmts.push(Stmt::Op(Op::LdGlobal(out, zero)));
        Program::compile(&stmts)
    };

    let grid_dim = 5u32;
    let mut cycles = Vec::new();
    for lockfree in [true, false] {
        let p = build(lockfree, grid_dim);
        let mut g = Grid::new(grid_dim as usize, 64, 4, 4 + 2 * grid_dim as usize, &p);
        let stats = g.run(&p, Scheduler::Independent, 100_000_000).unwrap();
        // Correctness: every thread sees the full count after the barrier.
        for b in &g.blocks {
            for w in &b.warps {
                for l in 0..32 {
                    assert_eq!(w.reg(l, Reg(8)), grid_dim, "lockfree={lockfree}");
                }
            }
        }
        cycles.push(stats.max_warp_cycles);
    }
    assert!(
        cycles[0] < cycles[1],
        "lock-free {} vs grid.sync {}",
        cycles[0],
        cycles[1]
    );
}

/// The interpreter counts behind Table 2, pinned to the bit: the five
/// profiled micro-kernels in the Pascal and then the Volta mode, each
/// run's 19 per-pipe counts and 6 grid statistics hashed in declaration
/// order. Table 2 and `gpu_model::measured` are priced from these counts.
#[test]
fn table2_kernel_counts_are_pinned() {
    use gothic::simt::microbench as mb;
    let mut bytes = Vec::new();
    for (volta, sched) in [(false, Scheduler::Lockstep), (true, Scheduler::Independent)] {
        for (b, p) in [
            mb::run_gravity_flush_profiled(32, 1e-4, sched),
            mb::run_reduction_profiled(256, 32, volta, sched),
            mb::run_scan_profiled(256, 32, volta, sched),
            mb::run_predict_profiled(256, sched),
            mb::run_correct_profiled(256, sched),
        ] {
            assert!(b.correct, "{} {sched:?}", p.kernel);
            let c = &p.counts;
            let s = &b.stats;
            for v in [
                c.int_ops,
                c.fp_add,
                c.fp_mul,
                c.fp_fma,
                c.fp_special,
                c.fp_cmp,
                c.control,
                c.shuffles,
                c.votes,
                c.syncwarps,
                c.syncthreads,
                c.grid_barriers,
                c.shared_ld,
                c.shared_st,
                c.global_ld,
                c.global_st,
                c.global_atomics,
                c.divergence_events,
                c.max_reconv_depth,
                s.total_cycles,
                s.max_warp_cycles,
                s.retired,
                s.syncwarps,
                s.block_syncs,
                s.grid_syncs,
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    assert_eq!(gothic::fnv1a64(&bytes), 0xd54e_6b3f_fc26_9863);
}
