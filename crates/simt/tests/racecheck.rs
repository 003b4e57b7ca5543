//! Regression suite for the happens-before race detector (§2.1 pinned).
//!
//! The detector must flag the paper's producer/consumer and shuffle-mask
//! pitfalls with lane/PC-level diagnoses under *both* schedulers — the
//! Lockstep run producing correct results is exactly the latent-bug case
//! — and must stay silent on every shipped kernel variant that applies
//! the porting recipes.

use simt::{
    microbench, ExecEnv, Grid, Hazard, MaskSpec, Op, Program, RaceKind, Racecheck, RacecheckConfig,
    RacecheckReport, Reg, Scheduler, StepOutcome, Stmt, SyncScope, ThreadBlock, Warp, FULL_MASK,
};
use testkit::check;

/// Run one warp to completion under the detector; return the register
/// file (lane-major), shared memory and the hazard report.
fn run_warp_racechecked(
    p: &Program,
    sched: Scheduler,
    n_regs: u8,
) -> (Vec<u32>, Vec<u32>, RacecheckReport) {
    let mut shared = vec![0u32; 64];
    let mut global = vec![0u32; 16];
    let mut w = Warp::new(0, p);
    let mut rc = Racecheck::for_single_warp(RacecheckConfig::default());
    let mut env = ExecEnv::new(&mut shared, &mut global, 0, 1).with_racecheck(&mut rc);
    for _ in 0..500_000 {
        if w.step(p, sched, &mut env).unwrap() == StepOutcome::Done {
            break;
        }
    }
    assert!(w.is_done(), "program must terminate");
    let _ = env;
    let regs: Vec<u32> = (0..32)
        .flat_map(|l| (0..n_regs).map(move |r| (l, r)))
        .map(|(l, r)| w.reg(l, Reg(r)))
        .collect();
    (regs, shared, rc.finish())
}

/// The §2.1 producer/consumer exchange: lanes 0..16 store, every lane
/// reads the lower half's slots.
fn producer_consumer(with_sync: bool) -> Program {
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
}

/// The race in `producer_consumer(false)`: one distinct site between the
/// store and the load, fixable with `__syncwarp()`.
fn assert_producer_consumer_race(rep: &RacecheckReport, sched: Scheduler) -> (usize, usize) {
    assert!(
        !rep.is_clean(),
        "{sched:?}: the missing sync must be flagged"
    );
    assert_eq!(rep.records.len(), 1, "{sched:?}: one site\n{rep}");
    match &rep.records[0].hazard {
        Hazard::Race {
            kind,
            prior,
            current,
            suggested,
            ..
        } => {
            // The pair is always the store vs the cross-half load; which
            // side is "prior" depends on the scheduler's interleaving.
            let (st, ld) = match kind {
                RaceKind::WriteRead => (prior, current),
                RaceKind::ReadWrite => (current, prior),
                RaceKind::WriteWrite => panic!("unexpected write-write: {rep}"),
            };
            assert_eq!(st.op, "st.shared");
            assert_eq!(ld.op, "ld.shared");
            assert!(st.tid.lane < 16, "producer is a lower-half lane");
            assert!(ld.tid.lane >= 16, "stale consumer is an upper-half lane");
            assert_eq!(*suggested, SyncScope::SyncWarp, "intra-warp fix");
            let text = rep.records[0].describe();
            assert!(text.contains("@pc"), "PC-level diagnosis: {text}");
            (st.pc, ld.pc)
        }
        other => panic!("expected a memory race, got {other:?}"),
    }
}

#[test]
fn unsynced_producer_consumer_flagged_under_both_schedulers() {
    let p = producer_consumer(false);
    let (_, _, lockstep) = run_warp_racechecked(&p, Scheduler::Lockstep, 8);
    let (_, _, indep) = run_warp_racechecked(&p, Scheduler::Independent, 8);
    // Lockstep produces the *correct answer* and must still flag the
    // latent Volta bug: implicit reconvergence is not an ordering edge.
    let pcs_a = assert_producer_consumer_race(&lockstep, Scheduler::Lockstep);
    let pcs_b = assert_producer_consumer_race(&indep, Scheduler::Independent);
    assert_eq!(pcs_a, pcs_b, "both schedulers implicate the same PC pair");
    // 16 stale upper-half lanes, one occurrence each.
    assert_eq!(lockstep.total, 16);
    assert_eq!(indep.total, 16);
}

#[test]
fn synced_producer_consumer_is_clean_under_both_schedulers() {
    let p = producer_consumer(true);
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let (_, _, rep) = run_warp_racechecked(&p, sched, 8);
        assert!(rep.is_clean(), "{sched:?}: {rep}");
    }
}

/// Shuffle in a converged warp with the hard-coded `0xffff` mask: the
/// executing upper half is omitted — flagged under both schedulers.
#[test]
fn hardcoded_half_mask_in_converged_warp_is_flagged() {
    let p = Program::compile(&[
        Stmt::Op(Op::LaneId(Reg(0))),
        Stmt::Op(Op::ShflXor(Reg(1), Reg(0), 1, MaskSpec::Const(0xffff))),
    ]);
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let (_, _, rep) = run_warp_racechecked(&p, sched, 2);
        assert_eq!(rep.records.len(), 1, "{sched:?}: {rep}");
        match &rep.records[0].hazard {
            Hazard::CollectiveOmitsCaller { omitted, mask, .. } => {
                assert_eq!(*mask, 0xffff);
                assert_eq!(*omitted, 0xffff_0000, "{sched:?}");
            }
            other => panic!("{sched:?}: expected omits-caller, got {other:?}"),
        }
        assert_eq!(rep.total, 16, "{sched:?}: one occurrence per omitted lane");
    }
}

/// Two divergent half-warps each call a full-mask shuffle: the mask
/// names 16 lanes whose fragments are in the other branch.
#[test]
fn full_mask_in_divergent_halves_is_flagged() {
    let (lane, c16, cond, out) = (Reg(0), Reg(1), Reg(2), Reg(3));
    let shfl = |r| Stmt::Op(Op::ShflXor(out, r, 1, MaskSpec::Const(FULL_MASK)));
    let p = Program::compile(&[
        Stmt::Op(Op::LaneId(lane)),
        Stmt::Op(Op::ConstI(c16, 16)),
        Stmt::Op(Op::LtI(cond, lane, c16)),
        Stmt::If {
            cond,
            then: vec![shfl(lane)],
            els: vec![shfl(c16)],
        },
    ]);
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let (_, _, rep) = run_warp_racechecked(&p, sched, 4);
        assert!(
            rep.records
                .iter()
                .all(|r| matches!(r.hazard, Hazard::CollectiveMissingLanes { .. })),
            "{sched:?}: {rep}"
        );
        assert!(!rep.is_clean(), "{sched:?}");
    }
}

/// The runtime recipe: an `__activemask()`-derived mask is always clean.
#[test]
fn activemask_derived_shuffle_is_clean() {
    let (lane, c16, cond, out, am) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    let shfl = |src| {
        vec![
            Stmt::Op(Op::ActiveMask(am)),
            Stmt::Op(Op::ShflXor(out, src, 1, MaskSpec::FromReg(am))),
        ]
    };
    let p = Program::compile(&[
        Stmt::Op(Op::LaneId(lane)),
        Stmt::Op(Op::ConstI(c16, 16)),
        Stmt::Op(Op::LtI(cond, lane, c16)),
        Stmt::If {
            cond,
            then: shfl(lane),
            els: shfl(c16),
        },
    ]);
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let (_, _, rep) = run_warp_racechecked(&p, sched, 5);
        assert!(rep.is_clean(), "{sched:?}: {rep}");
    }
}

/// Cross-warp exchange through shared memory: without `__syncthreads()`
/// the detector suggests exactly that barrier.
fn cross_warp_exchange(with_sync: bool) -> Program {
    let (tid, val, n, addr, out, c1) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
    let mut body = vec![
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(n, 64)),
        Stmt::Op(Op::ConstI(c1, 1)),
        Stmt::Op(Op::ConstI(val, 3)),
        Stmt::Op(Op::MulI(val, tid, val)),
        Stmt::Op(Op::StShared(tid, val)),
    ];
    if with_sync {
        body.push(Stmt::Op(Op::SyncThreads));
    }
    body.push(Stmt::Op(Op::SubI(addr, n, tid)));
    body.push(Stmt::Op(Op::SubI(addr, addr, c1)));
    body.push(Stmt::Op(Op::LdShared(out, addr)));
    Program::compile(&body)
}

fn run_block_racechecked(p: &Program, sched: Scheduler) -> RacecheckReport {
    let mut b = ThreadBlock::new(0, 64, 64, p);
    let mut global = vec![0u32; 4];
    let mut rc = Racecheck::new(1, 64, RacecheckConfig::default());
    for _ in 0..1_000_000 {
        if b.step(p, sched, &mut global, 1, Some(&mut rc)).unwrap() == simt::BlockOutcome::Done {
            break;
        }
    }
    assert!(b.is_done(), "block must finish");
    rc.finish()
}

#[test]
fn cross_warp_race_suggests_syncthreads() {
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let rep = run_block_racechecked(&cross_warp_exchange(false), sched);
        assert!(!rep.is_clean(), "{sched:?}");
        assert!(
            rep.records.iter().any(|r| matches!(
                r.hazard,
                Hazard::Race {
                    suggested: SyncScope::SyncThreads,
                    ..
                }
            )),
            "{sched:?}: {rep}"
        );
        let rep = run_block_racechecked(&cross_warp_exchange(true), sched);
        assert!(rep.is_clean(), "{sched:?}: {rep}");
    }
}

/// Thread 0 of every block atomically bumps a global count that every
/// thread then reads back, after a grid barrier when `with_barrier`.
fn cross_block_count(with_barrier: bool) -> Program {
    let (tid, zero, one, old, out, cond) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
    let mut body = vec![
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(zero, 0)),
        Stmt::Op(Op::ConstI(one, 1)),
        Stmt::Op(Op::EqI(cond, tid, zero)),
        Stmt::If {
            cond,
            then: vec![Stmt::Op(Op::AtomicAddGlobal(old, zero, one))],
            els: vec![],
        },
    ];
    if with_barrier {
        body.push(Stmt::Op(Op::GridSync));
    }
    body.push(Stmt::Op(Op::LdGlobal(out, zero)));
    Program::compile(&body)
}

/// Run [`cross_block_count`] on `blocks` × `threads` under the detector:
/// clean with the grid barrier, and without it flagged with a
/// write-read race whose suggested fix is the grid-wide barrier.
fn assert_cross_block_count_checked(blocks: usize, threads: usize, sched: Scheduler) {
    let p = cross_block_count(false);
    let mut g = Grid::new(blocks, threads, 4, 4, &p);
    let (_, rep) = g
        .run_racechecked(&p, sched, 10_000_000, RacecheckConfig::default())
        .unwrap();
    assert!(!rep.is_clean(), "{sched:?}");
    assert!(
        rep.records.iter().any(|r| matches!(
            r.hazard,
            Hazard::Race {
                suggested: SyncScope::GridSync,
                kind: RaceKind::WriteRead,
                ..
            }
        )),
        "{sched:?}: {rep}"
    );
    let p = cross_block_count(true);
    let mut g = Grid::new(blocks, threads, 4, 4, &p);
    let (stats, rep) = g
        .run_racechecked(&p, sched, 10_000_000, RacecheckConfig::default())
        .unwrap();
    assert!(rep.is_clean(), "{sched:?}: {rep}");
    assert_eq!(stats.grid_syncs, 1);
}

/// Cross-block: an atomic count read back without a grid barrier races,
/// and the suggested fix is the grid-wide barrier; with `grid.sync()`
/// the same program is clean (atomic pairs never race among themselves).
#[test]
fn cross_block_race_suggests_grid_barrier() {
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        assert_cross_block_count_checked(2, 32, sched);
    }
}

/// The same check on a 16 × 1024-thread grid: the detector's clocks grow
/// linearly with the thread count, so a large grid stays cheap to check.
#[test]
fn racecheck_covers_a_sixteen_block_grid() {
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        assert_cross_block_count_checked(16, 1024, sched);
    }
}

/// Every shipped kernel variant that applies the porting recipes is
/// hazard-free: the Volta variants under both schedulers, the Pascal
/// variants under the lockstep scheduling they assume.
#[test]
fn shipped_kernels_are_hazard_free_in_their_modes() {
    for volta_sync in [false, true] {
        for (name, b, rep) in microbench::racecheck_sweep(volta_sync, &[64], &[2, 4, 8, 16, 32]) {
            assert!(
                b.correct && rep.is_clean(),
                "volta_sync={volta_sync} {name}: {rep}"
            );
        }
    }
}

/// The Pascal scan variant (`volta_sync = false`) carries the latent
/// §2.1 bug: under independent scheduling its stale full-warp mask names
/// lanes still inside the divergent add — the detector catches what the
/// Lockstep run hides.
#[test]
fn pascal_scan_variant_flagged_under_independent_scheduling() {
    let (_, rep) = microbench::run_scan_racechecked(64, 8, false, Scheduler::Independent);
    assert!(!rep.is_clean(), "latent mask bug must surface");
    assert!(
        rep.records
            .iter()
            .any(|r| matches!(r.hazard, Hazard::CollectiveMissingLanes { .. })),
        "{rep}"
    );
}

/// Property: a random divergent shared-memory program that the detector
/// calls clean under both schedulers is Lockstep/Independent equivalent
/// — detector silence implies scheduler independence.
#[test]
fn detector_clean_programs_are_scheduler_equivalent() {
    let mut clean = 0u32;
    let mut flagged = 0u32;
    check(
        "detector_clean_programs_are_scheduler_equivalent",
        48,
        |g| {
            let pivot = g.u8_in(1..32);
            let kadd = g.any_i16() as i32;
            let kxor = g.u8_in(0..4);
            let with_sync = g.u8_in(0..2) == 1;

            let (lane, cond, val, addr, out, c) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
            let mut stmts = vec![
                Stmt::Op(Op::ConstI(Reg(7), 0)), // pin register count
                Stmt::Op(Op::LaneId(lane)),
                Stmt::Op(Op::ConstI(c, pivot as i32)),
                Stmt::Op(Op::LtI(cond, lane, c)),
                Stmt::If {
                    cond,
                    then: vec![
                        Stmt::Op(Op::ConstI(c, kadd)),
                        Stmt::Op(Op::AddI(val, lane, c)),
                        Stmt::Op(Op::StShared(lane, val)),
                    ],
                    els: vec![],
                },
            ];
            if with_sync {
                stmts.push(Stmt::Op(Op::SyncWarp(MaskSpec::Const(FULL_MASK))));
            }
            stmts.push(Stmt::Op(Op::ConstI(c, kxor as i32)));
            stmts.push(Stmt::Op(Op::XorI(addr, lane, c)));
            stmts.push(Stmt::Op(Op::LdShared(out, addr)));
            let p = Program::compile(&stmts);

            let (ra, sa, rep_a) = run_warp_racechecked(&p, Scheduler::Lockstep, 8);
            let (rb, sb, rep_b) = run_warp_racechecked(&p, Scheduler::Independent, 8);
            if rep_a.is_clean() && rep_b.is_clean() {
                clean += 1;
                assert_eq!(ra, rb, "clean program must be scheduler-equivalent");
                assert_eq!(sa, sb);
            } else {
                flagged += 1;
            }
        },
    );
    assert!(clean > 0, "the fixed-seed run must exercise clean programs");
    assert!(flagged > 0, "and flagged ones");
}

/// 64-bit FNV-1a (offset basis 0xcbf29ce484222325, prime 0x100000001b3).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pin every report of the reduction and the scan over both modes, both
/// schedulers and the whole Table 2 `ttot` × `tsub` grid: each run's
/// `correct`, `total`, `truncated` and every record's diagnosis and
/// count. The shipped sweep is hazard-free, so the Pascal variants under
/// independent scheduling are what pin the reported hazards themselves.
#[test]
fn racecheck_reports_are_pinned() {
    let mut bytes = Vec::new();
    let (mut runs, mut hazardous, mut hazards) = (0, 0, 0);
    for volta_sync in [false, true] {
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            for ttot in [32, 64, 128, 256, 512, 1024] {
                for tsub in [2, 4, 8, 16, 32] {
                    for (b, rep) in [
                        microbench::run_reduction_racechecked(ttot, tsub, volta_sync, sched),
                        microbench::run_scan_racechecked(ttot, tsub, volta_sync, sched),
                    ] {
                        bytes.push(b.correct as u8);
                        bytes.extend_from_slice(&rep.total.to_le_bytes());
                        bytes.push(rep.truncated as u8);
                        for r in &rep.records {
                            bytes.extend_from_slice(r.describe().as_bytes());
                            bytes.extend_from_slice(&r.count.to_le_bytes());
                        }
                        runs += 1;
                        hazardous += u32::from(!rep.is_clean());
                        hazards += rep.total;
                    }
                }
            }
        }
    }
    assert_eq!((runs, hazardous, hazards), (240, 24, 40_320));
    assert_eq!(fnv1a64(&bytes), 0xcc43_527a_5b1d_3c3d);
}
