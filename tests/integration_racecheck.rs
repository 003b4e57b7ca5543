//! Workspace-level racecheck integration: the full Table 2 configuration
//! sweep must be hazard-free in its shipped variants, hazard occurrences
//! must land in the report's per-class totals, and hazard reports must
//! embed in the JSON-lines trace next to spans and counters.

use gothic::simt::{
    microbench, Grid, Hazard, MaskSpec, MemSpace, Op, Program, RacecheckReport, Reg, Scheduler,
    Stmt,
};
use gothic::telemetry;
use gothic::telemetry::sink::{TraceFormat, TraceTo};

/// The Table 2 sweep (`Ttot` × `Tsub`), in the variants the paper ships:
/// Volta mode (defensive `__syncwarp()`) must be clean under both
/// schedulers; Pascal mode under the lockstep scheduling it assumes.
#[test]
fn table2_sweep_is_hazard_free() {
    for ttot in [128usize, 256, 512, 1024] {
        for tsub in [2u32, 4, 8, 16, 32] {
            for sched in [Scheduler::Lockstep, Scheduler::Independent] {
                let (b, rep) = microbench::run_reduction_racechecked(ttot, tsub, true, sched);
                assert!(
                    b.correct && rep.is_clean(),
                    "reduction ttot={ttot} tsub={tsub} {sched:?}: {rep}"
                );
                let (b, rep) = microbench::run_scan_racechecked(ttot, tsub, true, sched);
                assert!(
                    b.correct && rep.is_clean(),
                    "scan ttot={ttot} tsub={tsub} {sched:?}: {rep}"
                );
            }
            let (b, rep) =
                microbench::run_reduction_racechecked(ttot, tsub, false, Scheduler::Lockstep);
            assert!(
                b.correct && rep.is_clean(),
                "pascal reduction ttot={ttot} tsub={tsub}: {rep}"
            );
            let (b, rep) = microbench::run_scan_racechecked(ttot, tsub, false, Scheduler::Lockstep);
            assert!(
                b.correct && rep.is_clean(),
                "pascal scan ttot={ttot} tsub={tsub}: {rep}"
            );
        }
    }
}

#[test]
fn gravity_flush_is_hazard_free_under_both_schedulers() {
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        let (b, rep) = microbench::run_gravity_flush_racechecked(64, 1e-4, sched);
        assert!(b.correct && rep.is_clean(), "{sched:?}: {rep}");
    }
}

/// A deliberately racy two-warp exchange (no `__syncthreads()`) through
/// shared memory, or through global memory when `global`.
fn racy_block_program(global: bool) -> Program {
    let (tid, val, n, addr, out, c1) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
    let (store, load) = if global {
        (Op::StGlobal(tid, val), Op::LdGlobal(out, addr))
    } else {
        (Op::StShared(tid, val), Op::LdShared(out, addr))
    };
    Program::compile(&[
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(n, 64)),
        Stmt::Op(Op::ConstI(c1, 1)),
        Stmt::Op(Op::ConstI(val, 3)),
        Stmt::Op(Op::MulI(val, tid, val)),
        Stmt::Op(store),
        Stmt::Op(Op::SubI(addr, n, tid)),
        Stmt::Op(Op::SubI(addr, addr, c1)),
        Stmt::Op(load),
    ])
}

/// A shuffle in a converged warp with the hard-coded `0xffff` mask: the
/// executing upper half is omitted.
fn half_mask_shuffle_program() -> Program {
    Program::compile(&[
        Stmt::Op(Op::LaneId(Reg(0))),
        Stmt::Op(Op::ShflXor(Reg(1), Reg(0), 1, MaskSpec::Const(0xffff))),
    ])
}

/// Run `p` on one block of 64 threads under the detector.
fn run_block_racechecked(p: &Program) -> RacecheckReport {
    let mut g = Grid::new(1, 64, 64, 64, p);
    let (_, rep) = g
        .run_racechecked(p, Scheduler::Independent, 1_000_000)
        .unwrap();
    rep
}

/// The per-class totals of one report: each equals the sum of `count`
/// over that class's records.
fn class_totals(rep: &RacecheckReport) -> [u64; 3] {
    let mut sums = [0u64; 3];
    for r in &rep.records {
        let class = match r.hazard {
            Hazard::Race {
                space: MemSpace::Shared { .. },
                ..
            } => 0,
            Hazard::Race {
                space: MemSpace::Global,
                ..
            } => 1,
            Hazard::CollectiveMissingLanes { .. } | Hazard::CollectiveOmitsCaller { .. } => 2,
        };
        sums[class] += r.count;
    }
    let totals = [rep.shared_races, rep.global_races, rep.collective];
    assert_eq!(totals, sums, "class totals are the records' counts: {rep}");
    totals
}

/// Every hazard occurrence lands in exactly one per-class total of the
/// report: a shared race, a global race, or a collective-mask hazard.
#[test]
fn hazard_occurrences_land_in_the_report_class_totals() {
    let cases = [
        (racy_block_program(false), 0),
        (racy_block_program(true), 1),
        (half_mask_shuffle_program(), 2),
    ];
    for (p, class) in cases {
        let rep = run_block_racechecked(&p);
        assert!(!rep.is_clean(), "class {class}");
        assert!(!rep.truncated, "class {class}");
        let totals = class_totals(&rep);
        assert_eq!(totals[class], rep.total, "class {class}: {rep}");
    }
}

#[test]
fn hazard_reports_embed_in_the_trace_stream() {
    let _g = telemetry::sink::test_lock();
    telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
    let rep = run_block_racechecked(&racy_block_program(false));
    let lines = telemetry::sink::drain_memory();
    telemetry::sink::shutdown();
    assert!(!rep.is_clean());

    let mut hazard_lines = 0u64;
    let mut summary = None;
    for line in &lines {
        let v = telemetry::json::parse(line).expect("every trace line parses");
        match v.get("type").and_then(|t| t.as_str()) {
            Some("hazard") => {
                hazard_lines += 1;
                assert_eq!(v.get("class").unwrap().as_str(), Some("race"));
                assert_eq!(v.get("space").unwrap().as_str(), Some("shared"));
                assert!(v.get("fix").unwrap().as_str().is_some());
                assert!(v.get("count").unwrap().as_u64().is_some());
            }
            Some("racecheck") => summary = Some(v),
            _ => {}
        }
    }
    assert_eq!(
        hazard_lines as usize,
        rep.records.len(),
        "one line per site"
    );
    let summary = summary.expect("summary line present");
    assert_eq!(summary.get("hazards").unwrap().as_u64(), Some(rep.total));
    for (key, total) in [
        ("shared_races", rep.shared_races),
        ("global_races", rep.global_races),
        ("collective", rep.collective),
    ] {
        assert_eq!(summary.get(key).unwrap().as_u64(), Some(total), "{key}");
    }
    assert_eq!(
        summary.get("distinct").unwrap().as_u64(),
        Some(rep.records.len() as u64)
    );
}
