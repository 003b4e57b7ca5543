//! Workspace-level racecheck integration: the full Table 2 configuration
//! sweep must be hazard-free in its shipped variants, hazard counters
//! must land in the telemetry registry, and hazard reports must embed in
//! the JSON-lines trace next to spans and counters.

use gothic::simt::{microbench, Grid, Op, Program, RacecheckConfig, Reg, Scheduler, Stmt};
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

/// A deliberately racy two-warp exchange (no `__syncthreads()`).
fn racy_block_program() -> Program {
    let (tid, val, n, addr, out, c1) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
    Program::compile(&[
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(n, 64)),
        Stmt::Op(Op::ConstI(c1, 1)),
        Stmt::Op(Op::ConstI(val, 3)),
        Stmt::Op(Op::MulI(val, tid, val)),
        Stmt::Op(Op::StShared(tid, val)),
        Stmt::Op(Op::SubI(addr, n, tid)),
        Stmt::Op(Op::SubI(addr, addr, c1)),
        Stmt::Op(Op::LdShared(out, addr)),
    ])
}

fn run_racy_block() -> gothic::simt::RacecheckReport {
    let p = racy_block_program();
    let mut g = Grid::new(1, 64, 64, 4, &p);
    let (_, rep) = g
        .run_racechecked(
            &p,
            Scheduler::Independent,
            1_000_000,
            RacecheckConfig::default(),
        )
        .unwrap();
    rep
}

#[test]
fn hazard_occurrences_land_in_the_counter_registry() {
    let _g = telemetry::sink::test_lock();
    telemetry::metrics::reset_all();
    telemetry::set_metrics_enabled(true);
    let rep = run_racy_block();
    telemetry::set_metrics_enabled(false);
    assert!(!rep.is_clean());
    let shared_hazards = telemetry::metrics::snapshot()
        .into_iter()
        .find(|(name, _)| *name == "simt.hazards.shared")
        .map(|(_, v)| v)
        .expect("counter registered");
    assert_eq!(
        shared_hazards, rep.total,
        "every occurrence is counted, not just distinct sites"
    );
    telemetry::metrics::reset_all();
}

#[test]
fn hazard_reports_embed_in_the_trace_stream() {
    let _g = telemetry::sink::test_lock();
    telemetry::metrics::reset_all();
    telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
    let rep = run_racy_block();
    let lines = telemetry::sink::drain_memory();
    telemetry::sink::shutdown();
    telemetry::metrics::reset_all();
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
    assert_eq!(
        summary.get("distinct").unwrap().as_u64(),
        Some(rep.records.len() as u64)
    );
}
