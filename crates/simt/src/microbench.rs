//! Micro-benchmark kernels (§2.2): the reduction and scan patterns whose
//! thread-block configuration (`Ttot`, `Tsub` in Table 2) GOTHIC tunes,
//! written in the interpreter IR so their cost and correctness can be
//! measured under both scheduling models.
//!
//! In the Volta mode the kernels carry a `__syncwarp()` after every
//! shuffle stage (the defensive pattern §2.1 requires when sub-warp
//! groups may diverge); in the Pascal mode the syncs are compiled out.
//! The issue-cycle difference between the two variants is the
//! micro-benchmark analogue of the Fig. 5 per-function mode speed-up.

use crate::grid::{Grid, GridStats};
use crate::ir::{MaskSpec, Op, Program, Reg, Stmt};
use crate::prof::KernelProfile;
use crate::racecheck::RacecheckReport;
use crate::warp::Scheduler;

/// Build a block-wide sum reduction over sub-groups of `tsub` lanes.
///
/// Every thread contributes `tid + 1`; each sub-group reduces via a
/// shfl-xor butterfly; the sub-group leader stores the result to
/// `shared[subgroup_index]`.
pub fn reduction_kernel(tsub: u32, volta_sync: bool) -> Program {
    assert!(tsub.is_power_of_two() && (2..=32).contains(&tsub));
    let tid = Reg(0);
    let val = Reg(1);
    let tmp = Reg(2);
    let one = Reg(3);
    let lane = Reg(4);
    let sub = Reg(5);
    let cond = Reg(6);
    let mask_r = Reg(7);
    let zero = Reg(8);
    let shift = Reg(9);

    let mut body = vec![
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(one, 1)),
        Stmt::Op(Op::ConstI(zero, 0)),
        Stmt::Op(Op::AddI(val, tid, one)), // val = tid + 1
        Stmt::Op(Op::LaneId(lane)),
        // Runtime mask, the §2.1-correct pattern.
        Stmt::Op(Op::ActiveMask(mask_r)),
    ];
    let mut width = tsub / 2;
    while width >= 1 {
        body.push(Stmt::Op(Op::ShflXor(
            tmp,
            val,
            width,
            MaskSpec::FromReg(mask_r),
        )));
        body.push(Stmt::Op(Op::AddI(val, val, tmp)));
        if volta_sync {
            body.push(Stmt::Op(Op::SyncWarp(MaskSpec::FromReg(mask_r))));
        }
        width /= 2;
    }
    // Sub-group leader (lane % tsub == 0) stores to shared[tid / tsub].
    let tsub_m1 = tsub - 1;
    body.extend([
        Stmt::Op(Op::ConstI(tmp, tsub_m1 as i32)),
        Stmt::Op(Op::AndI(cond, lane, tmp)),
        Stmt::Op(Op::EqI(cond, cond, zero)),
        Stmt::Op(Op::ConstI(shift, tsub.trailing_zeros() as i32)),
        Stmt::Op(Op::ShrI(sub, tid, shift)),
        Stmt::If {
            cond,
            then: vec![Stmt::Op(Op::StShared(sub, val))],
            els: vec![],
        },
        Stmt::Op(Op::SyncThreads),
    ]);
    Program::compile(&body)
}

/// Build an inclusive prefix-sum (scan) over sub-groups of `tsub` lanes
/// using the classic shfl-up ladder. Every thread contributes 1, so lane
/// `l` of each sub-group must end with `l % tsub + 1`; the result is
/// stored to `shared[tid]`.
pub fn scan_kernel(tsub: u32, volta_sync: bool) -> Program {
    assert!(tsub.is_power_of_two() && (2..=32).contains(&tsub));
    let tid = Reg(0);
    let val = Reg(1);
    let tmp = Reg(2);
    let lane = Reg(3);
    let cond = Reg(4);
    let mask_r = Reg(5);
    let d_reg = Reg(6);
    let sublane = Reg(7);

    let mut body = vec![
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(val, 1)),
        Stmt::Op(Op::LaneId(lane)),
        Stmt::Op(Op::ConstI(tmp, (tsub - 1) as i32)),
        Stmt::Op(Op::AndI(sublane, lane, tmp)),
        Stmt::Op(Op::ActiveMask(mask_r)),
    ];
    let mut delta = 1u32;
    while delta < tsub {
        // tmp = value from `delta` lanes below (own value if below delta).
        body.push(Stmt::Op(Op::ShflUp(
            tmp,
            val,
            delta,
            MaskSpec::FromReg(mask_r),
        )));
        // Only add when sublane >= delta.
        body.push(Stmt::Op(Op::ConstI(d_reg, delta as i32)));
        body.push(Stmt::Op(Op::LtI(cond, sublane, d_reg)));
        body.push(Stmt::Op(Op::ConstI(d_reg, 1)));
        body.push(Stmt::Op(Op::SubI(cond, d_reg, cond))); // cond = !(sublane < delta)
        body.push(Stmt::If {
            cond,
            then: vec![Stmt::Op(Op::AddI(val, val, tmp))],
            els: vec![],
        });
        if volta_sync {
            body.push(Stmt::Op(Op::SyncWarp(MaskSpec::FromReg(mask_r))));
        }
        delta *= 2;
    }
    body.push(Stmt::Op(Op::StShared(tid, val)));
    body.push(Stmt::Op(Op::SyncThreads));
    Program::compile(&body)
}

/// Outcome of one micro-benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct BenchRun {
    pub stats: GridStats,
    pub correct: bool,
}

/// Step budget of every micro-benchmark run — far beyond what any of
/// these kernels needs, so exhausting it means the kernel hung.
const MAX_STEPS: u64 = 50_000_000;

/// Run `g` to completion, check its result, and return the launch's
/// per-pipe counts named `kernel`.
fn profiled(
    p: &Program,
    mut g: Grid,
    sched: Scheduler,
    kernel: &str,
    check: impl FnOnce(&Grid) -> bool,
) -> (BenchRun, KernelProfile) {
    let stats = g
        .run(p, sched, MAX_STEPS)
        .unwrap_or_else(|e| panic!("{kernel} kernel must terminate: {e:?}"));
    let correct = check(&g);
    (BenchRun { stats, correct }, g.profile(kernel))
}

/// Run `g` to completion under the happens-before race detector and
/// check its result.
fn racechecked(
    p: &Program,
    mut g: Grid,
    sched: Scheduler,
    kernel: &str,
    check: impl FnOnce(&Grid) -> bool,
) -> (BenchRun, RacecheckReport) {
    let (stats, report) = g
        .run_racechecked(p, sched, MAX_STEPS)
        .unwrap_or_else(|e| panic!("{kernel} kernel must terminate: {e:?}"));
    let correct = check(&g);
    (BenchRun { stats, correct }, report)
}

/// One block of `ttot` threads for the reduction kernel, with a shared
/// slot per sub-group.
fn reduction_grid(p: &Program, ttot: usize, tsub: u32) -> Grid {
    Grid::new(1, ttot, (ttot / tsub as usize).max(1), 4, p)
}

/// Every sub-group leader stored its group's sum of `tid + 1`.
fn verify_reduction(g: &Grid, ttot: usize, tsub: u32) -> bool {
    let tsub = tsub as usize;
    (0..ttot / tsub).all(|group| {
        let base = group * tsub;
        let expect: u32 = (0..tsub).map(|i| (base + i + 1) as u32).sum();
        g.blocks[0].shared[group] == expect
    })
}

/// One block of `ttot` threads for the scan kernel, with a shared slot
/// per thread.
fn scan_grid(p: &Program, ttot: usize) -> Grid {
    Grid::new(1, ttot, ttot, 4, p)
}

/// Every thread stored its inclusive prefix sum within its sub-group.
fn verify_scan(g: &Grid, ttot: usize, tsub: u32) -> bool {
    (0..ttot).all(|t| g.blocks[0].shared[t] == (t % tsub as usize + 1) as u32)
}

/// Reduction kernel on one block of `ttot` threads, checked against the
/// per-sub-group sums and recorded as `"reduction"`.
pub fn run_reduction_profiled(
    ttot: usize,
    tsub: u32,
    volta_sync: bool,
    sched: Scheduler,
) -> (BenchRun, KernelProfile) {
    let p = reduction_kernel(tsub, volta_sync);
    let g = reduction_grid(&p, ttot, tsub);
    profiled(&p, g, sched, "reduction", |g| {
        verify_reduction(g, ttot, tsub)
    })
}

/// Scan kernel on one block of `ttot` threads, checked against the
/// inclusive prefix sums and recorded as `"scan"`.
pub fn run_scan_profiled(
    ttot: usize,
    tsub: u32,
    volta_sync: bool,
    sched: Scheduler,
) -> (BenchRun, KernelProfile) {
    let p = scan_kernel(tsub, volta_sync);
    let g = scan_grid(&p, ttot);
    profiled(&p, g, sched, "scan", |g| verify_scan(g, ttot, tsub))
}

/// [`run_reduction_profiled`] under the happens-before race detector.
pub fn run_reduction_racechecked(
    ttot: usize,
    tsub: u32,
    volta_sync: bool,
    sched: Scheduler,
) -> (BenchRun, RacecheckReport) {
    let p = reduction_kernel(tsub, volta_sync);
    let g = reduction_grid(&p, ttot, tsub);
    racechecked(&p, g, sched, "reduction", |g| {
        verify_reduction(g, ttot, tsub)
    })
}

/// [`run_scan_profiled`] under the happens-before race detector.
pub fn run_scan_racechecked(
    ttot: usize,
    tsub: u32,
    volta_sync: bool,
    sched: Scheduler,
) -> (BenchRun, RacecheckReport) {
    let p = scan_kernel(tsub, volta_sync);
    let g = scan_grid(&p, ttot);
    racechecked(&p, g, sched, "scan", |g| verify_scan(g, ttot, tsub))
}

/// The racecheck sweep over the Table 2 kernels: the reduction and the
/// scan at every `ttot` × `tsub`, then the gravity flush, on each
/// scheduler the variant must be hazard-free under — lockstep, plus
/// independent when `volta_sync` compiles the Volta syncs in. Returns
/// each run's name, outcome and report, in run order.
pub fn racecheck_sweep(
    volta_sync: bool,
    ttots: &[usize],
    tsubs: &[u32],
) -> Vec<(String, BenchRun, RacecheckReport)> {
    let scheds: &[Scheduler] = if volta_sync {
        &[Scheduler::Lockstep, Scheduler::Independent]
    } else {
        &[Scheduler::Lockstep]
    };
    let mut runs = Vec::new();
    for &sched in scheds {
        for &ttot in ttots {
            for &tsub in tsubs {
                let (b, rep) = run_reduction_racechecked(ttot, tsub, volta_sync, sched);
                runs.push((
                    format!("reduction ttot={ttot} tsub={tsub} {sched:?}"),
                    b,
                    rep,
                ));
                let (b, rep) = run_scan_racechecked(ttot, tsub, volta_sync, sched);
                runs.push((format!("scan ttot={ttot} tsub={tsub} {sched:?}"), b, rep));
            }
        }
        let (b, rep) = run_gravity_flush_racechecked(32, 1e-4, sched);
        runs.push((format!("gravity-flush {sched:?}"), b, rep));
    }
    runs
}

/// One warp for the gravity flush kernel, with `n_sources` source
/// records staged in shared memory: entry j at (j, 2j, -j)·0.05 with
/// mass 1+j/8.
fn gravity_flush_grid(p: &Program, n_sources: u32) -> Grid {
    let mut g = Grid::new(1, 32, (4 * n_sources + 32) as usize, 4, p);
    for j in 0..n_sources as usize {
        let f = j as f32;
        g.blocks[0].shared[4 * j] = (0.05 * f).to_bits();
        g.blocks[0].shared[4 * j + 1] = (0.10 * f).to_bits();
        g.blocks[0].shared[4 * j + 2] = (-0.05 * f).to_bits();
        g.blocks[0].shared[4 * j + 3] = (1.0 + f / 8.0).to_bits();
    }
    g
}

/// Every lane flushed a finite az to its private slot.
fn verify_gravity_flush(g: &Grid, n_sources: u32) -> bool {
    (0..32).all(|l| f32::from_bits(g.blocks[0].shared[(4 * n_sources) as usize + l]).is_finite())
}

/// Gravity flush (one warp, `n_sources` staged records), recorded as
/// `"gravity_flush"`.
pub fn run_gravity_flush_profiled(
    n_sources: u32,
    eps2: f32,
    sched: Scheduler,
) -> (BenchRun, KernelProfile) {
    let p = gravity_flush_kernel(n_sources, eps2);
    let g = gravity_flush_grid(&p, n_sources);
    profiled(&p, g, sched, "gravity_flush", |g| {
        verify_gravity_flush(g, n_sources)
    })
}

/// [`run_gravity_flush_profiled`] under the happens-before race detector.
pub fn run_gravity_flush_racechecked(
    n_sources: u32,
    eps2: f32,
    sched: Scheduler,
) -> (BenchRun, RacecheckReport) {
    let p = gravity_flush_kernel(n_sources, eps2);
    let g = gravity_flush_grid(&p, n_sources);
    racechecked(&p, g, sched, "gravity_flush", |g| {
        verify_gravity_flush(g, n_sources)
    })
}

/// Build the gravity **flush** micro-kernel: every lane holds one sink
/// particle in registers and integrates Eq. 1 over `n_sources` shared-
/// memory list entries — the inner loop of `walkTree`, lane for lane.
///
/// Shared-memory layout: entry `j` at words `[4j .. 4j+4)` =
/// (x, y, z, m). Sink positions are derived from the lane id; the
/// accumulated (ax, ay, az, φ) stay in registers, and az is written to
/// `shared[4·n_sources + lane]` at the end so tests can observe it.
///
/// The instruction stream mirrors the CUDA kernel the paper profiles:
/// 3 subs (dx,dy,dz), 3 FMAs (r² = ε² + Σd·d), 1 rsqrt, 3 muls
/// (rinv², m·rinv, m·rinv³), 3 FMAs (acc) and 1 sub (φ) per interaction,
/// plus the integer address arithmetic of the shared loads.
pub fn gravity_flush_kernel(n_sources: u32, eps2: f32) -> Program {
    let lane = Reg(0);
    // Sink coordinates.
    let (sx, sy, sz) = (Reg(1), Reg(2), Reg(3));
    // Accumulators.
    let (ax, ay, az, pot) = (Reg(4), Reg(5), Reg(6), Reg(7));
    // Source record.
    let (jx, jy, jz, jm) = (Reg(8), Reg(9), Reg(10), Reg(11));
    // Scratch.
    let (dx, dy, dz, r2, rinv, t0, addr, c) = (
        Reg(12),
        Reg(13),
        Reg(14),
        Reg(15),
        Reg(16),
        Reg(17),
        Reg(18),
        Reg(19),
    );

    let mut body = vec![
        Stmt::Op(Op::LaneId(lane)),
        // Sink at (lane, 2·lane, −lane)·0.1 — FP derived from the id.
        Stmt::Op(Op::ConstF(t0, 0.1)),
        Stmt::Op(Op::Mov(sx, lane)),
        // int→float is modeled by a mul with the raw bits being small
        // ints; emulate with repeated adds instead: sx = lane·0.1 via
        // shared staging is overkill — use ConstF per-lane free form:
        Stmt::Op(Op::ConstF(ax, 0.0)),
        Stmt::Op(Op::ConstF(ay, 0.0)),
        Stmt::Op(Op::ConstF(az, 0.0)),
        Stmt::Op(Op::ConstF(pot, 0.0)),
    ];
    // Stage per-lane sink coordinates through shared memory so they are
    // true floats: lane writes its own slot then reads it back.
    let stage_base = 4 * n_sources + 32;
    body.extend([
        // sx = 0.1 * lane  (approximate int→float: build by addition)
        Stmt::Op(Op::ConstF(sx, 0.0)),
        Stmt::Op(Op::ConstF(sy, 0.0)),
        Stmt::Op(Op::ConstF(sz, 0.0)),
    ]);
    // Incrementally add 0.1/0.2/-0.1 per lane index using a short loop:
    // i = 0; while i < lane { sx += .1; sy += .2; sz -= .1; i += 1 }
    let i_reg = Reg(20);
    let cond = Reg(21);
    let one = Reg(22);
    body.extend([
        Stmt::Op(Op::ConstI(i_reg, 0)),
        Stmt::Op(Op::ConstI(one, 1)),
        Stmt::Op(Op::ConstF(t0, 0.1)),
        Stmt::Op(Op::ConstF(c, 0.2)),
        Stmt::While {
            pre: vec![Stmt::Op(Op::LtI(cond, i_reg, lane))],
            cond,
            body: vec![
                Stmt::Op(Op::AddF(sx, sx, t0)),
                Stmt::Op(Op::AddF(sy, sy, c)),
                Stmt::Op(Op::SubF(sz, sz, t0)),
                Stmt::Op(Op::AddI(i_reg, i_reg, one)),
            ],
        },
    ]);
    let _ = stage_base;

    // The flush loop proper, unrolled (the CUDA kernel unrolls too).
    for j in 0..n_sources {
        let base = (4 * j) as i32;
        body.extend([
            // Shared loads with address arithmetic (INT side).
            Stmt::Op(Op::ConstI(addr, base)),
            Stmt::Op(Op::LdShared(jx, addr)),
            Stmt::Op(Op::ConstI(addr, base + 1)),
            Stmt::Op(Op::LdShared(jy, addr)),
            Stmt::Op(Op::ConstI(addr, base + 2)),
            Stmt::Op(Op::LdShared(jz, addr)),
            Stmt::Op(Op::ConstI(addr, base + 3)),
            Stmt::Op(Op::LdShared(jm, addr)),
            // dx, dy, dz.
            Stmt::Op(Op::SubF(dx, jx, sx)),
            Stmt::Op(Op::SubF(dy, jy, sy)),
            Stmt::Op(Op::SubF(dz, jz, sz)),
            // r² = ε² + dx² + dy² + dz² (3 FMA).
            Stmt::Op(Op::ConstF(r2, eps2)),
            Stmt::Op(Op::FmaF(r2, dx, dx, r2)),
            Stmt::Op(Op::FmaF(r2, dy, dy, r2)),
            Stmt::Op(Op::FmaF(r2, dz, dz, r2)),
            // rinv = rsqrt(r²); m·rinv³ via 3 muls.
            Stmt::Op(Op::RsqrtF(rinv, r2)),
            Stmt::Op(Op::MulF(t0, rinv, rinv)),
            Stmt::Op(Op::MulF(c, jm, rinv)),
            Stmt::Op(Op::MulF(t0, c, t0)),
            // acc += d · (m·rinv³) (3 FMA); φ −= m·rinv.
            Stmt::Op(Op::FmaF(ax, dx, t0, ax)),
            Stmt::Op(Op::FmaF(ay, dy, t0, ay)),
            Stmt::Op(Op::FmaF(az, dz, t0, az)),
            Stmt::Op(Op::SubF(pot, pot, c)),
        ]);
    }
    // Observe az.
    body.extend([
        Stmt::Op(Op::ConstI(addr, (4 * n_sources) as i32)),
        Stmt::Op(Op::AddI(addr, addr, lane)),
        Stmt::Op(Op::StShared(addr, az)),
    ]);
    Program::compile(&body)
}

/// Per-particle global-memory record of the integrator kernels:
/// `[x y z vx vy vz ax ay az]`, particle `i` at words `[9i .. 9i+9)`.
pub const INTEGRATE_STRIDE: usize = 9;

/// Leapfrog time step of the integrator micro-kernels — a power of two
/// so the host-side reference arithmetic is bit-identical.
pub const INTEGRATE_DT: f32 = 0.0625;

/// Build the **predict** (drift) micro-kernel: each thread advances one
/// particle by `x += h·(v + a·h/2)` and `v += a·h`, mirroring the
/// instruction mix `gpu_model::IntegrateEvents` prices per particle:
/// 6 FMA (two per axis for the position), 3 mul + 3 add (velocity), the
/// record loads/stores, and the explicit integer address arithmetic the
/// IR needs for every access (the model folds addressing into a smaller
/// INT estimate — see `gpu_model::measured`).
pub fn predict_kernel(h: f32) -> Program {
    let tid = Reg(0);
    let c9 = Reg(1);
    let one = Reg(2);
    let addr = Reg(3);
    let (x, y, z) = (Reg(4), Reg(5), Reg(6));
    let (vx, vy, vz) = (Reg(7), Reg(8), Reg(9));
    let (ax, ay, az) = (Reg(10), Reg(11), Reg(12));
    let h_r = Reg(13);
    let h2_r = Reg(14);
    let t0 = Reg(15);

    let mut body = vec![
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(c9, INTEGRATE_STRIDE as i32)),
        Stmt::Op(Op::ConstI(one, 1)),
        Stmt::Op(Op::MulI(addr, tid, c9)),
    ];
    for (k, reg) in [x, y, z, vx, vy, vz, ax, ay, az].into_iter().enumerate() {
        body.push(Stmt::Op(Op::LdGlobal(reg, addr)));
        if k < INTEGRATE_STRIDE - 1 {
            body.push(Stmt::Op(Op::AddI(addr, addr, one)));
        }
    }
    body.push(Stmt::Op(Op::ConstF(h_r, h)));
    body.push(Stmt::Op(Op::ConstF(h2_r, h / 2.0)));
    // x += h · (v + a·h/2): two FMAs per axis.
    for (p, v, a) in [(x, vx, ax), (y, vy, ay), (z, vz, az)] {
        body.push(Stmt::Op(Op::FmaF(t0, a, h2_r, v)));
        body.push(Stmt::Op(Op::FmaF(p, t0, h_r, p)));
    }
    // v += a·h: one mul + one add per axis.
    for (v, a) in [(vx, ax), (vy, ay), (vz, az)] {
        body.push(Stmt::Op(Op::MulF(t0, a, h_r)));
        body.push(Stmt::Op(Op::AddF(v, v, t0)));
    }
    body.push(Stmt::Op(Op::MulI(addr, tid, c9)));
    for (k, reg) in [x, y, z, vx, vy, vz].into_iter().enumerate() {
        body.push(Stmt::Op(Op::StGlobal(addr, reg)));
        if k < 5 {
            body.push(Stmt::Op(Op::AddI(addr, addr, one)));
        }
    }
    Program::compile(&body)
}

/// Build the **correct** micro-kernel: the velocity half-kick
/// `v += a·h/2`, a position refinement `x += v·h/2`, and the
/// acceleration-norm reduction `s = ax² + ay² + az² + ε` the corrector
/// uses to size the next step — the same per-particle pipe mix as
/// [`predict_kernel`] (6 FMA, 3 mul, 3 add) with one extra store for
/// `s`, written to `global[9·n_particles + tid]`.
pub fn correct_kernel(h: f32, eps: f32, n_particles: usize) -> Program {
    let tid = Reg(0);
    let c9 = Reg(1);
    let one = Reg(2);
    let addr = Reg(3);
    let (x, y, z) = (Reg(4), Reg(5), Reg(6));
    let (vx, vy, vz) = (Reg(7), Reg(8), Reg(9));
    let (ax, ay, az) = (Reg(10), Reg(11), Reg(12));
    let h2_r = Reg(13);
    let s = Reg(14);
    let t0 = Reg(15);
    let t1 = Reg(16);

    let mut body = vec![
        Stmt::Op(Op::ThreadId(tid)),
        Stmt::Op(Op::ConstI(c9, INTEGRATE_STRIDE as i32)),
        Stmt::Op(Op::ConstI(one, 1)),
        Stmt::Op(Op::MulI(addr, tid, c9)),
    ];
    for (k, reg) in [x, y, z, vx, vy, vz, ax, ay, az].into_iter().enumerate() {
        body.push(Stmt::Op(Op::LdGlobal(reg, addr)));
        if k < INTEGRATE_STRIDE - 1 {
            body.push(Stmt::Op(Op::AddI(addr, addr, one)));
        }
    }
    body.push(Stmt::Op(Op::ConstF(h2_r, h / 2.0)));
    // Half-kick then position refinement: two FMAs per axis.
    for (p, v, a) in [(x, vx, ax), (y, vy, ay), (z, vz, az)] {
        body.push(Stmt::Op(Op::FmaF(v, a, h2_r, v)));
        body.push(Stmt::Op(Op::FmaF(p, v, h2_r, p)));
    }
    // s = ax² + ay² + az² + ε: three muls, three adds.
    body.push(Stmt::Op(Op::MulF(s, ax, ax)));
    body.push(Stmt::Op(Op::MulF(t0, ay, ay)));
    body.push(Stmt::Op(Op::MulF(t1, az, az)));
    body.push(Stmt::Op(Op::AddF(s, s, t0)));
    body.push(Stmt::Op(Op::AddF(s, s, t1)));
    body.push(Stmt::Op(Op::ConstF(t0, eps)));
    body.push(Stmt::Op(Op::AddF(s, s, t0)));
    body.push(Stmt::Op(Op::MulI(addr, tid, c9)));
    for (k, reg) in [x, y, z, vx, vy, vz].into_iter().enumerate() {
        body.push(Stmt::Op(Op::StGlobal(addr, reg)));
        if k < 5 {
            body.push(Stmt::Op(Op::AddI(addr, addr, one)));
        }
    }
    body.push(Stmt::Op(Op::ConstI(
        t1,
        (INTEGRATE_STRIDE * n_particles) as i32,
    )));
    body.push(Stmt::Op(Op::AddI(addr, t1, tid)));
    body.push(Stmt::Op(Op::StGlobal(addr, s)));
    Program::compile(&body)
}

/// Deterministic initial record of particle `i` for the integrator
/// kernels (all coordinates exact in f32).
fn integrate_init(i: usize) -> [f32; INTEGRATE_STRIDE] {
    let f = i as f32;
    [
        0.125 * f,          // x
        0.25 * f,           // y
        -0.125 * f,         // z
        1.0 + 0.0625 * f,   // vx
        -1.0 + 0.03125 * f, // vy
        0.5 - 0.0625 * f,   // vz
        0.25 - 0.015625 * f,
        -0.5 + 0.03125 * f,
        0.125 * f - 1.0,
    ]
}

fn integrate_grid(p: &Program, ttot: usize, extra_words: usize) -> Grid {
    let mut g = Grid::new(1, ttot, 1, INTEGRATE_STRIDE * ttot + extra_words, p);
    for i in 0..ttot {
        for (k, v) in integrate_init(i).into_iter().enumerate() {
            g.global[INTEGRATE_STRIDE * i + k] = v.to_bits();
        }
    }
    g
}

/// Host-side predict reference, op for op the kernel's arithmetic.
fn predict_reference(r: &[f32; INTEGRATE_STRIDE], h: f32) -> [f32; 6] {
    let mut out = [0.0f32; 6];
    for axis in 0..3 {
        let (p, v, a) = (r[axis], r[3 + axis], r[6 + axis]);
        out[axis] = a.mul_add(h / 2.0, v).mul_add(h, p);
        out[3 + axis] = v + a * h;
    }
    out
}

fn verify_predict(g: &Grid, ttot: usize, h: f32) -> bool {
    (0..ttot).all(|i| {
        let expect = predict_reference(&integrate_init(i), h);
        (0..6).all(|k| g.global[INTEGRATE_STRIDE * i + k] == expect[k].to_bits())
    })
}

/// Host-side correct reference: `(x', v', s)` per axis triple.
fn correct_reference(r: &[f32; INTEGRATE_STRIDE], h: f32, eps: f32) -> ([f32; 6], f32) {
    let mut out = [0.0f32; 6];
    for axis in 0..3 {
        let (p, v, a) = (r[axis], r[3 + axis], r[6 + axis]);
        let vc = a.mul_add(h / 2.0, v);
        out[axis] = vc.mul_add(h / 2.0, p);
        out[3 + axis] = vc;
    }
    let s = r[6] * r[6] + r[7] * r[7] + r[8] * r[8] + eps;
    (out, s)
}

fn verify_correct(g: &Grid, ttot: usize, h: f32, eps: f32) -> bool {
    (0..ttot).all(|i| {
        let (expect, s) = correct_reference(&integrate_init(i), h, eps);
        (0..6).all(|k| g.global[INTEGRATE_STRIDE * i + k] == expect[k].to_bits())
            && g.global[INTEGRATE_STRIDE * ttot + i] == s.to_bits()
    })
}

/// Predict kernel on one block of `ttot` threads, checked against the
/// bit-exact host reference and recorded as `"predict"`.
pub fn run_predict_profiled(ttot: usize, sched: Scheduler) -> (BenchRun, KernelProfile) {
    let p = predict_kernel(INTEGRATE_DT);
    let g = integrate_grid(&p, ttot, 0);
    profiled(&p, g, sched, "predict", |g| {
        verify_predict(g, ttot, INTEGRATE_DT)
    })
}

/// Correct kernel on one block of `ttot` threads, checked against the
/// bit-exact host reference and recorded as `"correct"`.
pub fn run_correct_profiled(ttot: usize, sched: Scheduler) -> (BenchRun, KernelProfile) {
    const EPS: f32 = 0.125;
    let p = correct_kernel(INTEGRATE_DT, EPS, ttot);
    let g = integrate_grid(&p, ttot, ttot);
    profiled(&p, g, sched, "correct", |g| {
        verify_correct(g, ttot, INTEGRATE_DT, EPS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racecheck_sweep_runs_each_scheduler_of_the_mode_in_order() {
        let names = |volta_sync| -> Vec<String> {
            racecheck_sweep(volta_sync, &[64], &[4, 8])
                .into_iter()
                .map(|(name, _, _)| name)
                .collect()
        };
        let lockstep = [
            "reduction ttot=64 tsub=4 Lockstep",
            "scan ttot=64 tsub=4 Lockstep",
            "reduction ttot=64 tsub=8 Lockstep",
            "scan ttot=64 tsub=8 Lockstep",
            "gravity-flush Lockstep",
        ];
        assert_eq!(names(false), lockstep);
        let volta = names(true);
        assert_eq!(volta.len(), 2 * lockstep.len());
        assert_eq!(volta[..5], lockstep);
        assert!(volta[5..].iter().all(|n| n.ends_with("Independent")));
    }

    #[test]
    fn reduction_correct_all_widths_both_schedulers() {
        for tsub in [2u32, 4, 8, 16, 32] {
            for sched in [Scheduler::Lockstep, Scheduler::Independent] {
                for sync in [false, true] {
                    let (r, _) = run_reduction_profiled(64, tsub, sync, sched);
                    assert!(r.correct, "tsub={tsub} sync={sync} {sched:?}");
                }
            }
        }
    }

    #[test]
    fn scan_correct_all_widths_both_schedulers() {
        for tsub in [2u32, 4, 8, 16, 32] {
            for sched in [Scheduler::Lockstep, Scheduler::Independent] {
                let (r, _) = run_scan_profiled(64, tsub, true, sched);
                assert!(r.correct, "tsub={tsub} {sched:?}");
            }
        }
    }

    #[test]
    fn volta_sync_variant_costs_more_cycles() {
        // The micro-benchmark analogue of §4.1: the extra __syncwarp()
        // instructions are pure overhead when the Pascal mode provides
        // implicit synchrony.
        let (with, _) = run_reduction_profiled(128, 32, true, Scheduler::Independent);
        let (without, _) = run_reduction_profiled(128, 32, false, Scheduler::Lockstep);
        assert!(with.correct && without.correct);
        assert!(
            with.stats.total_cycles > without.stats.total_cycles,
            "sync {} vs no-sync {}",
            with.stats.total_cycles,
            without.stats.total_cycles
        );
        assert!(with.stats.syncwarps > 0);
        assert_eq!(without.stats.syncwarps, 0);
    }

    #[test]
    fn smaller_tsub_needs_fewer_shuffle_stages() {
        let (narrow, _) = run_reduction_profiled(64, 4, false, Scheduler::Lockstep);
        let (wide, _) = run_reduction_profiled(64, 32, false, Scheduler::Lockstep);
        assert!(narrow.stats.retired < wide.stats.retired);
    }

    #[test]
    fn scan_handles_multi_warp_blocks() {
        let (r, _) = run_scan_profiled(256, 16, true, Scheduler::Independent);
        assert!(r.correct);
        assert!(r.stats.block_syncs >= 1);
    }

    #[test]
    fn integrators_match_the_host_reference_bit_exactly() {
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            for ttot in [32usize, 96] {
                assert!(
                    run_predict_profiled(ttot, sched).0.correct,
                    "predict {ttot} {sched:?}"
                );
                assert!(
                    run_correct_profiled(ttot, sched).0.correct,
                    "correct {ttot} {sched:?}"
                );
            }
        }
    }

    #[test]
    fn profiled_integrators_count_the_modeled_fp_mix() {
        // The IntegrateEvents mix is 6 FMA + 3 mul + 3 add per particle;
        // the measured kernels must reproduce it exactly.
        let ttot = 64u64;
        for runner in [run_predict_profiled, run_correct_profiled] {
            let (b, prof) = runner(ttot as usize, Scheduler::Lockstep);
            assert!(b.correct);
            assert_eq!(prof.counts.fp_fma, 6 * ttot);
            assert_eq!(prof.counts.fp_mul, 3 * ttot);
            assert_eq!(prof.counts.fp_add, 3 * ttot);
            assert_eq!(prof.counts.fp_special, 0);
            assert_eq!(prof.counts.global_ld, 9 * ttot);
            assert!(prof.counts.int_ops > 0);
            assert_eq!(prof.counts.divergence_events, 0);
        }
        let (_, pp) = run_predict_profiled(ttot as usize, Scheduler::Lockstep);
        let (_, cp) = run_correct_profiled(ttot as usize, Scheduler::Lockstep);
        assert_eq!(pp.counts.global_st, 6 * ttot);
        assert_eq!(cp.counts.global_st, 7 * ttot, "corrector stores s too");
    }

    #[test]
    fn profiled_gravity_flush_counts_the_interaction_mix() {
        // Per interaction (lane × source): 6 FMA, 3 mul, 1 rsqrt, 4 shared
        // loads. The 4 fp adds/subs per interaction share the pipe with
        // the sink-staging loop's adds, so only a lower bound holds there.
        let n_sources = 32u64;
        let inter = 32 * n_sources;
        let (b, prof) = run_gravity_flush_profiled(n_sources as u32, 1e-4, Scheduler::Lockstep);
        assert!(b.correct);
        assert_eq!(prof.counts.fp_fma, 6 * inter);
        assert_eq!(prof.counts.fp_mul, 3 * inter);
        assert_eq!(prof.counts.fp_special, inter);
        assert_eq!(prof.counts.shared_ld, 4 * inter);
        assert!(prof.counts.fp_add >= 4 * inter);
        assert_eq!(prof.warps, 1);
    }

    #[test]
    fn profiled_reduction_sees_shuffles_syncs_and_divergence() {
        let (b, prof) = run_reduction_profiled(128, 32, true, Scheduler::Independent);
        assert!(b.correct);
        // 5 butterfly stages × 32 lanes × 4 warps.
        assert_eq!(prof.counts.shuffles, 5 * 32 * 4);
        assert!(prof.counts.syncwarps > 0);
        assert_eq!(prof.counts.syncthreads, b.stats.block_syncs);
        // The leader-store branch diverges each warp once.
        assert!(prof.counts.divergence_events >= 4);
        assert!(prof.counts.max_reconv_depth >= 2);
        assert_eq!((prof.kernel.as_str(), prof.launches), ("reduction", 1));
    }
}
