//! Kernel IR: a small register VM with structured control flow.
//!
//! Kernels are written as trees of [`Stmt`] (straight-line ops, `If`,
//! `While`) over per-lane registers, then *flattened* to a linear
//! instruction list with explicit branches. The flattened form is what
//! the warp executors run: divergence, reconvergence and the Volta
//! independent-thread-scheduling semantics all operate on flat PCs.
//!
//! Registers hold raw 32-bit values; integer ops treat them as `i32`/
//! `u32`, float ops bit-cast to `f32` — exactly like a real register
//! file.

/// Register index (per lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// How a warp-level primitive obtains its participation mask (§2.1: the
/// new `_sync` intrinsics take an explicit `mask` argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskSpec {
    /// Compile-time constant mask (e.g. `0xffffffff`, or the paper's
    /// problematic `0xffff`).
    Const(u32),
    /// Mask taken from a register, typically written by
    /// [`Op::ActiveMask`] just before the call — the runtime-correct
    /// pattern the paper recommends.
    FromReg(Reg),
}

/// Full-warp constant mask.
pub const FULL_MASK: u32 = 0xffff_ffff;

/// Primitive operations (one per executed instruction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `dst ← imm` (integer immediate).
    ConstI(Reg, i32),
    /// `dst ← imm` (float immediate).
    ConstF(Reg, f32),
    /// `dst ← src`.
    Mov(Reg, Reg),
    /// `dst ← lane index (0..32)`.
    LaneId(Reg),
    /// `dst ← warp index within the block`.
    WarpId(Reg),
    /// `dst ← global thread index within the block`.
    ThreadId(Reg),
    /// `dst ← block index within the grid`.
    BlockId(Reg),
    /// `dst ← number of blocks in the grid`.
    GridDim(Reg),

    // Integer ALU.
    AddI(Reg, Reg, Reg),
    SubI(Reg, Reg, Reg),
    MulI(Reg, Reg, Reg),
    AndI(Reg, Reg, Reg),
    OrI(Reg, Reg, Reg),
    XorI(Reg, Reg, Reg),
    ShlI(Reg, Reg, Reg),
    ShrI(Reg, Reg, Reg),
    /// `dst ← (a < b)` signed.
    LtI(Reg, Reg, Reg),
    /// `dst ← (a == b)`.
    EqI(Reg, Reg, Reg),

    // FP32 ALU.
    AddF(Reg, Reg, Reg),
    SubF(Reg, Reg, Reg),
    MulF(Reg, Reg, Reg),
    /// `dst ← a·b + c`.
    FmaF(Reg, Reg, Reg, Reg),
    /// `dst ← 1/√a` (SFU).
    RsqrtF(Reg, Reg),
    /// `dst ← (a < b)` as integer 0/1.
    LtF(Reg, Reg, Reg),

    // Memory.
    /// `dst ← shared[addr]` (addr in 32-bit words).
    LdShared(Reg, Reg),
    /// `shared[addr] ← val`.
    StShared(Reg, Reg),
    /// `dst ← global[addr]`.
    LdGlobal(Reg, Reg),
    /// `global[addr] ← val`.
    StGlobal(Reg, Reg),
    /// `dst ← old; global[addr] += val` (atomic).
    AtomicAddGlobal(Reg, Reg, Reg),

    // Warp primitives (the `_sync` family of §2.1).
    /// `dst ← activemask()`: bitmask of lanes currently converged with
    /// the caller.
    ActiveMask(Reg),
    /// `dst ← shfl_sync(mask, val, src_lane)`.
    Shfl(Reg, Reg, Reg, MaskSpec),
    /// `dst ← shfl_xor_sync(mask, val, lane^xor_val)`.
    ShflXor(Reg, Reg, u32, MaskSpec),
    /// `dst ← shfl_up_sync(mask, val, delta)` (undefined lanes keep own
    /// value).
    ShflUp(Reg, Reg, u32, MaskSpec),
    /// `dst ← shfl_down_sync(mask, val, delta)` (undefined lanes keep own
    /// value).
    ShflDown(Reg, Reg, u32, MaskSpec),
    /// `dst ← ballot_sync(mask, pred)`.
    Ballot(Reg, Reg, MaskSpec),
    /// `dst ← all_sync(mask, pred)`: 1 when every participating lane's
    /// predicate is non-zero.
    VoteAll(Reg, Reg, MaskSpec),
    /// `dst ← any_sync(mask, pred)`: 1 when any participating lane's
    /// predicate is non-zero.
    VoteAny(Reg, Reg, MaskSpec),
    /// `__syncwarp(mask)`.
    SyncWarp(MaskSpec),
    /// `__syncthreads()`.
    SyncThreads,
    /// Grid-wide barrier via Cooperative Groups `grid.sync()`.
    GridSync,
}

/// Structured statement tree.
#[derive(Clone, Debug)]
pub enum Stmt {
    Op(Op),
    /// Execute `then` where `cond != 0`, `els` elsewhere.
    If {
        cond: Reg,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    /// `loop { pre; if cond == 0 break; body }`.
    While {
        pre: Vec<Stmt>,
        cond: Reg,
        body: Vec<Stmt>,
    },
}

/// Flattened instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Inst {
    Op(Op),
    /// Jump to `target` for lanes where `cond == 0`; fall through
    /// otherwise.
    BranchIfZero {
        cond: Reg,
        target: usize,
    },
    /// Unconditional jump.
    Jump(usize),
    /// Program end.
    Halt,
}

/// A compiled kernel.
#[derive(Clone, Debug)]
pub struct Program {
    pub insts: Vec<Inst>,
    /// Registers used (sized register file).
    pub n_regs: usize,
}

impl Program {
    /// Flatten a statement tree into branch-target form.
    pub fn compile(stmts: &[Stmt]) -> Program {
        let mut insts = Vec::new();
        let mut max_reg = 0u8;
        flatten(stmts, &mut insts, &mut max_reg);
        insts.push(Inst::Halt);
        Program {
            insts,
            n_regs: max_reg as usize + 1,
        }
    }
}

fn track_reg(r: Reg, max: &mut u8) {
    if r.0 > *max {
        *max = r.0;
    }
}

fn track_op_regs(op: &Op, max: &mut u8) {
    use Op::*;
    match *op {
        ConstI(a, _)
        | ConstF(a, _)
        | LaneId(a)
        | WarpId(a)
        | ThreadId(a)
        | BlockId(a)
        | GridDim(a)
        | ActiveMask(a) => track_reg(a, max),
        Mov(a, b)
        | RsqrtF(a, b)
        | LdShared(a, b)
        | StShared(a, b)
        | LdGlobal(a, b)
        | StGlobal(a, b) => {
            track_reg(a, max);
            track_reg(b, max);
        }
        AddI(a, b, c)
        | SubI(a, b, c)
        | MulI(a, b, c)
        | AndI(a, b, c)
        | OrI(a, b, c)
        | XorI(a, b, c)
        | ShlI(a, b, c)
        | ShrI(a, b, c)
        | LtI(a, b, c)
        | EqI(a, b, c)
        | AddF(a, b, c)
        | SubF(a, b, c)
        | MulF(a, b, c)
        | LtF(a, b, c)
        | AtomicAddGlobal(a, b, c)
        | Shfl(a, b, c, _) => {
            track_reg(a, max);
            track_reg(b, max);
            track_reg(c, max);
        }
        FmaF(a, b, c, d) => {
            track_reg(a, max);
            track_reg(b, max);
            track_reg(c, max);
            track_reg(d, max);
        }
        ShflXor(a, b, _, m) | ShflUp(a, b, _, m) | ShflDown(a, b, _, m) => {
            track_reg(a, max);
            track_reg(b, max);
            if let MaskSpec::FromReg(r) = m {
                track_reg(r, max);
            }
        }
        Ballot(a, b, m) | VoteAll(a, b, m) | VoteAny(a, b, m) => {
            track_reg(a, max);
            track_reg(b, max);
            if let MaskSpec::FromReg(r) = m {
                track_reg(r, max);
            }
        }
        SyncWarp(m) => {
            if let MaskSpec::FromReg(r) = m {
                track_reg(r, max);
            }
        }
        SyncThreads | GridSync => {}
    }
}

fn flatten(stmts: &[Stmt], out: &mut Vec<Inst>, max_reg: &mut u8) {
    for s in stmts {
        match s {
            Stmt::Op(op) => {
                track_op_regs(op, max_reg);
                out.push(Inst::Op(*op));
            }
            Stmt::If { cond, then, els } => {
                track_reg(*cond, max_reg);
                let branch_at = out.len();
                out.push(Inst::Jump(0)); // placeholder
                flatten(then, out, max_reg);
                if els.is_empty() {
                    let end = out.len();
                    out[branch_at] = Inst::BranchIfZero {
                        cond: *cond,
                        target: end,
                    };
                } else {
                    let jump_at = out.len();
                    out.push(Inst::Jump(0)); // placeholder
                    let else_start = out.len();
                    flatten(els, out, max_reg);
                    let end = out.len();
                    out[branch_at] = Inst::BranchIfZero {
                        cond: *cond,
                        target: else_start,
                    };
                    out[jump_at] = Inst::Jump(end);
                }
            }
            Stmt::While { pre, cond, body } => {
                track_reg(*cond, max_reg);
                let loop_start = out.len();
                flatten(pre, out, max_reg);
                let branch_at = out.len();
                out.push(Inst::Jump(0)); // placeholder
                flatten(body, out, max_reg);
                out.push(Inst::Jump(loop_start));
                let end = out.len();
                out[branch_at] = Inst::BranchIfZero {
                    cond: *cond,
                    target: end,
                };
            }
        }
    }
}

/// PTX-flavoured mnemonic of one op, used by racecheck hazard reports
/// and trace lines.
pub fn op_mnemonic(op: &Op) -> &'static str {
    match op {
        Op::ConstI(..) => "mov.imm.s32",
        Op::ConstF(..) => "mov.imm.f32",
        Op::Mov(..) => "mov",
        Op::LaneId(..) => "mov.laneid",
        Op::WarpId(..) => "mov.warpid",
        Op::ThreadId(..) => "mov.tid",
        Op::BlockId(..) => "mov.ctaid",
        Op::GridDim(..) => "mov.nctaid",
        Op::AddI(..) => "add.s32",
        Op::SubI(..) => "sub.s32",
        Op::MulI(..) => "mul.s32",
        Op::AndI(..) => "and.b32",
        Op::OrI(..) => "or.b32",
        Op::XorI(..) => "xor.b32",
        Op::ShlI(..) => "shl.b32",
        Op::ShrI(..) => "shr.b32",
        Op::LtI(..) => "setp.lt.s32",
        Op::EqI(..) => "setp.eq.s32",
        Op::AddF(..) => "add.f32",
        Op::SubF(..) => "sub.f32",
        Op::MulF(..) => "mul.f32",
        Op::FmaF(..) => "fma.f32",
        Op::RsqrtF(..) => "rsqrt.f32",
        Op::LtF(..) => "setp.lt.f32",
        Op::LdShared(..) => "ld.shared",
        Op::StShared(..) => "st.shared",
        Op::LdGlobal(..) => "ld.global",
        Op::StGlobal(..) => "st.global",
        Op::AtomicAddGlobal(..) => "atom.global.add",
        Op::ActiveMask(..) => "activemask",
        Op::Shfl(..) => "shfl.idx.sync",
        Op::ShflXor(..) => "shfl.bfly.sync",
        Op::ShflUp(..) => "shfl.up.sync",
        Op::ShflDown(..) => "shfl.down.sync",
        Op::Ballot(..) => "vote.ballot.sync",
        Op::VoteAll(..) => "vote.all.sync",
        Op::VoteAny(..) => "vote.any.sync",
        Op::SyncWarp(..) => "bar.warp.sync",
        Op::SyncThreads => "bar.sync",
        Op::GridSync => "grid.sync",
    }
}

/// Issue cost (cycles) of one instruction — used by the micro-benchmark
/// cost accounting.
pub fn op_cost(inst: &Inst) -> u64 {
    match inst {
        Inst::Op(op) => match op {
            Op::RsqrtF(..) => 4,
            Op::LdShared(..) | Op::StShared(..) => 2,
            Op::LdGlobal(..) | Op::StGlobal(..) | Op::AtomicAddGlobal(..) => 8,
            Op::SyncWarp(_) => 4,
            Op::SyncThreads => 20,
            Op::GridSync => 400,
            _ => 1,
        },
        Inst::BranchIfZero { .. } | Inst::Jump(_) => 1,
        Inst::Halt => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_straight_line() {
        let p = Program::compile(&[
            Stmt::Op(Op::ConstI(Reg(0), 1)),
            Stmt::Op(Op::ConstI(Reg(1), 2)),
            Stmt::Op(Op::AddI(Reg(2), Reg(0), Reg(1))),
        ]);
        assert_eq!(p.insts.len(), 4); // 3 ops + Halt
        assert_eq!(p.n_regs, 3);
        assert!(matches!(p.insts[3], Inst::Halt));
    }

    #[test]
    fn compile_if_without_else() {
        let p = Program::compile(&[Stmt::If {
            cond: Reg(0),
            then: vec![Stmt::Op(Op::ConstI(Reg(1), 7))],
            els: vec![],
        }]);
        // Branch, then-op, Halt.
        assert_eq!(p.insts.len(), 3);
        match p.insts[0] {
            Inst::BranchIfZero { cond, target } => {
                assert_eq!(cond, Reg(0));
                assert_eq!(target, 2); // past then-body
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn compile_if_else_targets() {
        let p = Program::compile(&[Stmt::If {
            cond: Reg(0),
            then: vec![Stmt::Op(Op::ConstI(Reg(1), 1))],
            els: vec![Stmt::Op(Op::ConstI(Reg(1), 2))],
        }]);
        // 0: branch→3 (else), 1: then, 2: jump→4, 3: else, 4: Halt
        assert_eq!(p.insts.len(), 5);
        assert_eq!(
            p.insts[0],
            Inst::BranchIfZero {
                cond: Reg(0),
                target: 3
            }
        );
        assert_eq!(p.insts[2], Inst::Jump(4));
    }

    #[test]
    fn compile_while_loops_back() {
        let p = Program::compile(&[Stmt::While {
            pre: vec![Stmt::Op(Op::LtI(Reg(1), Reg(0), Reg(2)))],
            cond: Reg(1),
            body: vec![Stmt::Op(Op::AddI(Reg(0), Reg(0), Reg(3)))],
        }]);
        // 0: pre, 1: branch→4, 2: body, 3: jump→0, 4: Halt
        assert_eq!(p.insts[3], Inst::Jump(0));
        assert_eq!(
            p.insts[1],
            Inst::BranchIfZero {
                cond: Reg(1),
                target: 4
            }
        );
    }

    #[test]
    fn register_count_covers_all_operands() {
        let p = Program::compile(&[Stmt::Op(Op::FmaF(Reg(9), Reg(1), Reg(2), Reg(3)))]);
        assert_eq!(p.n_regs, 10);
    }

    #[test]
    fn costs_order_sanely() {
        assert!(op_cost(&Inst::Op(Op::GridSync)) > op_cost(&Inst::Op(Op::SyncThreads)));
        assert!(
            op_cost(&Inst::Op(Op::SyncThreads))
                > op_cost(&Inst::Op(Op::SyncWarp(MaskSpec::Const(FULL_MASK))))
        );
        assert!(op_cost(&Inst::Op(Op::AddI(Reg(0), Reg(0), Reg(0)))) == 1);
    }
}
