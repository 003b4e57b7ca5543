//! Warp execution: 32 lanes, divergence, and the two scheduling models
//! of §2.1.
//!
//! * [`Scheduler::Lockstep`] — Pascal-and-earlier semantics (and the
//!   *Pascal mode* on Volta, `-gencode arch=compute_60,code=sm_70`): all
//!   lanes at the same PC execute together; divergent branches serialise
//!   and **reconverge at the immediate post-dominator** as soon as the
//!   branch ends (Fig. 20 of the Volta whitepaper, cited by the paper).
//!   Implemented as min-PC-first fragment scheduling with implicit
//!   merging of equal-PC fragments.
//!
//! * [`Scheduler::Independent`] — Volta independent thread scheduling:
//!   divergent fragments interleave and **never reconverge implicitly**;
//!   only an explicit `__syncwarp()` merges them (Figs. 22–23 of the
//!   whitepaper). Implemented as fewest-instructions-first scheduling
//!   with newest-fragment tie-breaking — a legal adversarial order in
//!   which the fragment that skipped a branch body runs ahead of the one
//!   executing it — with merging only at barrier release.
//!
//! The difference is observable: a producer/consumer exchange through
//! shared memory that is correct under Lockstep reads stale data under
//! Independent unless a `__syncwarp()` orders it — exactly the class of
//! bug the paper's porting recipes address.
//!
//! Each instruction family has one path. Loads, stores and atomics in
//! either space go through one helper that bounds-checks the address
//! against that space (its own [`ExecError`] when past the end) and
//! reports the lane's access to the detector. The four shuffles share
//! one arm that differs per op only in each lane's source lane, and the
//! three votes share one ballot over the participating lanes.

use crate::ir::{op_cost, op_mnemonic, Inst, MaskSpec, Op, Program, Reg};
use crate::prof::PipeCounts;
use crate::racecheck::{AccessKind, CollectiveSite, MemSpace, Racecheck, Tid};

/// Lanes per warp.
pub const WARP_SIZE: usize = 32;

/// Value written to registers whose contents are undefined under the CUDA
/// programming model (wrong shuffle mask, non-participating lane, …).
/// A recognisable constant makes the bugs deterministic and testable.
pub const POISON: u32 = 0xDEAD_BEEF;

/// Warp scheduling model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Implicit warp-synchronous execution (Pascal and earlier; Pascal
    /// mode on Volta).
    Lockstep,
    /// Volta independent thread scheduling (the CUDA default on CC 7.0).
    Independent,
}

/// What a blocked fragment is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waiting {
    SyncWarp(u32),
    SyncThreads,
    GridSync,
}

/// A convergent subset of lanes at a common PC.
#[derive(Clone, Copy, Debug)]
pub struct Fragment {
    pub pc: usize,
    pub mask: u32,
    pub waiting: Option<Waiting>,
    /// Instructions this fragment has executed (scheduling key).
    pub executed: u64,
    /// Creation order (scheduling tie-break: newest first).
    pub born: u64,
}

/// Execution environment handed to the warp by its block: memories,
/// geometry, and (opt-in) the happens-before checker.
pub struct ExecEnv<'a> {
    pub shared: &'a mut [u32],
    pub global: &'a mut [u32],
    pub block_id: u32,
    pub grid_dim: u32,
    /// When present, every memory access, collective and sync release is
    /// reported to the detector (see [`crate::racecheck`]).
    pub racecheck: Option<&'a mut Racecheck>,
}

impl<'a> ExecEnv<'a> {
    /// Environment without race checking.
    pub fn new(shared: &'a mut [u32], global: &'a mut [u32], block_id: u32, grid_dim: u32) -> Self {
        ExecEnv {
            shared,
            global,
            block_id,
            grid_dim,
            racecheck: None,
        }
    }

    /// Attach a happens-before checker.
    pub fn with_racecheck(mut self, rc: &'a mut Racecheck) -> Self {
        self.racecheck = Some(rc);
        self
    }
}

/// Execution errors (all represent CUDA undefined behaviour or resource
/// misuse that we surface deterministically).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    SharedOutOfBounds {
        addr: u32,
        size: usize,
    },
    GlobalOutOfBounds {
        addr: u32,
        size: usize,
    },
    /// All live fragments are blocked and none can be released — e.g. a
    /// `__syncwarp(mask)` whose mask names lanes that never arrive.
    Deadlock,
}

/// Outcome of one scheduling step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// One fragment advanced by one instruction.
    Advanced,
    /// Every live fragment is waiting on a block/grid barrier (the block
    /// must resolve it).
    AllWaiting,
    /// All lanes halted.
    Done,
}

/// One warp: register file, fragment list, statistics.
#[derive(Clone, Debug)]
pub struct Warp {
    pub warp_id: u32,
    n_regs: usize,
    /// Register file, `lane * n_regs + reg`.
    regs: Vec<u32>,
    pub frags: Vec<Fragment>,
    /// Issue cycles consumed (divergence serialisation shows up here).
    pub cycles: u64,
    /// Instructions retired (fragment-steps).
    pub retired: u64,
    /// Fragment creation counter (for scheduling tie-breaks).
    frag_births: u64,
    /// Per-pipe lane-operation counts of every retired instruction, plus
    /// the divergence events and reconvergence depth (see [`crate::prof`]).
    pub counts: PipeCounts,
}

impl Warp {
    /// Fresh warp with all 32 lanes converged at PC 0.
    pub fn new(warp_id: u32, program: &Program) -> Self {
        Warp {
            warp_id,
            n_regs: program.n_regs,
            regs: vec![0; WARP_SIZE * program.n_regs],
            frags: vec![Fragment {
                pc: 0,
                mask: u32::MAX,
                waiting: None,
                executed: 0,
                born: 0,
            }],
            cycles: 0,
            retired: 0,
            frag_births: 0,
            counts: PipeCounts::default(),
        }
    }

    /// Read lane register.
    #[inline]
    pub fn reg(&self, lane: usize, r: Reg) -> u32 {
        self.regs[lane * self.n_regs + r.0 as usize]
    }

    /// Write lane register.
    #[inline]
    pub fn set_reg(&mut self, lane: usize, r: Reg, v: u32) {
        self.regs[lane * self.n_regs + r.0 as usize] = v;
    }

    /// True when no fragments remain (all lanes reached `Halt`).
    pub fn is_done(&self) -> bool {
        self.frags.is_empty()
    }

    /// Lanes of `frag_mask` as an iterator.
    fn lanes(mask: u32) -> impl Iterator<Item = usize> {
        (0..WARP_SIZE).filter(move |&l| mask & (1 << l) != 0)
    }

    fn resolve_mask(&self, spec: MaskSpec, frag_mask: u32) -> u32 {
        match spec {
            MaskSpec::Const(m) => m,
            MaskSpec::FromReg(r) => {
                // Convention: the mask register holds the same value in
                // every participating lane; read it from the lowest one.
                let lane = Self::lanes(frag_mask).next().unwrap_or(0);
                self.reg(lane, r)
            }
        }
    }

    /// Pick the next runnable fragment per the scheduling policy. Under
    /// Lockstep, equal-PC runnable fragments are merged first (implicit
    /// reconvergence).
    fn select_fragment(&mut self, sched: Scheduler) -> Option<usize> {
        if sched == Scheduler::Lockstep {
            self.merge_equal_pc_runnable();
        }
        let mut best: Option<usize> = None;
        for (i, f) in self.frags.iter().enumerate() {
            if f.waiting.is_some() {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let cur = &self.frags[b];
                    let better = match sched {
                        Scheduler::Lockstep => f.pc < cur.pc,
                        // Fewest-executed first; newest fragment on ties —
                        // the fragment that skipped a branch body overtakes
                        // the one still executing it.
                        Scheduler::Independent => {
                            (f.executed, std::cmp::Reverse(f.born))
                                < (cur.executed, std::cmp::Reverse(cur.born))
                        }
                    };
                    if better {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    fn merge_equal_pc_runnable(&mut self) {
        let mut i = 0;
        while i < self.frags.len() {
            let mut j = i + 1;
            while j < self.frags.len() {
                if self.frags[i].waiting.is_none()
                    && self.frags[j].waiting.is_none()
                    && self.frags[i].pc == self.frags[j].pc
                {
                    let m = self.frags[j].mask;
                    let e = self.frags[j].executed;
                    self.frags[i].mask |= m;
                    self.frags[i].executed = self.frags[i].executed.max(e);
                    self.frags.remove(j);
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }

    /// Release any `__syncwarp` groups whose full mask has arrived; merge
    /// released fragments that share a PC. Returns the arrived lane mask
    /// of every group released (each is a happens-before join for the
    /// racecheck layer).
    fn try_release_syncwarp(&mut self) -> Vec<u32> {
        // Collect arrival masks per barrier mask value.
        let mut released: Vec<u32> = Vec::new();
        let masks: Vec<u32> = self
            .frags
            .iter()
            .filter_map(|f| match f.waiting {
                Some(Waiting::SyncWarp(m)) => Some(m),
                _ => None,
            })
            .collect();
        for m in masks {
            let arrived: u32 = self
                .frags
                .iter()
                .filter(|f| f.waiting == Some(Waiting::SyncWarp(m)))
                .fold(0, |acc, f| acc | (f.mask & m));
            // Lanes of `m` that already halted can never arrive; treat the
            // live subset as the requirement (CUDA: exited lanes are
            // implicitly excluded from barrier masks).
            let live: u32 = self.frags.iter().fold(0, |acc, f| acc | f.mask);
            if arrived == m & live && arrived != 0 {
                for f in &mut self.frags {
                    if f.waiting == Some(Waiting::SyncWarp(m)) {
                        f.waiting = None;
                    }
                }
                released.push(arrived);
            }
        }
        if !released.is_empty() {
            self.merge_equal_pc_runnable();
        }
        released
    }

    /// Report released `__syncwarp` groups to the detector as join edges.
    fn report_syncwarp_releases(&self, env: &mut ExecEnv<'_>, released: &[u32]) {
        if let Some(rc) = env.racecheck.as_deref_mut() {
            for &m in released {
                rc.on_syncwarp_release(env.block_id, self.warp_id, m);
            }
        }
    }

    /// Advance one fragment by one instruction.
    pub fn step(
        &mut self,
        program: &Program,
        sched: Scheduler,
        env: &mut ExecEnv<'_>,
    ) -> Result<StepOutcome, ExecError> {
        if self.is_done() {
            return Ok(StepOutcome::Done);
        }
        let Some(fi) = self.select_fragment(sched) else {
            // Everything is waiting. Syncwarp barriers we can resolve
            // ourselves; block/grid barriers belong to the caller.
            let released = self.try_release_syncwarp();
            if !released.is_empty() {
                self.report_syncwarp_releases(env, &released);
                return Ok(StepOutcome::Advanced);
            }
            let all_block_level = self
                .frags
                .iter()
                .all(|f| matches!(f.waiting, Some(Waiting::SyncThreads | Waiting::GridSync)));
            return if all_block_level {
                Ok(StepOutcome::AllWaiting)
            } else {
                Err(ExecError::Deadlock)
            };
        };

        let frag = self.frags[fi];
        let inst = program.insts[frag.pc];
        self.cycles += op_cost(&inst);
        self.retired += 1;
        self.frags[fi].executed += 1;
        self.counts.count_inst(&inst, frag.mask.count_ones() as u64);

        match inst {
            Inst::Halt => {
                self.frags.remove(fi);
            }
            Inst::Jump(t) => {
                self.frags[fi].pc = t;
            }
            Inst::BranchIfZero { cond, target } => {
                let mut zero_mask = 0u32;
                for lane in Self::lanes(frag.mask) {
                    if self.reg(lane, cond) == 0 {
                        zero_mask |= 1 << lane;
                    }
                }
                let fall_mask = frag.mask & !zero_mask;
                if zero_mask == 0 {
                    self.frags[fi].pc += 1;
                } else if fall_mask == 0 {
                    self.frags[fi].pc = target;
                } else {
                    // Divergence: split the fragment.
                    self.frags[fi].mask = fall_mask;
                    self.frags[fi].pc += 1;
                    self.frag_births += 1;
                    let executed = self.frags[fi].executed;
                    self.frags.push(Fragment {
                        pc: target,
                        mask: zero_mask,
                        waiting: None,
                        executed,
                        born: self.frag_births,
                    });
                    let c = &mut self.counts;
                    c.divergence_events += 1;
                    c.max_reconv_depth = c.max_reconv_depth.max(self.frags.len() as u64);
                }
            }
            Inst::Op(op) => {
                self.exec_op(fi, op, env)?;
            }
        }
        Ok(StepOutcome::Advanced)
    }

    /// Racecheck call-site descriptor for a collective at `pc`.
    fn site(&self, block: u32, pc: usize, op: &Op) -> CollectiveSite {
        CollectiveSite {
            block,
            warp: self.warp_id,
            pc,
            op: op_mnemonic(op),
        }
    }

    /// The word lane `lane` addresses through register `a` in the memory
    /// `op` touches, with the access reported to the detector; that
    /// memory's own bounds error when the address is past its end.
    fn access<'e>(
        &self,
        env: &'e mut ExecEnv<'_>,
        lane: usize,
        a: Reg,
        pc: usize,
        op: &Op,
        kind: AccessKind,
    ) -> Result<&'e mut u32, ExecError> {
        let addr = self.reg(lane, a);
        let block = env.block_id;
        let (space, mem) = match op {
            Op::LdShared(..) | Op::StShared(..) => (MemSpace::Shared { block }, &mut *env.shared),
            _ => (MemSpace::Global, &mut *env.global),
        };
        let size = mem.len();
        let Some(word) = mem.get_mut(addr as usize) else {
            return Err(match space {
                MemSpace::Shared { .. } => ExecError::SharedOutOfBounds { addr, size },
                MemSpace::Global => ExecError::GlobalOutOfBounds { addr, size },
            });
        };
        if let Some(rc) = env.racecheck.as_deref_mut() {
            let t = Tid {
                block,
                warp: self.warp_id,
                lane: lane as u32,
            };
            rc.on_access(t, space, addr, pc, op_mnemonic(op), kind);
        }
        Ok(word)
    }

    /// Participation-mask check for shuffles/votes/ballots.
    fn trace_collective(&self, env: &mut ExecEnv<'_>, pc: usize, op: &Op, exec_mask: u32, pm: u32) {
        if let Some(rc) = env.racecheck.as_deref_mut() {
            rc.on_collective(self.site(env.block_id, pc, op), exec_mask, pm);
        }
    }

    fn exec_op(&mut self, fi: usize, op: Op, env: &mut ExecEnv<'_>) -> Result<(), ExecError> {
        let frag = self.frags[fi];
        let mask = frag.mask;
        use Op::*;
        match op {
            ConstI(d, v) => self.lane_map(mask, |w, l| w.set_reg(l, d, v as u32)),
            ConstF(d, v) => self.lane_map(mask, |w, l| w.set_reg(l, d, v.to_bits())),
            Mov(d, s) => self.lane_map(mask, |w, l| {
                let v = w.reg(l, s);
                w.set_reg(l, d, v);
            }),
            LaneId(d) => self.lane_map(mask, |w, l| w.set_reg(l, d, l as u32)),
            WarpId(d) => {
                let id = self.warp_id;
                self.lane_map(mask, |w, l| w.set_reg(l, d, id));
            }
            ThreadId(d) => {
                let base = self.warp_id * WARP_SIZE as u32;
                self.lane_map(mask, |w, l| w.set_reg(l, d, base + l as u32));
            }
            BlockId(d) => {
                let id = env.block_id;
                self.lane_map(mask, |w, l| w.set_reg(l, d, id));
            }
            GridDim(d) => {
                let gd = env.grid_dim;
                self.lane_map(mask, |w, l| w.set_reg(l, d, gd));
            }
            AddI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x.wrapping_add(y)),
            SubI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x.wrapping_sub(y)),
            MulI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x.wrapping_mul(y)),
            AndI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x & y),
            OrI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x | y),
            XorI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x ^ y),
            ShlI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x.wrapping_shl(y)),
            ShrI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| x.wrapping_shr(y)),
            LtI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| ((x as i32) < (y as i32)) as u32),
            EqI(d, a, b) => self.bin_i(mask, d, a, b, |x, y| (x == y) as u32),
            AddF(d, a, b) => self.bin_f(mask, d, a, b, |x, y| x + y),
            SubF(d, a, b) => self.bin_f(mask, d, a, b, |x, y| x - y),
            MulF(d, a, b) => self.bin_f(mask, d, a, b, |x, y| x * y),
            LtF(d, a, b) => self.bin_i(mask, d, a, b, |x, y| {
                (f32::from_bits(x) < f32::from_bits(y)) as u32
            }),
            FmaF(d, a, b, c) => self.lane_map(mask, |w, l| {
                let x = f32::from_bits(w.reg(l, a));
                let y = f32::from_bits(w.reg(l, b));
                let z = f32::from_bits(w.reg(l, c));
                w.set_reg(l, d, x.mul_add(y, z).to_bits());
            }),
            RsqrtF(d, a) => self.lane_map(mask, |w, l| {
                let x = f32::from_bits(w.reg(l, a));
                w.set_reg(l, d, (1.0 / x.sqrt()).to_bits());
            }),
            LdShared(d, a) | LdGlobal(d, a) => {
                for l in Self::lanes(mask) {
                    let v = *self.access(env, l, a, frag.pc, &op, AccessKind::Read)?;
                    self.set_reg(l, d, v);
                }
            }
            StShared(a, s) | StGlobal(a, s) => {
                for l in Self::lanes(mask) {
                    let v = self.reg(l, s);
                    *self.access(env, l, a, frag.pc, &op, AccessKind::Write)? = v;
                }
            }
            AtomicAddGlobal(d, a, s) => {
                for l in Self::lanes(mask) {
                    let v = self.reg(l, s);
                    let word = self.access(env, l, a, frag.pc, &op, AccessKind::Atomic)?;
                    let old = *word;
                    *word = old.wrapping_add(v);
                    self.set_reg(l, d, old);
                }
            }
            ActiveMask(d) => {
                // Returns exactly the converged lanes — the paper's
                // recommended runtime mask source (§2.1).
                self.lane_map(mask, |w, l| w.set_reg(l, d, mask));
            }
            Shfl(d, val, _, m)
            | ShflXor(d, val, _, m)
            | ShflUp(d, val, _, m)
            | ShflDown(d, val, _, m) => {
                let pm = self.resolve_mask(m, mask);
                self.trace_collective(env, frag.pc, &op, mask, pm);
                let snapshot: [u32; WARP_SIZE] = std::array::from_fn(|l| self.reg(l, val));
                for l in Self::lanes(mask) {
                    // Each lane's source lane, or `None` where a shift
                    // runs past the warp's edge and the lane keeps its own
                    // value.
                    let src = match op {
                        Shfl(_, _, src_lane, _) => Some(self.reg(l, src_lane) as usize % WARP_SIZE),
                        ShflXor(_, _, lanemask, _) => Some(l ^ (lanemask as usize % WARP_SIZE)),
                        ShflUp(_, _, delta, _) => l.checked_sub(delta as usize),
                        ShflDown(_, _, delta, _) => {
                            Some(l + delta as usize).filter(|&s| s < WARP_SIZE)
                        }
                        _ => unreachable!("not a shuffle"),
                    };
                    let out = match src {
                        _ if pm & (1 << l) == 0 => POISON,
                        None => snapshot[l],
                        Some(s) if pm & mask & (1 << s) != 0 => snapshot[s],
                        Some(_) => POISON,
                    };
                    self.set_reg(l, d, out);
                }
            }
            VoteAll(d, pred, m) | VoteAny(d, pred, m) | Ballot(d, pred, m) => {
                let pm = self.resolve_mask(m, mask);
                self.trace_collective(env, frag.pc, &op, mask, pm);
                let part = mask & pm;
                let bits = Self::lanes(part)
                    .filter(|&l| self.reg(l, pred) != 0)
                    .fold(0u32, |b, l| b | 1 << l);
                let v = match op {
                    VoteAll(..) => (bits == part) as u32,
                    VoteAny(..) => (bits != 0) as u32,
                    _ => bits,
                };
                for l in Self::lanes(mask) {
                    self.set_reg(l, d, if pm & (1 << l) != 0 { v } else { POISON });
                }
            }
            SyncWarp(m) => {
                let pm = self.resolve_mask(m, mask);
                if let Some(rc) = env.racecheck.as_deref_mut() {
                    rc.on_syncwarp_exec(self.site(env.block_id, frag.pc, &op), mask, pm);
                }
                self.frags[fi].waiting = Some(Waiting::SyncWarp(pm));
                self.frags[fi].pc += 1;
                let released = self.try_release_syncwarp();
                self.report_syncwarp_releases(env, &released);
                return Ok(());
            }
            SyncThreads => {
                self.frags[fi].waiting = Some(Waiting::SyncThreads);
                self.frags[fi].pc += 1;
                return Ok(());
            }
            GridSync => {
                self.frags[fi].waiting = Some(Waiting::GridSync);
                self.frags[fi].pc += 1;
                return Ok(());
            }
        }
        self.frags[fi].pc += 1;
        Ok(())
    }

    #[inline]
    fn lane_map(&mut self, mask: u32, mut f: impl FnMut(&mut Self, usize)) {
        for l in Self::lanes(mask) {
            f(self, l);
        }
    }

    #[inline]
    fn bin_i(&mut self, mask: u32, d: Reg, a: Reg, b: Reg, f: impl Fn(u32, u32) -> u32) {
        for l in Self::lanes(mask) {
            let v = f(self.reg(l, a), self.reg(l, b));
            self.set_reg(l, d, v);
        }
    }

    #[inline]
    fn bin_f(&mut self, mask: u32, d: Reg, a: Reg, b: Reg, f: impl Fn(f32, f32) -> f32) {
        for l in Self::lanes(mask) {
            let v = f(
                f32::from_bits(self.reg(l, a)),
                f32::from_bits(self.reg(l, b)),
            );
            self.set_reg(l, d, v.to_bits());
        }
    }

    /// Release fragments waiting at block/grid barriers (called by the
    /// block once the barrier condition is met). Merges equal-PC
    /// fragments — this is also how *reconvergence via syncthreads*
    /// happens under independent scheduling.
    pub fn release_barrier(&mut self, kind: Waiting) {
        for f in &mut self.frags {
            if f.waiting == Some(kind) {
                f.waiting = None;
            }
        }
        self.merge_equal_pc_runnable();
    }

    /// True when every live fragment waits on `kind`.
    pub fn all_waiting_on(&self, kind: Waiting) -> bool {
        !self.frags.is_empty() && self.frags.iter().all(|f| f.waiting == Some(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Program, Stmt, FULL_MASK};

    fn env<'a>(shared: &'a mut [u32], global: &'a mut [u32]) -> ExecEnv<'a> {
        ExecEnv::new(shared, global, 0, 1)
    }

    /// Run one warp to completion, returning it.
    fn run(program: &Program, sched: Scheduler, shared_len: usize) -> (Warp, Vec<u32>) {
        let mut shared = vec![0u32; shared_len];
        let mut global = vec![0u32; 64];
        let mut w = Warp::new(0, program);
        let mut e = env(&mut shared, &mut global);
        for _ in 0..100_000 {
            match w.step(program, sched, &mut e).unwrap() {
                StepOutcome::Done => break,
                StepOutcome::AllWaiting => panic!("unexpected block-level wait"),
                StepOutcome::Advanced => {}
            }
        }
        assert!(w.is_done(), "program did not terminate");
        (w, shared)
    }

    #[test]
    fn straight_line_arithmetic() {
        let p = Program::compile(&[
            Stmt::Op(Op::LaneId(Reg(0))),
            Stmt::Op(Op::ConstI(Reg(1), 10)),
            Stmt::Op(Op::MulI(Reg(2), Reg(0), Reg(1))),
        ]);
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            let mut shared = vec![0u32; 1];
            let mut global = vec![0u32; 1];
            let mut w = Warp::new(0, &p);
            let mut e = env(&mut shared, &mut global);
            while w.step(&p, sched, &mut e).unwrap() != StepOutcome::Done {}
            for l in 0..WARP_SIZE {
                assert_eq!(w.reg(l, Reg(2)), (l * 10) as u32);
            }
        }
    }

    /// The paper's §2.1 hazard: producer/consumer through shared memory
    /// across a divergent branch. Correct under Lockstep (implicit
    /// reconvergence), stale under Independent scheduling.
    fn producer_consumer(with_sync: bool) -> Program {
        let lane = Reg(0);
        let c16 = Reg(1);
        let cond = Reg(2);
        let val = Reg(3);
        let addr = Reg(4);
        let out = Reg(5);
        let c100 = Reg(6);
        let c15 = Reg(7);
        let mut body = vec![
            Stmt::Op(Op::LaneId(lane)),
            Stmt::Op(Op::ConstI(c16, 16)),
            Stmt::Op(Op::ConstI(c100, 100)),
            Stmt::Op(Op::ConstI(c15, 15)),
            Stmt::Op(Op::LtI(cond, lane, c16)),
            // if lane < 16: shared[lane] = lane + 100
            Stmt::If {
                cond,
                then: vec![
                    Stmt::Op(Op::AddI(val, lane, c100)),
                    Stmt::Op(Op::StShared(lane, val)),
                ],
                els: vec![],
            },
        ];
        if with_sync {
            body.push(Stmt::Op(Op::SyncWarp(MaskSpec::Const(FULL_MASK))));
        }
        // All lanes: out = shared[lane & 15]
        body.push(Stmt::Op(Op::AndI(addr, lane, c15)));
        body.push(Stmt::Op(Op::LdShared(out, addr)));
        Program::compile(&body)
    }

    #[test]
    fn lockstep_reconverges_after_branch() {
        let p = producer_consumer(false);
        let (w, _) = run(&p, Scheduler::Lockstep, 16);
        for l in 0..WARP_SIZE {
            assert_eq!(w.reg(l, Reg(5)), (l % 16 + 100) as u32, "lane {l}");
        }
    }

    #[test]
    fn independent_scheduling_exposes_stale_reads() {
        // Without syncwarp, the else-fragment (lanes 16–31) runs ahead and
        // reads shared memory before the producers stored — the §2.1 bug.
        let p = producer_consumer(false);
        let (w, _) = run(&p, Scheduler::Independent, 16);
        let stale = (16..WARP_SIZE).filter(|&l| w.reg(l, Reg(5)) == 0).count();
        assert!(stale > 0, "expected stale reads in the upper half-warp");
        // Producer lanes always see their own stores (program order).
        for l in 0..16 {
            assert_eq!(w.reg(l, Reg(5)), (l + 100) as u32);
        }
    }

    #[test]
    fn syncwarp_restores_correctness_under_independent_scheduling() {
        let p = producer_consumer(true);
        let (w, _) = run(&p, Scheduler::Independent, 16);
        for l in 0..WARP_SIZE {
            assert_eq!(w.reg(l, Reg(5)), (l % 16 + 100) as u32, "lane {l}");
        }
        assert!(w.counts.syncwarps >= 1);
    }

    #[test]
    fn divergence_costs_issue_cycles_under_both_schedulers() {
        // Divergent halves serialise: both sides' instructions are issued.
        let p = producer_consumer(false);
        let (diverged, _) = run(&p, Scheduler::Lockstep, 16);
        let p_flat = Program::compile(&[
            Stmt::Op(Op::LaneId(Reg(0))),
            Stmt::Op(Op::ConstI(Reg(1), 16)),
        ]);
        let (flat, _) = run(&p_flat, Scheduler::Lockstep, 1);
        assert!(diverged.retired > flat.retired);
    }

    #[test]
    fn shfl_xor_full_mask_butterfly_reduction() {
        // Classic warp reduction: sum of lane ids = 496.
        let val = Reg(0);
        let tmp = Reg(1);
        let mut body = vec![Stmt::Op(Op::LaneId(val))];
        for width in [16u32, 8, 4, 2, 1] {
            body.push(Stmt::Op(Op::ShflXor(
                tmp,
                val,
                width,
                MaskSpec::Const(FULL_MASK),
            )));
            body.push(Stmt::Op(Op::AddI(val, val, tmp)));
        }
        let p = Program::compile(&body);
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            let (w, _) = run(&p, sched, 1);
            for l in 0..WARP_SIZE {
                assert_eq!(w.reg(l, Reg(0)), 496, "lane {l} under {sched:?}");
            }
        }
    }

    #[test]
    fn half_warp_shfl_with_wrong_mask_poisons() {
        // §2.1: two groups of 16 lanes run the same shuffle concurrently
        // (converged warp). Mask 0xffff is wrong for the upper half — the
        // paper's example. The correct runtime answer is activemask().
        let val = Reg(0);
        let out = Reg(1);
        let p = Program::compile(&[
            Stmt::Op(Op::LaneId(val)),
            Stmt::Op(Op::ShflXor(out, val, 1, MaskSpec::Const(0xffff))),
        ]);
        let (w, _) = run(&p, Scheduler::Lockstep, 1);
        for l in 0..16 {
            assert_eq!(w.reg(l, Reg(1)), (l ^ 1) as u32);
        }
        for l in 16..WARP_SIZE {
            assert_eq!(w.reg(l, Reg(1)), POISON, "upper half must be undefined");
        }
    }

    #[test]
    fn activemask_gives_the_correct_runtime_mask() {
        // Same two-half-warp scenario fixed the way the paper recommends:
        // mask = activemask() just before the shuffle.
        let val = Reg(0);
        let out = Reg(1);
        let am = Reg(2);
        let p = Program::compile(&[
            Stmt::Op(Op::LaneId(val)),
            Stmt::Op(Op::ActiveMask(am)),
            Stmt::Op(Op::ShflXor(out, val, 1, MaskSpec::FromReg(am))),
        ]);
        let (w, _) = run(&p, Scheduler::Lockstep, 1);
        for l in 0..WARP_SIZE {
            assert_eq!(w.reg(l, Reg(1)), (l ^ 1) as u32, "lane {l}");
        }
    }

    #[test]
    fn activemask_inside_divergent_branch_is_partial() {
        let lane = Reg(0);
        let c16 = Reg(1);
        let cond = Reg(2);
        let am = Reg(3);
        let p = Program::compile(&[
            Stmt::Op(Op::LaneId(lane)),
            Stmt::Op(Op::ConstI(c16, 16)),
            Stmt::Op(Op::LtI(cond, lane, c16)),
            Stmt::If {
                cond,
                then: vec![Stmt::Op(Op::ActiveMask(am))],
                els: vec![Stmt::Op(Op::ActiveMask(am))],
            },
        ]);
        let (w, _) = run(&p, Scheduler::Independent, 1);
        for l in 0..16 {
            assert_eq!(w.reg(l, Reg(3)), 0x0000_ffff);
        }
        for l in 16..WARP_SIZE {
            assert_eq!(w.reg(l, Reg(3)), 0xffff_0000);
        }
    }

    #[test]
    fn sub_warp_syncwarp_with_matching_masks() {
        // Two half-warps each sync on their own mask — both must release.
        let lane = Reg(0);
        let c16 = Reg(1);
        let cond = Reg(2);
        let am = Reg(3);
        let p = Program::compile(&[
            Stmt::Op(Op::LaneId(lane)),
            Stmt::Op(Op::ConstI(c16, 16)),
            Stmt::Op(Op::LtI(cond, lane, c16)),
            Stmt::If {
                cond,
                then: vec![
                    Stmt::Op(Op::ActiveMask(am)),
                    Stmt::Op(Op::SyncWarp(MaskSpec::FromReg(am))),
                ],
                els: vec![
                    Stmt::Op(Op::ActiveMask(am)),
                    Stmt::Op(Op::SyncWarp(MaskSpec::FromReg(am))),
                ],
            },
        ]);
        let (w, _) = run(&p, Scheduler::Independent, 1);
        assert!(w.is_done());
        assert_eq!(w.counts.syncwarps, 2);
    }

    #[test]
    fn syncwarp_mask_naming_absent_lanes_deadlocks() {
        // Lanes 0–15 sync expecting the full warp, but lanes 16–31 sync
        // on their own half-mask: the full-mask barrier cannot be
        // satisfied while the other half keeps running. Make the upper
        // half spin forever so the blocked barrier is observable.
        let lane = Reg(0);
        let c16 = Reg(1);
        let cond = Reg(2);
        let one = Reg(3);
        let p = Program::compile(&[
            Stmt::Op(Op::LaneId(lane)),
            Stmt::Op(Op::ConstI(c16, 16)),
            Stmt::Op(Op::ConstI(one, 1)),
            Stmt::Op(Op::LtI(cond, lane, c16)),
            Stmt::If {
                cond,
                then: vec![Stmt::Op(Op::SyncWarp(MaskSpec::Const(FULL_MASK)))],
                els: vec![Stmt::While {
                    pre: vec![],
                    cond: one, // infinite loop: these lanes never sync
                    body: vec![Stmt::Op(Op::AddI(lane, lane, one))],
                }],
            },
        ]);
        let mut shared = vec![0u32; 1];
        let mut global = vec![0u32; 1];
        let mut w = Warp::new(0, &p);
        let mut e = ExecEnv::new(&mut shared, &mut global, 0, 1);
        // The spinner never reaches a syncwarp, so the full-mask barrier
        // can never be satisfied: bound the steps and verify the waiting
        // fragment stays blocked.
        for _ in 0..10_000 {
            let _ = w.step(&p, Scheduler::Independent, &mut e).unwrap();
        }
        assert!(
            w.frags
                .iter()
                .any(|f| matches!(f.waiting, Some(Waiting::SyncWarp(FULL_MASK)))),
            "lower half must still be blocked at the full-mask barrier"
        );
        assert!(
            w.frags.len() >= 2,
            "divergent fragments must not have merged"
        );
    }

    #[test]
    fn shared_out_of_bounds_is_reported() {
        // Each space reports its own error with the address and its size:
        // shared far past the end, global at its first word past the end.
        let addr = Reg(0);
        let global_oob = ExecError::GlobalOutOfBounds { addr: 8, size: 8 };
        let cases = [
            (
                Op::LdShared(Reg(1), addr),
                1_000_000,
                ExecError::SharedOutOfBounds {
                    addr: 1_000_000,
                    size: 4,
                },
            ),
            (Op::LdGlobal(Reg(1), addr), 8, global_oob.clone()),
            (Op::StGlobal(addr, Reg(1)), 8, global_oob.clone()),
            (Op::AtomicAddGlobal(Reg(1), addr, Reg(1)), 8, global_oob),
        ];
        for (op, past_end, want) in cases {
            let p = Program::compile(&[Stmt::Op(Op::ConstI(addr, past_end)), Stmt::Op(op)]);
            let mut shared = vec![0u32; 4];
            let mut global = vec![0u32; 8];
            let mut w = Warp::new(0, &p);
            let mut e = ExecEnv::new(&mut shared, &mut global, 0, 1);
            let mut err = None;
            for _ in 0..10 {
                match w.step(&p, Scheduler::Lockstep, &mut e) {
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                    Ok(StepOutcome::Done) => break,
                    Ok(_) => {}
                }
            }
            assert_eq!(err, Some(want), "{op:?}");
        }
    }

    #[test]
    fn while_loop_with_nonuniform_trip_counts() {
        // Lane l iterates l times; total = sum of lane ids in reg 4.
        let lane = Reg(0);
        let i = Reg(1);
        let cond = Reg(2);
        let one = Reg(3);
        let acc = Reg(4);
        let p = Program::compile(&[
            Stmt::Op(Op::LaneId(lane)),
            Stmt::Op(Op::ConstI(i, 0)),
            Stmt::Op(Op::ConstI(one, 1)),
            Stmt::Op(Op::ConstI(acc, 0)),
            Stmt::While {
                pre: vec![Stmt::Op(Op::LtI(cond, i, lane))],
                cond,
                body: vec![
                    Stmt::Op(Op::AddI(i, i, one)),
                    Stmt::Op(Op::AddI(acc, acc, one)),
                ],
            },
        ]);
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            let (w, _) = run(&p, sched, 1);
            for l in 0..WARP_SIZE {
                assert_eq!(w.reg(l, Reg(4)), l as u32, "lane {l} under {sched:?}");
            }
        }
    }

    #[test]
    fn atomic_add_returns_old_values() {
        let addr = Reg(0);
        let one = Reg(1);
        let old = Reg(2);
        let p = Program::compile(&[
            Stmt::Op(Op::ConstI(addr, 0)),
            Stmt::Op(Op::ConstI(one, 1)),
            Stmt::Op(Op::AtomicAddGlobal(old, addr, one)),
        ]);
        let mut shared = vec![0u32; 1];
        let mut global = vec![0u32; 1];
        let mut w = Warp::new(0, &p);
        let mut e = ExecEnv::new(&mut shared, &mut global, 0, 1);
        while w.step(&p, Scheduler::Lockstep, &mut e).unwrap() != StepOutcome::Done {}
        assert_eq!(global[0], 32);
        let mut olds: Vec<u32> = (0..WARP_SIZE).map(|l| w.reg(l, Reg(2))).collect();
        olds.sort_unstable();
        assert_eq!(olds, (0..32u32).collect::<Vec<_>>());
    }

    /// The four shuffle and three vote bodies the unified arms replaced,
    /// kept as their oracle: fragment 0 of `w` executes `op`.
    fn collective_oracle(w: &mut Warp, op: Op, env: &mut ExecEnv<'_>) {
        let frag = w.frags[0];
        let mask = frag.mask;
        match op {
            Op::Shfl(d, val, src_lane, m) => {
                let pm = w.resolve_mask(m, mask);
                w.trace_collective(env, frag.pc, &op, mask, pm);
                let snapshot: Vec<u32> = (0..WARP_SIZE).map(|l| w.reg(l, val)).collect();
                for l in Warp::lanes(mask) {
                    let out = if pm & (1 << l) == 0 {
                        POISON
                    } else {
                        let s = (w.reg(l, src_lane) as usize) % WARP_SIZE;
                        if pm & (1 << s) != 0 && mask & (1 << s) != 0 {
                            snapshot[s]
                        } else {
                            POISON
                        }
                    };
                    w.set_reg(l, d, out);
                }
            }
            Op::ShflXor(d, val, lanemask, m) => {
                let pm = w.resolve_mask(m, mask);
                w.trace_collective(env, frag.pc, &op, mask, pm);
                let snapshot: Vec<u32> = (0..WARP_SIZE).map(|l| w.reg(l, val)).collect();
                for l in Warp::lanes(mask) {
                    let s = l ^ (lanemask as usize % WARP_SIZE);
                    let out = if pm & (1 << l) == 0 || pm & (1 << s) == 0 || mask & (1 << s) == 0 {
                        POISON
                    } else {
                        snapshot[s]
                    };
                    w.set_reg(l, d, out);
                }
            }
            Op::ShflDown(d, val, delta, m) => {
                let pm = w.resolve_mask(m, mask);
                w.trace_collective(env, frag.pc, &op, mask, pm);
                let snapshot: Vec<u32> = (0..WARP_SIZE).map(|l| w.reg(l, val)).collect();
                for l in Warp::lanes(mask) {
                    let out = if pm & (1 << l) == 0 {
                        POISON
                    } else if l + (delta as usize) >= WARP_SIZE {
                        snapshot[l] // above the shift: keep own value
                    } else {
                        let s = l + delta as usize;
                        if pm & (1 << s) != 0 && mask & (1 << s) != 0 {
                            snapshot[s]
                        } else {
                            POISON
                        }
                    };
                    w.set_reg(l, d, out);
                }
            }
            Op::VoteAll(d, pred, m) => {
                let pm = w.resolve_mask(m, mask);
                w.trace_collective(env, frag.pc, &op, mask, pm);
                let all = Warp::lanes(mask & pm).all(|l| w.reg(l, pred) != 0) as u32;
                for l in Warp::lanes(mask) {
                    let out = if pm & (1 << l) != 0 { all } else { POISON };
                    w.set_reg(l, d, out);
                }
            }
            Op::VoteAny(d, pred, m) => {
                let pm = w.resolve_mask(m, mask);
                w.trace_collective(env, frag.pc, &op, mask, pm);
                let any = Warp::lanes(mask & pm).any(|l| w.reg(l, pred) != 0) as u32;
                for l in Warp::lanes(mask) {
                    let out = if pm & (1 << l) != 0 { any } else { POISON };
                    w.set_reg(l, d, out);
                }
            }
            Op::ShflUp(d, val, delta, m) => {
                let pm = w.resolve_mask(m, mask);
                w.trace_collective(env, frag.pc, &op, mask, pm);
                let snapshot: Vec<u32> = (0..WARP_SIZE).map(|l| w.reg(l, val)).collect();
                for l in Warp::lanes(mask) {
                    let out = if pm & (1 << l) == 0 {
                        POISON
                    } else if l < delta as usize {
                        snapshot[l] // below the shift: keep own value
                    } else {
                        let s = l - delta as usize;
                        if pm & (1 << s) != 0 && mask & (1 << s) != 0 {
                            snapshot[s]
                        } else {
                            POISON
                        }
                    };
                    w.set_reg(l, d, out);
                }
            }
            Op::Ballot(d, pred, m) => {
                let pm = w.resolve_mask(m, mask);
                w.trace_collective(env, frag.pc, &op, mask, pm);
                let mut bits = 0u32;
                for l in Warp::lanes(mask & pm) {
                    if w.reg(l, pred) != 0 {
                        bits |= 1 << l;
                    }
                }
                for l in Warp::lanes(mask) {
                    let out = if pm & (1 << l) != 0 { bits } else { POISON };
                    w.set_reg(l, d, out);
                }
            }
            other => panic!("{other:?} is not a shuffle or vote"),
        }
        w.frags[0].pc += 1;
    }

    /// All seven shuffles and votes agree with their oracle, POISON and
    /// racecheck reports included, over seeded random exec masks (diverged
    /// ones too), participation masks (constant and from a register,
    /// naming absent lanes or omitting callers), source lanes, deltas,
    /// xor masks and register values.
    #[test]
    fn collectives_match_the_per_op_oracle() {
        const REGS: u8 = 6;
        let program = Program {
            insts: vec![Inst::Halt],
            n_regs: REGS as usize,
        };
        testkit::check("collectives_match_the_per_op_oracle", 200, |g| {
            let mut w = Warp::new(0, &program);
            for v in &mut w.regs {
                *v = match g.u8_in(0..4) {
                    0 => 0,
                    1 => 1,
                    2 => g.u8_in(0..64) as u32,
                    _ => g.any_u64() as u32,
                };
            }
            let mut o = w.clone();
            let (mut rc_w, mut rc_o) = (Racecheck::for_single_warp(), Racecheck::for_single_warp());
            let (mut sw, mut gw, mut so, mut go) = ([0u32; 1], [0u32; 1], [0u32; 1], [0u32; 1]);
            let mut env_w = ExecEnv::new(&mut sw, &mut gw, 0, 1).with_racecheck(&mut rc_w);
            let mut env_o = ExecEnv::new(&mut so, &mut go, 0, 1).with_racecheck(&mut rc_o);
            for _ in 0..g.usize_in(1..9) {
                let random = g.any_u64() as u32;
                let lane = 1u32 << g.u8_in(0..32);
                let exec =
                    [FULL_MASK, 0x0000_ffff, 0xffff_0000, random | lane, lane][g.usize_in(0..5)];
                let part = [
                    exec,
                    FULL_MASK,
                    0x0000_ffff,
                    exec | g.any_u64() as u32,
                    exec & g.any_u64() as u32,
                    g.any_u64() as u32,
                ][g.usize_in(0..6)];
                let m = if g.u8_in(0..2) == 0 {
                    MaskSpec::Const(part)
                } else {
                    // The mask register holds `part` in every lane.
                    let r = Reg(g.u8_in(0..REGS));
                    for l in 0..WARP_SIZE {
                        w.set_reg(l, r, part);
                        o.set_reg(l, r, part);
                    }
                    MaskSpec::FromReg(r)
                };
                let mut reg = || Reg(g.u8_in(0..REGS));
                let (d, v, s) = (reg(), reg(), reg());
                let op = match g.u8_in(0..7) {
                    0 => Op::Shfl(d, v, s, m),
                    1 => Op::ShflXor(d, v, g.u8_in(0..64) as u32, m),
                    2 => Op::ShflUp(d, v, g.u8_in(0..41) as u32, m),
                    3 => Op::ShflDown(d, v, g.u8_in(0..41) as u32, m),
                    4 => Op::VoteAll(d, v, m),
                    5 => Op::VoteAny(d, v, m),
                    _ => Op::Ballot(d, v, m),
                };
                let pc = g.usize_in(0..4);
                for x in [&mut w, &mut o] {
                    x.frags[0].mask = exec;
                    x.frags[0].pc = pc;
                }
                w.exec_op(0, op, &mut env_w).unwrap();
                collective_oracle(&mut o, op, &mut env_o);
                assert_eq!(w.regs, o.regs, "{op:?} exec {exec:#010x}");
                assert_eq!(w.frags[0].pc, o.frags[0].pc);
            }
            assert_eq!(rc_w.finish(), rc_o.finish());
        });
    }
}
