//! Thread blocks: several warps sharing one shared-memory allocation and
//! a `__syncthreads()` barrier.
//!
//! Warps within a block are stepped round-robin, one fragment-instruction
//! per turn — interleaving that is deterministic but non-trivial, so
//! inter-warp races through shared memory are observable just like
//! intra-warp ones.

use crate::ir::Program;
use crate::racecheck::Racecheck;
use crate::warp::{ExecEnv, ExecError, Scheduler, StepOutcome, Waiting, Warp, WARP_SIZE};

/// One thread block.
#[derive(Clone, Debug)]
pub struct ThreadBlock {
    pub block_id: u32,
    pub warps: Vec<Warp>,
    pub shared: Vec<u32>,
    /// Round-robin cursor.
    next_warp: usize,
    /// `__syncthreads()` barriers completed.
    pub block_syncs: u64,
}

/// Result of stepping a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockOutcome {
    Advanced,
    /// All live warps wait on `GridSync`; the grid must release them.
    AtGridBarrier,
    Done,
}

impl ThreadBlock {
    /// Create a block of `n_threads` threads (must be a multiple of 32)
    /// with `shared_words` 32-bit words of shared memory.
    pub fn new(block_id: u32, n_threads: usize, shared_words: usize, program: &Program) -> Self {
        assert!(n_threads > 0 && n_threads.is_multiple_of(WARP_SIZE));
        let warps = (0..n_threads / WARP_SIZE)
            .map(|w| Warp::new(w as u32, program))
            .collect();
        ThreadBlock {
            block_id,
            warps,
            shared: vec![0; shared_words],
            next_warp: 0,
            block_syncs: 0,
        }
    }

    /// True when every warp has halted.
    pub fn is_done(&self) -> bool {
        self.warps.iter().all(|w| w.is_done())
    }

    /// Release a `__syncthreads()` barrier if every live warp has fully
    /// arrived. Returns true when released.
    fn try_release_syncthreads(&mut self) -> bool {
        let all_arrived = self
            .warps
            .iter()
            .filter(|w| !w.is_done())
            .all(|w| w.all_waiting_on(Waiting::SyncThreads));
        let any_live = self.warps.iter().any(|w| !w.is_done());
        if all_arrived && any_live {
            for w in &mut self.warps {
                w.release_barrier(Waiting::SyncThreads);
            }
            self.block_syncs += 1;
            true
        } else {
            false
        }
    }

    /// Advance one warp by one fragment-instruction (round-robin over
    /// runnable warps). Pass a [`Racecheck`] to observe the step under
    /// the happens-before detector.
    pub fn step(
        &mut self,
        program: &Program,
        sched: Scheduler,
        global: &mut [u32],
        grid_dim: u32,
        mut rc: Option<&mut Racecheck>,
    ) -> Result<BlockOutcome, ExecError> {
        if self.is_done() {
            return Ok(BlockOutcome::Done);
        }
        let n = self.warps.len();
        for off in 0..n {
            let wi = (self.next_warp + off) % n;
            if self.warps[wi].is_done() {
                continue;
            }
            // Skip warps fully blocked on block/grid barriers.
            if self.warps[wi].all_waiting_on(Waiting::SyncThreads)
                || self.warps[wi].all_waiting_on(Waiting::GridSync)
            {
                continue;
            }
            let mut env = ExecEnv {
                shared: &mut self.shared,
                global,
                block_id: self.block_id,
                grid_dim,
                racecheck: rc.as_deref_mut(),
            };
            let out = self.warps[wi].step(program, sched, &mut env)?;
            self.next_warp = (wi + 1) % n;
            match out {
                StepOutcome::Advanced | StepOutcome::Done => return Ok(BlockOutcome::Advanced),
                StepOutcome::AllWaiting => continue,
            }
        }
        // No warp could advance: resolve the block barrier or escalate.
        if self.try_release_syncthreads() {
            if let Some(rc) = rc {
                rc.on_syncthreads(self.block_id);
            }
            return Ok(BlockOutcome::Advanced);
        }
        let all_grid = self
            .warps
            .iter()
            .filter(|w| !w.is_done())
            .all(|w| w.all_waiting_on(Waiting::GridSync));
        if all_grid {
            return Ok(BlockOutcome::AtGridBarrier);
        }
        Err(ExecError::Deadlock)
    }

    /// Release the grid barrier (called by the grid driver).
    pub fn release_grid_barrier(&mut self) {
        for w in &mut self.warps {
            w.release_barrier(Waiting::GridSync);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, Program, Reg, Stmt};

    /// Two warps exchange data through shared memory across a
    /// `__syncthreads()`. Warp 1 is artificially delayed by a spin loop so
    /// the barrier is load-bearing: without it, warp 0 reads slots warp 1
    /// has not written yet.
    fn cross_warp_program(with_sync: bool) -> Program {
        let tid = Reg(0);
        let val = Reg(1);
        let n = Reg(2);
        let addr = Reg(3);
        let out = Reg(4);
        let c1 = Reg(5);
        let wid = Reg(6);
        let cond = Reg(7);
        let i = Reg(8);
        let lim = Reg(9);
        let mut body = vec![
            Stmt::Op(Op::ThreadId(tid)),
            Stmt::Op(Op::ConstI(n, 64)),
            Stmt::Op(Op::ConstI(c1, 1)),
            // Delay warp 1 before it produces.
            Stmt::Op(Op::WarpId(wid)),
            Stmt::Op(Op::ConstI(i, 0)),
            Stmt::Op(Op::ConstI(lim, 20)),
            Stmt::If {
                cond: wid,
                then: vec![Stmt::While {
                    pre: vec![Stmt::Op(Op::LtI(cond, i, lim))],
                    cond,
                    body: vec![Stmt::Op(Op::AddI(i, i, c1))],
                }],
                els: vec![],
            },
            // shared[tid] = tid * 3
            Stmt::Op(Op::ConstI(val, 3)),
            Stmt::Op(Op::MulI(val, tid, val)),
            Stmt::Op(Op::StShared(tid, val)),
        ];
        if with_sync {
            body.push(Stmt::Op(Op::SyncThreads));
        }
        // out = shared[63 - tid]  (reads the *other* warp's values)
        body.push(Stmt::Op(Op::SubI(addr, n, tid)));
        body.push(Stmt::Op(Op::SubI(addr, addr, c1)));
        body.push(Stmt::Op(Op::LdShared(out, addr)));
        Program::compile(&body)
    }

    fn run_block(p: &Program, sched: Scheduler, threads: usize) -> ThreadBlock {
        let mut b = ThreadBlock::new(0, threads, 64, p);
        let mut global = vec![0u32; 4];
        for _ in 0..1_000_000 {
            match b.step(p, sched, &mut global, 1, None).unwrap() {
                BlockOutcome::Done => break,
                BlockOutcome::AtGridBarrier => panic!("no grid sync in program"),
                BlockOutcome::Advanced => {}
            }
        }
        assert!(b.is_done(), "block did not finish");
        b
    }

    #[test]
    fn syncthreads_orders_cross_warp_exchange() {
        let p = cross_warp_program(true);
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            let b = run_block(&p, sched, 64);
            assert_eq!(b.block_syncs, 1);
            for w in 0..2 {
                for l in 0..WARP_SIZE {
                    let tid = w * WARP_SIZE + l;
                    let expect = ((63 - tid) * 3) as u32;
                    assert_eq!(b.warps[w].reg(l, Reg(4)), expect, "tid {tid} ({sched:?})");
                }
            }
        }
    }

    #[test]
    fn missing_syncthreads_races_across_warps() {
        // Same exchange without the barrier: warp 0 reads the delayed
        // warp 1's slots before they are written.
        let p = cross_warp_program(false);
        let b = run_block(&p, Scheduler::Lockstep, 64);
        let stale = (0..WARP_SIZE)
            .filter(|&l| b.warps[0].reg(l, Reg(4)) != ((63 - l) * 3) as u32)
            .count();
        assert!(
            stale > 0,
            "expected a cross-warp race without __syncthreads"
        );
    }

    #[test]
    fn block_counts_warps_and_cycles() {
        let p = cross_warp_program(true);
        let b = run_block(&p, Scheduler::Lockstep, 64);
        assert_eq!(b.warps.len(), 2);
        assert!(b.warps.iter().all(|w| w.cycles > 0));
        assert!(b.warps.iter().all(|w| w.counts.syncwarps == 0));
    }

    #[test]
    #[should_panic]
    fn rejects_non_warp_multiple_block() {
        let p = cross_warp_program(true);
        let _ = ThreadBlock::new(0, 48, 16, &p);
    }
}
