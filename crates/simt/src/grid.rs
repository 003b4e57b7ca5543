//! Grids: many blocks over one global memory, plus grid-wide barriers.
//!
//! Blocks are stepped round-robin (one fragment-instruction per turn), so
//! inter-block communication through global memory — the basis of the
//! lock-free barrier of Appendix A — makes deterministic progress.

use crate::block::{BlockOutcome, ThreadBlock};
use crate::ir::Program;
use crate::prof::{KernelProfile, PipeCounts};
use crate::racecheck::{Racecheck, RacecheckConfig, RacecheckReport};
use crate::warp::{ExecError, Scheduler, WARP_SIZE};

/// Execution statistics of one grid run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Sum of issue cycles over all warps.
    pub total_cycles: u64,
    /// Maximum per-warp cycles — the makespan proxy.
    pub max_warp_cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// `__syncwarp` executions.
    pub syncwarps: u64,
    /// `__syncthreads` barriers completed (per block, summed).
    pub block_syncs: u64,
    /// Cooperative-Groups grid barriers completed.
    pub grid_syncs: u64,
}

/// A grid of thread blocks.
pub struct Grid {
    pub blocks: Vec<ThreadBlock>,
    pub global: Vec<u32>,
    pub grid_syncs: u64,
}

impl Grid {
    /// Launch configuration: `n_blocks` × `threads_per_block`, with
    /// `shared_words` of shared memory per block and `global_words` of
    /// global memory.
    pub fn new(
        n_blocks: usize,
        threads_per_block: usize,
        shared_words: usize,
        global_words: usize,
        program: &Program,
    ) -> Self {
        assert!(n_blocks > 0);
        Grid {
            blocks: (0..n_blocks)
                .map(|b| ThreadBlock::new(b as u32, threads_per_block, shared_words, program))
                .collect(),
            global: vec![0; global_words],
            grid_syncs: 0,
        }
    }

    /// Run to completion (or `max_steps`). Grid barriers (Cooperative
    /// Groups `grid.sync()`) release when every live block has fully
    /// arrived — mirroring the CUDA 9 semantics the paper evaluates in
    /// Appendix A.
    pub fn run(
        &mut self,
        program: &Program,
        sched: Scheduler,
        max_steps: u64,
    ) -> Result<GridStats, ExecError> {
        self.run_inner(program, sched, max_steps, None)
    }

    /// This launch's per-pipe counts, named `kernel`, after [`Grid::run`]
    /// or [`Grid::run_racechecked`]: the warps' counts merged, with the
    /// block and grid barrier completions from the block and grid
    /// counters (the warp layer counts executions, not releases).
    pub fn profile(&self, kernel: &str) -> KernelProfile {
        let mut counts = PipeCounts::default();
        let mut warps = 0u64;
        for b in &self.blocks {
            for w in &b.warps {
                warps += 1;
                counts.merge(&w.counts);
            }
            counts.syncthreads += b.block_syncs;
        }
        counts.grid_barriers += self.grid_syncs;
        KernelProfile {
            kernel: kernel.to_string(),
            launches: 1,
            warps,
            counts,
        }
    }

    /// Run to completion under the happens-before race detector; returns
    /// the execution statistics and the hazard report.
    pub fn run_racechecked(
        &mut self,
        program: &Program,
        sched: Scheduler,
        max_steps: u64,
        cfg: RacecheckConfig,
    ) -> Result<(GridStats, RacecheckReport), ExecError> {
        let tpb = (self.blocks[0].warps.len() * WARP_SIZE) as u32;
        let mut rc = Racecheck::new(self.blocks.len() as u32, tpb, cfg);
        let stats = self.run_inner(program, sched, max_steps, Some(&mut rc))?;
        Ok((stats, rc.finish()))
    }

    fn run_inner(
        &mut self,
        program: &Program,
        sched: Scheduler,
        max_steps: u64,
        mut rc: Option<&mut Racecheck>,
    ) -> Result<GridStats, ExecError> {
        let grid_dim = self.blocks.len() as u32;
        let mut steps = 0u64;
        loop {
            if self.blocks.iter().all(|b| b.is_done()) {
                break;
            }
            let mut progressed = false;
            let mut at_barrier = 0usize;
            let mut live = 0usize;
            for b in &mut self.blocks {
                if b.is_done() {
                    continue;
                }
                live += 1;
                match b.step(
                    program,
                    sched,
                    &mut self.global,
                    grid_dim,
                    rc.as_deref_mut(),
                )? {
                    BlockOutcome::Advanced => progressed = true,
                    BlockOutcome::AtGridBarrier => at_barrier += 1,
                    BlockOutcome::Done => {}
                }
                steps += 1;
                if steps > max_steps {
                    return Err(ExecError::Deadlock);
                }
            }
            if !progressed {
                if at_barrier == live && live > 0 {
                    for b in &mut self.blocks {
                        if !b.is_done() {
                            b.release_grid_barrier();
                        }
                    }
                    self.grid_syncs += 1;
                    if let Some(rc) = rc.as_deref_mut() {
                        rc.on_grid_sync();
                    }
                } else {
                    return Err(ExecError::Deadlock);
                }
            }
        }
        let stats = self.stats();
        use telemetry::metrics::counters as tm;
        tm::SIMT_SCHED_STEPS.add(stats.retired);
        tm::SIMT_SYNCWARPS.add(stats.syncwarps);
        tm::SIMT_BLOCK_SYNCS.add(stats.block_syncs);
        tm::SIMT_GRID_BARRIERS.add(stats.grid_syncs);
        let shuffle_lanes: u64 = self
            .blocks
            .iter()
            .flat_map(|b| b.warps.iter())
            .map(|w| w.counts.shuffles + w.counts.votes)
            .sum();
        tm::SIMT_SHUFFLE_LANES.add(shuffle_lanes);
        Ok(stats)
    }

    /// Collect statistics.
    pub fn stats(&self) -> GridStats {
        let mut s = GridStats {
            grid_syncs: self.grid_syncs,
            ..GridStats::default()
        };
        for b in &self.blocks {
            s.block_syncs += b.block_syncs;
            for w in &b.warps {
                s.total_cycles += w.cycles;
                s.max_warp_cycles = s.max_warp_cycles.max(w.cycles);
                s.retired += w.retired;
                s.syncwarps += w.counts.syncwarps;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, Program, Reg, Stmt};

    /// Each block's threads atomically count into global[0]; a grid sync
    /// separates the count from the read-back.
    fn counting_program() -> Program {
        let tid = Reg(0);
        let zero = Reg(1);
        let one = Reg(2);
        let old = Reg(3);
        let out = Reg(4);
        let cond = Reg(5);
        Program::compile(&[
            Stmt::Op(Op::ThreadId(tid)),
            Stmt::Op(Op::ConstI(zero, 0)),
            Stmt::Op(Op::ConstI(one, 1)),
            Stmt::Op(Op::EqI(cond, tid, zero)),
            Stmt::If {
                cond,
                then: vec![Stmt::Op(Op::AtomicAddGlobal(old, zero, one))],
                els: vec![],
            },
            Stmt::Op(Op::GridSync),
            Stmt::Op(Op::LdGlobal(out, zero)),
        ])
    }

    #[test]
    fn grid_sync_makes_all_blocks_see_all_arrivals() {
        let p = counting_program();
        for sched in [Scheduler::Lockstep, Scheduler::Independent] {
            let mut g = Grid::new(6, 64, 4, 4, &p);
            let stats = g.run(&p, sched, 10_000_000).unwrap();
            assert_eq!(stats.grid_syncs, 1);
            assert_eq!(g.global[0], 6);
            for b in &g.blocks {
                for w in &b.warps {
                    for l in 0..32 {
                        assert_eq!(w.reg(l, Reg(4)), 6, "{sched:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn without_grid_sync_blocks_race() {
        // Remove the barrier and skew the blocks (each spins bid×8
        // iterations before contributing): early blocks read a partial
        // count.
        let tid = Reg(0);
        let zero = Reg(1);
        let one = Reg(2);
        let old = Reg(3);
        let out = Reg(4);
        let cond = Reg(5);
        let bid = Reg(6);
        let i = Reg(7);
        let lim = Reg(8);
        let c8 = Reg(9);
        let p = Program::compile(&[
            Stmt::Op(Op::ThreadId(tid)),
            Stmt::Op(Op::BlockId(bid)),
            Stmt::Op(Op::ConstI(zero, 0)),
            Stmt::Op(Op::ConstI(one, 1)),
            Stmt::Op(Op::ConstI(c8, 8)),
            Stmt::Op(Op::ConstI(i, 0)),
            Stmt::Op(Op::MulI(lim, bid, c8)),
            Stmt::While {
                pre: vec![Stmt::Op(Op::LtI(cond, i, lim))],
                cond,
                body: vec![Stmt::Op(Op::AddI(i, i, one))],
            },
            Stmt::Op(Op::EqI(cond, tid, zero)),
            Stmt::If {
                cond,
                then: vec![Stmt::Op(Op::AtomicAddGlobal(old, zero, one))],
                els: vec![],
            },
            Stmt::Op(Op::LdGlobal(out, zero)),
        ]);
        let mut g = Grid::new(6, 64, 4, 4, &p);
        g.run(&p, Scheduler::Lockstep, 10_000_000).unwrap();
        let mut partial = false;
        for b in &g.blocks {
            for w in &b.warps {
                if w.reg(0, Reg(4)) != 6 {
                    partial = true;
                }
            }
        }
        assert!(
            partial,
            "expected at least one block to read a partial count"
        );
    }

    #[test]
    fn stats_accumulate_over_blocks() {
        let p = counting_program();
        let mut g = Grid::new(3, 32, 4, 4, &p);
        let stats = g.run(&p, Scheduler::Lockstep, 1_000_000).unwrap();
        assert!(stats.total_cycles > 0);
        assert!(stats.max_warp_cycles <= stats.total_cycles);
        assert!(stats.retired > 0);
    }

    #[test]
    fn runaway_grid_reports_deadlock_via_step_budget() {
        // A single-block infinite loop exhausts the step budget.
        let one = Reg(0);
        let acc = Reg(1);
        let p = Program::compile(&[
            Stmt::Op(Op::ConstI(one, 1)),
            Stmt::While {
                pre: vec![],
                cond: one,
                body: vec![Stmt::Op(Op::AddI(acc, acc, one))],
            },
        ]);
        // cond register stays 1 forever: infinite loop.
        let mut g = Grid::new(1, 32, 4, 4, &p);
        assert_eq!(
            g.run(&p, Scheduler::Lockstep, 10_000),
            Err(ExecError::Deadlock)
        );
    }
}
