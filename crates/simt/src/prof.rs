//! simtprof — nvprof-style measured instruction profiling.
//!
//! The paper's §4 instruction-count model is calibrated against *measured*
//! hardware counters (`inst_integer`, `flop_count_sp_{fma,add,mul,special}`;
//! Fig. 6). This module is the interpreter-side analogue: every warp
//! counts, for every instruction it retires, how many lane-operations each
//! execution pipe ran (`PipeCounts::count_inst` is the interpreter's only
//! instruction-to-pipe mapping), and [`crate::Grid::profile`] merges a
//! launch's warps, so the analytic `gpu_model::OpCounts` mixes can be
//! checked against what the simulated hardware actually executed.
//!
//! Counting conventions (all deliberate, all load-bearing for the
//! measured-vs-modeled comparison in `gpu_model::measured`):
//!
//! * Arithmetic/logic/compare pipes count **lane-operations**: one per
//!   active lane per retired instruction — the nvprof convention for
//!   `inst_integer` and the `flop_count_sp_*` metrics.
//! * Integer constants and the id/geometry reads (`LaneId`, `ThreadId`,
//!   `BlockId`, `GridDim`, `ActiveMask`) count as INT32 work: on real
//!   hardware they lower to integer moves/reads of special registers
//!   issued on the INT pipe.
//! * `ConstF`/`Mov` and control flow (`Jump`, `BranchIfZero`, `Halt`)
//!   count as `control` — register moves and branch resolution, kept
//!   separate so the INT32 pipe comparison stays clean but nothing is
//!   silently dropped.
//! * Memory instructions count **transactions** per active lane, split by
//!   space (shared vs global). Byte conversion happens at the
//!   `OpCounts` boundary (4 B per lane-transaction — every IR cell is a
//!   `u32`).
//! * `SyncWarp` counts per *executed instruction* (fragment granularity;
//!   `GridStats::syncwarps` is this count); `SyncThreads`/`GridSync` are
//!   counted at **barrier completion** by the grid aggregation (matching
//!   `ThreadBlock::block_syncs` and `Grid::grid_syncs`), not per lane.
//! * `divergence_events` counts fragment splits; `max_reconv_depth` is
//!   the high-water fragment count — how deep the divergence tree got
//!   before reconvergence.

use crate::ir::{Inst, Op};

/// Per-pipe lane-operation counters for one warp, or for one kernel
/// launch once its warps are merged (see [`KernelProfile`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipeCounts {
    /// INT32 pipe lane-ops (ALU, shifts, compares, constants, id reads).
    pub int_ops: u64,
    /// FP32 add/sub lane-ops.
    pub fp_add: u64,
    /// FP32 mul lane-ops.
    pub fp_mul: u64,
    /// FP32 fused multiply-add lane-ops.
    pub fp_fma: u64,
    /// SFU lane-ops (reciprocal square root).
    pub fp_special: u64,
    /// FP32 compare lane-ops (set-predicate; folded into INT at the
    /// `OpCounts` boundary, kept distinct here).
    pub fp_cmp: u64,
    /// Register moves, float constants and branch/jump/halt lane-ops.
    pub control: u64,
    /// Warp-shuffle lane-ops (`__shfl_*_sync`).
    pub shuffles: u64,
    /// Vote/ballot lane-ops (`__all/any/ballot_sync`).
    pub votes: u64,
    /// `__syncwarp()` executions (fragment granularity).
    pub syncwarps: u64,
    /// `__syncthreads()` completions (filled by grid aggregation).
    pub syncthreads: u64,
    /// Grid-wide barrier completions (filled by grid aggregation).
    pub grid_barriers: u64,
    /// Shared-memory load transactions (one per active lane).
    pub shared_ld: u64,
    /// Shared-memory store transactions.
    pub shared_st: u64,
    /// Global-memory load transactions.
    pub global_ld: u64,
    /// Global-memory store transactions.
    pub global_st: u64,
    /// Global atomic transactions.
    pub global_atomics: u64,
    /// Fragment splits (divergent branches taken both ways).
    pub divergence_events: u64,
    /// High-water live-fragment count at a divergence split (0 = never
    /// diverged).
    pub max_reconv_depth: u64,
}

impl PipeCounts {
    /// Merge another launch/warp into this aggregate: sums everywhere,
    /// max for the reconvergence depth high-water mark.
    pub fn merge(&mut self, o: &PipeCounts) {
        self.int_ops += o.int_ops;
        self.fp_add += o.fp_add;
        self.fp_mul += o.fp_mul;
        self.fp_fma += o.fp_fma;
        self.fp_special += o.fp_special;
        self.fp_cmp += o.fp_cmp;
        self.control += o.control;
        self.shuffles += o.shuffles;
        self.votes += o.votes;
        self.syncwarps += o.syncwarps;
        self.syncthreads += o.syncthreads;
        self.grid_barriers += o.grid_barriers;
        self.shared_ld += o.shared_ld;
        self.shared_st += o.shared_st;
        self.global_ld += o.global_ld;
        self.global_st += o.global_st;
        self.global_atomics += o.global_atomics;
        self.divergence_events += o.divergence_events;
        self.max_reconv_depth = self.max_reconv_depth.max(o.max_reconv_depth);
    }

    /// Count one retired instruction executed by `lanes` active lanes.
    #[inline]
    pub(crate) fn count_inst(&mut self, inst: &Inst, lanes: u64) {
        use Op::*;
        let op = match inst {
            Inst::Halt | Inst::Jump(_) | Inst::BranchIfZero { .. } => {
                self.control += lanes;
                return;
            }
            Inst::Op(op) => op,
        };
        match op {
            ConstI(..) | LaneId(..) | WarpId(..) | ThreadId(..) | BlockId(..) | GridDim(..)
            | ActiveMask(..) | AddI(..) | SubI(..) | MulI(..) | AndI(..) | OrI(..) | XorI(..)
            | ShlI(..) | ShrI(..) | LtI(..) | EqI(..) => self.int_ops += lanes,
            ConstF(..) | Mov(..) => self.control += lanes,
            AddF(..) | SubF(..) => self.fp_add += lanes,
            MulF(..) => self.fp_mul += lanes,
            FmaF(..) => self.fp_fma += lanes,
            RsqrtF(..) => self.fp_special += lanes,
            LtF(..) => self.fp_cmp += lanes,
            LdShared(..) => self.shared_ld += lanes,
            StShared(..) => self.shared_st += lanes,
            LdGlobal(..) => self.global_ld += lanes,
            StGlobal(..) => self.global_st += lanes,
            AtomicAddGlobal(..) => self.global_atomics += lanes,
            Shfl(..) | ShflXor(..) | ShflUp(..) | ShflDown(..) => self.shuffles += lanes,
            Ballot(..) | VoteAll(..) | VoteAny(..) => self.votes += lanes,
            SyncWarp(..) => self.syncwarps += 1,
            // Block/grid barriers are counted at completion by the grid
            // aggregation, not per executing fragment.
            SyncThreads | GridSync => {}
        }
    }
}

/// Per-pipe counts of one kernel launch, returned by
/// [`crate::Grid::profile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelProfile {
    /// Kernel name.
    pub kernel: String,
    /// Launches in this profile (1 for a `Grid::profile` result).
    pub launches: u64,
    /// Warps in the launch grid.
    pub warps: u64,
    /// Lane-operation counts summed over the launch's warps.
    pub counts: PipeCounts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Reg;

    #[test]
    fn classifier_routes_each_pipe() {
        let mut c = PipeCounts::default();
        c.count_inst(&Inst::Op(Op::AddI(Reg(0), Reg(1), Reg(2))), 32);
        c.count_inst(&Inst::Op(Op::FmaF(Reg(0), Reg(1), Reg(2), Reg(3))), 32);
        c.count_inst(&Inst::Op(Op::MulF(Reg(0), Reg(1), Reg(2))), 16);
        c.count_inst(&Inst::Op(Op::AddF(Reg(0), Reg(1), Reg(2))), 8);
        c.count_inst(&Inst::Op(Op::RsqrtF(Reg(0), Reg(1))), 32);
        c.count_inst(&Inst::Op(Op::LtF(Reg(0), Reg(1), Reg(2))), 4);
        c.count_inst(&Inst::Op(Op::LdShared(Reg(0), Reg(1))), 32);
        c.count_inst(&Inst::Op(Op::StGlobal(Reg(0), Reg(1))), 32);
        c.count_inst(&Inst::Halt, 32);
        assert_eq!(c.int_ops, 32);
        assert_eq!(c.fp_fma, 32);
        assert_eq!(c.fp_mul, 16);
        assert_eq!(c.fp_add, 8);
        assert_eq!(c.fp_special, 32);
        assert_eq!(c.fp_cmp, 4);
        assert_eq!(c.shared_ld, 32);
        assert_eq!(c.global_st, 32);
        assert_eq!(c.control, 32);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = PipeCounts {
            int_ops: 10,
            max_reconv_depth: 2,
            ..Default::default()
        };
        let b = PipeCounts {
            int_ops: 5,
            max_reconv_depth: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.int_ops, 15);
        assert_eq!(a.max_reconv_depth, 7);
    }
}
