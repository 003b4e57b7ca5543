//! # simt — deterministic SIMT warp interpreter
//!
//! The execution-semantics substitute for Volta hardware (DESIGN.md §2):
//! a register-VM kernel IR ([`ir`]) executed by 32-lane warps ([`warp`])
//! under either of the two scheduling models §2.1 of the paper contrasts:
//!
//! * **Lockstep** — Pascal-and-earlier implicit warp synchrony (and the
//!   "Pascal mode" `-gencode arch=compute_60,code=sm_70` on Volta),
//! * **Independent** — Volta independent thread scheduling, where
//!   divergent fragments interleave and only explicit `__syncwarp()` /
//!   barriers reconverge them.
//!
//! Blocks ([`block`]) add shared memory and `__syncthreads()`; grids
//! ([`grid`]) add global memory and grid-wide barriers, including the
//! Xiao–Feng lock-free barrier GOTHIC uses ([`barrier`], Appendix A).
//! [`carveout`] models the Volta shared-memory carveout API with its
//! floor-function pitfall; [`microbench`] holds the reduction/scan
//! kernels behind the Table 2 tuning study; [`prof`] holds the
//! nvprof-style per-pipe instruction counts every warp keeps, merged per
//! launch by [`Grid::profile`].

pub mod barrier;
pub mod block;
pub mod carveout;
pub mod grid;
pub mod ir;
pub mod microbench;
pub mod prof;
pub mod racecheck;
pub mod warp;

pub use barrier::{grid_sync_barrier, lockfree_barrier, BarrierRegs};
pub use block::{BlockOutcome, ThreadBlock};
pub use carveout::{carveout_capacity_kib, carveout_percent_for, CARVEOUT_CANDIDATES_KIB};
pub use grid::{Grid, GridStats};
pub use ir::{op_mnemonic, Inst, MaskSpec, Op, Program, Reg, Stmt, FULL_MASK};
pub use prof::{KernelProfile, PipeCounts};
pub use racecheck::{
    AccessKind, CollectiveSite, Hazard, HazardRecord, MemSpace, RaceKind, Racecheck,
    RacecheckConfig, RacecheckReport, SyncScope, Tid,
};
pub use warp::{
    ExecEnv, ExecError, Fragment, Scheduler, StepOutcome, Waiting, Warp, POISON, WARP_SIZE,
};
