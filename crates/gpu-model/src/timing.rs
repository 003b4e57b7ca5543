//! Analytic kernel timing model.
//!
//! Converts instruction counts ([`OpCounts`]) into predicted execution
//! times on a given [`GpuArch`]. The model is a bounded-resource roofline
//! with four floors plus additive synchronization terms:
//!
//! ```text
//! t = max(t_compute, t_memory, t_latency, t_issue)
//!     + 0.25·(second largest of those)       (imperfect overlap)
//!     + t_syncwarp (Volta mode only) + t_grid_syncs + t_launch
//! ```
//!
//! * `t_compute` — FP32/SFU/INT pipe occupancy. On **unified** pipes
//!   (Pascal and earlier) INT and FP32 serialise: `t_fp + t_int`. On
//!   **split** pipes (Volta) they overlap: `max(t_fp, t_int)` — this
//!   single line is the paper's §4.2 mechanism.
//! * `t_memory` — streaming traffic at measured bandwidth plus
//!   gather-type traffic (pointer-chasing node fetches) at a derated
//!   bandwidth, with a reuse factor for cached top-of-tree records.
//! * `t_latency` — dependent-round floor: each breadth-first queue round
//!   or tree level serialises a memory latency, hidden across resident
//!   warps.
//! * `t_issue` — warp-instruction issue floor (the binding constraint on
//!   Kepler's 192-core SMX, which is why its Fig. 1 curve deviates).

use crate::arch::GpuArch;
use crate::ops::OpCounts;

/// Execution mode on compute-capability-7.0 hardware (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// `-gencode arch=compute_60,code=sm_70`: implicit warp synchrony is
    /// enforced; `__syncwarp()` is never executed.
    PascalMode,
    /// `-gencode arch=compute_70,code=sm_70` (the CUDA default): explicit
    /// `__syncwarp()` / tiled syncs execute and cost issue slots.
    VoltaMode,
}

impl ExecMode {
    /// The command-line and protocol key of the mode.
    pub fn key(self) -> &'static str {
        match self {
            ExecMode::PascalMode => "pascal",
            ExecMode::VoltaMode => "volta",
        }
    }

    /// The mode whose [`ExecMode::key`] is `key`.
    pub fn by_key(key: &str) -> Result<ExecMode, String> {
        [ExecMode::PascalMode, ExecMode::VoltaMode]
            .into_iter()
            .find(|m| m.key() == key)
            .ok_or_else(|| format!("unknown mode {key}"))
    }
}

/// Grid-wide barrier implementation (Appendix A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridBarrier {
    /// GPU lock-free synchronization (Xiao & Feng 2010) — GOTHIC's
    /// original implementation.
    LockFree,
    /// CUDA 9 Cooperative Groups `grid.sync()`; costs more per sync and
    /// its compilation path raises register pressure (Appendix A measures
    /// 56 → 64 registers, 9 → 8 blocks/SM).
    CooperativeGroups,
}

/// Cost of one grid-wide synchronization in microseconds.
pub fn grid_sync_us(barrier: GridBarrier) -> f64 {
    match barrier {
        GridBarrier::LockFree => 2.0,
        // Appendix A: the additional cost of Cooperative Groups is
        // ≈ 2.3 × 10⁻⁵ s per synchronization.
        GridBarrier::CooperativeGroups => 2.0 + 23.0,
    }
}

/// Derating of the measured streaming bandwidth for gather-type (random
/// 32 B sector) accesses.
const GATHER_BW_FRACTION: f64 = 0.25;

/// Effective reuse of node records across Morton-adjacent warp-groups
/// (L1/L2 caching of the upper tree): only 1/REUSE of gather traffic
/// reaches DRAM.
const GATHER_REUSE: f64 = 8.0;

/// Resident warps per SM assumed available for latency hiding.
const HIDING_WARPS: f64 = 24.0;

/// Fraction of the second-largest floor that leaks into the total
/// (imperfect overlap between pipes).
const OVERLAP_LEAK: f64 = 0.25;

/// Per-component timing breakdown of one kernel, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTime {
    pub compute: f64,
    pub memory: f64,
    pub latency: f64,
    pub issue: f64,
    pub sync: f64,
    pub launch: f64,
    pub total: f64,
}

/// The resource that bounds a kernel in the roofline model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// FP/INT pipe occupancy (the paper's compute-bound regime, where
    /// the INT/FP overlap of §4.2 pays off).
    Compute,
    /// Global-memory bandwidth (where the V100/P100 ratio collapses to
    /// the measured-bandwidth line of Fig. 8).
    Memory,
    /// Dependent-round latency.
    Latency,
    /// Warp-instruction issue slots (Kepler's regime in Fig. 1).
    Issue,
    /// Fixed overheads (launch + synchronization) exceed all pipeline
    /// floors — the small-N flattening of Fig. 3.
    Overhead,
}

impl KernelTime {
    /// Which resource binds this kernel.
    pub fn limiting_factor(&self) -> Bound {
        let floors = [
            (self.compute, Bound::Compute),
            (self.memory, Bound::Memory),
            (self.latency, Bound::Latency),
            (self.issue, Bound::Issue),
        ];
        let (best, bound) = floors
            .into_iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap();
        if self.sync + self.launch > best {
            Bound::Overhead
        } else {
            bound
        }
    }
}

/// Predict the execution time of a kernel described by `ops` on `arch`.
///
/// `mode` is only meaningful on Volta hardware: on every earlier
/// architecture implicit warp synchrony holds and `sync_warp` counts are
/// ignored (the instruction never exists in those binaries). `barrier`
/// selects the grid-sync implementation cost.
pub fn kernel_time(
    arch: &GpuArch,
    mode: ExecMode,
    barrier: GridBarrier,
    ops: &OpCounts,
) -> KernelTime {
    let eff = arch.issue_efficiency;

    // Compute pipes.
    let t_fp = ops.fp_core_ops() as f64 / (eff * arch.fp32_ops_per_sec());
    let t_sfu = ops.fp_special as f64 / (eff * arch.sfu_ops_per_sec());
    let t_int = ops.int_ops as f64 / (eff * arch.int_ops_per_sec());
    let t_compute = if arch.has_split_int_pipe() {
        // Volta: INT32 units are independent — integer work hides under
        // floating-point work (or vice versa).
        t_fp.max(t_sfu).max(t_int)
    } else {
        // Pascal and earlier: CUDA cores execute both; they serialise.
        t_fp.max(t_sfu) + t_int
    };

    // Memory. Gather traffic (node records) is separated from streaming
    // traffic via the load side: we charge `ld_bytes` at the derated
    // gather bandwidth with cache reuse, and `st_bytes` (buffer appends,
    // result write-back — streaming) at full bandwidth.
    let bw = arch.mem_bw_gbs * 1e9;
    let t_memory =
        ops.ld_bytes as f64 / (bw * GATHER_BW_FRACTION * GATHER_REUSE) + ops.st_bytes as f64 / bw;

    // Latency floor.
    let clock_hz = arch.clock_ghz * 1e9;
    let t_latency = ops.serial_rounds as f64 * arch.mem_latency_cycles
        / (clock_hz * arch.n_sm as f64 * HIDING_WARPS);

    // Issue floor: warp-instructions = lane instructions / 32.
    let warp_insts = (ops.fp_core_ops() + ops.fp_special + ops.int_ops) as f64 / 32.0;
    let t_issue = warp_insts / (eff * arch.issue_slots_per_sec());

    // Largest floor plus a leak of the runner-up (pipes never overlap
    // perfectly).
    let mut floors = [t_compute, t_memory, t_latency, t_issue];
    floors.sort_by(|a, b| b.total_cmp(a));
    let t_base = floors[0] + OVERLAP_LEAK * floors[1];

    // Synchronization. `__syncwarp` only exists in Volta-mode binaries on
    // Volta hardware.
    let syncwarp_active = arch.has_split_int_pipe() && mode == ExecMode::VoltaMode;
    let t_syncwarp = if syncwarp_active {
        ops.sync_warp as f64 * arch.syncwarp_cycles
            / (clock_hz * arch.n_sm as f64 * arch.schedulers_per_sm as f64)
    } else {
        0.0
    };
    let t_grid = ops.sync_grid as f64 * grid_sync_us(barrier) * 1e-6;
    let t_block = ops.sync_block as f64 * 30.0 / (clock_hz * arch.n_sm as f64);
    let t_sync = t_syncwarp + t_grid + t_block;

    let t_launch = arch.launch_overhead_us * 1e-6 * ops.launch_units.max(1) as f64;
    KernelTime {
        compute: t_compute,
        memory: t_memory,
        latency: t_latency,
        issue: t_issue,
        sync: t_sync,
        launch: t_launch,
        total: t_base + t_sync + t_launch,
    }
}

/// Sustained single-precision performance in TFlop/s given a time.
pub fn sustained_tflops(ops: &OpCounts, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    ops.flops() as f64 / seconds / 1e12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_keys_round_trip() {
        for m in [ExecMode::PascalMode, ExecMode::VoltaMode] {
            assert_eq!(ExecMode::by_key(m.key()), Ok(m));
        }
        assert_eq!(
            ExecMode::by_key("turing").unwrap_err(),
            "unknown mode turing"
        );
    }

    /// A walkTree-like op profile: FP-heavy with INT ≈ half of FP.
    fn walk_like(scale: u64) -> OpCounts {
        OpCounts {
            int_ops: 65 * scale,
            fp_fma: 60 * scale,
            fp_mul: 30 * scale,
            fp_add: 40 * scale,
            fp_special: 10 * scale,
            ld_bytes: 8 * scale,
            st_bytes: 2 * scale,
            sync_warp: scale / 10,
            serial_rounds: scale / 2000,
            ..OpCounts::default()
        }
    }

    #[test]
    fn volta_hides_integer_work() {
        // Same op counts, compute-bound: V100 gains more than the peak
        // ratio over P100 because t_int hides under t_fp.
        let ops = walk_like(1_000_000_000);
        let v = GpuArch::tesla_v100();
        let p = GpuArch::tesla_p100();
        let tv = kernel_time(&v, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
        let tp = kernel_time(&p, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
        let speedup = tp.total / tv.total;
        let peak_ratio = v.peak_sp_tflops() / p.peak_sp_tflops();
        assert!(
            speedup > peak_ratio,
            "speedup {speedup} should exceed peak ratio {peak_ratio}"
        );
        assert!(speedup < 2.8, "speedup {speedup} unreasonably high");
    }

    #[test]
    fn volta_mode_is_slower_than_pascal_mode_on_v100() {
        let ops = walk_like(50_000_000);
        let v = GpuArch::tesla_v100();
        let tv = kernel_time(&v, ExecMode::VoltaMode, GridBarrier::LockFree, &ops);
        let tp = kernel_time(&v, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
        assert!(tv.total > tp.total);
        // §3: the gain is 1.1–1.2×; our mix here is synthetic, so accept a
        // loose band.
        let gain = tv.total / tp.total;
        assert!((1.0..1.5).contains(&gain), "gain {gain}");
    }

    #[test]
    fn mode_is_irrelevant_on_pre_volta_hardware() {
        let ops = walk_like(50_000_000);
        let p = GpuArch::tesla_p100();
        let a = kernel_time(&p, ExecMode::VoltaMode, GridBarrier::LockFree, &ops);
        let b = kernel_time(&p, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
        assert_eq!(a.total, b.total);
    }

    #[test]
    fn memory_bound_kernels_track_bandwidth_ratio() {
        // A huge-traffic, tiny-arithmetic kernel: the V100/P100 ratio
        // collapses toward the measured bandwidth ratio (Fig. 8's lower
        // line, and the cause of the Fig. 2 decline).
        let ops = OpCounts {
            st_bytes: 100_000_000_000,
            fp_add: 1000,
            ..OpCounts::default()
        };
        let v = GpuArch::tesla_v100();
        let p = GpuArch::tesla_p100();
        let tv = kernel_time(&v, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
        let tp = kernel_time(&p, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
        let speedup = tp.total / tv.total;
        let bw_ratio = v.mem_bw_gbs / p.mem_bw_gbs;
        assert!((speedup - bw_ratio).abs() < 0.05, "speedup {speedup}");
    }

    #[test]
    fn grid_sync_cost_matches_appendix_a() {
        // Appendix A: Cooperative Groups costs ≈ 2.3 × 10⁻⁵ s more per
        // grid synchronization than the lock-free barrier.
        let extra =
            grid_sync_us(GridBarrier::CooperativeGroups) - grid_sync_us(GridBarrier::LockFree);
        assert!((extra - 23.0).abs() < 1e-9);
    }

    #[test]
    fn launch_overhead_floors_small_kernels() {
        // An almost-empty kernel costs at least the launch overhead —
        // the flattening of Fig. 3 at small N.
        let ops = OpCounts {
            fp_add: 32,
            ..OpCounts::default()
        };
        let v = GpuArch::tesla_v100();
        let t = kernel_time(&v, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
        assert!(t.total >= v.launch_overhead_us * 1e-6);
        assert!(t.total < 2.0 * v.launch_overhead_us * 1e-6);
    }

    #[test]
    fn sustained_tflops_sanity() {
        let ops = OpCounts {
            fp_fma: 500_000_000_000,
            ..OpCounts::default()
        };
        // 1e12 Flops in 0.1 s = 10 TFlop/s.
        assert!((sustained_tflops(&ops, 0.1) - 10.0).abs() < 1e-9);
        assert_eq!(sustained_tflops(&ops, 0.0), 0.0);
    }

    #[test]
    fn kepler_is_issue_bound_on_compute_heavy_mixes() {
        // K20X: 192 lanes/SM but only 8 issue slots — t_issue exceeds
        // t_compute for lane-op-dense kernels, unlike on V100.
        let ops = walk_like(100_000_000);
        let k = kernel_time(
            &GpuArch::tesla_k20x(),
            ExecMode::PascalMode,
            GridBarrier::LockFree,
            &ops,
        );
        assert!(
            k.issue > k.compute,
            "issue {} compute {}",
            k.issue,
            k.compute
        );
        let v = kernel_time(
            &GpuArch::tesla_v100(),
            ExecMode::PascalMode,
            GridBarrier::LockFree,
            &ops,
        );
        assert!(v.issue < v.compute);
    }

    #[test]
    fn total_dominates_every_floor() {
        let ops = walk_like(10_000_000);
        for arch in GpuArch::paper_lineup() {
            let t = kernel_time(&arch, ExecMode::PascalMode, GridBarrier::LockFree, &ops);
            for floor in [t.compute, t.memory, t.latency, t.issue] {
                assert!(t.total >= floor, "{}", arch.name);
            }
        }
    }
}

#[cfg(test)]
mod bound_tests {
    use super::*;

    #[test]
    fn limiting_factor_identifies_each_regime() {
        let v100 = GpuArch::tesla_v100();
        // Compute-bound: huge FP work, no traffic.
        let t = kernel_time(
            &v100,
            ExecMode::PascalMode,
            GridBarrier::LockFree,
            &OpCounts {
                fp_fma: 10_000_000_000,
                int_ops: 1_000_000,
                ..OpCounts::default()
            },
        );
        assert_eq!(t.limiting_factor(), Bound::Compute);
        // Memory-bound: huge traffic, trivial arithmetic.
        let t = kernel_time(
            &v100,
            ExecMode::PascalMode,
            GridBarrier::LockFree,
            &OpCounts {
                st_bytes: 50_000_000_000,
                fp_add: 100,
                ..OpCounts::default()
            },
        );
        assert_eq!(t.limiting_factor(), Bound::Memory);
        // Overhead-bound: a near-empty kernel.
        let t = kernel_time(
            &v100,
            ExecMode::PascalMode,
            GridBarrier::LockFree,
            &OpCounts {
                fp_add: 10,
                ..OpCounts::default()
            },
        );
        assert_eq!(t.limiting_factor(), Bound::Overhead);
        // Latency-bound: dominated by serialised dependent rounds.
        let t = kernel_time(
            &v100,
            ExecMode::PascalMode,
            GridBarrier::LockFree,
            &OpCounts {
                serial_rounds: 50_000_000,
                fp_add: 10_000,
                ..OpCounts::default()
            },
        );
        assert_eq!(t.limiting_factor(), Bound::Latency);
    }

    /// Regression: a degenerate profile producing NaN floors must surface
    /// as a diagnostic, not a `partial_cmp().unwrap()` panic inside the
    /// floor sort (the pre-`total_cmp` behaviour).
    #[test]
    fn nan_floors_do_not_panic() {
        // A zero-bandwidth arch with zero traffic: t_memory = 0/0 = NaN.
        let broken = GpuArch {
            mem_bw_gbs: 0.0,
            ..GpuArch::tesla_v100()
        };
        let t = kernel_time(
            &broken,
            ExecMode::PascalMode,
            GridBarrier::LockFree,
            &OpCounts {
                fp_add: 1000,
                ..OpCounts::default()
            },
        );
        assert!(t.memory.is_nan(), "degenerate input should surface as NaN");
        // `total_cmp` gives NaN a deterministic place in the floor order
        // (sign-dependent) instead of a panic; the other floors still
        // combine into a finite total and the classification answers.
        let _ = t.limiting_factor();
        // Direct NaN floors in the classifier are likewise panic-free.
        let t = KernelTime {
            compute: f64::NAN,
            memory: f64::NAN,
            latency: f64::NAN,
            issue: f64::NAN,
            ..KernelTime::default()
        };
        let _ = t.limiting_factor();
    }

    #[test]
    fn kepler_walk_mix_is_issue_bound() {
        // The Fig. 1 Kepler anomaly: the same mix that is compute-bound
        // on V100 is issue-bound on K20X.
        let ops = OpCounts {
            int_ops: 6_500_000_000,
            fp_fma: 6_000_000_000,
            fp_mul: 3_000_000_000,
            fp_add: 4_000_000_000,
            fp_special: 1_000_000_000,
            ..OpCounts::default()
        };
        let on = |arch: &GpuArch| {
            kernel_time(arch, ExecMode::PascalMode, GridBarrier::LockFree, &ops).limiting_factor()
        };
        assert_eq!(on(&GpuArch::tesla_v100()), Bound::Compute);
        assert_eq!(on(&GpuArch::tesla_k20x()), Bound::Issue);
    }
}
