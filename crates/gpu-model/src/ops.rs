//! Operation counters — the nvprof-metric bookkeeping of §4.2.
//!
//! The paper counts five instruction classes in the gravity kernel with
//! `nvprof` (`inst_integer`, `flop_count_sp_fma`, `flop_count_sp_add`,
//! `flop_count_sp_mul`, `flop_count_sp_special`; Fig. 6). [`OpCounts`]
//! carries those plus the memory-traffic and synchronization counts the
//! timing model needs.

use std::ops::{Add, AddAssign};

/// Instruction/traffic counts of one kernel execution (thread-level
/// lane-operation counts, like nvprof's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Integer lane-operations (`inst_integer`).
    pub int_ops: u64,
    /// Single-precision fused multiply-adds (`flop_count_sp_fma`, counted
    /// as instructions; one FMA = 2 Flops).
    pub fp_fma: u64,
    /// Single-precision multiplications.
    pub fp_mul: u64,
    /// Single-precision additions/subtractions.
    pub fp_add: u64,
    /// Special-function operations — reciprocal square roots here
    /// (`flop_count_sp_special`).
    pub fp_special: u64,
    /// Bytes read from global memory.
    pub ld_bytes: u64,
    /// Bytes written to global memory.
    pub st_bytes: u64,
    /// `__syncwarp()` executions (per warp). Zero in the Pascal mode.
    pub sync_warp: u64,
    /// `__syncthreads()` executions (per block).
    pub sync_block: u64,
    /// Grid-wide synchronizations.
    pub sync_grid: u64,
    /// Serialised dependent rounds (breadth-first traversal steps or scan
    /// levels) — drives the latency floor of the timing model.
    pub serial_rounds: u64,
    /// Launch-overhead units: 0/1 = one plain kernel launch; larger
    /// values model kernels with heavyweight spin-up (GOTHIC's walkTree
    /// is a persistent kernel that initialises per-SM traversal buffers
    /// and chunks over block-step levels at launch).
    pub launch_units: u64,
}

impl OpCounts {
    /// FP32 lane-operations executed on the CUDA cores (FMA + mul + add);
    /// the "FP32" series of Fig. 7.
    pub fn fp_core_ops(&self) -> u64 {
        self.fp_fma + self.fp_mul + self.fp_add
    }

    /// Flop count under the paper's convention: FMA = 2, mul = add = 1,
    /// reciprocal square root = 4 (§4.2: "the reciprocal square root
    /// corresponds to four Flops").
    pub fn flops(&self) -> u64 {
        2 * self.fp_fma + self.fp_mul + self.fp_add + 4 * self.fp_special
    }

    /// `max(integer, FP32)` of Fig. 7 — the per-unit count when INT and
    /// FP32 overlap perfectly (split pipes, Volta).
    pub fn overlap_max(&self) -> u64 {
        self.int_ops.max(self.fp_core_ops())
    }

    /// `integer + FP32` of Fig. 7 — the count when one unit serialises
    /// both (unified pipes, Pascal and earlier).
    pub fn serial_sum(&self) -> u64 {
        self.int_ops + self.fp_core_ops()
    }

    /// Total global-memory traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.ld_bytes + self.st_bytes
    }

    /// Scale every counter by `k` (e.g. per-event mix × event count).
    pub fn scaled(&self, k: u64) -> OpCounts {
        OpCounts {
            int_ops: self.int_ops * k,
            fp_fma: self.fp_fma * k,
            fp_mul: self.fp_mul * k,
            fp_add: self.fp_add * k,
            fp_special: self.fp_special * k,
            ld_bytes: self.ld_bytes * k,
            st_bytes: self.st_bytes * k,
            sync_warp: self.sync_warp * k,
            sync_block: self.sync_block * k,
            sync_grid: self.sync_grid * k,
            serial_rounds: self.serial_rounds * k,
            launch_units: self.launch_units,
        }
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, o: OpCounts) -> OpCounts {
        OpCounts {
            int_ops: self.int_ops + o.int_ops,
            fp_fma: self.fp_fma + o.fp_fma,
            fp_mul: self.fp_mul + o.fp_mul,
            fp_add: self.fp_add + o.fp_add,
            fp_special: self.fp_special + o.fp_special,
            ld_bytes: self.ld_bytes + o.ld_bytes,
            st_bytes: self.st_bytes + o.st_bytes,
            sync_warp: self.sync_warp + o.sync_warp,
            sync_block: self.sync_block + o.sync_block,
            sync_grid: self.sync_grid + o.sync_grid,
            serial_rounds: self.serial_rounds + o.serial_rounds,
            launch_units: self.launch_units.max(o.launch_units),
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        *self = *self + o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpCounts {
        OpCounts {
            int_ops: 10,
            fp_fma: 6,
            fp_mul: 3,
            fp_add: 4,
            fp_special: 1,
            ld_bytes: 128,
            st_bytes: 64,
            sync_warp: 2,
            sync_block: 1,
            sync_grid: 0,
            serial_rounds: 5,
            launch_units: 0,
        }
    }

    #[test]
    fn flop_convention_rsqrt_is_four() {
        let c = sample();
        // 2·6 + 3 + 4 + 4·1 = 23
        assert_eq!(c.flops(), 23);
    }

    #[test]
    fn overlap_vs_serial_counts() {
        let c = sample();
        assert_eq!(c.fp_core_ops(), 13);
        assert_eq!(c.overlap_max(), 13);
        assert_eq!(c.serial_sum(), 23);
        // An int-dominated kernel flips the max.
        let mut d = c;
        d.int_ops = 100;
        assert_eq!(d.overlap_max(), 100);
    }

    #[test]
    fn add_and_scale_are_consistent() {
        let c = sample();
        assert_eq!(c + c, c.scaled(2));
        let mut acc = OpCounts::default();
        for _ in 0..3 {
            acc += c;
        }
        assert_eq!(acc, c.scaled(3));
    }

    #[test]
    fn hiding_gain_matches_paper_intuition() {
        // When int ≈ half of fp, hiding integer work buys ~1.5×:
        // (int+fp)/max(int,fp) = (0.5+1)/1.
        let c = OpCounts {
            int_ops: 50,
            fp_fma: 40,
            fp_mul: 30,
            fp_add: 30,
            ..OpCounts::default()
        };
        let gain = c.serial_sum() as f64 / c.overlap_max() as f64;
        assert!((gain - 1.5).abs() < 1e-9);
    }
}
