//! GPU architecture descriptors.
//!
//! One descriptor per GPU the paper measures (Table 1 and the Fig. 1
//! legend). The quantities are taken from the vendor specifications and
//! the measured-bandwidth values the paper's Fig. 8 refers to; the two
//! calibration fields (`issue_efficiency`, `syncwarp_cycles`) are fixed
//! once, globally, in this file — the per-figure harnesses never touch
//! them.

/// GPU micro-architecture generation (compute-capability major number).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generation {
    /// CC 2.x (Tesla M2090).
    Fermi,
    /// CC 3.x (Tesla K20X).
    Kepler,
    /// CC 5.x (GeForce GTX TITAN X).
    Maxwell,
    /// CC 6.x (Tesla P100).
    Pascal,
    /// CC 7.0 (Tesla V100).
    Volta,
}

/// Integer-pipe organisation of one SM.
///
/// On Pascal and earlier, integer instructions execute on the same CUDA
/// cores as FP32 instructions, so INT and FP32 work *serialises*. Volta
/// dedicates separate INT32 units, letting INT and FP32 instructions issue
/// in the same cycle — the root cause of the paper's above-peak-ratio
/// speed-up (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntPipe {
    /// INT shares the FP32 units (Pascal and earlier).
    Unified,
    /// Dedicated INT32 units per SM (Volta).
    Split { units_per_sm: u32 },
}

/// Static description of one GPU.
#[derive(Clone, Debug)]
pub struct GpuArch {
    pub name: &'static str,
    pub generation: Generation,
    /// Number of streaming multiprocessors.
    pub n_sm: u32,
    /// Sustained core clock in GHz.
    pub clock_ghz: f64,
    /// FP32 lanes (CUDA cores) per SM.
    pub fp32_per_sm: u32,
    /// Special-function units per SM (rsqrt/sin/…).
    pub sfu_per_sm: u32,
    /// Warp schedulers per SM (warp-instruction issue slots per cycle).
    pub schedulers_per_sm: u32,
    /// Integer-pipe organisation.
    pub int_pipe: IntPipe,
    /// Measured (STREAM-like) global-memory bandwidth, GB/s. The paper's
    /// Fig. 8 uses the *measured* bandwidth ratio, not the spec sheet.
    pub mem_bw_gbs: f64,
    /// Global memory capacity in GiB.
    pub global_mem_gib: f64,
    /// Global-memory access latency in cycles.
    pub mem_latency_cycles: f64,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Shared memory per SM in KiB (maximum configurable).
    pub shared_per_sm_kib: u32,
    /// Hardware limit on resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Hardware limit on resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Fraction of peak issue rate the memory-latency-tolerant tree kernels
    /// sustain in practice (captures occupancy & dependency stalls).
    pub issue_efficiency: f64,
    /// Issue-slot cost of one `__syncwarp()` executed by a warp, cycles.
    /// Only paid in the Volta execution mode (the Pascal mode compiles the
    /// syncs away; §4.1).
    pub syncwarp_cycles: f64,
    /// Kernel launch/teardown overhead in microseconds.
    pub launch_overhead_us: f64,
}

impl GpuArch {
    /// Single-precision theoretical peak in TFlop/s:
    /// `2 × n_sm × fp32_per_sm × clock`.
    pub fn peak_sp_tflops(&self) -> f64 {
        2.0 * self.n_sm as f64 * self.fp32_per_sm as f64 * self.clock_ghz / 1e3
    }

    /// FP32 lane-operations the whole chip retires per second.
    pub fn fp32_ops_per_sec(&self) -> f64 {
        self.n_sm as f64 * self.fp32_per_sm as f64 * self.clock_ghz * 1e9
    }

    /// SFU operations per second (rsqrt throughput).
    pub fn sfu_ops_per_sec(&self) -> f64 {
        self.n_sm as f64 * self.sfu_per_sm as f64 * self.clock_ghz * 1e9
    }

    /// Integer lane-operations per second, and whether they contend with
    /// FP32 for issue bandwidth.
    pub fn int_ops_per_sec(&self) -> f64 {
        match self.int_pipe {
            IntPipe::Unified => self.fp32_ops_per_sec(),
            IntPipe::Split { units_per_sm } => {
                self.n_sm as f64 * units_per_sm as f64 * self.clock_ghz * 1e9
            }
        }
    }

    /// True when INT32 work can overlap FP32 work (Volta).
    pub fn has_split_int_pipe(&self) -> bool {
        matches!(self.int_pipe, IntPipe::Split { .. })
    }

    /// Warp-instructions the chip can issue per second.
    pub fn issue_slots_per_sec(&self) -> f64 {
        self.n_sm as f64 * self.schedulers_per_sm as f64 * self.clock_ghz * 1e9
    }

    /// Tesla V100 (SXM2): the Volta flagship of Table 1.
    pub fn tesla_v100() -> Self {
        GpuArch {
            name: "Tesla V100 (SXM2)",
            generation: Generation::Volta,
            n_sm: 80,
            clock_ghz: 1.530,
            fp32_per_sm: 64,
            sfu_per_sm: 16,
            schedulers_per_sm: 4,
            int_pipe: IntPipe::Split { units_per_sm: 64 },
            mem_bw_gbs: 855.0,
            global_mem_gib: 16.0,
            mem_latency_cycles: 400.0,
            regs_per_sm: 65_536,
            shared_per_sm_kib: 96,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            issue_efficiency: 0.62,
            syncwarp_cycles: 28.0,
            launch_overhead_us: 6.0,
        }
    }

    /// Tesla P100 (SXM2): the Pascal flagship of Table 1.
    pub fn tesla_p100() -> Self {
        GpuArch {
            name: "Tesla P100 (SXM2)",
            generation: Generation::Pascal,
            n_sm: 56,
            clock_ghz: 1.480,
            fp32_per_sm: 64,
            sfu_per_sm: 16,
            // 2 schedulers x dual dispatch.
            schedulers_per_sm: 4,
            int_pipe: IntPipe::Unified,
            mem_bw_gbs: 732.0,
            global_mem_gib: 16.0,
            mem_latency_cycles: 450.0,
            regs_per_sm: 65_536,
            shared_per_sm_kib: 64,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            issue_efficiency: 0.62,
            syncwarp_cycles: 28.0,
            launch_overhead_us: 6.0,
        }
    }

    /// GeForce GTX TITAN X (Maxwell), measured by the GOTHIC paper \[14\].
    pub fn gtx_titan_x() -> Self {
        GpuArch {
            name: "GeForce GTX TITAN X",
            generation: Generation::Maxwell,
            n_sm: 24,
            clock_ghz: 1.000,
            fp32_per_sm: 128,
            sfu_per_sm: 32,
            schedulers_per_sm: 4,
            int_pipe: IntPipe::Unified,
            mem_bw_gbs: 264.0,
            global_mem_gib: 12.0,
            mem_latency_cycles: 500.0,
            regs_per_sm: 65_536,
            shared_per_sm_kib: 96,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            issue_efficiency: 0.58,
            syncwarp_cycles: 28.0,
            launch_overhead_us: 8.0,
        }
    }

    /// Tesla K20X (Kepler). Kepler's 192-core SMX is notoriously hard to
    /// keep fed (6 lanes per scheduler dispatch), which is why its curve
    /// in Fig. 1 deviates from the common shape: the issue floor, not the
    /// FP pipe, limits the high-accuracy regime.
    pub fn tesla_k20x() -> Self {
        GpuArch {
            name: "Tesla K20X",
            generation: Generation::Kepler,
            n_sm: 14,
            clock_ghz: 0.732,
            fp32_per_sm: 192,
            sfu_per_sm: 32,
            schedulers_per_sm: 4,
            int_pipe: IntPipe::Unified,
            mem_bw_gbs: 180.0,
            global_mem_gib: 6.0,
            mem_latency_cycles: 600.0,
            regs_per_sm: 65_536,
            shared_per_sm_kib: 48,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            issue_efficiency: 0.38,
            syncwarp_cycles: 28.0,
            launch_overhead_us: 10.0,
        }
    }

    /// Tesla M2090 (Fermi).
    pub fn tesla_m2090() -> Self {
        GpuArch {
            name: "Tesla M2090",
            generation: Generation::Fermi,
            n_sm: 16,
            clock_ghz: 1.301,
            fp32_per_sm: 32,
            sfu_per_sm: 4,
            // 2 schedulers; the 32 hot-clocked cores need only 1 warp/cycle.
            schedulers_per_sm: 2,
            int_pipe: IntPipe::Unified,
            mem_bw_gbs: 120.0,
            global_mem_gib: 6.0,
            mem_latency_cycles: 600.0,
            regs_per_sm: 32_768,
            shared_per_sm_kib: 48,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            issue_efficiency: 0.55,
            syncwarp_cycles: 28.0,
            launch_overhead_us: 10.0,
        }
    }

    /// The GPUs of the paper's Fig. 1, newest first.
    pub fn paper_lineup() -> Vec<GpuArch> {
        ARCH_KEYS.iter().map(|(_, arch)| arch()).collect()
    }

    /// The Fig. 1 GPU named by the command-line and protocol key `key`
    /// (`v100`, `p100`, `titanx`, `k20x` or `m2090`).
    pub fn by_key(key: &str) -> Result<GpuArch, String> {
        ARCH_KEYS
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, arch)| arch())
            .ok_or_else(|| format!("unknown arch {key}"))
    }
}

type Constructor = fn() -> GpuArch;

/// The key and constructor of each Fig. 1 GPU, newest first.
const ARCH_KEYS: [(&str, Constructor); 5] = [
    ("v100", GpuArch::tesla_v100),
    ("p100", GpuArch::tesla_p100),
    ("titanx", GpuArch::gtx_titan_x),
    ("k20x", GpuArch::tesla_k20x),
    ("m2090", GpuArch::tesla_m2090),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_name_the_paper_lineup() {
        let keyed: Vec<&str> = ["v100", "p100", "titanx", "k20x", "m2090"]
            .iter()
            .map(|k| GpuArch::by_key(k).unwrap().name)
            .collect();
        let lineup: Vec<&str> = GpuArch::paper_lineup().iter().map(|a| a.name).collect();
        assert_eq!(keyed, lineup);
        assert_eq!(GpuArch::by_key("h100").unwrap_err(), "unknown arch h100");
    }

    #[test]
    fn v100_peak_matches_spec() {
        // §1: "single-precision theoretical peak performance of Tesla V100
        // is 15.7 TFlop/s".
        let v = GpuArch::tesla_v100();
        assert!(
            (v.peak_sp_tflops() - 15.67).abs() < 0.05,
            "{}",
            v.peak_sp_tflops()
        );
    }

    #[test]
    fn p100_peak_matches_spec() {
        let p = GpuArch::tesla_p100();
        assert!(
            (p.peak_sp_tflops() - 10.6).abs() < 0.1,
            "{}",
            p.peak_sp_tflops()
        );
    }

    #[test]
    fn peak_ratio_is_one_and_a_half() {
        // §1: V100 is "1.5 times higher in comparison with Tesla P100".
        let r = GpuArch::tesla_v100().peak_sp_tflops() / GpuArch::tesla_p100().peak_sp_tflops();
        assert!((r - 1.48).abs() < 0.03, "ratio = {r}");
    }

    #[test]
    fn core_counts_match_table1() {
        // Table 1: V100 has 5120 cores, P100 has 3584.
        let v = GpuArch::tesla_v100();
        assert_eq!(v.n_sm * v.fp32_per_sm, 5120);
        let p = GpuArch::tesla_p100();
        assert_eq!(p.n_sm * p.fp32_per_sm, 3584);
    }

    #[test]
    fn sm_increase_is_the_stated_driver() {
        // §1: "increase in the number of streaming multiprocessors from
        // 56 to 80"; §3: V100 has ~1.4× more SMs.
        let v = GpuArch::tesla_v100();
        let p = GpuArch::tesla_p100();
        assert_eq!(p.n_sm, 56);
        assert_eq!(v.n_sm, 80);
        assert!((v.n_sm as f64 / p.n_sm as f64 - 1.43).abs() < 0.01);
    }

    #[test]
    fn only_volta_splits_the_int_pipe() {
        for a in GpuArch::paper_lineup() {
            assert_eq!(
                a.has_split_int_pipe(),
                a.generation == Generation::Volta,
                "{}",
                a.name
            );
        }
    }

    #[test]
    fn bandwidth_ratio_below_peak_ratio() {
        // Fig. 8: the measured-bandwidth ratio line sits well below the
        // peak-performance ratio line.
        let v = GpuArch::tesla_v100();
        let p = GpuArch::tesla_p100();
        let bw_ratio = v.mem_bw_gbs / p.mem_bw_gbs;
        let peak_ratio = v.peak_sp_tflops() / p.peak_sp_tflops();
        assert!(bw_ratio < peak_ratio);
        assert!(bw_ratio > 1.0);
    }

    #[test]
    fn older_gpus_are_strictly_slower_in_peak() {
        let lineup = GpuArch::paper_lineup();
        for w in lineup.windows(2) {
            assert!(
                w[0].peak_sp_tflops() > w[1].peak_sp_tflops(),
                "{} vs {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn m2090_peak_matches_spec() {
        // Fermi M2090: 512 cores at 1.3 GHz ⇒ 1.33 TFlop/s.
        let m = GpuArch::tesla_m2090();
        assert_eq!(m.n_sm * m.fp32_per_sm, 512);
        assert!((m.peak_sp_tflops() - 1.33).abs() < 0.01);
    }
}
