//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper: it runs the real octree code on a scaled-down M31 model,
//! records the per-step algorithm events, prices them on each GPU of
//! Fig. 1 with the `gpu-model` timing model, and prints the same
//! rows/series the paper reports, with the paper's reference values
//! alongside.
//!
//! Scale control (the paper uses N = 2²³ on real V100 silicon; the
//! default here is laptop-sized):
//!
//! * `GOTHIC_BENCH_N`      — particle count (default 8192),
//! * `GOTHIC_BENCH_STEPS`  — measured block steps per configuration
//!   (default 36),
//! * `GOTHIC_BENCH_WARMUP` — skipped leading steps (default 4),
//! * `GOTHIC_BENCH_FULL_SWEEP=1` — use every Δacc power of Figs. 1–2,
//! * `GOTHIC_BENCH_MAX_POW` — fig3's largest N as a power of two
//!   (default 14),
//! * `GOTHIC_BENCH_NO_REPORT=1` — print the table without writing
//!   `results/<name>.json`.
//!
//! The defaults are the scale `results/` was recorded at: each table
//! there is byte for byte what its binary prints with
//! `GOTHIC_BENCH_NO_REPORT=1`.

use gothic::galaxy::M31Model;
use gothic::gpu_model::{ExecMode, GpuArch, GridBarrier};
use gothic::nbody::ParticleSet;
use gothic::{Gothic, Profile, RebuildPolicy, RunConfig, RunSummary, StepEvents};

/// Scale configuration from the environment.
#[derive(Clone, Copy, Debug)]
pub struct BenchScale {
    pub n: usize,
    pub steps: u64,
    pub warmup: u64,
}

impl BenchScale {
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| -> u64 {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        BenchScale {
            n: get("GOTHIC_BENCH_N", 8192) as usize,
            steps: get("GOTHIC_BENCH_STEPS", 36),
            warmup: get("GOTHIC_BENCH_WARMUP", 4),
        }
    }
}

/// The Δacc sweep of Figs. 1–2 (2⁻¹ … 2⁻²⁰; a coarse default subset keeps
/// the runtime reasonable, `GOTHIC_BENCH_FULL_SWEEP=1` uses every power).
pub fn delta_acc_sweep() -> Vec<f32> {
    let full = std::env::var("GOTHIC_BENCH_FULL_SWEEP")
        .map(|v| v == "1")
        .unwrap_or(false);
    let exps: Vec<i32> = if full {
        (1..=20).collect()
    } else {
        vec![1, 2, 4, 6, 8, 9, 10, 12, 14, 16, 18, 20]
    };
    exps.into_iter().map(|e| 2.0f32.powi(-e)).collect()
}

/// Sample the M31 model once per N (deterministic seed).
pub fn m31_particles(n: usize) -> ParticleSet {
    M31Model::paper_model().sample(n, 20_190_807)
}

/// Averaged per-step record of one measured configuration.
#[derive(Clone, Debug)]
pub struct MeasuredRun {
    pub delta_acc: f32,
    pub n: usize,
    /// Mean events per block step (rebuild cost amortised over steps).
    pub mean_events: StepEvents,
    /// Mean interval in steps between the run's tree builds, from the
    /// build every run starts with (in the warm-up) to the last one;
    /// `None` if the tree was never rebuilt after it.
    pub mean_rebuild_interval: Option<f64>,
    /// The whole run, set-up and warm-up steps included: the source of a
    /// report's counters.
    pub summary: RunSummary,
}

/// Run one configuration and average the recorded events over the
/// measured steps. Auto-tuning is active unless `fixed_rebuild` pins the
/// interval (the paper's Fig. 6 methodology: nvprof runs disable the
/// auto-tuner and fix the interval).
pub fn measure(
    ps: ParticleSet,
    delta_acc: f32,
    scale: &BenchScale,
    fixed_rebuild: Option<u32>,
) -> MeasuredRun {
    let mut cfg = RunConfig::with_delta_acc(delta_acc);
    if let Some(k) = fixed_rebuild {
        cfg.rebuild = RebuildPolicy::Fixed(k);
    }
    let n = ps.len();
    let mut sim = Gothic::new(ps, cfg);
    let mut events_acc = EventAcc::default();
    let mut measured = 0u64;
    let mut rebuild_steps: Vec<u64> = Vec::new();
    for s in 0..(scale.warmup + scale.steps) {
        let rep = sim.step();
        if rep.rebuilt {
            rebuild_steps.push(rep.step);
        }
        if s < scale.warmup {
            continue;
        }
        measured += 1;
        events_acc.add(&rep.events);
    }
    let mean_rebuild_interval = match rebuild_steps[..] {
        [first, .., last] => Some((last - first) as f64 / (rebuild_steps.len() - 1) as f64),
        _ => None,
    };
    MeasuredRun {
        delta_acc,
        n,
        mean_events: events_acc.mean(measured),
        mean_rebuild_interval,
        summary: sim.summary().clone(),
    }
}

/// Price a measured run's mean step on an architecture/mode/barrier.
pub fn price(run: &MeasuredRun, arch: &GpuArch, mode: ExecMode, barrier: GridBarrier) -> Profile {
    gothic::price_step(&run.mean_events, arch, mode, barrier)
}

/// The paper's particle count, N = 2²³.
pub const PAPER_N: u64 = 1 << 23;

/// Extrapolate a measured mean step from the scaled N to a target N.
///
/// Per-particle event *rates* (interactions per sink, MAC evaluations per
/// group, …) are treated as N-independent — they actually grow ∝ log N
/// in a Barnes–Hut walk, so the extrapolation slightly under-counts the
/// paper-scale work; EXPERIMENTS.md documents this. Counts that scale
/// with tree *depth* (levels, grid syncs, sort passes) grow by log₈ of
/// the scale factor instead.
pub fn extrapolate_events(ev: &StepEvents, from_n: u64, to_n: u64) -> StepEvents {
    ev.scaled_to(from_n, to_n)
}

/// Price a measured run extrapolated to the paper's N = 2²³ regime —
/// used by the figures whose reference numbers were taken there.
pub fn price_paper_scale(
    run: &MeasuredRun,
    arch: &GpuArch,
    mode: ExecMode,
    barrier: GridBarrier,
) -> Profile {
    let ev = extrapolate_events(&run.mean_events, run.n as u64, PAPER_N);
    gothic::price_step(&ev, arch, mode, barrier)
}

/// Accumulator averaging `StepEvents` (make-tree costs are amortised over
/// all steps, matching the paper's time-per-step accounting).
#[derive(Clone, Copy, Debug, Default)]
pub struct EventAcc {
    /// The steps folded by [`StepEvents::merge`].
    sum: StepEvents,
    /// Sums of the per-step values `merge` keeps the maximum of, which a
    /// mean step averages instead.
    peaks: [u64; 2],
}

/// The per-step values [`EventAcc`] sums although `merge` keeps their
/// maximum.
fn peaks(ev: &mut StepEvents) -> [&mut u64; 2] {
    [&mut ev.walk.peak_queue_len, &mut ev.calc.levels]
}

impl EventAcc {
    pub fn add(&mut self, ev: &StepEvents) {
        self.sum.merge(ev);
        let mut ev = *ev;
        for (sum, v) in self.peaks.iter_mut().zip(peaks(&mut ev)) {
            *sum += *v;
        }
    }

    /// Mean events per step over `steps` steps (rebuild cost amortised),
    /// each rounded half up. A rebuild's sort passes are kept as the
    /// builds recorded them.
    pub fn mean(&self, steps: u64) -> StepEvents {
        let steps = steps.max(1);
        let div = |x: u64| (x + steps / 2) / steps;
        let mut ev = self.sum.map_counts(div);
        for (v, sum) in peaks(&mut ev).into_iter().zip(self.peaks) {
            *v = div(sum);
        }
        ev
    }
}

/// The Δacc axis label used across the figure binaries.
pub fn fmt_dacc(d: f32) -> String {
    format!("2^{}", d.log2().round() as i32)
}

/// Print a standard figure header.
pub fn figure_header(title: &str, scale: &BenchScale) {
    println!("# {title}");
    println!(
        "# scaled reproduction: N = {} ({} measured steps after {} warm-up); \
         the paper used N = 2^23 = 8388608 on real silicon",
        scale.n, scale.steps, scale.warmup
    );
}

/// Mode/arch combos of Fig. 1, with the paper's curve labels.
pub fn fig1_configs() -> Vec<(String, GpuArch, ExecMode)> {
    vec![
        (
            "Tesla V100 (SXM2, compute_60)".into(),
            GpuArch::tesla_v100(),
            ExecMode::PascalMode,
        ),
        (
            "Tesla V100 (SXM2, compute_70)".into(),
            GpuArch::tesla_v100(),
            ExecMode::VoltaMode,
        ),
        (
            "Tesla P100 (SXM2)".into(),
            GpuArch::tesla_p100(),
            ExecMode::PascalMode,
        ),
        (
            "GeForce GTX TITAN X".into(),
            GpuArch::gtx_titan_x(),
            ExecMode::PascalMode,
        ),
        (
            "Tesla K20X".into(),
            GpuArch::tesla_k20x(),
            ExecMode::PascalMode,
        ),
        (
            "Tesla M2090".into(),
            GpuArch::tesla_m2090(),
            ExecMode::PascalMode,
        ),
    ]
}

/// Default barrier for pricing.
pub fn default_barrier() -> GridBarrier {
    GridBarrier::LockFree
}

/// Start a structured run report for a table/figure binary, pre-filled
/// with the scale metadata, with counter collection switched on so the
/// registry part of the report's `counters` section reflects the run
/// (the binaries add each measured run's own counters and histograms).
pub fn report(name: &str, scale: &BenchScale) -> telemetry::RunReport {
    telemetry::set_metrics_enabled(true);
    telemetry::metrics::reset_all();
    let mut r = telemetry::RunReport::new(name);
    r.meta_u64("n", scale.n as u64)
        .meta_u64("steps", scale.steps)
        .meta_u64("warmup", scale.warmup);
    r
}

/// Write a report to `results/<name>.json` (set `GOTHIC_BENCH_NO_REPORT=1`
/// to suppress, e.g. in read-only checkouts).
pub fn write_report(r: &telemetry::RunReport) {
    if std::env::var("GOTHIC_BENCH_NO_REPORT")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return;
    }
    if let Err(e) = r.write() {
        eprintln!("bench: cannot write results/{}.json: {e}", r.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gothic::gpu_model::MakeTreeEvents;

    #[test]
    fn event_acc_averages() {
        let mut acc = EventAcc::default();
        let mut ev = StepEvents::default();
        ev.walk.interactions = 100;
        ev.walk.peak_queue_len = 2;
        ev.calc.levels = 10;
        ev.predict.particles = 1;
        ev.correct.particles = 10;
        acc.add(&ev);
        assert!(acc.mean(1).make.is_none());
        ev.walk.interactions = 300;
        ev.walk.peak_queue_len = 6;
        ev.calc.levels = 20;
        ev.predict.particles = 2;
        ev.make = Some(MakeTreeEvents {
            particles: 100,
            sort_passes: 8,
            nodes_created: 0,
        });
        acc.add(&ev);
        let mean = acc.mean(2);
        assert_eq!(mean.walk.interactions, 200);
        assert_eq!(mean.correct.particles, 10);
        // Peaks are averaged over the steps, not kept at their maximum.
        assert_eq!(mean.walk.peak_queue_len, 4);
        assert_eq!(mean.calc.levels, 15);
        // An exact half rounds up.
        assert_eq!(mean.predict.particles, 2);
        // One rebuild in two steps: its work is amortised over both, its
        // sort passes are the build's own.
        let make = mean.make.expect("one step rebuilt");
        assert_eq!((make.particles, make.sort_passes), (50, 8));
    }

    /// A mean step's `sort_passes` is the one value every build records
    /// (CUB runs all 8 digit passes), so averaging it over the rebuild
    /// steps and taking its maximum agree. This pins that it is one value.
    #[test]
    fn every_build_records_eight_sort_passes() {
        let cfg = RunConfig {
            rebuild: RebuildPolicy::Fixed(2),
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(m31_particles(2048), cfg);
        let builds: Vec<_> = (0..6).filter_map(|_| sim.step().events.make).collect();
        assert!(builds.len() >= 2, "{} rebuilds", builds.len());
        assert!(builds.iter().all(|m| m.sort_passes == 8), "{builds:?}");
    }

    #[test]
    fn sweep_covers_paper_range() {
        let sweep = delta_acc_sweep();
        assert!(sweep.len() >= 10);
        assert!(sweep.iter().any(|&d| (d - 0.5).abs() < 1e-6));
        assert!(sweep.iter().any(|&d| (d - 2.0f32.powi(-20)).abs() < 1e-12));
        // Fiducial Δacc = 2⁻⁹ present.
        assert!(sweep.iter().any(|&d| (d - 2.0f32.powi(-9)).abs() < 1e-9));
    }

    /// The rebuild interval counts the build every run makes at its
    /// first step: a fixed interval of 3 over 1 + 8 steps builds at
    /// steps 1, 4 and 7, and a run that never rebuilds measures none.
    #[test]
    fn rebuild_interval_counts_the_first_build() {
        let scale = BenchScale {
            n: 2048,
            steps: 8,
            warmup: 1,
        };
        let interval = |k| {
            measure(m31_particles(2048), 2.0f32.powi(-6), &scale, Some(k)).mean_rebuild_interval
        };
        assert_eq!(interval(3), Some(3.0));
        assert_eq!(interval(100), None);
    }

    #[test]
    fn measure_small_run_smoke() {
        let ps = m31_particles(2048);
        let scale = BenchScale {
            n: 2048,
            steps: 4,
            warmup: 1,
        };
        let run = measure(ps, 2.0f32.powi(-6), &scale, None);
        assert!(run.mean_events.walk.interactions > 0);
        assert_eq!(run.summary.steps, 5, "warm-up steps count too");
        let counters = run.summary.counters();
        assert!(counters
            .iter()
            .any(|&(name, n)| name == "pipeline.active_particles" && n > 0));
        let p = price(
            &run,
            &GpuArch::tesla_v100(),
            ExecMode::PascalMode,
            GridBarrier::LockFree,
        );
        assert!(p.total_seconds() > 0.0);
    }
}
