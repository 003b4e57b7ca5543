//! Per-function cost accounting — the breakdown of Figs. 3, 4 and 5.
//!
//! Each block step records the *algorithm events* of the five
//! representative functions (Table 2: `walkTree`, `calcNode`, `makeTree`,
//! `predict`, `correct`); [`price_step`] converts them to modeled
//! execution times on any architecture / execution mode, so one recorded
//! run prices every GPU of Fig. 1 without re-simulating.

use gpu_model::{
    kernel_time, CalcNodeEvents, ExecMode, GpuArch, GridBarrier, IntegrateEvents, MakeTreeEvents,
    OpCounts, WalkEvents,
};

/// The five representative functions of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Function {
    WalkTree,
    CalcNode,
    MakeTree,
    Predict,
    Correct,
}

impl Function {
    pub const ALL: [Function; 5] = [
        Function::WalkTree,
        Function::CalcNode,
        Function::MakeTree,
        Function::Predict,
        Function::Correct,
    ];

    /// Display name as in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Function::WalkTree => "walk tree",
            Function::CalcNode => "calc node",
            Function::MakeTree => "make tree",
            Function::Predict => "predict",
            Function::Correct => "correct",
        }
    }
}

/// Algorithm events of one block step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepEvents {
    pub walk: WalkEvents,
    pub calc: CalcNodeEvents,
    /// Present only on rebuild steps.
    pub make: Option<MakeTreeEvents>,
    pub predict: IntegrateEvents,
    pub correct: IntegrateEvents,
}

impl StepEvents {
    /// Fold another step's events into these: the one rule for combining
    /// steps. Counts add; the peak queue length, tree levels and sort
    /// passes keep their maximum. The result has make-tree events if
    /// either side rebuilt.
    pub fn merge(&mut self, o: &StepEvents) {
        self.walk.merge(&o.walk);
        self.calc.merge(&o.calc);
        if let Some(m) = &o.make {
            self.make
                .get_or_insert_with(MakeTreeEvents::default)
                .merge(m);
        }
        self.predict.merge(&o.predict);
        self.correct.merge(&o.correct);
    }

    /// Apply `f` to every count [`StepEvents::merge`] adds; the values it
    /// keeps the maximum of are left as they are.
    pub fn map_counts(&self, f: impl Fn(u64) -> u64) -> StepEvents {
        let mut out = *self;
        let (w, c) = (&mut out.walk, &mut out.calc);
        let make = out
            .make
            .as_mut()
            .map(|m| [&mut m.particles, &mut m.nodes_created]);
        let counts = [
            &mut w.groups,
            &mut w.sinks,
            &mut w.interactions,
            &mut w.mac_evals,
            &mut w.list_pushes,
            &mut w.opens,
            &mut w.queue_rounds,
            &mut w.flushes,
            &mut c.nodes,
            &mut c.child_accumulations,
            &mut c.grid_syncs,
            &mut out.predict.particles,
            &mut out.correct.particles,
        ];
        for x in counts.into_iter().chain(make.into_iter().flatten()) {
            *x = f(*x);
        }
        out
    }

    /// Extrapolate this step from a run with `from_n` particles to a run
    /// with `to_n`, holding the per-particle event *rates* fixed (they
    /// actually grow ∝ log N in a Barnes–Hut walk, so this slightly
    /// under-counts when scaling up). Depth-coupled counts (tree levels,
    /// grid synchronizations) grow by log₈ of the scale factor.
    ///
    /// This is how the scaled-down benchmark runs are compared against
    /// the paper's N = 2²³ measurements — fixed kernel overheads would
    /// otherwise dominate toy problem sizes and flatten every
    /// architecture ratio toward 1.
    pub fn scaled_to(&self, from_n: u64, to_n: u64) -> StepEvents {
        let f = to_n as f64 / from_n as f64;
        let depth_extra = (f.ln() / 8f64.ln()).round().max(0.0) as u64;
        let mut out = self.map_counts(|x| (x as f64 * f).round() as u64);
        out.calc.levels += depth_extra;
        out.calc.grid_syncs = self.calc.grid_syncs + depth_extra;
        out
    }
}

/// Modeled cost of one function over one or more steps.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelCost {
    /// Modeled execution time, seconds.
    pub seconds: f64,
    /// Instruction counts.
    pub ops: OpCounts,
    /// Kernel invocations.
    pub calls: u64,
}

impl KernelCost {
    pub fn add(&mut self, o: &KernelCost) {
        self.seconds += o.seconds;
        self.ops += o.ops;
        self.calls += o.calls;
    }
}

/// Per-function cost profile.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Profile {
    pub walk_tree: KernelCost,
    pub calc_node: KernelCost,
    pub make_tree: KernelCost,
    pub predict: KernelCost,
    pub correct: KernelCost,
}

impl Profile {
    /// Total modeled seconds across functions.
    pub fn total_seconds(&self) -> f64 {
        Function::ALL.iter().map(|&f| self.get(f).seconds).sum()
    }

    /// Accumulate another profile.
    pub fn add(&mut self, o: &Profile) {
        for f in Function::ALL {
            self.get_mut(f).add(o.get(f));
        }
    }

    /// Access by function id.
    pub fn get(&self, f: Function) -> &KernelCost {
        match f {
            Function::WalkTree => &self.walk_tree,
            Function::CalcNode => &self.calc_node,
            Function::MakeTree => &self.make_tree,
            Function::Predict => &self.predict,
            Function::Correct => &self.correct,
        }
    }

    fn get_mut(&mut self, f: Function) -> &mut KernelCost {
        match f {
            Function::WalkTree => &mut self.walk_tree,
            Function::CalcNode => &mut self.calc_node,
            Function::MakeTree => &mut self.make_tree,
            Function::Predict => &mut self.predict,
            Function::Correct => &mut self.correct,
        }
    }
}

/// Price the events of one step on a given architecture / mode / barrier.
///
/// `volta_mode` semantics: `__syncwarp()` instructions exist only in
/// Volta-mode binaries, and only Volta hardware runs them (the mode flag
/// is ignored by `kernel_time` on earlier GPUs, but the instruction
/// stream itself must also match — pre-Volta binaries never contain the
/// syncs, so events are expanded with `volta_mode = false` there).
pub fn price_step(
    ev: &StepEvents,
    arch: &GpuArch,
    mode: ExecMode,
    barrier: GridBarrier,
) -> Profile {
    let volta_binary = arch.has_split_int_pipe() && mode == ExecMode::VoltaMode;
    let mut p = Profile::default();
    for f in Function::ALL {
        let ops = match f {
            Function::WalkTree => ev.walk.to_ops(volta_binary),
            Function::CalcNode => ev.calc.to_ops(volta_binary),
            Function::MakeTree => match &ev.make {
                Some(make) => make.to_ops(volta_binary),
                None => continue,
            },
            Function::Predict => ev.predict.to_ops(volta_binary),
            Function::Correct => ev.correct.to_ops(volta_binary),
        };
        *p.get_mut(f) = KernelCost {
            seconds: kernel_time(arch, mode, barrier, &ops).total,
            ops,
            calls: 1,
        };
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> StepEvents {
        StepEvents {
            walk: WalkEvents {
                groups: 8_000,
                sinks: 256_000,
                interactions: 180_000_000,
                mac_evals: 6_000_000,
                list_pushes: 5_600_000,
                opens: 900_000,
                queue_rounds: 250_000,
                flushes: 30_000,
                peak_queue_len: 700,
            },
            calc: CalcNodeEvents {
                nodes: 40_000,
                child_accumulations: 70_000,
                levels: 14,
                grid_syncs: 15,
            },
            make: Some(MakeTreeEvents {
                particles: 32_000,
                sort_passes: 8,
                nodes_created: 40_000,
            }),
            predict: IntegrateEvents { particles: 32_000 },
            correct: IntegrateEvents { particles: 32_000 },
        }
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_peaks() {
        let ev = sample_events();
        let mut acc = StepEvents { make: None, ..ev };
        acc.merge(&StepEvents { make: None, ..ev });
        assert!(acc.make.is_none());
        acc.merge(&ev);
        assert_eq!(acc.make, ev.make, "no build + a build");
        let mut other = ev;
        other.walk.peak_queue_len = 900;
        other.calc.levels = 9;
        acc.merge(&other);
        let make = acc.make.expect("two builds");
        assert_eq!((make.particles, make.nodes_created), (64_000, 80_000));
        assert_eq!(make.sort_passes, 8);
        assert_eq!(acc.walk.interactions, 4 * ev.walk.interactions);
        assert_eq!(acc.calc.grid_syncs, 4 * ev.calc.grid_syncs);
        assert_eq!(acc.correct.particles, 4 * ev.correct.particles);
        assert_eq!(acc.walk.peak_queue_len, 900);
        assert_eq!(acc.calc.levels, 14);
    }

    #[test]
    fn walk_tree_dominates_the_step() {
        // Fig. 3/4: gravity is always the dominant contributor.
        let p = price_step(
            &sample_events(),
            &GpuArch::tesla_v100(),
            ExecMode::PascalMode,
            GridBarrier::LockFree,
        );
        assert!(p.walk_tree.seconds > p.calc_node.seconds);
        assert!(p.walk_tree.seconds > p.make_tree.seconds);
        assert!(p.walk_tree.seconds > p.predict.seconds + p.correct.seconds);
        assert!(p.total_seconds() > p.walk_tree.seconds);
    }

    #[test]
    fn pascal_mode_is_faster_per_function_on_v100() {
        // Fig. 5: every function is at least as fast in the Pascal mode.
        let ev = sample_events();
        let v100 = GpuArch::tesla_v100();
        let pm = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
        let vm = price_step(&ev, &v100, ExecMode::VoltaMode, GridBarrier::LockFree);
        for f in Function::ALL {
            assert!(
                vm.get(f).seconds >= pm.get(f).seconds * 0.999,
                "{}: volta {} pascal {}",
                f.name(),
                vm.get(f).seconds,
                pm.get(f).seconds
            );
        }
        // predict/correct are *identical* (§4.1: no intra-warp syncs).
        assert_eq!(pm.predict.seconds, vm.predict.seconds);
        assert_eq!(pm.correct.seconds, vm.correct.seconds);
        // walkTree and calcNode are strictly slower in the Volta mode.
        assert!(vm.walk_tree.seconds > pm.walk_tree.seconds);
        assert!(vm.calc_node.seconds > pm.calc_node.seconds);
    }

    #[test]
    fn non_rebuild_steps_have_zero_make_tree_cost() {
        let mut ev = sample_events();
        ev.make = None;
        let p = price_step(
            &ev,
            &GpuArch::tesla_v100(),
            ExecMode::PascalMode,
            GridBarrier::LockFree,
        );
        assert_eq!(p.make_tree.seconds, 0.0);
        assert_eq!(p.make_tree.calls, 0);
    }

    #[test]
    fn cooperative_groups_barrier_raises_calcnode_cost() {
        // Appendix A: calcNode performs ~21 grid syncs per step; the CG
        // barrier charges ≈2.3e-5 s more per sync.
        let ev = sample_events();
        let v100 = GpuArch::tesla_v100();
        let lf = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
        let cg = price_step(
            &ev,
            &v100,
            ExecMode::PascalMode,
            GridBarrier::CooperativeGroups,
        );
        let extra = cg.calc_node.seconds - lf.calc_node.seconds;
        let expect = ev.calc.grid_syncs as f64 * 23.0e-6;
        assert!((extra - expect).abs() < 1e-9, "extra {extra} vs {expect}");
    }

    #[test]
    fn profile_accumulation() {
        let ev = sample_events();
        let v100 = GpuArch::tesla_v100();
        let p = price_step(&ev, &v100, ExecMode::PascalMode, GridBarrier::LockFree);
        let mut sum = Profile::default();
        sum.add(&p);
        sum.add(&p);
        assert!((sum.total_seconds() - 2.0 * p.total_seconds()).abs() < 1e-15);
        assert_eq!(sum.walk_tree.calls, 2);
    }
}
