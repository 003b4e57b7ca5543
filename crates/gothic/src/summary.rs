//! The run summary: what one run counted and timed, kept by its
//! [`crate::Gothic`]. It is the only source of the pipeline counters,
//! so two runs in one process never see each other's counts.

use crate::pipeline::{StepReport, WallTimes};
use crate::profile::{Function, Profile, StepEvents};
use devsort::RadixKey;
use telemetry::Histogram;

/// Counts and times of one run: the set-up `Gothic::new` did (zero for
/// a run resumed from a snapshot) plus every [`StepReport`] since.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Particles `Gothic::new` started from.
    pub(crate) particles: u64,
    /// Set-up walls of the `make tree`, `calc node` and `bootstrap`
    /// (force walk, in `walk_tree`) spans.
    pub setup_wall: WallTimes,
    /// Set-up and step events, folded by [`StepEvents::merge`], the one
    /// rule for combining steps.
    pub(crate) events: StepEvents,
    /// Tree builds (the set-up's included) and the digit passes their
    /// key sorts applied; the other passes were skipped as identities.
    pub(crate) builds: u64,
    pub(crate) radix_passes: u64,
    /// Block steps, rebuild steps, and active particles over the steps.
    pub steps: u64,
    pub rebuilds: u64,
    pub(crate) active_particles: u64,
    /// Modeled cost and host phase walls, summed over the steps.
    pub profile: Profile,
    pub wall: WallTimes,
    /// Each block step's `step` span, in nanoseconds.
    pub step_wall: Histogram,
}

impl RunSummary {
    /// The set-up entry: the bootstrap build, node summary and walk.
    pub(crate) fn set_up(
        particles: usize,
        events: &StepEvents,
        radix_passes: u64,
        wall: WallTimes,
    ) -> RunSummary {
        let mut s = RunSummary {
            particles: particles as u64,
            setup_wall: wall,
            ..RunSummary::default()
        };
        s.add_events(events, radix_passes);
        s
    }

    /// Merge one step; `radix_passes` counts only if the step rebuilt.
    pub(crate) fn add_step(&mut self, r: &StepReport, radix_passes: u64) {
        self.add_events(&r.events, radix_passes);
        self.steps += 1;
        self.rebuilds += u64::from(r.rebuilt);
        self.active_particles += r.n_active as u64;
        self.profile.add(&r.profile);
        self.wall.add(&r.wall);
    }

    fn add_events(&mut self, e: &StepEvents, radix_passes: u64) {
        self.events.merge(e);
        if e.make.is_some() {
            self.builds += 1;
            self.radix_passes += radix_passes;
        }
    }

    /// The run's counters by name, in the `counters` schema order.
    pub fn counters(&self) -> [(&'static str, u64); 23] {
        let priced = |get: fn(&crate::KernelCost) -> u64| -> u64 {
            Function::ALL
                .iter()
                .map(|&f| get(self.profile.get(f)))
                .sum()
        };
        let passes = self.builds * u64::from(<u64 as RadixKey>::PASSES);
        let (walk, calc) = (&self.events.walk, &self.events.calc);
        let make = self.events.make.unwrap_or_default();
        [
            ("walk.groups", walk.groups),
            ("walk.interactions", walk.interactions),
            ("walk.mac_evals", walk.mac_evals),
            ("walk.list_pushes", walk.list_pushes),
            ("walk.opens", walk.opens),
            ("walk.flushes", walk.flushes),
            ("calc.nodes", calc.nodes),
            ("calc.child_accumulations", calc.child_accumulations),
            ("calc.grid_syncs", calc.grid_syncs),
            ("tree.builds", self.builds),
            ("tree.nodes_created", make.nodes_created),
            ("sort.calls", self.builds),
            ("sort.elements", make.particles),
            ("sort.radix_passes", self.radix_passes),
            ("sort.skipped_passes", passes - self.radix_passes),
            ("integrate.predict_particles", self.events.predict.particles),
            ("integrate.correct_particles", self.events.correct.particles),
            ("pipeline.steps", self.steps),
            ("pipeline.rebuilds", self.rebuilds),
            ("pipeline.active_particles", self.active_particles),
            ("model.kernel_pricings", priced(|c| c.calls)),
            // Priced syncwarp executions, nonzero only in the Volta mode.
            ("model.syncwarps", priced(|c| c.ops.sync_warp)),
            ("galaxy.sampled_particles", self.particles),
        ]
    }
}

#[cfg(test)]
mod tests {
    use crate::{Gothic, RunConfig, Snapshot};
    use galaxy::plummer_model;

    fn get(counters: &[(&'static str, u64)], name: &str) -> u64 {
        counters.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn summary_is_the_set_up_plus_the_step_reports() {
        let mut sim = Gothic::new(plummer_model(2048, 100.0, 1.0, 5), RunConfig::default());
        let setup = sim.summary().clone();
        assert_eq!((setup.particles, setup.builds, setup.steps), (2048, 1, 0));
        assert!(setup.events.walk.interactions > 0 && setup.setup_wall.total() > 0.0);
        let reports = sim.run(6);

        let c = sim.summary().counters();
        let sum = |f: fn(&crate::StepReport) -> u64| reports.iter().map(f).sum::<u64>();
        assert_eq!(
            get(&c, "walk.interactions"),
            setup.events.walk.interactions + sum(|r| r.events.walk.interactions)
        );
        assert_eq!(get(&c, "pipeline.steps"), 6);
        assert_eq!(sim.summary().step_wall.count, 6);
        assert_eq!(get(&c, "pipeline.rebuilds"), sum(|r| u64::from(r.rebuilt)));
        assert_eq!(get(&c, "tree.builds"), 1 + get(&c, "pipeline.rebuilds"));
        assert_eq!(
            get(&c, "sort.radix_passes") + get(&c, "sort.skipped_passes"),
            8 * get(&c, "tree.builds")
        );
        assert_eq!(
            get(&c, "model.kernel_pricings"),
            sum(|r| crate::Function::ALL
                .iter()
                .map(|&f| r.profile.get(f).calls)
                .sum())
        );
        assert_eq!(get(&c, "galaxy.sampled_particles"), 2048);
    }

    #[test]
    fn resumed_run_starts_from_a_zero_set_up() {
        let mut sim = Gothic::new(plummer_model(1024, 100.0, 1.0, 6), RunConfig::default());
        sim.run(2);
        let mut bytes = Vec::new();
        Snapshot::capture(&sim).write_to(&mut bytes).unwrap();
        let mut resumed = Snapshot::read_from(&mut bytes.as_slice())
            .unwrap()
            .resume(RunConfig::default());
        assert!(resumed.summary().counters().iter().all(|&(_, v)| v == 0));
        assert_eq!(resumed.summary().setup_wall.total(), 0.0);
        assert_eq!(resumed.summary().step_wall.count, 0);
        let r = resumed.step();
        let c = resumed.summary().counters();
        assert_eq!(get(&c, "pipeline.steps"), 1);
        assert_eq!(resumed.summary().step_wall.count, 1);
        assert_eq!(sim.summary().step_wall.count, 2);
        assert_eq!(get(&c, "walk.interactions"), r.events.walk.interactions);
        assert_eq!(get(&c, "galaxy.sampled_particles"), 0);
    }
}
