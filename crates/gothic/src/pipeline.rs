//! The GOTHIC simulation pipeline.
//!
//! One *block step* executes the paper's five representative functions in
//! order (§2.2):
//!
//! 1. `predict` — drift every particle to the new time (sources must be
//!    current even when inactive),
//! 2. `makeTree` — Morton keys + radix sort + linked rebuild, but only
//!    when the rebuild policy fires (GOTHIC auto-tunes the interval to
//!    minimise gravity + construction time, §4.1),
//! 3. `calcNode` — bottom-up centre-of-mass/mass/size refresh (every
//!    step: the tree topology ages between rebuilds, the node summaries
//!    do not),
//! 4. `walkTree` — MAC-driven traversal with warp-group interaction
//!    lists, for the *active* particles of this block step,
//! 5. `correct` — finish the active particles' velocity updates and
//!    re-quantise their individual time steps.
//!
//! Every step records algorithm events and prices them on the configured
//! architecture (see [`crate::profile`]); the recorded events also let
//! the benchmark harness re-price the same run on every GPU of Fig. 1.

use crate::cancel::{CancelToken, Cancelled};
use crate::config::{RebuildPolicy, RunConfig};
use crate::profile::{price_step, Function, Profile, StepEvents};
use crate::summary::RunSummary;
use gpu_model::IntegrateEvents;
use nbody::blockstep::BlockSteps;
use nbody::integrator::{predict_positions, timestep_criterion};
use nbody::{ParticleSet, Vec3};
use octree::{calc_node, walk_tree, BuildConfig, Mac, Octree, WalkConfig, WalkResult};

/// Host wall-clock times of one step's phases, as measured by the
/// phase spans (independent of the modeled GPU times).
#[derive(Clone, Copy, Debug, Default)]
pub struct WallTimes {
    pub predict: f64,
    pub make_tree: f64,
    pub calc_node: f64,
    pub walk_tree: f64,
    pub correct: f64,
}

impl WallTimes {
    /// Wall time of one Table-2 function.
    pub fn get(&self, f: Function) -> f64 {
        match f {
            Function::WalkTree => self.walk_tree,
            Function::CalcNode => self.calc_node,
            Function::MakeTree => self.make_tree,
            Function::Predict => self.predict,
            Function::Correct => self.correct,
        }
    }

    /// Total wall time over all phases.
    pub fn total(&self) -> f64 {
        Function::ALL.iter().map(|&f| self.get(f)).sum()
    }

    /// Accumulate another step's phase times.
    pub fn add(&mut self, o: &WallTimes) {
        self.predict += o.predict;
        self.make_tree += o.make_tree;
        self.calc_node += o.calc_node;
        self.walk_tree += o.walk_tree;
        self.correct += o.correct;
    }
}

/// Emit one `{"type":"step"}` trace line summarising a completed block
/// step (modeled and measured seconds plus the headline event counts).
fn emit_step_event(r: &StepReport) {
    let mut o = telemetry::json::JsonObject::new();
    o.str("type", "step")
        .u64("step", r.step)
        .f64("t", r.time)
        .u64("n_active", r.n_active as u64)
        .bool("rebuilt", r.rebuilt)
        .f64("modeled_s", r.profile.total_seconds())
        .f64("wall_s", r.wall.total())
        .u64("interactions", r.events.walk.interactions)
        .u64("mac_evals", r.events.walk.mac_evals)
        .u64("tree_nodes", r.events.calc.nodes);
    telemetry::sink::emit(&o);
}

/// A cancellable run that stopped early: the cancellation cause plus
/// every step report completed before the stop.
#[derive(Clone, Debug)]
pub struct CancelledRun {
    pub cancelled: Cancelled,
    pub completed: Vec<StepReport>,
}

/// Outcome of one block step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step ordinal (1-based).
    pub step: u64,
    /// Simulation time after the step.
    pub time: f64,
    /// Number of active (force-updated) particles.
    pub n_active: usize,
    /// Whether the tree was rebuilt this step.
    pub rebuilt: bool,
    /// Algorithm events (architecture-independent).
    pub events: StepEvents,
    /// Modeled cost on the configured architecture/mode.
    pub profile: Profile,
    /// Host wall-clock phase times.
    pub wall: WallTimes,
}

/// Auto-tuner state for the tree-rebuild interval (§4.1): GOTHIC rebuilds
/// when the accumulated walk-time excess caused by tree ageing exceeds
/// the cost of a rebuild.
///
/// Ageing is measured physically: particles drift away from the cells
/// they were filed under, inflating the node bounding radii (`bmax`) that
/// `calcNode` refreshes each step — which makes the MAC open more cells
/// and the walk slow down. The tuner accumulates
/// `ageing × walk_seconds` per step (ageing = relative `bmax` inflation
/// since the fresh build) and rebuilds once that excess exceeds the
/// modeled rebuild cost. Expensive walks (tight Δacc) therefore rebuild
/// often, cheap walks rarely — the paper observes intervals of ~6 steps
/// at the highest accuracy and ~30 at the lowest.
#[derive(Clone, Debug, Default)]
pub(crate) struct RebuildTuner {
    /// Per-leaf bmax right after the last rebuild (leaf order is stable
    /// between rebuilds because the topology is frozen).
    pub(crate) fresh_leaf_bmax: Vec<f64>,
    /// Accumulated excess walk work (interaction-equivalents) since the
    /// last rebuild.
    pub(crate) excess: f64,
    /// Rebuild cost threshold in interaction-equivalents.
    pub(crate) threshold: f64,
}

/// Cost of one tree rebuild expressed in gravity interactions per
/// particle: on V100 the modeled makeTree time equals the time of ≈25
/// interactions per particle, independent of N (both scale linearly).
const REBUILD_COST_INTERACTIONS_PER_PARTICLE: f64 = 25.0;

impl RebuildTuner {
    /// Record one step's walk work and the tree's current ageing metric:
    /// the mean relative inflation of the leaf bounding radii since the
    /// fresh build (leaf bloat is what makes the MAC open more cells).
    fn record_walk(&mut self, interactions: u64, tree: &Octree) {
        let leaf_bmax = (0..tree.n_nodes())
            .filter(|&v| tree.is_leaf(v))
            .map(|v| tree.bmax[v] as f64);
        if self.fresh_leaf_bmax.is_empty() {
            // Refilled in place, its buffer sized to the exact leaf count:
            // the reference lives for the whole rebuild interval.
            self.fresh_leaf_bmax
                .reserve_exact(leaf_bmax.clone().count());
            self.fresh_leaf_bmax.extend(leaf_bmax);
            self.fresh_leaf_bmax.shrink_to_fit();
            return;
        }
        let mut ageing = 0.0;
        let mut counted = 0usize;
        for (now, fresh) in leaf_bmax.zip(&self.fresh_leaf_bmax) {
            if *fresh > 0.0 {
                ageing += (now / fresh - 1.0).max(0.0);
                counted += 1;
            }
        }
        if counted > 0 {
            self.excess += ageing / counted as f64 * interactions as f64;
        }
    }

    fn record_build(&mut self, n_particles: usize) {
        self.threshold = REBUILD_COST_INTERACTIONS_PER_PARTICLE * n_particles as f64;
        self.fresh_leaf_bmax.clear();
        self.excess = 0.0;
    }

    fn should_rebuild(&self) -> bool {
        self.excess > self.threshold && self.threshold > 0.0
    }
}

/// The simulation driver.
pub struct Gothic {
    pub cfg: RunConfig,
    /// Particle state, kept in the Morton order of the latest rebuild.
    pub ps: ParticleSet,
    /// Block time-step hierarchy.
    pub blocks: BlockSteps,
    pub(crate) tree: Octree,
    /// Predicted positions; `predict` overwrites every entry each step.
    pub(crate) pred_pos: Vec<Vec3>,
    pub(crate) steps_since_rebuild: u32,
    pub(crate) tuner: RebuildTuner,
    /// Completed block steps.
    pub step_count: u64,
    pub(crate) summary: RunSummary,
}

impl Gothic {
    /// Initialise: build the tree, evaluate the bootstrap forces with the
    /// opening-angle MAC (the acceleration MAC of Eq. 2 needs |a| from a
    /// previous step), and seed the block time-step hierarchy. The
    /// set-up's events and walls open the run's [`RunSummary`].
    ///
    /// Panics with [`Gothic::try_new`]'s message on invalid initial
    /// conditions.
    pub fn new(ps: ParticleSet, cfg: RunConfig) -> Self {
        Self::try_new(ps, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Gothic::new`], after checking the initial conditions: an empty
    /// set, or one failing [`ParticleSet::check_invariants`] (e.g. a
    /// non-finite position, which the tree build would file under Morton
    /// key 0, or a non-finite velocity, which the first predict spreads
    /// to the position), is rejected with a message naming the particle.
    pub fn try_new(mut ps: ParticleSet, cfg: RunConfig) -> Result<Self, String> {
        if ps.is_empty() {
            return Err("invalid initial conditions: no particles".into());
        }
        ps.check_invariants()
            .map_err(|e| format!("invalid initial conditions: {e}"))?;
        let n = ps.len();
        let mut blocks = BlockSteps::new(n, cfg.dt_max, cfg.max_depth);
        let mut events = StepEvents::default();
        let mut wall = WallTimes::default();

        let mut tree = Octree::default();
        make_tree(
            &mut tree,
            &mut ps,
            &mut blocks,
            None,
            cfg.leaf_cap,
            &mut events,
            &mut wall,
        );

        let span = telemetry::span(Function::CalcNode.name());
        events.calc = calc_node(&mut tree, &ps.pos, &ps.mass);
        wall.calc_node = span.finish().as_secs_f64();

        // Bootstrap forces: geometric MAC, every particle active. Storing
        // them at tick 0 seeds every particle's level from its force. The
        // walk reads |a_old| = 1 for every particle; `store_forces`
        // overwrites each of them.
        let span = telemetry::span("bootstrap");
        let walk_cfg = WalkConfig {
            mac: Mac::OpeningAngle {
                theta: cfg.theta_bootstrap,
            },
            eps2: cfg.eps * cfg.eps,
            list_cap: cfg.list_cap,
        };
        let active: Vec<u32> = (0..n as u32).collect();
        ps.acc_old.fill(1.0);
        let res = walk_tree(&tree, &ps.pos, &ps.mass, &ps.acc_old, &active, &walk_cfg);
        store_forces(&mut ps, &mut blocks, &cfg, &active, &res);
        wall.walk_tree = span.finish().as_secs_f64();
        events.walk = res.events;
        // Free the walk's results before `pred_pos` is allocated.
        drop((active, res));

        Ok(Gothic {
            summary: RunSummary::set_up(n, &events, tree.radix_passes, wall),
            cfg,
            ps,
            blocks,
            tree,
            // Step 1's predict overwrites every entry.
            pred_pos: vec![Vec3::ZERO; n],
            steps_since_rebuild: 0,
            tuner: RebuildTuner::default(),
            step_count: 0,
        })
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.ps.len()
    }

    /// True when no particles are held.
    pub fn is_empty(&self) -> bool {
        self.ps.is_empty()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.blocks.time()
    }

    /// Immutable view of the current tree.
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// Steps since the last tree rebuild.
    pub fn tree_age(&self) -> u32 {
        self.steps_since_rebuild
    }

    /// What this run has done so far: its set-up plus every step.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// Execute one block step.
    pub fn step(&mut self) -> StepReport {
        let step_span = telemetry::span("step");
        let n = self.len();
        let eps2 = self.cfg.eps * self.cfg.eps;
        let mut events = StepEvents::default();
        let mut wall = WallTimes::default();

        // --- begin block step ------------------------------------------
        self.blocks.advance();

        // --- predict -----------------------------------------------------
        let span = telemetry::span(Function::Predict.name());
        predict_positions(&self.ps, &self.blocks, &mut self.pred_pos);
        wall.predict = span.finish().as_secs_f64();
        events.predict = IntegrateEvents {
            particles: n as u64,
        };

        // --- makeTree (policy-dependent) ----------------------------------
        let due = match self.cfg.rebuild {
            RebuildPolicy::Auto => self.tuner.should_rebuild(),
            RebuildPolicy::Fixed(k) => self.steps_since_rebuild >= k.max(1),
        };
        // The very first step always (re)builds: it prices makeTree once
        // and seeds the auto-tuner's build-cost reference.
        let rebuilt = self.step_count == 0 || due;
        if rebuilt {
            make_tree(
                &mut self.tree,
                &mut self.ps,
                &mut self.blocks,
                Some(&mut self.pred_pos),
                self.cfg.leaf_cap,
                &mut events,
                &mut wall,
            );
            self.steps_since_rebuild = 0;
        }

        // --- calcNode ------------------------------------------------------
        let span = telemetry::span(Function::CalcNode.name());
        events.calc = calc_node(&mut self.tree, &self.pred_pos, &self.ps.mass);
        wall.calc_node = span.finish().as_secs_f64();

        // --- walkTree ------------------------------------------------------
        // Taken after the rebuild, so the list is already in Morton order.
        let active = self.blocks.active();
        let walk_cfg = WalkConfig {
            mac: self.cfg.mac,
            eps2,
            list_cap: self.cfg.list_cap,
        };
        let span = telemetry::span(Function::WalkTree.name());
        let res = walk_tree(
            &self.tree,
            &self.pred_pos,
            &self.ps.mass,
            &self.ps.acc_old,
            &active,
            &walk_cfg,
        );
        wall.walk_tree = span.finish().as_secs_f64();
        events.walk = res.events;

        // --- correct -------------------------------------------------------
        let span = telemetry::span(Function::Correct.name());
        for (k, &i) in active.iter().enumerate() {
            let i = i as usize;
            let h = self.blocks.drift_of_level(self.blocks.levels()[i]);
            self.ps.vel[i] = self.ps.vel[i] + (self.ps.acc[i] + res.acc[k]) * (0.5 * h);
            self.ps.pos[i] = self.pred_pos[i];
        }
        store_forces(&mut self.ps, &mut self.blocks, &self.cfg, &active, &res);
        wall.correct = span.finish().as_secs_f64();
        events.correct = IntegrateEvents {
            particles: active.len() as u64,
        };

        // --- price + tune ---------------------------------------------------
        let profile = price_step(&events, &self.cfg.arch, self.cfg.mode, self.cfg.barrier);
        if rebuilt {
            self.tuner.record_build(n);
        }
        self.tuner.record_walk(events.walk.interactions, &self.tree);

        self.steps_since_rebuild += 1;
        self.step_count += 1;
        self.summary.step_wall.record_duration(step_span.finish());

        let report = StepReport {
            step: self.step_count,
            time: self.time(),
            n_active: active.len(),
            rebuilt,
            events,
            profile,
            wall,
        };
        self.summary.add_step(&report, self.tree.radix_passes);
        if telemetry::sink::trace_active() {
            emit_step_event(&report);
        }
        report
    }

    /// Run `n_steps` block steps, returning all step reports.
    pub fn run(&mut self, n_steps: u64) -> Vec<StepReport> {
        (0..n_steps).map(|_| self.step()).collect()
    }

    /// Run up to `n_steps` block steps under a cancellation token.
    ///
    /// The token is checked at every block-step boundary (before each
    /// step) — the pipeline's cooperative preemption points. On
    /// cancellation the already-completed step reports come back with
    /// the reason, so a serving layer can report partial progress; the
    /// simulation state itself stays valid and can be resumed.
    pub fn run_cancellable(
        &mut self,
        n_steps: u64,
        token: &CancelToken,
    ) -> Result<Vec<StepReport>, CancelledRun> {
        let mut reports = Vec::new();
        for _ in 0..n_steps {
            if let Err(cancelled) = token.check() {
                return Err(CancelledRun {
                    cancelled,
                    completed: reports,
                });
            }
            reports.push(self.step());
        }
        Ok(reports)
    }

    /// Conservation diagnostics at the current state. Forces must be
    /// fresh for the potential to be meaningful; this is the case right
    /// after construction and after any step for the active subset (the
    /// stored `pot` of inactive particles lags slightly, as in GOTHIC).
    pub fn diagnostics(&self) -> nbody::energy::Diagnostics {
        nbody::energy::measure(&self.ps, self.cfg.eps * self.cfg.eps)
    }
}

/// makeTree: rebuild `tree` in place keyed on `pred_pos`, or on `ps.pos`
/// at set-up, where there are no predicted positions yet, and reorder
/// the particles, `blocks` and `pred_pos` into its Morton order. Records
/// the build's events and wall time.
fn make_tree(
    tree: &mut Octree,
    ps: &mut ParticleSet,
    blocks: &mut BlockSteps,
    pred_pos: Option<&mut Vec<Vec3>>,
    leaf_cap: u32,
    events: &mut StepEvents,
    wall: &mut WallTimes,
) {
    let span = telemetry::span(Function::MakeTree.name());
    let positions = pred_pos.as_deref().unwrap_or(&ps.pos);
    let perm = tree.rebuild(positions, &BuildConfig { leaf_cap });
    ps.permute(&perm);
    blocks.permute(&perm);
    if let Some(pred_pos) = pred_pos {
        nbody::permute_each(&perm, [pred_pos]);
    }
    wall.make_tree = span.finish().as_secs_f64();
    events.make = Some(tree.events);
}

/// Store the walk's forces for the `active` particles (`res` holds one
/// entry per active particle, in the same order), keep `|a|` for the next
/// acceleration MAC, and commit each particle's block step with the time
/// step its new force asks for.
fn store_forces(
    ps: &mut ParticleSet,
    blocks: &mut BlockSteps,
    cfg: &RunConfig,
    active: &[u32],
    res: &WalkResult,
) {
    for (k, &i) in active.iter().enumerate() {
        let i = i as usize;
        let a = res.acc[k];
        ps.acc[i] = a;
        ps.pot[i] = res.pot[k];
        ps.acc_old[i] = a.norm();
        blocks.commit(i, timestep_criterion(cfg.eta, cfg.eps, a, cfg.dt_max));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galaxy::plummer_model;
    use nbody::Real;

    fn small_run(delta_acc: f32, n: usize, steps: u64) -> (Gothic, Vec<StepReport>) {
        let ps = plummer_model(n, 100.0, 1.0, 42);
        let cfg = RunConfig {
            mac: Mac::Acceleration { delta_acc },
            eps: 0.02,
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let reports = sim.run(steps);
        (sim, reports)
    }

    #[test]
    fn bad_initial_conditions_are_rejected_before_the_tree_build() {
        let mut ps = plummer_model(4096, 100.0, 1.0, 3);
        ps.pos[2718].y = Real::NAN;
        let err = Gothic::try_new(ps, RunConfig::default())
            .err()
            .expect("a NaN position must be rejected");
        assert_eq!(
            err,
            "invalid initial conditions: non-finite position at 2718"
        );
        let empty = Gothic::try_new(ParticleSet::with_capacity(0), RunConfig::default());
        assert!(empty.is_err());
    }

    #[test]
    fn nan_velocity_is_rejected_before_the_tree_build() {
        let mut ps = plummer_model(4096, 100.0, 1.0, 3);
        ps.vel[1234].z = Real::NAN;
        let err = Gothic::try_new(ps, RunConfig::default())
            .err()
            .expect("a NaN velocity must be rejected");
        assert_eq!(
            err,
            "invalid initial conditions: non-finite velocity at 1234"
        );
    }

    #[test]
    fn pipeline_state_digest_is_pinned() {
        // Twelve steps of a Plummer sphere cover six rebuilds and active
        // sets from 2 particles to all 4096. The step loop uses only IEEE
        // arithmetic and sqrt, so these bits are the same on every
        // platform, vector width and thread count.
        let cfg = RunConfig {
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        for threads in [1, 4] {
            let bytes = parallel::with_thread_count(threads, || {
                let mut sim = Gothic::new(plummer_model(4096, 100.0, 1.0, 21), cfg.clone());
                let reports = sim.run(12);
                let active = reports.iter().map(|r| r.n_active);
                assert_eq!(reports.iter().filter(|r| r.rebuilt).count(), 6);
                assert_eq!((active.clone().min(), active.max()), (Some(2), Some(4096)));
                let mut bytes = Vec::new();
                crate::Snapshot::capture(&sim)
                    .write_to(&mut bytes)
                    .expect("writing to a Vec cannot fail");
                bytes
            });
            assert_eq!(
                crate::fnv1a64(&bytes),
                0xa066_011f_95f1_208c,
                "pipeline state digest at {threads} threads"
            );
        }
    }

    #[test]
    fn bootstrap_gives_finite_forces_and_levels() {
        let ps = plummer_model(1024, 100.0, 1.0, 1);
        let sim = Gothic::new(ps, RunConfig::default());
        assert!(sim.ps.acc.iter().all(|a| a.is_finite()));
        assert!(sim.ps.acc_old.iter().all(|&a| a > 0.0));
        sim.blocks.check_invariants().unwrap();
    }

    #[test]
    fn steps_advance_time_monotonically() {
        let (sim, reports) = small_run(2.0f32.powi(-6), 1024, 8);
        let mut last = 0.0;
        for r in &reports {
            assert!(r.time > last);
            last = r.time;
        }
        assert!(sim.time() > 0.0);
        sim.blocks.check_invariants().unwrap();
    }

    #[test]
    fn first_step_rebuilds_then_interval_grows() {
        let (_, reports) = small_run(2.0f32.powi(-9), 2048, 12);
        assert!(reports[0].rebuilt, "step 1 must build the tree");
        let rebuilds: usize = reports.iter().filter(|r| r.rebuilt).count();
        assert!(rebuilds < reports.len(), "not every step may rebuild");
    }

    #[test]
    fn active_counts_vary_with_block_hierarchy() {
        let (_, reports) = small_run(2.0f32.powi(-9), 4096, 16);
        let counts: Vec<usize> = reports.iter().map(|r| r.n_active).collect();
        // The hierarchy puts the tightly-bound centre on small steps:
        // some steps must touch far fewer particles than N.
        assert!(counts.iter().any(|&c| c < 4096), "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn energy_is_conserved_over_a_dynamical_stretch() {
        let ps = plummer_model(2048, 100.0, 1.0, 7);
        let cfg = RunConfig {
            mac: Mac::Acceleration {
                delta_acc: 2.0f32.powi(-9),
            },
            eps: 0.02,
            dt_max: 1.0 / 128.0,
            eta: 0.2,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let e0 = sim.diagnostics();
        // Advance many block steps (the hierarchy advances unevenly; use
        // the simulation clock to bound the integration stretch).
        for _ in 0..200 {
            sim.step();
            if sim.time() > 0.25 {
                break;
            }
        }
        // Re-evaluate all forces for a clean potential: cheap trick —
        // diagnostics on the live state; block-step potential lag is part
        // of the measured error budget.
        let e1 = sim.diagnostics();
        let drift = e1.relative_energy_drift(&e0);
        assert!(drift < 5e-3, "relative energy drift {drift}");
    }

    #[test]
    fn fixed_rebuild_policy_rebuilds_on_schedule() {
        let ps = plummer_model(1024, 100.0, 1.0, 3);
        let cfg = RunConfig {
            rebuild: RebuildPolicy::Fixed(4),
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let reports = sim.run(12);
        let pattern: Vec<bool> = reports.iter().map(|r| r.rebuilt).collect();
        // Step 1 builds; thereafter every 4th.
        assert!(pattern[0]);
        for (i, &r) in pattern.iter().enumerate().skip(1) {
            assert_eq!(r, (i % 4) == 0, "step {} pattern {pattern:?}", i + 1);
        }
    }

    #[test]
    fn tighter_accuracy_costs_more_interactions() {
        let (_, loose) = small_run(0.25, 2048, 6);
        let (_, tight) = small_run(2.0f32.powi(-14), 2048, 6);
        let li: u64 = loose.iter().map(|r| r.events.walk.interactions).sum();
        let ti: u64 = tight.iter().map(|r| r.events.walk.interactions).sum();
        assert!(ti > li, "tight {ti} vs loose {li}");
    }

    #[test]
    fn morton_order_is_maintained_for_ids() {
        let (sim, _) = small_run(2.0f32.powi(-9), 2048, 5);
        sim.ps.check_invariants().unwrap();
    }

    #[test]
    fn run_cancellable_with_idle_token_matches_run() {
        let ps = plummer_model(1024, 100.0, 1.0, 9);
        let cfg = RunConfig {
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let reports = sim
            .run_cancellable(6, &crate::cancel::CancelToken::new())
            .expect("idle token never cancels");
        assert_eq!(reports.len(), 6);
        assert_eq!(sim.step_count, 6);
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_step() {
        let ps = plummer_model(1024, 100.0, 1.0, 9);
        let mut sim = Gothic::new(ps, RunConfig::default());
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let err = sim.run_cancellable(8, &token).unwrap_err();
        assert_eq!(err.cancelled.reason, crate::cancel::CancelReason::Requested);
        assert!(err.completed.is_empty());
        assert_eq!(sim.step_count, 0, "no step may run after cancellation");
    }

    #[test]
    fn expired_deadline_cancels_mid_run_with_partial_reports() {
        let ps = plummer_model(1024, 100.0, 1.0, 11);
        let cfg = RunConfig {
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        // Generous budget for a couple of steps, far too small for 10⁶:
        // the deadline check at some step boundary must fire, and the
        // completed prefix comes back.
        let token = crate::cancel::CancelToken::with_deadline(std::time::Duration::from_millis(50));
        let err = sim.run_cancellable(1_000_000, &token).unwrap_err();
        assert_eq!(
            err.cancelled.reason,
            crate::cancel::CancelReason::DeadlineExceeded
        );
        assert!((err.completed.len() as u64) < 1_000_000);
        assert_eq!(sim.step_count, err.completed.len() as u64);
        // The simulation state is still valid and resumable.
        sim.step();
        sim.blocks.check_invariants().unwrap();
    }
}
