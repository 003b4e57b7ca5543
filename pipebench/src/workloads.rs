//! The three workloads, their correctness gates and the layer ledger.
//!
//! Every number here is taken outside-in: the benchmark times its own
//! calls into a layer's public functions, or reads values the pipeline
//! already returns (`StepReport`, `GridStats`, the telemetry counter
//! registry). Nothing inside the program is instrumented for it.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gothic::nbody::{ParticleSet, Real, Vec3};
use gothic::octree::{
    build_tree_with_positions, calc_node, walk_tree, BuildConfig, Mac, WalkConfig,
};
use gothic::simt::microbench as mb;
use gothic::simt::{GridStats, RacecheckReport, Scheduler};
use gothic::telemetry::metrics::counters as ctr;
use gothic::{fnv1a64, Gothic, RunConfig, Snapshot, StepReport, WallTimes};

use crate::alloc;
use crate::steal::CpuTicks;

/// Particles of the M31 workloads: the ROADMAP baseline, past the L2.
pub const M31_N: usize = 131_072;
/// Block steps of one M31 run: enough to cover every step class of the
/// hierarchy (1.3k to 66k active, plus all-active steps after a resume).
pub const M31_STEPS: u64 = 16;
/// Steps run before the restart checkpoint is written, so the resumed
/// clock sits part-way through the block hierarchy.
pub const RESTART_AT_STEP: u64 = 8;
/// Particles per Δacc point of the Fig. 1 sweep: a working set inside L2.
pub const SWEEP_N: usize = 8192;
pub const SWEEP_WARMUP: u64 = 4;
pub const SWEEP_STEPS: u64 = 24;
/// Largest relative energy drift a simulation may show over its steps.
pub const MAX_ENERGY_DRIFT: f64 = 1e-2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    M31Fresh,
    M31Restart,
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::M31Fresh,
        Workload::M31Restart,
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::M31Fresh => "m31_fresh",
            Workload::M31Restart => "m31_restart",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Correctness checks made so far: each one is an attempted operation,
/// each failure a failed one.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Inputs generated once per process, outside every timed window.
pub struct Inputs {
    /// Restart checkpoint (m31_restart only).
    checkpoint: Option<PathBuf>,
    /// Where m31_restart writes its closing checkpoint.
    closing: PathBuf,
    /// Galaxy sampling spent generating the checkpoint.
    input_sample: Window,
}

/// Generate `w`'s inputs from `seed` inside `work_dir`.
pub fn prepare(w: Workload, seed: u64, work_dir: &Path) -> io::Result<Inputs> {
    let mut inputs = Inputs {
        checkpoint: None,
        closing: work_dir.join("closing.snap"),
        input_sample: Window::default(),
    };
    if w == Workload::M31Restart {
        let lap = Lap::start();
        let mut ps = bench::m31_particles(M31_N);
        inputs.input_sample.add(lap);
        orient(&mut ps, seed);
        let mut sim = Gothic::new(ps, RunConfig::default());
        sim.run(RESTART_AT_STEP);
        let path = work_dir.join("checkpoint.snap");
        Snapshot::capture(&sim).save(&path)?;
        inputs.checkpoint = Some(path);
    }
    Ok(inputs)
}

/// Everything one repetition of a workload measured.
#[derive(Debug, Default)]
pub struct Ledger {
    /// The end-to-end windows, and the layer calls the benchmark re-times
    /// or checks outside them.
    setup: Window,
    run: Window,
    aside: Window,
    pub peak_heap_mb: f64,
    setup_peak_mb: f64,
    /// Largest relative energy drift of the simulations run.
    pub max_drift: f64,
    /// FNV-1a of the final state's snapshot bytes.
    pub state_digest: u64,
    /// FNV-1a of the priced Fig. 1 table (paper_sweep only).
    pub table_digest: Option<u64>,

    // Raw wall of the layers; `layers` scales each by the steal share of
    // the window it ran in.
    sample_s: f64,
    input_sample: Window,
    sampled: u64,
    new_s: f64,
    // Snapshot I/O; `snapshot_in_run` when it is part of the workload
    // (m31_restart), otherwise it times the final-state round-trip gate.
    load_s: f64,
    save_s: f64,
    snapshot_bytes: u64,
    snapshot_in_run: bool,
    // Block steps.
    phases: WallTimes,
    step_wall_s: f64,
    steps: u64,
    interactions: u64,
    mac_evals: u64,
    opens: u64,
    list_pushes: u64,
    flushes: u64,
    calc_nodes: u64,
    keys: u64,
    predicted: u64,
    rebuilds: u64,
    active: u64,
    list_cap: usize,
    step_allocs: u64,
    pool_chunks: u64,
    pool_steals: u64,
    // gpu-model pricing; `price_in_run` for the Fig. 1 pass of
    // paper_sweep, otherwise the re-timed pricing inside `Gothic::step`.
    price_s: f64,
    price_in_run: bool,
    // simt interpreter.
    racecheck_s: f64,
    profile_s: f64,
    retired: u64,
    kernel_runs: u64,
    // Re-timed bootstrap of `Gothic::new` (traced repetitions only).
    boot_build_s: f64,
    boot_calc_s: f64,
    boot_walk_s: f64,
    boot_interactions: u64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One timed segment of a window.
struct Lap {
    t: Instant,
    ticks: CpuTicks,
}

impl Lap {
    fn start() -> Lap {
        Lap {
            t: Instant::now(),
            ticks: CpuTicks::now(),
        }
    }
}

/// Timed segments added up: their wall time, and the guest's CPU ticks
/// over them.
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    wall: f64,
    ticks: CpuTicks,
}

impl Window {
    /// Close `lap` into this window; returns the lap's wall time.
    fn add(&mut self, lap: Lap) -> f64 {
        let wall = secs(lap.t);
        self.wall += wall;
        self.ticks.add(CpuTicks::now().since(lap.ticks));
        wall
    }

    /// Share of the window's demanded CPU time the guest got.
    fn share(&self) -> f64 {
        self.ticks.net(1.0)
    }

    fn net(&self) -> f64 {
        self.ticks.net(self.wall)
    }
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

const MIB: f64 = (1u64 << 20) as f64;

impl Ledger {
    /// `setup_s` and `run_s` net of hypervisor steal: the end-to-end
    /// metrics.
    pub fn net(&self) -> (f64, f64) {
        (self.setup.net(), self.run.net())
    }

    /// Raw wall of the set-up and run windows.
    pub fn wall(&self) -> (f64, f64) {
        (self.setup.wall, self.run.wall)
    }

    /// Run `n` block steps: their total wall goes to `run_s`, each step's
    /// own wall and report to the ledger.
    fn steps(&mut self, sim: &mut Gothic, n: u64) -> Vec<StepReport> {
        let mut reports = Vec::with_capacity(n as usize);
        let (chunks, steals) = (ctr::POOL_CHUNKS.value(), ctr::POOL_STEALS.value());
        let allocs = alloc::allocs();
        let lap = Lap::start();
        for _ in 0..n {
            let t = Instant::now();
            reports.push(sim.step());
            self.step_wall_s += secs(t);
        }
        self.run.add(lap);
        self.step_allocs += alloc::allocs() - allocs;
        self.pool_chunks += ctr::POOL_CHUNKS.value() - chunks;
        self.pool_steals += ctr::POOL_STEALS.value() - steals;
        self.list_cap = sim.cfg.list_cap;
        for r in &reports {
            let e = &r.events;
            self.phases.add(&r.wall);
            self.steps += 1;
            self.interactions += e.walk.interactions;
            self.mac_evals += e.walk.mac_evals;
            self.opens += e.walk.opens;
            self.list_pushes += e.walk.list_pushes;
            self.flushes += e.walk.flushes;
            self.calc_nodes += e.calc.nodes;
            self.keys += e.make.map_or(0, |m| m.particles);
            self.predicted += e.predict.particles;
            self.rebuilds += u64::from(r.rebuilt);
            self.active += r.n_active as u64;
        }
        reports
    }

    /// Re-time the three public calls `Gothic::new` makes, on the same
    /// particles it received.
    fn retime_bootstrap(&mut self, mut ps: ParticleSet, cfg: &RunConfig) {
        let n = ps.len();
        let positions = ps.pos.clone();
        let lap = Lap::start();
        let (mut tree, _) = build_tree_with_positions(
            &mut ps,
            &positions,
            &BuildConfig {
                leaf_cap: cfg.leaf_cap,
            },
        );
        self.boot_build_s += self.aside.add(lap);
        let lap = Lap::start();
        calc_node(&mut tree, &ps.pos, &ps.mass);
        self.boot_calc_s += self.aside.add(lap);
        let walk_cfg = WalkConfig {
            mac: Mac::OpeningAngle {
                theta: cfg.theta_bootstrap,
            },
            eps2: cfg.eps * cfg.eps,
            list_cap: cfg.list_cap,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let ones = vec![1.0 as Real; n];
        let lap = Lap::start();
        let res = walk_tree(&tree, &ps.pos, &ps.mass, &ones, &active, &walk_cfg);
        self.boot_walk_s += self.aside.add(lap);
        self.boot_interactions += res.events.interactions;
    }

    /// Re-time the gpu-model pricing `Gothic::step` does for each step.
    fn retime_pricing(&mut self, reports: &[StepReport], cfg: &RunConfig) {
        let lap = Lap::start();
        for r in reports {
            std::hint::black_box(gothic::price_step(
                &r.events,
                &cfg.arch,
                cfg.mode,
                cfg.barrier,
            ));
        }
        self.price_s += self.aside.add(lap);
    }

    fn simt_run(&mut self, name: String, stats: &GridStats, correct: bool, gate: &mut Gate) {
        self.kernel_runs += 1;
        self.retired += stats.retired;
        gate.check(correct, || format!("simt {name}: wrong result"));
    }

    /// Layer times net of steal: each raw time scaled by the steal share
    /// of the window it ran in.
    fn net_times(&self) -> NetTimes {
        let (setup, run, aside) = (self.setup.share(), self.run.share(), self.aside.share());
        let (load, save) = if self.snapshot_in_run {
            (setup, run)
        } else {
            (aside, aside)
        };
        let price = if self.price_in_run { run } else { aside };
        let w = &self.phases;
        NetTimes {
            sample: self.sample_s * setup + self.input_sample.net(),
            new: self.new_s * setup,
            build: self.boot_build_s * aside,
            calc: self.boot_calc_s * aside,
            walk: self.boot_walk_s * aside,
            load: self.load_s * load,
            save: self.save_s * save,
            price: self.price_s * price,
            racecheck: self.racecheck_s * run,
            profile: self.profile_s * run,
            phases: WallTimes {
                predict: w.predict * run,
                make_tree: w.make_tree * run,
                calc_node: w.calc_node * run,
                walk_tree: w.walk_tree * run,
                correct: w.correct * run,
            },
            overhead: (self.step_wall_s - w.total()).max(0.0) * run,
        }
    }

    /// Shares the named layers account for: of `run_s`, of `setup_s`,
    /// and of `gothic.new_s` by the three re-timed bootstrap calls.
    pub fn attributed(&self) -> [f64; 3] {
        let t = self.net_times();
        let mut run = t.phases.total() + t.overhead + t.racecheck + t.profile;
        let mut setup = t.new;
        if self.snapshot_in_run {
            // m31_restart: its galaxy sample made the checkpoint, not its
            // set-up.
            run += t.save;
            setup += t.load;
        } else {
            setup += t.sample;
        }
        if self.price_in_run {
            run += t.price;
        }
        let (setup_net, run_net) = self.net();
        [
            ratio(run, run_net),
            ratio(setup, setup_net),
            ratio(t.build + t.calc + t.walk, t.new),
        ]
    }

    /// The per-layer metrics of this repetition: (name, unit, value).
    pub fn layers(&self) -> Vec<(&'static str, &'static str, f64)> {
        let ms = 1e3;
        let t = self.net_times();
        let w = &t.phases;
        let simt_s = t.racecheck + t.profile;
        let pool_ratio = ratio(self.pool_steals as f64, self.pool_chunks as f64);
        vec![
            ("galaxy.sample_s", "s", t.sample),
            (
                "galaxy.particles_per_s",
                "1/s",
                ratio(self.sampled as f64, t.sample),
            ),
            ("gothic.new_s", "s", t.new),
            ("octree.build_ms", "ms", t.build * ms),
            ("octree.calc_node_ms", "ms", t.calc * ms),
            ("octree.bootstrap_walk_ms", "ms", t.walk * ms),
            (
                "bootstrap.interactions",
                "count",
                self.boot_interactions as f64,
            ),
            ("snapshot.load_ms", "ms", t.load * ms),
            ("snapshot.save_ms", "ms", t.save * ms),
            ("snapshot.mb", "MiB", self.snapshot_bytes as f64 / MIB),
            ("predict.ms", "ms", w.predict * ms),
            ("make_tree.ms", "ms", w.make_tree * ms),
            ("calc_node.ms", "ms", w.calc_node * ms),
            ("walk_tree.ms", "ms", w.walk_tree * ms),
            ("correct.ms", "ms", w.correct * ms),
            ("step.overhead_ms", "ms", t.overhead * ms),
            (
                "walk.interactions_per_s",
                "1/s",
                ratio(self.interactions as f64, w.walk_tree),
            ),
            (
                "make_tree.keys_per_s",
                "1/s",
                ratio(self.keys as f64, w.make_tree),
            ),
            (
                "calc_node.nodes_per_s",
                "1/s",
                ratio(self.calc_nodes as f64, w.calc_node),
            ),
            (
                "predict.particles_per_s",
                "1/s",
                ratio(self.predicted as f64, w.predict),
            ),
            ("walk.interactions", "count", self.interactions as f64),
            ("walk.mac_evals", "count", self.mac_evals as f64),
            ("walk.opens", "count", self.opens as f64),
            ("walk.list_pushes", "count", self.list_pushes as f64),
            ("walk.flushes", "count", self.flushes as f64),
            ("calc.nodes", "count", self.calc_nodes as f64),
            ("pipeline.rebuilds", "count", self.rebuilds as f64),
            ("pipeline.active_particles", "count", self.active as f64),
            (
                "walk.mac_accept_ratio",
                "ratio",
                1.0 - ratio(self.opens as f64, self.mac_evals as f64),
            ),
            (
                "walk.flush_fill",
                "ratio",
                ratio(
                    self.list_pushes as f64,
                    (self.flushes * self.list_cap as u64) as f64,
                ),
            ),
            ("pool.chunks", "count", self.pool_chunks as f64),
            ("pool.steals", "count", self.pool_steals as f64),
            ("pool.steal_ratio", "ratio", pool_ratio),
            ("model.price_ms", "ms", t.price * ms),
            ("simt.racecheck_ms", "ms", t.racecheck * ms),
            ("simt.profile_ms", "ms", t.profile * ms),
            ("simt.retired", "count", self.retired as f64),
            (
                "simt.retired_per_s",
                "1/s",
                ratio(self.retired as f64, simt_s),
            ),
            ("simt.kernel_runs", "count", self.kernel_runs as f64),
            (
                "heap.allocs_per_step",
                "count",
                ratio(self.step_allocs as f64, self.steps as f64),
            ),
            ("heap.setup_peak_mb", "MiB", self.setup_peak_mb),
        ]
    }
}

/// Layer times in seconds, net of steal.
struct NetTimes {
    sample: f64,
    new: f64,
    build: f64,
    calc: f64,
    walk: f64,
    load: f64,
    save: f64,
    price: f64,
    racecheck: f64,
    profile: f64,
    phases: WallTimes,
    overhead: f64,
}

/// Check the final state of one simulation; returns its relative energy
/// drift.
fn check_state(
    sim: &Gothic,
    e0: &gothic::nbody::energy::Diagnostics,
    label: &str,
    gate: &mut Gate,
) -> f64 {
    let ps = &sim.ps;
    let finite = ps
        .pos
        .iter()
        .chain(&ps.vel)
        .chain(&ps.acc)
        .all(|v| v.is_finite())
        && ps.pot.iter().chain(&ps.acc_old).all(|x| x.is_finite());
    gate.check(finite, || format!("{label}: non-finite particle state"));
    let inv = ps.check_invariants();
    gate.check(inv.is_ok(), || {
        format!("{label}: particle invariants: {inv:?}")
    });
    let inv = sim.blocks.check_invariants();
    gate.check(inv.is_ok(), || {
        format!("{label}: block-step invariants: {inv:?}")
    });
    let drift = sim.diagnostics().relative_energy_drift(e0);
    gate.check(drift < MAX_ENERGY_DRIFT, || {
        format!("{label}: relative energy drift {drift:e} >= {MAX_ENERGY_DRIFT:e}")
    });
    drift
}

impl Ledger {
    /// Final-state gates plus the snapshot round trip, whose timings are
    /// the snapshot layer's when the workload does no snapshot I/O.
    /// Returns the digest of the final state's snapshot bytes.
    fn finish_state(
        &mut self,
        sim: &Gothic,
        e0: &gothic::nbody::energy::Diagnostics,
        label: &str,
        gate: &mut Gate,
    ) -> u64 {
        self.max_drift = self.max_drift.max(check_state(sim, e0, label, gate));
        let snap = Snapshot::capture(sim);
        let lap = Lap::start();
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes)
            .expect("writing to a Vec cannot fail");
        let write_s = self.aside.add(lap);
        let lap = Lap::start();
        let back = Snapshot::read_from(&mut bytes.as_slice());
        let read_s = self.aside.add(lap);
        let same = back.is_ok_and(|s| s == snap);
        gate.check(same, || {
            format!("{label}: snapshot round trip changed the state")
        });
        if !self.snapshot_in_run {
            self.save_s += write_s;
            self.load_s += read_s;
            self.snapshot_bytes += bytes.len() as u64;
        }
        fnv1a64(&bytes)
    }
}

/// One repetition of `w`. `traced` switches the counter registry on and
/// adds the re-timed layer calls, all outside the timed windows.
pub fn rep(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    traced: bool,
    gate: &mut Gate,
) -> io::Result<Ledger> {
    gothic::telemetry::set_metrics_enabled(traced);
    let l = match w {
        Workload::M31Fresh | Workload::M31Restart => m31(w, inputs, seed, traced, gate),
        Workload::PaperSweep => Ok(paper_sweep(seed, traced, gate)),
    };
    gothic::telemetry::set_metrics_enabled(false);
    l
}

fn m31(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    traced: bool,
    gate: &mut Gate,
) -> io::Result<Ledger> {
    let cfg = RunConfig::default();
    let mut l = Ledger {
        input_sample: inputs.input_sample,
        snapshot_in_run: w == Workload::M31Restart,
        ..Ledger::default()
    };
    alloc::reset_peak();
    let lap = Lap::start();
    let mut sim = match &inputs.checkpoint {
        None => {
            let mut ps = bench::m31_particles(M31_N);
            l.sample_s = l.setup.add(lap);
            orient(&mut ps, seed);
            let lap = Lap::start();
            let sim = Gothic::new(ps, cfg.clone());
            l.new_s = l.setup.add(lap);
            sim
        }
        Some(path) => {
            let snap = Snapshot::load(path)?;
            l.load_s = l.setup.add(lap);
            let lap = Lap::start();
            let sim = snap.resume(cfg.clone());
            l.new_s = l.setup.add(lap);
            sim
        }
    };
    l.setup_peak_mb = alloc::peak_mib();
    // m31_restart samples its galaxy once, for the checkpoint.
    l.sampled = M31_N as u64;

    let e0 = sim.diagnostics();
    let reports = l.steps(&mut sim, M31_STEPS);
    if l.snapshot_in_run {
        let lap = Lap::start();
        Snapshot::capture(&sim).save(&inputs.closing)?;
        l.save_s = l.run.add(lap);
        l.snapshot_bytes = std::fs::metadata(&inputs.closing)?.len();
    }
    l.peak_heap_mb = alloc::peak_mib();

    l.state_digest = l.finish_state(&sim, &e0, w.name(), gate);
    if traced {
        l.retime_pricing(&reports, &cfg);
        let ps = match &inputs.checkpoint {
            None => m31_input(M31_N, seed),
            Some(path) => Snapshot::load(path)?.particles,
        };
        l.retime_bootstrap(ps, &cfg);
    }
    Ok(l)
}

/// Turn `ps` by a uniformly random rotation drawn from `seed`
/// (Shoemake's quaternion method), positions and velocities alike.
fn orient(ps: &mut ParticleSet, seed: u64) {
    use prng::Rng;
    let mut rng = prng::StdRng::seed_from_u64(seed);
    let (u1, u2, u3): (f64, f64, f64) = (rng.random(), rng.random(), rng.random());
    let tau = std::f64::consts::TAU;
    let (a, b) = ((1.0 - u1).sqrt(), u1.sqrt());
    let (x, y, z, w) = (
        a * (tau * u2).sin(),
        a * (tau * u2).cos(),
        b * (tau * u3).sin(),
        b * (tau * u3).cos(),
    );
    let r = [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - z * w),
            2.0 * (x * z + y * w),
        ],
        [
            2.0 * (x * y + z * w),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - x * w),
        ],
        [
            2.0 * (x * z - y * w),
            2.0 * (y * z + x * w),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ];
    for v in ps.pos.iter_mut().chain(ps.vel.iter_mut()) {
        let p = v.as_f64();
        let turn = |row: [f64; 3]| (row[0] * p[0] + row[1] * p[1] + row[2] * p[2]) as Real;
        *v = Vec3::new(turn(r[0]), turn(r[1]), turn(r[2]));
    }
}

/// The workload input: the standard M31 realization the figure
/// binaries use (`bench::m31_particles`), oriented by `seed`.
fn m31_input(n: usize, seed: u64) -> ParticleSet {
    let mut ps = bench::m31_particles(n);
    orient(&mut ps, seed);
    ps
}

/// Seed of the `k`-th Δacc point, so every point samples its own galaxy.
fn point_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn paper_sweep(seed: u64, traced: bool, gate: &mut Gate) -> Ledger {
    let mut l = Ledger {
        price_in_run: true,
        ..Ledger::default()
    };
    alloc::reset_peak();
    let configs = bench::fig1_configs();
    let mut table: Vec<u8> = Vec::new();
    let mut states: Vec<u8> = Vec::new();
    for (k, dacc) in bench::delta_acc_sweep().into_iter().enumerate() {
        let cfg = RunConfig::with_delta_acc(dacc);
        let lap = Lap::start();
        let mut ps = bench::m31_particles(SWEEP_N);
        l.sample_s += l.setup.add(lap);
        l.sampled += SWEEP_N as u64;
        orient(&mut ps, point_seed(seed, k));
        let lap = Lap::start();
        let mut sim = Gothic::new(ps, cfg.clone());
        l.new_s += l.setup.add(lap);
        if k == 0 {
            l.setup_peak_mb = alloc::peak_mib();
        }

        let e0 = sim.diagnostics();
        let reports = l.steps(&mut sim, SWEEP_WARMUP + SWEEP_STEPS);
        let lap = Lap::start();
        let mut acc = bench::EventAcc::default();
        for r in &reports[SWEEP_WARMUP as usize..] {
            acc.add(&r.events);
        }
        let mean =
            bench::extrapolate_events(&acc.mean(SWEEP_STEPS), SWEEP_N as u64, bench::PAPER_N);
        for (_, arch, mode) in &configs {
            let p = gothic::price_step(&mean, arch, *mode, bench::default_barrier());
            table.extend_from_slice(&p.total_seconds().to_le_bytes());
        }
        l.price_s += l.run.add(lap);

        let label = format!("paper_sweep dacc={}", bench::fmt_dacc(dacc));
        let digest = l.finish_state(&sim, &e0, &label, gate);
        states.extend_from_slice(&digest.to_le_bytes());
        if traced {
            l.retime_bootstrap(m31_input(SWEEP_N, point_seed(seed, k)), &cfg);
        }
    }

    // Table 2 reduction and scan sweep under racecheck, Volta binaries
    // on both schedulers (what `gothic_sim --racecheck --mode volta` runs).
    let lap = Lap::start();
    for sched in [Scheduler::Lockstep, Scheduler::Independent] {
        for ttot in [128usize, 256, 512, 1024] {
            for tsub in [2u32, 4, 8, 16, 32] {
                let (b, rep) = mb::run_reduction_racechecked(ttot, tsub, true, sched);
                let name = format!("reduction ttot={ttot} tsub={tsub} {sched:?}");
                racechecked(&mut l, name, &b, &rep, gate);
                let (b, rep) = mb::run_scan_racechecked(ttot, tsub, true, sched);
                let name = format!("scan ttot={ttot} tsub={tsub} {sched:?}");
                racechecked(&mut l, name, &b, &rep, gate);
            }
        }
        let (b, rep) = mb::run_gravity_flush_racechecked(32, 1e-4, sched);
        racechecked(&mut l, format!("gravity_flush {sched:?}"), &b, &rep, gate);
    }
    l.racecheck_s = l.run.add(lap);

    // The five profiled Table 2 micro-kernels, Pascal and Volta mode, at
    // the sizes `gpu_model::table2_measurements` uses.
    let lap = Lap::start();
    for (volta, sched) in [(false, Scheduler::Lockstep), (true, Scheduler::Independent)] {
        let runs = [
            (
                "gravity_flush",
                mb::run_gravity_flush_profiled(32, 1e-4, sched).0,
            ),
            (
                "reduction",
                mb::run_reduction_profiled(256, 32, volta, sched).0,
            ),
            ("scan", mb::run_scan_profiled(256, 32, volta, sched).0),
            ("predict", mb::run_predict_profiled(256, sched).0),
            ("correct", mb::run_correct_profiled(256, sched).0),
        ];
        for (name, b) in runs {
            l.simt_run(
                format!("{name} profiled {sched:?}"),
                &b.stats,
                b.correct,
                gate,
            );
        }
    }
    l.profile_s = l.run.add(lap);
    l.peak_heap_mb = alloc::peak_mib();

    l.state_digest = fnv1a64(&states);
    l.table_digest = Some(fnv1a64(&table));
    l
}

fn racechecked(
    l: &mut Ledger,
    name: String,
    b: &mb::BenchRun,
    rep: &RacecheckReport,
    gate: &mut Gate,
) {
    gate.check(rep.is_clean(), || format!("simt {name}: racecheck: {rep}"));
    l.simt_run(name, &b.stats, b.correct, gate);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny seeded run, digested the way the workloads digest.
    fn tiny_digest(seed: u64) -> (u64, Gate) {
        let mut gate = Gate::default();
        let ps = m31_input(2048, seed);
        let mut sim = Gothic::new(ps, RunConfig::default());
        let e0 = sim.diagnostics();
        let mut l = Ledger::default();
        l.steps(&mut sim, 3);
        let d = l.finish_state(&sim, &e0, "tiny", &mut gate);
        (d, gate)
    }

    #[test]
    fn tiny_seeded_workload_digests_identically_twice() {
        let (a, gate_a) = tiny_digest(7);
        let (b, gate_b) = tiny_digest(7);
        assert_eq!(a, b);
        assert_eq!(
            (gate_a.failed, gate_b.failed),
            (0, 0),
            "{:?}",
            gate_a.failures
        );
        assert!(gate_a.attempted > 0);
        let (c, _) = tiny_digest(8);
        assert_ne!(a, c, "another seed must give other inputs");
    }

    #[test]
    fn orientation_is_a_rotation() {
        let base = bench::m31_particles(256);
        let turned = m31_input(256, 11);
        let norm = |v: Vec3| v.as_f64().iter().map(|c| c * c).sum::<f64>().sqrt();
        for (a, b) in base
            .pos
            .iter()
            .chain(&base.vel)
            .zip(turned.pos.iter().chain(&turned.vel))
        {
            assert!((norm(*a) - norm(*b)).abs() <= 1e-5 * norm(*a).max(1.0));
        }
        assert_ne!(base.pos, turned.pos, "the seed must turn the galaxy");
    }

    #[test]
    fn gate_counts_failures_against_attempts() {
        let mut g = Gate::default();
        g.check(true, || unreachable!());
        g.check(false, || "broken".into());
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert_eq!(g.failures, ["broken"]);
    }

    #[test]
    fn ledger_attributes_step_walls_to_run() {
        let ps = m31_input(2048, 3);
        let mut sim = Gothic::new(ps, RunConfig::default());
        let mut l = Ledger::default();
        l.steps(&mut sim, 4);
        let [run, _, _] = l.attributed();
        assert!(run > 0.9 && run <= 1.0 + 1e-9, "{run}");
        let names: Vec<_> = l.layers().iter().map(|(n, _, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "layer names must be unique");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("gothicd"), None);
    }
}
