//! `gothic_sim` — command-line driver for the GOTHIC pipeline.
//!
//! ```text
//! gothic_sim [OPTIONS]
//!
//!   --model <plummer|hernquist|m31>   initial conditions      [m31]
//!   --n <N>                           particle count          [16384]
//!   --dacc <x>                        accuracy parameter Δacc [2^-9]
//!   --steps <k>                       block steps to run      [64]
//!   --arch <v100|p100|titanx|k20x|m2090>  cost model GPU      [v100]
//!   --mode <pascal|volta>             execution mode (§2.1)   [pascal]
//!   --eta <x>                         time-step accuracy      [0.5]
//!   --eps <x>                         softening length (kpc)  [0.015625]
//!   --snapshot <path>                 write a checkpoint at the end
//!   --restart <path>                  resume from a checkpoint
//!   --seed <s>                        sampling seed           [42]
//!   --log-every <k>                   report cadence          [8]
//!   --trace <path|->                  trace sink (- = stderr)
//!   --trace-format <jsonl|chrome>     trace sink format       [jsonl]
//!   --metrics                         per-run counter + wall-clock tables
//!   --profile                         measured-vs-modeled op-count tables
//!   --racecheck                       happens-before hazard sweep first
//! ```

use gothic::galaxy::{plummer_model, M31Model};
use gothic::gpu_model::{ExecMode, GpuArch};
use gothic::nbody::units;
use gothic::octree::Mac;
use gothic::telemetry;
use gothic::telemetry::sink::{TraceFormat, TraceTo};
use gothic::{Function, Gothic, RunConfig, Snapshot};

const USAGE: &str = "gothic_sim — GOTHIC pipeline driver (block time steps, acceleration MAC)

USAGE:
    gothic_sim [OPTIONS]

OPTIONS:
    --model <plummer|hernquist|m31>        initial conditions        [m31]
    --n <N>                                particle count            [16384]
    --dacc <x>                             accuracy parameter Δacc   [2^-9]
    --steps <k>                            block steps to run        [64]
    --arch <v100|p100|titanx|k20x|m2090>   cost-model GPU            [v100]
    --mode <pascal|volta>                  execution mode (§2.1)     [pascal]
    --eta <x>                              time-step accuracy        [0.5]
    --eps <x>                              softening length (kpc)    [0.015625]
    --snapshot <path>                      write a checkpoint at the end
    --restart <path>                       resume from a checkpoint
    --seed <s>                             sampling seed             [42]
    --log-every <k>                        report cadence            [8]
    --trace <path|->                       write a trace of spans, step records
                                           and counter totals to <path>
                                           ('-' traces to stderr)
    --trace-format <jsonl|chrome>          trace sink format [jsonl]: 'jsonl'
                                           is self-contained JSON-lines;
                                           'chrome' is a Chrome trace-event
                                           array (load via chrome://tracing
                                           or Perfetto). Requires --trace.
    --metrics                              print the measured-vs-modeled
                                           breakdown and counter tables on exit
    --profile                              run the simt profiler over the five
                                           Table 2 micro-kernels after the
                                           simulation and print the measured
                                           vs modeled operation counts (Fig. 6)
                                           and the INT/FP32 overlap analysis
                                           (Fig. 7); implies metrics collection
    --racecheck                            run the interpreter kernels (Table 2
                                           reduction/scan sweep + gravity flush)
                                           under the happens-before race
                                           detector before simulating; exits 1
                                           if any hazard is found
    -h, --help                             print this help

Tracing and metrics are off by default and cost nothing when disabled.
Trace lines are self-contained JSON objects with a \"type\" field
(meta | span | step | counters); see README.md §Observability.";

#[derive(Debug)]
struct Args {
    model: String,
    n: usize,
    dacc: f32,
    steps: u64,
    arch: String,
    mode: String,
    eta: f32,
    eps: f32,
    snapshot: Option<String>,
    restart: Option<String>,
    seed: u64,
    log_every: u64,
    trace: Option<String>,
    trace_format: String,
    metrics: bool,
    profile: bool,
    racecheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        model: "m31".into(),
        n: 16_384,
        dacc: 2.0f32.powi(-9),
        steps: 64,
        arch: "v100".into(),
        mode: "pascal".into(),
        eta: 0.5,
        eps: 0.015625,
        snapshot: None,
        restart: None,
        seed: 42,
        log_every: 8,
        trace: None,
        trace_format: "jsonl".into(),
        metrics: false,
        profile: false,
        racecheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--model" => a.model = val()?,
            "--n" => a.n = val()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--dacc" => a.dacc = val()?.parse().map_err(|e| format!("--dacc: {e}"))?,
            "--steps" => a.steps = val()?.parse().map_err(|e| format!("--steps: {e}"))?,
            "--arch" => a.arch = val()?,
            "--mode" => a.mode = val()?,
            "--eta" => a.eta = val()?.parse().map_err(|e| format!("--eta: {e}"))?,
            "--eps" => a.eps = val()?.parse().map_err(|e| format!("--eps: {e}"))?,
            "--snapshot" => a.snapshot = Some(val()?),
            "--restart" => a.restart = Some(val()?),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--log-every" => {
                a.log_every = val()?.parse().map_err(|e| format!("--log-every: {e}"))?
            }
            "--trace" => a.trace = Some(val()?),
            "--trace-format" => a.trace_format = val()?,
            "--metrics" => a.metrics = true,
            "--profile" => a.profile = true,
            "--racecheck" => a.racecheck = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    validate_args(&a)?;
    Ok(a)
}

/// Reject values that would panic deep inside the pipeline (zero particle
/// counts, a zero logging cadence used as a modulus, non-finite or
/// non-positive accuracy parameters) with a clear message instead.
fn validate_args(a: &Args) -> Result<(), String> {
    if a.n == 0 {
        return Err("--n must be at least 1".into());
    }
    if a.steps == 0 {
        return Err("--steps must be at least 1".into());
    }
    if a.log_every == 0 {
        return Err("--log-every must be at least 1".into());
    }
    let positive = |name: &str, v: f32| -> Result<(), String> {
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("{name} must be a finite positive number, got {v}"));
        }
        Ok(())
    };
    positive("--dacc", a.dacc)?;
    positive("--eta", a.eta)?;
    positive("--eps", a.eps)?;
    if !matches!(a.model.as_str(), "m31" | "plummer" | "hernquist") {
        return Err(format!("unknown model {}", a.model));
    }
    if !matches!(a.trace_format.as_str(), "jsonl" | "chrome") {
        return Err(format!(
            "--trace-format must be 'jsonl' or 'chrome', got {}",
            a.trace_format
        ));
    }
    if a.trace_format == "chrome" && a.trace.is_none() {
        return Err("--trace-format requires --trace".into());
    }
    Ok(())
}

/// Run every shipped interpreter kernel under the happens-before race
/// detector, faithful to the selected execution mode: the Pascal mode
/// compiles the `__syncwarp()` out and assumes lockstep scheduling, the
/// Volta mode keeps the syncs and must be hazard-free under *both*
/// schedulers (§2.1). Returns the total hazard occurrence count.
fn racecheck_preflight(mode: ExecMode) -> u64 {
    let volta_sync = mode == ExecMode::VoltaMode;
    let runs = gothic::simt::microbench::racecheck_sweep(
        volta_sync,
        &[128, 256, 512, 1024],
        &[2, 4, 8, 16, 32],
    );
    let mut hazards = 0u64;
    for (name, b, rep) in &runs {
        if !b.correct {
            eprintln!("racecheck: {name}: WRONG RESULT");
        }
        if !rep.is_clean() {
            hazards += rep.total;
            eprintln!("racecheck: {name}: {rep}");
        }
    }
    let runs = runs.len();
    if hazards == 0 {
        println!(
            "racecheck: 0 hazards across {runs} kernel runs ({})",
            if volta_sync {
                "volta mode, both schedulers"
            } else {
                "pascal mode, lockstep"
            }
        );
    } else {
        println!("racecheck: {hazards} hazard occurrence(s) across {runs} kernel runs");
    }
    hazards
}

/// Report a bad argument and exit with the usage status.
fn usage_error(e: &str) -> ! {
    eprintln!("gothic_sim: {e}");
    std::process::exit(2)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(&e));

    let trace_format = match args.trace_format.as_str() {
        "chrome" => TraceFormat::Chrome,
        _ => TraceFormat::JsonLines,
    };
    match args.trace.as_deref() {
        Some(path) => {
            let to = match path {
                "-" => TraceTo::Stderr,
                _ => TraceTo::File(std::path::Path::new(path)),
            };
            if let Err(e) = telemetry::sink::init_trace(to, trace_format) {
                eprintln!("gothic_sim: cannot open trace file {path}: {e}");
                std::process::exit(1);
            }
        }
        None => {
            if args.metrics || args.profile {
                // Counter/profile tables without a trace sink: accumulate
                // only.
                telemetry::set_metrics_enabled(true);
            }
        }
    }

    let cfg = RunConfig {
        mac: Mac::Acceleration {
            delta_acc: args.dacc,
        },
        eps: args.eps,
        eta: args.eta,
        arch: GpuArch::by_key(&args.arch).unwrap_or_else(|e| usage_error(&e)),
        mode: ExecMode::by_key(&args.mode).unwrap_or_else(|e| usage_error(&e)),
        ..RunConfig::default()
    };

    if args.racecheck && racecheck_preflight(cfg.mode) > 0 {
        if args.profile {
            eprintln!(
                "gothic_sim: racecheck found hazards; refusing to simulate or profile \
                 (profiling racy kernels would measure undefined interleavings)"
            );
        } else {
            eprintln!("gothic_sim: racecheck found hazards; refusing to simulate");
        }
        std::process::exit(1);
    }

    let mut sim = if let Some(path) = &args.restart {
        let sim = Snapshot::load(path)
            .and_then(|snap| snap.try_resume(cfg))
            .unwrap_or_else(|e| {
                eprintln!("gothic_sim: cannot restart from {path}: {e}");
                std::process::exit(1);
            });
        println!(
            "restarted from {path}: N = {}, t = {:.3} ({} steps done)",
            sim.len(),
            sim.time(),
            sim.step_count
        );
        sim
    } else {
        let particles = match args.model.as_str() {
            "m31" => M31Model::paper_model().sample(args.n, args.seed),
            "plummer" => plummer_model(args.n, 100.0, 1.0, args.seed),
            "hernquist" => {
                use gothic::galaxy::{eddington_df, sample_component, CompositePotential};
                let h = gothic::galaxy::Hernquist::new(100.0, 1.0, 100.0);
                let pot = CompositePotential::build(&[&h]);
                let df = eddington_df(&h, &pot);
                let mut rng = prng::StdRng::seed_from_u64(args.seed);
                let pairs = sample_component(&h, &pot, &df, args.n, &mut rng);
                let mut ps = gothic::nbody::ParticleSet::with_capacity(args.n);
                let m = (100.0 / args.n as f64) as f32;
                for (p, v) in pairs {
                    ps.push(p, v, m);
                }
                gothic::galaxy::zero_com(&mut ps);
                ps
            }
            other => usage_error(&format!("unknown model {other}")),
        };
        println!(
            "model = {}, N = {}, dacc = {:.3e}, arch = {} ({:?})",
            args.model, args.n, args.dacc, cfg.arch.name, cfg.mode
        );
        Gothic::try_new(particles, cfg).unwrap_or_else(|e| {
            eprintln!("gothic_sim: {e}");
            std::process::exit(1);
        })
    };

    let e0 = sim.diagnostics();
    println!(
        "E₀ = {:.5e}, virial ratio = {:.3}",
        e0.total_energy(),
        gothic::nbody::energy::virial_ratio(&e0)
    );
    println!(
        "{:>6} {:>10} {:>8} {:>8} {:>13} {:>13} {:>9}",
        "step", "t [Myr]", "active", "rebuilt", "model t/step", "interactions", "dE/E"
    );

    for k in 0..args.steps {
        let r = sim.step();
        if (k + 1) % args.log_every == 0 || r.rebuilt && args.log_every <= 4 {
            let e = sim.diagnostics();
            println!(
                "{:>6} {:>10.2} {:>8} {:>8} {:>11.3e} s {:>13} {:>9.2e}",
                r.step,
                r.time * units::time_unit_myr(),
                r.n_active,
                r.rebuilt,
                r.profile.total_seconds(),
                r.events.walk.interactions,
                e.relative_energy_drift(&e0)
            );
        }
    }

    let summary = sim.summary();
    let (total, wall) = (&summary.profile, &summary.wall);
    println!("\nmodeled {} breakdown per step:", sim.cfg.arch.name);
    for f in Function::ALL {
        let c = total.get(f);
        println!(
            "  {:<10} {:>12.3e} s ({:>5.1}%)",
            f.name(),
            c.seconds / args.steps as f64,
            100.0 * c.seconds / total.total_seconds()
        );
    }
    let e1 = sim.diagnostics();
    println!(
        "final relative energy drift: {:.3e}",
        e1.relative_energy_drift(&e0)
    );

    if args.profile {
        let volta = sim.cfg.mode == ExecMode::VoltaMode;
        let measured = gothic::gpu_model::table2_measurements(volta);
        println!(
            "\nsimt profiler ({} mode, {} scheduler):",
            sim.cfg.mode.key(),
            if volta { "independent" } else { "lockstep" },
        );
        print!("{}", gothic::gpu_model::measured::render_table(&measured));
        print!("{}", gothic::gpu_model::measured::render_overlap(&measured));
    }

    if args.metrics {
        let rows: Vec<(&str, f64, f64)> = Function::ALL
            .iter()
            .map(|&f| (f.name(), total.get(f).seconds, wall.get(f)))
            .collect();
        let title = format!(
            "modeled ({} {:?}) vs measured wall-clock, {} steps:",
            sim.cfg.arch.name, sim.cfg.mode, args.steps
        );
        eprint!(
            "{}",
            telemetry::sink::breakdown_table(&title, &rows, args.steps)
        );
        eprint!(
            "{}",
            telemetry::sink::counters_table(&summary.counters(), false)
        );
    }
    if args.trace.is_some() {
        telemetry::sink::emit_counters(&summary.counters());
        telemetry::sink::shutdown();
        if let Some(path) = &args.trace {
            if path != "-" {
                eprintln!("trace written to {path}");
            }
        }
    }

    if let Some(path) = &args.snapshot {
        Snapshot::capture(&sim).save(path).unwrap_or_else(|e| {
            eprintln!("gothic_sim: cannot write snapshot {path}: {e}");
            std::process::exit(1);
        });
        println!("snapshot written to {path} (t = {:.4})", sim.time());
    }
}
