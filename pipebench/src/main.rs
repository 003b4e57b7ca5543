//! pipebench — end-to-end and per-layer benchmark of the GOTHIC host
//! pipeline (initial conditions → bootstrap walk → block steps).
//!
//! ```text
//! pipebench --workload <m31_fresh|m31_restart|paper_sweep|all>
//!           [--seed <n|held-out>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Each workload is repeated until `--seconds` have passed (at least
//! three times). `--trace 0` reports the end-to-end metrics as medians
//! over the repetitions; `--trace 1` alternates untraced and traced
//! repetitions and reports the per-layer metrics of the traced ones.
//! A steadiness report goes to stdout; its last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! 1 when any correctness check failed, 2 on a usage or I/O error.

mod alloc;
mod stats;
mod steal;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gothic::telemetry::json::JsonObject;
use stats::Summary;
use workloads::{Gate, Ledger, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 90_210;
const DEFAULT_SECONDS: u64 = 30;
/// Repetitions of each kind a run makes however short `--seconds` is.
const MIN_REPS: usize = 3;
/// An end-to-end metric whose (q3 − q1)/median over one run's
/// repetitions exceeds this is flagged as unsteady.
const STEADY_SPREAD: f64 = 0.1;
/// The named layers must account for this share of `run_s` and
/// `setup_s`, give or take.
const LEDGER_TOLERANCE: f64 = 0.05;

const USAGE: &str = "usage: pipebench --workload <m31_fresh|m31_restart|paper_sweep|all> \
[--seed <n|held-out>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                a.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => {
                let v = val()?;
                a.seed = if v == "held-out" {
                    HELD_OUT_SEED
                } else {
                    v.parse().map_err(|_| format!("bad seed {v}"))?
                };
            }
            "--seconds" => {
                let v = val()?;
                a.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("pipebench: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = PathBuf::from(".pipebench_work").join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&work_dir)
        .and_then(|()| parallel::with_thread_count(threads, || run(&args, threads, &work_dir)));
    std::fs::remove_dir_all(&work_dir).ok();
    std::fs::remove_dir(".pipebench_work").ok();
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    }
}

/// Run every requested workload; print the reports and the JSON line.
/// Returns whether every check passed.
fn run(args: &Args, threads: usize, work_dir: &Path) -> std::io::Result<bool> {
    let mut gate = Gate::default();
    let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
    for &w in &args.workloads {
        let (untraced, traced) = measure(w, args, &mut gate, work_dir)?;
        println!(
            "== {} seed={} seconds={} trace={} host_threads={threads} pool_threads={} \
             reps={}+{} traced",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            parallel::current_threads(),
            untraced.len(),
            traced.len(),
        );
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        let e2e = end_to_end(&untraced);
        let reported = if args.trace {
            per_layer(&untraced, &traced)
        } else {
            e2e
        };
        for (name, unit, s) in reported {
            metrics.push((format!("{prefix}{name}"), unit, s.median));
        }
        digests(w, &untraced, &traced, &mut gate);
    }
    let correct = gate.failed == 0;
    println!(
        "checks: attempted={} failed={}{}",
        gate.attempted,
        gate.failed,
        if correct { "" } else { "  FAILED:" }
    );
    for f in &gate.failures {
        println!("  {f}");
    }
    let mut body = JsonObject::new();
    for (name, unit, v) in &metrics {
        let mut m = JsonObject::new();
        m.f64("value", *v).str("unit", unit);
        body.raw(name, &m.finish());
    }
    let mut out = JsonObject::new();
    out.bool("correct", correct)
        .u64("attempted", gate.attempted)
        .u64("failed", gate.failed)
        .raw("metrics", &body.finish());
    println!("{}", out.finish());
    Ok(correct)
}

/// Repeat `w` for `args.seconds` (and at least [`MIN_REPS`] times per
/// kind). With tracing, untraced and traced repetitions alternate so
/// both see the same machine conditions.
fn measure(
    w: Workload,
    args: &Args,
    gate: &mut Gate,
    work_dir: &Path,
) -> std::io::Result<(Vec<Ledger>, Vec<Ledger>)> {
    let inputs = workloads::prepare(w, args.seed, work_dir)?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let trace_this = args.trace && untraced.len() > traced.len();
        let l = workloads::rep(w, &inputs, args.seed, trace_this, gate)?;
        if trace_this {
            traced.push(l);
        } else {
            untraced.push(l);
        }
        let enough = untraced.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        let balanced = !args.trace || untraced.len() == traced.len();
        if enough && balanced && start.elapsed() >= budget {
            break;
        }
    }
    Ok((untraced, traced))
}

type Row = (&'static str, &'static str, Summary);

fn summarise(name: &'static str, unit: &'static str, values: &[f64]) -> Row {
    (
        name,
        unit,
        Summary::of(values).expect("every run makes repetitions"),
    )
}

fn print_rows(title: &str, rows: &[Row], flag_unsteady: bool) {
    let n = rows.first().map_or(0, |r| r.2.n);
    let tail = match stats::reportable_tail(n) {
        Some(p) => format!("p{} also reportable", p * 100.0),
        None => "median only: no tail percentile has 10 samples beyond it".into(),
    };
    println!("-- {title} (n={n}; {tail})");
    println!(
        "{:<28} {:>6} {:>16} {:>16} {:>16} {:>4} {:>10}",
        "metric", "unit", "median", "q1", "q3", "n", "iqr/median"
    );
    for (name, unit, s) in rows {
        let flag = if flag_unsteady && s.spread() > STEADY_SPREAD {
            "  UNSTEADY"
        } else {
            ""
        };
        println!(
            "{name:<28} {unit:>6} {:>16.6} {:>16.6} {:>16.6} {:>4} {:>10.4}{flag}",
            s.median,
            s.q1,
            s.q3,
            s.n,
            s.spread()
        );
    }
}

fn end_to_end(reps: &[Ledger]) -> Vec<Row> {
    let col = |f: fn(&Ledger) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let rows = vec![
        summarise("setup_s", "s", &col(|l| l.net().0)),
        summarise("run_s", "s", &col(|l| l.net().1)),
        summarise("peak_heap_mb", "MiB", &col(|l| l.peak_heap_mb)),
    ];
    print_rows(
        "end-to-end, untraced; times net of hypervisor steal",
        &rows,
        true,
    );
    let raw = [
        summarise("setup_wall_s", "s", &col(|l| l.wall().0)),
        summarise("run_wall_s", "s", &col(|l| l.wall().1)),
    ];
    print_rows("raw wall, for reference", &raw, false);
    rows
}

fn per_layer(untraced: &[Ledger], traced: &[Ledger]) -> Vec<Row> {
    // Every repetition lists the same layers in the same order.
    let reps: Vec<_> = traced.iter().map(Ledger::layers).collect();
    let mut rows: Vec<Row> = reps[0]
        .iter()
        .enumerate()
        .map(|(k, &(name, unit, _))| {
            let values: Vec<f64> = reps.iter().map(|layers| layers[k].2).collect();
            summarise(name, unit, &values)
        })
        .collect();

    let median = |reps: &[Ledger], f: fn(&Ledger) -> f64| {
        Summary::of(&reps.iter().map(f).collect::<Vec<_>>())
            .expect("repetitions exist")
            .median
    };
    let run = |l: &Ledger| l.net().1;
    let overhead = (median(traced, run) / median(untraced, run) - 1.0) * 100.0;
    rows.push((
        "trace.overhead_pct",
        "%",
        Summary::of(&[overhead]).expect("one value"),
    ));
    let pct = |k: usize| -> Vec<f64> { traced.iter().map(|l| l.attributed()[k] * 100.0).collect() };
    rows.push(summarise("ledger.run_attributed_pct", "%", &pct(0)));
    rows.push(summarise("ledger.setup_attributed_pct", "%", &pct(1)));
    rows.push(summarise("ledger.new_attributed_pct", "%", &pct(2)));
    print_rows("per-layer, traced repetitions", &rows, false);

    for (what, k) in [("run_s", 0), ("setup_s", 1)] {
        let m = Summary::of(&pct(k)).expect("repetitions exist").median;
        let ok = (m / 100.0 - 1.0).abs() <= LEDGER_TOLERANCE;
        println!(
            "ledger: named layers account for {m:.2}% of {what} (tolerance ±{:.0}%): {}",
            LEDGER_TOLERANCE * 100.0,
            if ok { "ok" } else { "OUTSIDE TOLERANCE" }
        );
    }
    let m = Summary::of(&pct(2)).expect("repetitions exist").median;
    println!("ledger: tree build + calcNode + bootstrap walk account for {m:.2}% of gothic.new_s");
    rows
}

/// Every repetition of one seed must end in the same state and, for
/// paper_sweep, price the same table.
fn digests(w: Workload, untraced: &[Ledger], traced: &[Ledger], gate: &mut Gate) {
    let all: Vec<&Ledger> = untraced.iter().chain(traced).collect();
    let first = all[0];
    for l in &all[1..] {
        gate.check(l.state_digest == first.state_digest, || {
            format!(
                "{}: final-state digest differs between repetitions",
                w.name()
            )
        });
        gate.check(l.table_digest == first.table_digest, || {
            format!(
                "{}: priced-table digest differs between repetitions",
                w.name()
            )
        });
    }
    let drift = all.iter().map(|l| l.max_drift).fold(0.0, f64::max);
    println!(
        "largest relative energy drift: {drift:.3e} (bound {:e})",
        workloads::MAX_ENERGY_DRIFT
    );
    print!("digests: final_state={:016x}", first.state_digest);
    if let Some(t) = first.table_digest {
        print!(" priced_table={t:016x}");
    }
    println!();
}
