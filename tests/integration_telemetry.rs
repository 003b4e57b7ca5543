//! End-to-end telemetry: a short pipeline run with a trace sink installed
//! emits well-formed JSON-lines covering the set-up and every Table-2
//! phase, step records for every block step, and a counter line with
//! the run's own nonzero tree-walk work.

use std::collections::HashMap;

use gothic::galaxy::plummer_model;
use gothic::telemetry::sink::{TraceFormat, TraceTo};
use gothic::telemetry::{self, json};
use gothic::{Function, Gothic, RunConfig};

const STEPS: u64 = 4;

fn run_traced() -> Vec<json::Value> {
    telemetry::metrics::reset_all();
    telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
    let particles = plummer_model(512, 100.0, 1.0, 7);
    let mut sim = Gothic::new(particles, RunConfig::default());
    for _ in 0..STEPS {
        sim.step();
    }
    telemetry::sink::emit_counters(&sim.summary().counters());
    let lines = telemetry::sink::drain_memory();
    telemetry::sink::shutdown();
    lines
        .iter()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("malformed trace line {l:?}: {e}")))
        .collect()
}

fn type_of(doc: &json::Value) -> &str {
    doc.get("type")
        .and_then(|t| t.as_str())
        .expect("every line has a type")
}

#[test]
fn trace_covers_all_phases_with_positive_durations() {
    let _g = telemetry::sink::test_lock();
    let docs = run_traced();

    assert_eq!(type_of(&docs[0]), "meta");
    assert_eq!(
        docs[0].get("version").unwrap().as_u64(),
        Some(telemetry::sink::TRACE_VERSION as u64)
    );

    // Sum span durations by phase name.
    let mut dur_ns: HashMap<String, u64> = HashMap::new();
    let mut count: HashMap<String, u64> = HashMap::new();
    for d in &docs {
        if type_of(d) == "span" {
            let name = d.get("name").unwrap().as_str().unwrap().to_string();
            *dur_ns.entry(name.clone()).or_default() += d.get("dur_ns").unwrap().as_u64().unwrap();
            *count.entry(name).or_default() += 1;
        }
    }
    for f in Function::ALL {
        let total = dur_ns.get(f.name()).copied().unwrap_or(0);
        assert!(total > 0, "phase {:?} has no measured wall-clock", f.name());
    }
    // The set-up samples once, builds and summarises the tree once and
    // walks once as "bootstrap". Step 1 always rebuilds, so "make tree"
    // then fired at least once more but at most once per step; the
    // per-step phases fired every step, nested under the "step" span.
    assert_eq!(count["ics"], 1);
    assert_eq!(count["bootstrap"], 1);
    assert_eq!(count["predict"], STEPS);
    assert_eq!(count["walk tree"], STEPS);
    assert_eq!(count["calc node"], STEPS + 1);
    assert_eq!(count["step"], STEPS);
    assert!(count["make tree"] >= 2 && count["make tree"] <= STEPS + 1);

    // One step record per block step, with modeled and measured times.
    let steps: Vec<_> = docs.iter().filter(|d| type_of(d) == "step").collect();
    assert_eq!(steps.len(), STEPS as usize);
    for s in &steps {
        assert!(s.get("modeled_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(s.get("wall_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(s.get("interactions").unwrap().as_u64().unwrap() > 0);
    }
}

#[test]
fn counter_snapshot_records_workspace_activity() {
    let _g = telemetry::sink::test_lock();
    let docs = run_traced();

    let counters = docs
        .iter()
        .rev()
        .find(|d| type_of(d) == "counters")
        .expect("trace ends with a counters line")
        .get("counters")
        .unwrap()
        .clone();

    let get = |name: &str| {
        counters
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
            .as_u64()
            .unwrap()
    };
    assert!(get("walk.interactions") > 0);
    assert!(get("walk.mac_evals") > 0);
    assert!(get("pipeline.steps") == STEPS);
    assert!(get("tree.builds") >= 1);
    assert!(get("integrate.predict_particles") > 0);
    assert!(get("integrate.correct_particles") > 0);
    // Registered even when the run exercises them lightly.
    for name in ["sort.radix_passes", "model.syncwarps"] {
        let _ = get(name);
    }
    // The line is the run's counters followed by the whole registry.
    assert_eq!(
        counters.as_obj().unwrap().len(),
        23 + telemetry::metrics::counters::ALL.len()
    );
}

/// The names of the `counters` line are the trace schema: the run's 23
/// pipeline counters, then the process-scoped registry.
#[test]
fn counters_line_names_are_pinned() {
    let _g = telemetry::sink::test_lock();
    let docs = run_traced();
    let counters = docs
        .iter()
        .find(|d| type_of(d) == "counters")
        .expect("trace has a counters line")
        .get("counters")
        .unwrap();
    // Parsed objects are name-sorted maps.
    let names: Vec<&str> = counters
        .as_obj()
        .unwrap()
        .keys()
        .map(|k| k.as_str())
        .collect();
    let mut schema = [
        "walk.groups",
        "walk.interactions",
        "walk.mac_evals",
        "walk.list_pushes",
        "walk.opens",
        "walk.flushes",
        "calc.nodes",
        "calc.child_accumulations",
        "calc.grid_syncs",
        "tree.builds",
        "tree.nodes_created",
        "sort.calls",
        "sort.elements",
        "sort.radix_passes",
        "sort.skipped_passes",
        "integrate.predict_particles",
        "integrate.correct_particles",
        "pipeline.steps",
        "pipeline.rebuilds",
        "pipeline.active_particles",
        "model.kernel_pricings",
        "model.syncwarps",
        "galaxy.sampled_particles",
        "pool.jobs",
        "pool.chunks",
        "pool.steals",
        "server.accepted",
        "server.rejected_busy",
        "server.cache_hits",
        "server.deadline_exceeded",
        "server.completed",
    ];
    schema.sort_unstable();
    assert_eq!(names, schema);
}

#[test]
fn disabled_telemetry_is_inert() {
    let _g = telemetry::sink::test_lock();
    telemetry::disable_all();
    telemetry::metrics::reset_all();
    let particles = plummer_model(256, 100.0, 1.0, 11);
    let mut sim = Gothic::new(particles, RunConfig::default());
    sim.step();
    // No sink, no enables: the registry stays zero and nothing is
    // buffered, but the run still counts its own work.
    assert!(telemetry::metrics::snapshot().iter().all(|&(_, v)| v == 0));
    assert!(telemetry::sink::drain_memory().is_empty());
    assert!(!telemetry::sink::trace_active());
    let run = sim.summary().counters();
    let get = |k: &str| run.iter().find(|(n, _)| *n == k).unwrap().1;
    assert!(get("walk.interactions") > 0);
    assert_eq!(get("pipeline.steps"), 1);
    assert_eq!(get("galaxy.sampled_particles"), 256);
}

/// The phase walls in each `StepReport` are the intervals the phase spans
/// recorded, the set-up walls are those of the set-up's spans, and
/// `step.wall.ns` is the step spans' total.
#[test]
fn step_report_walls_are_the_span_durations() {
    let _g = telemetry::sink::test_lock();
    telemetry::metrics::reset_all();
    telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
    let particles = plummer_model(512, 100.0, 1.0, 7);
    let mut sim = Gothic::new(particles, RunConfig::default());
    let reports = sim.run(STEPS);
    let lines = telemetry::sink::drain_memory();
    let step_hist = telemetry::metrics::histograms::STEP_WALL_NS.snapshot();
    telemetry::sink::shutdown();
    telemetry::metrics::reset_all();

    let mut dur_ns: HashMap<String, Vec<u64>> = HashMap::new();
    for d in lines.iter().map(|l| json::parse(l).unwrap()) {
        if type_of(&d) == "span" {
            let name = d.get("name").unwrap().as_str().unwrap().to_string();
            let ns = d.get("dur_ns").unwrap().as_u64().unwrap();
            dur_ns.entry(name).or_default().push(ns);
        }
    }
    let ns = |s: f64| (s * 1e9).round() as u64;
    let setup = &sim.summary().setup_wall;
    assert_eq!(dur_ns["bootstrap"], [ns(setup.walk_tree)]);
    for f in Function::ALL {
        // The set-up builds and summarises the tree before step 1.
        let set_up = [Function::MakeTree, Function::CalcNode].contains(&f);
        let walls: Vec<u64> = set_up
            .then(|| ns(setup.get(f)))
            .into_iter()
            .chain(
                reports
                    .iter()
                    .filter(|r| f != Function::MakeTree || r.rebuilt)
                    .map(|r| ns(r.wall.get(f))),
            )
            .collect();
        assert_eq!(dur_ns[f.name()], walls, "{}", f.name());
    }
    assert_eq!(step_hist.count, STEPS);
    assert_eq!(step_hist.sum, dur_ns["step"].iter().sum::<u64>());
}
