//! End-to-end telemetry: a short pipeline run with a trace sink installed
//! emits well-formed JSON-lines covering every Table-2 phase, step records
//! for every block step, and a counter snapshot with nonzero tree-walk
//! work.

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
    telemetry::sink::emit_counters();
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
    // Step 1 always rebuilds, so "make tree" fired at least once but at
    // most once per step; the per-step phases fired every step, nested
    // under the enclosing "step" span.
    assert_eq!(count["predict"], STEPS);
    assert_eq!(count["walk tree"], STEPS);
    assert_eq!(count["step"], STEPS);
    assert!(count["make tree"] >= 1 && count["make tree"] <= STEPS);

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
    for name in ["simt.syncwarps", "sort.radix_passes", "model.syncwarps"] {
        let _ = get(name);
    }
    // The registry snapshot is complete: every declared counter appears.
    assert_eq!(
        counters.as_obj().unwrap().len(),
        telemetry::metrics::counters::ALL.len()
    );
}

#[test]
fn disabled_telemetry_is_inert() {
    let _g = telemetry::sink::test_lock();
    telemetry::disable_all();
    telemetry::metrics::reset_all();
    let particles = plummer_model(256, 100.0, 1.0, 11);
    let mut sim = Gothic::new(particles, RunConfig::default());
    sim.step();
    // No sink, no enables: counters stay zero and nothing is buffered.
    assert_eq!(telemetry::metrics::counters::WALK_INTERACTIONS.value(), 0);
    assert!(telemetry::sink::drain_memory().is_empty());
    assert!(!telemetry::sink::trace_active());
}

/// The phase walls in each `StepReport` are the intervals the phase spans
/// recorded, and `step.wall.ns` is the step spans' total.
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
    for f in Function::ALL {
        let walls: Vec<u64> = reports
            .iter()
            .filter(|r| f != Function::MakeTree || r.rebuilt)
            .map(|r| (r.wall.get(f) * 1e9).round() as u64)
            .collect();
        assert_eq!(dur_ns[f.name()], walls, "{}", f.name());
    }
    assert_eq!(step_hist.count, STEPS);
    assert_eq!(step_hist.sum, dur_ns["step"].iter().sum::<u64>());
}
