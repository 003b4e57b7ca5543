//! Determinism and observability contract of the in-tree `parallel`
//! pool at the pipeline level: forces and Morton keys must be
//! bit-identical at any worker-thread count, and the pool must announce
//! itself in the telemetry trace nested under the phases that use it.

use gothic::galaxy::{plummer_model, M31Model};
use gothic::nbody::Aabb;
use gothic::octree::{build_tree, calc_node, morton_keys, walk_tree, BuildConfig, Mac, WalkConfig};
use gothic::telemetry::sink::{TraceFormat, TraceTo};
use gothic::telemetry::{self, json};
use gothic::{Gothic, RunConfig};

const THREADS: [usize; 3] = [2, 4, 8];

/// Morton keys are an element-wise pool map — the key vector must not
/// depend on the worker count.
#[test]
fn morton_keys_are_thread_count_invariant() {
    let ps = M31Model::paper_model().sample(20_000, 3);
    let cube = Aabb::from_points(&ps.pos).bounding_cube();
    let base = parallel::with_thread_count(1, || morton_keys(&ps.pos, &cube));
    for t in THREADS {
        let keys = parallel::with_thread_count(t, || morton_keys(&ps.pos, &cube));
        assert_eq!(keys, base, "Morton keys diverge at {t} threads");
    }
}

/// The full force path (build → summarize → walk) produces bit-identical
/// accelerations and potentials at every thread count: the pool's fixed
/// chunk decomposition and ordered merge, observed end to end.
#[test]
fn tree_forces_are_thread_count_invariant() {
    let n = 8192;
    let forces_at = |threads: usize| {
        parallel::with_thread_count(threads, || {
            let mut ps = plummer_model(n, 100.0, 1.0, 21);
            let mut tree = build_tree(&mut ps, &BuildConfig::default());
            calc_node(&mut tree, &ps.pos, &ps.mass);
            let active: Vec<u32> = (0..n as u32).collect();
            let a_old = vec![1.0f32; n];
            let cfg = WalkConfig {
                mac: Mac::fiducial(),
                eps2: 1e-4,
                ..WalkConfig::default()
            };
            let res = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
            (res.acc, res.pot, tree.com, tree.mass)
        })
    };
    let base = forces_at(1);
    for t in THREADS {
        let got = forces_at(t);
        assert_eq!(got.0, base.0, "accelerations diverge at {t} threads");
        assert_eq!(got.1, base.1, "potentials diverge at {t} threads");
        assert_eq!(got.2, base.2, "node COMs diverge at {t} threads");
        assert_eq!(got.3, base.3, "node masses diverge at {t} threads");
    }
}

/// Whole-pipeline determinism: several block steps of the Gothic
/// pipeline leave bit-identical particle state regardless of the pool's
/// worker count.
#[test]
fn pipeline_steps_are_thread_count_invariant() {
    let run_at = |threads: usize| {
        parallel::with_thread_count(threads, || {
            let particles = plummer_model(2048, 100.0, 1.0, 5);
            let mut sim = Gothic::new(particles, RunConfig::default());
            for _ in 0..3 {
                sim.step();
            }
            (sim.ps.pos.clone(), sim.ps.vel.clone(), sim.ps.acc.clone())
        })
    };
    let base = run_at(1);
    for t in [2, 4] {
        assert_eq!(run_at(t), base, "pipeline state diverges at {t} threads");
    }
}

fn type_of(doc: &json::Value) -> &str {
    doc.get("type")
        .and_then(|t| t.as_str())
        .expect("every line has a type")
}

fn span_fields(d: &json::Value) -> (String, u64, u64, u64, u64) {
    (
        d.get("name").unwrap().as_str().unwrap().to_string(),
        d.get("depth").unwrap().as_u64().unwrap(),
        d.get("thread").unwrap().as_u64().unwrap(),
        d.get("t_ns").unwrap().as_u64().unwrap(),
        d.get("dur_ns").unwrap().as_u64().unwrap(),
    )
}

/// The pool opens a `pool` span on the calling thread, so the trace
/// shows the parallel runtime nested (depth + 1, time-contained) under
/// the phases that dispatch into it — walkTree and calcNode foremost.
///
/// The pool is forced to 2 workers (single-core CI hosts would
/// otherwise take the serial fallback, which never announces itself),
/// and N is large enough that calcNode's widest level spans more than
/// one chunk.
#[test]
fn pool_spans_nest_under_walk_and_calc_phases() {
    let _g = telemetry::sink::test_lock();
    telemetry::metrics::reset_all();
    telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
    parallel::with_thread_count(2, || {
        let particles = plummer_model(32_768, 100.0, 1.0, 13);
        let mut sim = Gothic::new(particles, RunConfig::default());
        for _ in 0..2 {
            sim.step();
        }
    });
    let lines = telemetry::sink::drain_memory();
    telemetry::sink::shutdown();
    let docs: Vec<json::Value> = lines.iter().map(|l| json::parse(l).unwrap()).collect();

    let spans: Vec<(String, u64, u64, u64, u64)> = docs
        .iter()
        .filter(|d| type_of(d) == "span")
        .map(span_fields)
        .collect();
    let pool: Vec<_> = spans.iter().filter(|s| s.0 == "pool").collect();
    assert!(!pool.is_empty(), "the pool never announced itself");

    // For each phase that dispatches into the pool, at least one pool
    // span must sit directly inside it: same thread, depth + 1, time
    // range contained in the phase's range.
    for phase in ["walk tree", "calc node"] {
        let nested = spans
            .iter()
            .filter(|s| s.0 == phase)
            .any(|(_, pd, pt, pt0, pdur)| {
                pool.iter().any(|(_, d, t, t0, dur)| {
                    t == pt && *d == pd + 1 && t0 >= pt0 && t0 + dur <= pt0 + pdur
                })
            });
        assert!(nested, "no pool span nested under a {phase:?} span");
    }

    // The pool counters moved too.
    assert!(telemetry::metrics::counters::POOL_JOBS.value() > 0);
    assert!(telemetry::metrics::counters::POOL_CHUNKS.value() > 0);
}
