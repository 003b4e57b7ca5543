//! Overhead of the telemetry layer when disabled (the configuration every
//! production run pays for): a disabled counter bump must be a relaxed
//! load + branch, and a disabled span reads the clock once (so
//! `SpanGuard::finish` can return the phase wall) and records nothing.
//!
//! Compare `workload/bare` against `workload/counter_disabled` — the gap
//! is the compiled-in cost of instrumentation with collection switched
//! off (budget: <2%, see EXPERIMENTS.md).

use std::hint::black_box;
use telemetry::metrics::counters::POOL_CHUNKS;
use testkit::bench::Suite;

fn counter_paths(s: &mut Suite) {
    telemetry::disable_all();
    s.bench("counter/add_disabled", || {
        for _ in 0..1024 {
            POOL_CHUNKS.add(black_box(1));
        }
    });
    telemetry::set_metrics_enabled(true);
    s.bench("counter/add_enabled", || {
        for _ in 0..1024 {
            POOL_CHUNKS.add(black_box(1));
        }
    });
    telemetry::disable_all();
    telemetry::metrics::reset_all();
}

fn span_paths(s: &mut Suite) {
    telemetry::disable_all();
    s.bench("span/guard_disabled", || {
        for _ in 0..1024 {
            let _s = telemetry::span(black_box("bench phase"));
        }
    });
}

/// A small arithmetic kernel with one counter bump per iteration — far
/// denser than any instrumentation the workspace has (the pool bumps its
/// counters once per parallel call).
fn instrumented_workload(s: &mut Suite) {
    s.bench("workload/bare", || {
        let mut acc = 0u64;
        for i in 0..1024u64 {
            acc = acc.wrapping_mul(31).wrapping_add(black_box(i));
        }
        acc
    });
    telemetry::disable_all();
    s.bench("workload/counter_disabled", || {
        let mut acc = 0u64;
        for i in 0..1024u64 {
            acc = acc.wrapping_mul(31).wrapping_add(black_box(i));
            POOL_CHUNKS.add(1);
        }
        acc
    });
    telemetry::metrics::reset_all();
}

fn main() {
    let mut s = Suite::new("telemetry_overhead");
    counter_paths(&mut s);
    span_paths(&mut s);
    instrumented_workload(&mut s);
    s.finish();
}
