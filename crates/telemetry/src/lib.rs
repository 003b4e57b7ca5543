//! # telemetry — the workspace observability layer
//!
//! The paper this repository reproduces is, at heart, a measurement
//! exercise: per-function wall-clock breakdowns (Figs. 3–5) and nvprof
//! instruction counts (Fig. 6). This crate provides the host-side
//! analogue for the Rust reproduction:
//!
//! * **Spans** ([`span()`]) — RAII scope guards recording monotonic
//!   wall-clock time with nesting, so the five Table-2 phases of every
//!   block step show up as real measured intervals next to the modeled
//!   GPU times.
//! * **Counters and histograms** ([`metrics`]) — a fixed registry of
//!   named process-scoped counters (pool jobs, chunks and steals), the
//!   log₂-bucket [`Histogram`] with p50/p95/p99 estimates for
//!   latency-shaped values, and a Prometheus text exposition of both. A
//!   run's own counts (interactions, MAC evaluations, radix passes, …)
//!   and histograms are not registered here: the run or server that
//!   produced them owns them, and the sinks and reports take them from
//!   it.
//! * **Sinks** ([`sink`]) — a process-wide trace sink rendering either
//!   JSON-lines structured events (one object per line: spans, step
//!   records, counter snapshots) or human-readable breakdown tables.
//! * **Run reports** ([`report`]) — structured `results/<name>.json`
//!   documents the bench binaries write next to their `.txt` output, so
//!   the performance trajectory is diffable across PRs.
//!
//! ## Overhead contract
//!
//! Everything is **off by default**. A disabled [`span()`] costs one
//! relaxed atomic load and one monotonic clock read (its
//! [`SpanGuard::finish`] still returns the interval, which is how the
//! pipeline times its phases); a disabled [`metrics::Counter::add`]
//! costs one relaxed atomic load and a predictable branch. No
//! allocation, no lock. The SIMT interpreter and the pool therefore keep
//! their counters compiled in unconditionally; spans sit at phase and
//! pool-job granularity.
//!
//! ## Example
//!
//! ```
//! use telemetry::sink::{TraceFormat, TraceTo};
//! telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
//! {
//!     let _step = telemetry::span("step");
//!     let _walk = telemetry::span("walk tree");
//!     telemetry::metrics::counters::POOL_CHUNKS.add(4);
//! }
//! telemetry::sink::emit_counters(&[("walk.interactions", 1024)]);
//! let lines = telemetry::sink::drain_memory();
//! assert!(lines.iter().any(|l| l.contains("\"walk tree\"")));
//! telemetry::sink::shutdown();
//! ```

pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;

pub use metrics::{Counter, Histogram};
pub use report::RunReport;
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// True when span recording is on (one relaxed load — the disabled fast
/// path of [`span()`]).
#[inline(always)]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// True when counter accumulation is on (one relaxed load — the disabled
/// fast path of [`metrics::Counter::add`]).
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off globally.
pub fn set_spans_enabled(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

/// Turn counter accumulation on or off globally.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Enable both spans and metrics (what `--trace` / `--metrics` do).
pub fn enable_all() {
    set_spans_enabled(true);
    set_metrics_enabled(true);
}

/// Disable both spans and metrics; the sink (if any) stays installed.
pub fn disable_all() {
    set_spans_enabled(false);
    set_metrics_enabled(false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_toggle_independently() {
        // Serialise against other tests that touch the global flags.
        let _g = sink::test_lock();
        disable_all();
        assert!(!spans_enabled());
        assert!(!metrics_enabled());
        set_spans_enabled(true);
        assert!(spans_enabled());
        assert!(!metrics_enabled());
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        disable_all();
        assert!(!spans_enabled() && !metrics_enabled());
    }
}
