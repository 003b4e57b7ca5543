//! Hierarchical wall-clock spans with RAII scope guards.
//!
//! ```
//! use telemetry::sink::{TraceFormat, TraceTo};
//! telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
//! {
//!     let _step = telemetry::span("step");
//!     let _phase = telemetry::span("walk tree"); // nested: depth 1
//! } // guards drop here, innermost first, emitting span events
//! telemetry::sink::shutdown();
//! ```
//!
//! [`SpanGuard::finish`] closes a span and returns its interval. The
//! clock is read even while spans are disabled, so a caller can take its
//! timings from spans alone and they equal the traced `dur_ns`.
//!
//! Timing uses [`std::time::Instant`] (monotonic). Timestamps in emitted
//! events are nanoseconds relative to the process trace epoch (first
//! sink initialisation), so events from all threads share one clock.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard of one span. Created by [`span`]; records on drop or on
/// [`finish`](SpanGuard::finish). `rec` is `None` while spans are
/// disabled, and dropping such a guard is a no-op.
#[must_use = "a span guard records its interval when dropped"]
pub struct SpanGuard {
    start: Instant,
    rec: Option<Rec>,
}

struct Rec {
    name: &'static str,
    depth: u32,
}

/// Open a span named `name`. The returned guard measures until dropped
/// or finished.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let rec = crate::spans_enabled().then(|| {
        let depth = DEPTH.get();
        DEPTH.set(depth + 1);
        Rec { name, depth }
    });
    SpanGuard {
        start: Instant::now(),
        rec,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.rec.is_some() {
            self.close();
        }
    }
}

impl SpanGuard {
    /// Close the span now and return its interval: the same duration the
    /// trace records as `dur_ns` when the span is recording.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if let Some(rec) = self.rec.take() {
            DEPTH.set(DEPTH.get().saturating_sub(1));
            let t_ns = self.start.duration_since(crate::sink::epoch()).as_nanos() as u64;
            crate::sink::record_span(rec.name, rec.depth, t_ns, dur.as_nanos() as u64);
        }
        dur
    }
}

#[cfg(test)]
mod tests {
    use crate::json;
    use crate::sink::{self, TraceFormat, TraceTo};

    #[test]
    fn finish_returns_the_recorded_interval_and_records_once() {
        let _g = sink::test_lock();
        crate::disable_all();
        let off = super::span("off");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(off.finish() >= std::time::Duration::from_millis(1));
        sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
        let dur = super::span("on").finish();
        let lines = sink::drain_memory();
        sink::shutdown();
        let spans: Vec<_> = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 1, "off records nothing, on records once");
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("on"));
        let dur_ns = spans[0].get("dur_ns").unwrap().as_u64().unwrap();
        assert_eq!(dur_ns, dur.as_nanos() as u64);
    }

    #[test]
    fn nested_spans_report_depth_and_duration() {
        let _g = sink::test_lock();
        sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
        {
            let _outer = super::span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = super::span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let lines = sink::drain_memory();
        sink::shutdown();
        // Inner drops first; meta line precedes both.
        let spans: Vec<_> = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(spans[0].get("depth").unwrap().as_u64(), Some(1));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("outer"));
        assert_eq!(spans[1].get("depth").unwrap().as_u64(), Some(0));
        let inner_ns = spans[0].get("dur_ns").unwrap().as_u64().unwrap();
        let outer_ns = spans[1].get("dur_ns").unwrap().as_u64().unwrap();
        assert!(
            outer_ns > inner_ns,
            "outer {outer_ns} must contain inner {inner_ns}"
        );
        // Start offsets are on the shared epoch clock: inner starts later.
        let t_inner = spans[0].get("t_ns").unwrap().as_u64().unwrap();
        let t_outer = spans[1].get("t_ns").unwrap().as_u64().unwrap();
        assert!(t_inner > t_outer);
    }

    #[test]
    fn depth_recovers_after_guards_drop() {
        let _g = sink::test_lock();
        sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
        {
            let _a = super::span("a");
        }
        {
            let _b = super::span("b");
        }
        let lines = sink::drain_memory();
        sink::shutdown();
        let depths: Vec<u64> = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .map(|v| v.get("depth").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(depths, vec![0, 0], "sibling spans must both sit at depth 0");
    }
}
