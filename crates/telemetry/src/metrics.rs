//! Named monotonic counters for process-scoped events, and the log₂
//! [`Histogram`] that runs and servers own.
//!
//! The registry holds only what belongs to the process rather than to
//! one run: the work-stealing pool's job/chunk/steal tallies. A run's
//! pipeline counts (walk, calc, tree, sort, integrate, pipeline, model,
//! galaxy) come back in the run's own summary instead, so concurrent
//! runs never mix; a SIMT launch's counts come back in its `GridStats`,
//! profile and racecheck report; a gothicd server's request outcomes
//! live in that server. The hottest counter left is bumped about once
//! per pool job, so each [`Counter`] is one relaxed `AtomicU64`.
//!
//! The full workspace registry lives in [`counters`]: the telemetry
//! crate sits at the base of the crate graph, so every domain crate
//! bumps centrally declared counters and enumeration (for the JSON
//! counter snapshot) needs no cross-crate registration machinery.
//!
//! Latency-shaped values go in a [`Histogram`]: fixed log₂ buckets and
//! p50/p95/p99 quantile estimates. It is not registered: a run's step
//! walls live in its summary and a server's request latencies in that
//! server, and [`prometheus_text`] takes the owner's histograms next to
//! its counters for the gothicd `metrics` request.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `v`. Disabled fast path: one relaxed load and a branch.
    #[inline]
    pub fn add(&self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (between runs / tests).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Buckets per histogram: one for zero plus one per bit length, so any
/// `u64` value lands in a bucket without clamping.
pub const N_BUCKETS: usize = 65;

/// Bucket index of a value: 0 for 0, otherwise the bit length (bucket
/// `b ≥ 1` holds `2^(b-1) ≤ v < 2^b`).
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket — the value a quantile query
/// reports for samples landing in it.
#[inline]
fn bucket_upper(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A fixed-log₂-bucket histogram, owned by the run or server it
/// measures: a [`crate::RunReport`] or [`prometheus_text`] takes it from
/// its owner, so two runs or servers in one process never share one.
///
/// Quantiles are bucket upper bounds — exact to within a factor of 2,
/// which is the right fidelity for latency distributions spanning µs to
/// seconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one observation. `sum` wraps rather than overflows.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Record a wall-clock duration in nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// The value at quantile `q ∈ [0, 1]` — the inclusive upper bound of
    /// the bucket holding the `⌈q·count⌉`-th smallest observation.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        u64::MAX
    }

    /// The (p50, p95, p99) triple reported in metrics expositions.
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Element-wise merge — associative and commutative, so runs combine
    /// in any order. `sum` wraps like [`Histogram::record`].
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }
}

macro_rules! declare_counters {
    ($($ident:ident => $name:literal),+ $(,)?) => {
        $(pub static $ident: $crate::metrics::Counter =
            $crate::metrics::Counter::new($name);)+

        /// Every counter of the workspace registry, in declaration order.
        pub static ALL: &[&$crate::metrics::Counter] = &[$(&$ident),+];
    };
}

/// The workspace counter registry: process-scoped counters only.
///
/// Names are `subsystem.event`, stable across PRs — they are the schema
/// of the registry part of the `{"type":"counters"}` trace line, of the
/// run reports and of the gothicd Prometheus exposition.
pub mod counters {
    declare_counters! {
        // In-tree work-stealing pool (parallel).
        POOL_JOBS => "pool.jobs",
        POOL_CHUNKS => "pool.chunks",
        POOL_STEALS => "pool.steals",
    }
}

/// Snapshot of every registered counter, in declaration order.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    counters::ALL
        .iter()
        .map(|c| (c.name(), c.value()))
        .collect()
}

/// Reset every registered counter to zero.
pub fn reset_all() {
    for c in counters::ALL {
        c.reset();
    }
}

/// Registry names use `subsystem.event` dots; Prometheus metric names
/// admit only `[a-zA-Z0-9_:]`.
fn prometheus_name(name: &str) -> String {
    name.replace('.', "_")
}

/// Render an owner's counters (e.g. one gothicd server's request
/// tallies) followed by the registry, and the owner's `histograms`, in
/// the Prometheus text exposition format: one `counter` line per
/// counter, and per histogram a `summary` with
/// `{quantile="0.5"|"0.95"|"0.99"}` gauges plus `_sum`/`_count`. This
/// is the payload of the gothicd `metrics` request.
pub fn prometheus_text(
    counters: &[(&'static str, u64)],
    histograms: &[(&'static str, Histogram)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (name, v) in crate::sink::with_registry(counters) {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
    }
    for (name, h) in histograms {
        let n = prometheus_name(name);
        let (p50, p95, p99) = h.quantiles();
        let _ = writeln!(out, "# TYPE {n} summary");
        for (label, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {v}");
        }
        let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_stays_zero() {
        let _g = crate::sink::test_lock();
        crate::set_metrics_enabled(false);
        static C: Counter = Counter::new("test.disabled");
        C.add(5);
        assert_eq!(C.value(), 0);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let _g = crate::sink::test_lock();
        crate::set_metrics_enabled(true);
        static C: Counter = Counter::new("test.parallel");
        C.reset();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        C.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(C.value(), 80_000);
        C.reset();
        assert_eq!(C.value(), 0);
        crate::set_metrics_enabled(false);
    }

    #[test]
    fn registry_names_are_unique_and_snapshot_covers_all() {
        let snap = snapshot();
        assert_eq!(snap.len(), counters::ALL.len());
        let mut names: Vec<_> = snap.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate counter names");
        // Only the pool's counters (pipebench reads them by name): run
        // counts live in the run's summary, SIMT counts in the launch's
        // `GridStats` and racecheck report, and request outcomes in their
        // gothicd server.
        assert_eq!(names, ["pool.chunks", "pool.jobs", "pool.steals"]);
    }

    #[test]
    fn reset_all_zeroes_registry() {
        let _g = crate::sink::test_lock();
        crate::set_metrics_enabled(true);
        counters::POOL_CHUNKS.add(3);
        reset_all();
        assert!(snapshot().iter().all(|&(_, v)| v == 0));
        crate::set_metrics_enabled(false);
    }

    #[test]
    fn bucket_of_is_the_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Boundaries: 2^k opens bucket k+1, 2^k - 1 closes bucket k.
        for k in 1..64u32 {
            assert_eq!(bucket_of(1u64 << k), k as usize + 1);
            assert_eq!(bucket_of((1u64 << k) - 1), k as usize);
        }
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        // 99 observations of 5 (bucket 3, upper bound 7) and one of
        // 1000 (bucket 10, upper bound 1023).
        let mut s = Histogram::default();
        for _ in 0..99 {
            s.record(5);
        }
        s.record(1000);
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 99 * 5 + 1000);
        assert_eq!(s.quantile(0.50), 7);
        assert_eq!(s.quantile(0.95), 7);
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn prometheus_text_exposes_counters_and_summaries() {
        let _g = crate::sink::test_lock();
        crate::set_metrics_enabled(true);
        reset_all();
        counters::POOL_CHUNKS.add(2);
        let mut latency = Histogram::default();
        for v in [100u64, 200, 400_000] {
            latency.record(v);
        }
        let text = prometheus_text(&[("server.accepted", 3)], &[("serve.request.ns", latency)]);
        assert!(text.contains("# TYPE server_accepted counter\nserver_accepted 3"));
        assert!(text.contains("# TYPE pool_chunks counter\npool_chunks 2"));
        assert!(text.contains("# TYPE serve_request_ns summary"));
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                text.contains(&format!("serve_request_ns{{quantile=\"{q}\"}}")),
                "missing quantile {q} in:\n{text}"
            );
        }
        assert!(text.contains("serve_request_ns_count 3"));
        assert!(text.contains(&format!("serve_request_ns_sum {}", 100 + 200 + 400_000)));
        // No registry name may survive with its '.' once sanitized
        // (quantile labels legitimately contain dots).
        assert!(!text.contains("serve.request"), "unsanitized name");
        assert!(!text.contains("server.accepted"), "unsanitized name");
        reset_all();
        crate::set_metrics_enabled(false);
    }
}
