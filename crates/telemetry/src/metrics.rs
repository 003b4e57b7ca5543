//! Named monotonic counters and log₂ histograms for process-scoped
//! events.
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
//! [`Histogram`] joins [`Counter`] for latency-shaped values: fixed
//! log₂ buckets (no allocation, const-constructible statics), relaxed
//! atomic recording, and p50/p95/p99 quantile estimates from a
//! [`HistogramSnapshot`]. The histogram registry lives in
//! [`histograms`]; [`prometheus_text`] renders both registries in the
//! Prometheus text exposition format for the gothicd `metrics` request.

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

/// A named fixed-log₂-bucket histogram.
///
/// Recording is lock-free (one relaxed `fetch_add` per field touched)
/// and gated on [`crate::metrics_enabled`] like [`Counter::add`], so a
/// disabled run pays one load and a branch. Quantiles are bucket upper
/// bounds — exact to within a factor of 2, which is the right fidelity
/// for latency distributions spanning µs to seconds.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one observation. Disabled fast path: one relaxed load and
    /// a branch.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the distribution. Concurrent recording
    /// may leave `count`/`sum`/buckets off by in-flight observations;
    /// once recording threads are joined the snapshot is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Reset to empty (between runs / tests).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An owned copy of a [`Histogram`]'s state, for quantile queries and
/// cross-run merging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; N_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]` — the inclusive upper bound of
    /// the bucket holding the `⌈q·count⌉`-th smallest observation.
    /// Returns 0 for an empty snapshot.
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

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Element-wise merge — associative and commutative, so threads or
    /// per-run snapshots combine in any order. `sum` wraps like the
    /// atomic `fetch_add` it mirrors.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }
}

macro_rules! declare_histograms {
    ($($ident:ident => $name:literal),+ $(,)?) => {
        $(pub static $ident: $crate::metrics::Histogram =
            $crate::metrics::Histogram::new($name);)+

        /// Every histogram of the workspace registry, in declaration order.
        pub static ALL: &[&$crate::metrics::Histogram] = &[$(&$ident),+];
    };
}

/// The workspace histogram registry.
///
/// Names are `subsystem.event.unit`, stable across PRs — they are the
/// schema of the run-report `histograms` section and of the gothicd
/// Prometheus exposition.
pub mod histograms {
    declare_histograms! {
        // gothicd per-request service latency (accept to response write).
        SERVE_REQUEST_NS => "serve.request.ns",
        // GOTHIC pipeline per-block-step wall time.
        STEP_WALL_NS => "step.wall.ns",
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

/// Snapshot of every registered histogram, in declaration order.
pub fn snapshot_histograms() -> Vec<(&'static str, HistogramSnapshot)> {
    histograms::ALL
        .iter()
        .map(|h| (h.name(), h.snapshot()))
        .collect()
}

/// Reset every registered counter and histogram to zero.
pub fn reset_all() {
    for c in counters::ALL {
        c.reset();
    }
    for h in histograms::ALL {
        h.reset();
    }
}

/// Registry names use `subsystem.event` dots; Prometheus metric names
/// admit only `[a-zA-Z0-9_:]`.
fn prometheus_name(name: &str) -> String {
    name.replace('.', "_")
}

/// Render `run`'s counters (e.g. one gothicd server's request tallies)
/// and both registries in the Prometheus text exposition format: one
/// `counter` line per counter, and per histogram a `summary` with
/// `{quantile="0.5"|"0.95"|"0.99"}` gauges plus `_sum`/`_count`. This
/// is the payload of the gothicd `metrics` request.
pub fn prometheus_text(run: &[(&'static str, u64)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (name, v) in crate::sink::with_registry(run) {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
    }
    for (name, snap) in snapshot_histograms() {
        let n = prometheus_name(name);
        let (p50, p95, p99) = snap.quantiles();
        let _ = writeln!(out, "# TYPE {n} summary");
        for (label, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {v}");
        }
        let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", snap.sum, snap.count);
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
        histograms::STEP_WALL_NS.record(7);
        reset_all();
        assert!(snapshot().iter().all(|&(_, v)| v == 0));
        assert!(snapshot_histograms().iter().all(|(_, s)| s.count == 0));
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
    fn disabled_histogram_stays_empty() {
        let _g = crate::sink::test_lock();
        crate::set_metrics_enabled(false);
        static H: Histogram = Histogram::new("test.h.disabled");
        H.record(9);
        assert_eq!(H.snapshot().count, 0);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let _g = crate::sink::test_lock();
        crate::set_metrics_enabled(true);
        static H: Histogram = Histogram::new("test.h.quantiles");
        H.reset();
        // 99 observations of 5 (bucket 3, upper bound 7) and one of
        // 1000 (bucket 10, upper bound 1023).
        for _ in 0..99 {
            H.record(5);
        }
        H.record(1000);
        let s = H.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 99 * 5 + 1000);
        assert_eq!(s.quantile(0.50), 7);
        assert_eq!(s.quantile(0.95), 7);
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        crate::set_metrics_enabled(false);
    }

    #[test]
    fn prometheus_text_exposes_counters_and_summaries() {
        let _g = crate::sink::test_lock();
        crate::set_metrics_enabled(true);
        reset_all();
        counters::POOL_CHUNKS.add(2);
        for v in [100u64, 200, 400_000] {
            histograms::SERVE_REQUEST_NS.record(v);
        }
        let text = prometheus_text(&[("server.accepted", 3)]);
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
