//! Minimal in-tree property-test and micro-benchmark harness.
//!
//! Replaces the proptest and criterion dev-dependencies with the small
//! subset of their functionality the workspace actually uses:
//!
//! * [`check`] — run a property over a deterministic stream of random
//!   cases ([`Gen`] wraps `prng::StdRng`) and, on failure, report the
//!   case's seed so `check_seed` can replay it as an explicit
//!   regression test;
//! * [`bench`](mod@bench) — a fixed-format micro-benchmark runner (warm-up,
//!   calibrated batching, median-of-samples) for the `benches/`
//!   targets, which keep `harness = false`.
//!
//! There is no shrinking: when a property fails, the failing seed is
//! printed and the fix is to pin it with [`check_seed`] (see the
//! regression tests converted from `*.proptest-regressions`).

pub mod bench;

use prng::{Rng, StdRng};

/// Base of the per-case seed stream. Changing this rotates every
/// generated test case; keep it fixed so failures reproduce across
/// runs and machines.
const SEED_BASE: u64 = 0x9E37_79B9_1CEB_A5E5;

/// A source of random test data for one property case.
pub struct Gen {
    rng: StdRng,
    seed: u64,
}

impl Gen {
    pub fn from_seed(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed of this case (print it, pin it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` in `lo..hi`.
    pub fn u64_in(&mut self, r: std::ops::Range<u64>) -> u64 {
        self.rng.random_range(r)
    }

    /// Uniform `usize` in `lo..hi`.
    pub fn usize_in(&mut self, r: std::ops::Range<usize>) -> usize {
        self.rng.random_range(r)
    }

    /// Uniform `u8` in `lo..hi`.
    pub fn u8_in(&mut self, r: std::ops::Range<u8>) -> u8 {
        self.rng.random_range(r)
    }

    /// Any `i16` (full range) — the `any::<i16>()` strategy.
    pub fn any_i16(&mut self) -> i16 {
        self.rng.random()
    }

    /// Any `u64` (full range).
    pub fn any_u64(&mut self) -> u64 {
        self.rng.random()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        self.rng.random()
    }

    /// A vector with length drawn from `len`, elements from `f`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// Direct access to the underlying generator for domain samplers
    /// that take `&mut impl prng::Rng`.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Run `property` over `cases` deterministic random cases.
///
/// Each case gets an independent seed derived from a fixed base seed, the
/// property name, and the case index. Panics (assertion failures)
/// inside the property are re-raised with the case seed attached.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let mut h = SEED_BASE ^ u64::from(case).wrapping_mul(0xA24B_AED4_963E_E407);
        for b in name.bytes() {
            h = prng::splitmix64(&mut h) ^ u64::from(b);
        }
        let seed = prng::splitmix64(&mut h);
        check_seed_inner(name, case, seed, &mut property);
    }
}

/// Replay a single recorded case — the regression-pinning entry point.
pub fn check_seed(name: &str, seed: u64, mut property: impl FnMut(&mut Gen)) {
    check_seed_inner(name, 0, seed, &mut property);
}

fn check_seed_inner(name: &str, case: u32, seed: u64, property: &mut dyn FnMut(&mut Gen)) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut gen = Gen::from_seed(seed);
        property(&mut gen);
    }));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        panic!(
            "property `{name}` failed at case {case} (replay with \
             testkit::check_seed(\"{name}\", {seed:#x}, …)):\n{msg}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_across_runs() {
        let mut first = Vec::new();
        check("det", 5, |g| first.push(g.u64_in(0..1_000_000)));
        let mut second = Vec::new();
        check("det", 5, |g| second.push(g.u64_in(0..1_000_000)));
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
        // Distinct cases see distinct data.
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len());
    }

    #[test]
    fn different_properties_get_different_streams() {
        let mut a = Vec::new();
        check("alpha", 4, |g| a.push(g.any_u64()));
        let mut b = Vec::new();
        check("beta", 4, |g| b.push(g.any_u64()));
        assert_ne!(a, b);
    }

    #[test]
    fn failure_reports_replayable_seed() {
        let caught = std::panic::catch_unwind(|| {
            check("always_fails", 1, |g| {
                let v = g.u64_in(0..10);
                assert!(v > 100, "v = {v}");
            });
        });
        let payload = caught.expect_err("property must fail");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("check_seed"), "{msg}");
        // Extract the reported seed and verify the replay fails the
        // same way.
        let seed_hex = msg
            .split("0x")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .unwrap();
        let seed = u64::from_str_radix(seed_hex.trim(), 16).unwrap();
        let replay = std::panic::catch_unwind(|| {
            check_seed("always_fails", seed, |g| {
                let v = g.u64_in(0..10);
                assert!(v > 100, "v = {v}");
            });
        });
        assert!(replay.is_err(), "replayed seed must still fail");
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        check("vec_len", 16, |g| {
            let v = g.vec_of(3..9, |g| g.any_i16());
            assert!((3..9).contains(&v.len()));
        });
    }
}
