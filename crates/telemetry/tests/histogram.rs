//! Seeded property tests for `telemetry::Histogram` (quantile
//! monotonicity, merge associativity, bucket boundaries).

use telemetry::metrics::N_BUCKETS;
use telemetry::Histogram;
use testkit::{check, Gen};

/// A histogram of explicit observations.
fn snap_of(values: &[u64]) -> Histogram {
    let mut s = Histogram::default();
    for &v in values {
        s.record(v);
    }
    s
}

fn arbitrary_values(g: &mut Gen) -> Vec<u64> {
    let n = g.usize_in(0..200);
    (0..n)
        .map(|_| {
            // Mix magnitudes: raw u64s would almost always land in the
            // top buckets; shift by a random amount to cover the range.
            let shift = g.u64_in(0..64) as u32;
            g.any_u64() >> shift
        })
        .collect()
}

#[test]
fn quantile_is_monotone_in_q() {
    check("histogram.quantile_monotone", 200, |g| {
        let s = snap_of(&arbitrary_values(g));
        let mut qs: Vec<f64> = (0..10).map(|_| g.f64_unit()).collect();
        qs.sort_by(f64::total_cmp);
        let mut prev = 0u64;
        for q in qs {
            let v = s.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prev = v;
        }
    });
}

#[test]
fn quantile_brackets_the_exact_order_statistic() {
    // The reported value is the upper bound of the bucket holding the
    // rank-th sample: exact_value ≤ reported < 2 × exact_value (+1).
    check("histogram.quantile_brackets", 200, |g| {
        let mut values = arbitrary_values(g);
        if values.is_empty() {
            values.push(g.any_u64() >> 32);
        }
        let s = snap_of(&values);
        values.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let reported = s.quantile(q);
            assert!(
                reported >= exact,
                "quantile({q}) = {reported} under exact {exact}"
            );
            if exact > 0 && reported < u64::MAX {
                assert!(
                    reported < exact.saturating_mul(2),
                    "quantile({q}) = {reported} over 2x exact {exact}"
                );
            }
        }
    });
}

#[test]
fn merge_is_associative_and_commutative() {
    check("histogram.merge_assoc", 200, |g| {
        let (a, b, c) = (
            snap_of(&arbitrary_values(g)),
            snap_of(&arbitrary_values(g)),
            snap_of(&arbitrary_values(g)),
        );
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // a ∪ b == b ∪ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Merging is union: counts and sums add.
        assert_eq!(ab.count, a.count + b.count);
        assert_eq!(ab.sum, a.sum.wrapping_add(b.sum));
    });
}

#[test]
fn bucket_boundary_values_round_trip_through_quantiles() {
    // A histogram holding exactly one power-of-two-boundary value must
    // report a quantile bracketing it from above within a factor of 2.
    for k in 0..63u32 {
        for v in [1u64 << k, (1u64 << k) + ((1u64 << k) >> 1)] {
            let s = snap_of(&[v]);
            let q = s.quantile(0.5);
            assert!(q >= v, "bucket upper {q} under value {v}");
            assert!(q < v.saturating_mul(2), "bucket upper {q} over 2x {v}");
        }
    }
    // Degenerate ends of the range.
    assert_eq!(snap_of(&[0]).quantile(0.5), 0);
    assert_eq!(snap_of(&[u64::MAX]).quantile(0.5), u64::MAX);
    assert_eq!(s_count(&snap_of(&[0, 1, u64::MAX])), 3);
}

fn s_count(s: &Histogram) -> u64 {
    assert_eq!(s.buckets.len(), N_BUCKETS);
    s.buckets.iter().sum()
}
