//! Order statistics for the steadiness report.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads printed here are the ones
//! a reader recomputes from the same samples.

/// Median, first and third quartile of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        let (q1, q3) = if n == 1 {
            (v[0], v[0])
        } else {
            (exclusive_quantile(&v, 1), exclusive_quantile(&v, 3))
        };
        Some(Summary { n, median, q1, q3 })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0, where a relative spread means nothing).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three cut points of `statistics.quantiles(n=4)` over
/// a sorted sample of at least two values.
fn exclusive_quantile(sorted: &[f64], i: usize) -> f64 {
    const PARTS: usize = 4;
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / PARTS).clamp(1, ld - 1);
    // Negative when the clamp moved `j` up (two samples): extrapolates.
    let delta = (i * m) as f64 - (j * PARTS) as f64;
    (sorted[j - 1] * (PARTS as f64 - delta) + sorted[j] * delta) / PARTS as f64
}

/// Tail percentiles considered beyond the median, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest tail percentile with at least ten of `n` samples beyond
/// it, or `None` when the sample supports the median only.
pub fn reportable_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(sorted(d), n=4)`.
        let cases: [(&[f64], f64, f64, f64); 5] = [
            (&[1.0, 2.0], 0.75, 1.5, 2.25),
            (&[3.0, 1.0, 2.0], 1.0, 2.0, 3.0),
            (&[1.0, 2.0, 3.0, 4.0], 1.25, 2.5, 3.75),
            (&[1.0, 2.0, 3.0, 4.0, 5.0], 1.5, 3.0, 4.5),
            (&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0], 2.0, 4.0, 7.0),
        ];
        for (data, q1, med, q3) in cases {
            let s = Summary::of(data).unwrap();
            assert!(
                close(s.q1, q1) && close(s.median, med) && close(s.q3, q3),
                "{data:?}: {s:?}"
            );
            assert_eq!(s.n, data.len());
        }
    }

    #[test]
    fn single_sample_and_empty_sample() {
        let s = Summary::of(&[2.5]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (2.5, 2.5, 2.5, 1));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(close(s.spread(), 1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 22 runs support a median only: p75 would have 5.5 beyond it.
        assert_eq!(reportable_tail(22), None);
        assert_eq!(reportable_tail(39), None);
        assert_eq!(reportable_tail(40), Some(0.75));
        assert_eq!(reportable_tail(100), Some(0.9));
        assert_eq!(reportable_tail(200), Some(0.95));
        assert_eq!(reportable_tail(1000), Some(0.99));
        assert_eq!(reportable_tail(10_000), Some(0.999));
    }
}
