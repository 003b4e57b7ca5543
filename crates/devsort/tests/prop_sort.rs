//! Property-based tests for the radix sort against the standard-library
//! stable sort, over arbitrary key distributions (testkit harness).

use devsort::sort_pairs;
use testkit::check;

fn reference(keys: &[u64], vals: &[u32]) -> (Vec<u64>, Vec<u32>) {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by_key(|&i| (keys[i], i));
    (
        idx.iter().map(|&i| keys[i]).collect(),
        idx.iter().map(|&i| vals[i]).collect(),
    )
}

/// The sort matches the stable reference on arbitrary u64 keys.
#[test]
fn matches_stable_reference() {
    check("matches_stable_reference", 64, |g| {
        let keys = g.vec_of(0..3000, |g| g.any_u64());
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (rk, rv) = reference(&keys, &vals);

        let mut k = keys.clone();
        let mut v = vals.clone();
        sort_pairs(&mut k, &mut v);
        assert_eq!(k, rk);
        assert_eq!(v, rv);
    });
}

/// Low-entropy keys (heavy duplication — the stability stress case).
#[test]
fn stable_under_heavy_duplication() {
    check("stable_under_heavy_duplication", 64, |g| {
        let keys = g.vec_of(0..2000, |g| g.u64_in(0..8));
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (rk, rv) = reference(&keys, &vals);
        let mut k = keys.clone();
        let mut v = vals.clone();
        sort_pairs(&mut k, &mut v);
        assert_eq!(k, rk);
        assert_eq!(v, rv);
    });
}

/// Morton-like keys: clustered values sharing high bytes, exercising
/// the identity-pass skip.
#[test]
fn clustered_prefix_keys() {
    check("clustered_prefix_keys", 64, |g| {
        let prefix = g.u64_in(0..8);
        let lows = g.vec_of(0..2000, |g| g.u64_in(0..(1 << 18)));
        let keys: Vec<u64> = lows.iter().map(|&l| (prefix << 50) | l).collect();
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (rk, rv) = reference(&keys, &vals);
        let mut k = keys.clone();
        let mut v = vals.clone();
        sort_pairs(&mut k, &mut v);
        assert_eq!(k, rk);
        assert_eq!(v, rv);
    });
}

/// Sorting is idempotent.
#[test]
fn idempotent() {
    check("idempotent", 64, |g| {
        let mut k = g.vec_of(0..1500, |g| g.any_u64());
        let mut v: Vec<u32> = (0..k.len() as u32).collect();
        sort_pairs(&mut k, &mut v);
        let (k1, v1) = (k.clone(), v.clone());
        sort_pairs(&mut k, &mut v);
        assert_eq!(k, k1);
        assert_eq!(v, v1);
    });
}

/// The parallel sort produces byte-identical output at every thread
/// count — the pool's deterministic-decomposition contract, observed
/// through the sort that feeds tree construction.
#[test]
fn parallel_sort_is_thread_count_invariant() {
    check("parallel_sort_is_thread_count_invariant", 8, |g| {
        let keys = g.vec_of(20_000..40_000, |g| g.any_u64());
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let sort_at = |threads: usize| {
            parallel::with_thread_count(threads, || {
                let mut k = keys.clone();
                let mut v = vals.clone();
                sort_pairs(&mut k, &mut v);
                (k, v)
            })
        };
        let base = sort_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(sort_at(threads), base, "threads = {threads}");
        }
    });
}
