//! # devsort — device-style LSD radix sort
//!
//! GOTHIC's tree construction spends most of its time in
//! `cub::DeviceRadixSort::SortPairs`, sorting Morton keys with particle
//! indices as payloads (§4.1 of the paper). This crate is the from-scratch
//! substitute: one least-significant-digit radix sort over (key, payload)
//! pairs with 8-bit digits, parallel on the in-tree `parallel`
//! work-stealing pool.
//!
//! It follows the classic GPU decomposition that CUB itself uses:
//! per-chunk digit histograms, a global exclusive scan over the
//! (digit, chunk) grid, then a stable scatter into disjoint output
//! ranges — which is why the scatter can run fully in parallel without
//! synchronization. The scatter writes through the pool's one
//! disjoint-write handle, [`parallel::DisjointSlice`]. Chunk boundaries
//! depend only on the input length, so the output is the same at any
//! thread count.

use parallel::DisjointSlice;

/// Keys usable by the radix sort: fixed-width unsigned integers.
pub trait RadixKey: Copy + Ord + Send + Sync {
    /// Number of 8-bit digit passes needed.
    const PASSES: u32;
    /// Extract the `pass`-th least significant byte.
    fn digit(self, pass: u32) -> usize;
}

impl RadixKey for u32 {
    const PASSES: u32 = 4;
    #[inline(always)]
    fn digit(self, pass: u32) -> usize {
        ((self >> (8 * pass)) & 0xff) as usize
    }
}

impl RadixKey for u64 {
    const PASSES: u32 = 8;
    #[inline(always)]
    fn digit(self, pass: u32) -> usize {
        ((self >> (8 * pass)) & 0xff) as usize
    }
}

const RADIX: usize = 256;

/// Chunk length targeted by the parallel sort. Each chunk is the unit of
/// histogram/scatter parallelism (the analogue of a thread block in CUB).
const PAR_CHUNK: usize = 1 << 15;

/// Sort `keys` and `values` together by key, ascending and stable,
/// in parallel. Returns the digit passes applied; the other `K::PASSES`
/// passes found every key in one digit bucket and were skipped as
/// identities (all of them when `n <= 1`). An input of at most
/// `PAR_CHUNK` keys is one chunk, which the pool runs inline on the
/// calling thread.
pub fn sort_pairs<K: RadixKey>(keys: &mut [K], values: &mut [u32]) -> u32 {
    assert_eq!(keys.len(), values.len());
    let n = keys.len();
    if n <= 1 {
        return 0;
    }
    let n_chunks = n.div_ceil(PAR_CHUNK);
    let mut keys_alt = vec![keys[0]; n];
    let mut vals_alt = vec![0u32; n];
    let mut applied = 0;

    for pass in 0..K::PASSES {
        let (ksrc, kdst, vsrc, vdst): (&[K], &mut [K], &[u32], &mut [u32]) = if applied % 2 == 0 {
            (&keys[..], &mut keys_alt[..], &values[..], &mut vals_alt[..])
        } else {
            (&keys_alt[..], &mut keys[..], &vals_alt[..], &mut values[..])
        };

        // 1. Per-chunk digit histograms (chunk-ordered, so the scan in
        //    step 2 is identical at any thread count).
        let hists: Vec<[usize; RADIX]> = parallel::map_chunks(ksrc, PAR_CHUNK, |_, chunk| {
            let mut h = [0usize; RADIX];
            for &k in chunk {
                h[k.digit(pass)] += 1;
            }
            h
        });

        // Skip identity passes (all keys in one digit bucket).
        let mut digit_totals = [0usize; RADIX];
        for h in &hists {
            for d in 0..RADIX {
                digit_totals[d] += h[d];
            }
        }
        if digit_totals.contains(&n) {
            continue;
        }

        // 2. Exclusive scan over (digit, chunk): the first write position
        //    of chunk c for digit d. Digit-major order preserves stability.
        let mut chunk_offsets = vec![[0usize; RADIX]; n_chunks];
        let mut running = 0usize;
        for d in 0..RADIX {
            for (c, h) in hists.iter().enumerate() {
                chunk_offsets[c][d] = running;
                running += h[d];
            }
        }

        // 3. Stable parallel scatter into disjoint ranges.
        let kout = DisjointSlice::new(kdst);
        let vout = DisjointSlice::new(vdst);
        let chunk_offsets = &chunk_offsets;
        parallel::run_chunked(n_chunks, |c| {
            let lo = c * PAR_CHUNK;
            let hi = (lo + PAR_CHUNK).min(n);
            let (kchunk, vchunk) = (&ksrc[lo..hi], &vsrc[lo..hi]);
            let mut offs = chunk_offsets[c];
            for (i, &k) in kchunk.iter().enumerate() {
                let d = k.digit(pass);
                let dst = offs[d];
                offs[d] += 1;
                // SAFETY: write ranges of distinct (chunk, digit) cells
                // are disjoint by construction of the exclusive scan.
                unsafe {
                    kout.write(dst, k);
                    vout.write(dst, vchunk[i]);
                }
            }
        });
        applied += 1;
    }
    if applied % 2 == 1 {
        keys.copy_from_slice(&keys_alt);
        values.copy_from_slice(&vals_alt);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::prelude::*;

    fn reference_sort<K: RadixKey>(keys: &[K], values: &[u32]) -> (Vec<K>, Vec<u32>) {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| (keys[i], i)); // stable by construction
        (
            idx.iter().map(|&i| keys[i]).collect(),
            idx.iter().map(|&i| values[i]).collect(),
        )
    }

    #[test]
    fn empty_and_singleton() {
        let mut k: Vec<u32> = vec![];
        let mut v: Vec<u32> = vec![];
        sort_pairs(&mut k, &mut v);
        assert!(k.is_empty());
        let mut k = vec![42u32];
        let mut v = vec![7u32];
        sort_pairs(&mut k, &mut v);
        assert_eq!((k[0], v[0]), (42, 7));
    }

    #[test]
    fn small_serial_matches_reference_u32() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2usize, 3, 17, 255, 256, 1000] {
            let keys: Vec<u32> = (0..n).map(|_| rng.random()).collect();
            let values: Vec<u32> = (0..n as u32).collect();
            let (rk, rv) = reference_sort(&keys, &values);
            let mut k = keys.clone();
            let mut v = values.clone();
            sort_pairs(&mut k, &mut v);
            assert_eq!(k, rk);
            assert_eq!(v, rv);
        }
    }

    #[test]
    fn large_parallel_matches_reference_u64() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let keys: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        let values: Vec<u32> = (0..n as u32).collect();
        let (rk, rv) = reference_sort(&keys, &values);
        let mut k = keys.clone();
        let mut v = values.clone();
        sort_pairs(&mut k, &mut v);
        assert_eq!(k, rk);
        assert_eq!(v, rv);
    }

    #[test]
    fn stability_with_heavy_duplicates() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 50_000;
        // Only 4 distinct keys: stability is fully observable through the
        // payload ordering.
        let keys: Vec<u32> = (0..n).map(|_| rng.random_range(0..4u32) * 1000).collect();
        let values: Vec<u32> = (0..n as u32).collect();
        let (rk, rv) = reference_sort(&keys, &values);
        let mut k = keys.clone();
        let mut v = values.clone();
        sort_pairs(&mut k, &mut v);
        assert_eq!(k, rk);
        assert_eq!(v, rv, "parallel radix sort must be stable");
    }

    #[test]
    fn morton_like_keys_with_common_high_bits() {
        // Morton keys of a clustered distribution share their high bytes;
        // the identity-pass skip must not corrupt ordering.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let keys: Vec<u64> = (0..n)
            .map(|_| 0x0BCD_0000_0000_0000u64 | rng.random_range(0..1u64 << 20))
            .collect();
        let values: Vec<u32> = (0..n as u32).collect();
        let (rk, rv) = reference_sort(&keys, &values);
        let mut k = keys.clone();
        let mut v = values.clone();
        // Only the three low bytes vary: the other five passes are
        // identities, and skipped.
        assert_eq!(sort_pairs(&mut k, &mut v), 3);
        assert_eq!(k, rk);
        assert_eq!(v, rv);
    }

    #[test]
    fn chunk_boundary_matches_reference() {
        // One chunk, exactly one full chunk, and a full chunk plus a
        // one-key chunk, each run inline and on the pool.
        let mut rng = StdRng::seed_from_u64(21);
        for n in [PAR_CHUNK - 1, PAR_CHUNK, PAR_CHUNK + 1] {
            let keys: Vec<u64> = (0..n).map(|_| rng.random()).collect();
            let values: Vec<u32> = (0..n as u32).collect();
            let (rk, rv) = reference_sort(&keys, &values);
            for threads in [1, 4] {
                let (mut k, mut v) = (keys.clone(), values.clone());
                parallel::with_thread_count(threads, || sort_pairs(&mut k, &mut v));
                assert_eq!(k, rk, "n = {n}, threads = {threads}");
                assert_eq!(v, rv, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let n = 70_000u32;
        let mut k: Vec<u32> = (0..n).collect();
        let mut v: Vec<u32> = (0..n).collect();
        sort_pairs(&mut k, &mut v);
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        let mut k: Vec<u32> = (0..n).rev().collect();
        let mut v: Vec<u32> = (0..n).collect();
        sort_pairs(&mut k, &mut v);
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v[0], n - 1);
    }
}
