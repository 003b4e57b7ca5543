//! In-tree work-stealing fork-join pool on persistent workers (std-only).
//!
//! This crate replaces rayon in the octree/devsort/nbody hot paths. It
//! is built from three pieces, all standard library:
//!
//! 1. a persistent per-caller crew — each thread that opens a parallel
//!    region owns the workers that serve it, created by its first region
//!    and joined when it exits, so a region costs a hand-off, not a
//!    spawn. Workers and the waiting caller spin for a bounded time and
//!    then park on a condvar. The region borrows the caller's data for
//!    its duration: it does not return, nor unwind, before every worker
//!    has finished with the body, which is what makes lending the body
//!    to threads that outlive it sound;
//! 2. chunked work queues with atomic cursors — the item range is split
//!    into one contiguous sub-range per worker, each with an
//!    [`AtomicUsize`] cursor; a worker drains its own range with
//!    `fetch_add`, then *steals* by advancing the cursor of the most
//!    loaded other range;
//! 3. deterministic chunk-ordered reduction — every chunk writes its
//!    result into a slot indexed by chunk number, and any combination
//!    of per-chunk results happens serially in chunk order after the
//!    region joins.
//!
//! Because chunk boundaries depend only on the item count and a fixed
//! chunk size — never on the thread count or on scheduling — the
//! per-chunk results, and therefore the merged output, are **bit
//! identical** at any thread count, including 1. That is the contract
//! the force pipeline relies on (see `octree::walk`): determinism is a
//! property of the decomposition, and the pool is free to execute
//! chunks in any order.
//!
//! Thread count: the `GOTHIC_THREADS` environment variable, clamped to
//! at least 1, else [`std::thread::available_parallelism`], resolved
//! once per process. Tests pin a count for the current thread (only)
//! with [`with_thread_count`], so concurrently running tests cannot race
//! on a global. A crew grows to the largest count its thread has asked
//! for; a region uses as many of its workers as the count selects.
//! Concurrent callers each drive their own crew, and a region opened
//! inside a region's body runs inline on the thread that opens it.
//! A panic in a body reaches the caller with its own payload, after the
//! region has joined.
//!
//! Disjoint writes: every helper that writes shared output — the
//! per-item and per-chunk result vectors, the in-place sub-slices, and
//! `devsort`'s radix scatter — goes through one handle,
//! [`DisjointSlice`]. Its safety argument is the pool's: each chunk
//! index is claimed exactly once, so the index ranges the chunks write
//! are disjoint by construction.
//!
//! Observability: every parallel region opens a `"pool"` telemetry span
//! on the *calling* thread, so in traces it nests under whichever
//! pipeline phase (`walk tree`, `calc node`, …) invoked it, and bumps
//! the `pool.jobs` / `pool.chunks` / `pool.steals` counters. Crew
//! workers live as long as their caller, so spans opened in a body carry
//! one stable trace `thread` label per worker.

use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use telemetry::metrics::counters as ctr;

mod crew;
pub mod pool;

pub use pool::{Bounded, Job, PushError, Submitter, WorkerPool};

/// Fixed chunk width for the element-wise helpers ([`map_range`],
/// [`for_each_mut`]). Thread-count-independent by construction; 1024
/// elements amortise the per-chunk atomics while still giving the
/// stealer something to take on skewed workloads.
pub const DEFAULT_CHUNK: usize = 1024;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide worker count: `GOTHIC_THREADS`, else the host's
/// available parallelism, read once.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("GOTHIC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The worker count a parallel region started now would use.
pub fn current_threads() -> usize {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(default_threads)
}

/// Run `f` with the pool pinned to `n` threads **on this thread only**.
///
/// The override is thread-local and restored on unwind, so parallel
/// determinism tests running concurrently under `cargo test` cannot
/// interfere with each other.
pub fn with_thread_count<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            OVERRIDE.with(|o| o.set(prev));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// A mutable slice that pool workers write concurrently, each at
/// indices no other worker touches — the one disjoint-write handle of
/// the workspace.
///
/// The handle borrows the slice mutably for its whole life, so nothing
/// else reads it until every writer is done. Disjointness itself is the
/// caller's proof, stated at each `unsafe` call: a chunk claimed once by
/// [`run_chunked`] owns its index range, and the radix sort's exclusive
/// scan gives each (digit, chunk) cell its own output range.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `len` are never changed after `new`, and shared use
// reaches the elements only through the `unsafe` methods below, whose
// callers guarantee that no element is accessed from two threads.
// Writing and dropping `T`s from other threads needs `T: Send`.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap `slice` for disjoint concurrent writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _borrow: PhantomData,
        }
    }

    /// Store `value` at index `i`, dropping the old element.
    ///
    /// # Safety
    /// `i` is in bounds, and no other access to element `i`, on any
    /// thread, overlaps this call.
    #[inline(always)]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }

    /// The elements in `range`, mutably.
    ///
    /// # Safety
    /// `range` is in bounds, and no other access to its elements, on any
    /// thread, overlaps the returned slice's life.
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's proof
    pub unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

/// One worker's contiguous sub-range of chunk indices, drained through
/// an atomic cursor. The owner and thieves both claim indices with
/// `fetch_add`; indices at or past `end` are discarded, so every index
/// is claimed exactly once across all workers.
struct Queue {
    next: AtomicUsize,
    end: usize,
}

impl Queue {
    #[inline]
    fn claim(&self) -> Option<usize> {
        // Opportunistic load first: once drained, stay drained without
        // growing the counter unboundedly under a steal storm.
        if self.next.load(Ordering::Relaxed) >= self.end {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.end.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// Execute `body(chunk_index)` exactly once for every chunk in
/// `0..n_chunks`, distributed over the pool with work stealing.
///
/// This is the pool's core primitive; the typed helpers below build
/// their determinism guarantees on top of it. `body` runs on the
/// calling thread and on its crew's workers; execution order is
/// arbitrary. A region opened from inside `body` runs inline on the
/// thread that opens it. A panic in `body` reaches the caller, with its
/// own payload, once every worker has finished the region.
pub fn run_chunked(n_chunks: usize, body: impl Fn(usize) + Sync) {
    let threads = current_threads().min(n_chunks.max(1));
    if threads <= 1 || n_chunks <= 1 || crew::in_region() {
        for i in 0..n_chunks {
            body(i);
        }
        return;
    }

    // The span opens on the calling thread → it nests under the phase
    // span ("walk tree", "calc node", …) that invoked the pool.
    let _span = telemetry::span("pool");
    ctr::POOL_JOBS.add(1);
    ctr::POOL_CHUNKS.add(n_chunks as u64);

    // Split 0..n_chunks into `threads` contiguous ranges (sizes differ
    // by at most one). These are the per-worker queues.
    let base = n_chunks / threads;
    let extra = n_chunks % threads;
    let mut queues = Vec::with_capacity(threads);
    let mut start = 0;
    for w in 0..threads {
        let len = base + usize::from(w < extra);
        queues.push(Queue {
            next: AtomicUsize::new(start),
            end: start + len,
        });
        start += len;
    }
    debug_assert_eq!(start, n_chunks);
    let queues = &queues;
    let body = &body;

    let worker = move |me: usize| {
        let mut steals = 0u64;
        // Drain the owned range first — contiguous, cache-friendly.
        while let Some(i) = queues[me].claim() {
            body(i);
        }
        // Then steal: repeatedly pick the most loaded other queue.
        loop {
            let victim = (0..queues.len())
                .filter(|&q| q != me)
                .max_by_key(|&q| queues[q].remaining())
                .filter(|&q| queues[q].remaining() > 0);
            let Some(v) = victim else { break };
            while let Some(i) = queues[v].claim() {
                body(i);
                steals += 1;
            }
        }
        if steals > 0 {
            ctr::POOL_STEALS.add(steals);
        }
    };

    crew::run(threads, &worker);
}

/// Run `f(lo, part)` on the pool for every `chunk`-wide part
/// `items[lo..lo + chunk]` (the last one may be shorter).
fn for_each_part<T: Send>(items: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let n = items.len();
    let items = DisjointSlice::new(items);
    run_chunked(n.div_ceil(chunk), |ci| {
        let lo = ci * chunk;
        // SAFETY: chunk ranges are disjoint and each chunk index is
        // claimed exactly once.
        f(lo, unsafe { items.slice(lo..(lo + chunk).min(n)) });
    });
}

/// A `len`-element vector whose `chunk`-wide parts are filled on the
/// pool by `fill(lo, part)`, which must initialise all of `part`.
fn collect_parts<U: Send>(
    len: usize,
    chunk: usize,
    fill: impl Fn(usize, &mut [MaybeUninit<U>]) + Sync,
) -> Vec<U> {
    let mut out = Vec::with_capacity(len);
    for_each_part(&mut out.spare_capacity_mut()[..len], chunk, fill);
    // SAFETY: every part was filled. A panic in `fill` unwinds past this
    // line, so a partly written vector never escapes: it drops empty.
    unsafe { out.set_len(len) };
    out
}

/// Map `f` over fixed-size chunks of `items`, returning one result per
/// chunk **in chunk order**. `f` receives the chunk index and slice.
///
/// Chunk boundaries depend only on `items.len()` and `chunk`, so the
/// result vector is identical at any thread count.
pub fn map_chunks<T, U, F>(items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    // Parts one wide: part `ci` is the result slot of chunk `ci`.
    collect_parts(items.len().div_ceil(chunk), 1, |ci, slot| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(items.len());
        slot[0].write(f(ci, &items[lo..hi]));
    })
}

/// [`map_chunks`] with in-place per-item output: chunk `ci` also gets the
/// matching sub-slices of `a` and `b` (each `items.len()` long) to write
/// into, and returns one summary per chunk, in chunk order. Panics when
/// `a` or `b` differs in length from `items`.
pub fn map_chunks_mut2<T, A, B, U, F>(
    items: &[T],
    chunk: usize,
    a: &mut [A],
    b: &mut [B],
    f: F,
) -> Vec<U>
where
    T: Sync,
    A: Send,
    B: Send,
    U: Send,
    F: Fn(usize, &[T], &mut [A], &mut [B]) -> U + Sync,
{
    assert_eq!(
        a.len(),
        items.len(),
        "map_chunks_mut2 output a must match items"
    );
    assert_eq!(
        b.len(),
        items.len(),
        "map_chunks_mut2 output b must match items"
    );
    let (a, b) = (DisjointSlice::new(a), DisjointSlice::new(b));
    map_chunks(items, chunk, |ci, part| {
        let range = ci * chunk..ci * chunk + part.len();
        // SAFETY: `range` is the chunk's own range of `items`, inside
        // both outputs (equal lengths, asserted above); chunk ranges are
        // disjoint and each is claimed once.
        let (a, b) = unsafe { (a.slice(range.clone()), b.slice(range)) };
        f(ci, part, a, b)
    })
}

/// Parallel map over an index range, preserving order, chunked at
/// [`DEFAULT_CHUNK`]. Deterministic at any thread count.
pub fn map_range<U, F>(range: Range<usize>, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let base = range.start;
    let n = range.end.saturating_sub(base);
    collect_parts(n, DEFAULT_CHUNK, |lo, part| {
        for (k, slot) in part.iter_mut().enumerate() {
            slot.write(f(base + lo + k));
        }
    })
}

/// Parallel in-place update: `f(i, &mut items[i])` for every index.
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    for_each_part(items, DEFAULT_CHUNK, |lo, part| {
        for (k, x) in part.iter_mut().enumerate() {
            f(lo + k, x);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::sink::{TraceFormat, TraceTo};

    #[test]
    fn map_range_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xABCD).collect();
        for threads in [1, 2, 4, 8] {
            let got = with_thread_count(threads, || {
                map_range(0..items.len(), |i| items[i].wrapping_mul(items[i]) ^ 0xABCD)
            });
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn disjoint_parallel_writes_land() {
        let mut data = vec![0u32; 10_000];
        {
            let w = DisjointSlice::new(&mut data);
            with_thread_count(4, || {
                // SAFETY: each index is its own chunk, claimed once.
                run_chunked(10_000, |i| unsafe { w.write(i, i as u32 * 2) })
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32 * 2);
        }
    }

    #[test]
    fn a_panicking_body_reaches_the_caller_and_the_pool_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // A body that panics in the middle of chunk 3 of 5.
        let boom = |i: usize| {
            assert!(i != 3 * DEFAULT_CHUNK + 17, "boom at {i}");
            i
        };
        let n = 5 * DEFAULT_CHUNK;
        for threads in [1, 4] {
            // The body's own payload reaches the caller, from whichever
            // thread ran the chunk.
            let caught = |f: &dyn Fn()| {
                let payload = catch_unwind(AssertUnwindSafe(|| with_thread_count(threads, f)))
                    .expect_err("the body's panic must reach the caller");
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(
                    msg.contains("boom at"),
                    "threads = {threads}: payload {msg:?}"
                );
            };
            caught(&|| drop(map_range(0..n, boom)));
            let mut v = vec![0usize; n];
            caught(&|| for_each_mut(&mut v.clone(), |i, x| *x = boom(i)));
            let (mut a, mut b) = (vec![0usize; n], vec![0u8; n]);
            caught(&|| {
                let (mut a, mut b) = (a.clone(), b.clone());
                map_chunks_mut2(&v, 512, &mut a, &mut b, |ci, part, a, _| {
                    for (k, x) in a.iter_mut().enumerate() {
                        *x = boom(ci * 512 + k);
                    }
                    part.len()
                });
            });

            // A following region on the same thread runs normally.
            let got = with_thread_count(threads, || map_range(0..n, |i| i * 3));
            assert!(got.iter().enumerate().all(|(i, &x)| x == i * 3));
            with_thread_count(threads, || for_each_mut(&mut v, |i, x| *x = i + 1));
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
            let lens = with_thread_count(threads, || {
                map_chunks_mut2(&v, 512, &mut a, &mut b, |_, part, a, b| {
                    a.copy_from_slice(part);
                    b.fill(1);
                    part.len()
                })
            });
            assert_eq!(lens.iter().sum::<usize>(), n);
            assert_eq!(
                (a.as_slice(), b.iter().all(|&x| x == 1)),
                (v.as_slice(), true)
            );
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let items: Vec<u32> = (0..5000).collect();
        let sums = with_thread_count(4, || {
            map_chunks(&items, 512, |ci, chunk| (ci, chunk.iter().sum::<u32>()))
        });
        assert_eq!(sums.len(), 5000usize.div_ceil(512));
        for (i, &(ci, _)) in sums.iter().enumerate() {
            assert_eq!(ci, i, "chunk results must come back in order");
        }
        let total: u32 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, items.iter().sum::<u32>());
    }

    #[test]
    fn map_chunks_mut2_writes_in_place_identically_at_any_thread_count() {
        let items: Vec<u32> = (0..5000).collect();
        let run = |threads| {
            let mut a = vec![0u64; items.len()];
            let mut b = vec![0u32; items.len()];
            let sums = with_thread_count(threads, || {
                map_chunks_mut2(&items, 96, &mut a, &mut b, |ci, part, a, b| {
                    for ((x, y), &i) in a.iter_mut().zip(b.iter_mut()).zip(part) {
                        (*x, *y) = (u64::from(i) * 3 + ci as u64, i ^ 0x5a5a);
                    }
                    part.iter().sum::<u32>()
                })
            });
            (a, b, sums)
        };
        let serial = run(1);
        assert_eq!(serial.2.len(), 5000usize.div_ceil(96));
        for (i, (&x, &y)) in serial.0.iter().zip(&serial.1).enumerate() {
            assert_eq!((x, y), (i as u64 * 3 + (i / 96) as u64, i as u32 ^ 0x5a5a));
        }
        assert_eq!(run(4), serial);
    }

    #[test]
    #[should_panic(expected = "output b must match items")]
    fn map_chunks_mut2_rejects_mismatched_outputs() {
        let items = [1u8; 10];
        let (mut a, mut b) = (vec![0u8; 10], vec![0u8; 9]);
        map_chunks_mut2(&items, 4, &mut a, &mut b, |_, _, _, _| ());
    }

    #[test]
    fn map_range_covers_offset_ranges() {
        let got = with_thread_count(3, || map_range(100..4200, |i| i * 2));
        assert_eq!(got.len(), 4100);
        assert_eq!(got[0], 200);
        assert_eq!(got[4099], 8398);
    }

    #[test]
    fn for_each_mut_touches_every_element_once() {
        let mut v = vec![0u32; 9999];
        with_thread_count(8, || for_each_mut(&mut v, |i, x| *x += i as u32 + 1));
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u32 + 1);
        }
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let empty: Vec<u8> = vec![];
        assert!(map_chunks(&empty, 8, |_, c: &[u8]| c.len()).is_empty());
        assert_eq!(with_thread_count(8, || map_range(7..8, |i| i)), vec![7]);
        assert_eq!(map_range(5..5, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn run_chunked_claims_each_chunk_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let n = 1000;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        with_thread_count(8, || {
            run_chunked(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                // Skew the work so stealing actually happens.
                if i < 32 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn override_is_thread_local_and_restored() {
        let before = current_threads();
        let inside = with_thread_count(3, current_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_threads(), before);
        // Nested overrides restore the outer one, not the env default.
        with_thread_count(5, || {
            assert_eq!(with_thread_count(2, current_threads), 2);
            assert_eq!(current_threads(), 5);
        });
        // A spawned thread does not inherit the caller's override.
        with_thread_count(7, || {
            let other = std::thread::spawn(current_threads).join().unwrap();
            assert_eq!(other, before);
        });
    }

    #[test]
    fn pool_span_is_emitted_under_the_caller() {
        let _g = telemetry::sink::test_lock();
        telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
        {
            let _outer = telemetry::span("caller");
            with_thread_count(2, || {
                run_chunked(64, |_| std::hint::black_box(()));
            });
        }
        let lines = telemetry::sink::drain_memory();
        telemetry::sink::shutdown();
        let spans: Vec<_> = lines
            .iter()
            .map(|l| telemetry::json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .collect();
        let pool = spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("pool"))
            .expect("pool span present");
        let caller = spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("caller"))
            .expect("caller span present");
        assert_eq!(
            pool.get("depth").unwrap().as_u64().unwrap(),
            caller.get("depth").unwrap().as_u64().unwrap() + 1,
            "pool span must nest under its caller"
        );
    }

    /// `map_range`, `for_each_mut` and `map_chunks_mut2` over `n` items
    /// at the current thread count, in one comparable value.
    fn three_regions(n: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
        let mapped = map_range(0..n, |i| (i as u64).wrapping_mul(0x9e37_79b9) ^ 7);
        let mut updated: Vec<u64> = (0..n as u64).collect();
        for_each_mut(&mut updated, |i, x| *x = x.wrapping_mul(3) + i as u64);
        let (mut a, mut b) = (vec![0u64; n], vec![0u64; n]);
        let sums = map_chunks_mut2(&mapped, 300, &mut a, &mut b, |ci, part, a, b| {
            for ((x, y), &m) in a.iter_mut().zip(b.iter_mut()).zip(part) {
                (*x, *y) = (m >> 3, m ^ ci as u64);
            }
            part.iter().fold(0u64, |s, &m| s.wrapping_add(m))
        });
        let mut ab = a;
        ab.extend(b);
        (mapped, updated, ab, sums)
    }

    /// `callers` threads released by one barrier, each opening `regions`
    /// regions on its own crew at the thread counts `counts` in turn,
    /// must all get the serial results. Every 25th round the caller
    /// pauses past the spin budget, so the crew's workers park and must
    /// be woken by the next region.
    fn concurrent_callers_match_serial(callers: usize, regions: usize, counts: &[usize]) {
        use std::sync::{Arc, Barrier};
        let n = 3 * DEFAULT_CHUNK + 11;
        let serial = Arc::new(with_thread_count(1, || three_regions(n)));
        let go = Arc::new(Barrier::new(callers));
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                let (serial, go, counts) = (Arc::clone(&serial), Arc::clone(&go), counts.to_vec());
                std::thread::spawn(move || {
                    go.wait();
                    // `three_regions` opens three regions per round.
                    for r in 0..regions.div_ceil(3) {
                        let threads = counts[r % counts.len()];
                        let got = with_thread_count(threads, || three_regions(n));
                        assert!(got == *serial, "round {r} at {threads} threads");
                        if r % 25 == 24 {
                            std::thread::sleep(4 * crew::SPIN);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("a caller thread");
        }
    }

    #[test]
    fn concurrent_callers_each_get_the_serial_result() {
        concurrent_callers_match_serial(2, 200, &[2, 4]);
    }

    /// Lost wake-ups in the spin/park hand-off show as a hang or a wrong
    /// result here. Run with `cargo test --release -p parallel --
    /// --ignored crew_stress`.
    #[test]
    #[ignore = "stress run; seconds in release"]
    fn crew_stress() {
        concurrent_callers_match_serial(4, 20_000, &[2, 3, 4]);
    }

    #[test]
    fn a_region_opened_inside_a_body_runs_inline() {
        let inner = |i: usize| map_range(0..2 * DEFAULT_CHUNK + 5, |j| j * 7 + i);
        let serial: Vec<Vec<usize>> = with_thread_count(1, || map_range(0..8, inner));
        for threads in [2, 4] {
            let got = with_thread_count(threads, || {
                let mut out = vec![Vec::new(); 8];
                let slots = DisjointSlice::new(&mut out);
                // SAFETY: each chunk writes only its own index.
                run_chunked(8, |i| unsafe { slots.write(i, inner(i)) });
                out
            });
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn crew_workers_keep_their_trace_labels() {
        let _g = telemetry::sink::test_lock();
        telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
        with_thread_count(4, || {
            for _ in 0..64 {
                run_chunked(16, |_| {
                    let _span = telemetry::span("crew body");
                    std::hint::black_box(());
                });
            }
        });
        let lines = telemetry::sink::drain_memory();
        telemetry::sink::shutdown();
        let mut labels: Vec<u64> = lines
            .iter()
            .map(|l| telemetry::json::parse(l).unwrap())
            .filter(|v| v.get("name").and_then(|n| n.as_str()) == Some("crew body"))
            .map(|v| v.get("thread").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(labels.len(), 64 * 16);
        labels.sort_unstable();
        labels.dedup();
        assert!(labels.len() <= 4, "labels {labels:?}");
    }

    #[test]
    fn uneven_chunk_partition_is_exact() {
        // n_chunks not divisible by threads: ranges differ by one and
        // must still cover 0..n exactly.
        for (n, t) in [(7usize, 4usize), (13, 8), (1023, 16), (5, 2)] {
            let sum = std::sync::atomic::AtomicUsize::new(0);
            with_thread_count(t, || {
                run_chunked(n, |i| {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                })
            });
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2, "n={n} t={t}");
        }
    }
}
