//! A tree rebuild works in the previous tree's arrays: beside the live
//! state it holds only the sort's permutation and scratch, and neither a
//! rebuild step nor a plain step allocates per tree node.
//!
//! This binary installs a counting global allocator and holds exactly
//! one test, so no other test's allocations land in its counts.

use gothic::galaxy::plummer_model;
use gothic::{Gothic, RebuildPolicy, RunConfig, StepReport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator, counting live bytes, their peak and the
/// allocations (a reallocation counts as one).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One step: its report, its heap rise above the bytes live before it,
/// and its allocations.
fn counted_step(sim: &mut Gothic) -> (StepReport, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let report = sim.step();
    let rise = PEAK.load(Ordering::Relaxed) - base;
    (report, rise, ALLOCS.load(Ordering::Relaxed) - allocs)
}

#[test]
fn rebuilds_and_steps_allocate_a_bounded_amount() {
    const N: usize = 16_384;
    // Rebuilds on steps 1, 5, 9, …; steps 1, 3, 5 and 7 walk only
    // ~1 000 particles, so the walk's own results (20 B per active
    // particle) stay below the rebuild's rise.
    let cfg = RunConfig {
        rebuild: RebuildPolicy::Fixed(4),
        dt_max: 1.0 / 16.0,
        ..RunConfig::default()
    };
    parallel::with_thread_count(2, || {
        let mut sim = Gothic::new(plummer_model(N, 10.0, 1.0, 3), cfg);
        // The first rebuild, and an all-active step that sizes the
        // per-thread walk scratch, happen before anything is counted.
        sim.run(4);
        let (rebuild, rise, rebuild_allocs) = counted_step(&mut sim);
        sim.step();
        let (plain, _, plain_allocs) = counted_step(&mut sim);
        assert!(rebuild.rebuilt && !plain.rebuilt);
        assert!(rebuild.n_active < N / 8, "{} active", rebuild.n_active);
        eprintln!(
            "rebuild step: rise {rise} B ({:.2} B/particle), {rebuild_allocs} allocations; \
             plain step: {plain_allocs} allocations",
            rise as f64 / N as f64
        );

        // The sort's permutation (4 B/particle) and its key and payload
        // scratch (8 + 4 B/particle), plus its per-pass digit tables.
        assert!(
            rise <= 16 * N + 8 * 1024,
            "a rebuild step rose {rise} B above the live state: more than the \
             sort's permutation and scratch (16 B/particle + 8 KiB)"
        );
        // Measured: 76 and 27 at 2 threads.
        assert!(
            rebuild_allocs <= 90,
            "a rebuild step allocated {rebuild_allocs} times"
        );
        assert!(
            plain_allocs <= 32,
            "a plain step allocated {plain_allocs} times"
        );
    });
}
