//! A save writes the running simulation's arrays in place: it must not
//! copy the particles, the block hierarchy or the tree first.
//!
//! This binary installs a counting global allocator and holds exactly
//! one test, so no other test's allocations land in its peak.

use gothic::galaxy::plummer_model;
use gothic::{Gothic, RunConfig, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::mem::size_of_val;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
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
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_save_does_not_copy_the_run() {
    let mut sim = Gothic::new(plummer_model(16_384, 100.0, 1.0, 3), RunConfig::default());
    sim.run(2);
    let ps = &sim.ps;
    let particle_bytes = size_of_val(&ps.pos[..])
        + size_of_val(&ps.vel[..])
        + size_of_val(&ps.mass[..])
        + size_of_val(&ps.acc[..])
        + size_of_val(&ps.pot[..])
        + size_of_val(&ps.acc_old[..])
        + size_of_val(&ps.id[..]);
    let path = std::env::temp_dir().join(format!("gothic-heap-{}.snap", std::process::id()));

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    Snapshot::capture(&sim)
        .write_to(&mut io::sink())
        .expect("writing to a sink cannot fail");
    Snapshot::capture(&sim).save(&path).expect("save");
    let growth = PEAK.load(Ordering::Relaxed) - base;

    std::fs::remove_file(&path).ok();
    eprintln!("save peak growth: {growth} B against {particle_bytes} B of particle arrays");
    assert!(
        4 * growth < particle_bytes,
        "a save grew the heap by {growth} B, at least a quarter of the \
         {particle_bytes} B of particle arrays: the state was copied"
    );
}
