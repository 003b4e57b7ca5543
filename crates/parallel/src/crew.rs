//! The persistent workers behind [`run_chunked`](crate::run_chunked).
//!
//! Each thread that opens a multi-thread region owns one crew, kept in a
//! `thread_local!`: it is created by that thread's first such region,
//! grows to the largest worker count the thread has asked for, and is
//! dropped — its workers woken and joined — when the thread exits. Two
//! threads never share a crew, so concurrent callers (`gothicd`'s
//! simulate jobs, parallel tests) never wait for each other.
//!
//! A region is one *epoch*. The caller publishes the region's body,
//! sets how many workers take part, bumps the epoch and rings the
//! workers' bell; then it runs share 0 itself and waits until every
//! taking-part worker has finished its share. Both waits spin for
//! [`SPIN`] and then park on a condvar, so back-to-back regions hand
//! over without a wake-up, and an idle crew costs nothing.

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a waiting worker or caller spins before it parks.
///
/// Measured on a 2-vCPU AVX-512 guest, 2 threads, medians of 4000
/// regions: an empty 2-chunk region takes 33–37 µs with a spawn per
/// region, 13–14 µs with a crew that parks at once, and 0.9–1.4 µs
/// with this spin; after 50 µs of serial work, an 8192-element
/// `for_each_mut` takes 10.5–11.8 µs parking at once and 6.3–7.6 µs
/// spinning. The pipeline separates its regions by serial work, so a
/// worker that parks at once must be woken on an idle vCPU for most
/// regions, as a spawn must: with `pipebench --workload paper_sweep
/// --seconds 30`, `run_s` read 0.176 s parking at once and 0.162 s
/// with this spin (4 of 4 pairs lower).
pub(crate) const SPIN: Duration = Duration::from_micros(200);

/// A region's body with its lifetime erased; see the `SAFETY:` comment
/// in [`Crew::run`].
type Body = &'static (dyn Fn(usize) + Sync);

/// A caught panic's payload.
type Payload = Box<dyn Any + Send>;

thread_local! {
    static CREW: Crew = Crew::default();
    /// True while this thread runs a region: on a caller from dispatch
    /// to join, on a crew worker always.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is inside a region, so a region it
/// opens now must run inline.
pub(crate) fn in_region() -> bool {
    IN_REGION.get()
}

/// Run `share(0)` on this thread and `share(1..threads)` on its crew,
/// returning once every share has returned. The first panic from any
/// share is re-raised here, after the join.
pub(crate) fn run(threads: usize, share: &(dyn Fn(usize) + Sync)) {
    CREW.with(|crew| crew.run(threads, share));
}

/// One parking place: waiters park on `cv` under [`Shared::lock`], and
/// `sleepers` counts them, so a ring with nobody parked costs one load.
#[derive(Default)]
struct Bell {
    cv: Condvar,
    sleepers: AtomicUsize,
}

impl Bell {
    /// Spin for [`SPIN`], then park, until `ready` returns a value.
    ///
    /// The sleeper count rises and the condition is checked again under
    /// the lock before each wait, all `SeqCst`: a ring either sees the
    /// sleeper and notifies under the lock, after the wait began, or
    /// came before the sleeper's check, which then sees the new state.
    fn wait<T>(&self, lock: &Mutex<()>, ready: impl Fn() -> Option<T>) -> T {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            if let Some(v) = ready() {
                return v;
            }
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                // Where threads outnumber CPUs, the share being waited
                // for may need this CPU.
                std::thread::yield_now();
                if start.elapsed() >= SPIN {
                    break;
                }
            }
        }
        let mut guard = locked(lock);
        self.sleepers.fetch_add(1, SeqCst);
        let v = loop {
            if let Some(v) = ready() {
                break v;
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        };
        self.sleepers.fetch_sub(1, SeqCst);
        v
    }

    /// Wake every parked waiter; call after publishing the new state.
    fn ring(&self, lock: &Mutex<()>) {
        if self.sleepers.load(SeqCst) > 0 {
            let _guard = locked(lock);
            self.cv.notify_all();
        }
    }
}

/// The lock guards no data, only the parking hand-off, so a poisoned
/// lock is still good.
fn locked(lock: &Mutex<()>) -> MutexGuard<'_, ()> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by a caller and its workers.
struct Shared {
    /// `epoch << 32 | threads` of the latest region. One word, so a
    /// worker that slept through regions reads the epoch and the worker
    /// count of the same one.
    signal: AtomicU64,
    /// Taking-part workers that have not finished the current region.
    pending: AtomicUsize,
    /// Set, with a final epoch, when the crew is dropped.
    quit: AtomicBool,
    /// The current region's body. Written by the caller only while no
    /// worker can read it (before the signal, after `pending` hit 0).
    body: UnsafeCell<Option<Body>>,
    /// The region's first panic payload, from any share.
    panic: Mutex<Option<Payload>>,
    lock: Mutex<()>,
    /// Workers park here between regions.
    start: Bell,
    /// The caller parks here until `pending` is 0.
    done: Bell,
}

// SAFETY: every field but `body` is Sync. `body` is written only by the
// owning caller, in `Crew::run`, before it publishes a region's signal
// (SeqCst) and while `pending` is 0, i.e. while no worker is between
// reading its signal and finishing its share; a worker reads it only
// after loading a signal that names it, and before decrementing
// `pending` (SeqCst), so each read is ordered after the write and
// before the next one. The `Body` it holds is `Sync`, so sharing it is
// allowed.
unsafe impl Sync for Shared {}

impl Shared {
    fn keep_first_panic(&self, payload: Payload) {
        self.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(payload);
    }
}

/// A thread's crew: its shared state and its workers.
struct Crew {
    shared: Arc<Shared>,
    workers: RefCell<Vec<JoinHandle<()>>>,
}

impl Default for Crew {
    fn default() -> Self {
        Crew {
            shared: Arc::new(Shared {
                signal: AtomicU64::new(0),
                pending: AtomicUsize::new(0),
                quit: AtomicBool::new(false),
                body: UnsafeCell::new(None),
                panic: Mutex::new(None),
                lock: Mutex::new(()),
                start: Bell::default(),
                done: Bell::default(),
            }),
            workers: RefCell::new(Vec::new()),
        }
    }
}

impl Crew {
    fn run(&self, threads: usize, share: &(dyn Fn(usize) + Sync)) {
        let want = u32::try_from(threads).expect("a region's thread count fits in 32 bits");
        self.grow(threads - 1);
        let s = &*self.shared;
        // SAFETY: the body is erased to `'static` only for the time the
        // workers can see it. This function neither returns nor unwinds
        // before `pending` is 0, i.e. before every worker taking part
        // has returned from its share and dropped the reference: the
        // caller's own share runs under `catch_unwind`, and its panic,
        // like a worker's, is re-raised only after the wait below.
        // Workers not taking part never read `body`.
        let body: Body = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Body>(share) };
        // SAFETY: `pending` is 0 (the previous region on this crew has
        // been waited for), so no worker reads `body` now; see `Shared`.
        unsafe { *s.body.get() = Some(body) };
        s.pending.store(threads - 1, SeqCst);
        // Only this thread writes the signal, so it reads back its own.
        let epoch = (s.signal.load(SeqCst) >> 32) + 1;
        s.signal.store(epoch << 32 | u64::from(want), SeqCst);
        s.start.ring(&s.lock);

        IN_REGION.set(true);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| share(0))) {
            s.keep_first_panic(payload);
        }
        s.done
            .wait(&s.lock, || (s.pending.load(SeqCst) == 0).then_some(()));
        IN_REGION.set(false);

        let payload = s
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Spawn workers until there are `n`.
    fn grow(&self, n: usize) {
        let mut workers = self.workers.borrow_mut();
        while workers.len() < n {
            let me = workers.len() + 1;
            let shared = Arc::clone(&self.shared);
            let seen = shared.signal.load(SeqCst);
            let handle = std::thread::Builder::new()
                .name(format!("crew-worker-{me}"))
                .spawn(move || work(&shared, me, seen))
                .expect("spawn a crew worker");
            workers.push(handle);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        let s = &*self.shared;
        s.quit.store(true, SeqCst);
        s.signal.fetch_add(1 << 32, SeqCst);
        {
            let _guard = locked(&s.lock);
            s.start.cv.notify_all();
        }
        for handle in self.workers.get_mut().drain(..) {
            // Shares run under `catch_unwind`, so a worker never panics.
            let _ = handle.join();
        }
    }
}

/// Worker `me`'s loop: wait for a region newer than `seen`, run share
/// `me` of it when it takes part, report done; until the crew quits.
fn work(s: &Shared, me: usize, mut seen: u64) {
    IN_REGION.set(true);
    loop {
        seen = s.start.wait(&s.lock, || {
            let signal = s.signal.load(SeqCst);
            (signal != seen).then_some(signal)
        });
        if s.quit.load(SeqCst) {
            return;
        }
        if me >= (seen & u64::from(u32::MAX)) as usize {
            continue;
        }
        {
            // SAFETY: the signal names this worker, so the caller wrote
            // this region's body before it and waits for this worker's
            // decrement below before writing again or returning.
            let body = unsafe { *s.body.get() }.expect("a region publishes its body first");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(me))) {
                s.keep_first_panic(payload);
            }
        }
        if s.pending.fetch_sub(1, SeqCst) == 1 {
            s.done.ring(&s.lock);
        }
    }
}
