//! Persistent worker pool over a bounded job queue (std-only).
//!
//! The fork-join primitives in [`crate`] decompose *one* computation
//! across threads and join before returning. A resident service
//! (`gothicd`) needs the dual: workers draining a stream of
//! independent jobs, with **explicit backpressure** — when the queue is
//! full, submission fails immediately ([`PushError::Full`]) instead of
//! buffering without bound, so the caller can reject work while the
//! system is saturated. That immediate-rejection contract is what the
//! server's `busy` response is built on.
//!
//! Two pieces:
//!
//! * [`Bounded<T>`] — a mutex+condvar MPMC queue with a hard capacity,
//!   non-blocking `try_push`, blocking `pop`, and `close` semantics
//!   (drain the backlog, then wake every consumer with `None`);
//! * [`WorkerPool`] — `n` named OS threads executing boxed jobs popped
//!   from a shared `Bounded<Job>`; [`WorkerPool::drain`] closes the
//!   queue, lets the workers finish **every already-accepted job**, and
//!   joins them — the graceful-shutdown half of the contract.
//!
//! Each executed job bumps the `pool.jobs` counter, so service traffic
//! shows up in the same telemetry registry as the fork-join pool's.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use telemetry::metrics::counters as ctr;

/// Why a [`Bounded::try_push`] was refused; the rejected value comes
/// back so the caller can report on it (or retry later).
pub enum PushError<T> {
    /// The queue holds `capacity` items — backpressure: reject now,
    /// never buffer unboundedly.
    Full(T),
    /// [`Bounded::close`] was called — the consumer side is draining.
    Closed(T),
}

impl<T> PushError<T> {
    /// The value that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

// Manual impl: the payload (often a boxed closure) need not be Debug.
impl<T> std::fmt::Debug for PushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PushError::Full(_) => "Full(..)",
            PushError::Closed(_) => "Closed(..)",
        })
    }
}

struct State<T> {
    q: VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC queue: non-blocking producers, blocking consumers.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    cap: usize,
    nonempty: Condvar,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        Bounded {
            state: Mutex::new(State {
                q: VecDeque::new(),
                closed: false,
            }),
            cap: cap.max(1),
            nonempty: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue without blocking; `Full` when at capacity, `Closed` after
    /// [`close`](Bounded::close).
    pub fn try_push(&self, v: T) -> Result<(), PushError<T>> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed(v));
        }
        if s.q.len() >= self.cap {
            return Err(PushError::Full(v));
        }
        s.q.push_back(v);
        drop(s);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while the queue is open and empty. `None` once
    /// the queue is closed **and** the backlog is drained — close never
    /// discards accepted items.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(v) = s.q.pop_front() {
                return Some(v);
            }
            if s.closed {
                return None;
            }
            s = self.nonempty.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stop accepting new items and wake every blocked consumer once the
    /// backlog is gone.
    pub fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }

    /// Queued (not yet popped) items.
    pub fn len(&self) -> usize {
        self.lock().q.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// A unit of service work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Cloneable submission side of a [`WorkerPool`] — hand one to each
/// producer (e.g. connection handler threads).
#[derive(Clone)]
pub struct Submitter {
    queue: Arc<Bounded<Job>>,
}

impl Submitter {
    /// Submit a job; fails fast with the job back when the queue is full
    /// (backpressure) or the pool is draining.
    pub fn try_submit(&self, job: Job) -> Result<(), PushError<Job>> {
        self.queue.try_push(job)
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The queue's hard capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }
}

/// Fixed-size set of persistent worker threads over a [`Bounded`] job
/// queue.
pub struct WorkerPool {
    queue: Arc<Bounded<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (≥ 1 enforced) draining a queue of
    /// capacity `queue_cap`.
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        let queue: Arc<Bounded<Job>> = Arc::new(Bounded::new(queue_cap));
        let handles = (0..workers.max(1))
            .map(|i| {
                let q = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = q.pop() {
                            ctr::POOL_JOBS.add(1);
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { queue, handles }
    }

    /// A cloneable submission handle.
    pub fn submitter(&self) -> Submitter {
        Submitter {
            queue: Arc::clone(&self.queue),
        }
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs accepted but not yet started.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Graceful shutdown: refuse new jobs, finish every accepted one,
    /// join the workers. Returns the number of jobs that were still
    /// queued when the drain began (all of them ran).
    pub fn drain(self) -> usize {
        let backlog = self.queue.len();
        self.queue.close();
        for h in self.handles {
            let _ = h.join();
        }
        backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn try_push_rejects_at_capacity_with_the_item_back() {
        let q: Bounded<u32> = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(v)) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_backlog_then_yields_none() {
        let q: Bounded<u32> = Bounded::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_an_item_or_close_arrives() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(50));
        q.try_push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));

        let q3 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q3.pop());
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pool_executes_submitted_jobs_and_drain_completes_backlog() {
        let pool = WorkerPool::new(2, 64);
        let sub = pool.submitter();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let h = Arc::clone(&hits);
            sub.try_submit(Box::new(move || {
                h.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn saturated_pool_rejects_immediately() {
        // One worker blocked on a gate + a queue of one: the third
        // submission must fail fast, not wait.
        let pool = WorkerPool::new(1, 1);
        let sub = pool.submitter();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));

        let g = Arc::clone(&gate);
        sub.try_submit(Box::new(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }))
        .unwrap();
        // Wait for the worker to pick the blocker up.
        let t0 = std::time::Instant::now();
        while sub.queue_len() > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sub.queue_len(), 0, "worker must have taken the blocker");
        sub.try_submit(Box::new(|| {})).unwrap(); // fills the queue
        let refused = sub.try_submit(Box::new(|| {}));
        assert!(matches!(refused, Err(PushError::Full(_))));

        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
    }

    #[test]
    fn drain_after_close_is_idempotent_for_submitters() {
        let pool = WorkerPool::new(1, 4);
        let sub = pool.submitter();
        pool.drain();
        assert!(matches!(
            sub.try_submit(Box::new(|| {})),
            Err(PushError::Closed(_))
        ));
        assert_eq!(sub.queue_capacity(), 4);
    }
}
