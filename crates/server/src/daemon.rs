//! The daemon core: accept loop, connection handling, job dispatch,
//! caching, backpressure, and graceful drain.
//!
//! ## Life of a request
//!
//! 1. A connection thread reads one NDJSON line and opens a
//!    `serve.request` span.
//! 2. Cheap requests (`status`, `predict`, `shutdown`) are answered
//!    inline. Heavy ones (`simulate`, `racecheck`) are submitted to the
//!    bounded [`WorkerPool`]; a full queue is answered `busy`
//!    **immediately** — the queue never buffers beyond its capacity, so
//!    saturation is visible to clients instead of becoming latency.
//! 3. `simulate` checks the content-addressed [`ResultCache`] first: a
//!    hit skips the pipeline entirely and answers `"cached":true`.
//! 4. A per-request deadline becomes a [`CancelToken`] the pipeline
//!    checks at step boundaries; an expired budget answers
//!    `deadline_exceeded` with the number of steps that did finish.
//!
//! ## Drain
//!
//! [`Server::drain`] stops the accept loop, closes the job queue (every
//! *accepted* job still runs), waits for the workers, then joins the
//! connection threads — no accepted work is dropped, no new work is
//! admitted, and the telemetry counters are flushed to the trace sink if
//! one is active.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use gothic::telemetry::json::JsonObject;
use gothic::telemetry::Histogram;
use gothic::{telemetry, CancelToken};
use parallel::{PushError, Submitter, WorkerPool};

use crate::cache::ResultCache;
use crate::jobs::{self, JobError};
use crate::protocol::{parse_request, Request, SimJob};

/// Tunables for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing heavy jobs.
    pub workers: usize,
    /// Bounded job-queue capacity — the backpressure knob.
    pub queue_cap: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_cap: usize,
    /// Default `simulate` budget in ms when the request names none
    /// (0 = unlimited).
    pub default_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 8,
            cache_cap: 64,
            default_deadline_ms: 0,
        }
    }
}

/// Request-outcome tallies and latency histograms of one server. They
/// count whether or not metrics are enabled, so `status` is always
/// truthful, and they belong to this server alone: two servers in one
/// process never share them.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub accepted: AtomicU64,
    pub rejected_busy: AtomicU64,
    pub cache_hits: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub completed: AtomicU64,
    /// Every request's service latency, accept to response.
    pub request_ns: Mutex<Histogram>,
    /// The block-step walls of every simulate this server ran.
    pub step_wall: Mutex<Histogram>,
}

impl ServerStats {
    /// The tallies under their `server.*` counter names, as the drain's
    /// `counters` trace line, the `metrics` text and gothicd's run report
    /// carry them.
    fn counters(&self) -> [(&'static str, u64); 5] {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            ("server.accepted", g(&self.accepted)),
            ("server.rejected_busy", g(&self.rejected_busy)),
            ("server.cache_hits", g(&self.cache_hits)),
            ("server.deadline_exceeded", g(&self.deadline_exceeded)),
            ("server.completed", g(&self.completed)),
        ]
    }

    /// The histograms under their report and exposition names.
    fn histograms(&self) -> [(&'static str, Histogram); 2] {
        [
            ("serve.request.ns", lock(&self.request_ns).clone()),
            ("step.wall.ns", lock(&self.step_wall).clone()),
        ]
    }
}

/// Lock `m`, taking the data of a poisoned lock as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shared state every connection thread sees.
struct Shared {
    stats: ServerStats,
    cache: Mutex<ResultCache>,
    draining: AtomicBool,
    default_deadline_ms: u64,
    workers: usize,
}

/// What [`Server::drain`] accomplished.
#[derive(Clone, Debug)]
pub struct DrainSummary {
    /// Jobs that were still queued when the drain began (all ran).
    pub backlog_drained: usize,
    /// Connection threads joined.
    pub connections_joined: usize,
    /// The request tallies once every accepted job has finished, under
    /// their `server.*` counter names.
    pub counters: [(&'static str, u64); 5],
    /// The request-latency and step-wall histograms at the same point.
    pub histograms: [(&'static str, Histogram); 2],
}

/// A running gothicd instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    pool: WorkerPool,
    accept_handle: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept loop, return a handle.
    /// Metrics collection is switched on for the process, so the
    /// registry's pool counters in the `metrics` request count too.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        telemetry::set_metrics_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            stats: ServerStats::default(),
            cache: Mutex::new(ResultCache::new(cfg.cache_cap)),
            draining: AtomicBool::new(false),
            default_deadline_ms: cfg.default_deadline_ms,
            workers: cfg.workers,
        });
        let pool = WorkerPool::new(cfg.workers, cfg.queue_cap);
        let submitter = pool.submitter();
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept_handle = std::thread::Builder::new()
            .name("gothicd-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_shared, submitter, accept_conns);
            })
            .expect("spawn accept thread");

        Ok(Server {
            addr,
            shared,
            pool,
            accept_handle,
            conns,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop accepting work (idempotent). The drain
    /// itself happens in [`Server::drain`].
    pub fn request_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// True once a shutdown was requested (by signal, by a `shutdown`
    /// request, or by [`Server::request_shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Lifetime request tallies.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Graceful shutdown: stop accepting connections, run every accepted
    /// job to completion, join all threads, flush this server's counters
    /// to the trace sink if one is active.
    pub fn drain(self) -> DrainSummary {
        self.shared.draining.store(true, Ordering::SeqCst);
        let _ = self.accept_handle.join();
        let backlog = self.pool.drain();
        let handles: Vec<_> = lock(&self.conns).drain(..).collect();
        let n = handles.len();
        for h in handles {
            let _ = h.join();
        }
        let counters = self.shared.stats.counters();
        if telemetry::sink::trace_active() {
            telemetry::sink::emit_counters(&counters);
        }
        DrainSummary {
            backlog_drained: backlog,
            connections_joined: n,
            counters,
            histograms: self.shared.stats.histograms(),
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    submitter: Submitter,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return; // drops the listener: connect now refused
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let s = Arc::clone(&shared);
                let sub = submitter.clone();
                let handle = std::thread::Builder::new()
                    .name("gothicd-conn".into())
                    .spawn(move || handle_conn(stream, s, sub))
                    .expect("spawn connection thread");
                lock(&conns).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Read NDJSON lines off one connection until the peer closes or the
/// server drains. A 50 ms read timeout keeps the thread responsive to
/// the drain flag without busy-waiting.
fn handle_conn(mut stream: TcpStream, shared: Arc<Shared>, submitter: Submitter) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            let response = serve_request(line.trim(), &shared, &submitter);
            if write_line(&mut stream, &response).is_err() {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
        // Refuse pathological line lengths (a line is one request).
        if buf.len() > 1 << 20 {
            let _ = write_line(
                &mut stream,
                &error_response(None, "bad_request: line exceeds 1 MiB"),
            );
            return;
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn base_response(id: &Option<String>, request: &str, ok: bool) -> JsonObject {
    let mut o = JsonObject::new();
    if let Some(id) = id {
        o.str("id", id);
    }
    o.str("request", request).bool("ok", ok);
    o
}

fn error_response(id: Option<&str>, error: &str) -> String {
    let mut o = JsonObject::new();
    if let Some(id) = id {
        o.str("id", id);
    }
    o.bool("ok", false).str("error", error);
    o.finish()
}

/// Dispatch one parsed line to its handler; always returns a response
/// line. Every request (well-formed or not) is wrapped in a
/// `serve.request` span and its latency is recorded in this server's
/// `request_ns` histogram (exposed via the `metrics` request).
fn serve_request(line: &str, shared: &Shared, submitter: &Submitter) -> String {
    let span = telemetry::span("serve.request");
    let response = serve_request_inner(line, shared, submitter);
    lock(&shared.stats.request_ns).record_duration(span.finish());
    response
}

fn serve_request_inner(line: &str, shared: &Shared, submitter: &Submitter) -> String {
    let (id, req) = match parse_request(line) {
        Ok(p) => p,
        Err(e) => return error_response(None, &format!("bad_request: {e}")),
    };
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
    match req {
        Request::Status => {
            let mut o = base_response(&id, "status", true);
            o.bool("draining", shared.draining.load(Ordering::SeqCst))
                .u64("workers", shared.workers as u64)
                .u64("queue_len", submitter.queue_len() as u64)
                .u64("queue_cap", submitter.queue_capacity() as u64);
            {
                let cache = lock(&shared.cache);
                o.u64("cache_len", cache.len() as u64)
                    .u64("cache_cap", cache.capacity() as u64);
            }
            for (k, v) in shared.stats.counters() {
                o.u64(k.trim_start_matches("server."), v);
            }
            complete(shared);
            o.finish()
        }
        Request::Metrics => {
            let mut o = base_response(&id, "metrics", true);
            o.str(
                "metrics",
                &telemetry::metrics::prometheus_text(
                    &shared.stats.counters(),
                    &shared.stats.histograms(),
                ),
            );
            complete(shared);
            o.finish()
        }
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            let mut o = base_response(&id, "shutdown", true);
            o.bool("draining", true);
            complete(shared);
            o.finish()
        }
        Request::Predict(job) => {
            result_response(shared, &id, "predict", None, &jobs::run_predict(&job))
        }
        Request::Racecheck { mode } => {
            match run_on_pool(submitter, shared, &id, CancelToken::new(), move |_token| {
                Ok(jobs::run_racecheck(mode))
            }) {
                Ok(payload) => result_response(shared, &id, "racecheck", None, &payload),
                Err(response) => response,
            }
        }
        Request::Simulate(job) => serve_simulate(shared, submitter, &id, job),
    }
}

fn complete(shared: &Shared) {
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
}

/// The completed `ok` response carrying a job's `result` payload;
/// simulate responses also say whether the cache served it.
fn result_response(
    shared: &Shared,
    id: &Option<String>,
    request: &str,
    cached: Option<bool>,
    payload: &str,
) -> String {
    let mut o = base_response(id, request, true);
    if let Some(cached) = cached {
        o.bool("cached", cached);
    }
    o.raw("result", payload);
    complete(shared);
    o.finish()
}

/// Submit `work` to the worker pool with `token` and wait for its
/// payload. A full queue is an immediate `busy`, a draining pool an
/// immediate `draining`; those and a failed job come back as `Err` with
/// the finished error response line.
fn run_on_pool<T, F>(
    submitter: &Submitter,
    shared: &Shared,
    id: &Option<String>,
    token: CancelToken,
    work: F,
) -> Result<T, String>
where
    T: Send + 'static,
    F: FnOnce(&CancelToken) -> Result<T, JobError> + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Result<T, JobError>>();
    let submitted = submitter.try_submit(Box::new(move || {
        let _ = tx.send(work(&token));
    }));
    match submitted {
        Err(PushError::Full(_)) => {
            shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
            Err(error_response(id.as_deref(), "busy"))
        }
        Err(PushError::Closed(_)) => Err(error_response(id.as_deref(), "draining")),
        Ok(()) => match rx.recv() {
            Ok(Ok(payload)) => Ok(payload),
            Ok(Err(e)) => Err(job_error_response(shared, id, e)),
            Err(_) => Err(error_response(
                id.as_deref(),
                "internal: worker dropped the job",
            )),
        },
    }
}

fn job_error_response(shared: &Shared, id: &Option<String>, e: JobError) -> String {
    let (error, steps_done) = match e {
        JobError::DeadlineExceeded { steps_done } => {
            shared
                .stats
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            ("deadline_exceeded", steps_done)
        }
        JobError::Cancelled { steps_done } => ("cancelled", steps_done),
    };
    let mut o = JsonObject::new();
    if let Some(id) = id {
        o.str("id", id);
    }
    o.bool("ok", false)
        .str("error", error)
        .u64("steps_done", steps_done);
    o.finish()
}

fn serve_simulate(
    shared: &Shared,
    submitter: &Submitter,
    id: &Option<String>,
    job: SimJob,
) -> String {
    let digest = job.digest();
    if job.cache {
        let hit = lock(&shared.cache).get(digest);
        if let Some(payload) = hit {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return result_response(shared, id, "simulate", Some(true), &payload);
        }
    }

    let deadline_ms = job.deadline_ms.unwrap_or(shared.default_deadline_ms);
    let token = if deadline_ms > 0 {
        CancelToken::with_deadline(Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    };
    let cache = job.cache;
    let (payload, step_wall) = match run_on_pool(submitter, shared, id, token, move |token| {
        let _span = telemetry::span("serve.simulate");
        jobs::run_simulate(&job, token)
    }) {
        Ok(done) => done,
        Err(response) => return response,
    };
    lock(&shared.stats.step_wall).merge(&step_wall);
    if cache {
        lock(&shared.cache).insert(digest, payload.clone());
    }
    result_response(shared, id, "simulate", Some(false), &payload)
}
