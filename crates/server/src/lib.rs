//! # server — the gothicd simulation job service
//!
//! A std-only TCP daemon that serves the GOTHIC pipeline as a job
//! service: newline-delimited JSON requests in, one JSON response line
//! per request out. The serving layer composes pieces the workspace
//! already has — the [`gothic`] pipeline, the bounded worker pool from
//! [`parallel`], and the [`gothic::telemetry`] JSON
//! writer/parser, spans, and counters — into a daemon with:
//!
//! * **backpressure** — a bounded job queue; a saturated server answers
//!   `busy` immediately instead of queueing without bound;
//! * **content-addressed caching** — `simulate` results are keyed by a
//!   canonical digest of the parsed request, so JSON spelling never
//!   causes a spurious miss;
//! * **deadlines** — a per-request budget becomes a cooperative
//!   [`CancelToken`](gothic::CancelToken) the pipeline honors at block
//!   step boundaries;
//! * **graceful drain** — shutdown finishes every accepted job, joins
//!   every thread, and flushes telemetry before exit.
//!
//! ```no_run
//! use server::{Server, ServerConfig};
//! let srv = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on {}", srv.addr());
//! // ... serve until a shutdown request or signal ...
//! while !srv.is_draining() {
//!     std::thread::sleep(std::time::Duration::from_millis(100));
//! }
//! let summary = srv.drain();
//! println!("drained {} queued jobs", summary.backlog_drained);
//! ```

pub mod cache;
pub mod daemon;
pub mod jobs;
pub mod protocol;

pub use cache::ResultCache;
pub use daemon::{DrainSummary, Server, ServerConfig, ServerStats};
pub use jobs::JobError;
pub use protocol::{parse_request, PredictJob, Request, SimJob, MAX_N, MAX_PREDICT_N, MAX_STEPS};
