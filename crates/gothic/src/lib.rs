//! # gothic — the integrated gravitational octree code
//!
//! The top-level reproduction of GOTHIC (Miki & Umemura 2017) as
//! evaluated on Volta in the paper: the tree method with the acceleration
//! MAC (Eq. 2), block time steps, auto-tuned tree rebuilds, and the five
//! representative kernels of Table 2 (`walkTree`, `calcNode`, `makeTree`,
//! `predict`, `correct`), each instrumented with nvprof-style operation
//! counts and priced by the `gpu-model` timing model under either Volta
//! execution mode (§2.1).
//!
//! ```no_run
//! use galaxy::plummer_model;
//! use gothic::{Gothic, RunConfig};
//!
//! let particles = plummer_model(65_536, 100.0, 1.0, 42);
//! let mut sim = Gothic::new(particles, RunConfig::default());
//! for _ in 0..64 {
//!     let report = sim.step();
//!     println!(
//!         "t = {:.4}, active = {}, modeled step time = {:.3e} s",
//!         report.time,
//!         report.n_active,
//!         report.profile.total_seconds()
//!     );
//! }
//! ```

pub mod cancel;
pub mod config;
pub mod pipeline;
pub mod profile;
pub mod snapshot;
pub mod summary;

pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use config::{fnv1a64, RebuildPolicy, RunConfig};
pub use pipeline::{CancelledRun, Gothic, StepReport, WallTimes};
pub use profile::{price_step, Function, KernelCost, Profile, StepEvents};
pub use snapshot::{Capture, Snapshot};
pub use summary::RunSummary;

// Re-export the workspace's public surface so downstream users need a
// single dependency.
pub use galaxy;
pub use gpu_model;
pub use nbody;
pub use octree;
pub use simt;
pub use telemetry;
