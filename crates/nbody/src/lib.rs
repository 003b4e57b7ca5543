//! # nbody — particle substrate for the GOTHIC reproduction
//!
//! This crate provides the building blocks every other crate in the
//! workspace stands on:
//!
//! * [`vec3`] — single-precision 3-vectors and bounding boxes (the device
//!   code paths of GOTHIC are FP32; see the paper's instruction counts),
//! * [`units`] — the G = 1, kpc, 10⁸ M⊙ unit system,
//! * [`particles`] — the structure-of-arrays particle container,
//! * [`kernel`] — the softened gravity interaction (Eq. 1 of the paper),
//! * [`direct`] — the O(N²) direct-summation baseline and oracle,
//! * [`integrator`] — the 2nd-order Runge–Kutta predictor/corrector
//!   (`predict` / `correct` kernels of Table 2),
//! * [`blockstep`] — hierarchical power-of-two block time steps,
//! * [`energy`] — f64 conservation diagnostics.

pub mod blockstep;
pub mod direct;
pub mod energy;
pub mod integrator;
pub mod kernel;
pub mod leapfrog;
pub mod particles;
pub mod units;
pub mod vec3;

pub use blockstep::BlockSteps;
pub use kernel::{AccPot, Source};
pub use particles::{permute_each, ParticleSet};
pub use vec3::{Aabb, Real, Vec3};
