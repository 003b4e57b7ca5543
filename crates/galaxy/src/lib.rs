//! # galaxy — many-component galaxy initial conditions (MAGI substitute)
//!
//! The paper generates its M31 particle distribution with MAGI (Miki &
//! Umemura 2018). This crate reproduces the pipeline from scratch:
//! spherical density profiles ([`profiles`]), a composite potential with
//! Eddington inversion for the spheroids ([`eddington`]), an exponential
//! disk with epicyclic velocities and a Toomre-Q floor ([`disk`]), the
//! paper's M31 model ([`m31`]) and a Plummer reference sphere
//! ([`plummer`]).
//!
//! The paper model's tables (the composite potential and each
//! spheroid's M(r) and Eddington DF) are built once per process and kept
//! in a static; any other model builds its own for each call. The
//! particle set itself is never cached: every
//! [`M31Model::sample`] call draws it afresh.

pub mod analytic;
pub mod diagnostics;
pub mod disk;
pub mod eddington;
pub mod m31;
pub mod plummer;
pub mod profiles;

pub use analytic::{hernquist_df, hernquist_psi, reference_hernquist};
pub use diagnostics::{anisotropy, com_speed, radial_profile, rotation_curve_measured, ShellStats};
pub use disk::{DiskAsSpherical, ExponentialDisk};
pub use eddington::{eddington_df, sample_component, CompositePotential, EddingtonDf};
pub use m31::{zero_com, M31Model};
pub use plummer::plummer_model;
pub use profiles::{Hernquist, Nfw, Plummer, Sersic, SphericalProfile};
