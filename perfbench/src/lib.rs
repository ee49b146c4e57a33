//! End-to-end and per-layer benchmark of FreeRide, driven only through
//! the public API (`Cluster`, `ClusterJob`, `Submission`, `SubmitOptions`)
//! the way a user drives it.
//!
//! * [`workloads`] builds the three workloads from a seed, runs them, and
//!   reduces each run to its simulated outcome and a digest;
//! * [`shims`] holds the timing shims the traced run wraps around the
//!   program's plug-in seams (workload factory, middleware, placement
//!   policy, trace sink) without changing the simulation;
//! * [`measure`] is the run loop: warm-up, timed repeats, digest checks,
//!   order statistics, and the JSON result line;
//! * `calib` is the host-speed probe the timed repeats are scaled by.
//!
//! See `README.md` beside this crate for the metrics and how to run it.

#![forbid(unsafe_code)]

mod calib;
mod clock;
pub mod measure;
pub mod shims;
mod stats;
pub mod workloads;
