//! # gss-data
//!
//! Synthetic workload generators standing in for the datasets the paper
//! replays (Section 6.1):
//!
//! * [`football`] — the DEBS 2013 ball-sensor stream (2000 Hz, 5 session
//!   gaps per minute, 84 232 distinct aggregation values);
//! * [`machine`] — the DEBS 2012 manufacturing stream (100 Hz, 37 distinct
//!   values, long runs — the run-length-encoding sweet spot of Figure 14);
//! * [`ooo`] — the disorder transformation (fraction + uniform delay) and
//!   bounded-out-of-orderness watermark generation used throughout the
//!   evaluation.
//!
//! All generators are seeded and fully deterministic, so every benchmark
//! run sees identical data.

pub mod football;
pub mod machine;
pub mod ooo;

pub use football::{FootballConfig, FootballGenerator};
pub use machine::{MachineConfig, MachineGenerator};
pub use ooo::{make_out_of_order, with_watermarks, OooConfig};
