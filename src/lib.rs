//! Workspace-level facade for the timeless Jiles–Atherton reproduction.
//!
//! This crate exists so that the repository root can host the runnable
//! `examples/` and cross-crate integration `tests/` required by the project
//! layout.  It re-exports the individual crates so examples can use a single
//! dependency.
//!
//! See the individual crates for the actual functionality:
//!
//! * [`ja_hysteresis`] — the paper's contribution (timeless discretisation).
//! * [`magnetics`] — magnetic domain types and loop analysis.
//! * [`waveform`] — excitation generators and traces.
//! * [`hdl_kernel`] — SystemC-like discrete-event kernel.
//! * [`analog_solver`] — MNA analogue solver substrate.
//! * [`hdl_models`] — the SystemC-style port, the AMS-style comparison and
//!   the scenario engine.
//!
//! The executable front door is the `ja` binary in `crates/cli` (`cargo run
//! --release -p ja-cli -- --help`): sweeps, scenario batches, fitting,
//! inverse solves, backend comparison and the CI bench-regression gate,
//! emitting the versioned JSON report format of [`ja_hysteresis::json`].

pub use analog_solver;
pub use hdl_kernel;
pub use hdl_models;
pub use ja_hysteresis;
pub use magnetics;
pub use waveform;
