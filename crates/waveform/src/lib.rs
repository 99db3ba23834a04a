//! Excitation waveforms, field schedules, traces and export helpers.
//!
//! The paper drives its hysteresis model with a triangular waveform "in a DC
//! sweep, i.e. timeless simulations", and overlays non-biased minor loops on
//! top of the major loop.  This crate provides both views of an excitation:
//!
//! * **time-domain waveforms** ([`generator`], [`triangular`], [`sine`],
//!   [`pwm`]) — `h(t)` functions used by the analogue-solver baseline,
//!   which genuinely integrates over time;
//! * **field schedules** ([`schedule`]) — ordered sequences of `H` samples
//!   with explicit reversal points, used by the timeless models where time
//!   plays no role at all;
//! * **trace capture and export** ([`trace`], [`export`]) — tabular capture
//!   of simulation results, CSV output and a small ASCII scatter plot used to
//!   eyeball the BH loops in the terminal (the stand-in for the paper's
//!   Fig. 1 bitmap).
//!
//! # Example
//!
//! ```
//! use waveform::schedule::FieldSchedule;
//!
//! # fn main() -> Result<(), waveform::WaveformError> {
//! // Three full triangular cycles between ±10 kA/m in 10 A/m steps.
//! let schedule = FieldSchedule::major_loop(10_000.0, 10.0, 3)?;
//! let samples: Vec<f64> = schedule.iter().collect();
//! assert!(samples.iter().all(|h| h.abs() <= 10_000.0 + 1e-9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod export;
pub mod generator;
pub mod pwm;
pub mod schedule;
pub mod sine;
pub mod trace;
pub mod triangular;

pub use error::WaveformError;
pub use generator::Waveform;
