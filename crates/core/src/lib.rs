//! Jiles–Atherton ferromagnetic hysteresis with **timeless discretisation of
//! the magnetisation slope** — the primary contribution of Al-Junaid &
//! Kazmierski, *"HDL Models of Ferromagnetic Core Hysteresis Using Timeless
//! Discretisation of the Magnetic Slope"*, DATE 2006.
//!
//! # The idea
//!
//! The JA magnetisation slope (Eq. 1 of the paper)
//!
//! ```text
//! dM         1        M_an − M            c     dM_an
//! ──   =  ─────── · ─────────────────  + ───── · ─────
//! dH      (1 + c)   δk − α·(M_an − M)    (1+c)    dH
//! ```
//!
//! is discontinuous at every field reversal (δ = sign(dH) flips), which is
//! what breaks analogue solvers that integrate it over *time*.  The paper's
//! technique integrates it over the *field* instead: the model watches `H`,
//! and whenever it has moved by more than a threshold `ΔH_max` it takes an
//! explicit integration step `ΔM = ΔH · dM/dH` — no time, no analogue
//! solver, no convergence loop.  Two guards remove the unphysical behaviour
//! of the raw equations: the slope is clamped non-negative, and an update
//! whose sign opposes the field increment is rejected.
//!
//! # Crate layout
//!
//! * [`params`] — re-export of the [`magnetics`] parameter set plus the
//!   model configuration ([`config::JaConfig`]);
//! * [`state`] — the magnetisation state variables (`M_irr`, `M_rev`,
//!   `M_total`, `H_last`);
//! * [`slope`] — the slope equation itself, with and without the guards;
//! * [`timeless`] — the timeless integrator (forward Euler in `H`, plus
//!   Heun and RK4-in-`H` variants for the ablation study);
//! * [`model`] — [`model::JilesAtherton`], the user-facing model: feed it a
//!   field value, read back magnetisation and flux density;
//! * [`time_domain`] — the conventional formulation's right-hand side
//!   (`dM/dt = dM/dH · dH/dt`), the baseline the paper compares against;
//! * [`soa`] — [`soa::SoaBatch`], the structure-of-arrays lockstep kernel
//!   stepping many parameter sets through one field sequence at once, on
//!   the paper's configuration (bit-identical to the scalar model);
//! * [`backend`] — the [`backend::HysteresisBackend`] trait unifying every
//!   implementation style (direct, time-domain, and the HDL models of the
//!   `hdl-models` crate) behind one polymorphic driving API, whose
//!   [`run_samples`](backend::HysteresisBackend::run_samples) turns a
//!   sequence of field samples into a [`magnetics::bh::BhCurve`];
//! * [`json`] — the hand-rolled JSON document model behind the versioned
//!   machine-readable run reports (the environment has no registry access,
//!   so no `serde_json`), including [`json::SCHEMA_VERSION`].
//!
//! # Quickstart
//!
//! ```
//! use ja_hysteresis::backend::HysteresisBackend;
//! use ja_hysteresis::model::JilesAtherton;
//! use magnetics::material::JaParameters;
//! use waveform::schedule::FieldSchedule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's material and a ±10 kA/m triangular DC sweep.
//! let mut model = JilesAtherton::new(JaParameters::date2006())?;
//! let schedule = FieldSchedule::major_loop(10_000.0, 10.0, 2)?;
//! let curve = model.run_samples(&schedule.to_samples())?;
//! let metrics = magnetics::loop_analysis::loop_metrics(&curve)?;
//! assert!(metrics.b_max.as_tesla() > 1.5);          // saturates near ±2 T
//! assert_eq!(metrics.negative_slope_samples, 0);    // no unphysical slopes
//! # Ok(())
//! # }
//! ```

// Denied rather than forbidden: the run-time AVX-512/AVX2 dispatch of the
// SoA lockstep kernel (`soa::SoaBatch::run`) allows it in one block.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod error;
pub mod fitting;
pub mod inverse;
pub mod json;
pub mod model;
pub mod params;
pub mod slope;
pub mod soa;
pub mod state;
pub mod time_domain;
pub mod timeless;

pub use backend::HysteresisBackend;
pub use config::JaConfig;
pub use error::JaError;
pub use model::JilesAtherton;
