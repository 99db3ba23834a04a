//! Analogue-solver substrate: linear algebra, Newton iteration, ODE
//! integration and modified-nodal-analysis (MNA) circuit simulation.
//!
//! The paper contrasts its *timeless* magnetisation-slope integration with
//! the conventional approach in which `dM/dH` is converted into `dM/dt` and
//! handed to the simulator's analogue solver (VHDL-AMS `'INTEG`, SPICE /
//! SABER transient engines).  Rust has no such solver, so this crate builds
//! the substrate the baseline needs:
//!
//! * [`linalg`] — dense matrices and in-place LU factorisation with
//!   partial pivoting;
//! * [`newton`] — Newton–Raphson for nonlinear algebraic systems, with the
//!   iteration statistics the stability experiments report;
//! * [`ode`] — explicit (FE), implicit (BE, trapezoidal) and adaptive
//!   (RKF45) integrators over a small [`ode::OdeSystem`] trait — the four
//!   methods of the solver-integrated baseline;
//! * [`circuit`] — an MNA netlist builder and transient engine with
//!   resistors, capacitors, inductors, independent voltage sources and a
//!   behavioural nonlinear inductor driven by a pluggable
//!   [`circuit::MagneticCoreModel`] (the hook the JA core model uses to sit
//!   inside a circuit, exactly as it would in SPICE).  The transient
//!   engine's time stepping is itself pluggable ([`circuit::StepControl`]):
//!   index-arithmetic fixed steps, or an adaptive controller that sizes
//!   each step from a local-truncation-error estimate with
//!   Newton-iteration feedback.
//!
//! # Examples
//!
//! A transient circuit solve under adaptive step control — the controller
//! spends its steps on the RC charging edge and stretches toward
//! `max_step` once the capacitor settles:
//!
//! ```
//! use analog_solver::circuit::elements::{Capacitor, Resistor, VoltageSource};
//! use analog_solver::circuit::{Circuit, Node, TransientAnalysis};
//! use analog_solver::ode::adaptive::AdaptiveOptions;
//! use waveform::generator::Constant;
//!
//! # fn main() -> Result<(), analog_solver::SolverError> {
//! let mut circuit = Circuit::new();
//! let vin = circuit.node();
//! let vc = circuit.node();
//! circuit.add("V1", VoltageSource::new(vin, Node::GROUND, Constant(1.0)))?;
//! circuit.add("R1", Resistor::new(vin, vc, 1_000.0)?)?;
//! circuit.add("C1", Capacitor::new(vc, Node::GROUND, 1e-6)?)?;
//!
//! let options = AdaptiveOptions {
//!     rel_tol: 1e-2,
//!     abs_tol: 1e-3,
//!     initial_step: 1e-7,
//!     min_step: 1e-12,
//!     max_step: 1e-3,
//! };
//! let result = TransientAnalysis::adaptive(options, 5e-3)?.run(&mut circuit)?;
//! // The grid ends exactly at t_end and the capacitor is charged.
//! assert_eq!(*result.times().last().unwrap(), 5e-3);
//! assert!((result.voltage(vc)?.last().unwrap() - 1.0).abs() < 0.02);
//! # Ok(())
//! # }
//! ```
//!
//! Fixed-step ODE integration:
//!
//! ```
//! use analog_solver::ode::{OdeSystem, explicit::ForwardEuler, FixedStepIntegrator};
//!
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
//!         dydt[0] = -y[0];
//!     }
//! }
//!
//! # fn main() -> Result<(), analog_solver::SolverError> {
//! let trajectory = ForwardEuler.integrate(&Decay, &[1.0], 0.0, 1.0, 1e-3)?;
//! let y_end = trajectory.last_state()[0];
//! assert!((y_end - (-1.0_f64).exp()).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod error;
pub mod linalg;
pub mod newton;
pub mod ode;

pub use error::SolverError;
