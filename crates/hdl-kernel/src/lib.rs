//! A minimal SystemC-like discrete-event simulation kernel.
//!
//! The paper implements its hysteresis model as three SystemC *method
//! processes* (`core`, `monitorH`, `Integral`) communicating through
//! signals.  Rust has no SystemC, so this crate rebuilds the subset of the
//! kernel those processes rely on:
//!
//! * **signals** with evaluate/update (delta-cycle) semantics — a write is
//!   not visible to readers until the next delta cycle ([`signal`]);
//! * **method processes** with static sensitivity lists, re-triggered
//!   whenever a signal they are sensitive to changes value ([`process`]);
//! * a **scheduler** that runs delta cycles to quiescence and advances
//!   simulated time between timed signal writes — the testbench stimulus
//!   ([`kernel`], [`scheduler`]).
//!
//! The kernel is deliberately single-threaded and allocation-light; it is a
//! behavioural-modelling substrate, not a general HDL simulator.
//!
//! # Example
//!
//! ```
//! use hdl_kernel::kernel::Kernel;
//! use hdl_kernel::value::Value;
//!
//! # fn main() -> Result<(), hdl_kernel::KernelError> {
//! let mut kernel = Kernel::new();
//! let a = kernel.add_signal("a", Value::Real(0.0));
//! let doubled = kernel.add_signal("doubled", Value::Real(0.0));
//!
//! // A method process sensitive to `a` that writes 2*a to `doubled`.
//! kernel.add_process("double", &[a], move |ctx| {
//!     let x = ctx.read_real(a)?;
//!     ctx.write_real(doubled, 2.0 * x)
//! })?;
//!
//! kernel.write_initial(a, Value::Real(21.0))?;
//! kernel.settle()?;
//! assert_eq!(kernel.read(doubled)?.as_real()?, 42.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod kernel;
pub mod process;
pub mod scheduler;
pub mod signal;
pub mod time;
pub mod value;

pub use error::KernelError;
pub use kernel::Kernel;
pub use time::SimTime;
pub use value::Value;
