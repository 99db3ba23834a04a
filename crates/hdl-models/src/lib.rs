//! HDL-style implementations of the timeless Jiles–Atherton core model.
//!
//! The paper presents the same technique twice — once as a SystemC module
//! built from three method processes, once as a VHDL-AMS architecture — and
//! shows that both "produce virtually identical results".  This crate
//! rebuilds that layer on top of the Rust substrates:
//!
//! * [`systemc`] — a faithful port of the paper's SystemC listing
//!   (`core`, `monitorH`, `Integral` processes, `hchanged`/`trig` handshake
//!   signals) running on the [`hdl_kernel`] discrete-event kernel;
//! * [`ams`] — the equation-style (VHDL-AMS-like) side: the conventional
//!   solver-integrated baseline whose `dM/dt` is advanced by the
//!   [`analog_solver`] ODE engines (the "previous work" the paper
//!   criticises).  The paper's timeless model in that architecture is the
//!   library model fed a fixed-rate sampled waveform, which
//!   [`scenario::BackendKind::AmsTimeless`] builds;
//! * [`circuit_adapter`] — glue that lets the timeless JA model act as the
//!   [`analog_solver::circuit::MagneticCoreModel`] of a wound-core circuit
//!   element, i.e. the model sitting inside a SPICE-style netlist;
//! * [`scenario`] — the scenario engine: a [`scenario::Scenario`] is one
//!   (material × excitation × backend × config) experiment, run uniformly
//!   through the [`ja_hysteresis::backend::HysteresisBackend`] trait, with
//!   [`scenario::ScenarioGrid`] and [`scenario::run_batch`] for whole
//!   experiment grids.  Excitations may be field-driven (schedules, raw
//!   samples) or circuit-driven ([`scenario::CircuitExcitation`]): a
//!   declarative source→R→wound-core netlist whose transient solution —
//!   fixed-step or adaptive — supplies the applied-field trajectory;
//! * [`exec`] — the parallel batch executor behind `run_batch` and every
//!   report writer: [`exec::BatchRunner::run_in_order`] distributes a
//!   scenario grid over scoped worker threads, reduces each outcome on its
//!   worker and emits the reduced values in input order; the generic
//!   [`exec::parallel_map`] is a collect over the same pool;
//! * [`fit`] — multi-start parallel parameter extraction:
//!   [`fit::fit_batch`] descends each measured loop's seeded starting
//!   points together, one loop per task on the same worker pool, and
//!   keeps the best fit per loop;
//! * [`report`] — versioned JSON serialization of batch/outcome/agreement
//!   results (the machine-readable interface the `ja` CLI and CI consume);
//! * [`serve`] — the dependency-free serving layer behind `ja serve`:
//!   a strict hand-rolled HTTP/1.1 parser/writer over [`std::net`], a
//!   bounded-queue accept loop with worker threads, 503 admission
//!   control, graceful drain, and the content-addressed
//!   [`serve::ResultCache`] that turns repeated requests into O(1)
//!   byte-identical responses;
//! * [`comparison`] — the experiment drivers used by the benches and
//!   integration tests (Fig. 1 reproduction, implementation equivalence,
//!   turning-point stability, runtime comparisons), now thin wrappers over
//!   the scenario engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ams;
pub mod circuit_adapter;
pub mod comparison;
pub mod exec;
pub mod fit;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod systemc;

pub use ams::{SolverIntegratedBaseline, SolverMethod};
pub use circuit_adapter::JaCoreAdapter;
pub use exec::{BatchRunner, ErrorPolicy, RunScratch};
pub use fit::{fit_batch, FitJob, FitReport, LoopFit, MultiStartOptions, StartFit};
pub use scenario::{
    BackendKind, CircuitExcitation, CircuitRun, Excitation, Scenario, ScenarioGrid,
    ScenarioOutcome, SourceWaveform,
};
pub use systemc::SystemCJaCore;
