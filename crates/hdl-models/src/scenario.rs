//! Scenario engine: declarative experiment descriptions and a batch runner.
//!
//! A [`Scenario`] is the cross product the experiments of the paper are
//! built from — **material × excitation × backend × configuration**.  The
//! engine turns one scenario into a [`ScenarioOutcome`] (BH curve, loop
//! metrics, model cost counters and wall-clock runtime) through the
//! [`HysteresisBackend`] trait, so the same runner serves every
//! implementation style.  [`ScenarioGrid`] expands whole grids of
//! scenarios, and [`run_batch`] executes them uniformly — since the
//! introduction of [`crate::exec`] it does so in parallel, one worker per
//! available core, with a deterministic (input-ordered, bit-identical)
//! [`BatchReport`] regardless of the worker count.
//!
//! The Fig.-1/E1–E6 experiment drivers in [`crate::comparison`] are thin
//! wrappers over this module.

use std::time::{Duration, Instant};

use analog_solver::circuit::elements::{NonlinearInductor, Resistor, VoltageSource};
use analog_solver::circuit::{Circuit, Node, TransientAnalysis};
use ja_hysteresis::backend::{HysteresisBackend, KernelStatistics, TimeDomainBackend};
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::error::JaError;
use ja_hysteresis::model::{JaStatistics, JilesAtherton};
use magnetics::bh::BhCurve;
use magnetics::geometry::CoreGeometry;
use magnetics::loop_analysis::{self, IncrementalLoopMetrics, LoopMetrics};
use magnetics::losses::{self, CoreLoss, LaminationSpec};
use magnetics::material::JaParameters;
use magnetics::thermal::ThermalCoefficients;
use waveform::schedule::{FieldSchedule, MAX_SAMPLES};
use waveform::Waveform;

use crate::circuit_adapter::JaCoreAdapter;
use crate::exec::{BatchRunner, RunScratch};
use crate::systemc::SystemCJaCore;

// Circuit-driven scenarios are described and reported in terms of the
// analogue solver's step-control types; re-export them so scenario
// consumers (the CLI, benches) need no direct `analog-solver` dependency.
pub use analog_solver::circuit::{StepControl, TransientStats};
pub use analog_solver::ode::adaptive::AdaptiveOptions;

/// Which implementation style runs a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The direct library model ([`JilesAtherton`]).
    DirectTimeless,
    /// The SystemC-style port on the discrete-event kernel
    /// ([`SystemCJaCore`]).
    SystemC,
    /// The equation-style AMS architecture: the excitation sampled at a
    /// fixed rate and fed to the timeless library model
    /// ([`JilesAtherton`]) — the same model as
    /// [`DirectTimeless`](BackendKind::DirectTimeless) under its own label.
    AmsTimeless,
    /// The conventional time-domain formulation driven per sample
    /// ([`TimeDomainBackend`]).
    TimeDomainBaseline,
}

impl BackendKind {
    /// All four implementation styles.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::DirectTimeless,
        BackendKind::SystemC,
        BackendKind::AmsTimeless,
        BackendKind::TimeDomainBaseline,
    ];

    /// The three implementations of the paper's timeless technique (the
    /// ones expected to agree sample-for-sample).
    pub const TIMELESS: [BackendKind; 3] = [
        BackendKind::DirectTimeless,
        BackendKind::SystemC,
        BackendKind::AmsTimeless,
    ];

    /// Stable display name.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::DirectTimeless => "direct-timeless",
            BackendKind::SystemC => "systemc-event-kernel",
            BackendKind::AmsTimeless => "ams-timeless",
            BackendKind::TimeDomainBaseline => "time-domain-baseline",
        }
    }

    /// Instantiates the backend for a material and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`JaError`] for invalid parameters/configuration or a
    /// substrate construction failure.  The SystemC port is a faithful
    /// transcription of the paper's listing and only honours `dh_max`; a
    /// configuration that deviates from the paper's defaults in any other
    /// field is rejected rather than silently ignored.
    pub fn build(
        self,
        params: JaParameters,
        config: JaConfig,
    ) -> Result<Box<dyn HysteresisBackend>, JaError> {
        match self {
            BackendKind::DirectTimeless | BackendKind::AmsTimeless => {
                Ok(Box::new(JilesAtherton::with_config(params, config)?))
            }
            BackendKind::SystemC => {
                config.validate()?;
                params.validate()?;
                let paper = JaConfig::default().with_dh_max(config.dh_max);
                if config != paper {
                    return Err(JaError::Backend {
                        backend: BackendKind::SystemC.label(),
                        reason: "the SystemC port hard-codes the paper's listing (guards on, \
                                 forward Euler, Date2006 formulation, modified Langevin); only \
                                 dh_max is configurable"
                            .to_owned(),
                    });
                }
                let core =
                    SystemCJaCore::new(params, config.dh_max).map_err(|err| JaError::Backend {
                        backend: BackendKind::SystemC.label(),
                        reason: err.to_string(),
                    })?;
                Ok(Box::new(core))
            }
            BackendKind::TimeDomainBaseline => {
                Ok(Box::new(TimeDomainBackend::new(params, config)?))
            }
        }
    }
}

/// The stimulus a scenario drives its backend with.
///
/// Every form reduces to an ordered sequence of applied-field samples — the
/// timeless view of an excitation.  Time-domain waveforms enter through
/// [`Excitation::sampled`], which fixes the sampling grid up front so every
/// backend sees the identical stimulus.  Circuit-driven excitations
/// ([`Excitation::Circuit`]) produce their field sequence at run time: the
/// transient engine simulates the drive circuit (with the scenario's
/// material wound on the core) and the solver-chosen winding-current
/// trajectory becomes the applied-field sequence — the "model inside an
/// analogue solver" setting the paper contrasts its timeless ports
/// against.
#[derive(Debug, Clone, PartialEq)]
pub enum Excitation {
    /// A timeless field schedule with explicit reversal points.
    Schedule(FieldSchedule),
    /// Raw field samples (A/m).
    Samples(Vec<f64>),
    /// A declarative drive circuit whose transient solution produces the
    /// field sequence.
    Circuit(CircuitExcitation),
}

/// Source waveform of a circuit-driven excitation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceWaveform {
    /// `amplitude · sin(2π · frequency · t)` volts.
    Sine {
        /// Peak voltage (V).
        amplitude: f64,
        /// Frequency (Hz).
        frequency: f64,
    },
    /// A symmetric triangular voltage of the given peak and frequency.
    Triangular {
        /// Peak voltage (V).
        amplitude: f64,
        /// Frequency (Hz).
        frequency: f64,
    },
    /// A bipolar PWM voltage: `+amplitude` for the first `duty` fraction
    /// of every switching period, `−amplitude` for the remainder — the
    /// drive an H-bridge converter applies to a magnetic component.
    Pwm {
        /// Rail voltage (V).
        amplitude: f64,
        /// Switching frequency (Hz).
        frequency: f64,
        /// Duty cycle in the open interval `(0, 1)`.
        duty: f64,
    },
}

impl SourceWaveform {
    /// Stable display name of the waveform kind.
    pub fn label(self) -> &'static str {
        match self {
            SourceWaveform::Sine { .. } => "sine",
            SourceWaveform::Triangular { .. } => "triangular",
            SourceWaveform::Pwm { .. } => "pwm",
        }
    }

    /// Peak voltage (V).
    pub fn amplitude(self) -> f64 {
        match self {
            SourceWaveform::Sine { amplitude, .. }
            | SourceWaveform::Triangular { amplitude, .. }
            | SourceWaveform::Pwm { amplitude, .. } => amplitude,
        }
    }

    /// Frequency (Hz).
    pub fn frequency(self) -> f64 {
        match self {
            SourceWaveform::Sine { frequency, .. }
            | SourceWaveform::Triangular { frequency, .. }
            | SourceWaveform::Pwm { frequency, .. } => frequency,
        }
    }

    /// Duty cycle — `Some` only for the PWM waveform.
    pub fn duty(self) -> Option<f64> {
        match self {
            SourceWaveform::Pwm { duty, .. } => Some(duty),
            _ => None,
        }
    }
}

/// Declarative description of a circuit-driven excitation: an independent
/// voltage source in series with a resistor and an `N`-turn winding on the
/// scenario's core material.
///
/// ```text
///   source ──── R_series ──── N-turn winding on the JA core ──── ground
/// ```
///
/// Running the scenario simulates this netlist with the transient engine
/// ([`TransientAnalysis`], fixed-step or adaptive per [`StepControl`]) and
/// the in-circuit core model built from the scenario's material and
/// configuration; the winding-current trajectory `H(t) = N·i(t)/l` then
/// drives the scenario's backend sample-by-sample, exactly like a
/// prescribed field sequence.  For [`BackendKind::DirectTimeless`] the
/// resulting BH trace is identical to the trajectory of the in-circuit
/// core.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitExcitation {
    /// Source waveform.
    pub source: SourceWaveform,
    /// Series resistance (Ω).
    pub series_resistance: f64,
    /// Winding turns.
    pub turns: f64,
    /// Core cross-section (m²).
    pub area: f64,
    /// Magnetic path length (m).
    pub path_length: f64,
    /// Transient end time (s); the run starts at `t = 0`.
    pub t_end: f64,
    /// Fixed-step size (s); under [`StepControl::Adaptive`] the controller
    /// options supply the step sizes and this value is unused.
    pub dt: f64,
    /// Step controller of the transient engine.
    pub control: StepControl,
}

/// The product of simulating a [`CircuitExcitation`]: the field sequence
/// its winding current traced, plus the transient-engine cost counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitRun {
    /// Applied-field sequence `H = N·i/l` (A/m), one value per accepted
    /// time point.
    pub field_samples: Vec<f64>,
    /// The transient engine's step/Newton statistics — deterministic, so
    /// batch reports may carry them unconditionally.
    pub stats: TransientStats,
}

impl CircuitExcitation {
    /// Creates a fixed-step circuit excitation.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] when a parameter is not finite
    /// and positive (`dt > t_end` is rejected by the transient engine at
    /// run time).
    pub fn new(
        source: SourceWaveform,
        series_resistance: f64,
        turns: f64,
        area: f64,
        path_length: f64,
        t_end: f64,
        dt: f64,
    ) -> Result<Self, JaError> {
        for (name, value) in [
            ("series_resistance", series_resistance),
            ("turns", turns),
            ("area", area),
            ("path_length", path_length),
            ("t_end", t_end),
            ("dt", dt),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(JaError::InvalidConfig {
                    name,
                    value,
                    requirement: "finite and > 0",
                });
            }
        }
        let (amplitude, frequency) = (source.amplitude(), source.frequency());
        if !amplitude.is_finite() || amplitude < 0.0 {
            return Err(JaError::InvalidConfig {
                name: "amplitude",
                value: amplitude,
                requirement: "finite and >= 0",
            });
        }
        if !frequency.is_finite() || frequency <= 0.0 {
            return Err(JaError::InvalidConfig {
                name: "frequency",
                value: frequency,
                requirement: "finite and > 0",
            });
        }
        if let SourceWaveform::Pwm { duty, .. } = source {
            // A duty of exactly 0 or 1 is a DC rail, not a switching
            // waveform.
            if !duty.is_finite() || duty <= 0.0 || duty >= 1.0 {
                return Err(JaError::InvalidConfig {
                    name: "duty",
                    value: duty,
                    requirement: "in (0, 1)",
                });
            }
        }
        Ok(Self {
            source,
            series_resistance,
            turns,
            area,
            path_length,
            t_end,
            dt,
            control: StepControl::Fixed,
        })
    }

    /// Overrides the step controller (fixed stepping is the default).
    #[must_use]
    pub fn with_step_control(mut self, control: StepControl) -> Self {
        self.control = control;
        self
    }

    /// Adaptive-controller options tuned for circuit workloads: per-mille
    /// loop accuracy at roughly half the fixed-step cost on the inrush
    /// workload.  Much looser than [`AdaptiveOptions::default`] (which
    /// serves the smooth ODE integrator): MNA unknowns span volts to tens
    /// of amps and the quantised core's update granularity makes
    /// ppm-level step control counterproductive.
    pub fn adaptive_defaults() -> AdaptiveOptions {
        AdaptiveOptions {
            rel_tol: 1e-1,
            abs_tol: 1e-1,
            initial_step: 1e-6,
            min_step: 1e-12,
            max_step: 1e-3,
        }
    }

    /// The classic magnetising-inrush setup on the paper's core geometry: a
    /// 30 V / 50 Hz sine through 1 Ω into a 200-turn winding (area 1 cm²,
    /// path 10 cm), two mains cycles at a 50 µs fixed step.  The low series
    /// resistance makes the winding current spike hard in saturation — the
    /// workload where adaptive stepping pays off.
    pub fn inrush() -> Self {
        Self::new(
            SourceWaveform::Sine {
                amplitude: 30.0,
                frequency: 50.0,
            },
            1.0,
            200.0,
            1.0e-4,
            0.1,
            0.04,
            5e-5,
        )
        .expect("inrush preset parameters are valid")
    }

    /// A resistance-dominated circuit whose winding current — and therefore
    /// the applied field — sweeps a triangle to ±`h_peak` A/m: one cycle of
    /// triangular voltage through a series resistance large enough that the
    /// inductive drop is negligible.  `steps_per_cycle` fixes the transient
    /// grid.  This is the circuit-driven twin of
    /// [`Excitation::major_loop`], used by the field-vs-circuit agreement
    /// tests.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] for a non-positive `h_peak` or a
    /// zero `steps_per_cycle`.
    pub fn triangular_sweep(h_peak: f64, steps_per_cycle: usize) -> Result<Self, JaError> {
        if !h_peak.is_finite() || h_peak <= 0.0 {
            return Err(JaError::InvalidConfig {
                name: "h_peak",
                value: h_peak,
                requirement: "finite and > 0",
            });
        }
        if steps_per_cycle == 0 {
            return Err(JaError::InvalidConfig {
                name: "steps_per_cycle",
                value: 0.0,
                requirement: "> 0",
            });
        }
        let turns = 100.0;
        let path_length = 0.1;
        let resistance = 100.0;
        // Slow sweep (10 s period): the N·A·dB/dt drop across the winding
        // stays ppm-level against the resistive drop, so H follows the
        // source triangle.
        let period = 10.0;
        let amplitude = h_peak * path_length / turns * resistance;
        Self::new(
            SourceWaveform::Triangular {
                amplitude,
                frequency: 1.0 / period,
            },
            resistance,
            turns,
            1.0e-4,
            path_length,
            period,
            period / steps_per_cycle as f64,
        )
    }

    /// Simulates the drive circuit with the given core material and model
    /// configuration, returning the applied-field trajectory and the
    /// transient statistics.
    ///
    /// # Errors
    ///
    /// Returns [`JaError`] for invalid material/configuration and
    /// [`JaError::Solver`] for transient-engine failures (invalid step
    /// sizes, singular MNA matrix, adaptive step-size underflow).
    pub fn simulate(&self, params: JaParameters, config: JaConfig) -> Result<CircuitRun, JaError> {
        let core = JaCoreAdapter::new(params, config)?;
        let mut circuit = Circuit::new();
        let v_in = circuit.node();
        let v_core = circuit.node();
        match self.source {
            SourceWaveform::Sine {
                amplitude,
                frequency,
            } => circuit.add(
                "V1",
                VoltageSource::new(
                    v_in,
                    Node::GROUND,
                    waveform::sine::Sine::new(amplitude, frequency)?,
                ),
            )?,
            SourceWaveform::Triangular {
                amplitude,
                frequency,
            } => circuit.add(
                "V1",
                VoltageSource::new(
                    v_in,
                    Node::GROUND,
                    waveform::triangular::Triangular::new(amplitude, 1.0 / frequency)?,
                ),
            )?,
            SourceWaveform::Pwm {
                amplitude,
                frequency,
                duty,
            } => circuit.add(
                "V1",
                VoltageSource::new(
                    v_in,
                    Node::GROUND,
                    waveform::pwm::Pwm::new(amplitude, frequency, duty)?,
                ),
            )?,
        };
        circuit.add("R1", Resistor::new(v_in, v_core, self.series_resistance)?)?;
        let core_index = circuit.add(
            "CORE",
            NonlinearInductor::new(
                v_core,
                Node::GROUND,
                self.turns,
                self.area,
                self.path_length,
                core,
            )?,
        )?;

        let analysis = match self.control {
            StepControl::Fixed => TransientAnalysis::new(self.dt, self.t_end)?,
            StepControl::Adaptive(options) => TransientAnalysis::adaptive(options, self.t_end)?,
        };
        let result = analysis.run(&mut circuit)?;
        let field_samples = result
            .branch_current(core_index, 0)?
            .into_iter()
            .map(|i| self.turns * i / self.path_length)
            .collect();
        Ok(CircuitRun {
            field_samples,
            stats: result.stats(),
        })
    }
}

impl Excitation {
    /// The paper's Fig. 1 stimulus: triangular major sweep to ±10 kA/m
    /// followed by non-biased minor loops of decreasing amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Waveform`] for an invalid step.
    pub fn fig1(step: f64) -> Result<Self, JaError> {
        Ok(Excitation::Schedule(FieldSchedule::nested_minor_loops(
            crate::comparison::FIG1_H_PEAK,
            &crate::comparison::FIG1_MINOR_AMPLITUDES,
            step,
        )?))
    }

    /// A triangular major loop of `cycles` full cycles.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Waveform`] for invalid schedule parameters.
    pub fn major_loop(peak: f64, step: f64, cycles: usize) -> Result<Self, JaError> {
        Ok(Excitation::Schedule(FieldSchedule::major_loop(
            peak, step, cycles,
        )?))
    }

    /// A biased minor loop (loop centre `bias`, amplitude `amplitude`).
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Waveform`] for invalid schedule parameters.
    pub fn biased_minor_loop(
        bias: f64,
        amplitude: f64,
        cycles: usize,
        step: f64,
    ) -> Result<Self, JaError> {
        Ok(Excitation::Schedule(FieldSchedule::biased_minor_loop(
            bias, amplitude, cycles, step,
        )?))
    }

    /// A degaussing schedule: triangular cycles whose amplitude decays
    /// geometrically from `h_start` by the factor `decay` per cycle until
    /// it falls below `h_stop`, finishing at `H = 0` — the classic
    /// demagnetisation procedure, driving the remanent state towards zero.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Waveform`] for invalid schedule parameters
    /// (`h_start`/`h_stop` must be finite and positive with
    /// `h_stop < h_start`, `decay` in `(0, 1)`, `step` finite and
    /// positive).
    pub fn demagnetisation(
        h_start: f64,
        h_stop: f64,
        decay: f64,
        step: f64,
    ) -> Result<Self, JaError> {
        Ok(Excitation::Schedule(FieldSchedule::demagnetisation(
            h_start, h_stop, decay, step,
        )?))
    }

    /// A time-domain waveform sampled every `dt` seconds over `[0, t_end]`
    /// — the transient stimulus reduced to the field samples every backend
    /// can consume.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] for non-positive `dt`/`t_end`, and
    /// one naming `t_end` when the sequence would hold more than
    /// [`MAX_SAMPLES`] samples, the ceiling field schedules and circuit
    /// drives share — checked before anything is allocated.
    pub fn sampled<W: Waveform>(waveform: &W, t_end: f64, dt: f64) -> Result<Self, JaError> {
        if !dt.is_finite() || dt <= 0.0 {
            return Err(JaError::InvalidConfig {
                name: "dt",
                value: dt,
                requirement: "finite and > 0",
            });
        }
        if !t_end.is_finite() || t_end <= 0.0 {
            return Err(JaError::InvalidConfig {
                name: "t_end",
                value: t_end,
                requirement: "finite and > 0",
            });
        }
        let steps = sampled_steps(t_end, dt)?;
        let samples = (0..=steps)
            .map(|i| waveform.value((i as f64 * dt).min(t_end)))
            .collect();
        Ok(Excitation::Samples(samples))
    }

    /// Number of prescribed field samples, or `None` when the count is
    /// solver-determined: a circuit-driven excitation produces its field
    /// sequence only at run time (and it depends on the scenario's
    /// material), so it has no prescribed count — yet it still drives a
    /// full sweep.
    ///
    /// This replaces the earlier `len()`/`is_empty()` pair, which violated
    /// the standard invariant (`len() == 0` while `is_empty()` was `false`
    /// for circuit excitations).  `Option` makes "no prescribed count"
    /// unrepresentable as a misleading zero.
    pub fn sample_count(&self) -> Option<usize> {
        match self {
            Excitation::Schedule(schedule) => Some(schedule.len()),
            Excitation::Samples(samples) => Some(samples.len()),
            Excitation::Circuit(_) => None,
        }
    }

    /// The prescribed stimulus as a flat sample vector (empty for
    /// circuit-driven excitations — use
    /// [`CircuitExcitation::simulate`] to obtain their material-dependent
    /// field trajectory).
    pub fn to_samples(&self) -> Vec<f64> {
        match self {
            Excitation::Schedule(schedule) => schedule.to_samples(),
            Excitation::Samples(samples) => samples.clone(),
            Excitation::Circuit(_) => Vec::new(),
        }
    }
}

/// The steps of a sequence sampled every `dt` over `[0, t_end]` (one
/// sample more than steps), counted in `f64` so no `t_end / dt` ratio can
/// overflow the count before it is held to [`MAX_SAMPLES`].
fn sampled_steps(t_end: f64, dt: f64) -> Result<usize, JaError> {
    let steps = (t_end / dt).ceil();
    if steps + 1.0 > MAX_SAMPLES as f64 {
        return Err(JaError::InvalidConfig {
            name: "t_end",
            value: t_end,
            requirement: "at most 2^24 samples (t_end / dt + 1) per sampled excitation",
        });
    }
    Ok(steps as usize)
}

/// The environment a scenario runs in: operating temperature, excitation
/// frequency and core geometry.
///
/// Every field is optional, and an all-`None` operating point is exactly
/// today's behaviour — the scenario runs the material's reference
/// parameters and reports no loss figures.  A temperature derives the
/// material parameters through [`JaParameters::at_temperature`] (see
/// [`Scenario::resolved_params`]); a geometry plus a frequency enables the
/// per-scenario core-loss breakdown ([`ScenarioOutcome::loss`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperatingPoint {
    /// Operating temperature (°C); `None` runs the material's reference
    /// parameters unchanged.
    pub temperature_c: Option<f64>,
    /// Excitation frequency (Hz) used to convert per-cycle loop energy
    /// into dissipated power.
    pub frequency_hz: Option<f64>,
    /// Core geometry converting field-axis loop area into volumetric
    /// loss.
    pub geometry: Option<CoreGeometry>,
    /// Lamination stack enabling the classical eddy-current estimate on
    /// top of the hysteresis loss.
    pub lamination: Option<LaminationSpec>,
}

impl OperatingPoint {
    /// An empty operating point (reference temperature, no loss
    /// reporting).
    pub fn new() -> Self {
        Self::default()
    }

    /// An operating point at temperature `t_c` (°C).
    #[must_use]
    pub fn at_temperature(t_c: f64) -> Self {
        Self::new().with_temperature(t_c)
    }

    /// Sets the operating temperature (°C).
    #[must_use]
    pub fn with_temperature(mut self, t_c: f64) -> Self {
        self.temperature_c = Some(t_c);
        self
    }

    /// Sets the excitation frequency (Hz).
    #[must_use]
    pub fn with_frequency(mut self, frequency_hz: f64) -> Self {
        self.frequency_hz = Some(frequency_hz);
        self
    }

    /// Sets the core geometry.
    #[must_use]
    pub fn with_geometry(mut self, geometry: CoreGeometry) -> Self {
        self.geometry = Some(geometry);
        self
    }

    /// Sets the lamination stack.
    #[must_use]
    pub fn with_lamination(mut self, lamination: LaminationSpec) -> Self {
        self.lamination = Some(lamination);
        self
    }

    /// Whether every field is `None` — an empty operating point behaves
    /// exactly like no operating point at all.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Validates the point's scalar fields.
    ///
    /// The temperature is only range-checked against a material's thermal
    /// coefficients at resolution time ([`Scenario::resolved_params`]);
    /// this checks what can be checked without a material: finite
    /// temperature, finite positive frequency.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), JaError> {
        if let Some(t_c) = self.temperature_c {
            if !t_c.is_finite() {
                return Err(JaError::InvalidConfig {
                    name: "temperature_c",
                    value: t_c,
                    requirement: "finite",
                });
            }
        }
        if let Some(frequency) = self.frequency_hz {
            if !frequency.is_finite() || frequency <= 0.0 {
                return Err(JaError::InvalidConfig {
                    name: "frequency_hz",
                    value: frequency,
                    requirement: "finite and > 0",
                });
            }
        }
        Ok(())
    }
}

/// One experiment: a named (material, configuration, backend, excitation)
/// tuple, optionally pinned to an [`OperatingPoint`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (used in batch reports).
    pub name: String,
    /// Material parameters, quoted at the 20 °C reference temperature.
    pub params: JaParameters,
    /// Model configuration.
    pub config: JaConfig,
    /// Implementation style.
    pub backend: BackendKind,
    /// Stimulus.
    pub excitation: Excitation,
    /// Operating point; `None` (the default) runs the reference
    /// parameters and reports no loss figures.
    pub operating_point: Option<OperatingPoint>,
    /// Thermal coefficients used to derive the material parameters when
    /// the operating point carries a temperature.  Defaults to
    /// [`ThermalCoefficients::generic`]; irrelevant (but carried) when no
    /// temperature is set.
    pub thermal: ThermalCoefficients,
}

impl Scenario {
    /// Creates a scenario at the reference operating point.
    pub fn new(
        name: impl Into<String>,
        params: JaParameters,
        config: JaConfig,
        backend: BackendKind,
        excitation: Excitation,
    ) -> Self {
        Self {
            name: name.into(),
            params,
            config,
            backend,
            excitation,
            operating_point: None,
            thermal: ThermalCoefficients::generic(),
        }
    }

    /// Pins the scenario to an operating point.
    #[must_use]
    pub fn with_operating_point(mut self, operating_point: OperatingPoint) -> Self {
        self.operating_point = Some(operating_point);
        self
    }

    /// Overrides the thermal coefficients (material-specific Curie point
    /// and drift constants).
    #[must_use]
    pub fn with_thermal(mut self, thermal: ThermalCoefficients) -> Self {
        self.thermal = thermal;
        self
    }

    /// The material parameters the backends actually run: the reference
    /// parameters when no operating temperature is set, otherwise the
    /// thermally derived set of [`JaParameters::at_temperature`].
    ///
    /// This is the **only** place thermal scaling is applied — every
    /// backend, the circuit transient engine and the SoA lockstep path
    /// all consume the value returned here, so scalar and lockstep
    /// execution see bit-identical derived parameters.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Material`] when the temperature or the derived
    /// parameter set is out of range.
    pub fn resolved_params(&self) -> Result<JaParameters, JaError> {
        match self
            .operating_point
            .as_ref()
            .and_then(|op| op.temperature_c)
        {
            Some(t_c) => Ok(self.params.at_temperature(t_c, &self.thermal)?),
            None => Ok(self.params),
        }
    }

    /// The loss breakdown of a folded trace, when the operating point
    /// carries both a geometry and a frequency.  Mirrors the loop-metrics
    /// policy: a trace the loss analysis cannot handle (too few points)
    /// yields `None`, not a scenario failure.
    fn loss_breakdown(&self, fold: &IncrementalLoopMetrics) -> Option<CoreLoss> {
        let op = self.operating_point.as_ref()?;
        let geometry = op.geometry.as_ref()?;
        let frequency = op.frequency_hz?;
        losses::core_loss_of(fold, geometry, frequency, op.lamination).ok()
    }

    /// The one constructor of this scenario's [`ScenarioOutcome`], for the
    /// scalar path and the executor's lockstep lanes alike: the loop
    /// metrics and the loss both come from `fold`, the trace's one pass
    /// through [`IncrementalLoopMetrics`] — a scalar run passes
    /// [`IncrementalLoopMetrics::of`] its curve, and a lockstep lane the
    /// fold its kernel fed.  Not every stimulus produces a closable loop
    /// (a biased minor loop never crosses `B = 0`, so coercivity is
    /// undefined): a failed metric extraction is `metrics: None`, not a
    /// scenario failure, and the trace still gets its loss.  The outcome's
    /// `curve` is empty; a caller that keeps the trace sets it.
    pub(crate) fn outcome(
        &self,
        fold: &IncrementalLoopMetrics,
        stats: JaStatistics,
        kernel: Option<KernelStatistics>,
        transient: Option<TransientStats>,
        runtime: Duration,
        lockstep_lanes: Option<usize>,
    ) -> ScenarioOutcome {
        ScenarioOutcome {
            name: self.name.clone(),
            backend: self.backend,
            metrics: fold.finish().ok(),
            loss: self.loss_breakdown(fold),
            curve: BhCurve::new(),
            operating_point: self.operating_point,
            stats,
            kernel,
            transient,
            runtime,
            lockstep_lanes,
        }
    }

    /// The paper's Fig. 1 experiment on the given backend: paper material,
    /// default configuration (the paper's `ΔH_max` of 10 A/m — the stimulus
    /// step is a property of the excitation, not of the model), Fig. 1
    /// stimulus with field step `step`.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Waveform`] for an invalid step.
    pub fn fig1(backend: BackendKind, step: f64) -> Result<Self, JaError> {
        Ok(Self::new(
            format!("fig1/{}", backend.label()),
            JaParameters::date2006(),
            JaConfig::default(),
            backend,
            Excitation::fig1(step)?,
        ))
    }

    /// Runs the scenario: builds the backend, drives it through the
    /// stimulus, extracts the loop metrics.
    ///
    /// # Errors
    ///
    /// Propagates backend construction, sweep and analysis errors.
    pub fn run(&self) -> Result<ScenarioOutcome, JaError> {
        self.run_with_scratch(&mut RunScratch::new())
    }

    /// Runs the scenario reusing worker-local scratch state: when the
    /// scratch's cached backend matches this scenario's (backend, material,
    /// configuration) triple it is reset and reused instead of rebuilt, and
    /// the flattened sample vector of a prescribed excitation is cached
    /// keyed by excitation identity — a grid repeats the same excitation
    /// across every (material, config, backend) combination, so
    /// re-flattening it per scenario was pure waste.  The outcome is
    /// bit-identical to [`Scenario::run`].
    ///
    /// # Errors
    ///
    /// Propagates backend construction, reset, sweep and analysis errors.
    pub fn run_with_scratch(&self, scratch: &mut RunScratch) -> Result<ScenarioOutcome, JaError> {
        self.run_with_solve(scratch, None)
    }

    /// The scalar run behind [`run_with_scratch`](Self::run_with_scratch)
    /// and the executor's circuit jobs: it sweeps the scenario's backend,
    /// hands the curve's fold to [`outcome`](Self::outcome) and keeps the
    /// curve in the outcome.  A
    /// circuit-driven scenario replays `solved` — the
    /// result of [`CircuitExcitation::simulate`] for this scenario's
    /// resolved parameters, configuration and circuit, run once for every
    /// backend that shares them — instead of solving the circuit itself;
    /// `None` solves it here.  A failed solve is reported only after the
    /// backend builds, exactly where the scenario's own solve would have
    /// failed, so the outcome is the same either way.  The solve's time is
    /// the caller's to attribute: `runtime` covers this scenario's work.
    pub(crate) fn run_with_solve(
        &self,
        scratch: &mut RunScratch,
        solved: Option<&Result<CircuitRun, JaError>>,
    ) -> Result<ScenarioOutcome, JaError> {
        let (backend, cached_samples) = scratch.backend_and_samples(self)?;
        let started = Instant::now();
        let (curve, transient) = match &self.excitation {
            Excitation::Schedule(_) | Excitation::Samples(_) => {
                (backend.run_samples(cached_samples)?, None)
            }
            Excitation::Circuit(spec) => {
                // The transient engine solves the drive circuit around the
                // in-circuit core (built from this scenario's material and
                // configuration, thermally derived when an operating
                // temperature is set); the solver-chosen H trajectory then
                // drives the scenario's backend like any prescribed
                // sample sequence.
                let own;
                let run = match solved {
                    Some(shared) => shared.as_ref().map_err(JaError::clone)?,
                    None => {
                        own = spec.simulate(self.resolved_params()?, self.config)?;
                        &own
                    }
                };
                (backend.run_samples(&run.field_samples)?, Some(run.stats))
            }
        };
        let runtime = started.elapsed();
        let fold = IncrementalLoopMetrics::of(&curve);
        Ok(ScenarioOutcome {
            curve,
            ..self.outcome(
                &fold,
                backend.statistics(),
                backend.kernel_statistics(),
                transient,
                runtime,
                None,
            )
        })
    }
}

/// Everything a scenario run produces.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Name of the scenario that produced this outcome.
    pub name: String,
    /// Backend that ran it.
    pub backend: BackendKind,
    /// The BH trace, one point per sample stepped.  Empty on every outcome
    /// a report path hands its reduce step
    /// ([`BatchRunner::run_in_order`](crate::exec::BatchRunner::run_in_order)
    /// and [`run_reduced`](crate::exec::BatchRunner::run_reduced)): those
    /// keep only what the trace folds into — `metrics`, `loss` and
    /// `stats.samples`.  [`Scenario::run`] and
    /// [`BatchRunner::run`](crate::exec::BatchRunner::run) keep it.
    pub curve: BhCurve,
    /// Loop metrics extracted from the trace; `None` when the trace does
    /// not form a closable loop (e.g. a biased minor loop that never
    /// crosses `B = 0`, leaving coercivity undefined).
    pub metrics: Option<LoopMetrics>,
    /// Core-loss breakdown; `Some` only when the scenario's operating
    /// point carries both a geometry and a frequency and the trace
    /// supports the loss analysis.  Deterministic (pure float
    /// arithmetic over the trace).
    pub loss: Option<CoreLoss>,
    /// The operating point the scenario ran at, carried through so
    /// reports can echo temperature and frequency next to the loss.
    pub operating_point: Option<OperatingPoint>,
    /// The backend's cost counters for this run.
    pub stats: JaStatistics,
    /// The simulation kernel's cost counters (delta cycles, events
    /// scheduled, process activations) — `Some` only for event-driven
    /// backends.  Deterministic outcomes, but reported only in the opt-in
    /// timing block because they describe substrate work, not model
    /// results.
    pub kernel: Option<KernelStatistics>,
    /// The transient engine's step/Newton counters — present only for
    /// circuit-driven excitations.  Deterministic (pure float-arithmetic
    /// step control), so reports carry them unconditionally.
    pub transient: Option<TransientStats>,
    /// Wall-clock time of the sweep (for circuit-driven excitations this
    /// includes the transient circuit solve; backend construction and
    /// metric extraction stay excluded).  When [`crate::exec::BatchRunner`]
    /// ran the outcome as a lockstep lane, this is an equal share of the
    /// job's sweep; when it shared one circuit solve across the scenarios
    /// of a circuit job, an equal share of that solve plus this scenario's
    /// own sweep.
    pub runtime: Duration,
    /// `Some(lane count)` when this outcome was produced by a
    /// structure-of-arrays lockstep job of [`crate::exec::BatchRunner`]
    /// (the lanes in that job), `None` for a scalar run.  Routing never changes result content (the
    /// SoA `f64` lanes are bit-identical to scalar execution), so this is
    /// reported only in the opt-in timing block.
    pub lockstep_lanes: Option<usize>,
}

impl ScenarioOutcome {
    /// The loop metrics, failing loudly when the trace does not form a
    /// closable loop.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Material`] with the underlying extraction error,
    /// re-derived from `curve` — so on an outcome whose curve a report path
    /// dropped it reads as too few samples, whatever the trace was.
    pub fn full_metrics(&self) -> Result<LoopMetrics, JaError> {
        match self.metrics {
            Some(metrics) => Ok(metrics),
            None => Ok(loop_analysis::loop_metrics(&self.curve)?),
        }
    }
}

/// A grid of scenario dimensions, expanded as a cartesian product.
///
/// Dimensions left empty fall back to a single default: the paper's
/// material, the default configuration, the [`BackendKind::DirectTimeless`]
/// backend.  The operating-point axis is special: left empty it
/// contributes no name segment and no derived parameters, so grids that
/// never mention it expand **byte-identically** to the four-axis grids of
/// earlier versions.  At least one excitation must be supplied.
#[derive(Debug, Clone, Default)]
pub struct ScenarioGrid {
    materials: Vec<(String, JaParameters, ThermalCoefficients)>,
    configs: Vec<(String, JaConfig)>,
    backends: Vec<BackendKind>,
    excitations: Vec<(String, Excitation)>,
    operating_points: Vec<(String, OperatingPoint)>,
}

impl ScenarioGrid {
    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a material with the generic thermal coefficients.
    #[must_use]
    pub fn material(mut self, name: impl Into<String>, params: JaParameters) -> Self {
        self.materials
            .push((name.into(), params, ThermalCoefficients::generic()));
        self
    }

    /// Adds a material together with its thermal coefficients, used to
    /// derive the parameters when a scenario's operating point carries a
    /// temperature.
    #[must_use]
    pub fn material_with_thermal(
        mut self,
        name: impl Into<String>,
        params: JaParameters,
        thermal: ThermalCoefficients,
    ) -> Self {
        self.materials.push((name.into(), params, thermal));
        self
    }

    /// Adds an operating point.  A non-empty operating-point axis appends
    /// a fifth `/`-separated segment to every scenario name.
    #[must_use]
    pub fn operating_point(
        mut self,
        name: impl Into<String>,
        operating_point: OperatingPoint,
    ) -> Self {
        self.operating_points.push((name.into(), operating_point));
        self
    }

    /// Adds a configuration.
    #[must_use]
    pub fn config(mut self, name: impl Into<String>, config: JaConfig) -> Self {
        self.configs.push((name.into(), config));
        self
    }

    /// Adds a backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backends.push(backend);
        self
    }

    /// Adds several backends.
    #[must_use]
    pub fn backends(mut self, backends: impl IntoIterator<Item = BackendKind>) -> Self {
        self.backends.extend(backends);
        self
    }

    /// Adds an excitation.
    #[must_use]
    pub fn excitation(mut self, name: impl Into<String>, excitation: Excitation) -> Self {
        self.excitations.push((name.into(), excitation));
        self
    }

    /// Expands the grid into concrete scenarios
    /// (excitation-major, then backend, config, material, operating
    /// point).
    ///
    /// # Errors
    ///
    /// Returns [`JaError::EmptyGrid`] when the grid expands to zero
    /// scenarios.  Materials, configurations and backends fall back to a
    /// single default when left empty, so in practice only a missing
    /// excitation axis can empty the product — but silently returning zero
    /// scenarios made a misconfigured batch look like a successful one.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, JaError> {
        if self.excitations.is_empty() {
            return Err(JaError::EmptyGrid {
                axis: "excitations",
            });
        }
        let materials: Vec<(String, JaParameters, ThermalCoefficients)> =
            if self.materials.is_empty() {
                vec![(
                    "date2006".to_owned(),
                    JaParameters::date2006(),
                    ThermalCoefficients::date2006(),
                )]
            } else {
                self.materials.clone()
            };
        let configs: Vec<(String, JaConfig)> = if self.configs.is_empty() {
            vec![("default".to_owned(), JaConfig::default())]
        } else {
            self.configs.clone()
        };
        let backends: Vec<BackendKind> = if self.backends.is_empty() {
            vec![BackendKind::DirectTimeless]
        } else {
            self.backends.clone()
        };
        // An empty axis means "no operating point at all" — not a default
        // point — so names and derived parameters stay byte-identical to
        // the four-axis expansion.
        let operating_points: Vec<Option<&(String, OperatingPoint)>> =
            if self.operating_points.is_empty() {
                vec![None]
            } else {
                self.operating_points.iter().map(Some).collect()
            };

        let mut scenarios = Vec::with_capacity(
            materials.len()
                * configs.len()
                * backends.len()
                * self.excitations.len()
                * operating_points.len(),
        );
        for (excitation_name, excitation) in &self.excitations {
            for &backend in &backends {
                for (config_name, config) in &configs {
                    for (material_name, params, thermal) in &materials {
                        for op_entry in &operating_points {
                            let base = format!(
                                "{excitation_name}/{}/{config_name}/{material_name}",
                                backend.label()
                            );
                            let mut scenario = Scenario::new(
                                match op_entry {
                                    Some((op_name, _)) => format!("{base}/{op_name}"),
                                    None => base,
                                },
                                *params,
                                *config,
                                backend,
                                excitation.clone(),
                            )
                            .with_thermal(*thermal);
                            if let Some((_, op)) = op_entry {
                                scenario = scenario.with_operating_point(*op);
                            }
                            scenarios.push(scenario);
                        }
                    }
                }
            }
        }
        Ok(scenarios)
    }

    /// Number of scenarios the grid expands to, without materialising them
    /// (empty dimensions count as their single default).
    pub fn len(&self) -> usize {
        self.excitations.len()
            * self.backends.len().max(1)
            * self.configs.len().max(1)
            * self.materials.len().max(1)
            * self.operating_points.len().max(1)
    }

    /// Whether the grid expands to no scenarios.
    pub fn is_empty(&self) -> bool {
        self.excitations.is_empty()
    }
}

/// Result of one batch entry: the scenario together with its outcome or
/// error (under the default collect-all policy a failing scenario does not
/// abort the batch).
#[derive(Debug)]
pub struct BatchEntry {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Its outcome.
    pub outcome: Result<ScenarioOutcome, JaError>,
    /// Wall-clock time this entry spent on its worker, including backend
    /// construction and metric extraction ([`ScenarioOutcome::runtime`]
    /// covers the sweep only).  Zero for cancelled entries.
    pub wall_clock: Duration,
}

/// Report of a batch run.
///
/// Entries come back in input order with bit-identical content regardless
/// of the worker count; only the timing fields (`wall_clock`, `elapsed`,
/// [`ScenarioOutcome::runtime`]) vary between runs.
#[derive(Debug)]
pub struct BatchReport {
    /// One entry per scenario, in input order.
    pub entries: Vec<BatchEntry>,
    /// Number of worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock time of the whole batch, from scheduling the first
    /// scenario to joining the last worker.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Successful outcomes, in input order.
    pub fn successes(&self) -> impl Iterator<Item = &ScenarioOutcome> {
        self.entries.iter().filter_map(|e| e.outcome.as_ref().ok())
    }

    /// Failed entries, in input order.
    pub fn failures(&self) -> impl Iterator<Item = (&Scenario, &JaError)> {
        self.entries
            .iter()
            .filter_map(|e| e.outcome.as_ref().err().map(|err| (&e.scenario, err)))
    }

    /// Total sweep wall-clock across the successful entries.
    pub fn total_runtime(&self) -> Duration {
        self.successes().map(|o| o.runtime).sum()
    }

    /// Total per-entry wall-clock across all entries — the time a
    /// single-worker run would have spent executing scenarios.
    pub fn serial_runtime(&self) -> Duration {
        self.entries.iter().map(|e| e.wall_clock).sum()
    }

    /// Aggregate speedup estimate: [`BatchReport::serial_runtime`] over
    /// [`BatchReport::elapsed`] (0 when the batch was empty or too fast to
    /// measure).  Equivalently the average number of entries in flight, so
    /// it is bounded above by the worker count and matches the true
    /// speedup over a serial run only while workers are not oversubscribed
    /// (per-entry wall-clocks include time spent descheduled); the
    /// `batch_scaling` bench measures the real thing against a 1-worker
    /// run.
    pub fn speedup(&self) -> f64 {
        crate::exec::speedup_estimate(self.serial_runtime(), self.elapsed)
    }

    /// Looks an outcome up by scenario name.
    pub fn outcome(&self, name: &str) -> Option<&ScenarioOutcome> {
        self.successes().find(|o| o.name == name)
    }
}

/// Runs every scenario and collects all outcomes in input order;
/// individual failures are recorded, not propagated.
///
/// This is a thin wrapper over [`crate::exec::BatchRunner`] with the
/// default knobs: one worker per available core, collect-all error policy.
/// The report is deterministic — see [`BatchReport`].
pub fn run_batch(scenarios: impl IntoIterator<Item = Scenario>) -> BatchReport {
    BatchRunner::new().run(scenarios)
}

/// Pairwise flux-density agreement across backends on one stimulus: runs
/// the same (material, config, excitation) on every given backend and
/// reports the worst sample-wise |ΔB| between any pair, relative to the
/// peak flux density.
///
/// # Errors
///
/// Propagates the first scenario failure — an equivalence check is
/// meaningless with a missing participant.
pub fn backend_agreement(
    params: JaParameters,
    config: JaConfig,
    excitation: &Excitation,
    backends: &[BackendKind],
) -> Result<AgreementReport, JaError> {
    let mut outcomes = Vec::with_capacity(backends.len());
    for &kind in backends {
        let scenario = Scenario::new(
            format!("agreement/{}", kind.label()),
            params,
            config,
            kind,
            excitation.clone(),
        );
        outcomes.push(scenario.run()?);
    }
    let mut max_abs_diff_b = 0.0_f64;
    let mut peak = 0.0_f64;
    let mut worst_pair = None;
    for (i, a) in outcomes.iter().enumerate() {
        peak = peak.max(
            a.curve
                .points()
                .iter()
                .map(|p| p.b.as_tesla().abs())
                .fold(0.0, f64::max),
        );
        for b in &outcomes[i + 1..] {
            let diff = a
                .curve
                .points()
                .iter()
                .zip(b.curve.points())
                .map(|(x, y)| (x.b.as_tesla() - y.b.as_tesla()).abs())
                .fold(0.0, f64::max);
            if diff >= max_abs_diff_b {
                max_abs_diff_b = diff;
                worst_pair = Some((a.backend, b.backend));
            }
        }
    }
    Ok(AgreementReport {
        max_abs_diff_b,
        relative_diff: if peak > 0.0 {
            max_abs_diff_b / peak
        } else {
            0.0
        },
        worst_pair,
        outcomes,
    })
}

/// Result of [`backend_agreement`].
#[derive(Debug)]
pub struct AgreementReport {
    /// Worst sample-wise |ΔB| between any backend pair (T).
    pub max_abs_diff_b: f64,
    /// `max_abs_diff_b` relative to the peak |B| across all backends.
    pub relative_diff: f64,
    /// The pair of backends exhibiting the worst difference.
    pub worst_pair: Option<(BackendKind, BackendKind)>,
    /// Per-backend outcomes, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_scenario_runs_on_every_backend() {
        for kind in BackendKind::ALL {
            let outcome = Scenario::fig1(kind, 50.0).unwrap().run().unwrap();
            let metrics = outcome.full_metrics().unwrap();
            assert!(
                metrics.b_max.as_tesla() > 1.2,
                "{}: B_max = {} T",
                kind.label(),
                metrics.b_max.as_tesla()
            );
            assert!(outcome.stats.samples > 0);
            assert_eq!(outcome.curve.len(), outcome.stats.samples as usize);
        }
    }

    #[test]
    fn grid_expands_cartesian_product_with_defaults() {
        let grid = ScenarioGrid::new()
            .backends(BackendKind::TIMELESS)
            .excitation("major", Excitation::major_loop(10_000.0, 100.0, 1).unwrap())
            .excitation("fig1", Excitation::fig1(100.0).unwrap());
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 6); // 2 excitations x 3 backends x 1 x 1
        assert!(scenarios[0].name.contains("major"));
        assert!(!grid.is_empty());
        assert_eq!(grid.len(), 6);
    }

    #[test]
    fn grid_without_excitations_is_an_error_not_zero_work() {
        let grid = ScenarioGrid::new().backends(BackendKind::ALL);
        assert!(grid.is_empty());
        assert_eq!(grid.len(), 0);
        let err = grid.scenarios().expect_err("empty grid must be rejected");
        assert!(matches!(
            err,
            JaError::EmptyGrid {
                axis: "excitations"
            }
        ));
    }

    #[test]
    fn batch_runner_collects_all_outcomes() {
        let report = run_batch(
            ScenarioGrid::new()
                .backends(BackendKind::TIMELESS)
                .excitation("major", Excitation::major_loop(10_000.0, 100.0, 1).unwrap())
                .scenarios()
                .unwrap(),
        );
        assert_eq!(report.entries.len(), 3);
        assert_eq!(report.successes().count(), 3);
        assert_eq!(report.failures().count(), 0);
        assert!(report.total_runtime() > Duration::ZERO);
        assert!(report.workers >= 1);
        assert!(report.serial_runtime() >= report.total_runtime());
        let name = &report.entries[0].scenario.name;
        assert!(report.outcome(name).is_some());
    }

    #[test]
    fn systemc_backend_rejects_configs_the_port_cannot_honour() {
        let unsupported = JaConfig::default().without_guards();
        let err = BackendKind::SystemC
            .build(JaParameters::date2006(), unsupported)
            .err()
            .expect("unsupported config must be rejected");
        assert!(matches!(err, JaError::Backend { .. }), "{err}");
        // dh_max alone is honoured.
        assert!(BackendKind::SystemC
            .build(
                JaParameters::date2006(),
                JaConfig::default().with_dh_max(25.0)
            )
            .is_ok());
    }

    #[test]
    fn batch_records_failures_without_aborting() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 100.0, 1).unwrap(),
        );
        let good = Scenario::fig1(BackendKind::DirectTimeless, 100.0).unwrap();
        let report = run_batch([bad, good]);
        assert_eq!(report.failures().count(), 1);
        assert_eq!(report.successes().count(), 1);
    }

    #[test]
    fn sampled_excitation_matches_waveform() {
        let waveform = waveform::triangular::Triangular::new(1_000.0, 1.0).unwrap();
        let excitation = Excitation::sampled(&waveform, 1.0, 0.25).unwrap();
        assert_eq!(excitation.sample_count(), Some(5));
        let samples = excitation.to_samples();
        assert!((samples[1] - 1_000.0).abs() < 1e-9); // peak at t = 0.25
        assert!(Excitation::sampled(&waveform, 1.0, 0.0).is_err());
        assert!(Excitation::sampled(&waveform, -1.0, 1e-3).is_err());

        // Sample counts are held to the schedule ceiling before anything
        // is allocated: a ratio that overflows `usize` and one that fits
        // but would need 8 TB are both errors naming t_end.
        let sine = waveform::sine::Sine::new(1_000.0, 50.0).unwrap();
        for (t_end, dt) in [(1e300, 1e-300), (1e12, 1e-6)] {
            assert!(
                matches!(
                    Excitation::sampled(&sine, t_end, dt),
                    Err(JaError::InvalidConfig { name: "t_end", value, .. }) if value == t_end
                ),
                "t_end = {t_end}, dt = {dt}"
            );
        }
        // Just under the ceiling is accepted: exactly MAX_SAMPLES samples
        // (counted without sizing the 128 MiB buffer), one more is not.
        let at_ceiling = (MAX_SAMPLES - 1) as f64;
        assert_eq!(sampled_steps(at_ceiling, 1.0), Ok(MAX_SAMPLES - 1));
        assert!(sampled_steps(at_ceiling + 1.0, 1.0).is_err());
    }

    #[test]
    fn circuit_excitation_validates_its_parameters() {
        let sine = SourceWaveform::Sine {
            amplitude: 30.0,
            frequency: 50.0,
        };
        assert!(CircuitExcitation::new(sine, 1.0, 200.0, 1e-4, 0.1, 0.04, 5e-5).is_ok());
        assert!(CircuitExcitation::new(sine, 0.0, 200.0, 1e-4, 0.1, 0.04, 5e-5).is_err());
        assert!(CircuitExcitation::new(sine, 1.0, -1.0, 1e-4, 0.1, 0.04, 5e-5).is_err());
        assert!(CircuitExcitation::new(sine, 1.0, 200.0, f64::NAN, 0.1, 0.04, 5e-5).is_err());
        assert!(CircuitExcitation::new(sine, 1.0, 200.0, 1e-4, 0.1, 0.0, 5e-5).is_err());
        let bad_source = SourceWaveform::Triangular {
            amplitude: -5.0,
            frequency: 50.0,
        };
        assert!(CircuitExcitation::new(bad_source, 1.0, 200.0, 1e-4, 0.1, 0.04, 5e-5).is_err());
        let bad_freq = SourceWaveform::Sine {
            amplitude: 5.0,
            frequency: 0.0,
        };
        assert!(CircuitExcitation::new(bad_freq, 1.0, 200.0, 1e-4, 0.1, 0.04, 5e-5).is_err());
        assert!(CircuitExcitation::triangular_sweep(0.0, 100).is_err());
        assert!(CircuitExcitation::triangular_sweep(10_000.0, 0).is_err());
        assert_eq!(sine.label(), "sine");
        assert_eq!(bad_source.label(), "triangular");
    }

    #[test]
    fn sample_count_distinguishes_prescribed_from_solver_determined() {
        // Regression for the old len()/is_empty() API, which reported
        // len() == 0 with is_empty() == false for circuit excitations —
        // breaking the standard invariant.  A solver-determined count is
        // now None, not a misleading zero.
        let circuit = Excitation::Circuit(CircuitExcitation::inrush());
        assert_eq!(circuit.sample_count(), None);
        assert!(circuit.to_samples().is_empty());
        // ...but the scenario still drives a full sweep.
        let outcome = Scenario::new(
            "inrush",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::DirectTimeless,
            circuit,
        )
        .run()
        .unwrap();
        assert!(!outcome.curve.is_empty());

        let schedule = Excitation::major_loop(10_000.0, 250.0, 1).unwrap();
        assert_eq!(schedule.sample_count(), Some(schedule.to_samples().len()));
        let samples = Excitation::Samples(vec![0.0, 100.0, 0.0]);
        assert_eq!(samples.sample_count(), Some(3));
        assert_eq!(Excitation::Samples(Vec::new()).sample_count(), Some(0));
    }

    #[test]
    fn circuit_scenario_runs_and_reports_transient_stats() {
        let scenario = Scenario::new(
            "inrush",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::DirectTimeless,
            Excitation::Circuit(CircuitExcitation::inrush()),
        );
        let outcome = scenario.run().unwrap();
        let transient = outcome.transient.expect("circuit scenarios carry stats");
        assert!(transient.accepted_steps > 0);
        assert!(transient.newton_iterations > 0);
        assert_eq!(outcome.curve.len(), transient.accepted_steps + 1);
        // The inrush current saturates the core.
        let peak_h = outcome
            .curve
            .points()
            .iter()
            .map(|p| p.h.value().abs())
            .fold(0.0, f64::max);
        assert!(peak_h > 10_000.0, "peak field {peak_h} A/m");
        // Field-driven scenarios carry no transient stats.
        let field = Scenario::fig1(BackendKind::DirectTimeless, 250.0)
            .unwrap()
            .run()
            .unwrap();
        assert!(field.transient.is_none());
    }

    #[test]
    fn circuit_driven_triangular_sweep_reproduces_the_field_driven_loop() {
        // The paper's headline comparison: the same core driven through a
        // circuit by the analogue solver versus the prescribed field sweep.
        // A resistance-dominated circuit sweeps H in a triangle to
        // ±10 kA/m; its loop metrics must match the field-driven major
        // loop within 1% of the peak flux density (the workspace's
        // documented backend-agreement tolerance).
        let circuit = Scenario::new(
            "circuit-sweep",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::DirectTimeless,
            Excitation::Circuit(CircuitExcitation::triangular_sweep(10_000.0, 400).unwrap()),
        )
        .run()
        .unwrap();
        let field = Scenario::new(
            "field-sweep",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 100.0, 1).unwrap(),
        )
        .run()
        .unwrap();

        let circuit_metrics = circuit.full_metrics().unwrap();
        let field_metrics = field.full_metrics().unwrap();
        let peak_b = field_metrics.b_max.as_tesla();
        let tolerance = 0.01 * peak_b;
        for (name, a, b) in [
            (
                "b_max",
                circuit_metrics.b_max.as_tesla(),
                field_metrics.b_max.as_tesla(),
            ),
            (
                "remanence",
                circuit_metrics.remanence.as_tesla(),
                field_metrics.remanence.as_tesla(),
            ),
        ] {
            assert!(
                (a - b).abs() < tolerance,
                "{name}: circuit {a} vs field {b} (tolerance {tolerance})"
            );
        }
        // Coercivity is a field-axis metric: compare against 1% of the
        // peak applied field.
        assert!(
            (circuit_metrics.coercivity.value() - field_metrics.coercivity.value()).abs()
                < 0.01 * 10_000.0,
            "coercivity: circuit {} vs field {}",
            circuit_metrics.coercivity.value(),
            field_metrics.coercivity.value()
        );
    }

    #[test]
    fn adaptive_control_needs_fewer_steps_at_equal_loop_accuracy() {
        // The speed story of the adaptive controller: on the saturating
        // inrush circuit it must reproduce the fixed-step loop metrics (to
        // within 1% of peak B against a fine-step reference) while
        // accepting fewer steps than the fixed-step run.
        let run = |control: StepControl, dt: f64| {
            let mut spec = CircuitExcitation::inrush();
            spec.dt = dt;
            spec = spec.with_step_control(control);
            Scenario::new(
                "inrush",
                JaParameters::date2006(),
                JaConfig::default(),
                BackendKind::DirectTimeless,
                Excitation::Circuit(spec),
            )
            .run()
            .unwrap()
        };

        let reference = run(StepControl::Fixed, 5e-6);
        let fixed = run(StepControl::Fixed, 5e-5);
        let adaptive = run(
            StepControl::Adaptive(CircuitExcitation::adaptive_defaults()),
            5e-5,
        );

        // The inrush flux is DC-offset (it never recrosses B = 0), so the
        // closable-loop metrics are undefined; the loop-accuracy metric
        // here is the peak flux density of the trace.
        let peak_b = |outcome: &ScenarioOutcome| {
            outcome
                .curve
                .points()
                .iter()
                .map(|p| p.b.as_tesla().abs())
                .fold(0.0, f64::max)
        };
        let b_ref = peak_b(&reference);
        let b_fixed = peak_b(&fixed);
        let b_adaptive = peak_b(&adaptive);
        let tolerance = 0.01 * b_ref;
        assert!(
            (b_fixed - b_ref).abs() < tolerance,
            "fixed b_max {b_fixed} vs reference {b_ref}"
        );
        assert!(
            (b_adaptive - b_ref).abs() < tolerance,
            "adaptive b_max {b_adaptive} vs reference {b_ref}"
        );

        let fixed_steps = fixed.transient.unwrap().accepted_steps;
        let adaptive_steps = adaptive.transient.unwrap().accepted_steps;
        assert!(
            adaptive_steps < fixed_steps,
            "adaptive {adaptive_steps} steps vs fixed {fixed_steps}"
        );
    }

    #[test]
    fn circuit_scenarios_join_mixed_grids() {
        let grid = ScenarioGrid::new()
            .backend(BackendKind::DirectTimeless)
            .excitation("major", Excitation::major_loop(10_000.0, 250.0, 1).unwrap())
            .excitation("inrush", Excitation::Circuit(CircuitExcitation::inrush()));
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 2);
        let report = run_batch(scenarios);
        assert_eq!(report.successes().count(), 2);
        let inrush = report
            .successes()
            .find(|o| o.name.contains("inrush"))
            .unwrap();
        assert!(inrush.transient.is_some());
        let major = report
            .successes()
            .find(|o| o.name.contains("major"))
            .unwrap();
        assert!(major.transient.is_none());
    }

    #[test]
    fn pwm_circuit_excitation_validates_and_runs() {
        let pwm = |duty| SourceWaveform::Pwm {
            amplitude: 30.0,
            frequency: 50.0,
            duty,
        };
        assert_eq!(pwm(0.5).label(), "pwm");
        assert_eq!(pwm(0.5).duty(), Some(0.5));
        assert_eq!(
            SourceWaveform::Sine {
                amplitude: 1.0,
                frequency: 1.0
            }
            .duty(),
            None
        );
        for bad in [0.0, 1.0, -0.2, f64::NAN] {
            let err = CircuitExcitation::new(pwm(bad), 1.0, 200.0, 1e-4, 0.1, 0.04, 5e-5)
                .expect_err("duty outside (0, 1) must be rejected");
            assert!(
                matches!(err, JaError::InvalidConfig { name: "duty", .. }),
                "{err}"
            );
        }
        let spec = CircuitExcitation::new(pwm(0.5), 1.0, 200.0, 1e-4, 0.1, 0.04, 5e-5).unwrap();
        let outcome = Scenario::new(
            "pwm",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::DirectTimeless,
            Excitation::Circuit(spec),
        )
        .run()
        .unwrap();
        assert!(!outcome.curve.is_empty());
        assert!(outcome.transient.is_some());
        // A symmetric 50% PWM drives the field both ways.
        let (min_h, max_h) = outcome
            .curve
            .points()
            .iter()
            .map(|p| p.h.value())
            .fold((f64::MAX, f64::MIN), |(lo, hi), h| (lo.min(h), hi.max(h)));
        assert!(min_h < 0.0 && max_h > 0.0, "H range [{min_h}, {max_h}]");
    }

    #[test]
    fn degauss_excitation_walks_the_remanence_towards_zero() {
        let params = JaParameters::date2006();
        let config = JaConfig::default();
        let major = Scenario::new(
            "major",
            params,
            config,
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 50.0, 1).unwrap(),
        )
        .run()
        .unwrap();
        let remanence = major.full_metrics().unwrap().remanence.as_tesla().abs();
        let degauss = Scenario::new(
            "degauss",
            params,
            config,
            BackendKind::DirectTimeless,
            Excitation::demagnetisation(10_000.0, 50.0, 0.8, 50.0).unwrap(),
        )
        .run()
        .unwrap();
        let final_b = degauss.curve.points().last().unwrap().b.as_tesla().abs();
        assert!(
            final_b < 0.2 * remanence,
            "degauss left {final_b} T against remanence {remanence} T"
        );
        assert!(Excitation::demagnetisation(10_000.0, 50.0, 1.5, 50.0).is_err());
    }

    #[test]
    fn operating_point_axis_appends_a_fifth_name_segment() {
        let base = ScenarioGrid::new()
            .backends(BackendKind::TIMELESS)
            .excitation("major", Excitation::major_loop(10_000.0, 100.0, 1).unwrap());
        // Without the axis: four segments, no operating point — identical
        // to the historical expansion.
        for scenario in base.scenarios().unwrap() {
            assert_eq!(scenario.name.split('/').count(), 4);
            assert!(scenario.operating_point.is_none());
        }
        let grid = base
            .operating_point("t-40", OperatingPoint::at_temperature(-40.0))
            .operating_point("t125", OperatingPoint::at_temperature(125.0));
        assert_eq!(grid.len(), 6);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 6);
        for scenario in &scenarios {
            assert_eq!(scenario.name.split('/').count(), 5, "{}", scenario.name);
            assert!(scenario.operating_point.is_some());
        }
        assert!(scenarios[0].name.ends_with("/t-40"));
        assert!(scenarios[1].name.ends_with("/t125"));
    }

    #[test]
    fn resolved_params_applies_thermal_scaling_in_one_place() {
        let params = JaParameters::date2006();
        let thermal = ThermalCoefficients::date2006();
        let scenario = Scenario::new(
            "hot",
            params,
            JaConfig::default(),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 100.0, 1).unwrap(),
        )
        .with_thermal(thermal)
        .with_operating_point(OperatingPoint::at_temperature(125.0));
        let resolved = scenario.resolved_params().unwrap();
        assert_eq!(resolved, params.at_temperature(125.0, &thermal).unwrap());
        assert!(resolved.m_sat.value() < params.m_sat.value());
        // No temperature: the reference parameters pass through untouched.
        let reference = Scenario::new(
            "ref",
            params,
            JaConfig::default(),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 100.0, 1).unwrap(),
        );
        assert_eq!(reference.resolved_params().unwrap(), params);
        // An unphysical temperature fails the scenario, loudly.
        let bad = reference.with_operating_point(OperatingPoint::at_temperature(2_000.0));
        assert!(matches!(
            bad.resolved_params().unwrap_err(),
            JaError::Material(_)
        ));
        assert!(matches!(bad.run().unwrap_err(), JaError::Material(_)));
    }

    #[test]
    fn loss_is_reported_when_geometry_and_frequency_are_set() {
        let excitation = Excitation::major_loop(10_000.0, 100.0, 1).unwrap();
        let plain = Scenario::new(
            "plain",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::DirectTimeless,
            excitation.clone(),
        );
        assert!(plain.run().unwrap().loss.is_none());
        let op = OperatingPoint::new()
            .with_geometry(CoreGeometry::demo())
            .with_frequency(50.0)
            .with_lamination(LaminationSpec::silicon_steel_0p35mm());
        assert!(!op.is_empty());
        assert!(op.validate().is_ok());
        assert!(OperatingPoint::new()
            .with_frequency(0.0)
            .validate()
            .is_err());
        assert!(OperatingPoint::at_temperature(f64::NAN).validate().is_err());
        let outcome = plain.clone().with_operating_point(op).run().unwrap();
        let loss = outcome.loss.expect("geometry + frequency enables loss");
        assert!(loss.hysteresis_w > 0.0);
        assert!(loss.eddy_w > 0.0);
        assert!((loss.total_w - loss.hysteresis_w - loss.eddy_w).abs() < 1e-12);
        assert_eq!(outcome.operating_point, Some(op));
        // Geometry without frequency (or vice versa) stays silent.
        let partial =
            plain.with_operating_point(OperatingPoint::new().with_geometry(CoreGeometry::demo()));
        assert!(partial.run().unwrap().loss.is_none());
    }

    #[test]
    fn timeless_backends_agree_on_fig1() {
        let report = backend_agreement(
            JaParameters::date2006(),
            JaConfig::default(),
            &Excitation::fig1(50.0).unwrap(),
            &BackendKind::TIMELESS,
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(
            report.relative_diff < 0.05,
            "relative diff {} (worst pair {:?})",
            report.relative_diff,
            report.worst_pair
        );
    }
}
