//! Experiment drivers: the functions behind every figure / claim
//! reproduction.
//!
//! Each is a thin wrapper over the [`crate::scenario`] engine: an
//! experiment declares its scenarios (material × excitation × backend ×
//! config) and reads the numbers it reports out of the
//! [`ScenarioOutcome`]s, whose `curve` holds the whole BH trace — the
//! Fig. 1 curve of any backend is `fig1_outcome(backend, step)?.curve`.
//! Only the solver-in-the-loop baseline of experiments E4/E5 drives
//! [`SolverIntegratedBaseline`] directly: genuine time integration cannot
//! stand behind the sample-driven
//! [`ja_hysteresis::backend::HysteresisBackend`] API.

use ja_hysteresis::config::{JaConfig, SlopeIntegration};
use ja_hysteresis::error::JaError;
use magnetics::loop_analysis::{self, LoopMetrics};
use magnetics::material::JaParameters;
use waveform::schedule::FieldSchedule;
use waveform::triangular::Triangular;
use waveform::WaveformError;

use crate::ams::{SolverIntegratedBaseline, SolverMethod};
use crate::scenario::{backend_agreement, BackendKind, Excitation, Scenario, ScenarioOutcome};

/// Peak field of the paper's Fig. 1 sweep (±10 kA/m).
pub const FIG1_H_PEAK: f64 = 10_000.0;

/// Minor-loop amplitudes used for the non-biased minor loops of Fig. 1.
pub const FIG1_MINOR_AMPLITUDES: [f64; 3] = [7_500.0, 5_000.0, 2_500.0];

/// Default field step (ΔH_max) used by the experiments, in A/m.
pub const DEFAULT_STEP: f64 = 10.0;

/// Builds the Fig. 1 excitation: a triangular major sweep to ±10 kA/m
/// followed by non-biased minor loops of decreasing amplitude.
///
/// # Errors
///
/// Returns [`WaveformError`] only if the constants above were edited into an
/// inconsistent state.
pub fn fig1_schedule(step: f64) -> Result<FieldSchedule, WaveformError> {
    FieldSchedule::nested_minor_loops(FIG1_H_PEAK, &FIG1_MINOR_AMPLITUDES, step)
}

/// Runs the Fig. 1 experiment (E1) on one backend and returns the full
/// outcome.
///
/// # Errors
///
/// Propagates scenario errors.
pub fn fig1_outcome(backend: BackendKind, step: f64) -> Result<ScenarioOutcome, JaError> {
    Scenario::fig1(backend, step)?.run()
}

/// Summary of the implementation-equivalence experiment (E6): the
/// event-driven SystemC port versus the equation-style AMS model on the
/// same stimulus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivalenceReport {
    /// Maximum |ΔB| between the two implementations (T).
    pub max_abs_diff_b: f64,
    /// `max_abs_diff_b` relative to the peak flux density.
    pub relative_diff: f64,
    /// Slope-integration steps of the event-driven implementation (the
    /// `Integral` process executions).
    pub systemc_updates: u64,
    /// Slope-integration updates of the equation-style implementation.
    pub ams_updates: u64,
    /// Number of samples compared.
    pub samples: usize,
}

/// Runs both implementations over the same schedule through the backend
/// trait and compares them sample by sample (experiment E6).
///
/// # Errors
///
/// Propagates scenario errors.
pub fn implementation_equivalence(step: f64) -> Result<EquivalenceReport, JaError> {
    let report = backend_agreement(
        JaParameters::date2006(),
        JaConfig::default(),
        &Excitation::fig1(step)?,
        &[BackendKind::SystemC, BackendKind::AmsTimeless],
    )?;
    let systemc = &report.outcomes[0];
    let ams = &report.outcomes[1];
    Ok(EquivalenceReport {
        max_abs_diff_b: report.max_abs_diff_b,
        relative_diff: report.relative_diff,
        systemc_updates: systemc.stats.updates,
        ams_updates: ams.stats.updates,
        samples: systemc.curve.len(),
    })
}

/// One row of the minor-loop robustness study (experiment E2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinorLoopCase {
    /// Bias (loop centre) in A/m.
    pub bias: f64,
    /// Amplitude in A/m.
    pub amplitude: f64,
    /// Loop-closure error |ΔB| between successive cycles (T).
    pub closure_error: f64,
    /// Enclosed area of the trace (J/m³).
    pub loop_area: f64,
    /// Number of negative-slope samples (must be 0).
    pub negative_slope_samples: usize,
}

/// Runs minor loops of several sizes and positions (experiment E2):
/// every combination of the given biases and amplitudes, five cycles each,
/// each case as one scenario on the direct backend.
///
/// # Errors
///
/// Propagates waveform or scenario errors.
pub fn minor_loop_study(
    biases: &[f64],
    amplitudes: &[f64],
    step: f64,
) -> Result<Vec<MinorLoopCase>, JaError> {
    let mut cases = Vec::with_capacity(biases.len() * amplitudes.len());
    for &bias in biases {
        for &amplitude in amplitudes {
            let outcome = Scenario::new(
                format!("minor-loop/bias{bias}/amp{amplitude}"),
                JaParameters::date2006(),
                JaConfig::default(),
                BackendKind::DirectTimeless,
                Excitation::biased_minor_loop(bias, amplitude, 5, step)?,
            )
            .run()?;
            let period = (4.0 * amplitude / step).round() as usize;
            let closure_error =
                loop_analysis::loop_closure_error(&outcome.curve, period).unwrap_or(f64::NAN);
            cases.push(MinorLoopCase {
                bias,
                amplitude,
                closure_error,
                loop_area: loop_analysis::loop_area(&outcome.curve),
                negative_slope_samples: outcome.curve.negative_slope_samples(),
            });
        }
    }
    Ok(cases)
}

/// Report of the slope-clamping experiment (E3): guarded versus raw slope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClampingReport {
    /// Negative-slope samples in the guarded curve (expected 0).
    pub guarded_negative_samples: usize,
    /// Negative-slope samples in the unguarded curve.
    pub unguarded_negative_samples: usize,
    /// Raw negative-slope evaluations encountered (and clamped) by the
    /// guarded model.
    pub clamped_events: u64,
    /// Peak flux density of the guarded curve (T).
    pub guarded_b_max: f64,
    /// Peak flux density of the unguarded curve (T), which may be distorted.
    pub unguarded_b_max: f64,
}

/// Runs the same sweep with and without the paper's numerical guards
/// (experiment E3) — two scenarios differing only in configuration.
///
/// # Errors
///
/// Propagates scenario errors.
pub fn slope_clamping_study(step: f64) -> Result<ClampingReport, JaError> {
    let excitation = Excitation::fig1(step)?;
    let run = |name: &str, config: JaConfig| {
        Scenario::new(
            format!("clamping/{name}"),
            JaParameters::date2006(),
            config,
            BackendKind::DirectTimeless,
            excitation.clone(),
        )
        .run()
    };
    let guarded = run("guarded", JaConfig::default())?;
    let guarded_metrics = guarded.full_metrics()?;
    let raw = run("unguarded", JaConfig::default().without_guards())?;

    Ok(ClampingReport {
        guarded_negative_samples: guarded_metrics.negative_slope_samples,
        unguarded_negative_samples: raw.curve.negative_slope_samples(),
        clamped_events: guarded.stats.negative_slope_events,
        guarded_b_max: guarded_metrics.b_max.as_tesla(),
        unguarded_b_max: raw.curve.peak_flux_density()?.as_tesla(),
    })
}

/// Report of the turning-point stability experiment (E4) for one step size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurningPointReport {
    /// Time step used by the solver baseline (s) — the timeless model has no
    /// time step; it sees the same number of field samples.
    pub dt: f64,
    /// Peak flux density of the timeless model (T).
    pub timeless_b_max: f64,
    /// Peak flux density of the solver baseline (T).
    pub baseline_b_max: f64,
    /// Overshoot of the baseline beyond the timeless peak, relative.
    pub baseline_overshoot: f64,
    /// Relative loop-shape error of the baseline: |B_max(baseline) −
    /// B_max(timeless)| / B_max(timeless).  Grows with the time step because
    /// the time-based integration misses the slope discontinuity at the
    /// reversal, truncating the loop tips; the timeless model is immune.
    pub baseline_shape_error: f64,
    /// Newton iterations the baseline spent.
    pub baseline_newton_iterations: usize,
    /// Baseline steps that failed to converge.
    pub baseline_non_converged: usize,
    /// Negative-slope samples in the baseline output.
    pub baseline_negative_samples: usize,
    /// Negative-slope samples in the timeless output (expected 0).
    pub timeless_negative_samples: usize,
}

/// Compares the timeless model against the solver-integrated baseline for a
/// triangular excitation sampled with time step `dt` (experiment E4).  The
/// timeless side runs as a scenario over the sampled waveform; the baseline
/// genuinely integrates over time.
///
/// # Errors
///
/// Propagates model and solver errors (a baseline failure is itself a
/// result; callers that sweep `dt` may prefer to catch it and record it).
pub fn turning_point_comparison(
    dt: f64,
    method: SolverMethod,
) -> Result<TurningPointReport, JaError> {
    let waveform = Triangular::new(FIG1_H_PEAK, 1.0).expect("valid waveform");
    let t_end = 2.0;

    let timeless = Scenario::new(
        format!("turning-point/timeless/dt{dt}"),
        JaParameters::date2006(),
        JaConfig::default(),
        BackendKind::AmsTimeless,
        Excitation::sampled(&waveform, t_end, dt)?,
    )
    .run()?;

    let baseline = SolverIntegratedBaseline::new(JaParameters::date2006(), JaConfig::default())?;
    let baseline_result =
        baseline
            .run(&waveform, t_end, dt, method)
            .map_err(|err| JaError::Backend {
                backend: "solver-integrated-baseline",
                reason: err.to_string(),
            })?;

    let timeless_metrics = timeless.full_metrics()?;
    let timeless_b_max = timeless_metrics.b_max.as_tesla();
    let baseline_b_max = baseline_result.curve.peak_flux_density()?.as_tesla();
    Ok(TurningPointReport {
        dt,
        timeless_b_max,
        baseline_b_max,
        baseline_overshoot: (baseline_b_max - timeless_b_max).max(0.0) / timeless_b_max,
        baseline_shape_error: (baseline_b_max - timeless_b_max).abs() / timeless_b_max,
        baseline_newton_iterations: baseline_result.newton_iterations,
        baseline_non_converged: baseline_result.non_converged_steps,
        baseline_negative_samples: baseline_result.curve.negative_slope_samples(),
        timeless_negative_samples: timeless_metrics.negative_slope_samples,
    })
}

/// One row of the discretisation ablation (experiment E8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationRow {
    /// ΔH_max used (A/m).
    pub dh_max: f64,
    /// Integration method.
    pub integration: SlopeIntegration,
    /// Loop metrics of the resulting curve.
    pub metrics: LoopMetrics,
    /// Slope evaluations spent.
    pub slope_evaluations: u64,
}

/// Sweeps ΔH_max and the integration order over the Fig. 1 stimulus
/// (experiment E8) — a scenario per grid point on the direct backend.
///
/// # Errors
///
/// Propagates waveform or scenario errors.
pub fn discretisation_ablation(
    dh_max_values: &[f64],
    methods: &[SlopeIntegration],
) -> Result<Vec<AblationRow>, JaError> {
    let mut rows = Vec::with_capacity(dh_max_values.len() * methods.len());
    for &dh_max in dh_max_values {
        for &integration in methods {
            let config = JaConfig::default()
                .with_dh_max(dh_max)
                .with_integration(integration)
                .with_subdivision();
            // The excitation always advances in steps of dh_max so the model
            // updates on every sample, like the paper's DC sweep.
            let outcome = Scenario::new(
                format!("ablation/{integration:?}/dh{dh_max}"),
                JaParameters::date2006(),
                config,
                BackendKind::DirectTimeless,
                Excitation::major_loop(FIG1_H_PEAK, dh_max, 2)?,
            )
            .run()?;
            rows.push(AblationRow {
                dh_max,
                integration,
                metrics: outcome.full_metrics()?,
                slope_evaluations: outcome.stats.slope_evaluations,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_systemc_reproduces_figure_envelope() {
        let curve = fig1_outcome(BackendKind::SystemC, DEFAULT_STEP)
            .unwrap()
            .curve;
        let metrics = loop_analysis::loop_metrics(&curve).unwrap();
        assert!(metrics.b_max.as_tesla() > 1.5 && metrics.b_max.as_tesla() < 2.3);
        assert!((metrics.h_max.value() - FIG1_H_PEAK).abs() < 1e-9);
        assert_eq!(metrics.negative_slope_samples, 0);
    }

    #[test]
    fn fig1_direct_matches_systemc_closely() {
        let systemc = fig1_outcome(BackendKind::SystemC, DEFAULT_STEP)
            .unwrap()
            .curve;
        let direct = fig1_outcome(BackendKind::DirectTimeless, DEFAULT_STEP)
            .unwrap()
            .curve;
        assert_eq!(systemc.len(), direct.len());
        let max_diff = systemc
            .points()
            .iter()
            .zip(direct.points())
            .map(|(a, b)| (a.b.as_tesla() - b.b.as_tesla()).abs())
            .fold(0.0, f64::max);
        // Same technique, slightly different evaluation ordering: the two
        // must agree to a small fraction of B_sat.
        assert!(max_diff < 0.1, "max diff {max_diff} T");
    }

    #[test]
    fn equivalence_report_shows_near_identical_results() {
        let report = implementation_equivalence(DEFAULT_STEP).unwrap();
        assert!(
            report.relative_diff < 0.05,
            "relative diff {}",
            report.relative_diff
        );
        assert!(report.samples > 5_000);
        assert!(report.systemc_updates > 0);
        assert!(report.ams_updates > 0);
    }

    #[test]
    fn minor_loops_close_at_every_size_and_position() {
        let cases = minor_loop_study(&[0.0, 4_000.0], &[1_000.0, 3_000.0], 20.0).unwrap();
        assert_eq!(cases.len(), 4);
        for case in cases {
            // The paper's claim is numerical robustness ("no numerical
            // difficulties"): every loop must be produced without negative
            // slopes or divergence.  Small-amplitude loops legitimately
            // drift towards the anhysteretic over the first cycles
            // (accommodation), so the closure error is reported, not
            // bounded.
            assert_eq!(case.negative_slope_samples, 0, "{case:?}");
            assert!(case.loop_area.is_finite() && case.loop_area >= 0.0);
            assert!(case.closure_error.is_finite(), "{case:?}");
        }
    }

    #[test]
    fn clamping_study_shows_guard_effect() {
        let report = slope_clamping_study(DEFAULT_STEP).unwrap();
        assert_eq!(report.guarded_negative_samples, 0);
        assert!(report.clamped_events > 0);
        assert!(report.guarded_b_max > 1.5);
    }

    #[test]
    fn turning_point_comparison_runs_both_models() {
        let report = turning_point_comparison(2.0 / 4000.0, SolverMethod::BackwardEuler).unwrap();
        assert_eq!(report.timeless_negative_samples, 0);
        assert!(report.timeless_b_max > 1.5);
        assert!(report.baseline_newton_iterations > 0);
    }

    #[test]
    fn ablation_covers_requested_grid() {
        let rows = discretisation_ablation(
            &[10.0, 100.0],
            &[
                SlopeIntegration::ForwardEuler,
                SlopeIntegration::RungeKutta4,
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.metrics.b_max.as_tesla() > 1.0, "{row:?}");
            assert!(row.slope_evaluations > 0);
            assert_eq!(row.metrics.negative_slope_samples, 0);
        }
    }
}
