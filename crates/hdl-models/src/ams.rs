//! The solver-integrated baseline of the equation-style (VHDL-AMS-like)
//! comparison.
//!
//! The paper's technique in an AMS-style architecture samples the
//! excitation at a fixed rate
//! ([`Excitation::sampled`](crate::scenario::Excitation::sampled)) and
//! feeds each sample to the timeless JA model, which does its own slope
//! integration (the analogue solver never sees `dM/dH`).  That is exactly
//! the library model stepped through the shared sweep loop, so
//! [`BackendKind::AmsTimeless`](crate::scenario::BackendKind::AmsTimeless)
//! builds a [`JilesAtherton`](ja_hysteresis::model::JilesAtherton) and
//! only its label differs.
//!
//! [`SolverIntegratedBaseline`] is the conventional approach of the prior
//! work the paper criticises ([4, 5] in its references): `dM/dH` is
//! converted to `dM/dt` and handed to the analogue solver's integrator
//! (forward Euler, backward Euler, trapezoidal or adaptive RKF45).  Its
//! failure modes — Newton non-convergence and step-size collapse around
//! the turning points — are exactly what experiments E4/E5 measure.

use analog_solver::ode::adaptive::{AdaptiveOptions, Rkf45};
use analog_solver::ode::explicit::ForwardEuler;
use analog_solver::ode::implicit::{BackwardEuler, Trapezoidal};
use analog_solver::ode::{FixedStepIntegrator, OdeSystem};
use analog_solver::SolverError;
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::error::JaError;
use ja_hysteresis::time_domain::MagnetisationOde;
use magnetics::bh::BhCurve;
use magnetics::material::JaParameters;
use waveform::Waveform;

/// Integration method used by the solver-integrated baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverMethod {
    /// Explicit forward Euler over time.
    ForwardEuler,
    /// Implicit backward Euler (Newton per step).
    BackwardEuler,
    /// Trapezoidal rule (Newton per step) — the SPICE default.
    Trapezoidal,
    /// Adaptive RKF45 with the given relative tolerance.
    AdaptiveRkf45 {
        /// Relative error tolerance per step.
        rel_tol: f64,
    },
}

/// Outcome of a baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// The BH trace.
    pub curve: BhCurve,
    /// Number of slope (right-hand-side) evaluations the solver used.
    pub rhs_evaluations: usize,
    /// Newton iterations (implicit methods only).
    pub newton_iterations: usize,
    /// Steps whose Newton solve failed to converge (implicit methods only).
    pub non_converged_steps: usize,
    /// Accepted + rejected step counts (adaptive method only).
    pub adaptive_steps: Option<(usize, usize)>,
}

/// The conventional solver-integrated JA model.
pub struct SolverIntegratedBaseline {
    params: JaParameters,
    config: JaConfig,
}

struct BaselineOde<'a, W> {
    ode: MagnetisationOde<'a, W>,
}

impl<W: Waveform> OdeSystem for BaselineOde<'_, W> {
    fn dim(&self) -> usize {
        1
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = self.ode.dm_dt(t, y[0]);
    }
}

impl SolverIntegratedBaseline {
    /// Creates the baseline with the given material parameters and the
    /// slope-guard configuration (the guards apply to the slope evaluation
    /// only; the integration itself is the solver's).
    ///
    /// # Errors
    ///
    /// Returns [`JaError`] for invalid parameters or configuration.
    pub fn new(params: JaParameters, config: JaConfig) -> Result<Self, JaError> {
        params.validate()?;
        config.validate()?;
        Ok(Self { params, config })
    }

    /// Runs the baseline over `[0, t_end]` with step `dt` (ignored by the
    /// adaptive method, which controls its own step).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] for solver failures (step-size underflow,
    /// singular iteration matrix) — the very failures the experiment counts —
    /// and [`SolverError::InvalidStep`] for invalid time parameters.
    /// Configuration errors surface as [`SolverError::InvalidCircuit`].
    pub fn run<W: Waveform>(
        &self,
        waveform: &W,
        t_end: f64,
        dt: f64,
        method: SolverMethod,
    ) -> Result<BaselineResult, SolverError> {
        let ode_inner =
            MagnetisationOde::new(self.params, &self.config, waveform).map_err(|err| {
                SolverError::InvalidCircuit {
                    reason: err.to_string(),
                }
            })?;
        let system = BaselineOde { ode: ode_inner };
        let m_sat = self.params.m_sat.value();

        let build_curve = |times: &[f64], magnetisations: Vec<f64>| {
            let mut curve = BhCurve::with_capacity(times.len());
            for (&t, m) in times.iter().zip(magnetisations) {
                let h = waveform.value(t);
                curve.push_raw(h, magnetics::constants::MU0 * (h + m * m_sat), m * m_sat);
            }
            curve
        };

        match method {
            SolverMethod::ForwardEuler => {
                let trajectory = ForwardEuler.integrate(&system, &[0.0], 0.0, t_end, dt)?;
                Ok(BaselineResult {
                    curve: build_curve(trajectory.times(), trajectory.component(0)),
                    rhs_evaluations: trajectory.rhs_evaluations(),
                    newton_iterations: 0,
                    non_converged_steps: 0,
                    adaptive_steps: None,
                })
            }
            SolverMethod::BackwardEuler => {
                let (trajectory, stats) = BackwardEuler::default().integrate_with_stats(
                    &system,
                    &[0.0],
                    0.0,
                    t_end,
                    dt,
                )?;
                Ok(BaselineResult {
                    curve: build_curve(trajectory.times(), trajectory.component(0)),
                    rhs_evaluations: trajectory.rhs_evaluations(),
                    newton_iterations: stats.newton_iterations,
                    non_converged_steps: stats.non_converged_steps,
                    adaptive_steps: None,
                })
            }
            SolverMethod::Trapezoidal => {
                let (trajectory, stats) =
                    Trapezoidal::default().integrate_with_stats(&system, &[0.0], 0.0, t_end, dt)?;
                Ok(BaselineResult {
                    curve: build_curve(trajectory.times(), trajectory.component(0)),
                    rhs_evaluations: trajectory.rhs_evaluations(),
                    newton_iterations: stats.newton_iterations,
                    non_converged_steps: stats.non_converged_steps,
                    adaptive_steps: None,
                })
            }
            SolverMethod::AdaptiveRkf45 { rel_tol } => {
                let integrator = Rkf45::new(AdaptiveOptions {
                    rel_tol,
                    abs_tol: rel_tol * 1e-3,
                    initial_step: dt,
                    min_step: 1e-15,
                    max_step: dt * 100.0,
                });
                let result = integrator.integrate(&system, &[0.0], 0.0, t_end)?;
                Ok(BaselineResult {
                    curve: build_curve(result.trajectory.times(), result.trajectory.component(0)),
                    rhs_evaluations: result.trajectory.rhs_evaluations(),
                    newton_iterations: 0,
                    non_converged_steps: 0,
                    adaptive_steps: Some((result.accepted_steps, result.rejected_steps)),
                })
            }
        }
    }
}

impl std::fmt::Debug for SolverIntegratedBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverIntegratedBaseline")
            .field("params", &self.params)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnetics::loop_analysis;
    use waveform::triangular::Triangular;

    fn paper_waveform() -> Triangular {
        Triangular::new(10_000.0, 1.0).expect("valid waveform")
    }

    #[test]
    fn ams_timeless_transient_produces_loop() {
        let mut model = crate::scenario::BackendKind::AmsTimeless
            .build(JaParameters::date2006(), JaConfig::default())
            .unwrap();
        let samples = crate::scenario::Excitation::sampled(&paper_waveform(), 2.0, 2.0 / 8000.0)
            .unwrap()
            .to_samples();
        let curve = model.run_samples(&samples).unwrap();
        let metrics = loop_analysis::loop_metrics(&curve).unwrap();
        assert!(metrics.b_max.as_tesla() > 1.5);
        assert!(metrics.coercivity.value() > 1000.0);
        assert_eq!(metrics.negative_slope_samples, 0);
        assert!(model.statistics().updates > 1000);
    }

    #[test]
    fn baseline_rk_solvers_reproduce_loop_shape() {
        let baseline =
            SolverIntegratedBaseline::new(JaParameters::date2006(), JaConfig::default()).unwrap();
        let waveform = paper_waveform();
        let result = baseline
            .run(&waveform, 2.0, 2.0 / 4000.0, SolverMethod::BackwardEuler)
            .unwrap();
        let metrics = loop_analysis::loop_metrics(&result.curve).unwrap();
        assert!(metrics.b_max.as_tesla() > 1.2);
        assert!(result.newton_iterations > 0);
        assert!(result.rhs_evaluations > 4000);
    }

    #[test]
    fn baseline_forward_euler_and_trapezoidal_run() {
        let baseline =
            SolverIntegratedBaseline::new(JaParameters::date2006(), JaConfig::default()).unwrap();
        let waveform = paper_waveform();
        let fe = baseline
            .run(&waveform, 1.0, 1.0 / 4000.0, SolverMethod::ForwardEuler)
            .unwrap();
        assert_eq!(fe.newton_iterations, 0);
        assert!(fe.curve.peak_flux_density().unwrap().as_tesla() > 1.0);
        let trap = baseline
            .run(&waveform, 1.0, 1.0 / 2000.0, SolverMethod::Trapezoidal)
            .unwrap();
        assert!(trap.newton_iterations > 0);
    }

    #[test]
    fn baseline_adaptive_reports_step_statistics() {
        let baseline =
            SolverIntegratedBaseline::new(JaParameters::date2006(), JaConfig::default()).unwrap();
        let waveform = paper_waveform();
        let result = baseline
            .run(
                &waveform,
                1.0,
                1e-4,
                SolverMethod::AdaptiveRkf45 { rel_tol: 1e-5 },
            )
            .unwrap();
        let (accepted, _rejected) = result.adaptive_steps.unwrap();
        assert!(accepted > 100);
    }

    /// A 128-bit digest of every curve point's `(h, b, m)` bit patterns.
    fn curve_digest(curve: &BhCurve) -> u128 {
        let mut digest = ja_hysteresis::json::StreamDigest::new();
        for point in curve.points() {
            for v in [point.h.value(), point.b.value(), point.m.value()] {
                digest.update(&v.to_bits().to_le_bytes());
            }
        }
        digest.value()
    }

    /// Pins the solver-integrated baseline bit for bit: a short triangular
    /// sweep through every integration method, with the curve digest and
    /// every solver counter.  No golden report reaches this baseline, so
    /// this test is what keeps a change to the ODE integrators, the Newton
    /// loop or the LU arithmetic from moving its bits unnoticed.
    #[test]
    fn baseline_bits_and_counters_are_pinned_for_every_method() {
        let baseline =
            SolverIntegratedBaseline::new(JaParameters::date2006(), JaConfig::default()).unwrap();
        let waveform = paper_waveform();
        // Golden values, recorded once from the implementation: a change
        // that moves any of them changes the baseline's arithmetic.
        let cases = [
            (
                SolverMethod::ForwardEuler,
                0xcd71_2136_95dd_c1ab_49a4_76d1_a89b_839f_u128,
                500,
                0,
                None,
            ),
            (
                SolverMethod::BackwardEuler,
                0x6bc3_ebc6_f69b_04e7_1120_c7a5_0063_791c,
                3208,
                736,
                None,
            ),
            (
                SolverMethod::Trapezoidal,
                0xfef1_449a_65b6_fa5c_6cec_42e2_0363_8776,
                2914,
                638,
                None,
            ),
            (
                SolverMethod::AdaptiveRkf45 { rel_tol: 1e-4 },
                0x7de0_a745_898e_cff6_42c6_6f72_4603_1439,
                336,
                0,
                Some((32, 24)),
            ),
        ];
        for (method, digest, rhs_evaluations, newton_iterations, adaptive_steps) in cases {
            let result = baseline.run(&waveform, 1.0, 1.0 / 500.0, method).unwrap();
            assert_eq!(curve_digest(&result.curve), digest, "{method:?}");
            assert_eq!(result.rhs_evaluations, rhs_evaluations, "{method:?}");
            assert_eq!(result.newton_iterations, newton_iterations, "{method:?}");
            assert_eq!(result.non_converged_steps, 0, "{method:?}");
            assert_eq!(result.adaptive_steps, adaptive_steps, "{method:?}");
        }
    }

    #[test]
    fn baseline_propagates_invalid_time_step() {
        let baseline =
            SolverIntegratedBaseline::new(JaParameters::date2006(), JaConfig::default()).unwrap();
        let waveform = paper_waveform();
        assert!(baseline
            .run(&waveform, 1.0, 0.0, SolverMethod::ForwardEuler)
            .is_err());
    }
}
