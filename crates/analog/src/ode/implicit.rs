//! Implicit fixed-step integrators: backward Euler and the trapezoidal rule.
//!
//! Each time step solves the nonlinear stage equation with Newton
//! iteration using a finite-difference Jacobian, which is how a SPICE-class
//! transient engine advances stiff circuit equations.  Their per-step
//! Newton statistics are what the turning-point stability experiment (E4)
//! compares against the timeless model.

use crate::error::SolverError;
use crate::newton::{self, FiniteDifferenceJacobian, NewtonOptions};
use crate::ode::{validate_fixed_step, FixedStepIntegrator, OdeSystem, Trajectory};

/// Backward (implicit) Euler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackwardEuler {
    /// Newton options used for the per-step solve.
    pub newton: NewtonOptions,
}

impl Default for BackwardEuler {
    fn default() -> Self {
        Self {
            newton: NewtonOptions {
                max_iterations: 50,
                residual_tolerance: 1e-10,
                step_tolerance: 1e-13,
            },
        }
    }
}

/// Trapezoidal rule (the default integration method of Berkeley SPICE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trapezoidal {
    /// Newton options used for the per-step solve.
    pub newton: NewtonOptions,
}

impl Default for Trapezoidal {
    fn default() -> Self {
        Self {
            newton: BackwardEuler::default().newton,
        }
    }
}

/// Statistics of an implicit integration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImplicitStats {
    /// Total Newton iterations across all steps.
    pub newton_iterations: usize,
    /// Number of steps whose Newton solve failed to converge (the step is
    /// then accepted from the last iterate — mirroring a simulator that
    /// limps on after `GMIN` stepping — but counted here).
    pub non_converged_steps: usize,
}

fn integrate_implicit<S: OdeSystem>(
    system: &S,
    y0: &[f64],
    t0: f64,
    t_end: f64,
    dt: f64,
    newton_options: &NewtonOptions,
    theta: f64,
) -> Result<(Trajectory, ImplicitStats), SolverError> {
    let steps = validate_fixed_step(system.dim(), y0, t0, t_end, dt)?;
    let n = system.dim();
    let mut times = Vec::with_capacity(steps + 1);
    let mut states = Vec::with_capacity(steps + 1);
    let mut evals = 0usize;
    let mut stats = ImplicitStats::default();

    let mut y = y0.to_vec();
    times.push(t0);
    states.push(y.clone());
    let mut t = t0;

    let mut f_prev = vec![0.0; n];
    for _ in 0..steps {
        let h = dt.min(t_end - t);
        let t_next = t + h;
        system.rhs(t, &y, &mut f_prev);
        evals += 1;

        // Residual for the theta method:
        //   y_next - y - h*( (1-theta)*f(t, y) + theta*f(t_next, y_next) ) = 0
        // theta = 1   -> backward Euler
        // theta = 1/2 -> trapezoidal
        let y_prev = y.clone();
        let f_prev_snapshot = f_prev.clone();
        let residual_evals = std::cell::Cell::new(0usize);
        let residual = |y_next: &[f64], r: &mut [f64]| {
            let mut f_next = vec![0.0; n];
            system.rhs(t_next, y_next, &mut f_next);
            residual_evals.set(residual_evals.get() + 1);
            for i in 0..n {
                r[i] = y_next[i]
                    - y_prev[i]
                    - h * ((1.0 - theta) * f_prev_snapshot[i] + theta * f_next[i]);
            }
        };
        let fd_system = FiniteDifferenceJacobian::new(n, residual, 1e-7);

        // Predictor: explicit Euler step as the Newton starting point.
        let mut y_guess = y.clone();
        for i in 0..n {
            y_guess[i] += h * f_prev[i];
        }

        match newton::solve(&fd_system, &y_guess, newton_options) {
            Ok(solution) => {
                stats.newton_iterations += solution.iterations;
                y = solution.x;
            }
            Err(SolverError::NonConvergence { iterations, .. }) => {
                stats.newton_iterations += iterations;
                stats.non_converged_steps += 1;
                // Accept the predictor to keep going (counted as a failure).
                y = y_guess;
            }
            Err(other) => return Err(other),
        }
        evals += residual_evals.get();

        t = t_next;
        times.push(t);
        states.push(y.clone());
    }
    Ok((Trajectory::new(times, states, evals), stats))
}

impl BackwardEuler {
    /// Integrates and additionally returns the Newton statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FixedStepIntegrator::integrate`].
    pub fn integrate_with_stats<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t_end: f64,
        dt: f64,
    ) -> Result<(Trajectory, ImplicitStats), SolverError> {
        integrate_implicit(system, y0, t0, t_end, dt, &self.newton, 1.0)
    }
}

impl Trapezoidal {
    /// Integrates and additionally returns the Newton statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FixedStepIntegrator::integrate`].
    pub fn integrate_with_stats<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t_end: f64,
        dt: f64,
    ) -> Result<(Trajectory, ImplicitStats), SolverError> {
        integrate_implicit(system, y0, t0, t_end, dt, &self.newton, 0.5)
    }
}

impl FixedStepIntegrator for BackwardEuler {
    fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t_end: f64,
        dt: f64,
    ) -> Result<Trajectory, SolverError> {
        self.integrate_with_stats(system, y0, t0, t_end, dt)
            .map(|(trajectory, _)| trajectory)
    }
}

impl FixedStepIntegrator for Trapezoidal {
    fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t_end: f64,
        dt: f64,
    ) -> Result<Trajectory, SolverError> {
        self.integrate_with_stats(system, y0, t0, t_end, dt)
            .map(|(trajectory, _)| trajectory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stiff linear decay: dy/dt = -1000(y - cos(t)), classic stiff test.
    struct StiffDecay;
    impl OdeSystem for StiffDecay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
            dydt[0] = -1000.0 * (y[0] - t.cos());
        }
    }

    /// dy/dt = -y
    struct Decay;
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
            dydt[0] = -y[0];
        }
    }

    #[test]
    fn backward_euler_stable_on_stiff_problem() {
        // Step far beyond the explicit stability limit (h*lambda = 10).
        let result = BackwardEuler::default()
            .integrate(&StiffDecay, &[0.0], 0.0, 1.0, 0.01)
            .unwrap();
        let y_end = result.last_state()[0];
        // Solution tracks cos(t) closely once the fast transient dies.
        assert!((y_end - 1.0_f64.cos()).abs() < 0.05, "y_end = {y_end}");
        // Forward Euler at the same step size blows up; verify the contrast.
        let fe = crate::ode::explicit::ForwardEuler
            .integrate(&StiffDecay, &[0.0], 0.0, 1.0, 0.01)
            .unwrap();
        assert!(fe.last_state()[0].abs() > 1e3 || fe.last_state()[0].is_nan());
    }

    #[test]
    fn trapezoidal_second_order_accuracy() {
        let exact = (-1.0_f64).exp();
        let coarse = Trapezoidal::default()
            .integrate(&Decay, &[1.0], 0.0, 1.0, 0.1)
            .unwrap()
            .last_state()[0];
        let fine = Trapezoidal::default()
            .integrate(&Decay, &[1.0], 0.0, 1.0, 0.01)
            .unwrap()
            .last_state()[0];
        assert!((fine - exact).abs() < (coarse - exact).abs() / 30.0);
    }

    #[test]
    fn stats_report_newton_work() {
        let (_, stats) = BackwardEuler::default()
            .integrate_with_stats(&Decay, &[1.0], 0.0, 1.0, 0.1)
            .unwrap();
        assert!(stats.newton_iterations >= 10);
        assert_eq!(stats.non_converged_steps, 0);
    }

    #[test]
    fn non_convergence_is_counted_not_fatal() {
        let integrator = BackwardEuler {
            newton: NewtonOptions {
                max_iterations: 1,
                residual_tolerance: 1e-16,
                step_tolerance: 1e-18,
            },
        };
        let (trajectory, stats) = integrator
            .integrate_with_stats(&StiffDecay, &[0.0], 0.0, 0.05, 0.01)
            .unwrap();
        assert_eq!(trajectory.len(), 6);
        assert!(stats.non_converged_steps > 0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(BackwardEuler::default()
            .integrate(&Decay, &[1.0], 0.0, 1.0, 0.0)
            .is_err());
        assert!(Trapezoidal::default()
            .integrate(&Decay, &[1.0, 2.0], 0.0, 1.0, 0.1)
            .is_err());
    }
}
