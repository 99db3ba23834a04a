//! Ordinary differential equation integration.
//!
//! This is the "analogue solver" the paper's baseline implementations lean
//! on: the conventional JA models convert `dM/dH` to `dM/dt` and let one of
//! these integrators advance it in time.
//!
//! * [`explicit`] — forward Euler;
//! * [`implicit`] — backward Euler and the trapezoidal rule, each solving
//!   the per-step nonlinear equation with Newton iteration;
//! * [`adaptive`] — an embedded Runge–Kutta–Fehlberg 4(5) pair with
//!   proportional step-size control, the closest analogue of a commercial
//!   simulator's variable-step transient engine.

pub mod adaptive;
pub mod explicit;
pub mod implicit;

use crate::error::SolverError;

/// A first-order ODE system `dy/dt = f(t, y)`.
pub trait OdeSystem {
    /// Number of state variables.
    fn dim(&self) -> usize;

    /// Evaluates the right-hand side `f(t, y)` into `dydt`.
    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]);
}

/// A time/state trajectory produced by an integrator.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
    rhs_evaluations: usize,
}

impl Trajectory {
    /// Creates a trajectory from its raw parts (used by the integrators).
    pub fn new(times: Vec<f64>, states: Vec<Vec<f64>>, rhs_evaluations: usize) -> Self {
        Self {
            times,
            states,
            rhs_evaluations,
        }
    }

    /// Sampled times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sampled state vectors (one per time).
    pub fn states(&self) -> &[Vec<f64>] {
        &self.states
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the trajectory holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The final state vector.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty (integrators always record the
    /// initial condition, so this cannot happen for their output).
    pub fn last_state(&self) -> &[f64] {
        self.states
            .last()
            .expect("trajectory contains at least the initial state")
    }

    /// Extracts component `i` of the state as its own series.
    pub fn component(&self, i: usize) -> Vec<f64> {
        self.states.iter().map(|s| s[i]).collect()
    }

    /// Total number of right-hand-side evaluations the integrator used — the
    /// cost metric reported by the runtime-comparison experiment.
    pub fn rhs_evaluations(&self) -> usize {
        self.rhs_evaluations
    }
}

/// A fixed-step integrator.
pub trait FixedStepIntegrator {
    /// Advances `system` from `t0` to `t_end` with step `dt`, starting at
    /// `y0`, and returns the full trajectory (including the initial state).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidStep`] for a non-positive or non-finite
    /// step or reversed time interval, [`SolverError::BadStateLength`] when
    /// `y0` does not match the system dimension, and any solver error raised
    /// by implicit methods (singular iteration matrix, non-convergence).
    fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t_end: f64,
        dt: f64,
    ) -> Result<Trajectory, SolverError>;
}

pub(crate) fn validate_fixed_step(
    dim: usize,
    y0: &[f64],
    t0: f64,
    t_end: f64,
    dt: f64,
) -> Result<usize, SolverError> {
    if y0.len() != dim {
        return Err(SolverError::BadStateLength {
            expected: dim,
            actual: y0.len(),
        });
    }
    if !dt.is_finite() || dt <= 0.0 {
        return Err(SolverError::InvalidStep {
            name: "dt",
            value: dt,
        });
    }
    if !t0.is_finite() || !t_end.is_finite() || t_end < t0 {
        return Err(SolverError::InvalidStep {
            name: "t_end",
            value: t_end,
        });
    }
    Ok(((t_end - t0) / dt).ceil() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_accessors() {
        let traj = Trajectory::new(vec![0.0, 1.0], vec![vec![1.0, 2.0], vec![3.0, 4.0]], 7);
        assert_eq!(traj.len(), 2);
        assert!(!traj.is_empty());
        assert_eq!(traj.last_state(), &[3.0, 4.0]);
        assert_eq!(traj.component(1), vec![2.0, 4.0]);
        assert_eq!(traj.rhs_evaluations(), 7);
        assert_eq!(traj.times(), &[0.0, 1.0]);
        assert_eq!(traj.states().len(), 2);
    }

    #[test]
    fn validation_rules() {
        assert!(validate_fixed_step(1, &[0.0], 0.0, 1.0, 0.1).is_ok());
        assert!(validate_fixed_step(2, &[0.0], 0.0, 1.0, 0.1).is_err());
        assert!(validate_fixed_step(1, &[0.0], 0.0, 1.0, 0.0).is_err());
        assert!(validate_fixed_step(1, &[0.0], 1.0, 0.0, 0.1).is_err());
        assert!(validate_fixed_step(1, &[0.0], 0.0, f64::NAN, 0.1).is_err());
    }
}
