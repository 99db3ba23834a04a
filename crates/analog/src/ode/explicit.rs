//! The explicit fixed-step integrator: forward Euler.

use crate::error::SolverError;
use crate::ode::{validate_fixed_step, FixedStepIntegrator, OdeSystem, Trajectory};

/// Forward (explicit) Euler — the method the paper's timeless discretisation
/// uses, applied here over *time* so the baseline and the contribution share
/// the same order of accuracy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardEuler;

impl FixedStepIntegrator for ForwardEuler {
    fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t_end: f64,
        dt: f64,
    ) -> Result<Trajectory, SolverError> {
        let steps = validate_fixed_step(system.dim(), y0, t0, t_end, dt)?;
        let n = system.dim();
        let mut times = Vec::with_capacity(steps + 1);
        let mut states = Vec::with_capacity(steps + 1);
        let mut y = y0.to_vec();
        let mut k = vec![0.0; n];
        let mut evals = 0usize;
        times.push(t0);
        states.push(y.clone());
        let mut t = t0;
        for _ in 0..steps {
            let h = dt.min(t_end - t);
            system.rhs(t, &y, &mut k);
            evals += 1;
            for i in 0..n {
                y[i] += h * k[i];
            }
            t += h;
            times.push(t);
            states.push(y.clone());
        }
        Ok(Trajectory::new(times, states, evals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dy/dt = -y, y(0) = 1  ->  y(t) = exp(-t)
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
    fn forward_euler_first_order_accuracy() {
        let exact = (-1.0_f64).exp();
        let coarse = ForwardEuler
            .integrate(&Decay, &[1.0], 0.0, 1.0, 1e-2)
            .unwrap()
            .last_state()[0];
        let fine = ForwardEuler
            .integrate(&Decay, &[1.0], 0.0, 1.0, 1e-3)
            .unwrap()
            .last_state()[0];
        let err_coarse = (coarse - exact).abs();
        let err_fine = (fine - exact).abs();
        // First order: error should shrink roughly 10x for a 10x smaller step.
        assert!(err_fine < err_coarse / 5.0);
    }

    #[test]
    fn trajectory_includes_initial_state_and_end_time() {
        let result = ForwardEuler
            .integrate(&Decay, &[1.0], 0.0, 0.55, 0.1)
            .unwrap();
        assert_eq!(result.states()[0], vec![1.0]);
        let last_t = *result.times().last().unwrap();
        assert!((last_t - 0.55).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(ForwardEuler
            .integrate(&Decay, &[1.0, 2.0], 0.0, 1.0, 0.1)
            .is_err());
        assert!(ForwardEuler
            .integrate(&Decay, &[1.0], 0.0, 1.0, -0.1)
            .is_err());
        assert!(ForwardEuler
            .integrate(&Decay, &[1.0], 1.0, 0.0, 0.1)
            .is_err());
    }
}
