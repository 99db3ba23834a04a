//! Newton–Raphson iteration for nonlinear algebraic systems.
//!
//! The transient engine calls this at every time point; its convergence (or
//! failure to converge) is exactly the phenomenon the paper's experiments on
//! turning-point stability measure.

use crate::error::SolverError;
use crate::linalg::{norm_inf, Matrix};

/// A nonlinear algebraic system `F(x) = 0` with an analytic Jacobian.
pub trait NonlinearSystem {
    /// Number of unknowns.
    fn dim(&self) -> usize;

    /// Evaluates the residual `F(x)` into `residual`.
    fn residual(&self, x: &[f64], residual: &mut [f64]);

    /// Evaluates the Jacobian `∂F/∂x` into `jacobian` (pre-sized
    /// `dim × dim`, zeroed by the caller).
    fn jacobian(&self, x: &[f64], jacobian: &mut Matrix);
}

/// Options controlling the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum number of iterations before reporting non-convergence.
    pub max_iterations: usize,
    /// Convergence threshold on the residual infinity norm.
    pub residual_tolerance: f64,
    /// Convergence threshold on the update infinity norm.
    pub step_tolerance: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            residual_tolerance: 1e-9,
            step_tolerance: 1e-12,
        }
    }
}

/// Outcome of a successful Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonSolution {
    /// The converged solution vector.
    pub x: Vec<f64>,
    /// Number of iterations used.
    pub iterations: usize,
    /// Residual infinity norm at the solution.
    pub residual_norm: f64,
}

/// Solves `F(x) = 0` starting from `x0`.
///
/// # Errors
///
/// Returns [`SolverError::NonConvergence`] when the iteration limit is
/// reached, [`SolverError::SingularMatrix`] when the Jacobian cannot be
/// factorised, and [`SolverError::BadStateLength`] when `x0` has the wrong
/// length.
pub fn solve<S: NonlinearSystem>(
    system: &S,
    x0: &[f64],
    options: &NewtonOptions,
) -> Result<NewtonSolution, SolverError> {
    let n = system.dim();
    if x0.len() != n {
        return Err(SolverError::BadStateLength {
            expected: n,
            actual: x0.len(),
        });
    }

    let mut x = x0.to_vec();
    let mut residual = vec![0.0; n];
    let mut neg_res = vec![0.0; n];
    let mut dx = vec![0.0; n];
    let mut pivots = Vec::with_capacity(n);
    let mut jacobian = Matrix::zeros(n, n);

    system.residual(&x, &mut residual);
    let mut res_norm = norm_inf(&residual);

    for iteration in 0..options.max_iterations {
        if res_norm <= options.residual_tolerance {
            return Ok(NewtonSolution {
                x,
                iterations: iteration,
                residual_norm: res_norm,
            });
        }
        jacobian.clear();
        system.jacobian(&x, &mut jacobian);
        // Newton update: J·dx = -F, factorised in place (the Jacobian is
        // rebuilt from zero every iteration).
        for (neg, r) in neg_res.iter_mut().zip(&residual) {
            *neg = -r;
        }
        jacobian.factorise_in_place(&mut pivots)?;
        jacobian.solve_factored(&pivots, &neg_res, &mut dx)?;
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        system.residual(&x, &mut residual);
        res_norm = norm_inf(&residual);
        if norm_inf(&dx) <= options.step_tolerance
            && res_norm <= options.residual_tolerance.max(1e-6)
        {
            return Ok(NewtonSolution {
                x,
                iterations: iteration + 1,
                residual_norm: res_norm,
            });
        }
    }

    Err(SolverError::NonConvergence {
        iterations: options.max_iterations,
        residual: res_norm,
    })
}

/// A [`NonlinearSystem`] whose Jacobian is approximated by forward finite
/// differences of the residual — used by the implicit ODE integrators, whose
/// systems do not expose analytic Jacobians.
pub struct FiniteDifferenceJacobian<F> {
    dim: usize,
    residual_fn: F,
    perturbation: f64,
}

impl<F> FiniteDifferenceJacobian<F>
where
    F: Fn(&[f64], &mut [f64]),
{
    /// Wraps a residual closure, approximating the Jacobian with forward
    /// differences of relative size `perturbation` (1e-7 is a good default).
    pub fn new(dim: usize, residual_fn: F, perturbation: f64) -> Self {
        Self {
            dim,
            residual_fn,
            perturbation,
        }
    }
}

impl<F> NonlinearSystem for FiniteDifferenceJacobian<F>
where
    F: Fn(&[f64], &mut [f64]),
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn residual(&self, x: &[f64], residual: &mut [f64]) {
        (self.residual_fn)(x, residual);
    }

    fn jacobian(&self, x: &[f64], jacobian: &mut Matrix) {
        let n = self.dim;
        let mut base = vec![0.0; n];
        (self.residual_fn)(x, &mut base);
        let mut perturbed = vec![0.0; n];
        let mut x_pert = x.to_vec();
        for j in 0..n {
            let h = self.perturbation * (1.0 + x[j].abs());
            x_pert[j] = x[j] + h;
            (self.residual_fn)(&x_pert, &mut perturbed);
            x_pert[j] = x[j];
            for i in 0..n {
                jacobian[(i, j)] = (perturbed[i] - base[i]) / h;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x² − 4 = 0, root at ±2.
    struct Quadratic;

    impl NonlinearSystem for Quadratic {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], r: &mut [f64]) {
            r[0] = x[0] * x[0] - 4.0;
        }
        fn jacobian(&self, x: &[f64], j: &mut Matrix) {
            j[(0, 0)] = 2.0 * x[0];
        }
    }

    /// Coupled system: x² + y² = 5, x·y = 2  (solution (1,2) or (2,1)).
    struct Coupled;

    impl NonlinearSystem for Coupled {
        fn dim(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], r: &mut [f64]) {
            r[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
            r[1] = x[0] * x[1] - 2.0;
        }
        fn jacobian(&self, x: &[f64], j: &mut Matrix) {
            j[(0, 0)] = 2.0 * x[0];
            j[(0, 1)] = 2.0 * x[1];
            j[(1, 0)] = x[1];
            j[(1, 1)] = x[0];
        }
    }

    #[test]
    fn scalar_root() {
        let sol = solve(&Quadratic, &[1.0], &NewtonOptions::default()).unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!(sol.iterations > 0);
        assert!(sol.residual_norm <= 1e-9);
    }

    #[test]
    fn negative_start_finds_negative_root() {
        let sol = solve(&Quadratic, &[-1.0], &NewtonOptions::default()).unwrap();
        assert!((sol.x[0] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn coupled_system_converges() {
        let sol = solve(&Coupled, &[0.5, 2.5], &NewtonOptions::default()).unwrap();
        let (x, y) = (sol.x[0], sol.x[1]);
        assert!((x * x + y * y - 5.0).abs() < 1e-8);
        assert!((x * y - 2.0).abs() < 1e-8);
    }

    #[test]
    fn iteration_limit_reported() {
        let options = NewtonOptions {
            max_iterations: 2,
            residual_tolerance: 1e-15,
            ..NewtonOptions::default()
        };
        // Start far away so 2 iterations cannot converge.
        let err = solve(&Quadratic, &[1000.0], &options).unwrap_err();
        assert!(matches!(
            err,
            SolverError::NonConvergence { iterations: 2, .. }
        ));
    }

    #[test]
    fn zero_jacobian_reports_singular() {
        struct Flat;
        impl NonlinearSystem for Flat {
            fn dim(&self) -> usize {
                1
            }
            fn residual(&self, _x: &[f64], r: &mut [f64]) {
                r[0] = 1.0;
            }
            fn jacobian(&self, _x: &[f64], _j: &mut Matrix) {}
        }
        assert!(matches!(
            solve(&Flat, &[0.0], &NewtonOptions::default()),
            Err(SolverError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn wrong_initial_length_rejected() {
        assert!(matches!(
            solve(&Quadratic, &[1.0, 2.0], &NewtonOptions::default()),
            Err(SolverError::BadStateLength { .. })
        ));
    }

    #[test]
    fn finite_difference_jacobian_matches_analytic() {
        let fd = FiniteDifferenceJacobian::new(
            2,
            |x: &[f64], r: &mut [f64]| {
                r[0] = x[0] * x[0] + x[1] * x[1] - 5.0;
                r[1] = x[0] * x[1] - 2.0;
            },
            1e-7,
        );
        let sol = solve(&fd, &[0.5, 2.5], &NewtonOptions::default()).unwrap();
        assert!((sol.x[0] * sol.x[1] - 2.0).abs() < 1e-6);

        // Compare the approximated Jacobian against the analytic one.
        let mut j_fd = Matrix::zeros(2, 2);
        fd.jacobian(&[1.0, 2.0], &mut j_fd);
        let mut j_an = Matrix::zeros(2, 2);
        Coupled.jacobian(&[1.0, 2.0], &mut j_an);
        for i in 0..2 {
            for k in 0..2 {
                assert!((j_fd[(i, k)] - j_an[(i, k)]).abs() < 1e-5);
            }
        }
    }
}
