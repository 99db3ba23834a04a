//! Error type for the analogue solver.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear algebra, nonlinear and transient solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Matrix dimensions are inconsistent with the requested operation.
    DimensionMismatch {
        /// Description of the mismatch.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// The matrix is singular (or numerically singular) and cannot be
    /// factorised — the classic symptom of a floating node or a
    /// short-circuited source in MNA.
    SingularMatrix {
        /// Pivot column at which factorisation broke down.
        column: usize,
    },
    /// Newton iteration failed to converge within the iteration limit.
    ///
    /// This is the solver-side failure mode the paper attributes to
    /// conventional JA implementations around turning points.
    NonConvergence {
        /// Number of iterations attempted.
        iterations: usize,
        /// Residual norm at the last iterate.
        residual: f64,
    },
    /// A step-size or time parameter is invalid.
    InvalidStep {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A run would take more time steps than the solver allows.
    TooManySteps {
        /// Name of the parameter that asked for the steps.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// The most steps one run may take.
        limit: usize,
    },
    /// The adaptive integrator could not satisfy the error tolerance even at
    /// the minimum step size.
    StepSizeUnderflow {
        /// Time at which the failure occurred.
        time: f64,
        /// The step size that was still too large for the tolerance.
        step: f64,
    },
    /// A circuit netlist is malformed (unknown node, no ground reference…).
    InvalidCircuit {
        /// Explanation of the problem.
        reason: String,
    },
    /// A state vector with the wrong length was supplied.
    BadStateLength {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            SolverError::SingularMatrix { column } => {
                write!(f, "matrix is singular at pivot column {column}")
            }
            SolverError::NonConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "newton iteration did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            SolverError::InvalidStep { name, value } => {
                write!(f, "invalid step parameter `{name}` = {value}")
            }
            SolverError::TooManySteps { name, value, limit } => write!(
                f,
                "`{name}` = {value:e} needs more than the {limit} time steps one run may take"
            ),
            SolverError::StepSizeUnderflow { time, step } => write!(
                f,
                "adaptive step size underflow at t = {time:.6e} (step {step:.3e})"
            ),
            SolverError::InvalidCircuit { reason } => write!(f, "invalid circuit: {reason}"),
            SolverError::BadStateLength { expected, actual } => write!(
                f,
                "state vector has length {actual}, system expects {expected}"
            ),
        }
    }
}

impl Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SolverError::SingularMatrix { column: 3 }
            .to_string()
            .contains("column 3"));
        assert!(SolverError::NonConvergence {
            iterations: 50,
            residual: 1.0
        }
        .to_string()
        .contains("50 iterations"));
        assert!(SolverError::InvalidCircuit {
            reason: "no ground".into()
        }
        .to_string()
        .contains("no ground"));
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SolverError>();
    }
}
