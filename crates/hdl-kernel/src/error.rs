//! Error type for the discrete-event kernel.

use std::error::Error;
use std::fmt;

use crate::signal::SignalId;
use crate::time::SimTime;

/// Errors produced by kernel construction or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A signal id did not refer to a signal of this kernel.
    UnknownSignal {
        /// The offending id.
        id: SignalId,
    },
    /// A value of one kind was read as another (e.g. a bit read as a real).
    TypeMismatch {
        /// What the caller expected.
        expected: &'static str,
        /// What the signal actually holds.
        found: &'static str,
    },
    /// The delta-cycle loop did not settle within the iteration limit,
    /// which almost always indicates combinational feedback between
    /// processes (the discrete-event analogue of non-convergence).
    DeltaCycleLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A timed run was asked to end before the current time.
    ScheduleInPast {
        /// Current simulation time.
        now: SimTime,
        /// Requested end time.
        requested: SimTime,
    },
    /// A process body returned an error (wrapped as a string to keep the
    /// kernel independent of model error types).
    ProcessFailure {
        /// Name of the failing process.
        process: String,
        /// Stringified model error.
        message: String,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownSignal { id } => write!(f, "unknown signal id {id:?}"),
            KernelError::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "signal type mismatch: expected {expected}, found {found}"
                )
            }
            KernelError::DeltaCycleLimit { limit } => write!(
                f,
                "delta cycles did not settle within {limit} iterations (combinational feedback?)"
            ),
            KernelError::ScheduleInPast { now, requested } => write!(
                f,
                "run requested until {requested}, which is before current time {now}"
            ),
            KernelError::ProcessFailure { process, message } => {
                write!(f, "process `{process}` failed: {message}")
            }
        }
    }
}

impl Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let err = KernelError::TypeMismatch {
            expected: "real",
            found: "bit",
        };
        assert!(err.to_string().contains("expected real"));

        let err = KernelError::DeltaCycleLimit { limit: 1000 };
        assert!(err.to_string().contains("1000"));

        let err = KernelError::ProcessFailure {
            process: "core".into(),
            message: "boom".into(),
        };
        assert!(err.to_string().contains("`core`"));
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<KernelError>();
    }
}
