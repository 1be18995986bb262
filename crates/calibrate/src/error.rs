//! Calibration error type.

use std::error::Error;
use std::fmt;

/// Errors raised by the calibration pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CalError {
    /// The linear system was singular or ill-conditioned.
    SingularSystem,
    /// A probe execution failed.
    ProbeFailed {
        /// The probe's name.
        probe: String,
        /// The underlying failure.
        reason: String,
    },
    /// A recovered parameter was non-physical (non-positive).
    BadParameter {
        /// The parameter's name.
        name: &'static str,
        /// The recovered value.
        value: f64,
    },
    /// The grid cache failed to (de)serialize.
    CacheIo {
        /// Description of the failure.
        reason: String,
    },
    /// A grid sweep was asked for with unusable arguments (an empty,
    /// unsorted or out-of-range axis, or a disk share outside `(0, 1]`).
    InvalidGrid {
        /// What was wrong with the request.
        reason: String,
    },
    /// An interpolation query fell outside the calibrated grid.
    OutOfGrid {
        /// The requested share.
        value: f64,
        /// Axis name.
        axis: &'static str,
    },
    /// Too few usable probe measurements survived to identify the
    /// parameters (dropped probes, filtered rows, or an empty system).
    InsufficientProbes {
        /// Equations kept after drops and filters.
        kept: usize,
        /// Minimum equations needed (the number of unknowns).
        needed: usize,
    },
    /// A linear system had inconsistent dimensions (ragged rows or a
    /// row-count mismatch between the matrix and the right-hand side).
    ShapeMismatch {
        /// What was malformed.
        reason: String,
    },
}

impl CalError {
    /// `probe` — or a `<stage>` of calibration that is not a probe — failed.
    pub(crate) fn probe_failed(probe: &str, reason: impl ToString) -> CalError {
        CalError::ProbeFailed {
            probe: probe.to_string(),
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for CalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalError::SingularSystem => {
                write!(
                    f,
                    "calibration system is singular; probes are not independent"
                )
            }
            CalError::ProbeFailed { probe, reason } => {
                write!(f, "probe {probe:?} failed: {reason}")
            }
            CalError::BadParameter { name, value } => {
                write!(f, "calibrated {name} = {value} is non-physical")
            }
            CalError::CacheIo { reason } => write!(f, "grid cache I/O failed: {reason}"),
            CalError::InvalidGrid { reason } => write!(f, "invalid calibration grid: {reason}"),
            CalError::OutOfGrid { value, axis } => {
                write!(
                    f,
                    "share {value} on axis {axis} is outside the calibrated grid"
                )
            }
            CalError::InsufficientProbes { kept, needed } => {
                write!(
                    f,
                    "only {kept} usable probe equations for {needed} unknowns"
                )
            }
            CalError::ShapeMismatch { reason } => {
                write!(f, "malformed linear system: {reason}")
            }
        }
    }
}

impl Error for CalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(CalError::SingularSystem.to_string().contains("singular"));
        let e = CalError::OutOfGrid {
            value: 0.9,
            axis: "cpu",
        };
        assert!(e.to_string().contains("0.9"));
    }
}
