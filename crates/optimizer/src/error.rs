//! Optimizer error type.

use std::error::Error;
use std::fmt;

/// Errors raised during planning or cost estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// A table referenced by the plan has no statistics (run `ANALYZE`).
    MissingStats {
        /// The table's name.
        table: String,
    },
    /// The logical plan is malformed.
    BadPlan {
        /// Description of the problem.
        reason: String,
    },
    /// A parameter vector failed the check: a field is not finite and
    /// positive.
    InvalidParams {
        /// The first failing field.
        name: &'static str,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::MissingStats { table } => {
                write!(f, "table {table:?} has no statistics; run ANALYZE first")
            }
            OptError::BadPlan { reason } => write!(f, "bad logical plan: {reason}"),
            OptError::InvalidParams { name, value } => {
                write!(
                    f,
                    "invalid parameters: {name} must be positive and finite, got {value}"
                )
            }
        }
    }
}

impl Error for OptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = OptError::MissingStats {
            table: "orders".into(),
        };
        assert!(e.to_string().contains("orders"));
        assert!(e.to_string().contains("ANALYZE"));
    }
}
