//! Error type for the fleet placement layer.

use dbvirt_controller::ControllerError;
use dbvirt_core::CoreError;
use dbvirt_vmm::VmmError;
use std::error::Error;
use std::fmt;

/// Errors raised while validating fleets, pricing cells, or placing VMs.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A per-machine solve or what-if evaluation failed.
    Core(CoreError),
    /// Migration pricing failed (the refill model rejected a VM).
    Pricing(ControllerError),
    /// The fleet definition was malformed.
    BadFleet {
        /// Description of the problem.
        reason: String,
    },
    /// No placement satisfies the machine capacities.
    Infeasible {
        /// Description of the capacity shortfall.
        reason: String,
    },
    /// A machine's share split prices at a non-finite objective (the
    /// class model returned NaN or an infinity for every cell it could
    /// pick), so the placement has no objective to certify.
    NonFiniteSolve {
        /// The machine whose solve is not finite.
        machine: usize,
        /// Its weighted steady-state objective.
        objective: f64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Core(e) => write!(f, "core: {e}"),
            FleetError::Pricing(e) => write!(f, "pricing: {e}"),
            FleetError::BadFleet { reason } => write!(f, "bad fleet: {reason}"),
            FleetError::Infeasible { reason } => write!(f, "infeasible fleet: {reason}"),
            FleetError::NonFiniteSolve { machine, objective } => {
                write!(
                    f,
                    "machine {machine}'s solve is not finite (objective {objective})"
                )
            }
        }
    }
}

impl Error for FleetError {}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> FleetError {
        FleetError::Core(e)
    }
}

impl From<VmmError> for FleetError {
    fn from(e: VmmError) -> FleetError {
        FleetError::Core(CoreError::Vmm(e))
    }
}

impl From<ControllerError> for FleetError {
    fn from(e: ControllerError) -> FleetError {
        FleetError::Pricing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: FleetError = CoreError::BadProblem { reason: "x".into() }.into();
        assert!(e.to_string().contains("core"));
        let e: FleetError = VmmError::InvalidShare { value: -1.0 }.into();
        assert!(matches!(e, FleetError::Core(CoreError::Vmm(_))));
        let e = FleetError::Infeasible {
            reason: "9 VMs, 8 slots".into(),
        };
        assert!(e.to_string().contains("9 VMs"));
    }
}
