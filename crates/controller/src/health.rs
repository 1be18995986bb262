//! Aggregate controller health, mirroring `dbvirt-calibrate`'s
//! `GridHealth`: one line answering "did the control loop see clean
//! telemetry and behave as designed, and if not, what degraded?".
//!
//! The report is diagnostic metadata *about* a run, not part of the run's
//! decision trace: it is deliberately excluded from
//! [`crate::ControllerOutcome::trace_fingerprint`], so enriching it never
//! breaks replay determinism pins.

use std::fmt;

/// Aggregate health of one controller run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerHealth {
    /// Control epochs executed.
    pub epochs: usize,
    /// Usable observations absorbed across all VMs.
    pub observations: u64,
    /// Observations lost to sensor faults or degeneracy.
    pub dropped_observations: usize,
    /// VM-epochs that closed with zero usable observations (the estimate
    /// was carried over on staleness).
    pub dropout_vm_epochs: usize,
    /// Worst consecutive run of observation-free epochs on any single VM.
    pub max_staleness: usize,
    /// Epochs in which at least one VM's drift detector fired.
    pub drift_detections: usize,
    /// Decisions taken (searches run), including the initial placement.
    pub decisions: usize,
    /// Reconfigurations applied (reactive and predictive).
    pub switches: usize,
    /// Re-solved switches refused by the governor's shortened
    /// amortization horizon.
    pub governor_vetoes: usize,
    /// Anticipatory switches applied at predicted phase boundaries.
    pub prescheduled_switches: usize,
    /// Pre-switch predictions confirmed by the following epoch.
    pub prediction_hits: usize,
    /// Pre-switch predictions refuted by the following epoch.
    pub prediction_misses: usize,
    /// Drift re-solves restricted to the drifted VM subset.
    pub localized_solves: usize,
}

impl ControllerHealth {
    /// True when every observation arrived and every prediction held: no
    /// sensor dropouts, no dropped measurements, no refuted pre-switches.
    /// Drift detections, vetoes and localized solves are normal operation
    /// and do not count against cleanliness.
    pub fn is_clean(&self) -> bool {
        self.dropped_observations == 0 && self.dropout_vm_epochs == 0 && self.prediction_misses == 0
    }
}

impl fmt::Display for ControllerHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "controller health: {} epochs, {} observations ({} dropped, \
             {} dropout vm-epochs, max staleness {}); {} drift detections, \
             {} decisions, {} switches ({} prescheduled, {} vetoed); \
             predictions {}/{} hit; {} localized solves",
            self.epochs,
            self.observations,
            self.dropped_observations,
            self.dropout_vm_epochs,
            self.max_staleness,
            self.drift_detections,
            self.decisions,
            self.switches,
            self.prescheduled_switches,
            self.governor_vetoes,
            self.prediction_hits,
            self.prediction_hits + self.prediction_misses,
            self.localized_solves,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanliness_tracks_sensor_and_prediction_trouble_only() {
        let mut h = ControllerHealth {
            epochs: 16,
            observations: 96,
            drift_detections: 3,
            decisions: 4,
            switches: 2,
            governor_vetoes: 1,
            localized_solves: 2,
            ..ControllerHealth::default()
        };
        assert!(h.is_clean(), "normal operation is clean");
        h.dropped_observations = 1;
        assert!(!h.is_clean());
        h.dropped_observations = 0;
        h.dropout_vm_epochs = 2;
        assert!(!h.is_clean());
        h.dropout_vm_epochs = 0;
        h.prediction_misses = 1;
        assert!(!h.is_clean());
    }

    #[test]
    fn display_is_one_line() {
        let h = ControllerHealth::default();
        let line = h.to_string();
        assert!(line.starts_with("controller health:"));
        assert!(!line.contains('\n'));
    }
}
