//! Fleet placement configuration.

use crate::FleetError;

/// Fixed per-migration base charge in seconds (state transfer, connection
/// draining), on top of the destination pool refill.
pub(crate) const MIGRATION_BASE_SECONDS: f64 = 1.0;

/// Amortization horizon: a migration's one-time cost is divided by this
/// many workload executions when weighed against steady-state gain.
/// Placement churn is never free; it must pay for itself within the
/// horizon.
pub(crate) const MIGRATION_HORIZON_RUNS: f64 = 50.0;

/// Swaps are enumerated exhaustively only while `N x M` does not exceed
/// this budget; beyond it each local-search round *samples* up to this
/// many swap pairs from a seeded deterministic stream (reported in
/// [`crate::LocalSearchStats::swaps_enumerated`] and
/// [`crate::LocalSearchStats::swap_candidates_sampled`], never silently).
pub(crate) const SWAP_CANDIDATE_BUDGET: usize = 4096;

/// Knobs for the fleet placement solver ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Share discretization: each machine's CPU and memory are divided
    /// into `units` equal steps (same convention as
    /// [`dbvirt_core::SearchConfig::units`]).
    pub units: u32,
    /// Minimum units of each resource per resident VM.
    pub min_units: u32,
    /// Fixed disk share granted to every VM on every machine. Disk is a
    /// fixed per-VM policy (the paper's testbed could not throttle disk
    /// independently), and keeping it independent of machine occupancy is
    /// what makes cached cell costs pure functions of
    /// `(class, vm, cpu units, mem units)`.
    pub disk_share: f64,
    /// Worker threads for the pre-warm what-if sweep: `1` serial, `0` one
    /// per core, `n` exactly `n`. Placements are bit-identical at every
    /// setting; only wall clock changes.
    pub parallelism: usize,
    /// Hard cap on VMs per machine (defaults to `units / min_units`, the
    /// most the share discretization can host).
    pub max_vms_per_machine: usize,
    /// Subgradient iterations for the LP lower bound.
    pub lp_iterations: usize,
    /// Local-search round cap (each round applies at most one move/swap).
    pub max_rounds: usize,
}

impl FleetConfig {
    /// Defaults for a `units`-step discretization: 1-unit floors, disk
    /// split evenly across the maximum occupancy, serial pre-warm, 400 LP
    /// iterations, 64 local-search rounds.
    pub fn new(units: u32) -> FleetConfig {
        FleetConfig {
            units,
            min_units: 1,
            disk_share: 1.0 / units.max(1) as f64,
            parallelism: 1,
            max_vms_per_machine: units.max(1) as usize,
            lp_iterations: 400,
            max_rounds: 64,
        }
    }

    /// Sets the pre-warm parallelism (`0` = one worker per core).
    pub fn with_parallelism(mut self, parallelism: usize) -> FleetConfig {
        self.parallelism = parallelism;
        self
    }

    /// Sets the fixed per-VM disk share.
    pub fn with_disk_share(mut self, disk_share: f64) -> FleetConfig {
        self.disk_share = disk_share;
        self
    }

    /// Sets the LP iteration budget.
    pub fn with_lp_iterations(mut self, iterations: usize) -> FleetConfig {
        self.lp_iterations = iterations;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), FleetError> {
        let bad = |reason: String| Err(FleetError::BadFleet { reason });
        if self.units == 0 || self.min_units == 0 {
            return bad("units and min_units must be positive".to_string());
        }
        if self.min_units > self.units {
            return bad(format!(
                "min_units {} exceeds {} total units",
                self.min_units, self.units
            ));
        }
        if !(self.disk_share > 0.0 && self.disk_share <= 1.0) {
            return bad(format!("disk share {} out of range", self.disk_share));
        }
        if self.max_vms_per_machine == 0 {
            return bad("max_vms_per_machine must be positive".to_string());
        }
        let natural_cap = (self.units / self.min_units) as usize;
        if self.max_vms_per_machine > natural_cap {
            return bad(format!(
                "cap {} exceeds what {} units with {}-unit floors can host ({})",
                self.max_vms_per_machine, self.units, self.min_units, natural_cap
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        FleetConfig::new(8).validate().unwrap();
    }

    #[test]
    fn hostile_configs_are_rejected() {
        assert!(FleetConfig::new(0).validate().is_err());
        assert!(FleetConfig::new(8).with_disk_share(0.0).validate().is_err());
        assert!(FleetConfig::new(8)
            .with_disk_share(f64::NAN)
            .validate()
            .is_err());
        let mut c = FleetConfig::new(8);
        c.max_vms_per_machine = 9;
        assert!(c.validate().is_err());
        let mut c = FleetConfig::new(8);
        c.min_units = 9;
        assert!(c.validate().is_err());
    }
}
