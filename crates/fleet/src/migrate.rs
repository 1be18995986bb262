//! Migration pricing: placement churn is never free.
//!
//! Moving a VM to a different machine — or resizing its memory in place —
//! lands it with a cold buffer pool, re-warmed at the destination disk's
//! sequential speed. The refill is priced by the *same* model the
//! controller uses for in-place reconfigurations
//! ([`dbvirt_controller::pool_refill_seconds`]), plus a fixed per-move
//! base charge for state transfer. The advisor amortizes the total over
//! `MIGRATION_HORIZON_RUNS` (50) workload executions when
//! comparing placements.

use crate::config::MIGRATION_BASE_SECONDS;
use crate::{CurrentPlacement, FleetConfig, FleetError};
use dbvirt_controller::pool_refill_seconds;
use dbvirt_core::search::cell_shares;
use dbvirt_vmm::MachineSpec;

/// One-time cost (seconds) of bringing VM `vm` from its reference state to
/// `(machine, units)`. Zero when neither the machine nor the memory share
/// changes; a CPU-only retune is free, exactly as in the controller.
pub(crate) fn vm_migration_seconds(
    machines: &[MachineSpec],
    cfg: FleetConfig,
    reference: &CurrentPlacement,
    vm: usize,
    machine: usize,
    units: (u32, u32),
) -> Result<f64, FleetError> {
    let moved = reference.machine_of[vm] != machine;
    let resized = reference.units_of[vm].1 != units.1;
    if !moved && !resized {
        return Ok(0.0);
    }
    let shares = cell_shares(cfg.units, cfg.disk_share, units.0, units.1)?;
    let refill = pool_refill_seconds(machines[machine], shares)?;
    Ok(refill + if moved { MIGRATION_BASE_SECONDS } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_vmm::ResourceVector;

    #[test]
    fn only_moves_and_resizes_pay() {
        let machines = [MachineSpec::tiny(), MachineSpec::tiny()];
        let cfg = FleetConfig::new(8);
        let reference = CurrentPlacement {
            machine_of: vec![0],
            units_of: vec![(4, 4)],
        };
        // Unchanged: free.
        let same = vm_migration_seconds(&machines, cfg, &reference, 0, 0, (4, 4)).unwrap();
        assert_eq!(same, 0.0);
        // CPU-only retune: free.
        let cpu = vm_migration_seconds(&machines, cfg, &reference, 0, 0, (6, 4)).unwrap();
        assert_eq!(cpu, 0.0);
        // Memory resize in place: refill only (no base charge).
        let resize = vm_migration_seconds(&machines, cfg, &reference, 0, 0, (4, 6)).unwrap();
        assert!(resize > 0.0);
        // Cross-machine move at identical units: refill + base.
        let shares = ResourceVector::from_fractions(0.5, 0.5, cfg.disk_share).unwrap();
        let refill = pool_refill_seconds(machines[1], shares).unwrap();
        let moved = vm_migration_seconds(&machines, cfg, &reference, 0, 1, (4, 4)).unwrap();
        assert_eq!(moved, refill + MIGRATION_BASE_SECONDS);
        assert!(moved > resize);
    }
}
