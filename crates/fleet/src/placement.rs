//! Placements: a full fleet assignment with its priced objective.

use crate::config::MIGRATION_HORIZON_RUNS;
use crate::migrate::vm_migration_seconds;
use crate::solver::FleetSolver;
use crate::{CurrentPlacement, FleetError};
use dbvirt_vmm::kernel::Fnv1a;

/// A complete placement: every VM's machine and share units, plus the
/// priced objective. Totals are always re-summed from the per-machine
/// contributions in ascending machine order, so two placements with the
/// same assignment are bitwise-identical no matter which search path
/// produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `machine_of[i]` is the machine hosting VM `i`.
    pub machine_of: Vec<usize>,
    /// `units_of[i]` is VM `i`'s `(cpu units, mem units)` on its machine.
    pub units_of: Vec<(u32, u32)>,
    /// Weighted steady-state objective per machine (0 for empty machines).
    pub per_machine_objective: Vec<f64>,
    /// Weighted steady-state objective: `Σ_m per_machine_objective[m]`.
    pub steady_objective: f64,
    /// One-time migration cost (seconds) versus the reference placement
    /// (0 when the placement was priced against itself).
    pub migration_seconds: f64,
    /// What the search minimizes: `steady + migration / horizon_runs`.
    pub total_objective: f64,
}

impl Placement {
    /// The VMs hosted on machine `m`, in ascending index order.
    pub fn residents(&self, m: usize) -> Vec<usize> {
        (0..self.machine_of.len())
            .filter(|&i| self.machine_of[i] == m)
            .collect()
    }

    /// Number of machines this placement spans.
    pub fn num_machines(&self) -> usize {
        self.per_machine_objective.len()
    }

    /// The placement viewed as a [`CurrentPlacement`] (e.g. to use one
    /// request's answer as the next request's deployed state).
    pub fn as_current(&self) -> CurrentPlacement {
        CurrentPlacement {
            machine_of: self.machine_of.clone(),
            units_of: self.units_of.clone(),
        }
    }

    /// FNV-1a fingerprint of the full placement: assignment, integer
    /// units, and the bit-exact objectives. Serial and parallel runs of
    /// the advisor must produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &m in &self.machine_of {
            h.u64(m as u64);
        }
        for &(c, m) in &self.units_of {
            h.eat(&c.to_le_bytes());
            h.eat(&m.to_le_bytes());
        }
        h.f64(self.steady_objective);
        h.f64(self.migration_seconds);
        h.f64(self.total_objective);
        h.finish()
    }
}

/// Groups an assignment vector into per-machine resident lists (ascending
/// VM index within each machine).
pub(crate) fn residents_of(machine_of: &[usize], num_machines: usize) -> Vec<Vec<usize>> {
    let mut residents = vec![Vec::new(); num_machines];
    for (i, &m) in machine_of.iter().enumerate() {
        residents[m].push(i);
    }
    residents
}

/// Prices an assignment into a full [`Placement`]: solves every occupied
/// machine (memoized), sums objectives in machine order, and prices
/// migration of every VM against `reference` in VM order. This is the
/// single source of truth for placement objectives — search loops compare
/// candidate deltas, but every *accepted* placement is rebuilt here so
/// float drift can never accumulate across rounds.
pub(crate) fn build(
    solver: &FleetSolver<'_, '_>,
    reference: Option<&CurrentPlacement>,
    machine_of: &[usize],
) -> Result<Placement, FleetError> {
    let num_machines = solver.problem.num_machines();
    let residents = residents_of(machine_of, num_machines);
    let mut per_machine_objective = vec![0.0; num_machines];
    let mut units_of = vec![(0u32, 0u32); machine_of.len()];
    for (m, vms) in residents.iter().enumerate() {
        let solve = solver.solve(m, vms)?;
        per_machine_objective[m] = solve.objective;
        for (w, &vm) in vms.iter().enumerate() {
            units_of[vm] = solve.assignment[w];
        }
    }
    let steady_objective: f64 = per_machine_objective.iter().sum();
    let mut migration_seconds = 0.0;
    if let Some(reference) = reference {
        for vm in 0..machine_of.len() {
            migration_seconds += vm_migration_seconds(
                &solver.problem.machines,
                solver.cfg,
                reference,
                vm,
                machine_of[vm],
                units_of[vm],
            )?;
        }
    }
    let total_objective = steady_objective + migration_seconds / MIGRATION_HORIZON_RUNS;
    Ok(Placement {
        machine_of: machine_of.to_vec(),
        units_of,
        per_machine_objective,
        steady_objective,
        migration_seconds,
        total_objective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residents_group_in_order() {
        let residents = residents_of(&[1, 0, 1, 1], 3);
        assert_eq!(residents, vec![vec![1], vec![0, 2, 3], vec![]]);
    }

    #[test]
    fn fingerprints_distinguish_placements() {
        let base = Placement {
            machine_of: vec![0, 1],
            units_of: vec![(8, 8), (8, 8)],
            per_machine_objective: vec![1.0, 2.0],
            steady_objective: 3.0,
            migration_seconds: 0.0,
            total_objective: 3.0,
        };
        let mut moved = base.clone();
        moved.machine_of = vec![1, 0];
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        assert_ne!(base.fingerprint(), moved.fingerprint());
        assert_eq!(base.residents(1), vec![1]);
        assert_eq!(base.as_current().machine_of, vec![0, 1]);
    }
}
