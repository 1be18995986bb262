//! Fleet simulation: run a placement through the co-scheduler.
//!
//! The advisor's objective is a *model* — weighted per-VM cost estimates
//! summed over machines. This module closes the loop by **executing** a
//! [`Placement`]: every machine becomes one `co_schedule` run over its
//! residents (shares taken from the placement's integer units, exactly
//! the mapping the solver's cost model priced), machines are simulated
//! in parallel by `dbvirt_vmm::sched::co_schedule_fleet`, and the
//! per-VM makespans are folded back into a fleet total that can be set
//! against the placement's predicted objective.
//!
//! Determinism: machines are independent single-machine simulations, so
//! the report — including its fingerprint — is bit-identical at every
//! `parallelism` setting (the driver's slot-reduction contract), and
//! identical across processes because every input is.

use crate::placement::residents_of;
use crate::{FleetConfig, FleetError, FleetProblem, Placement};
use dbvirt_core::search::cell_shares;
use dbvirt_vmm::kernel::Fnv1a;
use dbvirt_vmm::sched::{co_schedule_fleet, MachineSim, SchedMode, SchedStats, VmJob, VmOutcome};
use dbvirt_vmm::AllocationMatrix;

use dbvirt_telemetry as telemetry;

/// Placements simulated end to end.
static TM_SIMS: telemetry::Counter = telemetry::Counter::new("fleet.simulations");

/// The result of simulating a [`Placement`]: per-VM outcomes in global
/// VM order, the weighted simulated total, and the placement's predicted
/// objective for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSimReport {
    /// Per-VM completion reports, indexed by global VM.
    pub outcomes: Vec<VmOutcome>,
    /// Per-VM simulated makespan seconds, indexed by global VM.
    pub vm_seconds: Vec<f64>,
    /// `Σ_i weight_i × vm_seconds[i]`, summed in ascending VM order —
    /// the simulated counterpart of the placement objective.
    pub simulated_total: f64,
    /// The placement's modeled steady-state objective
    /// ([`Placement::steady_objective`]).
    pub predicted_total: f64,
    /// Machines that hosted at least one VM.
    pub machines_occupied: usize,
    /// Scheduler work counters summed across all machines.
    pub stats: SchedStats,
}

impl FleetSimReport {
    /// FNV-1a fingerprint of every simulated completion instant, VM by
    /// VM in global index order, query by query. Serial and parallel
    /// simulations of the same placement must produce identical
    /// fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for o in &self.outcomes {
            h.u64(o.completion.as_micros());
            for t in &o.query_completions {
                h.u64(t.as_micros());
            }
        }
        h.f64(self.simulated_total);
        h.f64(self.predicted_total);
        h.finish()
    }
}

/// Simulates a deployed placement: machine by machine, each machine's
/// residents co-scheduled under the shares the placement assigned them.
///
/// `jobs[i]` is global VM `i`'s demand stream (one [`ResourceDemand`]
/// per query — typically produced by `dbvirt_core`'s `workload_demands`
/// under the same shares, but any stream works). Allocation rows are
/// derived from the placement's integer units with the solver's exact
/// mapping: `cpu_units / units`, `mem_units / units`, and the fixed
/// per-VM `disk_share` — so the simulation runs under precisely the
/// split the cost model priced.
///
/// `parallelism` follows the workspace convention (`1` serial, `0` one
/// worker per core, `n` exactly `n` workers); the report is
/// bit-identical at every setting.
///
/// [`ResourceDemand`]: dbvirt_vmm::ResourceDemand
pub fn simulate_placement(
    problem: &FleetProblem<'_>,
    placement: &Placement,
    jobs: &[VmJob],
    cfg: &FleetConfig,
    mode: SchedMode,
    parallelism: usize,
) -> Result<FleetSimReport, FleetError> {
    cfg.validate()?;
    let n = problem.num_vms();
    let m = problem.num_machines();
    if placement.machine_of.len() != n || placement.units_of.len() != n || jobs.len() != n {
        return Err(FleetError::BadFleet {
            reason: format!(
                "simulation inputs misaligned: {} VMs, placement covers {} ({} unit rows), {} jobs",
                n,
                placement.machine_of.len(),
                placement.units_of.len(),
                jobs.len()
            ),
        });
    }
    if let Some(&bad) = placement.machine_of.iter().find(|&&mm| mm >= m) {
        return Err(FleetError::BadFleet {
            reason: format!("placement references machine {bad}, fleet has {m}"),
        });
    }

    let mut span = telemetry::span("fleet.simulate");
    span.set_attr("vms", n);
    span.set_attr("machines", m);
    TM_SIMS.add(1);

    // One MachineSim per occupied machine, in ascending machine order;
    // residents ascend within each machine, so (machine, slot) → global
    // VM is a deterministic bijection.
    let residents = residents_of(&placement.machine_of, m);
    let mut sims = Vec::new();
    let mut sim_vms: Vec<&[usize]> = Vec::new();
    for (mm, vms) in residents.iter().enumerate() {
        if vms.is_empty() {
            continue;
        }
        let rows = vms
            .iter()
            .map(|&i| {
                let (cu, mu) = placement.units_of[i];
                cell_shares(cfg.units, cfg.disk_share, cu, mu)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let allocation = AllocationMatrix::new(rows)?;
        sims.push(MachineSim {
            spec: problem.machines[mm],
            allocation,
            jobs: vms.iter().map(|&i| jobs[i].clone()).collect(),
        });
        sim_vms.push(vms);
    }

    let runs = co_schedule_fleet(&sims, mode, parallelism)?;

    // Fold per-machine outcomes back to global VM indices, then total in
    // ascending VM order (never accumulation order — the sum must be
    // bitwise stable no matter how machines were grouped).
    let empty = VmOutcome {
        query_completions: Vec::new(),
        completion: Default::default(),
    };
    let mut outcomes = vec![empty; n];
    let mut stats = SchedStats::default();
    for (vms, run) in sim_vms.iter().zip(&runs) {
        stats.absorb(&run.stats);
        for (slot, &vm) in vms.iter().enumerate() {
            outcomes[vm] = run.outcomes[slot].clone();
        }
    }
    let vm_seconds: Vec<f64> = outcomes
        .iter()
        .map(|o| o.makespan().as_secs_f64())
        .collect();
    let simulated_total: f64 = (0..n).map(|i| problem.vms[i].weight * vm_seconds[i]).sum();

    span.set_attr("machines_occupied", sims.len());
    Ok(FleetSimReport {
        outcomes,
        vm_seconds,
        simulated_total,
        predicted_total: placement.steady_objective,
        machines_occupied: sims.len(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_engine::Database;
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
    use dbvirt_vmm::sched::co_schedule;
    use dbvirt_vmm::{MachineSpec, ResourceDemand, ResourceVector};

    fn tiny_db() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
            .unwrap();
        db.analyze_all().unwrap();
        db
    }

    fn demand(cpu: f64, seq: u64) -> ResourceDemand {
        ResourceDemand {
            cpu_cycles: cpu,
            seq_page_reads: seq,
            random_page_reads: 0,
            page_writes: 0,
        }
    }

    /// A hand-built problem + placement: `n` VMs spread over `m`
    /// machines round-robin, every VM at an equal `units/occupancy`
    /// split, plus synthetic demand streams.
    fn setup(
        db: &Database,
        n: usize,
        m: usize,
        units: u32,
    ) -> (FleetProblem<'_>, Placement, Vec<VmJob>, FleetConfig) {
        let t = db.table_id("t").unwrap();
        let vms = (0..n)
            .map(|i| {
                crate::FleetVm::new(format!("vm{i}"), db, vec![LogicalPlan::scan(t)])
                    .with_weight(1.0 + i as f64 * 0.25)
            })
            .collect();
        let problem = FleetProblem::new(vec![MachineSpec::paper_testbed(); m], vms).unwrap();
        let machine_of: Vec<usize> = (0..n).map(|i| i % m).collect();
        let occupancy = n.div_ceil(m) as u32;
        let per_vm = units / occupancy.max(1);
        let placement = Placement {
            machine_of: machine_of.clone(),
            units_of: vec![(per_vm, per_vm); n],
            per_machine_objective: vec![1.0; m],
            steady_objective: m as f64,
            migration_seconds: 0.0,
            total_objective: m as f64,
        };
        let jobs = (0..n)
            .map(|i| {
                VmJob::new(vec![
                    demand(5e8 + i as f64 * 1e7, 0),
                    demand(0.0, 100 + i as u64 * 13),
                    demand(2e8, 40),
                ])
            })
            .collect();
        let mut cfg = FleetConfig::new(units);
        cfg.max_vms_per_machine = occupancy.max(1) as usize;
        (problem, placement, jobs, cfg)
    }

    #[test]
    fn serial_and_parallel_simulations_are_bit_identical() {
        let db = tiny_db();
        let (problem, placement, jobs, cfg) = setup(&db, 9, 3, 8);
        for mode in [SchedMode::Capped, SchedMode::WorkConserving] {
            let serial = simulate_placement(&problem, &placement, &jobs, &cfg, mode, 1).unwrap();
            for workers in [0, 2, 7] {
                let par =
                    simulate_placement(&problem, &placement, &jobs, &cfg, mode, workers).unwrap();
                assert_eq!(par, serial, "workers={workers} diverged");
                assert_eq!(par.fingerprint(), serial.fingerprint());
            }
            assert!(serial.simulated_total > 0.0);
            assert_eq!(serial.machines_occupied, 3);
            assert_eq!(serial.vm_seconds.len(), 9);
        }
    }

    #[test]
    fn single_machine_fleet_matches_direct_co_schedule() {
        let db = tiny_db();
        let (problem, placement, jobs, cfg) = setup(&db, 4, 1, 8);
        let report =
            simulate_placement(&problem, &placement, &jobs, &cfg, SchedMode::Capped, 1).unwrap();
        let rows = (0..4)
            .map(|_| ResourceVector::from_fractions(0.25, 0.25, cfg.disk_share).unwrap())
            .collect();
        let alloc = AllocationMatrix::new(rows).unwrap();
        let direct = co_schedule(
            MachineSpec::paper_testbed(),
            &alloc,
            &jobs,
            SchedMode::Capped,
        )
        .unwrap();
        assert_eq!(report.outcomes, direct);
        // Weighted total is summed in ascending VM order.
        let expect: f64 = direct
            .iter()
            .enumerate()
            .map(|(i, o)| (1.0 + i as f64 * 0.25) * o.makespan().as_secs_f64())
            .sum();
        assert_eq!(report.simulated_total.to_bits(), expect.to_bits());
    }

    #[test]
    fn empty_machines_are_skipped_not_simulated() {
        let db = tiny_db();
        let (problem, mut placement, jobs, cfg) = setup(&db, 4, 4, 8);
        // Pile everything onto machine 2; machines 0/1/3 go empty.
        placement.machine_of = vec![2; 4];
        placement.units_of = vec![(2, 2); 4];
        let report =
            simulate_placement(&problem, &placement, &jobs, &cfg, SchedMode::Capped, 1).unwrap();
        assert_eq!(report.machines_occupied, 1);
        assert!(report.vm_seconds.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn misaligned_inputs_are_typed_errors() {
        let db = tiny_db();
        let (problem, placement, jobs, cfg) = setup(&db, 4, 2, 8);
        // Wrong job count.
        let err = simulate_placement(&problem, &placement, &jobs[..3], &cfg, SchedMode::Capped, 1)
            .unwrap_err();
        assert!(matches!(err, FleetError::BadFleet { .. }), "{err}");
        // Placement pointing at a machine the fleet does not have.
        let mut bad = placement.clone();
        bad.machine_of[1] = 9;
        let err =
            simulate_placement(&problem, &bad, &jobs, &cfg, SchedMode::Capped, 1).unwrap_err();
        assert!(err.to_string().contains("machine 9"), "{err}");
        // Hostile demands surface the scheduler's typed error, not a panic.
        let mut hostile = jobs.clone();
        hostile[2].queries[0].cpu_cycles = f64::NAN;
        let err = simulate_placement(&problem, &placement, &hostile, &cfg, SchedMode::Capped, 1)
            .unwrap_err();
        assert!(matches!(err, FleetError::Core(_)), "{err}");
    }
}
