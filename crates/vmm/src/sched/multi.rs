//! Multi-machine driver: one `co_schedule` per machine, in parallel.
//!
//! A deployed fleet placement is a set of *independent* single-machine
//! co-schedules — VMs only contend with co-residents of their own
//! machine, never across machines. That independence is the whole
//! parallelism story: each machine's simulation is a pure function of its
//! own `(spec, allocation, jobs, mode)`, so machines can run on any
//! number of worker threads and the result is **bit-identical at every
//! parallelism setting** (the same contract as the search evaluator of
//! PR 1 and the fleet pre-warm of PR 8). Machines are the tasks of one
//! [`claim_and_reduce`] call: runs come back in machine order and the
//! error surfaced is always the lowest-indexed failing machine's.
//!
//! It is also why the scheduler under it is sized for a handful of VMs:
//! a fleet of a thousand VMs is hundreds of runs of at most
//! `units / min_units` residents each, every one through
//! [`co_schedule_with_stats`]'s one path for the mode — the fleet grows in
//! machines, never in `V`.
//!
//! The layer above (`dbvirt-fleet`'s `sim` module) builds the
//! [`MachineSim`] inputs from a placement and folds the per-machine
//! outcomes into fleet totals.

use crate::kernel::{claim_and_reduce, workers_for, PoolError};
use crate::{AllocationMatrix, MachineSpec, VmmError};

use super::{co_schedule_with_stats, SchedMode, SchedStats, VmJob, VmOutcome};

use dbvirt_telemetry as telemetry;

/// Machines simulated by fleet drivers.
static TM_MACHINES: telemetry::Counter = telemetry::Counter::new("sched.fleet_machines");
/// VMs simulated by fleet drivers.
static TM_FLEET_VMS: telemetry::Counter = telemetry::Counter::new("sched.fleet_vms");

/// One machine's simulation input: its hardware, the per-resident share
/// allocation (row `i` = resident `i`), and each resident's job.
#[derive(Debug, Clone)]
pub struct MachineSim {
    /// The machine's hardware description.
    pub spec: MachineSpec,
    /// Share allocation across the machine's residents.
    pub allocation: AllocationMatrix,
    /// One job per resident, aligned with the allocation rows.
    pub jobs: Vec<VmJob>,
}

/// One machine's simulation output: per-resident outcomes (aligned with
/// the input jobs) plus the scheduler's work counters.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// Per-resident completion reports, in input order.
    pub outcomes: Vec<VmOutcome>,
    /// Scheduler work counters for this machine.
    pub stats: SchedStats,
}

/// Simulates every machine of a deployed fleet, returning per-machine
/// runs in machine-index order.
///
/// `parallelism` follows the workspace convention ([`workers_for`]): `0`
/// one worker per core, `n` exactly `n`. Results and errors are
/// independent of the setting — see the module docs.
pub fn co_schedule_fleet(
    machines: &[MachineSim],
    mode: SchedMode,
    parallelism: usize,
) -> Result<Vec<MachineRun>, VmmError> {
    let mut span = telemetry::span("sched.fleet");
    let total_vms: usize = machines.iter().map(|m| m.jobs.len()).sum();
    span.set_attr("machines", machines.len());
    span.set_attr("vms", total_vms);
    TM_MACHINES.add(machines.len() as u64);
    TM_FLEET_VMS.add(total_vms as u64);

    let workers = workers_for(parallelism, machines.len());
    span.set_attr("workers", workers);

    claim_and_reduce(
        machines.len(),
        workers,
        "sched.fleet_worker",
        || (),
        |(), at| {
            let m = &machines[at];
            let (outcomes, stats) = co_schedule_with_stats(m.spec, &m.allocation, &m.jobs, mode)?;
            Ok(MachineRun { outcomes, stats })
        },
    )
    .map_err(PoolError::into_task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceDemand;

    fn demand(cpu: f64, seq: u64) -> ResourceDemand {
        ResourceDemand {
            cpu_cycles: cpu,
            seq_page_reads: seq,
            random_page_reads: 0,
            page_writes: 0,
        }
    }

    fn mixed_fleet(machines: usize, vms_per: usize) -> Vec<MachineSim> {
        let spec = MachineSpec::paper_testbed();
        (0..machines)
            .map(|m| {
                let allocation = AllocationMatrix::equal_split(vms_per).unwrap();
                let jobs = (0..vms_per)
                    .map(|v| {
                        VmJob::new(vec![
                            demand(1e9 + (m * vms_per + v) as f64 * 3e7, 0),
                            demand(0.0, 200 + v as u64 * 17),
                        ])
                    })
                    .collect();
                MachineSim {
                    spec,
                    allocation,
                    jobs,
                }
            })
            .collect()
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let machines = mixed_fleet(7, 4);
        for mode in [SchedMode::Capped, SchedMode::WorkConserving] {
            let serial = co_schedule_fleet(&machines, mode, 1).unwrap();
            for workers in [0, 2, 5, 16] {
                let par = co_schedule_fleet(&machines, mode, workers).unwrap();
                assert_eq!(par.len(), serial.len());
                for (a, b) in par.iter().zip(&serial) {
                    assert_eq!(a.outcomes, b.outcomes, "workers={workers} diverged");
                    assert_eq!(a.stats, b.stats);
                }
            }
        }
    }

    #[test]
    fn machines_are_independent_of_fleet_context() {
        // A machine simulated inside a fleet reports exactly what it
        // reports alone.
        let machines = mixed_fleet(3, 2);
        let fleet = co_schedule_fleet(&machines, SchedMode::WorkConserving, 0).unwrap();
        for (m, run) in machines.iter().zip(&fleet) {
            let solo =
                co_schedule_with_stats(m.spec, &m.allocation, &m.jobs, SchedMode::WorkConserving)
                    .unwrap();
            assert_eq!(run.outcomes, solo.0);
        }
    }

    #[test]
    fn lowest_indexed_error_wins_at_any_parallelism() {
        let mut machines = mixed_fleet(6, 2);
        // Machines 2 and 4 both carry hostile demands; the surfaced error
        // must always be machine 2's.
        machines[2].jobs[0].queries[0].cpu_cycles = f64::NAN;
        machines[4].jobs[1].queries[0].cpu_cycles = -1.0;
        let mut reasons = Vec::new();
        for workers in [1, 0, 3] {
            let err = co_schedule_fleet(&machines, SchedMode::Capped, workers).unwrap_err();
            match err {
                VmmError::InvalidSchedule { reason } => reasons.push(reason),
                other => panic!("expected InvalidSchedule, got {other:?}"),
            }
        }
        assert!(reasons.iter().all(|r| r == &reasons[0]), "{reasons:?}");
        assert!(reasons[0].contains("VM 0 query 0"), "{}", reasons[0]);
    }

    #[test]
    fn empty_fleet_is_a_valid_noop() {
        let runs = co_schedule_fleet(&[], SchedMode::Capped, 0).unwrap();
        assert!(runs.is_empty());
    }
}
