//! The measured oracle: actually run a workload under an allocation.
//!
//! The paper validates its estimates against *actual* execution times
//! measured in Xen VMs. This module is the simulator equivalent: plan each
//! query the way the deployed database would (default optimizer settings —
//! a stock PostgreSQL does not know about its VM's allocation), execute it
//! for real through the buffer pool, and convert the accumulated demand to
//! simulated time under the VM's shares. It exists for validation and the
//! experiment figures; the advisor itself never calls it.
//!
//! ## Execution is a constant of (database, plan)
//!
//! An allocation never changes what an execution *does*: CPU and disk shares
//! only divide the demand, and the memory share only decides which of the
//! page references miss and what the sorts and joins spill — which
//! [`dbvirt_engine::Profile`] recomputes exactly from one execution. So a
//! [`WorkloadProfile`] executes each *distinct* physical plan once, keeps
//! what the run did, and answers every allocation (and every repeat of a
//! query inside the workload) by replaying the workload's sequence of runs
//! through a cold pool of the allocation's size. The memory share still
//! reaches the planner (`work_mem`, cache size), so an allocation that flips
//! a plan meets a plan not seen before, and that one is executed.

use crate::CoreError;
use dbvirt_calibrate::DbVmConfig;
use dbvirt_engine::{CpuCosts, Database, PhysicalPlan, Profile, CARRIER_PAGES};
use dbvirt_optimizer::{plan_query, LogicalPlan, OptimizerParams};
use dbvirt_storage::BufferPool;
use dbvirt_vmm::sched::{co_schedule, SchedMode, VmJob};
use dbvirt_vmm::{AllocationMatrix, MachineSpec, ResourceDemand, ResourceVector, VirtualMachine};

/// What executing a workload on a database does, under any allocation.
///
/// Borrows the database for as long as it lives: a stored run is only good
/// while the data it ran over has not changed, and the borrow is what
/// guarantees that. Execution only reads, so any number of profiles (and
/// tenants) can share one database.
#[derive(Debug)]
pub struct WorkloadProfile<'a> {
    db: &'a Database,
    queries: &'a [LogicalPlan],
    /// Hands the executor its pages; its size and contents reach no demand.
    carrier: BufferPool,
    /// Every distinct plan met so far, with its one execution.
    executed: Vec<(PhysicalPlan, Profile)>,
}

impl<'a> WorkloadProfile<'a> {
    /// A profile of `queries` over `db`; nothing is planned or executed yet.
    pub fn new(db: &'a Database, queries: &'a [LogicalPlan]) -> WorkloadProfile<'a> {
        WorkloadProfile {
            db,
            queries,
            carrier: BufferPool::new(CARRIER_PAGES),
            executed: Vec::new(),
        }
    }

    /// Distinct plans executed so far: all the engine work this profile has
    /// cost.
    pub fn plans_executed(&self) -> usize {
        self.executed.len()
    }

    /// Each query's demand in a VM at `shares` of `machine`, the database
    /// configured for it by the deployment policy.
    pub fn demands_under(
        &mut self,
        machine: MachineSpec,
        shares: ResourceVector,
    ) -> Result<Vec<ResourceDemand>, CoreError> {
        let vm = VirtualMachine::new(machine, shares)?;
        self.demands_with(DbVmConfig::for_vm(&vm))
    }

    /// Each query's demand under `cfg`: planned with stock optimizer
    /// settings plus `cfg`'s `work_mem` and cache size, then run in order
    /// over one pool — a cold start, then queries warm the cache for each
    /// other, as on a real consolidated server. Only plans not met before
    /// execute.
    pub fn demands_with(&mut self, cfg: DbVmConfig) -> Result<Vec<ResourceDemand>, CoreError> {
        let mut sequence = Profile::new();
        // A configuration nothing can run under is refused by the empty
        // sequence, before anything is planned or executed.
        sequence.demand_under(cfg.buffer_pool_pages, cfg.work_mem_bytes)?;
        let params = OptimizerParams {
            work_mem_bytes: cfg.work_mem_bytes as f64,
            effective_cache_size_pages: cfg.effective_cache_pages as f64,
            ..OptimizerParams::postgres_defaults()
        };
        for q in self.queries {
            let plan = plan_query(self.db, q, &params)?.physical;
            let at = match self.executed.iter().position(|(seen, _)| *seen == plan) {
                Some(at) => at,
                None => {
                    let mut run = Profile::new();
                    run.run(self.db, &mut self.carrier, &plan, CpuCosts::default())?;
                    self.executed.push((plan, run));
                    self.executed.len() - 1
                }
            };
            sequence.append(&self.executed[at].1);
        }
        Ok(sequence.demand_under(cfg.buffer_pool_pages, cfg.work_mem_bytes)?)
    }
}

/// Plans (with stock optimizer settings, `work_mem` from the VM) and
/// executes every query of a workload, returning each query's demand: the
/// one-shot use of a [`WorkloadProfile`].
pub fn workload_demands(
    db: &Database,
    queries: &[LogicalPlan],
    machine: MachineSpec,
    shares: ResourceVector,
) -> Result<Vec<ResourceDemand>, CoreError> {
    WorkloadProfile::new(db, queries).demands_under(machine, shares)
}

/// Measured seconds for a workload running **alone** in a VM at `shares`.
pub fn measure_workload_seconds(
    db: &Database,
    queries: &[LogicalPlan],
    machine: MachineSpec,
    shares: ResourceVector,
) -> Result<f64, CoreError> {
    let mut span = dbvirt_telemetry::span("measure.workload");
    span.set_attr("queries", queries.len());
    let vm = VirtualMachine::new(machine, shares)?;
    let demands = workload_demands(db, queries, machine, shares)?;
    let seconds: f64 = demands.iter().map(|d| vm.demand_seconds(d)).sum();
    // The measured run *is* the simulated time; advance the virtual clock
    // so spans carry the simulation's timeline alongside wall clock.
    dbvirt_telemetry::advance_virtual_secs(seconds);
    span.set_attr("simulated_secs", seconds);
    Ok(seconds)
}

/// Measured per-VM completion times when several workloads run
/// **concurrently**, one VM each, under `allocation` (the paper's Figure 5
/// setup). Workload `i` runs against `dbs[i]`; one database may serve every
/// workload. The co-run is simulated by `sched::co_schedule`.
pub fn measure_concurrent_seconds(
    dbs: &[&Database],
    workloads: &[&[LogicalPlan]],
    machine: MachineSpec,
    allocation: &AllocationMatrix,
    mode: SchedMode,
) -> Result<Vec<f64>, CoreError> {
    if dbs.len() != workloads.len() || dbs.len() != allocation.num_workloads() {
        return Err(CoreError::BadProblem {
            reason: "databases, workloads, and allocation rows must align".to_string(),
        });
    }
    let mut span = dbvirt_telemetry::span("measure.concurrent");
    span.set_attr("vms", workloads.len());
    let mut jobs = Vec::with_capacity(workloads.len());
    for (i, (db, queries)) in dbs.iter().zip(workloads).enumerate() {
        let demands = workload_demands(db, queries, machine, allocation.row(i))?;
        jobs.push(VmJob::new(demands));
    }
    let outcomes = co_schedule(machine, allocation, &jobs, mode)?;
    let times: Vec<f64> = outcomes
        .into_iter()
        .map(|o| o.makespan().as_secs_f64())
        .collect();
    // Concurrent VMs share the simulated wall clock: the run occupies the
    // longest makespan, not the sum.
    let longest = times.iter().copied().fold(0.0_f64, f64::max);
    dbvirt_telemetry::advance_virtual_secs(longest);
    span.set_attr("simulated_secs", longest);
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_engine::Expr;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    fn test_db(rows: i64) -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        db.insert_rows(t, (0..rows).map(|i| Tuple::new(vec![Datum::Int(i)])))
            .unwrap();
        db.analyze_all().unwrap();
        db
    }

    fn scan_all(db: &Database) -> LogicalPlan {
        let t = db.table_id("t").unwrap();
        LogicalPlan::scan_filtered(t, Expr::ge(Expr::col(0), Expr::int(0)))
    }

    #[test]
    fn solo_measurement_scales_with_cpu_for_cpu_bound_work() {
        let db = test_db(30_000);
        let machine = MachineSpec::paper_testbed();
        let q = scan_all(&db);
        let slow = measure_workload_seconds(
            &db,
            std::slice::from_ref(&q),
            machine,
            ResourceVector::from_fractions(0.25, 0.5, 0.5).unwrap(),
        )
        .unwrap();
        let fast = measure_workload_seconds(
            &db,
            &[q],
            machine,
            ResourceVector::from_fractions(0.75, 0.5, 0.5).unwrap(),
        )
        .unwrap();
        assert!(slow > fast, "{slow} vs {fast}");
    }

    #[test]
    fn concurrent_measurement_reports_per_vm_times() {
        let db = test_db(10_000);
        let machine = MachineSpec::paper_testbed();
        let q1 = vec![scan_all(&db)];
        let q2 = vec![scan_all(&db), scan_all(&db)];
        let alloc = AllocationMatrix::equal_split(2).unwrap();
        let times = measure_concurrent_seconds(
            &[&db, &db],
            &[&q1, &q2],
            machine,
            &alloc,
            SchedMode::Capped,
        )
        .unwrap();
        assert_eq!(times.len(), 2);
        assert!(times[1] > times[0], "two queries take longer than one");
    }

    #[test]
    fn misaligned_concurrent_inputs_are_rejected() {
        let db = test_db(100);
        let machine = MachineSpec::tiny();
        let alloc = AllocationMatrix::equal_split(2).unwrap();
        let q = vec![scan_all(&db)];
        let err = measure_concurrent_seconds(&[&db], &[&q], machine, &alloc, SchedMode::Capped)
            .unwrap_err();
        assert!(matches!(err, CoreError::BadProblem { .. }));
    }
}
