//! Execution profiles: run once, price under any memory configuration.
//!
//! A memory configuration never changes what an execution *does*. Rows, CPU
//! charges and the sequence of pages referenced are the same under every
//! buffer-pool size and `work_mem`; the pool's capacity only decides which
//! references miss, and `work_mem` only how many pages each sort and hash
//! join spills ([`SpillEvent::pages`]). A [`Profile`] keeps exactly what is
//! needed to redo that accounting — the pool's access log, each run's CPU
//! cycles and its spill events — so [`Profile::demand_under`] answers, to
//! the bit, what [`crate::run_plan`] would have returned as each run's
//! demand over a cold pool of that configuration shared by the runs in
//! order.

use crate::runtime::{run_metered, EngineError, SpillEvent};
use crate::{CpuCosts, Database, PhysicalPlan};
use dbvirt_storage::{Access, BufferPool, Tuple};
use dbvirt_vmm::ResourceDemand;

/// Frames of the carrier pool callers profile on. A carrier's size reaches
/// no profile, so it follows no configuration; this one holds a small
/// database whole.
pub const CARRIER_PAGES: usize = 1024;

/// What one or more executions did, free of any memory configuration.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Every page reference of every run, in order.
    log: Vec<Access>,
    runs: Vec<Run>,
}

#[derive(Debug, Clone)]
struct Run {
    /// Where this run's references end in the log (they start where the
    /// previous run's end).
    log_end: usize,
    cpu_cycles: f64,
    spills: Vec<SpillEvent>,
}

impl Profile {
    /// A profile of no runs.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Executes `plan` and appends what it did as the profile's next run,
    /// returning its rows (the same under every configuration). `carrier`
    /// only hands the executor its pages: which references it happens to
    /// hit or miss is not recorded, so its capacity and contents change
    /// nothing about the profile.
    pub fn run(
        &mut self,
        db: &Database,
        carrier: &mut BufferPool,
        plan: &PhysicalPlan,
        costs: CpuCosts,
    ) -> Result<Vec<Tuple>, EngineError> {
        carrier.open_log();
        // Nothing spills on the carrier; the events are recorded all the same.
        let result = run_metered(db, carrier, plan, usize::MAX, costs);
        let mut log = carrier.close_log();
        let (out, spills) = result?;
        self.log.append(&mut log);
        self.runs.push(Run {
            log_end: self.log.len(),
            cpu_cycles: out.demand.cpu_cycles,
            spills,
        });
        Ok(out.rows)
    }

    /// Appends `other`'s runs after this profile's own: the profile of
    /// having executed both sequences back to back. This is how a repeated
    /// plan joins a workload's sequence without executing again.
    pub fn append(&mut self, other: &Profile) {
        let shift = self.log.len();
        self.log.extend_from_slice(&other.log);
        self.runs.extend(other.runs.iter().map(|run| Run {
            log_end: run.log_end + shift,
            ..run.clone()
        }));
    }

    /// Each run's demand, had the runs executed in order over one cold pool
    /// of `buffer_pool_pages` with `work_mem_bytes` each: one replay of the
    /// whole log, billed at every run's end. A configuration no execution
    /// accepts — no frames, no `work_mem` — is an error here too.
    pub fn demand_under(
        &self,
        buffer_pool_pages: usize,
        work_mem_bytes: usize,
    ) -> Result<Vec<ResourceDemand>, EngineError> {
        if work_mem_bytes == 0 {
            return Err(EngineError::Plan("work_mem_bytes must be positive".into()));
        }
        let run_ends: Vec<usize> = self.runs.iter().map(|run| run.log_end).collect();
        let io = BufferPool::replay(buffer_pool_pages, &self.log, &run_ends)?;
        let demands = self.runs.iter().zip(io).map(|(run, io)| {
            let spilled: u64 = run.spills.iter().map(|s| s.pages(work_mem_bytes)).sum();
            let mut direct = ResourceDemand::cpu(run.cpu_cycles);
            direct.add_writes(spilled);
            direct.add_seq_reads(spilled);
            direct + io
        });
        Ok(demands.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests_support::small_db;
    use crate::{run_plan, JoinType, SortKey, TableId};

    /// A self-join under a sort: both kinds of spill over two scans.
    fn plan() -> PhysicalPlan {
        let scan = || {
            Box::new(PhysicalPlan::SeqScan {
                table: TableId(0),
                filter: None,
            })
        };
        PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::HashJoin {
                left: scan(),
                right: scan(),
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
            }),
            keys: vec![SortKey::desc(0)],
        }
    }

    #[test]
    fn one_profile_prices_every_configuration_as_executing_under_it_would() {
        let (db, mut carrier) = small_db(5000);
        let mut profile = Profile::new();
        let rows = profile
            .run(&db, &mut carrier, &plan(), CpuCosts::default())
            .unwrap();
        profile
            .run(&db, &mut carrier, &plan(), CpuCosts::default())
            .unwrap();
        let mut spilled = 0;
        for pool_pages in [1, 3, 16, 4096] {
            for work_mem in [1, 4 << 10, 64 << 10, 8 << 20] {
                let mut pool = BufferPool::new(pool_pages);
                let mut run =
                    || run_plan(&db, &mut pool, &plan(), work_mem, CpuCosts::default()).unwrap();
                let (cold, warm) = (run(), run());
                assert_eq!(cold.rows, rows);
                assert_eq!(
                    profile.demand_under(pool_pages, work_mem).unwrap(),
                    vec![cold.demand, warm.demand],
                    "pool={pool_pages} work_mem={work_mem}"
                );
                assert_eq!(
                    cold.demand.cpu_cycles.to_bits(),
                    warm.demand.cpu_cycles.to_bits()
                );
                spilled += u64::from(cold.demand.page_writes > 0);
            }
        }
        assert!(spilled >= 8, "the small work_mems must spill");
    }

    #[test]
    fn appended_profiles_price_a_sequence_with_repeats_as_executing_it_would() {
        let (db, mut carrier) = small_db(5000);
        let scan = PhysicalPlan::SeqScan {
            table: TableId(0),
            filter: None,
        };
        let once = |plan: &PhysicalPlan, db: &Database, carrier: &mut BufferPool| {
            let mut profile = Profile::new();
            profile.run(db, carrier, plan, CpuCosts::default()).unwrap();
            profile
        };
        let (sorted, scanned) = (
            once(&plan(), &db, &mut carrier),
            once(&scan, &db, &mut carrier),
        );
        // sort, scan, sort, sort — from two executions.
        let mut sequence = Profile::new();
        for part in [&sorted, &scanned, &sorted, &sorted] {
            sequence.append(part);
        }
        for (pool_pages, work_mem) in [(2, 4 << 10), (16, 64 << 10), (4096, 8 << 20)] {
            let mut pool = BufferPool::new(pool_pages);
            let executed: Vec<ResourceDemand> = [&plan(), &scan, &plan(), &plan()]
                .into_iter()
                .map(|p| {
                    run_plan(&db, &mut pool, p, work_mem, CpuCosts::default())
                        .unwrap()
                        .demand
                })
                .collect();
            assert_eq!(
                sequence.demand_under(pool_pages, work_mem).unwrap(),
                executed
            );
        }
    }

    #[test]
    fn impossible_configurations_and_failed_runs_are_errors() {
        let (db, mut carrier) = small_db(100);
        let mut profile = Profile::new();
        let missing = PhysicalPlan::SeqScan {
            table: TableId(7),
            filter: None,
        };
        assert!(profile
            .run(&db, &mut carrier, &missing, CpuCosts::default())
            .is_err());
        assert!(profile.demand_under(4, 1 << 20).unwrap().is_empty());
        profile
            .run(&db, &mut carrier, &plan(), CpuCosts::default())
            .unwrap();
        assert!(matches!(
            profile.demand_under(0, 1 << 20),
            Err(EngineError::Storage(_))
        ));
        assert!(matches!(
            profile.demand_under(4, 0),
            Err(EngineError::Plan(_))
        ));
        assert_eq!(profile.demand_under(4, 1 << 20).unwrap().len(), 1);
    }
}
