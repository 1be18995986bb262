//! `WorkloadProfile` against the oracle it replaced: every query of a
//! workload planned and executed by `run_plan`, one after another over one
//! shared buffer pool of the configuration's own size, under its own
//! `work_mem`. That loop lives here and nowhere else. Random workloads with
//! repeated and distinct queries, random shares on two machines and random
//! raw configurations (pools from one frame up, `work_mem` from a kilobyte
//! to half a megabyte, so sorts and hash builds spill and repeats find the
//! pool in every state)
//! must come out bit-equal — from one `WorkloadProfile` asked again and
//! again, which executes only the plans it has not met.

use dbvirt::calibrate::DbVmConfig;
use dbvirt::core::measure::WorkloadProfile;
use dbvirt::core::CoreError;
use dbvirt::engine::{run_plan, CpuCosts, Database, EngineError};
use dbvirt::optimizer::{plan_query, LogicalPlan, OptimizerParams};
use dbvirt::sql::parse_query;
use dbvirt::storage::BufferPool;
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::{MachineSpec, ResourceDemand, ResourceVector, VirtualMachine};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The per-query execution loop `dbvirt_core::measure::workload_demands`
/// was, kept as the oracle.
fn executed(db: &Database, queries: &[LogicalPlan], cfg: DbVmConfig) -> Vec<ResourceDemand> {
    let params = OptimizerParams {
        work_mem_bytes: cfg.work_mem_bytes as f64,
        effective_cache_size_pages: cfg.effective_cache_pages as f64,
        ..OptimizerParams::postgres_defaults()
    };
    let mut pool = BufferPool::new(cfg.buffer_pool_pages);
    let mut run = |q| {
        let planned = plan_query(db, q, &params).expect("plans");
        let (plan, work_mem) = (&planned.physical, cfg.work_mem_bytes);
        run_plan(db, &mut pool, plan, work_mem, CpuCosts::default()).expect("executes")
    };
    queries.iter().map(|q| run(q).demand).collect()
}

/// A small TPC-H database and the statements workloads draw from: scans,
/// aggregates, joins, a sorted join wide enough to spill, index lookups.
fn fixture() -> &'static (Database, Vec<LogicalPlan>) {
    static FIXTURE: OnceLock<(Database, Vec<LogicalPlan>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let t = TpchDb::generate(TpchConfig::tiny()).expect("TPC-H generation");
        let queries = [
            TpchQuery::Q1,
            TpchQuery::Q3,
            TpchQuery::Q4,
            TpchQuery::Q6,
            TpchQuery::Q13,
        ];
        let mut pool: Vec<LogicalPlan> = queries.iter().map(|q| q.plan(&t)).collect();
        for text in [
            "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate, o_custkey, \
             o_totalprice, o_orderpriority, o_comment FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey ORDER BY l_extendedprice",
            "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 432",
            "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_orderkey IN (12, 345, 700)",
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 32",
            "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = 99",
        ] {
            pool.push(parse_query(text, &t.db).unwrap_or_else(|e| panic!("{text}: {e}")));
        }
        (t.db, pool)
    })
}

fn machines() -> [MachineSpec; 2] {
    let small = MachineSpec {
        memory_bytes: 8 << 20,
        ..MachineSpec::paper_testbed()
    };
    [MachineSpec::paper_testbed(), small]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_one_workload_profile_answers_as_executing_under_each_configuration_would(
        picks in prop::collection::vec(0usize..10, 1..10),
        allocations in prop::collection::vec((0usize..2, 0.02f64..1.0, 0.0f64..1.0, 0.05f64..1.0), 1..4),
        raw in prop::collection::vec((1usize..200, 1usize..512), 1..4),
    ) {
        let (db, statements) = fixture();
        let queries: Vec<LogicalPlan> = picks.iter().map(|&p| statements[p].clone()).collect();
        let mut profile = WorkloadProfile::new(db, &queries);

        for &(machine, cpu, mem, disk) in &allocations {
            let machine = machines()[machine];
            let shares = ResourceVector::from_fractions(cpu, mem, disk).expect("shares");
            let cfg = DbVmConfig::for_vm(&VirtualMachine::new(machine, shares).expect("vm"));
            prop_assert_eq!(
                profile.demands_under(machine, shares).expect("profile answers"),
                executed(db, &queries, cfg)
            );
        }
        let mut spilled = false;
        // Whatever was drawn, end on three frames and 2 KiB of `work_mem`.
        for &(buffer_pool_pages, work_mem_kib) in raw.iter().chain([&(3, 2)]) {
            let cfg = DbVmConfig {
                buffer_pool_pages,
                work_mem_bytes: work_mem_kib << 10,
                effective_cache_pages: buffer_pool_pages,
            };
            let demands = profile.demands_with(cfg).expect("profile answers");
            spilled |= demands.iter().any(|d| d.page_writes > 0);
            let oracle = executed(db, &queries, cfg);
            for (q, (got, want)) in demands.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(got.cpu_cycles.to_bits(), want.cpu_cycles.to_bits(), "query {}", q);
            }
            prop_assert_eq!(demands, oracle, "{:?}", cfg);
        }
        // 2 KiB cannot hold any of the joins' or sorts' rows.
        let holds_rows = |p: &usize| matches!(*p, 1 | 2 | 4 | 5);
        prop_assert_eq!(spilled, picks.iter().any(holds_rows));
    }
}

#[test]
fn an_impossible_configuration_is_refused_before_anything_executes() {
    let (db, statements) = fixture();
    let queries = [
        statements[4].clone(),
        statements[0].clone(),
        statements[4].clone(),
    ];
    let mut profile = WorkloadProfile::new(db, &queries);
    let runnable = DbVmConfig {
        buffer_pool_pages: 64,
        work_mem_bytes: 1 << 20,
        effective_cache_pages: 64,
    };
    let no_frames = DbVmConfig {
        buffer_pool_pages: 0,
        ..runnable
    };
    let no_work_mem = DbVmConfig {
        work_mem_bytes: 0,
        ..runnable
    };
    assert!(matches!(
        profile.demands_with(no_frames),
        Err(CoreError::Engine(EngineError::Storage(_)))
    ));
    assert!(matches!(
        profile.demands_with(no_work_mem),
        Err(CoreError::Engine(EngineError::Plan(_)))
    ));
    assert_eq!(profile.plans_executed(), 0);
    // The same profile still answers a configuration that can run, and
    // executes each distinct plan once however often it is asked.
    let first = profile.demands_with(runnable).expect("runs");
    assert_eq!(profile.demands_with(runnable).expect("runs"), first);
    assert_eq!(profile.plans_executed(), 2);
}
