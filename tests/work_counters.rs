//! Golden work counters: how much work one fixed round of every pipeline
//! stage does, read off the global telemetry registry — probe runs, page
//! reads and checks, buffer-pool hits and misses, search-cache hits and
//! misses, what-if prices, fleet solves and pre-warmed cells, scheduler
//! events and controller epochs. Unlike a wall clock these counts carry no
//! noise, so a change that removes work shows it as a diff of
//! `tests/golden/work_counters.txt` (`GOLDEN_REGENERATE=1` rewrites it).
//!
//! The registry is process-wide, so this file holds one `#[test]`: nothing
//! else in its process records into the counters. Every counter pinned here
//! read the same in two runs of the test; none was left out for differing.
//! The round is the goldens' own scenarios, cut to one request each: the
//! design duo and trio of `search_golden.rs`, its calibrated sweep problem,
//! `measure_golden.rs`'s `reports` and `lookups` tenants, `fleet_golden.rs`'s
//! 16-VM fleet and one stationary and one drifting `control_loop` scenario.

mod common;

use common::LOOKUPS;
use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::measure::{measure_concurrent_seconds, measure_workload_seconds};
use dbvirt::core::search::{run_search, SearchAlgorithm, SearchConfig};
use dbvirt::core::{CalibratedCostModel, CostModel, DesignProblem, WorkloadSpec};
use dbvirt::design::{DesignAdvisor, DesignConfig};
use dbvirt::engine::{Database, Expr, TableId};
use dbvirt::fleet::{FleetAdvisor, FleetConfig, FleetProblem, FleetVm};
use dbvirt::optimizer::LogicalPlan;
use dbvirt::sql::parse_query;
use dbvirt::storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::sched::SchedMode;
use dbvirt::vmm::{AllocationMatrix, MachineSpec, ResourceVector};
use dbvirt_controller::{
    profile_from_queries, run_controller, ControllerConfig, ProblemTemplate, Scenario, VmTemplate,
};
use dbvirt_telemetry as telemetry;
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/work_counters.txt";

/// The registry counters pinned, in golden order.
const COUNTERS: [&str; 14] = [
    "calibrate.probe_runs",
    "storage.pages_read",
    "storage.page_checks",
    "bufpool.hits",
    "bufpool.misses",
    "search.cache.hits",
    "search.cache.misses",
    "design.whatif_calls",
    "design.cache_hits",
    "fleet.solves",
    "fleet.solve_memo_hits",
    "fleet.prewarm_cells",
    "sched.events",
    "controller.epochs",
];

/// `perf/`'s machine at scale 0.005.
fn small_machine() -> MachineSpec {
    MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

/// The design crate's test machine: memory-constrained, so indexes beat
/// cached scans at scarce cells.
fn design_machine() -> MachineSpec {
    MachineSpec {
        cores: 1,
        cycles_per_sec: 1.0e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 20.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

/// A square grid of `units` steps per axis.
fn grid(machine: MachineSpec, units: u32, disk_share: f64) -> CalibrationGrid {
    let points: Vec<f64> = (1..=units).map(|u| u as f64 / units as f64).collect();
    CalibrationGrid::calibrate(machine, points.clone(), points, disk_share).expect("grid")
}

fn two_col_db(n_rows: i64, modulus: i64) -> (Database, TableId) {
    let mut db = Database::new();
    let t = db.create_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]),
    );
    db.insert_rows(
        t,
        (0..n_rows).map(|i| Tuple::new(vec![Datum::Int(i), Datum::Int(i % modulus)])),
    )
    .expect("rows");
    db.analyze_all().expect("analyze");
    (db, t)
}

/// `search_golden.rs`'s design duo (four units) and trio (six units, page
/// budgets 96 and 1024), each advised jointly and by both marginals.
fn design_round() {
    let point = |t: TableId, col: usize, k: i64| {
        LogicalPlan::scan_filtered(t, Expr::eq(Expr::col(col), Expr::int(k)))
    };
    let (db1, t1) = two_col_db(20_000, 100);
    let (db2, t2) = two_col_db(20_000, 100);
    let (db3, t3) = two_col_db(12_000, 40);
    let duo = DesignProblem::new(
        design_machine(),
        vec![
            WorkloadSpec::new(
                "points",
                &db1,
                vec![point(t1, 0, 7), point(t1, 0, 4242), point(t1, 0, 19_000)],
            ),
            WorkloadSpec::new(
                "scans",
                &db2,
                vec![
                    LogicalPlan::scan_filtered(t2, Expr::lt(Expr::col(0), Expr::int(19_900))),
                    LogicalPlan::scan_filtered(t2, Expr::gt(Expr::col(0), Expr::int(100))),
                ],
            ),
        ],
    )
    .expect("duo");
    let trio = DesignProblem::new(
        design_machine(),
        vec![
            WorkloadSpec::new(
                "points",
                &db1,
                vec![point(t1, 0, 11), point(t1, 1, 42), point(t1, 0, 15_000)],
            )
            .with_weight(2.0),
            WorkloadSpec::new(
                "mixed",
                &db3,
                vec![
                    LogicalPlan::scan_filtered(
                        t3,
                        Expr::and(
                            Expr::eq(Expr::col(1), Expr::int(7)),
                            Expr::lt(Expr::col(0), Expr::int(3_000)),
                        ),
                    ),
                    point(t3, 0, 999),
                ],
            )
            .with_weight(0.5),
            WorkloadSpec::new(
                "scans",
                &db2,
                vec![LogicalPlan::scan_filtered(
                    t2,
                    Expr::lt(Expr::col(0), Expr::int(18_000)),
                )],
            ),
        ],
    )
    .expect("trio");
    let duo_grid = grid(design_machine(), 4, 0.5);
    let trio_grid = grid(design_machine(), 6, 1.0 / 3.0);
    let asks = [
        (&duo_grid, DesignConfig::new(4, 2).with_budget(1024), &duo),
        (&trio_grid, DesignConfig::new(6, 3).with_budget(96), &trio),
        (&trio_grid, DesignConfig::new(6, 3).with_budget(1024), &trio),
    ];
    for (grid, cfg, problem) in asks {
        let advisor = DesignAdvisor::new(grid, cfg);
        advisor.advise(problem).expect("advise");
        advisor.advise_index_only(problem).expect("index-only");
        advisor
            .advise_allocation_only(problem)
            .expect("allocation-only");
    }
}

/// One cold DP over four tenants of TPC-H statements and lookups, as
/// `whatif_sweep` deals them.
fn search_round(t: &TpchDb) {
    const UNITS: u32 = 8;
    const DISK_SHARE: f64 = 0.25;
    let points: Vec<f64> = (1..=UNITS - 3).map(|u| u as f64 / UNITS as f64).collect();
    let grid = CalibrationGrid::calibrate(small_machine(), points.clone(), points, DISK_SHARE)
        .expect("sweep grid");
    let model = CalibratedCostModel::new(&grid);
    let queries = TpchQuery::all();
    let workloads = (0..4)
        .map(|tenant| {
            let plans = (0..3)
                .map(|k| {
                    let sql = if (tenant + k) % 2 == 0 {
                        queries[(tenant + k) % queries.len()].sql()
                    } else {
                        LOOKUPS[(tenant + k) % LOOKUPS.len()]
                    };
                    parse_query(sql, &t.db).unwrap_or_else(|e| panic!("{sql}: {e}"))
                })
                .collect();
            WorkloadSpec::new(format!("t{tenant}"), &t.db, plans)
        })
        .collect();
    let problem = DesignProblem::new(small_machine(), workloads).expect("problem");
    let cfg = SearchConfig {
        disk_share: DISK_SHARE,
        ..SearchConfig::for_workloads(UNITS, 4)
    };
    run_search(SearchAlgorithm::DynamicProgramming, &problem, &model, cfg).expect("search");
}

/// `measure_golden.rs`'s `reports` tenant alone, then beside its first
/// four lookups on one machine.
fn measure_round(t: &TpchDb) {
    let sql = |text: &str| parse_query(text, &t.db).unwrap_or_else(|e| panic!("{text}: {e}"));
    let reports: Vec<LogicalPlan> = [TpchQuery::Q1, TpchQuery::Q6, TpchQuery::Q6]
        .iter()
        .map(|q| sql(q.sql()))
        .collect();
    let lookups: Vec<LogicalPlan> = LOOKUPS[..4].iter().map(|s| sql(s)).collect();
    let shares = |cpu, mem| ResourceVector::from_fractions(cpu, mem, 0.5).expect("shares");
    measure_workload_seconds(&t.db, &reports, small_machine(), shares(0.5, 0.25))
        .expect("workload executes");
    let allocation =
        AllocationMatrix::new(vec![shares(0.5, 0.25), shares(0.5, 0.75)]).expect("matrix");
    measure_concurrent_seconds(
        &[&t.db, &t.db],
        &[&reports, &lookups],
        small_machine(),
        &allocation,
        SchedMode::Capped,
    )
    .expect("co-run executes");
}

/// `fleet_golden.rs`'s 16-VM fleet on two machines of each class, placed
/// cold.
fn fleet_round(t: &TpchDb) {
    const UNITS: u32 = 6;
    const MIXES: [&[TpchQuery]; 6] = [
        &[TpchQuery::Q6],
        &[TpchQuery::Q1],
        &[TpchQuery::Q14],
        &[TpchQuery::Q4],
        &[TpchQuery::Q6, TpchQuery::Q6],
        &[TpchQuery::Q1, TpchQuery::Q6],
    ];
    let small = MachineSpec {
        memory_bytes: 32 * 1024 * 1024,
        ..small_machine()
    };
    let big = common::compute_machine();
    let cfg = FleetConfig::new(UNITS).with_parallelism(1);
    let grids = [small, big].map(|class| grid(class, UNITS, cfg.disk_share));
    let models = grids.each_ref().map(CalibratedCostModel::new);
    let machines = vec![small, small, big, big];
    let vms = (0..16)
        .map(|i| {
            let plans = MIXES[i % MIXES.len()]
                .iter()
                .map(|q| parse_query(q.sql(), &t.db).expect("mix SQL"))
                .collect();
            FleetVm::new(format!("vm{i:03}"), &t.db, plans).with_weight(0.5 + (i % 5) as f64 * 0.45)
        })
        .collect();
    let problem = FleetProblem::new(machines.clone(), vms).expect("fleet problem");
    let class_models: Vec<&dyn CostModel> = models.iter().map(|m| m as &dyn CostModel).collect();
    let advisor = FleetAdvisor::new(machines, class_models, cfg).expect("advisor");
    advisor.place(&problem).expect("cold place");
}

/// A stationary and a drifting `control_loop` scenario over eight VMs.
fn controller_round(t: &TpchDb) {
    const VMS: usize = 8;
    let plans = |queries: &[TpchQuery]| {
        queries
            .iter()
            .map(|q| parse_query(q.sql(), &t.db).expect("mix SQL"))
            .collect::<Vec<_>>()
    };
    let cpu_mix = plans(&[TpchQuery::Q13, TpchQuery::Q13]);
    let io_mix = plans(&[TpchQuery::Q4, TpchQuery::Q6]);
    let m = small_machine();
    let cpu = profile_from_queries(&t.db, &cpu_mix, m, 4.0, 2.0).expect("cpu profile");
    let io = profile_from_queries(&t.db, &io_mix, m, 2.0, 3.0).expect("io profile");
    let template = ProblemTemplate {
        machine: m,
        vms: (0..VMS)
            .map(|i| VmTemplate {
                name: format!("vm{i}"),
                db: &t.db,
                base_query: if i % 2 == 0 { &cpu_mix[0] } else { &io_mix[0] }.clone(),
            })
            .collect(),
    };
    let fwd: Vec<_> = (0..VMS)
        .map(|i| if i % 2 == 0 { cpu } else { io })
        .collect();
    let rev: Vec<_> = (0..VMS)
        .map(|i| if i % 2 == 0 { io } else { cpu })
        .collect();
    let config = ControllerConfig::new(SearchConfig::for_workloads(12, VMS));
    for scenario in [
        Scenario::stationary("stationary", m, fwd.clone(), 64, 11),
        Scenario::drifting("drifting", m, fwd, 48, rev, 48, 12),
    ] {
        run_controller(&scenario, &template, &config).expect("controller run");
    }
}

#[test]
fn one_round_of_every_stage_does_the_committed_work() {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.005,
        seed: 11,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    telemetry::reset();
    telemetry::enable();
    design_round();
    search_round(&t);
    measure_round(&t);
    fleet_round(&t);
    controller_round(&t);
    telemetry::disable();
    let snap = telemetry::snapshot();
    telemetry::reset();
    let mut out = String::new();
    for name in COUNTERS {
        let value = snap
            .counter(name)
            .unwrap_or_else(|| panic!("{name} never moved"));
        writeln!(out, "{name} {value}").expect("write");
    }
    common::assert_golden(GOLDEN, &out);
}
