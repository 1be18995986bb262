//! Golden search bits: what every path through the what-if cost store
//! answers, to the bit — the three search algorithms, a shared cache asked
//! cold, re-weighted and under a sub-budget, a four-phase `run_dynamic`
//! timeline, and the joint design advisor with both of its marginals.
//!
//! `tests/golden/search_bits.txt` was captured from the commit *before* the
//! sharded hash memo, the fleet's VM-sharded store and the design tier's
//! key-punned cache became one dense write-once table, and cut to its
//! serial lines when the search and the design pre-pricing lost their
//! parallelism knobs (`GOLDEN_REGENERATE=1` rewrites it). `fleet_bits.txt`
//! pins the DP and the placement ladder; this file pins everything else
//! that reads a cost cell: a change that moves one share, one bit of one
//! objective or per-workload cost, one evaluation, one phase decision, one
//! chosen index or one decision-trace fingerprint fails here.

mod common;

use common::LOOKUPS;
use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::dynamic::{run_dynamic, DynamicTimeline, ReconfigPolicy};
use dbvirt::core::search::{run_search, run_search_cached, SearchAlgorithm, SearchConfig};
use dbvirt::core::{
    CalibratedCostModel, CoreError, CostCache, CostModel, DesignProblem, Recommendation,
    WorkloadSpec,
};
use dbvirt::design::{DesignAdvisor, DesignConfig, JointRecommendation};
use dbvirt::engine::{Database, Expr, TableId};
use dbvirt::optimizer::LogicalPlan;
use dbvirt::sql::parse_query;
use dbvirt::storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::{AllocationMatrix, MachineSpec, ResourceVector};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = "tests/golden/search_bits.txt";

const ALGORITHMS: [SearchAlgorithm; 3] = [
    SearchAlgorithm::Greedy,
    SearchAlgorithm::Exhaustive,
    SearchAlgorithm::DynamicProgramming,
];

fn allocation_bits(a: &AllocationMatrix) -> String {
    let rows: Vec<String> = a
        .rows()
        .map(|r| {
            format!(
                "{:016x}/{:016x}/{:016x}",
                r.cpu().fraction().to_bits(),
                r.memory().fraction().to_bits(),
                r.disk().fraction().to_bits()
            )
        })
        .collect();
    rows.join(",")
}

fn bits(values: &[f64]) -> String {
    let hex: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    hex.join(",")
}

fn rec_line(out: &mut String, label: &str, rec: &Recommendation) {
    writeln!(
        out,
        "{label} {} alloc={} obj={:016x} total={:016x} costs={} evals={}",
        rec.algorithm,
        allocation_bits(&rec.allocation),
        rec.objective.to_bits(),
        rec.total_cost.to_bits(),
        bits(&rec.per_workload_costs),
        rec.evaluations,
    )
    .expect("write");
}

/// Every algorithm (exhaustive only where its candidate count stays
/// small).
fn render_algorithms(
    out: &mut String,
    label: &str,
    problem: &DesignProblem<'_>,
    model: &dyn CostModel,
    cfg: SearchConfig,
) {
    for alg in ALGORITHMS {
        if alg == SearchAlgorithm::Exhaustive && problem.num_workloads() > 4 {
            continue;
        }
        let rec = run_search(alg, problem, model, cfg).expect("search");
        rec_line(out, label, &rec);
    }
}

/// One shared cache: asked cold, re-asked re-weighted, re-asked under a
/// sub-budget, then by greedy.
fn render_shared_cache(
    out: &mut String,
    label: &str,
    asked: &DesignProblem<'_>,
    reweighted: &DesignProblem<'_>,
    model: &dyn CostModel,
    cfg: SearchConfig,
) {
    let cache = Arc::new(CostCache::new());
    let dp = SearchAlgorithm::DynamicProgramming;
    let cold = run_search_cached(dp, asked, model, cfg, &cache).expect("cold");
    rec_line(out, &format!("{label} shared cold"), &cold);
    let reask = run_search_cached(dp, reweighted, model, cfg, &cache).expect("re-ask");
    assert_eq!(reask.evaluations, 0, "the warm re-ask priced new cells");
    rec_line(out, &format!("{label} shared reweighted"), &reask);
    let sub = cfg.with_budgets(cfg.units - 2, cfg.units - 1);
    let budgeted = run_search_cached(dp, reweighted, model, sub, &cache).expect("sub-budget");
    assert_eq!(
        budgeted.evaluations, 0,
        "a sub-budget is a subset of the warm cells"
    );
    rec_line(out, &format!("{label} shared sub-budget"), &budgeted);
    let greedy =
        run_search_cached(SearchAlgorithm::Greedy, asked, model, cfg, &cache).expect("greedy");
    rec_line(out, &format!("{label} shared greedy"), &greedy);
    writeln!(out, "{label} shared cache evals={}", cache.evaluations()).expect("write");
}

// ---------------------------------------------------------------------
// The Ripple model of tests/fleet_golden.rs
// ---------------------------------------------------------------------

/// Separable and deliberately *not* convex: a smooth `a/cpu + b/mem` term
/// plus a per-cell ripple, so optima sit off the diagonal. Workloads
/// `2k` and `2k+1` share their coefficients, so equal-cost candidates
/// exist and the strict-`<` tie-breaks decide the assignment.
struct Ripple;

impl CostModel for Ripple {
    fn cost(
        &self,
        _problem: &DesignProblem<'_>,
        w_idx: usize,
        shares: ResourceVector,
    ) -> Result<f64, CoreError> {
        let k = (w_idx / 2) as f64;
        let (a, b) = (1.0 + 2.25 * k, 5.0 / (1.0 + k));
        let (cpu, mem) = (shares.cpu().fraction(), shares.memory().fraction());
        let ripple = ((cpu * 37.0 + mem * 11.0 + k) * 1.7).sin() * 0.4;
        Ok(a / cpu + b / mem + ripple)
    }
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

fn render_ripple(out: &mut String) {
    let (db, t) = two_col_db(10, 3);
    let problem = |n: usize, shift: usize| {
        let workloads = (0..n)
            .map(|i| {
                WorkloadSpec::new(format!("w{i}"), &db, vec![LogicalPlan::scan(t)])
                    .with_weight(0.5 + ((i + shift) % 4) as f64 * 0.75)
            })
            .collect();
        DesignProblem::new(MachineSpec::paper_testbed(), workloads).expect("problem")
    };
    for (n, units, min_units, cut) in [
        (2usize, 8u32, 1u32, (0u32, 0u32)),
        (3, 9, 1, (1, 2)),
        (4, 10, 2, (0, 1)),
        (6, 12, 1, (0, 0)),
    ] {
        let mut cfg =
            SearchConfig::for_workloads(units, n).with_budgets(units - cut.0, units - cut.1);
        cfg.min_units = min_units;
        let label = format!("ripple n={n} units={units} min={min_units}");
        render_algorithms(out, &label, &problem(n, 0), &Ripple, cfg);
    }
    let cfg = SearchConfig::for_workloads(10, 4);
    render_shared_cache(
        out,
        "ripple n=4",
        &problem(4, 0),
        &problem(4, 1),
        &Ripple,
        cfg,
    );
}

// ---------------------------------------------------------------------
// A calibrated problem shaped like perf/'s whatif_sweep
// ---------------------------------------------------------------------

const SCALE: f64 = 0.005;
const UNITS: u32 = 12;
const DISK_SHARE: f64 = 0.1;
const STATEMENT_COUNTS: [usize; 8] = [3, 4, 5, 6, 7, 8, 4, 6];
const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// `perf/`'s machine at scale 0.005.
fn sweep_machine() -> MachineSpec {
    MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

/// Question `d`'s tenants, as `whatif_sweep` deals them: TPC-H statements
/// alternating with index lookups, walked from a per-question offset.
fn tenant_plans(t: &TpchDb, d: usize, n: usize) -> Vec<Vec<LogicalPlan>> {
    let queries = TpchQuery::all();
    let mut next = d;
    (0..n)
        .map(|tenant| {
            (0..STATEMENT_COUNTS[(tenant + d) % 8])
                .map(|_| {
                    next += 1;
                    let sql = if next.is_multiple_of(2) {
                        queries[next / 2 % queries.len()].sql()
                    } else {
                        LOOKUPS[next / 2 % LOOKUPS.len()]
                    };
                    parse_query(sql, &t.db).unwrap_or_else(|e| panic!("{sql}: {e}"))
                })
                .collect()
        })
        .collect()
}

fn sweep_problem<'a>(
    t: &'a TpchDb,
    plans: &[Vec<LogicalPlan>],
    weight: impl Fn(usize) -> f64,
) -> DesignProblem<'a> {
    let workloads = plans
        .iter()
        .enumerate()
        .map(|(i, p)| WorkloadSpec::new(format!("t{i}"), &t.db, p.clone()).with_weight(weight(i)))
        .collect();
    DesignProblem::new(sweep_machine(), workloads).expect("problem")
}

fn render_calibrated(out: &mut String) {
    let t = TpchDb::generate(TpchConfig {
        scale: SCALE,
        seed: 11,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    // Every share a search over >= 4 tenants can hand out.
    let points: Vec<f64> = (1..=UNITS - 3).map(|u| u as f64 / UNITS as f64).collect();
    let grid = CalibrationGrid::calibrate(sweep_machine(), points.clone(), points, DISK_SHARE)
        .expect("grid calibration");
    let model = CalibratedCostModel::new(&grid);
    let cfg = |n: usize| SearchConfig {
        disk_share: DISK_SHARE,
        ..SearchConfig::for_workloads(UNITS, n)
    };
    for (d, n) in [(0usize, 4usize), (5, 6)] {
        let plans = tenant_plans(&t, d, n);
        let asked = sweep_problem(&t, &plans, |i| WEIGHTS[(i + d) % 4]);
        let reasked = sweep_problem(&t, &plans, |i| WEIGHTS[(i + d / 2 + 1) % 4]);
        let label = format!("sweep d={d} n={n}");
        render_algorithms(out, &label, &asked, &model, cfg(n));
        render_shared_cache(out, &label, &asked, &reasked, &model, cfg(n));
    }

    // A four-phase timeline over four VMs: the mix flips, then one phase
    // runs different statements (its own model inputs, so its own cache),
    // then the first mix returns.
    let plans = tenant_plans(&t, 0, 4);
    let other = tenant_plans(&t, 3, 4);
    let hot = |vm: usize| move |i: usize| if i == vm { 8.0 } else { 1.0 };
    let timeline = DynamicTimeline::new(vec![
        sweep_problem(&t, &plans, hot(0)),
        sweep_problem(&t, &plans, hot(3)),
        sweep_problem(&t, &other, hot(3)),
        sweep_problem(&t, &plans, hot(0)),
    ])
    .expect("timeline");
    let policy = ReconfigPolicy {
        switch_overhead_seconds: 0.002,
        min_relative_gain: 0.01,
        ..ReconfigPolicy::new(cfg(4))
    };
    let outcome = run_dynamic(&timeline, &model, policy).expect("run_dynamic");
    for (i, phase) in outcome.phases.iter().enumerate() {
        writeln!(
            out,
            "dynamic phase {i} alloc={} cost={:016x} reconfigured={}",
            allocation_bits(&phase.allocation),
            phase.cost.to_bits(),
            phase.reconfigured,
        )
        .expect("write");
    }
    writeln!(
        out,
        "dynamic total={:016x} reconfigurations={} equal={:016x} first={:016x}",
        outcome.total_cost.to_bits(),
        outcome.reconfigurations,
        outcome.static_equal_cost.to_bits(),
        outcome.static_first_phase_cost.to_bits(),
    )
    .expect("write");
}

// ---------------------------------------------------------------------
// The joint design advisor and its marginals
// ---------------------------------------------------------------------

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

fn joint_lines(out: &mut String, label: &str, advisor: &DesignAdvisor<'_>, p: &DesignProblem<'_>) {
    let runs: [(&str, JointRecommendation); 3] = [
        ("joint", advisor.advise(p).expect("advise")),
        (
            "index-only",
            advisor.advise_index_only(p).expect("index-only"),
        ),
        (
            "allocation-only",
            advisor.advise_allocation_only(p).expect("allocation-only"),
        ),
    ];
    for (mode, r) in runs {
        assert_eq!(r.mode, mode);
        let masks: Vec<u64> = r.per_vm.iter().map(|d| d.mask).collect();
        writeln!(
            out,
            "{label} {mode} cells={:?} masks={masks:?} obj={:016x} history={} lp={:016x} \
             alternations={} evals={} fp={:016x}",
            r.cells,
            r.objective.to_bits(),
            bits(&r.alternation_objectives),
            r.lp_bound.to_bits(),
            r.alternations,
            r.evaluations,
            r.fingerprint,
        )
        .expect("write");
    }
}

fn render_design(out: &mut String) {
    let grid_at = |units: u32, disk_share: f64| {
        let points: Vec<f64> = (1..=units).map(|u| u as f64 / units as f64).collect();
        CalibrationGrid::calibrate(design_machine(), points.clone(), points, disk_share)
            .expect("design grid")
    };
    let point = |t: TableId, col: usize, k: i64| {
        LogicalPlan::scan_filtered(t, Expr::eq(Expr::col(col), Expr::int(k)))
    };

    // Two VMs at four units: point queries against near-full scans.
    let (db1, t1) = two_col_db(20_000, 100);
    let (db2, t2) = two_col_db(20_000, 100);
    let duo = DesignProblem::new(
        design_machine(),
        vec![
            WorkloadSpec::new(
                "points".to_string(),
                &db1,
                vec![point(t1, 0, 7), point(t1, 0, 4242), point(t1, 0, 19_000)],
            ),
            WorkloadSpec::new(
                "scans".to_string(),
                &db2,
                vec![
                    LogicalPlan::scan_filtered(t2, Expr::lt(Expr::col(0), Expr::int(19_900))),
                    LogicalPlan::scan_filtered(t2, Expr::gt(Expr::col(0), Expr::int(100))),
                ],
            ),
        ],
    )
    .expect("duo");
    let grid = grid_at(4, 0.5);
    let cfg = DesignConfig::new(4, 2).with_budget(1024);
    joint_lines(out, "design duo", &DesignAdvisor::new(&grid, cfg), &duo);

    // Three weighted VMs at six units, a tight page budget, two-column
    // predicates (pair configs matter) and a floor of one unit.
    let (db3, t3) = two_col_db(12_000, 40);
    let trio = DesignProblem::new(
        design_machine(),
        vec![
            WorkloadSpec::new(
                "points".to_string(),
                &db1,
                vec![point(t1, 0, 11), point(t1, 1, 42), point(t1, 0, 15_000)],
            )
            .with_weight(2.0),
            WorkloadSpec::new(
                "mixed".to_string(),
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
                "scans".to_string(),
                &db2,
                vec![LogicalPlan::scan_filtered(
                    t2,
                    Expr::lt(Expr::col(0), Expr::int(18_000)),
                )],
            ),
        ],
    )
    .expect("trio");
    let grid = grid_at(6, 1.0 / 3.0);
    for budget in [96u64, 1024] {
        let cfg = DesignConfig::new(6, 3).with_budget(budget);
        let label = format!("design trio budget={budget}");
        joint_lines(out, &label, &DesignAdvisor::new(&grid, cfg), &trio);
    }
}

pub fn render() -> String {
    let mut out = String::new();
    render_ripple(&mut out);
    render_calibrated(&mut out);
    render_design(&mut out);
    out
}

#[test]
fn every_search_path_answers_the_committed_bits() {
    common::assert_golden(GOLDEN, &render());
}
