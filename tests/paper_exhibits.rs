//! The paper's exhibits — Figures 3, 4 and 5 — and the extension
//! experiments run on the same machine and database: EXT-SEARCH,
//! EXT-CONSOL, EXT-DYNAMIC, EXT-ABLATION and EXT-RESOLUTION.
//!
//! Claims, on every `cargo test`:
//!
//! * **Figure 3:** calibrated `cpu_tuple_cost` at 25 % CPU ÷ at 75 % lies in
//!   [2.5, 3.5]; the memory axis is flat (the documented deviation).
//! * **Figure 4:** Q13's 25 %→75 % time ratio is ≥ 2 and Q4's ≤ 1.2, in
//!   estimates and in measurements; every normalized estimate is within 5 %
//!   of the normalized actual; two-copy workloads rank the CPU shares alike
//!   in both views, and a memory share helps Q13 in both views.
//! * **Figure 5:** at 75/25, the Q13 workload improves by 25–40 % and the
//!   Q4 workload slows by at most 10 %.
//! * **EXT-SEARCH:** DP equals exhaustive search bit for bit, and its pick
//!   measures no worse than the equal split.
//! * **EXT-CONSOL:** the advice beats the equal split on measured time, and
//!   the M = 1 fleet placement equals the advisor's recommendation.
//! * **EXT-DYNAMIC:** reconfiguring beats both static baselines.
//! * **EXT-ABLATION:** calibrated parameters rank allocations better than
//!   PostgreSQL's defaults and find the measured-best one.
//! * **EXT-RESOLUTION:** on EXT-SEARCH, EXT-CONSOL and Figure 5's pair, the
//!   DP's advice on a 16-unit lattice measures no worse than on the 8-unit
//!   one; the pair's 8-unit advice is the paper's 75/25 CPU split, and its
//!   16-unit advice beats that split on both workloads.
//!
//! Every exhibit's rows, the figures the claims read included, are compared
//! with `tests/golden/exhibits.txt`. Each exhibit is computed once per
//! process over one shared TPC-H database;
//! `cargo test --release --test paper_exhibits -- --nocapture` prints the
//! tables.

mod common;

use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::dynamic::{run_dynamic, DynamicTimeline, ReconfigPolicy};
use dbvirt::core::measure::{measure_concurrent_seconds, measure_workload_seconds};
use dbvirt::core::metrics::{equal_split_costs, normalize_to};
use dbvirt::core::{
    CalibratedCostModel, DesignProblem, SearchAlgorithm, SearchConfig, VirtualizationAdvisor,
    WorkloadSpec,
};
use dbvirt::engine::Database;
use dbvirt::fleet::{FleetAdvisor, FleetConfig, FleetProblem, FleetVm};
use dbvirt::optimizer::{plan_query, LogicalPlan, OptimizerParams};
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt::vmm::sched::SchedMode;
use dbvirt::vmm::{AllocationMatrix, ResourceVector, Share};
use dbvirt_bench::{experiment_machine, fmt3, fmt_pct, measure_query_warm, print_table};
use std::fmt::Write;
use std::sync::OnceLock;

const GOLDEN: &str = "tests/golden/exhibits.txt";

/// The experiments' TPC-H database (SF 0.02), generated once per process.
/// Execution only reads it, so every exhibit and tenant shares it.
fn tpch() -> &'static TpchDb {
    static TPCH: OnceLock<TpchDb> = OnceLock::new();
    TPCH.get_or_init(|| TpchDb::generate(TpchConfig::experiment()).expect("TPC-H generation"))
}

/// The lattices EXT-RESOLUTION compares, in units per resource; every
/// other exhibit searches the first.
const RESOLUTIONS: [u32; 3] = [8, 16, 32];

/// The advisor for `n` workloads at `units` units per resource, calibrated
/// once per process on a grid whose axes are that lattice's points, so no
/// cell is interpolated: EXT-SEARCH, EXT-DYNAMIC and EXT-RESOLUTION's pair
/// share the two-workload ones.
fn advisor(n: usize, units: u32) -> &'static VirtualizationAdvisor {
    static ADVISORS: [OnceLock<VirtualizationAdvisor>; 6] = [const { OnceLock::new() }; 6];
    let row = match n {
        2 => 0,
        4 => 1,
        _ => unreachable!("no exhibit consolidates {n} workloads"),
    };
    let Some(col) = RESOLUTIONS.iter().position(|&u| u == units) else {
        unreachable!("no exhibit searches {units} units")
    };
    ADVISORS[row * RESOLUTIONS.len() + col]
        .get_or_init(|| VirtualizationAdvisor::calibrate(experiment_machine(), n, units).unwrap())
}

/// One VM per workload, all over the one database.
fn design_problem(mixes: &[Workload]) -> DesignProblem<'static> {
    let specs = mixes
        .iter()
        .map(|w| WorkloadSpec::new(w.name.clone(), &tpch().db, w.queries.clone()))
        .collect();
    DesignProblem::new(experiment_machine(), specs).unwrap()
}

/// Each workload run alone under its row of `alloc`: the model's
/// `Cost(W, R)`, one entry per workload.
fn measure_solo(mixes: &[Workload], alloc: &AllocationMatrix) -> Vec<f64> {
    let (machine, t) = (experiment_machine(), tpch());
    mixes
        .iter()
        .enumerate()
        .map(|(i, w)| measure_workload_seconds(&t.db, &w.queries, machine, alloc.row(i)).unwrap())
        .collect()
}

/// How an exhibit measures an allocation: [`measure_solo`] or
/// [`measure_corun`].
type Measure = fn(&[Workload], &AllocationMatrix) -> Vec<f64>;

/// The workloads co-run on one machine under capped shares, each in its
/// own VM: the completion time of each.
fn measure_corun(mixes: &[Workload], alloc: &AllocationMatrix) -> Vec<f64> {
    let (machine, t) = (experiment_machine(), tpch());
    let dbs = vec![&t.db; mixes.len()];
    let queries: Vec<&[LogicalPlan]> = mixes.iter().map(|w| &w.queries[..]).collect();
    measure_concurrent_seconds(&dbs, &queries, machine, alloc, SchedMode::Capped).unwrap()
}

/// The paper's what-if estimate of `workload` under `p`: each query
/// re-optimized under `p`, the estimates summed in order.
fn estimate_seconds(db: &Database, workload: &[LogicalPlan], p: &OptimizerParams) -> f64 {
    (workload.iter())
        .map(|q| plan_query(db, q, p).unwrap().est_seconds())
        .sum()
}

fn shares(cpu: f64, mem: f64, disk: f64) -> ResourceVector {
    ResourceVector::from_fractions(cpu, mem, disk).unwrap()
}

/// One table of an exhibit: printed under `--nocapture`, and one golden
/// line per row, prefixed by `key`.
struct Table {
    key: &'static str,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(key: &'static str, title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            key,
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn print(&self) {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        print_table(&self.title, &headers, &self.rows);
    }

    fn render(&self, out: &mut String) {
        for row in &self.rows {
            writeln!(out, "{} {}", self.key, row.join(" | ")).unwrap();
        }
    }
}

fn print_all(tables: &[Table]) {
    tables.iter().for_each(Table::print);
}

fn secs(v: f64) -> String {
    format!("{v:.3}s")
}

fn split(a: &AllocationMatrix, what: &str, f: impl Fn(ResourceVector) -> Share) -> String {
    let parts: Vec<String> = a
        .rows()
        .map(|r| format!("{:.0}", f(*r).percent()))
        .collect();
    format!("{what} {}%", parts.join("/"))
}

fn cpu_split(a: &AllocationMatrix) -> String {
    split(a, "cpu", |r| r.cpu())
}

fn mem_split(a: &AllocationMatrix) -> String {
    split(a, "mem", |r| r.memory())
}

// ---------------------------------------------------------------------------
// Figure 3 — calibrated `cpu_tuple_cost` vs CPU and memory share.

struct Fig3 {
    /// `cpu_tuple_cost` at 25 % CPU ÷ at 75 %, memory at 50 %.
    ratio: f64,
    /// Whether every CPU share calibrates the same `cpu_tuple_cost` at
    /// every memory share.
    memory_axis_flat: bool,
    tables: Vec<Table>,
}

fn fig3() -> &'static Fig3 {
    static FIG3: OnceLock<Fig3> = OnceLock::new();
    FIG3.get_or_init(|| {
        let cpu_points = vec![0.25, 0.375, 0.5, 0.625, 0.75];
        let mem_points = vec![0.25, 0.5, 0.75];
        let grid = CalibrationGrid::calibrate(
            experiment_machine(),
            cpu_points.clone(),
            mem_points.clone(),
            0.5,
        )
        .unwrap();

        let mem_headers: Vec<String> = mem_points
            .iter()
            .map(|m| format!("mem {:.0}%", m * 100.0))
            .collect();
        let mut surface = Table::new(
            "fig3",
            "Figure 3: calibrated cpu_tuple_cost (fraction of a sequential page fetch)",
            &["cpu share"],
        );
        surface.headers.extend(mem_headers);
        let mut params = Table::new(
            "fig3-p",
            "Full calibrated P at mem=50%",
            &[
                "cpu share",
                "unit (us)",
                "random_page",
                "cpu_tuple",
                "cpu_index_tuple",
                "cpu_operator",
            ],
        );
        let mut memory_axis_flat = true;
        for (ci, cpu) in cpu_points.iter().enumerate() {
            let share = format!("{:.1}%", cpu * 100.0);
            let costs: Vec<f64> = (0..mem_points.len())
                .map(|mi| grid.at_point(ci, mi).cpu_tuple_cost)
                .collect();
            memory_axis_flat &= costs.iter().all(|c| c.to_bits() == costs[0].to_bits());
            let mut row = vec![share.clone()];
            row.extend(costs.iter().map(|c| format!("{c:.5}")));
            surface.rows.push(row);

            let p = grid.at_point(ci, 1);
            params.rows.push(vec![
                share,
                format!("{:.1}", p.unit_seconds * 1e6),
                format!("{:.2}", p.random_page_cost),
                format!("{:.5}", p.cpu_tuple_cost),
                format!("{:.5}", p.cpu_index_tuple_cost),
                format!("{:.5}", p.cpu_operator_cost),
            ]);
        }
        let ratio = grid.at_point(0, 1).cpu_tuple_cost
            / grid.at_point(cpu_points.len() - 1, 1).cpu_tuple_cost;
        let mut shape = Table::new(
            "fig3-shape",
            "Figure 3 shape (pure 1/share dilation predicts 3.0)",
            &["cpu_tuple_cost 25% / 75%", "memory axis"],
        );
        let axis = if memory_axis_flat { "flat" } else { "tilted" };
        shape
            .rows
            .push(vec![format!("{ratio:.2}"), axis.to_string()]);
        Fig3 {
            ratio,
            memory_axis_flat,
            tables: vec![surface, params, shape],
        }
    })
}

#[test]
fn fig3_calibration_detects_the_cpu_share() {
    let f = fig3();
    print_all(&f.tables);
    assert!(
        (2.5..=3.5).contains(&f.ratio),
        "cpu_tuple_cost(25%) / cpu_tuple_cost(75%) = {:.3}, outside [2.5, 3.5]",
        f.ratio
    );
    // The documented deviation (EXPERIMENTS.md, Figure 3): the probes are
    // cold-cache and scan-dominated, so memory reaches `P` only through
    // `effective_cache_size` and `work_mem`, not `cpu_tuple_cost`.
    assert!(f.memory_axis_flat, "the memory axis is no longer flat");
}

// ---------------------------------------------------------------------------
// Figure 4 — Q4 and Q13 against the CPU share, estimated vs actual.

const FIG4_CPU: [f64; 3] = [0.25, 0.5, 0.75];

struct Fig4Query {
    query: TpchQuery,
    /// Estimated and warm measured seconds of one run, per CPU share.
    estimated: Vec<f64>,
    actual: Vec<f64>,
    /// Both normalized to the 50 % share.
    est_norm: Vec<f64>,
    act_norm: Vec<f64>,
    /// Estimated and measured seconds of the two-copy workload `[q, q]`
    /// (cold run, then warm), per CPU share.
    pair_est: Vec<f64>,
    pair_act: Vec<f64>,
}

struct Fig4 {
    queries: Vec<Fig4Query>,
    tables: Vec<Table>,
}

/// `t(25 %) / t(75 %)`.
fn sensitivity(v: &[f64]) -> f64 {
    v[0] / v[2]
}

fn fig4() -> &'static Fig4 {
    static FIG4: OnceLock<Fig4> = OnceLock::new();
    FIG4.get_or_init(|| {
        let (machine, t) = (experiment_machine(), tpch());
        let grid = CalibrationGrid::calibrate(machine, FIG4_CPU.to_vec(), vec![0.5], 0.5).unwrap();
        let mut main = Table::new(
            "fig4",
            "Figure 4: Q4/Q13 sensitivity to CPU share (memory fixed at 50%), normalized to the 50% allocation",
            &["query", "cpu", "estimated(norm)", "actual(norm)", "est(abs)", "act(abs)"],
        );
        let mut pairs = Table::new(
            "fig4-pair",
            "Figure 4, two-copy workloads (cold run, then warm)",
            &["query", "cpu", "estimated", "measured"],
        );
        let mut shape = Table::new(
            "fig4-shape",
            "Figure 4 shape (paper: Q4 ~flat, Q13 ~2x; est/act at 50% is the absolute error, a known fault)",
            &["query", "actual 25%/75%", "estimated 25%/75%", "est/act at 50%"],
        );
        let mut queries = Vec::new();
        for query in [TpchQuery::Q4, TpchQuery::Q13] {
            let logical = query.plan(t);
            let pair = [logical.clone(), logical.clone()];
            let mut q = Fig4Query {
                query,
                estimated: Vec::new(),
                actual: Vec::new(),
                est_norm: Vec::new(),
                act_norm: Vec::new(),
                pair_est: Vec::new(),
                pair_act: Vec::new(),
            };
            for cpu in FIG4_CPU {
                let shares = shares(cpu, 0.5, 0.5);
                let params = grid.params_for(shares).unwrap();
                q.estimated
                    .push(plan_query(&t.db, &logical, &params).unwrap().est_seconds());
                q.actual
                    .push(measure_query_warm(&t.db, &logical, machine, shares).unwrap());
                q.pair_est.push(estimate_seconds(&t.db, &pair, &params));
                q.pair_act
                    .push(measure_workload_seconds(&t.db, &pair, machine, shares).unwrap());
            }
            q.est_norm = normalize_to(&q.estimated, 1).unwrap();
            q.act_norm = normalize_to(&q.actual, 1).unwrap();
            for (i, cpu) in FIG4_CPU.iter().enumerate() {
                let cpu = format!("{:.0}%", cpu * 100.0);
                main.rows.push(vec![
                    query.to_string(),
                    cpu.clone(),
                    fmt3(q.est_norm[i]),
                    fmt3(q.act_norm[i]),
                    secs(q.estimated[i]),
                    secs(q.actual[i]),
                ]);
                pairs.rows.push(vec![
                    query.to_string(),
                    cpu,
                    secs(q.pair_est[i]),
                    secs(q.pair_act[i]),
                ]);
            }
            shape.rows.push(vec![
                query.to_string(),
                format!("{:.2}", sensitivity(&q.act_norm)),
                format!("{:.2}", sensitivity(&q.est_norm)),
                fmt3(q.estimated[1] / q.actual[1]),
            ]);
            queries.push(q);
        }
        Fig4 {
            queries,
            tables: vec![main, pairs, shape],
        }
    })
}

#[test]
fn fig4_q13_is_cpu_sensitive_and_q4_is_not() {
    let f = fig4();
    print_all(&f.tables);
    for q in &f.queries {
        let views = [("actual", &q.act_norm), ("estimated", &q.est_norm)];
        for (view, norm) in views {
            let ratio = sensitivity(norm);
            match q.query {
                TpchQuery::Q13 => assert!(ratio >= 2.0, "Q13 {view} 25%/75% = {ratio:.3} < 2"),
                _ => assert!(
                    ratio <= 1.2,
                    "{} {view} 25%/75% = {ratio:.3} > 1.2",
                    q.query
                ),
            }
        }
        for (i, (est, act)) in q.est_norm.iter().zip(&q.act_norm).enumerate() {
            let err = (est - act).abs() / act;
            assert!(
                err <= 0.05,
                "{} at {:.0}% CPU: normalized estimate {est:.4} vs actual {act:.4}",
                q.query,
                FIG4_CPU[i] * 100.0
            );
        }
    }
}

fn ranking(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    idx
}

/// The property the design search depends on: on two-copy workloads, the
/// calibrated model orders the CPU shares as execution does, and more CPU
/// never makes anything slower.
#[test]
fn fig4_estimates_rank_allocations_as_measurements_do() {
    let f = fig4();
    for q in &f.queries {
        let (est, act) = (&q.pair_est, &q.pair_act);
        assert_eq!(
            ranking(est),
            ranking(act),
            "{}: estimated {est:?} vs measured {act:?}",
            q.query
        );
        assert!(
            est.windows(2).all(|w| w[0] >= w[1]),
            "{} est {est:?}",
            q.query
        );
        assert!(
            act.windows(2).all(|w| w[0] >= w[1]),
            "{} act {act:?}",
            q.query
        );
    }
}

/// The Figure 4 contrast on two-copy workloads: Q13 is far more
/// CPU-sensitive than Q4, in estimates and in measurements.
#[test]
fn fig4_q13_is_more_cpu_sensitive_than_q4_in_both_views() {
    let f = fig4();
    let [q4, q13] = &f.queries[..] else {
        unreachable!("Figure 4 runs Q4 and Q13")
    };
    for (view, q4, q13) in [
        (
            "estimated",
            sensitivity(&q4.pair_est),
            sensitivity(&q13.pair_est),
        ),
        (
            "measured",
            sensitivity(&q4.pair_act),
            sensitivity(&q13.pair_act),
        ),
    ] {
        assert!(q13 > q4 + 0.3, "{view} sensitivities: Q4 {q4} vs Q13 {q13}");
    }
}

// ---------------------------------------------------------------------------
// Figure 4's memory axis: a cacheable workload in both views.

struct MemoryAxis {
    /// `[Q13, Q13]` at 12.5 % and at 75 % memory, CPU at 50 %.
    estimated: [f64; 2],
    measured: [f64; 2],
    tables: Vec<Table>,
}

fn memory_axis() -> &'static MemoryAxis {
    static MEMORY: OnceLock<MemoryAxis> = OnceLock::new();
    MEMORY.get_or_init(|| {
        let (machine, t) = (experiment_machine(), tpch());
        let mem_points = [0.125, 0.75];
        let grid =
            CalibrationGrid::calibrate(machine, vec![0.5], mem_points.to_vec(), 0.5).unwrap();
        let workload = [TpchQuery::Q13.plan(t), TpchQuery::Q13.plan(t)];
        let mut table = Table::new(
            "memory",
            "Memory axis: 2xQ13 at 50% CPU",
            &["memory", "estimated", "measured"],
        );
        let (mut estimated, mut measured) = ([0.0; 2], [0.0; 2]);
        for (i, mem) in mem_points.into_iter().enumerate() {
            let shares = shares(0.5, mem, 0.5);
            let params = grid.params_for(shares).unwrap();
            estimated[i] = estimate_seconds(&t.db, &workload, &params);
            measured[i] = measure_workload_seconds(&t.db, &workload, machine, shares).unwrap();
            table.rows.push(vec![
                format!("{:.1}%", mem * 100.0),
                secs(estimated[i]),
                secs(measured[i]),
            ]);
        }
        MemoryAxis {
            estimated,
            measured,
            tables: vec![table],
        }
    })
}

/// Q13's working set (orders + customer) fits a 75 % cache but not a
/// 12.5 % one on the experiment machine.
#[test]
fn memory_share_matters_to_both_views_for_a_cacheable_workload() {
    let m = memory_axis();
    print_all(&m.tables);
    let (est, act) = (m.estimated, m.measured);
    assert!(
        est[0] > est[1] * 1.1,
        "estimates should favor more memory: {est:?}"
    );
    assert!(
        act[0] > act[1] * 1.1,
        "measurements should favor more memory: {act:?}"
    );
}

// ---------------------------------------------------------------------------
// Figure 5 — two co-scheduled workloads, equal split vs 75 % CPU to Q13.

struct Fig5 {
    /// W1 (3×Q4) and W2 (Q13, as many copies as balance W1 at 50/50).
    mixes: [Workload; 2],
    /// W1's and W2's co-run completion times at the paper's 75/25 split.
    paper_split: Vec<f64>,
    /// `1 - W2(75/25) / W2(50/50)`.
    q13_improvement: f64,
    /// `W1(75/25) / W1(50/50) - 1`.
    q4_change: f64,
    tables: Vec<Table>,
}

fn fig5() -> &'static Fig5 {
    static FIG5: OnceLock<Fig5> = OnceLock::new();
    FIG5.get_or_init(|| {
        let (machine, t) = (experiment_machine(), tpch());
        // Balance the workloads at the default split, as the paper does:
        // 3 copies of Q4, and as many of Q13 as take about as long at 50/50.
        let half = shares(0.5, 0.5, 0.5);
        let q4_secs = measure_query_warm(&t.db, &TpchQuery::Q4.plan(t), machine, half).unwrap();
        let q13_secs = measure_query_warm(&t.db, &TpchQuery::Q13.plan(t), machine, half).unwrap();
        let n_q4 = 3usize;
        let n_q13 = ((n_q4 as f64 * q4_secs / q13_secs).round() as usize).max(1);
        let w1 = Workload::compose(t, &[(TpchQuery::Q4, n_q4)]);
        let w2 = Workload::compose(t, &[(TpchQuery::Q13, n_q13)]);
        let mut balance = Table::new(
            "fig5-balance",
            "Figure 5: workloads balanced at 50/50 (paper: 3xQ4 vs 9xQ13)",
            &["Q4 warm", "Q13 warm", "W1", "W2"],
        );
        balance.rows.push(vec![
            secs(q4_secs),
            secs(q13_secs),
            w1.name.clone(),
            w2.name.clone(),
        ]);

        let equal = AllocationMatrix::equal_split(2).unwrap();
        let skewed =
            AllocationMatrix::new(vec![shares(0.25, 0.5, 0.5), shares(0.75, 0.5, 0.5)]).unwrap();
        let w1_header = format!("W1 ({})", w1.name);
        let w2_header = format!("W2 ({})", w2.name);
        let mut runs = Table::new(
            "fig5",
            "Figure 5: co-scheduled workload completion times",
            &["allocation", &w1_header, &w2_header],
        );
        let mixes = [w1, w2];
        let mut times = Vec::new();
        for (label, alloc) in [("default 50/50", &equal), ("75% CPU to Q13", &skewed)] {
            let run = measure_corun(&mixes, alloc);
            runs.rows
                .push(vec![label.to_string(), secs(run[0]), secs(run[1])]);
            times.push(run);
        }
        let q13_improvement = 1.0 - times[1][1] / times[0][1];
        let q4_change = times[1][0] / times[0][0] - 1.0;
        let mut shape = Table::new(
            "fig5-shape",
            "Figure 5 shape at 75/25 (paper: ~30% for Q13 'without hurting' Q4)",
            &["W2 improvement", "W1 change"],
        );
        shape
            .rows
            .push(vec![fmt_pct(q13_improvement), fmt_pct(q4_change)]);
        Fig5 {
            paper_split: times.swap_remove(1),
            mixes,
            q13_improvement,
            q4_change,
            tables: vec![balance, runs, shape],
        }
    })
}

#[test]
fn fig5_giving_q13_the_cpu_helps_it_without_hurting_q4() {
    let f = fig5();
    print_all(&f.tables);
    assert!(
        (0.25..=0.40).contains(&f.q13_improvement),
        "W2 (Q13) improves by {}, outside 25-40%",
        fmt_pct(f.q13_improvement)
    );
    assert!(
        f.q4_change <= 0.10,
        "W1 (Q4) slows by {}, more than 10%",
        fmt_pct(f.q4_change)
    );
}

// ---------------------------------------------------------------------------
// EXT-SEARCH — exhaustive, greedy and DP on one two-workload problem.

struct ExtSearch {
    exhaustive: dbvirt::core::Recommendation,
    dp: dbvirt::core::Recommendation,
    /// Measured total of DP's pick and of the equal split.
    measured_dp: f64,
    measured_equal: f64,
    tables: Vec<Table>,
}

/// EXT-SEARCH's workloads: I/O-bound 3×Q4 against CPU-bound 9×Q13.
fn search_mixes() -> [Workload; 2] {
    let t = tpch();
    [
        Workload::compose(t, &[(TpchQuery::Q4, 3)]),
        Workload::compose(t, &[(TpchQuery::Q13, 9)]),
    ]
}

fn ext_search() -> &'static ExtSearch {
    static SEARCH: OnceLock<ExtSearch> = OnceLock::new();
    SEARCH.get_or_init(|| {
        let advisor = advisor(2, RESOLUTIONS[0]);
        let mixes = search_mixes();
        let [w_io, w_cpu] = &mixes;
        let problem = design_problem(&mixes);
        let model = CalibratedCostModel::new(advisor.grid());
        let equal_total: f64 = equal_split_costs(&problem, &model).unwrap().iter().sum();

        // Measured validation: each workload solo under its shares, summed
        // (the model's Cost(W, R)).
        let measure_total =
            |alloc: &AllocationMatrix| -> f64 { measure_solo(&mixes, alloc).into_iter().sum() };
        let equal = AllocationMatrix::equal_split(2).unwrap();
        let measured_equal = measure_total(&equal);

        let mut table = Table::new(
            "search",
            format!(
                "EXT-SEARCH: algorithms on W1={} vs W2={} (8 units/resource)",
                w_io.name, w_cpu.name
            ),
            &[
                "algorithm",
                "predicted total",
                "measured total",
                "measured vs equal",
                "cpu split",
                "mem split",
                "evaluations",
            ],
        );
        let mut recs = Vec::new();
        let mut measured_dp = f64::NAN;
        for alg in [
            SearchAlgorithm::Exhaustive,
            SearchAlgorithm::Greedy,
            SearchAlgorithm::DynamicProgramming,
        ] {
            let rec = advisor.recommend(&problem, alg).unwrap();
            let measured = measure_total(&rec.allocation);
            if alg == SearchAlgorithm::DynamicProgramming {
                measured_dp = measured;
            }
            table.rows.push(vec![
                rec.algorithm.to_string(),
                secs(rec.total_cost),
                secs(measured),
                format!("{:.2}x", measured_equal / measured),
                cpu_split(&rec.allocation),
                mem_split(&rec.allocation),
                rec.evaluations.to_string(),
            ]);
            recs.push(rec);
        }
        table.rows.push(vec![
            "equal split (baseline)".to_string(),
            secs(equal_total),
            secs(measured_equal),
            "1.00x".to_string(),
            cpu_split(&equal),
            mem_split(&equal),
            "2".to_string(),
        ]);
        let dp = recs.pop().unwrap();
        let exhaustive = recs.swap_remove(0);
        ExtSearch {
            exhaustive,
            dp,
            measured_dp,
            measured_equal,
            tables: vec![table],
        }
    })
}

#[test]
fn ext_search_dp_is_exhaustive_and_measures_no_worse_than_equal() {
    let s = ext_search();
    print_all(&s.tables);
    assert_eq!(s.dp.allocation, s.exhaustive.allocation);
    assert_eq!(s.dp.objective.to_bits(), s.exhaustive.objective.to_bits());
    assert_eq!(s.dp.total_cost.to_bits(), s.exhaustive.total_cost.to_bits());
    assert!(
        s.measured_dp <= s.measured_equal,
        "DP's pick measures {:.3}s, the equal split {:.3}s",
        s.measured_dp,
        s.measured_equal
    );
}

// ---------------------------------------------------------------------------
// EXT-CONSOL — four heterogeneous workloads on one machine.

struct ExtConsol {
    measured_advice: f64,
    measured_equal: f64,
    tables: Vec<Table>,
}

/// EXT-CONSOL's four heterogeneous workloads.
fn consol_mixes() -> [Workload; 4] {
    let t = tpch();
    [
        Workload::compose(t, &[(TpchQuery::Q4, 2)]), // I/O-bound
        Workload::compose(t, &[(TpchQuery::Q13, 15)]), // CPU-bound
        Workload::compose(t, &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 2)]), // mixed scan
        Workload::compose(t, &[(TpchQuery::Q3, 1), (TpchQuery::Q14, 1)]), // mixed join
    ]
}

fn ext_consol() -> &'static ExtConsol {
    static CONSOL: OnceLock<ExtConsol> = OnceLock::new();
    CONSOL.get_or_init(|| {
        let (machine, t) = (experiment_machine(), tpch());
        let (n, units) = (4, RESOLUTIONS[0]);
        let advisor = advisor(n, units);
        let mixes = consol_mixes();
        let problem = design_problem(&mixes);
        let rec = advisor
            .recommend(&problem, SearchAlgorithm::DynamicProgramming)
            .unwrap();
        let model = CalibratedCostModel::new(advisor.grid());
        let equal_costs = equal_split_costs(&problem, &model).unwrap();

        // The degenerate fleet: the same consolidation placed on M = 1
        // machine reproduces the recommendation bit for bit.
        let fleet_cfg = FleetConfig::new(units)
            .with_disk_share(1.0 / n as f64)
            .with_parallelism(1);
        let fleet = FleetAdvisor::new(vec![machine], vec![&model], fleet_cfg).unwrap();
        let fleet_problem = FleetProblem::new(
            vec![machine],
            mixes
                .iter()
                .map(|w| FleetVm::new(w.name.clone(), &t.db, w.queries.clone()))
                .collect(),
        )
        .unwrap();
        let placement = fleet.place(&fleet_problem).unwrap().placement;
        assert!(
            placement.machine_of.iter().all(|&m| m == 0),
            "fleet M=1: some VM left the only machine"
        );
        assert_eq!(
            placement.steady_objective.to_bits(),
            rec.objective.to_bits(),
            "fleet M=1 objective differs from the single-machine recommendation"
        );
        for (i, row) in rec.allocation.rows().enumerate() {
            let cpu = (row.cpu().fraction() * units as f64).round() as u32;
            let mem = (row.memory().fraction() * units as f64).round() as u32;
            assert_eq!(
                placement.units_of[i],
                (cpu, mem),
                "fleet M=1: workload {i} units differ from the recommendation"
            );
        }

        let equal_shares = ResourceVector::uniform(Share::new(1.0 / n as f64).unwrap());
        let mut table = Table::new(
            "consol",
            "EXT-CONSOL: 4-workload consolidation, advisor (DP) vs equal split",
            &[
                "workload",
                "recommended shares",
                "pred (rec)",
                "pred (equal)",
                "measured (rec)",
                "measured (equal)",
            ],
        );
        let (mut measured_advice, mut measured_equal) = (0.0, 0.0);
        for (i, w) in mixes.iter().enumerate() {
            let rec_shares = rec.allocation.row(i);
            let advised = measure_workload_seconds(&t.db, &w.queries, machine, rec_shares).unwrap();
            let equal = measure_workload_seconds(&t.db, &w.queries, machine, equal_shares).unwrap();
            measured_advice += advised;
            measured_equal += equal;
            table.rows.push(vec![
                w.name.clone(),
                format!(
                    "cpu {:.0}% mem {:.0}%",
                    rec_shares.cpu().percent(),
                    rec_shares.memory().percent()
                ),
                secs(rec.per_workload_costs[i]),
                secs(equal_costs[i]),
                secs(advised),
                secs(equal),
            ]);
        }
        let predicted_equal: f64 = equal_costs.iter().sum();
        table.rows.push(vec![
            "total".to_string(),
            "-".to_string(),
            secs(rec.total_cost),
            secs(predicted_equal),
            secs(measured_advice),
            secs(measured_equal),
        ]);
        ExtConsol {
            measured_advice,
            measured_equal,
            tables: vec![table],
        }
    })
}

#[test]
fn ext_consol_advice_beats_the_equal_split_on_measured_time() {
    let c = ext_consol();
    print_all(&c.tables);
    assert!(
        c.measured_advice < c.measured_equal,
        "advice measures {:.3}s, the equal split {:.3}s",
        c.measured_advice,
        c.measured_equal
    );
}

// ---------------------------------------------------------------------------
// EXT-DYNAMIC — a day/night timeline over two persistent VMs.

struct ExtDynamic {
    outcome: dbvirt::core::dynamic::DynamicOutcome,
    tables: Vec<Table>,
}

fn ext_dynamic() -> &'static ExtDynamic {
    static DYNAMIC: OnceLock<ExtDynamic> = OnceLock::new();
    DYNAMIC.get_or_init(|| {
        let t = tpch();
        let model = CalibratedCostModel::new(advisor(2, RESOLUTIONS[0]).grid());
        // Day: VM 1 serves a CPU-bound Q13 mix, VM 2 light scans; at night
        // VM 2 runs heavy batch reports.
        let day = [
            Workload::compose(t, &[(TpchQuery::Q13, 12)]),
            Workload::compose(t, &[(TpchQuery::Q6, 1)]),
        ];
        let night = [
            Workload::compose(t, &[(TpchQuery::Q6, 1)]),
            Workload::compose(t, &[(TpchQuery::Q1, 2), (TpchQuery::Q13, 8)]),
        ];
        // Two days of day/night alternation.
        let timeline = DynamicTimeline::new(
            [&day, &night, &day, &night]
                .iter()
                .map(|ws| design_problem(&ws[..]))
                .collect(),
        )
        .unwrap();
        let policy = ReconfigPolicy {
            switch_overhead_seconds: 0.5,
            min_relative_gain: 0.05,
            ..ReconfigPolicy::new(SearchConfig::for_workloads(8, 2))
        };
        let outcome = run_dynamic(&timeline, &model, policy).unwrap();

        let mut phases = Table::new(
            "dynamic",
            "EXT-DYNAMIC: day/night timeline, reconfiguration controller",
            &[
                "phase",
                "cpu split",
                "mem split",
                "phase cost",
                "reconfigured",
            ],
        );
        for (i, p) in outcome.phases.iter().enumerate() {
            let label = if i % 2 == 0 { "day" } else { "night" };
            phases.rows.push(vec![
                format!("{i} ({label})"),
                cpu_split(&p.allocation),
                mem_split(&p.allocation),
                secs(p.cost),
                if p.reconfigured { "yes" } else { "-" }.to_string(),
            ]);
        }
        let mut totals = Table::new(
            "dynamic-total",
            "EXT-DYNAMIC totals (0.5s per reconfiguration)",
            &[
                "dynamic",
                "reconfigurations",
                "static equal split",
                "static day-optimal",
            ],
        );
        totals.rows.push(vec![
            secs(outcome.total_cost),
            outcome.reconfigurations.to_string(),
            secs(outcome.static_equal_cost),
            secs(outcome.static_first_phase_cost),
        ]);
        ExtDynamic {
            outcome,
            tables: vec![phases, totals],
        }
    })
}

#[test]
fn ext_dynamic_reconfiguring_beats_both_static_baselines() {
    let d = ext_dynamic();
    print_all(&d.tables);
    let o = &d.outcome;
    for (baseline, cost) in [
        ("static equal split", o.static_equal_cost),
        ("static day-optimal", o.static_first_phase_cost),
    ] {
        assert!(
            o.total_cost < cost,
            "dynamic {:.3}s does not beat {baseline} {cost:.3}s",
            o.total_cost
        );
    }
}

// ---------------------------------------------------------------------------
// EXT-ABLATION — ranking fidelity of ablated cost models.

/// Kendall's tau-a between two equally long score vectors.
fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    // Ties count on neither side (`f64::signum` maps +0.0 to 1.0).
    let sign = |d: f64| if d == 0.0 { 0.0 } else { d.signum() };
    let mut net = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let s = sign(a[i] - a[j]) * sign(b[i] - b[j]);
            net += (s > 0.0) as i64 - (s < 0.0) as i64;
        }
    }
    net as f64 / (n * (n - 1) / 2) as f64
}

fn best(v: &[f64]) -> usize {
    ranking(v)[0]
}

/// One model's fidelity on one query.
struct Fidelity {
    query: TpchQuery,
    model: &'static str,
    tau: f64,
    finds_best: bool,
}

struct ExtAblation {
    fidelity: Vec<Fidelity>,
    tables: Vec<Table>,
}

fn ext_ablation() -> &'static ExtAblation {
    static ABLATION: OnceLock<ExtAblation> = OnceLock::new();
    ABLATION.get_or_init(|| {
        let (machine, t) = (experiment_machine(), tpch());
        let points = [0.25, 0.5, 0.75];
        let grid =
            CalibrationGrid::calibrate(machine, points.to_vec(), points.to_vec(), 0.5).unwrap();
        // Candidate allocations: a CPU x memory grid, disk at 50 %.
        let candidates: Vec<ResourceVector> = points
            .iter()
            .flat_map(|&c| points.iter().map(move |&m| shares(c, m, 0.5)))
            .collect();
        let mut fidelity = Vec::new();
        for query in [TpchQuery::Q4, TpchQuery::Q13, TpchQuery::Q1] {
            let logical = query.plan(t);
            let estimate =
                |p: &OptimizerParams| plan_query(&t.db, &logical, p).unwrap().est_seconds();
            let measured: Vec<f64> = candidates
                .iter()
                .map(|&s| measure_query_warm(&t.db, &logical, machine, s).unwrap())
                .collect();
            // The full method, allocation-blind PostgreSQL defaults, and
            // calibrated parameters with the cache model switched off.
            let calibrated: Vec<f64> = candidates
                .iter()
                .map(|&s| estimate(&grid.params_for(s).unwrap()))
                .collect();
            let blind = vec![estimate(&OptimizerParams::postgres_defaults()); candidates.len()];
            let no_cache: Vec<f64> = candidates
                .iter()
                .map(|&s| {
                    let mut p = *grid.params_for(s).unwrap();
                    p.effective_cache_size_pages = 1.0;
                    estimate(&p)
                })
                .collect();
            for (model, est) in [
                ("calibrated", &calibrated),
                ("pg-defaults", &blind),
                ("no-cache-model", &no_cache),
            ] {
                fidelity.push(Fidelity {
                    query,
                    model,
                    tau: kendall_tau(est, &measured),
                    finds_best: best(est) == best(&measured),
                });
            }
        }
        let mut table = Table::new(
            "ablation",
            "EXT-ABLATION: ranking fidelity of ablated cost models vs measured ground truth \
             (9 candidate allocations, CPU x memory)",
            &["query", "model", "kendall tau", "finds best allocation"],
        );
        for f in &fidelity {
            table.rows.push(vec![
                f.query.to_string(),
                f.model.to_string(),
                format!("{:.2}", f.tau),
                if f.finds_best { "yes" } else { "NO" }.to_string(),
            ]);
        }
        ExtAblation {
            fidelity,
            tables: vec![table],
        }
    })
}

#[test]
fn ext_ablation_calibration_ranks_allocations_and_defaults_cannot() {
    let a = ext_ablation();
    print_all(&a.tables);
    let of = |query, model| {
        a.fidelity
            .iter()
            .find(|f| f.query == query && f.model == model)
            .unwrap()
    };
    for query in [TpchQuery::Q4, TpchQuery::Q13, TpchQuery::Q1] {
        let (calibrated, blind) = (of(query, "calibrated"), of(query, "pg-defaults"));
        assert!(
            calibrated.tau > blind.tau,
            "{query}: calibrated tau {:.2} vs pg-defaults {:.2}",
            calibrated.tau,
            blind.tau
        );
        assert!(
            calibrated.finds_best,
            "{query}: calibrated misses the best allocation"
        );
    }
}

// ---------------------------------------------------------------------------
// EXT-RESOLUTION — what the allocation lattice costs: the DP's advice at 8,
// 16 and 32 units per resource, measured.

/// One problem's DP advice at every resolution, in `RESOLUTIONS` order.
struct Lattice {
    name: &'static str,
    advice: Vec<AllocationMatrix>,
    /// Measured seconds of each advice, one entry per workload.
    measured: Vec<Vec<f64>>,
}

impl Lattice {
    fn measured_total(&self, resolution: usize) -> f64 {
        self.measured[resolution].iter().sum()
    }
}

struct ExtResolution {
    /// EXT-SEARCH, EXT-CONSOL and Figure 5's pair.
    problems: [Lattice; 3],
    tables: Vec<Table>,
}

fn ext_resolution() -> &'static ExtResolution {
    static RESOLUTION: OnceLock<ExtResolution> = OnceLock::new();
    RESOLUTION.get_or_init(|| {
        let mut table = Table::new(
            "resolution",
            "EXT-RESOLUTION: the DP's advice per lattice (solo runs summed; Figure 5's pair co-run, capped)",
            &[
                "problem",
                "units",
                "cpu split",
                "mem split",
                "evaluations",
                "predicted total",
                "measured",
                "measured total",
                "vs 8 units",
            ],
        );
        // EXT-SEARCH and EXT-CONSOL are validated as the model prices them,
        // each workload alone; Figure 5's pair as the paper runs it.
        let cases: [(&str, Vec<Workload>, Measure); 3] = [
            ("EXT-SEARCH", search_mixes().to_vec(), measure_solo),
            ("EXT-CONSOL", consol_mixes().to_vec(), measure_solo),
            ("FIG5-PAIR", fig5().mixes.to_vec(), measure_corun),
        ];
        let problems = cases.map(|(name, mixes, measure)| {
            let problem = design_problem(&mixes);
            let mut lattice = Lattice {
                name,
                advice: Vec::new(),
                measured: Vec::new(),
            };
            for units in RESOLUTIONS {
                let rec = advisor(mixes.len(), units)
                    .recommend(&problem, SearchAlgorithm::DynamicProgramming)
                    .unwrap();
                let measured = measure(&mixes, &rec.allocation);
                let total: f64 = measured.iter().sum();
                let base = lattice.measured.first().map_or(total, |m| m.iter().sum());
                table.rows.push(vec![
                    name.to_string(),
                    units.to_string(),
                    cpu_split(&rec.allocation),
                    mem_split(&rec.allocation),
                    rec.evaluations.to_string(),
                    secs(rec.total_cost),
                    measured.iter().map(|&m| secs(m)).collect::<Vec<_>>().join(" / "),
                    secs(total),
                    format!("{:.2}x", base / total),
                ]);
                lattice.advice.push(rec.allocation);
                lattice.measured.push(measured);
            }
            lattice
        });
        ExtResolution {
            problems,
            tables: vec![table],
        }
    })
}

#[test]
fn ext_resolution_a_finer_lattice_measures_no_worse() {
    let r = ext_resolution();
    print_all(&r.tables);
    for p in &r.problems {
        assert!(
            p.measured_total(1) <= p.measured_total(0),
            "{}: the {}-unit advice measures {:.3}s, the {}-unit advice {:.3}s",
            p.name,
            RESOLUTIONS[1],
            p.measured_total(1),
            RESOLUTIONS[0],
            p.measured_total(0)
        );
    }
}

/// The paper hand-picks Figure 5's 75/25 CPU split; on the 8-unit lattice
/// the method finds it, and on the 16-unit one it finds better.
#[test]
fn ext_resolution_the_pair_finds_the_papers_split_then_beats_it() {
    let pair = &ext_resolution().problems[2];
    let cpu: Vec<f64> = pair.advice[0]
        .rows()
        .map(|row| row.cpu().fraction())
        .collect();
    assert_eq!(
        cpu,
        [0.25, 0.75],
        "the {}-unit advice is not the paper's 75/25 CPU split",
        RESOLUTIONS[0]
    );
    let paper = &fig5().paper_split;
    for (i, (advised, split)) in pair.measured[1].iter().zip(paper).enumerate() {
        assert!(
            advised < split,
            "W{}: the {}-unit advice co-runs in {advised:.3}s, the 75/25 split in {split:.3}s",
            i + 1,
            RESOLUTIONS[1]
        );
    }
}

// ---------------------------------------------------------------------------

#[test]
fn exhibits_replay_the_golden() {
    let exhibits: [&[Table]; 9] = [
        &fig3().tables,
        &fig4().tables,
        &memory_axis().tables,
        &fig5().tables,
        &ext_search().tables,
        &ext_consol().tables,
        &ext_dynamic().tables,
        &ext_ablation().tables,
        &ext_resolution().tables,
    ];
    let mut out = String::new();
    for table in exhibits.into_iter().flatten() {
        table.render(&mut out);
    }
    common::assert_golden(GOLDEN, &out);
}
