//! Cross-crate invariants of the design subsystem: storage budgets hold
//! under any input, the joint loop's objective never rises, the LP bound
//! really is a lower bound on every feasible selection, and index access
//! paths return exactly what full scans return.

use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::{DesignProblem, WorkloadSpec};
use dbvirt::design::{
    enumerate_candidates, lower_bound, select_greedy, DesignAdvisor, DesignConfig, DesignPricer,
    VmPricer,
};
use dbvirt::engine::{run_plan, CpuCosts, Database, Expr};
use dbvirt::optimizer::{plan_query, LogicalPlan, OptimizerParams};
use dbvirt::storage::{BufferPool, DataType, Datum, Field, Schema, Tuple};
use dbvirt::vmm::MachineSpec;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The design crate's test machine: memory-constrained so the calibrated
/// cost regime lets indexes beat cached scans at scarce cells.
fn small_machine() -> MachineSpec {
    MachineSpec {
        cores: 1,
        cycles_per_sec: 1.0e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 20.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

/// Calibrating is expensive; every proptest case shares one grid.
fn grid() -> &'static CalibrationGrid {
    static GRID: OnceLock<CalibrationGrid> = OnceLock::new();
    GRID.get_or_init(|| {
        CalibrationGrid::calibrate(
            small_machine(),
            vec![0.25, 0.5, 0.75, 1.0],
            vec![0.25, 0.5, 0.75, 1.0],
            0.5,
        )
        .unwrap()
    })
}

fn two_col_db(n_rows: i64, modulus: i64) -> (Database, dbvirt::engine::TableId) {
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
    .unwrap();
    db.analyze_all().unwrap();
    (db, t)
}

/// Config-priced objective of one index set, straight from the
/// definition: per query, the cheapest menu config contained in the set.
fn priced_objective(costs: &[Vec<f64>], members: &[Vec<Vec<usize>>], mask: u64) -> f64 {
    costs
        .iter()
        .zip(members)
        .map(|(qcosts, qk)| {
            qcosts
                .iter()
                .zip(qk)
                .filter(|(_, m)| m.iter().all(|&c| mask & (1 << c) != 0))
                .map(|(&c, _)| c)
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Greedy selection never exceeds the page budget, for any predicate
    /// mix, budget, and allocation cell — and its bookkeeping agrees with
    /// the candidate table.
    #[test]
    fn prop_budget_never_exceeded(
        keys in prop::collection::vec(0i64..5_000, 1..4),
        budget_indexes in 0u64..4,
        cpu in 1u32..4,
        mem in 1u32..4,
    ) {
        let (db, t) = two_col_db(5_000, 97);
        let queries: Vec<LogicalPlan> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let col = i % 2;
                LogicalPlan::scan_filtered(t, Expr::eq(Expr::col(col), Expr::int(k)))
            })
            .collect();
        let cands = enumerate_candidates(&db, &queries, 16);
        prop_assume!(!cands.is_empty());
        let per_index = cands.candidates[0].pages;
        let budget = per_index * budget_indexes;
        let pricer = DesignPricer::new(grid(), 4, 0.5);
        let vm = VmPricer::new(&pricer, &db, &queries, cands).unwrap();
        let trace = select_greedy(&pricer, &vm, budget, cpu, mem).unwrap();
        prop_assert!(trace.pages_used <= budget, "{} > {budget}", trace.pages_used);
        let recomputed: u64 = vm
            .cands
            .candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| trace.mask & (1 << i) != 0)
            .map(|(_, c)| c.pages)
            .sum();
        prop_assert_eq!(trace.pages_used, recomputed);
        prop_assert!(trace.decisions.iter().all(|d| d.gain > 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The joint loop's objective is monotone non-increasing across
    /// alternations, and joint never loses to either marginal.
    #[test]
    fn prop_alternation_monotone_and_joint_dominates(
        point_keys in prop::collection::vec(0i64..20_000, 1..4),
        scan_cut in 100i64..19_000,
    ) {
        let (db1, t1) = two_col_db(20_000, 100);
        let (db2, t2) = two_col_db(20_000, 100);
        let q1: Vec<LogicalPlan> = point_keys
            .iter()
            .map(|&k| LogicalPlan::scan_filtered(t1, Expr::eq(Expr::col(0), Expr::int(k))))
            .collect();
        let q2 = vec![LogicalPlan::scan_filtered(
            t2,
            Expr::lt(Expr::col(0), Expr::int(scan_cut)),
        )];
        let problem = DesignProblem::new(
            small_machine(),
            vec![
                WorkloadSpec::new("points".to_string(), &db1, q1),
                WorkloadSpec::new("scans".to_string(), &db2, q2),
            ],
        )
        .unwrap();
        let advisor = DesignAdvisor::new(grid(), DesignConfig::new(4, 2).with_budget(1024));
        let joint = advisor.advise(&problem).unwrap();
        for w in joint.alternation_objectives.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12, "objective rose: {} -> {}", w[0], w[1]);
        }
        let index_only = advisor.advise_index_only(&problem).unwrap();
        let alloc_only = advisor.advise_allocation_only(&problem).unwrap();
        prop_assert!(joint.objective <= index_only.objective + 1e-12);
        prop_assert!(joint.objective <= alloc_only.objective + 1e-12);
        prop_assert!(joint.lp_bound <= joint.objective + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Lagrangian bound is below the config-priced objective of EVERY
    /// feasible selection, not just the optimum.
    #[test]
    fn prop_lp_bound_below_every_feasible_selection(
        raw_costs in prop::collection::vec(0.1f64..10.0, 21..22),
        sizes in prop::collection::vec(1u64..10, 3..4),
        budget in 0u64..20,
        n_queries in 1usize..4,
    ) {
        // Full menu over 3 candidates: ∅, singletons, pairs.
        let menu: Vec<Vec<usize>> =
            vec![vec![], vec![0], vec![1], vec![2], vec![0, 1], vec![0, 2], vec![1, 2]];
        let mut costs = Vec::new();
        let mut members = Vec::new();
        for q in 0..n_queries {
            costs.push(raw_costs[q * 7..(q + 1) * 7].to_vec());
            members.push(menu.clone());
        }
        // Best feasible selection = the incumbent the ascent steps toward.
        let mut incumbent = f64::INFINITY;
        for mask in 0u64..8 {
            let pages: u64 = (0..3).filter(|&c| mask & (1 << c) != 0).map(|c| sizes[c]).sum();
            if pages <= budget {
                incumbent = incumbent.min(priced_objective(&costs, &members, mask));
            }
        }
        let lb = lower_bound(&costs, &members, &sizes, budget, incumbent, 300);
        for mask in 0u64..8 {
            let pages: u64 = (0..3).filter(|&c| mask & (1 << c) != 0).map(|c| sizes[c]).sum();
            if pages > budget {
                continue;
            }
            let obj = priced_objective(&costs, &members, mask);
            prop_assert!(
                lb.bound <= obj + 1e-9,
                "bound {} exceeds feasible selection {mask:b} at {obj}",
                lb.bound
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A database with a secondary index returns exactly the rows the
    /// scan-only database returns, whatever access path the planner picks.
    #[test]
    fn prop_index_path_equals_full_scan(
        rows in prop::collection::vec((0i64..300, 0i64..300), 50..300),
        lo in 0i64..300,
        span in 1i64..80,
        eq_key in 0i64..300,
    ) {
        let build = |with_index: bool| {
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
                rows.iter().map(|&(a, b)| Tuple::new(vec![Datum::Int(a), Datum::Int(b)])),
            )
            .unwrap();
            if with_index {
                db.create_index("t_b", t, 1).unwrap();
            }
            db.analyze_all().unwrap();
            (db, t)
        };
        // Index-friendly parameters so the indexed database actually takes
        // the index path when one exists.
        let index_params = OptimizerParams {
            effective_cache_size_pages: 1e6,
            random_page_cost: 1.0,
            ..OptimizerParams::default()
        };
        for pred in [
            Expr::and(
                Expr::ge(Expr::col(1), Expr::int(lo)),
                Expr::lt(Expr::col(1), Expr::int(lo + span)),
            ),
            Expr::eq(Expr::col(1), Expr::int(eq_key)),
        ] {
            let plan = |db: &Database, t, params: &OptimizerParams| {
                let planned =
                    plan_query(db, &LogicalPlan::scan_filtered(t, pred.clone()), params).unwrap();
                let mut pool = BufferPool::new(256);
                let mut rows = run_plan(db, &mut pool, &planned.physical, 1 << 20, CpuCosts::default())
                    .unwrap()
                    .rows;
                rows.sort_by(|x, y| {
                    x.get(0)
                        .total_cmp(y.get(0))
                        .then(x.get(1).total_cmp(y.get(1)))
                });
                rows
            };
            let (db_scan, t_scan) = build(false);
            let (db_idx, t_idx) = build(true);
            let scan_rows = plan(&db_scan, t_scan, &OptimizerParams::default());
            let idx_rows = plan(&db_idx, t_idx, &index_params);
            prop_assert_eq!(&scan_rows, &idx_rows);
        }
    }
}
