//! Cross-crate correctness: optimizer-planned executions must produce the
//! same results as a naive reference evaluator, for any plan choice and
//! any buffer-pool size.

use dbvirt::engine::{run_plan, AggExpr, AggFunc, CpuCosts, Database, Expr, JoinType};
use dbvirt::optimizer::{plan_query, JoinCondition, LogicalPlan, OptimizerParams};
use dbvirt::storage::{BufferPool, DataType, Datum, Field, Schema, Tuple};
use proptest::prelude::*;

fn t1_schema() -> Schema {
    Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Int),
        Field::new("s", DataType::Str),
    ])
}

/// Builds `t1(a, b, s)` with `n` rows and an index on `b`.
fn build_db(rows: &[(i64, i64, &str)]) -> Database {
    let mut db = Database::new();
    let t = db.create_table("t1", t1_schema());
    db.insert_rows(
        t,
        rows.iter()
            .map(|(a, b, s)| Tuple::new(vec![Datum::Int(*a), Datum::Int(*b), Datum::str(*s)])),
    )
    .unwrap();
    db.create_index("t1_b", t, 1).unwrap();
    db.analyze_all().unwrap();
    db
}

/// Reference filter: plain iteration with `Expr::eval_bool`.
fn reference_filter(rows: &[(i64, i64, String)], pred: &Expr) -> Vec<(i64, i64, String)> {
    rows.iter()
        .filter(|(a, b, s)| {
            let t = Tuple::new(vec![Datum::Int(*a), Datum::Int(*b), Datum::Str(s.clone())]);
            pred.eval_bool(&t) == Some(true)
        })
        .cloned()
        .collect()
}

fn run(db: &Database, plan: &LogicalPlan, pool_pages: usize) -> Vec<Tuple> {
    let planned = plan_query(db, plan, &OptimizerParams::default()).unwrap();
    let mut pool = BufferPool::new(pool_pages);
    run_plan(
        db,
        &mut pool,
        &planned.physical,
        1 << 20,
        CpuCosts::default(),
    )
    .unwrap()
    .rows
}

#[test]
fn filtered_scan_matches_reference_for_every_pool_size() {
    let rows: Vec<(i64, i64, String)> = (0..3000)
        .map(|i| (i, (i * 7) % 100, format!("s{}", i % 13)))
        .collect();
    let borrowed: Vec<(i64, i64, &str)> =
        rows.iter().map(|(a, b, s)| (*a, *b, s.as_str())).collect();
    let db = build_db(&borrowed);
    let t = db.table_id("t1").unwrap();

    let pred = Expr::and(
        Expr::lt(Expr::col(1), Expr::int(40)),
        Expr::not_like(Expr::col(2), "s7"),
    );
    let expect = reference_filter(&rows, &pred);

    for pool_pages in [1, 4, 64, 4096] {
        let got = run(
            &db,
            &LogicalPlan::scan_filtered(t, pred.clone()),
            pool_pages,
        );
        assert_rows(&got, &expect, pool_pages);
    }
}

fn assert_rows(got: &[Tuple], expect: &[(i64, i64, String)], pool_pages: usize) {
    assert_eq!(got.len(), expect.len(), "pool = {pool_pages} pages");
    for (tuple, (a, b, s)) in got.iter().zip(expect) {
        assert_eq!(tuple.get(0).as_int(), Some(*a));
        assert_eq!(tuple.get(1).as_int(), Some(*b));
        assert_eq!(tuple.get(2).as_str(), Some(s.as_str()));
    }
}

/// Pages that were read, then written by a second load — the last page of
/// the first load filled up in place, new ones appended — read back as the
/// rows now on them.
#[test]
fn a_scan_after_a_second_load_reads_the_old_rows_and_the_new() {
    let rows: Vec<(i64, i64, String)> = (0..3000)
        .map(|i| (i, (i * 7) % 100, format!("s{}", i % 13)))
        .collect();
    let as_tuple = |(a, b, s): &(i64, i64, String)| {
        Tuple::new(vec![Datum::Int(*a), Datum::Int(*b), Datum::str(s)])
    };
    let loaded_first = 1700;
    let mut db = Database::new();
    let t = db.create_table("t1", t1_schema());
    let pred = Expr::and(
        Expr::lt(Expr::col(1), Expr::int(40)),
        Expr::not_like(Expr::col(2), "s7"),
    );
    let query = LogicalPlan::scan_filtered(t, pred.clone());

    for loaded in [0..loaded_first, loaded_first..rows.len()] {
        let upto = loaded.end;
        db.insert_rows(t, rows[loaded].iter().map(as_tuple))
            .unwrap();
        db.analyze_all().unwrap();
        let expect = reference_filter(&rows[..upto], &pred);
        for pool_pages in [1, 64] {
            assert_rows(&run(&db, &query, pool_pages), &expect, pool_pages);
        }
    }
}

#[test]
fn join_matches_nested_loop_reference() {
    let mut db = Database::new();
    let left = db.create_table(
        "l",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
    );
    let right = db.create_table(
        "r",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("w", DataType::Int),
        ]),
    );
    let left_rows: Vec<(i64, i64)> = (0..500).map(|i| (i % 50, i)).collect();
    let right_rows: Vec<(i64, i64)> = (0..200).map(|i| (i % 80, i * 10)).collect();
    db.insert_rows(
        left,
        left_rows
            .iter()
            .map(|(k, v)| Tuple::new(vec![Datum::Int(*k), Datum::Int(*v)])),
    )
    .unwrap();
    db.insert_rows(
        right,
        right_rows
            .iter()
            .map(|(k, w)| Tuple::new(vec![Datum::Int(*k), Datum::Int(*w)])),
    )
    .unwrap();
    db.analyze_all().unwrap();

    // Reference inner join.
    let mut expect: Vec<(i64, i64, i64, i64)> = Vec::new();
    for (lk, lv) in &left_rows {
        for (rk, rw) in &right_rows {
            if lk == rk {
                expect.push((*lk, *lv, *rk, *rw));
            }
        }
    }
    expect.sort_unstable();

    let plan = LogicalPlan::scan(left).join(
        LogicalPlan::scan(right),
        vec![JoinCondition {
            left_col: 0,
            right_col: 0,
        }],
    );
    let mut got: Vec<(i64, i64, i64, i64)> = run(&db, &plan, 64)
        .into_iter()
        .map(|t| {
            (
                t.get(0).as_int().unwrap(),
                t.get(1).as_int().unwrap(),
                t.get(2).as_int().unwrap(),
                t.get(3).as_int().unwrap(),
            )
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn semi_join_counts_match_reference() {
    let mut db = Database::new();
    let l = db.create_table("l", Schema::new(vec![Field::new("k", DataType::Int)]));
    let r = db.create_table("r", Schema::new(vec![Field::new("k", DataType::Int)]));
    db.insert_rows(l, (0..100).map(|i| Tuple::new(vec![Datum::Int(i)])))
        .unwrap();
    db.insert_rows(r, (0..300).map(|i| Tuple::new(vec![Datum::Int(i % 30)])))
        .unwrap();
    db.analyze_all().unwrap();

    let plan = LogicalPlan::scan(l).join_as(
        LogicalPlan::scan(r),
        vec![JoinCondition {
            left_col: 0,
            right_col: 0,
        }],
        JoinType::Semi,
    );
    let got = run(&db, &plan, 64);
    // Left keys 0..100; right keys 0..30 -> 30 matches, each emitted once.
    assert_eq!(got.len(), 30);
}

#[test]
fn aggregate_matches_hand_computation() {
    let rows: Vec<(i64, i64, String)> = (0..1000)
        .map(|i| (i, i % 10, format!("g{}", i % 4)))
        .collect();
    let borrowed: Vec<(i64, i64, &str)> =
        rows.iter().map(|(a, b, s)| (*a, *b, s.as_str())).collect();
    let db = build_db(&borrowed);
    let t = db.table_id("t1").unwrap();

    let plan = LogicalPlan::scan(t).aggregate(
        vec![2],
        vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Sum, Expr::col(0), "sum_a"),
            AggExpr::new(AggFunc::Min, Expr::col(0), "min_a"),
            AggExpr::new(AggFunc::Max, Expr::col(0), "max_a"),
        ],
    );
    let mut got = run(&db, &plan, 64);
    got.sort_by(|x, y| x.get(0).total_cmp(y.get(0)));
    assert_eq!(got.len(), 4);
    for (g, tuple) in got.iter().enumerate() {
        let members: Vec<i64> = (0..1000).filter(|i| (i % 4) as usize == g).collect();
        assert_eq!(tuple.get(0).as_str(), Some(format!("g{g}").as_str()));
        assert_eq!(tuple.get(1).as_int(), Some(members.len() as i64));
        assert_eq!(tuple.get(2).as_int(), Some(members.iter().sum::<i64>()));
        assert_eq!(tuple.get(3).as_int(), Some(members[0]));
        assert_eq!(tuple.get(4).as_int(), Some(*members.last().unwrap()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// For random data and a random range predicate, the planner may pick
    /// a sequential or an index scan — either way the result set matches
    /// the reference, and it does not depend on the buffer-pool size.
    #[test]
    fn prop_planned_scan_equals_reference(
        values in prop::collection::vec((0i64..200, 0i64..200), 50..400),
        lo in 0i64..200,
        span in 1i64..60,
    ) {
        let rows: Vec<(i64, i64, String)> = values
            .iter()
            .enumerate()
            .map(|(i, (a, b))| (*a, *b, format!("s{}", i % 5)))
            .collect();
        let borrowed: Vec<(i64, i64, &str)> =
            rows.iter().map(|(a, b, s)| (*a, *b, s.as_str())).collect();
        let db = build_db(&borrowed);
        let t = db.table_id("t1").unwrap();
        let pred = Expr::and(
            Expr::ge(Expr::col(1), Expr::int(lo)),
            Expr::lt(Expr::col(1), Expr::int(lo + span)),
        );
        let expect = reference_filter(&rows, &pred);
        let got_small = run(&db, &LogicalPlan::scan_filtered(t, pred.clone()), 2);
        let got_large = run(&db, &LogicalPlan::scan_filtered(t, pred), 1024);
        // Sort both sides (index scans return in key order, seq in heap order).
        let key = |t: &Tuple| {
            (
                t.get(0).as_int().unwrap(),
                t.get(1).as_int().unwrap(),
                t.get(2).as_str().unwrap().to_string(),
            )
        };
        let mut got_small: Vec<_> = got_small.iter().map(key).collect();
        let mut got_large: Vec<_> = got_large.iter().map(key).collect();
        let mut expect: Vec<_> = expect
            .into_iter()
            .collect();
        got_small.sort();
        got_large.sort();
        expect.sort();
        prop_assert_eq!(&got_small, &expect);
        prop_assert_eq!(&got_large, &expect);
    }

    /// Whatever the parameter vector makes the planner choose — seq scan,
    /// single or composite index scan, index intersection or union, either
    /// join order with or without the restoring projection — the plan it
    /// materialises returns the reference rows in the logical column order.
    #[test]
    fn prop_any_parameter_vector_plans_to_the_reference_rows(
        values in prop::collection::vec((0i64..40, 0i64..200), 100..400),
        point in 0i64..40,
        lo in 0i64..200,
        span in 1i64..60,
        p in prop::collection::vec(0.0f64..1.0, 5..6),
    ) {
        let rows: Vec<(i64, i64, String)> = values
            .iter()
            .enumerate()
            .map(|(i, (a, b))| (*a, *b, format!("s{}", i % 5)))
            .collect();
        let borrowed: Vec<(i64, i64, &str)> =
            rows.iter().map(|(a, b, s)| (*a, *b, s.as_str())).collect();
        let mut db = build_db(&borrowed);
        let t = db.table_id("t1").unwrap();
        db.create_index("t1_a", t, 0).unwrap();
        db.create_index_multi("t1_a_b", t, &[0, 1]).unwrap();
        let dim = db.create_table(
            "dim",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("x", DataType::Int)]),
        );
        db.insert_rows(dim, (0..40).map(|k| Tuple::new(vec![Datum::Int(k), Datum::Int(k * k)])))
            .unwrap();
        db.analyze_all().unwrap();

        // Log-spaced over both sides of every cutoff: page costs 0.1-1000,
        // cache 1-10^4 pages, work_mem 256 B-256 KiB, operator cost /10-x10.
        let params = OptimizerParams {
            seq_page_cost: 10f64.powf(p[0] * 4.0 - 1.0),
            random_page_cost: 10f64.powf(p[1] * 4.0 - 1.0),
            effective_cache_size_pages: 10f64.powf(p[2] * 4.0),
            work_mem_bytes: 256.0 * 10f64.powf(p[3] * 3.0),
            cpu_operator_cost: 0.0025 * 10f64.powf(p[4] * 2.0 - 1.0),
            ..OptimizerParams::default()
        };
        let in_range = Expr::and(
            Expr::ge(Expr::col(1), Expr::int(lo)),
            Expr::lt(Expr::col(1), Expr::int(lo + span)),
        );
        let predicates = [
            Expr::and(Expr::eq(Expr::col(0), Expr::int(point)), in_range.clone()),
            Expr::or(
                Expr::eq(Expr::col(0), Expr::int(point)),
                Expr::eq(Expr::col(1), Expr::int(lo)),
            ),
            in_range,
        ];
        let key = |t: &Tuple| {
            (
                t.get(0).as_int().unwrap(),
                t.get(1).as_int().unwrap(),
                t.get(2).as_str().unwrap().to_string(),
            )
        };
        let execute = |plan: &LogicalPlan| {
            let planned = plan_query(&db, plan, &params).unwrap();
            let mut pool = BufferPool::new(64);
            run_plan(&db, &mut pool, &planned.physical, 1 << 16, CpuCosts::default())
                .unwrap()
                .rows
        };
        for pred in predicates {
            let mut expect = reference_filter(&rows, &pred);
            expect.sort();

            let mut got: Vec<_> = execute(&LogicalPlan::scan_filtered(t, pred.clone()))
                .iter()
                .map(key)
                .collect();
            got.sort();
            prop_assert_eq!(&got, &expect);

            // dim first, the big side second: the cheapest order probes with
            // t1, so the logical column order has to be restored.
            let joined = LogicalPlan::scan(dim).join(
                LogicalPlan::scan_filtered(t, pred),
                vec![JoinCondition { left_col: 0, right_col: 0 }],
            );
            let mut got: Vec<_> = execute(&joined)
                .iter()
                .map(|row| {
                    let k = row.get(0).as_int().unwrap();
                    assert_eq!(row.get(1).as_int(), Some(k * k));
                    assert_eq!(row.get(2).as_int(), Some(k));
                    let t1 = Tuple::new(vec![row.get(2).clone(), row.get(3).clone(), row.get(4).clone()]);
                    key(&t1)
                })
                .collect();
            got.sort();
            prop_assert_eq!(&got, &expect);
        }
    }
}
