//! Hostile plans and contexts are typed errors, not panics.
//!
//! Each plan below used to index past a catalog vector, a row or a schema
//! somewhere under `run_plan` (or, for a zero `work_mem`, divide by it).
//! `PhysicalPlan::validate` now rejects them before a page is read.

use dbvirt_engine::{
    run_plan, AggExpr, AggFunc, CpuCosts, Database, EngineError, Expr, IndexArm, IndexId, JoinType,
    PhysicalPlan, SortKey, TableId,
};
use dbvirt_storage::{BufferPool, DataType, Datum, Field, Schema, Tuple};
use std::ops::Bound;

/// `t(a INT, b STR)` with an index on `a`, and `u(c INT)` with one on `c`.
fn db() -> (Database, IndexId, IndexId) {
    let mut db = Database::new();
    let t = db.create_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ]),
    );
    let u = db.create_table("u", Schema::new(vec![Field::new("c", DataType::Int)]));
    db.insert_rows(
        t,
        (0..100).map(|i| Tuple::new(vec![Datum::Int(i), Datum::str(format!("row-{i}"))])),
    )
    .unwrap();
    db.insert_rows(u, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
        .unwrap();
    let on_t = db.create_index("t_a", t, 0).unwrap();
    let on_u = db.create_index("u_c", u, 0).unwrap();
    (db, on_t, on_u)
}

const T: TableId = TableId(0);
const U: TableId = TableId(1);

fn scan(table: TableId) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::SeqScan {
        table,
        filter: None,
    })
}

fn hash_join(left_keys: Vec<usize>, right_keys: Vec<usize>) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        left: scan(T),
        right: scan(U),
        left_keys,
        right_keys,
        join_type: JoinType::Inner,
    }
}

/// Runs `plan`, which must be refused as a bad plan; returns the reason.
fn refused(plan: &PhysicalPlan, work_mem_bytes: usize) -> String {
    let (db, ..) = db();
    let mut pool = BufferPool::new(16);
    match run_plan(&db, &mut pool, plan, work_mem_bytes, CpuCosts::default()) {
        Err(EngineError::Plan(reason)) => {
            assert_eq!(pool.demand().total_pages(), 0, "refused before any I/O");
            reason
        }
        other => panic!("expected a plan error, got {other:?}"),
    }
}

#[test]
fn a_valid_plan_still_runs() {
    let (db, ..) = db();
    let mut pool = BufferPool::new(16);
    let plan = hash_join(vec![0], vec![0]);
    assert_eq!(plan.validate(&db), Ok(()));
    let out = run_plan(&db, &mut pool, &plan, 1 << 20, CpuCosts::default()).unwrap();
    assert_eq!(out.rows.len(), 10);
}

#[test]
fn zero_work_mem_is_refused_not_divided_by() {
    let reason = refused(&hash_join(vec![0], vec![0]), 0);
    assert!(reason.contains("work_mem"), "{reason}");
}

#[test]
fn hash_join_key_lists_must_pair_up() {
    let reason = refused(&hash_join(vec![0, 1], vec![0]), 1 << 20);
    assert!(reason.contains("HashJoin"), "{reason}");
}

#[test]
fn unknown_table_is_refused() {
    let reason = refused(&scan(TableId(7)), 1 << 20);
    assert!(reason.contains("table#7"), "{reason}");
}

#[test]
fn unknown_or_foreign_index_is_refused() {
    let (_, on_t, on_u) = db();
    let index_scan = |table, index| PhysicalPlan::IndexScan {
        table,
        index,
        lo: Bound::Unbounded,
        hi: Bound::Unbounded,
        filter: None,
    };
    assert!(refused(&index_scan(T, IndexId(9)), 1 << 20).contains("index#9"));
    // `u`'s index holds tuple ids of `u`'s heap, not `t`'s.
    assert!(refused(&index_scan(T, on_u), 1 << 20).contains("not on table#0"));

    let arm = |index| IndexArm {
        index,
        lo: Bound::Unbounded,
        hi: Bound::Unbounded,
    };
    for arms in [vec![arm(on_t), arm(IndexId(9))], vec![arm(on_u), arm(on_t)]] {
        let (table, filter) = (T, None);
        let anded = PhysicalPlan::IndexAnd {
            table,
            arms: arms.clone(),
            filter: filter.clone(),
        };
        let ored = PhysicalPlan::IndexOr {
            table,
            arms,
            filter,
        };
        refused(&anded, 1 << 20);
        refused(&ored, 1 << 20);
    }
}

#[test]
fn key_sort_and_group_columns_must_lie_inside_the_input() {
    // `t` has two columns, `u` one.
    refused(&hash_join(vec![2], vec![0]), 1 << 20);
    refused(&hash_join(vec![0], vec![1]), 1 << 20);
    refused(
        &PhysicalPlan::MergeJoin {
            left: scan(T),
            right: scan(U),
            left_key: 0,
            right_key: 1,
        },
        1 << 20,
    );
    refused(
        &PhysicalPlan::Sort {
            input: scan(T),
            keys: vec![SortKey::asc(0), SortKey::desc(2)],
        },
        1 << 20,
    );
    for group_by in [vec![2], vec![]] {
        // The second plan's group list is fine; its aggregate reads column 5.
        let arg = if group_by.is_empty() { 5 } else { 0 };
        let (input, aggs) = (
            scan(T),
            vec![AggExpr::new(AggFunc::Sum, Expr::col(arg), "s")],
        );
        let hashed = PhysicalPlan::HashAgg {
            input: input.clone(),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        };
        let sorted = PhysicalPlan::SortAgg {
            input,
            group_by,
            aggs,
        };
        refused(&hashed, 1 << 20);
        refused(&sorted, 1 << 20);
    }
    // A semi join outputs only its left side's two columns.
    let semi = PhysicalPlan::HashJoin {
        left: scan(T),
        right: scan(U),
        left_keys: vec![0],
        right_keys: vec![0],
        join_type: JoinType::Semi,
    };
    refused(
        &PhysicalPlan::Sort {
            input: Box::new(semi),
            keys: vec![SortKey::asc(2)],
        },
        1 << 20,
    );
}

#[test]
fn expression_columns_must_lie_inside_the_input() {
    let past_t = Expr::gt(Expr::col(2), Expr::int(0));
    refused(
        &PhysicalPlan::SeqScan {
            table: T,
            filter: Some(past_t.clone()),
        },
        1 << 20,
    );
    refused(
        &PhysicalPlan::Filter {
            input: scan(T),
            predicate: past_t.clone(),
        },
        1 << 20,
    );
    refused(
        &PhysicalPlan::Project {
            input: scan(U),
            exprs: vec![(Expr::add(Expr::col(0), Expr::col(1)), "sum".into())],
        },
        1 << 20,
    );
    // The joined row has three columns: 0, 1 and 2.
    refused(
        &PhysicalPlan::NestedLoopJoin {
            left: scan(T),
            right: scan(U),
            predicate: Some(Expr::eq(Expr::col(0), Expr::col(3))),
            join_type: JoinType::Left,
        },
        1 << 20,
    );
    // ...and a projection's output only as many as it has expressions.
    refused(
        &PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Project {
                input: scan(T),
                exprs: vec![(Expr::col(1), "b".into())],
            }),
            predicate: Expr::like(Expr::col(1), "row%"),
        },
        1 << 20,
    );
}
