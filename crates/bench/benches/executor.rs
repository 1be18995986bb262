//! Executor micro-benchmarks: the operators the TPC-H workloads spend
//! their time in.

use criterion::{criterion_group, criterion_main, Criterion};
use dbvirt_engine::{
    run_plan, AggExpr, AggFunc, CpuCosts, Database, Expr, JoinType, PhysicalPlan, SortKey, TableId,
};
use dbvirt_optimizer::{plan_query, OptimizerParams};
use dbvirt_storage::{BufferPool, DataType, Datum, Field, Schema, Tuple};
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery};
use std::hint::black_box;

fn build_db(rows: i64) -> Database {
    let mut db = Database::new();
    let t = db.create_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("g", DataType::Str),
        ]),
    );
    db.insert_rows(
        t,
        (0..rows).map(|i| {
            Tuple::new(vec![
                Datum::Int(i),
                Datum::Int((i * 48_271) % rows),
                Datum::str(["x", "y", "z"][(i % 3) as usize]),
            ])
        }),
    )
    .unwrap();
    db.analyze_all().unwrap();
    db
}

fn execute(db: &Database, plan: &PhysicalPlan) -> usize {
    let mut pool = BufferPool::new(8192);
    run_plan(db, &mut pool, plan, 8 << 20, CpuCosts::default())
        .unwrap()
        .rows
        .len()
}

fn bench_operators(c: &mut Criterion) {
    let db = build_db(50_000);
    let t = TableId(0);
    let scan = || {
        Box::new(PhysicalPlan::SeqScan {
            table: t,
            filter: None,
        })
    };

    c.bench_function("exec/seq_scan_50k", |b| {
        let plan = PhysicalPlan::SeqScan {
            table: t,
            filter: None,
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    c.bench_function("exec/filtered_scan_50k", |b| {
        let plan = PhysicalPlan::SeqScan {
            table: t,
            filter: Some(Expr::and(
                Expr::lt(Expr::col(1), Expr::int(10_000)),
                Expr::eq(Expr::col(2), Expr::str("x")),
            )),
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    // The three shapes a borrowing consumer is built for: a filter that
    // keeps nothing, an aggregate that reads no column, and one that reads
    // two — none of them needs a decoded row (see the allocation budget in
    // crates/engine/tests/alloc_budget.rs).
    c.bench_function("exec/seq_scan_selective_50k", |b| {
        let plan = PhysicalPlan::SeqScan {
            table: t,
            filter: Some(Expr::lt(Expr::col(0), Expr::int(0))),
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    c.bench_function("exec/global_agg_over_scan_50k", |b| {
        let plan = PhysicalPlan::HashAgg {
            input: scan(),
            group_by: vec![],
            aggs: vec![AggExpr::count_star("n")],
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    c.bench_function("exec/hash_join_50k_x_50k_keys", |b| {
        let plan = PhysicalPlan::HashJoin {
            left: scan(),
            right: scan(),
            left_keys: vec![0],
            right_keys: vec![1],
            join_type: JoinType::Semi,
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    // The joins' consumers: one that keeps the padded pairs (the root
    // decodes them) and one that reads two columns of each pair and keeps
    // neither. `b` is a permutation of `a`, so both pair every row once.
    c.bench_function("exec/hash_join_left_50k", |b| {
        let plan = PhysicalPlan::HashJoin {
            left: scan(),
            right: scan(),
            left_keys: vec![0],
            right_keys: vec![1],
            join_type: JoinType::Left,
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    c.bench_function("exec/agg_over_hash_join_50k", |b| {
        let plan = PhysicalPlan::HashAgg {
            input: Box::new(PhysicalPlan::HashJoin {
                left: scan(),
                right: scan(),
                left_keys: vec![0],
                right_keys: vec![1],
                join_type: JoinType::Inner,
            }),
            // The probe side's `g`, the build side's `a`.
            group_by: vec![2],
            aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(3), "s")],
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    c.bench_function("exec/grouped_agg_over_scan_50k", |b| {
        let plan = PhysicalPlan::HashAgg {
            input: scan(),
            group_by: vec![2],
            aggs: vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(0), "s"),
                AggExpr::new(AggFunc::Avg, Expr::col(1), "m"),
            ],
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });

    c.bench_function("exec/sort_50k", |b| {
        let plan = PhysicalPlan::Sort {
            input: scan(),
            keys: vec![SortKey::desc(1), SortKey::asc(0)],
        };
        b.iter(|| black_box(execute(&db, &plan)));
    });
}

/// The two join queries of the paper's Figures 4 and 5, planned under
/// default parameters at the scale `perf/`'s `cold_advise` executes them.
fn bench_tpch_joins(c: &mut Criterion) {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.005,
        seed: 42,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    for (name, query) in [
        ("exec/tpch_q13_sf0.005", TpchQuery::Q13),
        ("exec/tpch_q4_sf0.005", TpchQuery::Q4),
    ] {
        let planned = plan_query(&t.db, &query.plan(&t), &OptimizerParams::default())
            .expect("benchmark query plans");
        c.bench_function(name, |b| {
            b.iter(|| black_box(execute(&t.db, &planned.physical)));
        });
    }
}

criterion_group!(benches, bench_operators, bench_tpch_joins);
criterion_main!(benches);
