//! Planner behaviour tests: access-path choice, join ordering, execution of
//! the plans it materialises.

use super::*;
use crate::JoinCondition;
use dbvirt_engine::{AggExpr, AggFunc, Expr, JoinType};
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

/// Two tables: fact(k, v, grp) with 20k rows and an index on k;
/// dim(k, label) with 100 rows.
fn fixture() -> (Database, TableId, TableId) {
    let mut db = Database::new();
    let fact = db.create_table(
        "fact",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("grp", DataType::Str),
        ]),
    );
    db.insert_rows(
        fact,
        (0..20_000).map(|i| {
            Tuple::new(vec![
                Datum::Int(i % 100),
                Datum::Int(i),
                Datum::str(format!("g{}", i % 5)),
            ])
        }),
    )
    .unwrap();
    let dim = db.create_table(
        "dim",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("label", DataType::Str),
        ]),
    );
    db.insert_rows(
        dim,
        (0..100).map(|i| Tuple::new(vec![Datum::Int(i), Datum::str(format!("l{i}"))])),
    )
    .unwrap();
    db.create_index("fact_v", fact, 1).unwrap();
    db.analyze_all().unwrap();
    (db, fact, dim)
}

#[test]
fn missing_stats_is_an_error() {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
    let err = plan_query(&db, &LogicalPlan::scan(t), &OptimizerParams::default()).unwrap_err();
    assert!(matches!(err, OptError::MissingStats { .. }));
}

#[test]
fn selective_predicate_chooses_index_scan() {
    let (db, fact, _) = fixture();
    let p = OptimizerParams::default();
    // v = 7: one row in 20k — index, please.
    let selective = LogicalPlan::scan_filtered(fact, Expr::eq(Expr::col(1), Expr::int(7)));
    let planned = plan_query(&db, &selective, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexScan");
    assert!(planned.est_rows < 10.0);
    // v >= 0: everything — sequential scan.
    let unselective = LogicalPlan::scan_filtered(fact, Expr::ge(Expr::col(1), Expr::int(0)));
    let planned = plan_query(&db, &unselective, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "SeqScan");
}

#[test]
fn what_if_parameters_can_flip_the_access_path() {
    let (db, fact, _) = fixture();
    // A mid-selectivity range where the cache discount decides.
    let q = LogicalPlan::scan_filtered(
        fact,
        Expr::and(
            Expr::ge(Expr::col(1), Expr::int(0)),
            Expr::lt(Expr::col(1), Expr::int(50)),
        ),
    );
    let rich_cache = OptimizerParams {
        effective_cache_size_pages: 1e6,
        ..OptimizerParams::default()
    };
    let poor_cache = OptimizerParams {
        effective_cache_size_pages: 1.0,
        random_page_cost: 40.0,
        ..OptimizerParams::default()
    };
    let rich = plan_query(&db, &q, &rich_cache).unwrap();
    let poor = plan_query(&db, &q, &poor_cache).unwrap();
    assert_eq!(rich.physical.node_name(), "IndexScan");
    assert_eq!(poor.physical.node_name(), "SeqScan");
}

#[test]
fn hypothetical_index_prices_like_a_real_one() {
    let (db, fact, _) = fixture();
    // Cheap random I/O + big cache: the 1%-selective point lookup
    // should prefer an index when one is available.
    let p = OptimizerParams {
        effective_cache_size_pages: 1e6,
        random_page_cost: 1.0,
        ..OptimizerParams::default()
    };
    // k = 7 (200 rows in 20k): no real index on k, so a scan...
    let q = LogicalPlan::scan_filtered(fact, Expr::eq(Expr::col(0), Expr::int(7)));
    let without = plan_query(&db, &q, &p).unwrap();
    assert_eq!(without.physical.node_name(), "SeqScan");
    assert!(!without.uses_hypothetical);
    // ...but a hypothetical index on k flips the access path.
    let hypo = vec![HypoIndex {
        table: fact,
        columns: vec![0],
    }];
    let with = plan_query_with_indexes(&db, &q, &p, &hypo).unwrap();
    assert_eq!(with.physical.node_name(), "IndexScan");
    assert!(with.uses_hypothetical);
    assert!(with.est_cost_units < without.est_cost_units);
    // Its priced geometry must match what a real build produces.
    let mut db2 = db;
    let real = db2.create_index("fact_k", fact, 0).unwrap();
    let with_real = plan_query(&db2, &q, &p).unwrap();
    assert_eq!(with_real.physical.node_name(), "IndexScan");
    assert!(!with_real.uses_hypothetical);
    let tree = db2.index_tree(real);
    let (h, pg) = dbvirt_storage::BPlusTree::bulk_geometry(tree.len());
    assert_eq!((h, pg), (tree.height(), tree.num_pages()));
    assert!(
        (with.est_cost_units - with_real.est_cost_units).abs() < 1e-9,
        "hypothetical pricing {} != real pricing {}",
        with.est_cost_units,
        with_real.est_cost_units
    );
}

#[test]
fn composite_hypothetical_beats_single_on_two_column_predicate() {
    let (db, fact, _) = fixture();
    let p = OptimizerParams::default();
    // k = 7 AND v < 1000: composite (k, v) prefix range is far more
    // selective at the index than k alone.
    let q = LogicalPlan::scan_filtered(
        fact,
        Expr::and(
            Expr::eq(Expr::col(0), Expr::int(7)),
            Expr::lt(Expr::col(1), Expr::int(1000)),
        ),
    );
    let single = plan_query_with_indexes(
        &db,
        &q,
        &p,
        &[HypoIndex {
            table: fact,
            columns: vec![0],
        }],
    )
    .unwrap();
    let composite = plan_query_with_indexes(
        &db,
        &q,
        &p,
        &[HypoIndex {
            table: fact,
            columns: vec![0, 1],
        }],
    )
    .unwrap();
    assert_eq!(composite.physical.node_name(), "IndexScan");
    assert!(composite.uses_hypothetical);
    assert!(
        composite.est_cost_units < single.est_cost_units,
        "composite {} vs single {}",
        composite.est_cost_units,
        single.est_cost_units
    );
}

#[test]
fn composite_index_scan_executes_and_matches_seq_scan() {
    let (mut db, fact, _) = fixture();
    let idx = db.create_index_multi("fact_k_v", fact, &[0, 1]).unwrap();
    db.analyze_all().unwrap();
    let p = OptimizerParams::default();
    let filter = Expr::and(
        Expr::eq(Expr::col(0), Expr::int(7)),
        Expr::lt(Expr::col(1), Expr::int(1000)),
    );
    let q = LogicalPlan::scan_filtered(fact, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    match &planned.physical {
        PhysicalPlan::IndexScan { index, .. } => assert_eq!(*index, idx),
        other => panic!("expected composite IndexScan, got {}", other.node_name()),
    }
    let run = |db: &mut Database, plan: &PhysicalPlan| {
        let mut pool = dbvirt_storage::BufferPool::new(256);
        dbvirt_engine::run_plan(
            db,
            &mut pool,
            plan,
            1 << 20,
            dbvirt_engine::CpuCosts::default(),
        )
        .unwrap()
        .rows
    };
    let via_index = run(&mut db, &planned.physical);
    let via_scan = run(
        &mut db,
        &PhysicalPlan::SeqScan {
            table: fact,
            filter: Some(filter),
        },
    );
    // k=7, v<1000 -> v in {7, 107, ..., 907}: 10 rows.
    assert_eq!(via_index.len(), 10);
    let sorted = |mut rows: Vec<Tuple>| {
        rows.sort_by_key(|t| t.get(1).as_int());
        rows
    };
    assert_eq!(sorted(via_index), sorted(via_scan));
}

#[test]
fn like_prefix_is_sargable_on_string_index() {
    let mut db = Database::new();
    let t = db.create_table("s", Schema::new(vec![Field::new("name", DataType::Str)]));
    db.insert_rows(
        t,
        (0..10_000).map(|i| Tuple::new(vec![Datum::str(format!("n{:04}", i % 1000))])),
    )
    .unwrap();
    db.create_index("s_name", t, 0).unwrap();
    db.analyze_all().unwrap();
    let p = OptimizerParams {
        effective_cache_size_pages: 1e6,
        random_page_cost: 1.0,
        ..OptimizerParams::default()
    };
    // "n000%" matches n0000..n0009: 1% of rows.
    let filter = Expr::like(Expr::col(0), "n000%");
    let q = LogicalPlan::scan_filtered(t, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexScan");
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &mut db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 100, "10 names x 10 repeats");
    assert!(out.rows.iter().all(|t| match t.get(0) {
        Datum::Str(s) => s.starts_with("n000"),
        _ => false,
    }));
}

#[test]
fn index_and_path_chosen_for_two_selective_arms() {
    let (mut db, fact, _) = fixture();
    db.create_index("fact_k", fact, 0).unwrap();
    db.analyze_all().unwrap();
    // Pay dearly for page I/O of any kind: each single-index arm still
    // fetches ~200 heap tuples, while the intersection fetches 2 —
    // narrowing before the heap wins.
    let p = OptimizerParams {
        effective_cache_size_pages: 1.0,
        random_page_cost: 400.0,
        seq_page_cost: 400.0,
        ..OptimizerParams::default()
    };
    let filter = Expr::and(
        Expr::eq(Expr::col(0), Expr::int(7)),
        Expr::lt(Expr::col(1), Expr::int(200)),
    );
    let q = LogicalPlan::scan_filtered(fact, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexAnd");
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &mut db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    // k=7 and v<200 -> v in {7, 107}: 2 rows.
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn index_or_path_covers_disjunction() {
    let (mut db, fact, _) = fixture();
    db.analyze_all().unwrap();
    // Expensive pages: two point probes beat one full scan.
    let p = OptimizerParams {
        effective_cache_size_pages: 1.0,
        random_page_cost: 400.0,
        seq_page_cost: 400.0,
        ..OptimizerParams::default()
    };
    let filter = Expr::or(
        Expr::eq(Expr::col(1), Expr::int(7)),
        Expr::eq(Expr::col(1), Expr::int(9901)),
    );
    let q = LogicalPlan::scan_filtered(fact, filter.clone());
    let planned = plan_query(&db, &q, &p).unwrap();
    assert_eq!(planned.physical.node_name(), "IndexOr");
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &mut db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    // v=7 plus v=9901: 2 distinct rows.
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn join_plans_build_on_smaller_side() {
    let (db, fact, dim) = fixture();
    let q = LogicalPlan::scan(fact).join(
        LogicalPlan::scan(dim),
        vec![JoinCondition {
            left_col: 0,
            right_col: 0,
        }],
    );
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    // The join output order must match the logical order, and the build
    // (right) side should be the small dimension table.
    match &planned.physical {
        PhysicalPlan::HashJoin { right, .. } => {
            assert_eq!(right.node_name(), "SeqScan");
            match right.as_ref() {
                PhysicalPlan::SeqScan { table, .. } => assert_eq!(*table, dim),
                _ => unreachable!(),
            }
        }
        PhysicalPlan::Project { input, .. } => {
            assert_eq!(input.node_name(), "HashJoin");
        }
        other => panic!("expected a hash join, got {}", other.node_name()),
    }
    // FK join cardinality ~ fact size.
    assert!((planned.est_rows - 20_000.0).abs() / 20_000.0 < 0.2);
}

#[test]
fn three_way_join_dp_produces_executable_plan() {
    let (db, fact, dim) = fixture();
    // fact JOIN dim ON k JOIN dim2 ON k (reuse dim as a third relation
    // via a second scan).
    let q = LogicalPlan::scan(fact)
        .join(
            LogicalPlan::scan(dim),
            vec![JoinCondition {
                left_col: 0,
                right_col: 0,
            }],
        )
        .join(
            LogicalPlan::scan(dim),
            vec![JoinCondition {
                left_col: 3, // dim.k from the first join's output
                right_col: 0,
            }],
        );
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    assert!(planned.est_cost_units > 0.0);
    // Execute it and verify output arity = 3 + 2 + 2.
    let mut db = db;
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &mut db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    assert_eq!(out.schema.len(), 7);
    assert_eq!(out.rows.len(), 20_000);
    // Column order restored: column 0 is fact.k, column 3 is dim.k.
    for row in out.rows.iter().take(50) {
        assert_eq!(row.get(0), row.get(3));
        assert_eq!(row.get(0), row.get(5));
    }
}

#[test]
fn aggregate_estimates_groups() {
    let (db, fact, _) = fixture();
    let q = LogicalPlan::scan(fact)
        .aggregate(vec![2], vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")]);
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    assert!((planned.est_rows - 5.0).abs() < 1.0, "5 groups expected");
}

#[test]
fn semi_join_keeps_left_schema() {
    let (db, fact, dim) = fixture();
    let q = LogicalPlan::scan(fact).join_as(
        LogicalPlan::scan(dim),
        vec![JoinCondition {
            left_col: 0,
            right_col: 0,
        }],
        JoinType::Semi,
    );
    let planned = plan_query(&db, &q, &OptimizerParams::default()).unwrap();
    let mut db = db;
    let mut pool = dbvirt_storage::BufferPool::new(256);
    let out = dbvirt_engine::run_plan(
        &mut db,
        &mut pool,
        &planned.physical,
        1 << 20,
        dbvirt_engine::CpuCosts::default(),
    )
    .unwrap();
    assert_eq!(out.schema.len(), 3);
    assert_eq!(out.rows.len(), 20_000, "all fact keys appear in dim");
}

#[test]
fn estimated_seconds_scale_with_unit() {
    let (db, fact, _) = fixture();
    let q = LogicalPlan::scan(fact);
    let mut p1 = OptimizerParams::default();
    let planned = plan_query(&db, &q, &p1).unwrap();
    let s1 = planned.est_seconds(&p1);
    p1.unit_seconds *= 2.0;
    assert!((planned.est_seconds(&p1) - 2.0 * s1).abs() < 1e-12);
}
