//! The prepared what-if path against the planning path: a query analysed
//! once and priced under many parameter vectors must report, bit for bit,
//! what planning it afresh under each vector reports — so
//! `plan_query(..).est_seconds(..)` is the one-shot form of the what-if
//! estimate — and an analysis without hypothetical indexes, offered a
//! configuration, must price and plan exactly like an analysis with that
//! configuration.

#[path = "../../../tests/common/lookups.rs"]
mod lookups;

use dbvirt_calibrate::CalibrationGrid;
use dbvirt_engine::{AggExpr, AggFunc, Database, Expr, JoinType, TableId};
use dbvirt_optimizer::{
    plan_query, plan_query_with_indexes, CheckedParams, HypoIndex, JoinCondition, LogicalPlan,
    OptError, OptimizerParams, PreparedQuery,
};
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt_vmm::kernel::SplitMix64;
use dbvirt_vmm::{MachineSpec, ResourceVector};
use proptest::prelude::*;

struct Fixture {
    db: Database,
    fact: TableId,
    mid: TableId,
    dim: TableId,
}

/// `fact(k, v, grp)` 20k rows with an index on `v`; `mid(k, w, tag)` 2k
/// rows with an index on `w`; `dim(k, label)` 100 rows. `k` is the join key
/// everywhere (100 distinct values).
fn fixture() -> Fixture {
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
    let mid = db.create_table(
        "mid",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("w", DataType::Int),
            Field::new("tag", DataType::Str),
        ]),
    );
    db.insert_rows(
        mid,
        (0..2_000).map(|i| {
            Tuple::new(vec![
                Datum::Int(i % 100),
                Datum::Int(i * 3),
                Datum::str(format!("tag-{:04}", i % 50)),
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
    db.create_index("mid_w", mid, 1).unwrap();
    db.analyze_all().unwrap();
    Fixture { db, fact, mid, dim }
}

fn on(left_col: usize, right_col: usize) -> JoinCondition {
    JoinCondition {
        left_col,
        right_col,
    }
}

/// `fact ⋈ mid ⋈ dim` written `(fact, mid), dim` with both conditions on
/// the outer join, so the DP is free to join `dim` to either side first.
fn star(f: &Fixture) -> LogicalPlan {
    LogicalPlan::scan(f.fact)
        .join(LogicalPlan::scan(f.mid), vec![])
        .join(LogicalPlan::scan(f.dim), vec![on(0, 0), on(3, 0)])
}

/// One query per planner feature: every access-path kind, the join DP, an
/// ordering barrier, aggregation over a join, a sort and a limit.
fn queries(f: &Fixture) -> Vec<LogicalPlan> {
    let range = |lo: i64, hi: i64| {
        Expr::and(
            Expr::ge(Expr::col(1), Expr::int(lo)),
            Expr::lt(Expr::col(1), Expr::int(hi)),
        )
    };
    vec![
        LogicalPlan::scan(f.fact),
        LogicalPlan::scan_filtered(f.fact, range(0, 50)),
        LogicalPlan::scan_filtered(
            f.fact,
            Expr::and(Expr::eq(Expr::col(0), Expr::int(7)), range(100, 1_100)),
        ),
        LogicalPlan::scan_filtered(
            f.fact,
            Expr::or(
                Expr::eq(Expr::col(1), Expr::int(7)),
                Expr::eq(Expr::col(1), Expr::int(9_901)),
            ),
        ),
        LogicalPlan::scan_filtered(f.mid, Expr::like(Expr::col(2), "tag-000%")),
        star(f),
        LogicalPlan::scan_filtered(f.fact, range(0, 5_000))
            .join(LogicalPlan::scan(f.dim), vec![on(0, 0)])
            .aggregate(vec![2], vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")])
            .sort(vec![dbvirt_engine::SortKey::desc(1)])
            .limit(3),
        LogicalPlan::scan(f.mid)
            .join_as(
                LogicalPlan::scan_filtered(f.fact, range(0, 300)),
                vec![on(0, 0)],
                JoinType::Semi,
            )
            .filter(Expr::gt(Expr::col(1), Expr::int(10)))
            .project(vec![(
                Expr::add(Expr::col(1), Expr::int(1)),
                "w1".to_string(),
            )]),
    ]
}

/// The hypothetical-index pool random subsets are drawn from.
fn hypo_pool(f: &Fixture) -> Vec<HypoIndex> {
    let h = |table, columns: &[usize]| HypoIndex {
        table,
        columns: columns.to_vec(),
    };
    vec![
        h(f.fact, &[0]),
        h(f.fact, &[0, 1]),
        h(f.mid, &[2]),
        h(f.mid, &[0]),
        h(f.dim, &[0]),
    ]
}

/// A parameter vector from seven draws in `[0, 1)`, log-spaced so every
/// field ranges over both sides of every cutoff the cost model has on this
/// fixture: page costs 0.1–400, CPU costs ÷10–×10, cache 1–10⁶ pages,
/// `work_mem` 1 KiB–100 MiB.
fn params(draws: &[f64]) -> CheckedParams {
    const EXPONENTS: [(f64, f64); 7] = [
        (-1.0, 2.6),
        (-1.0, 2.6),
        (-1.0, 1.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
        (0.0, 6.0),
        (0.0, 5.0),
    ];
    let scaled: Vec<f64> = draws
        .iter()
        .zip(EXPONENTS)
        .map(|(u, (lo, hi))| 10f64.powf(lo + u * (hi - lo)))
        .collect();
    let [seq, random, tuple, index, op, cache, mem] = scaled[..] else {
        panic!("seven draws make a parameter vector");
    };
    checked(OptimizerParams {
        seq_page_cost: seq,
        random_page_cost: random,
        cpu_tuple_cost: 0.01 * tuple,
        cpu_index_tuple_cost: 0.005 * index,
        cpu_operator_cost: 0.0025 * op,
        effective_cache_size_pages: cache,
        work_mem_bytes: 1024.0 * mem,
        ..OptimizerParams::default()
    })
}

fn checked(p: OptimizerParams) -> CheckedParams {
    CheckedParams::new(p).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One analysis priced under three vectors, the first of them twice,
    /// equals four fresh plannings — seconds through pricing, cost units
    /// and the plan through materialising.
    #[test]
    fn prop_one_analysis_prices_like_fresh_planning(
        subset in 0usize..32,
        a in prop::collection::vec(0.0f64..1.0, 7..8),
        b in prop::collection::vec(0.0f64..1.0, 7..8),
    ) {
        let f = fixture();
        let hypo: Vec<HypoIndex> = hypo_pool(&f)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| subset >> i & 1 == 1)
            .map(|(_, h)| h)
            .collect();
        let vectors = [
            params(&a),
            params(&b),
            checked(OptimizerParams::default()),
        ];
        for q in queries(&f) {
            let prepared = PreparedQuery::analyse(&f.db, &q, &hypo).unwrap();
            for p in [&vectors[0], &vectors[1], &vectors[2], &vectors[0]] {
                let fresh = plan_query_with_indexes(&f.db, &q, p, &hypo).unwrap();
                prop_assert_eq!(
                    prepared.est_seconds(p).to_bits(),
                    fresh.est_seconds(p).to_bits(),
                    "{q:?} under {p}"
                );
                let planned = prepared.plan(&f.db, &q, p, &hypo).unwrap();
                prop_assert_eq!(
                    planned.est_cost_units.to_bits(),
                    fresh.est_cost_units.to_bits()
                );
                prop_assert_eq!(&planned.physical, &fresh.physical);
            }
        }
    }
}

/// Parameters under which `star`'s build side `mid ⋈ dim` no longer fits
/// `work_mem` while `mid` alone does, with page I/O dear enough for the
/// spill to outweigh the larger intermediate result of joining `dim` to
/// `fact` first.
fn spill_params() -> CheckedParams {
    checked(OptimizerParams {
        work_mem_bytes: 96.0 * 1024.0,
        seq_page_cost: 400.0,
        ..OptimizerParams::default()
    })
}

#[test]
fn a_join_order_flip_prices_identically_through_both_entry_points() {
    let f = fixture();
    let q = star(&f);
    let roomy = checked(OptimizerParams::default());
    let tight = spill_params();

    // `fact ⋈ (mid ⋈ dim)` keeps the logical column order; `(fact ⋈ dim) ⋈
    // mid` permutes it and pays for the projection that restores it.
    let roomy_plan = plan_query(&f.db, &q, &roomy).unwrap();
    let tight_plan = plan_query(&f.db, &q, &tight).unwrap();
    assert_eq!(roomy_plan.physical.node_name(), "HashJoin");
    assert_eq!(tight_plan.physical.node_name(), "Project");
    assert_eq!(roomy_plan.physical.children()[1].node_name(), "HashJoin");
    assert_eq!(
        tight_plan.physical.children()[0].children()[0].node_name(),
        "HashJoin"
    );

    let prepared = PreparedQuery::analyse(&f.db, &q, &[]).unwrap();
    for (p, planned) in [
        (&roomy, &roomy_plan),
        (&tight, &tight_plan),
        (&roomy, &roomy_plan),
    ] {
        assert_eq!(
            prepared.est_seconds(p).to_bits(),
            planned.est_seconds(p).to_bits()
        );
        let materialised = prepared.plan(&f.db, &q, p, &[]).unwrap();
        assert_eq!(
            materialised.est_cost_units.to_bits(),
            planned.est_cost_units.to_bits()
        );
        assert_eq!(materialised.physical, planned.physical);
    }
}

#[test]
fn a_prepared_workload_sums_like_the_per_query_estimates() {
    let f = fixture();
    let workload = queries(&f);
    let prepared: Vec<PreparedQuery> = (workload.iter())
        .map(|q| PreparedQuery::analyse(&f.db, q, &[]).unwrap())
        .collect();
    for p in [checked(OptimizerParams::default()), spill_params()] {
        let analysed_once: f64 = prepared.iter().map(|q| q.est_seconds(&p)).sum();
        let by_query: f64 = workload
            .iter()
            .map(|q| plan_query(&f.db, q, &p).unwrap().est_seconds(&p))
            .sum();
        assert_eq!(analysed_once.to_bits(), by_query.to_bits());
    }
}

#[test]
fn errors_keep_their_order_and_hostile_plans_do_not_panic() {
    let f = fixture();
    let bad_params = OptimizerParams {
        cpu_tuple_cost: f64::NAN,
        ..OptimizerParams::default()
    };
    // A join condition on a column no input has: priced as unconnected.
    let dangling = LogicalPlan::scan(f.fact).join(LogicalPlan::scan(f.dim), vec![on(0, 99)]);
    let planned = plan_query(&f.db, &dangling, &OptimizerParams::default()).unwrap();
    assert_eq!(planned.physical.node_name(), "NestedLoopJoin");
    // Invalid parameters are reported before anything about the plan is.
    let conditionless =
        LogicalPlan::scan(f.fact).join_as(LogicalPlan::scan(f.dim), vec![], JoinType::Semi);
    let err = plan_query(&f.db, &conditionless, &bad_params).unwrap_err();
    assert!(matches!(
        err,
        dbvirt_optimizer::OptError::InvalidParams { .. }
    ));
    let hypo = hypo_pool(&f);
    let err = plan_query_with_indexes(&f.db, &conditionless, &bad_params, &hypo).unwrap_err();
    assert!(matches!(
        err,
        dbvirt_optimizer::OptError::InvalidParams {
            name: "cpu_tuple_cost",
            ..
        }
    ));
    let err = plan_query(&f.db, &conditionless, &OptimizerParams::default()).unwrap_err();
    assert!(matches!(err, dbvirt_optimizer::OptError::BadPlan { .. }));
    // And no analysis can be priced under them: they never become checked.
    assert!(CheckedParams::new(bad_params).is_err());
}

/// Parameter vectors on both sides of the cache cutoff and one with cheap
/// random I/O, plus the calibrated `P(R)` of three cells of a small
/// machine's grid.
fn tpch_params() -> Vec<CheckedParams> {
    let d = OptimizerParams::default();
    let machine = MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    };
    let points = vec![0.25, 0.5, 0.75, 1.0];
    let grid = CalibrationGrid::calibrate(machine, points.clone(), points, 0.5).unwrap();
    let cell = |cpu, mem| {
        let shares = ResourceVector::from_fractions(cpu, mem, 0.5).unwrap();
        grid.params_for(shares).unwrap()
    };
    vec![
        checked(OptimizerParams {
            effective_cache_size_pages: 1.0,
            random_page_cost: 40.0,
            ..d
        }),
        checked(OptimizerParams {
            effective_cache_size_pages: 1e6,
            ..d
        }),
        checked(OptimizerParams {
            effective_cache_size_pages: 1e6,
            random_page_cost: 1.0,
            ..d
        }),
        cell(0.25, 0.25),
        cell(0.5, 0.75),
        cell(1.0, 1.0),
    ]
}

/// Hypothetical indexes over TPC-H, as `(table, key columns)`:
/// single-column and composite ones on the columns the statements filter,
/// and some on tables most of them never scan.
const TPCH_HYPO_POOL: [(&str, &[&str]); 13] = [
    ("lineitem", &["l_partkey"]),
    ("lineitem", &["l_suppkey"]),
    ("lineitem", &["l_shipdate"]),
    ("lineitem", &["l_quantity"]),
    ("lineitem", &["l_partkey", "l_quantity"]),
    ("lineitem", &["l_discount", "l_quantity"]),
    ("orders", &["o_custkey"]),
    ("orders", &["o_orderdate"]),
    ("orders", &["o_orderstatus", "o_orderdate"]),
    ("customer", &["c_mktsegment"]),
    ("part", &["p_size"]),
    ("region", &["r_name"]),
    ("nation", &["n_regionkey"]),
];

/// `offering` against a fresh analysis with the same indexes, over the nine
/// TPC-H queries and the eight lookup shapes: eight seeded configurations
/// of one or two pool indexes per statement — every other one drawn from
/// the indexes whose columns the statement names — each priced to the same
/// bits and materialised to the same physical plan as
/// `plan_query_with_indexes`.
#[test]
fn an_offered_analysis_prices_and_plans_like_a_fresh_one() {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.005,
        seed: 42,
        with_indexes: true,
    })
    .unwrap();
    let texts = TpchQuery::all().map(|q| q.sql());
    let pool: Vec<(HypoIndex, &[&str])> = TPCH_HYPO_POOL
        .iter()
        .map(|&(table, names)| {
            let table = t.db.table_id(table).unwrap();
            let schema = &t.db.table(table).schema;
            let columns = names.iter().map(|n| schema.index_of(n).unwrap()).collect();
            (HypoIndex { table, columns }, names)
        })
        .collect();
    let vectors = tpch_params();
    let mut r = SplitMix64(51);
    let (mut configs, mut moved) = (0, 0);
    for sql in texts.iter().chain(&lookups::LOOKUPS) {
        let q = dbvirt_sql::parse_query(sql, &t.db).unwrap();
        let bare = PreparedQuery::analyse(&t.db, &q, &[]).unwrap();
        let named: Vec<&HypoIndex> = (pool.iter())
            .filter(|(_, names)| names.iter().all(|n| sql.contains(n)))
            .map(|(h, _)| h)
            .collect();
        let everything: Vec<&HypoIndex> = pool.iter().map(|(h, _)| h).collect();
        for k in 0..8 {
            let from = if k % 2 == 0 && !named.is_empty() {
                &named
            } else {
                &everything
            };
            let hypo: Vec<HypoIndex> = (0..1 + k / 4)
                .map(|_| from[(r.next() % from.len() as u64) as usize].clone())
                .collect();
            let offered = bare.offering(&t.db, &q, &hypo).unwrap();
            let fresh = PreparedQuery::analyse(&t.db, &q, &hypo).unwrap();
            let mut changed = false;
            for p in &vectors {
                let planned = plan_query_with_indexes(&t.db, &q, p, &hypo).unwrap();
                let cost = offered.est_seconds(p);
                let what = format!("{sql} with {hypo:?} under {p}");
                assert_eq!(cost.to_bits(), fresh.est_seconds(p).to_bits(), "{what}");
                assert_eq!(cost.to_bits(), planned.est_seconds(p).to_bits(), "{what}");
                let materialised = offered.plan(&t.db, &q, p, &hypo).unwrap();
                assert_eq!(
                    materialised.est_cost_units.to_bits(),
                    planned.est_cost_units.to_bits(),
                    "{what}"
                );
                assert_eq!(materialised.physical, planned.physical, "{what}");
                assert_eq!(materialised.est_rows.to_bits(), planned.est_rows.to_bits());
                assert_eq!(materialised.uses_hypothetical, planned.uses_hypothetical);
                changed |= cost != bare.est_seconds(p);
            }
            configs += 1;
            moved += usize::from(changed);
        }
    }
    // Only a configuration whose index wins some scan under some vector
    // can tell a re-derived path from a copied one: there must be some.
    assert_eq!(configs, 17 * 8);
    assert!(
        (5..configs / 2).contains(&moved),
        "{moved} of {configs} configurations moved a price"
    );
}

/// `offering` refuses a plan whose scans are not the analysed plan's, and
/// materialising an analysis for another plan fails without a panic.
#[test]
fn an_analysis_refuses_a_plan_it_did_not_analyse() {
    let f = fixture();
    let plans = queries(&f);
    let hypo = hypo_pool(&f);
    let p = checked(OptimizerParams::default());
    // Each query's scanned tables, in analysis order.
    let scans = [
        &[f.fact][..],
        &[f.fact],
        &[f.fact],
        &[f.fact],
        &[f.mid],
        &[f.fact, f.mid, f.dim],
        &[f.fact, f.dim],
        &[f.mid, f.fact],
    ];
    for (i, analysed) in plans.iter().enumerate() {
        let prepared = PreparedQuery::analyse(&f.db, analysed, &[]).unwrap();
        for (j, other) in plans.iter().enumerate() {
            let offered = prepared.offering(&f.db, other, &hypo);
            if scans[i] == scans[j] {
                assert!(offered.is_ok(), "query {i} refused query {j}'s scans");
            } else {
                assert!(
                    matches!(offered, Err(OptError::BadPlan { .. })),
                    "query {i} offered indexes to query {j}"
                );
            }
            if let Err(e) = prepared.plan(&f.db, other, &p, &[]) {
                assert!(matches!(e, OptError::BadPlan { .. }), "{e}");
            }
        }
    }
}
