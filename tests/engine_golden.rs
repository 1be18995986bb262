//! Golden engine bits: what the executor charges to the virtual clock, and
//! what it returns, for every benchmark query, every calibration probe and a
//! set of hand-built plans over each access path and operator, at two
//! buffer-pool sizes and two `work_mem` values (one small enough that sorts
//! and hash joins spill).
//!
//! Each line holds the `f64` bits of the CPU cycles charged, the
//! sequential/random/written page counts, the row count and an FNV-1a hash of
//! the encoded output rows in order — once on a cold pool and once more on
//! the pool that run left behind. `tests/golden/engine_demand_bits.txt` was
//! captured from the commit *before* the executor learned to borrow rows
//! from page bytes — its `hash_join_*`, `sort_two_keys` and
//! `limit_over_sort` lines from the commit before joins and sorts stopped
//! decoding the rows they keep; a change that moves one bit of one demand,
//! reorders one page fetch (the clock sweep would evict differently) or
//! alters one output row fails here.
//!
//! A second test reproduces the same 424 lines without executing under any
//! of the four configurations: each plan runs twice on a carrier pool and
//! [`Profile::demand_under`] answers the rest.
//!
//! To re-capture after an intended change to the virtual clock:
//! `GOLDEN_REGENERATE=1 cargo test --test engine_golden`.

mod common;

use common::LOOKUPS;
use dbvirt::calibrate::probes::build_probes;
use dbvirt::calibrate::ProbeDb;
use dbvirt::engine::{
    run_plan, AggExpr, AggFunc, BinOp, CpuCosts, Database, Expr, IndexArm, JoinType, PhysicalPlan,
    Profile, SortKey,
};
use dbvirt::optimizer::{plan_query, OptimizerParams};
use dbvirt::sql::parse_query;
use dbvirt::storage::{BufferPool, Datum, Tuple};
use dbvirt::tpch::{col, TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::kernel::Fnv1a;
use dbvirt::vmm::ResourceDemand;
use std::ops::Bound;

const GOLDEN: &str = "tests/golden/engine_demand_bits.txt";

/// Buffer-pool sizes in pages: one that thrashes on every table scan, one
/// that holds the whole database.
const POOLS: [usize; 2] = [16, 4096];
/// `work_mem` in bytes: one every sort and hash build fits, one they spill
/// under.
const WORK_MEMS: [usize; 2] = [4 << 20, 16 << 10];

fn int_range(lo: i64, hi: i64) -> (Bound<Datum>, Bound<Datum>) {
    (
        Bound::Included(Datum::Int(lo)),
        Bound::Excluded(Datum::Int(hi)),
    )
}

fn boxed(plan: PhysicalPlan) -> Box<PhysicalPlan> {
    Box::new(plan)
}

/// Hand-built plans over the access paths and operators the planner does
/// not pick for the benchmark statements.
fn handmade(t: &TpchDb) -> Vec<(String, PhysicalPlan)> {
    use col::{
        customer as c, lineitem as l, nation as n, orders as o, partsupp as ps, region as r,
    };
    let index = |table, column| t.db.index_on(table, column).expect("stock index");
    let arm = |column, lo, hi| {
        let (lo, hi) = int_range(lo, hi);
        IndexArm {
            index: index(t.lineitem, column),
            lo,
            hi,
        }
    };
    let in_range = |column, lo, hi| {
        Expr::and(
            Expr::ge(Expr::col(column), Expr::int(lo)),
            Expr::lt(Expr::col(column), Expr::int(hi)),
        )
    };
    let lineitem_by_order = |lo, hi, filter| {
        let (lo, hi) = int_range(lo, hi);
        PhysicalPlan::IndexScan {
            table: t.lineitem,
            index: index(t.lineitem, l::ORDERKEY),
            lo,
            hi,
            filter,
        }
    };
    let sorted_scan = |table, column| PhysicalPlan::Sort {
        input: boxed(PhysicalPlan::SeqScan {
            table,
            filter: None,
        }),
        keys: vec![SortKey::asc(column)],
    };
    let nation_region = |join_type| PhysicalPlan::NestedLoopJoin {
        left: boxed(PhysicalPlan::SeqScan {
            table: t.nation,
            filter: None,
        }),
        right: boxed(PhysicalPlan::SeqScan {
            table: t.region,
            filter: Some(Expr::like(Expr::col(r::NAME), "A%")),
        }),
        // nation has four columns, so region's start at 4.
        predicate: Some(Expr::eq(
            Expr::col(n::REGIONKEY),
            Expr::col(4 + r::REGIONKEY),
        )),
        join_type,
    };
    let revenue = Expr::mul(
        Expr::col(l::EXTENDEDPRICE),
        Expr::sub(Expr::float(1.0), Expr::col(l::DISCOUNT)),
    );
    let seq = |table, filter| boxed(PhysicalPlan::SeqScan { table, filter });
    // customer LEFT JOIN a slice of orders: sixteen columns, the last eight
    // NULL for a customer the slice holds no order of.
    let customers_padded = |orders_filter| PhysicalPlan::HashJoin {
        left: seq(
            t.customer,
            Some(Expr::lt(Expr::col(c::CUSTKEY), Expr::int(300))),
        ),
        right: seq(t.orders, Some(orders_filter)),
        left_keys: vec![c::CUSTKEY],
        right_keys: vec![o::CUSTKEY],
        join_type: JoinType::Left,
    };
    // Hash joins over the three key shapes: a duplicate-heavy single key
    // (ten orders to a customer, the first third of customers with none), a
    // two-column key, and — a join over two joins — the padded side of a
    // left join, whose key is NULL on both sides for the unmatched.
    let hash_joins = |join_type| {
        let name = |shape: &str| {
            format!(
                "hash_join_{}_{shape}",
                format!("{join_type:?}").to_lowercase()
            )
        };
        [
            (
                name("dup_key"),
                PhysicalPlan::HashJoin {
                    left: seq(t.customer, None),
                    right: seq(
                        t.orders,
                        Some(Expr::ge(Expr::col(o::CUSTKEY), Expr::int(250))),
                    ),
                    left_keys: vec![c::CUSTKEY],
                    right_keys: vec![o::CUSTKEY],
                    join_type,
                },
            ),
            (
                name("two_col_key"),
                PhysicalPlan::HashJoin {
                    left: seq(
                        t.lineitem,
                        Some(Expr::lt(Expr::col(l::ORDERKEY), Expr::int(2000))),
                    ),
                    right: seq(
                        t.partsupp,
                        Some(Expr::lt(Expr::col(ps::AVAILQTY), Expr::int(6000))),
                    ),
                    left_keys: vec![l::PARTKEY, l::SUPPKEY],
                    right_keys: vec![ps::PARTKEY, ps::SUPPKEY],
                    join_type,
                },
            ),
            (
                name("null_keys"),
                PhysicalPlan::HashJoin {
                    left: boxed(customers_padded(Expr::eq(
                        Expr::col(o::ORDERPRIORITY),
                        Expr::str("1-URGENT"),
                    ))),
                    right: boxed(customers_padded(Expr::eq(
                        Expr::col(o::ORDERSTATUS),
                        Expr::str("F"),
                    ))),
                    // customer has eight columns, so orders' start at 8.
                    left_keys: vec![8 + o::CUSTKEY],
                    right_keys: vec![8 + o::CUSTKEY],
                    join_type,
                },
            ),
        ]
    };
    // Ties on (priority, customer) keep their scan order: the sort is stable.
    let sort_two_keys = || PhysicalPlan::Sort {
        input: seq(t.orders, None),
        keys: vec![SortKey::asc(o::ORDERPRIORITY), SortKey::desc(o::CUSTKEY)],
    };

    let mut cases = vec![
        (
            "seq_all_lineitem".to_string(),
            PhysicalPlan::SeqScan {
                table: t.lineitem,
                filter: None,
            },
        ),
        (
            "seq_lookup".to_string(),
            PhysicalPlan::Project {
                input: boxed(PhysicalPlan::SeqScan {
                    table: t.lineitem,
                    filter: Some(Expr::and(
                        Expr::eq(Expr::col(l::SUPPKEY), Expr::int(17)),
                        Expr::or(
                            Expr::like(Expr::col(l::LINESTATUS), "%O%"),
                            Expr::in_list(
                                Expr::col(l::RETURNFLAG),
                                vec![Datum::str("R"), Datum::Null],
                            ),
                        ),
                    )),
                }),
                exprs: vec![
                    (Expr::col(l::ORDERKEY), "k".to_string()),
                    (revenue.clone(), "rev".to_string()),
                    (
                        Expr::Case {
                            branches: vec![(
                                Expr::gt(Expr::col(l::QUANTITY), Expr::float(25.0)),
                                Expr::str("bulk"),
                            )],
                            else_expr: Some(Box::new(Expr::col(l::LINESTATUS))),
                        },
                        "kind".to_string(),
                    ),
                ],
            },
        ),
        (
            "index_lookup".to_string(),
            lineitem_by_order(
                4000,
                4400,
                Some(Expr::gt(Expr::col(l::QUANTITY), Expr::float(10.0))),
            ),
        ),
        (
            "index_and".to_string(),
            PhysicalPlan::IndexAnd {
                table: t.lineitem,
                arms: vec![arm(l::ORDERKEY, 1000, 9000), arm(l::PARTKEY, 100, 400)],
                filter: Some(Expr::and(
                    in_range(l::ORDERKEY, 1000, 9000),
                    in_range(l::PARTKEY, 100, 400),
                )),
            },
        ),
        (
            "index_or".to_string(),
            PhysicalPlan::IndexOr {
                table: t.lineitem,
                arms: vec![arm(l::ORDERKEY, 2000, 2100), arm(l::PARTKEY, 500, 520)],
                filter: Some(Expr::or(
                    in_range(l::ORDERKEY, 2000, 2100),
                    in_range(l::PARTKEY, 500, 520),
                )),
            },
        ),
        (
            "hash_agg_over_index".to_string(),
            PhysicalPlan::HashAgg {
                input: boxed(lineitem_by_order(0, 6000, None)),
                group_by: vec![l::RETURNFLAG, l::LINESTATUS],
                aggs: vec![
                    AggExpr::count_star("n"),
                    AggExpr::new(AggFunc::Sum, revenue.clone(), "rev"),
                    AggExpr::new(AggFunc::Min, Expr::col(l::SHIPDATE), "first"),
                    AggExpr::new(AggFunc::Max, Expr::col(l::RETURNFLAG), "flag"),
                ],
            },
        ),
        (
            "sort_agg_over_sort".to_string(),
            PhysicalPlan::SortAgg {
                input: boxed(sorted_scan(t.orders, o::ORDERPRIORITY)),
                group_by: vec![o::ORDERPRIORITY],
                aggs: vec![
                    AggExpr::count_star("n"),
                    AggExpr::new(AggFunc::Avg, Expr::col(o::TOTALPRICE), "avg"),
                    AggExpr::new(AggFunc::Count, Expr::col(o::CUSTKEY), "c"),
                ],
            },
        ),
        (
            "sort_agg_over_scan".to_string(),
            PhysicalPlan::SortAgg {
                input: boxed(PhysicalPlan::SeqScan {
                    table: t.lineitem,
                    filter: Some(Expr::lt(Expr::col(l::ORDERKEY), Expr::int(3000))),
                }),
                group_by: vec![l::ORDERKEY],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(l::QUANTITY), "qty")],
            },
        ),
        (
            "having_over_scan".to_string(),
            PhysicalPlan::Limit {
                input: boxed(PhysicalPlan::Filter {
                    input: boxed(PhysicalPlan::SeqScan {
                        table: t.orders,
                        filter: None,
                    }),
                    predicate: Expr::gt(
                        Expr::arith(BinOp::Div, Expr::col(o::TOTALPRICE), Expr::int(2)),
                        Expr::float(100_000.0),
                    ),
                }),
                limit: 50,
            },
        ),
        (
            "merge_join".to_string(),
            PhysicalPlan::MergeJoin {
                left: boxed(sorted_scan(t.nation, n::REGIONKEY)),
                right: boxed(sorted_scan(t.region, r::REGIONKEY)),
                left_key: n::REGIONKEY,
                right_key: r::REGIONKEY,
            },
        ),
        ("nlj_inner".to_string(), nation_region(JoinType::Inner)),
        ("nlj_left".to_string(), nation_region(JoinType::Left)),
        ("nlj_semi".to_string(), nation_region(JoinType::Semi)),
        ("nlj_anti".to_string(), nation_region(JoinType::Anti)),
    ];
    for join_type in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        cases.extend(hash_joins(join_type));
    }
    cases.push(("sort_two_keys".to_string(), sort_two_keys()));
    cases.push((
        "limit_over_sort".to_string(),
        PhysicalPlan::Limit {
            input: boxed(sort_two_keys()),
            limit: 100,
        },
    ));
    cases
}

/// How a case's demands are obtained.
#[derive(Clone, Copy)]
enum Via {
    /// Executed under each `(pool, work_mem)`: cold, then warm on the pool
    /// the cold run left behind.
    Execution,
    /// Executed twice, once in all, on a carrier pool of neither size; each
    /// `(pool, work_mem)` is then answered by [`Profile::demand_under`].
    Replay,
}

/// One line per `(case, pool, work_mem, cold|warm)`.
fn render_case(out: &mut String, db: &Database, name: &str, plan: &PhysicalPlan, via: Via) {
    let mut line = |pool_pages, work_mem, run, d: ResourceDemand, rows: &[Tuple]| {
        let mut hash = Fnv1a::new();
        for row in rows {
            hash.eat(&row.encode());
        }
        let hash = hash.finish();
        out.push_str(&format!(
            "{name} pool={pool_pages} work_mem={work_mem} {run} {:016x} {} {} {} {} {hash:016x}\n",
            d.cpu_cycles.to_bits(),
            d.seq_page_reads,
            d.random_page_reads,
            d.page_writes,
            rows.len(),
        ));
    };
    const RUNS: [&str; 2] = ["cold", "warm"];
    match via {
        Via::Execution => {
            for pool_pages in POOLS {
                for work_mem in WORK_MEMS {
                    let mut pool = BufferPool::new(pool_pages);
                    for run in RUNS {
                        let result = run_plan(db, &mut pool, plan, work_mem, CpuCosts::default())
                            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
                        line(pool_pages, work_mem, run, result.demand, &result.rows);
                    }
                }
            }
        }
        Via::Replay => {
            let mut carrier = BufferPool::new(64);
            let mut profile = Profile::new();
            let rows = RUNS.map(|_| {
                profile
                    .run(db, &mut carrier, plan, CpuCosts::default())
                    .unwrap_or_else(|e| panic!("{name} failed: {e}"))
            });
            for pool_pages in POOLS {
                for work_mem in WORK_MEMS {
                    let demands = profile
                        .demand_under(pool_pages, work_mem)
                        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
                    for ((run, demand), rows) in RUNS.into_iter().zip(demands).zip(&rows) {
                        line(pool_pages, work_mem, run, demand, rows);
                    }
                }
            }
        }
    }
}

fn render(via: Via) -> String {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.005,
        seed: 42,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    let params = OptimizerParams::default();

    let mut cases: Vec<(String, PhysicalPlan)> = TpchQuery::all()
        .iter()
        .map(|q| {
            let planned = plan_query(&t.db, &q.plan(&t), &params).expect("plans");
            (q.to_string(), planned.physical)
        })
        .collect();
    for (i, sql) in LOOKUPS.iter().enumerate() {
        let logical = parse_query(sql, &t.db).expect("lookup compiles");
        let planned = plan_query(&t.db, &logical, &params).expect("plans");
        cases.push((format!("lookup{i}"), planned.physical));
    }
    cases.extend(handmade(&t));

    let mut out = String::new();
    for (name, plan) in &cases {
        render_case(&mut out, &t.db, name, plan, via);
    }

    let pdb = ProbeDb::template().expect("probe database");
    for probe in build_probes(pdb).expect("probe suite") {
        render_case(
            &mut out,
            &pdb.db,
            &format!("probe_{}", probe.name),
            &probe.plan,
            via,
        );
    }
    out
}

#[test]
fn every_plan_charges_and_returns_the_committed_bits() {
    common::assert_golden(GOLDEN, &render(Via::Execution));
}

/// Memory is accounting: two executions per case on a carrier pool answer
/// all eight of its lines — thrashing and resident pools, spilling and
/// fitting `work_mem`, the warm run after the cold one — to the bit.
#[test]
fn one_profile_per_plan_replays_to_the_committed_bits() {
    common::assert_golden(GOLDEN, &render(Via::Replay));
}
