//! Integration: SQL text and hand-built logical plans produce identical
//! results through the full optimize-and-execute pipeline, on the TPC-H
//! database.

use dbvirt::engine::{run_plan, CpuCosts, Database};
use dbvirt::optimizer::{plan_query, LogicalPlan, OptimizerParams};
use dbvirt::sql::parse_query;
use dbvirt::storage::{BufferPool, Tuple};
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};

fn execute(db: &Database, plan: &LogicalPlan) -> Vec<Tuple> {
    let planned = plan_query(db, plan, &OptimizerParams::default()).unwrap();
    let mut pool = BufferPool::new(4096);
    run_plan(
        db,
        &mut pool,
        &planned.physical,
        4 << 20,
        CpuCosts::default(),
    )
    .unwrap()
    .rows
}

/// TPC-H Q6 written as SQL must agree with the hand-built plan.
#[test]
fn sql_q6_matches_handbuilt_plan() {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let hand = TpchQuery::Q6.plan(&t);
    let hand_result = execute(&t.db, &hand);

    let sql = "SELECT SUM(l_extendedprice * l_discount) AS revenue \
               FROM lineitem \
               WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
                 AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";
    let parsed = parse_query(sql, &t.db).unwrap();
    let sql_result = execute(&t.db, &parsed);

    assert_eq!(hand_result.len(), 1);
    assert_eq!(sql_result.len(), 1);
    let (a, b) = (
        hand_result[0].get(0).as_float().unwrap(),
        sql_result[0].get(0).as_float().unwrap(),
    );
    assert!(
        (a - b).abs() < 1e-6 * a.abs().max(1.0),
        "hand-built {a} vs SQL {b}"
    );
}

/// TPC-H Q1's grouping written as SQL: same groups, same sums.
#[test]
fn sql_q1_style_aggregation_matches() {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let sql = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n \
               FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
               GROUP BY l_returnflag, l_linestatus \
               ORDER BY l_returnflag, l_linestatus";
    let parsed = parse_query(sql, &t.db).unwrap();
    let via_sql = execute(&t.db, &parsed);

    let hand = TpchQuery::Q1.plan(&t);
    let via_hand = execute(&t.db, &hand);
    assert_eq!(via_sql.len(), via_hand.len(), "same group count");
    for (s, h) in via_sql.iter().zip(&via_hand) {
        assert_eq!(s.get(0), h.get(0), "returnflag");
        assert_eq!(s.get(1), h.get(1), "linestatus");
        // Q1's sum_qty is the hand plan's column 2.
        assert_eq!(s.get(2), h.get(2), "sum_qty");
        // count(*) is the hand plan's last column.
        assert_eq!(s.get(3), h.get(9), "count");
    }
}

/// A Q13-flavoured LEFT JOIN distribution via SQL executes and respects
/// the left-join semantics (every customer is counted somewhere).
#[test]
fn sql_left_join_distribution() {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let sql = "SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count \
               FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey \
               GROUP BY c.c_custkey";
    let parsed = parse_query(sql, &t.db).unwrap();
    let rows = execute(&t.db, &parsed);
    let n_customers = t.db.table(t.customer).stats.as_ref().unwrap().n_rows;
    assert_eq!(rows.len() as u64, n_customers);
    let total_orders: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
    let n_orders = t.db.table(t.orders).stats.as_ref().unwrap().n_rows;
    assert_eq!(total_orders as u64, n_orders, "every order counted once");
}

/// Semi-join-free SQL subset still covers a four-table join.
#[test]
fn sql_multi_join_executes() {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let sql = "SELECT n.n_name, COUNT(*) AS orders \
               FROM customer c \
               JOIN orders o ON c.c_custkey = o.o_custkey \
               JOIN nation n ON c.c_nationkey = n.n_nationkey \
               JOIN region r ON n.n_regionkey = r.r_regionkey \
               WHERE r.r_name = 'ASIA' \
               GROUP BY n.n_name ORDER BY orders DESC";
    let parsed = parse_query(sql, &t.db).unwrap();
    let rows = execute(&t.db, &parsed);
    assert!(!rows.is_empty());
    assert!(rows.len() <= 5, "at most the five ASIA nations");
    let counts: Vec<i64> = rows.iter().map(|r| r.get(1).as_int().unwrap()).collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));
}

/// The SQL path and the what-if mode compose: a SQL query can be priced
/// under a calibrated parameter vector.
#[test]
fn sql_plans_are_whatif_priceable() {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let sql = "SELECT COUNT(*) AS n FROM orders WHERE o_orderdate >= DATE '1995-06-01'";
    let parsed = parse_query(sql, &t.db).unwrap();
    let mut cheap_cpu = OptimizerParams::postgres_defaults();
    let mut dear_cpu = OptimizerParams::postgres_defaults();
    dear_cpu.cpu_tuple_cost *= 4.0;
    dear_cpu.cpu_operator_cost *= 4.0;
    cheap_cpu.effective_cache_size_pages = 1.0;
    dear_cpu.effective_cache_size_pages = 1.0;
    let est = |p: &OptimizerParams| plan_query(&t.db, &parsed, p).unwrap().est_seconds();
    let (a, b) = (est(&cheap_cpu), est(&dear_cpu));
    assert!(b > a, "dearer CPU must raise the estimate: {a} vs {b}");
}

/// A negated numeric literal binds as a literal, so it may stand in an
/// `IN` list; the filter agrees with its un-negated spelling.
#[test]
fn sql_negative_literals_bind_in_lists() {
    let mut t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let count = |t: &mut TpchDb, filter: &str| {
        let sql = format!("SELECT COUNT(*) AS n FROM nation WHERE {filter}");
        let parsed = parse_query(&sql, &t.db).unwrap();
        execute(&t.db, &parsed)[0].get(0).as_int().unwrap()
    };
    let negated = count(&mut t, "n_regionkey - 2 IN (-2, -1)");
    assert_eq!(negated, count(&mut t, "n_regionkey IN (0, 1)"));
    assert!(negated > 0);
}
