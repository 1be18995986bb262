//! SQL text for the TPC-H query subset.
//!
//! Q4 and Q13 are the queries the paper's Figures 4 and 5 are built on:
//! Q4 is I/O-bound (a date-windowed semi-join counting orders with late
//! lineitems), Q13 is CPU-bound (a `NOT LIKE` filter over every order
//! comment feeding a two-level aggregation). The remaining queries give
//! the search experiments a spread of resource profiles.
//!
//! Every query is SQL, compiled through the full parser → binder →
//! optimizer pipeline ([`TpchQuery::plan`] → [`dbvirt_sql::parse_query`]).
//! There are no hand-built plans.

use crate::TpchDb;
use dbvirt_optimizer::LogicalPlan;
use std::fmt;

/// The implemented TPC-H queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchQuery {
    /// Pricing summary report (scan + wide aggregation).
    Q1,
    /// Shipping priority (3-way join, top-10).
    Q3,
    /// Order priority checking (date window + semi-join) — Figure 4/5's
    /// I/O-bound query.
    Q4,
    /// Local supplier volume (6-way join).
    Q5,
    /// Forecasting revenue change (selective scan, global aggregate).
    Q6,
    /// Returned item reporting (4-way join, top-20).
    Q10,
    /// Customer distribution (left join + double aggregation) — Figure
    /// 4/5's CPU-bound query.
    Q13,
    /// Promotion effect (join + CASE aggregation).
    Q14,
    /// Large volume customer (HAVING subquery + 3-way join, top-100).
    Q18,
}

impl TpchQuery {
    /// Every implemented query.
    pub fn all() -> [TpchQuery; 9] {
        [
            TpchQuery::Q1,
            TpchQuery::Q3,
            TpchQuery::Q4,
            TpchQuery::Q5,
            TpchQuery::Q6,
            TpchQuery::Q10,
            TpchQuery::Q13,
            TpchQuery::Q14,
            TpchQuery::Q18,
        ]
    }

    /// The SQL text of this query (parameters inlined at the spec's
    /// validation values, dates pre-resolved).
    pub fn sql(self) -> &'static str {
        match self {
            // 1998-12-01 minus 90 days.
            TpchQuery::Q1 => {
                "SELECT l_returnflag, l_linestatus, \
                 SUM(l_quantity) AS sum_qty, \
                 SUM(l_extendedprice) AS sum_base_price, \
                 SUM(l_extendedprice * (1.0 - l_discount)) AS sum_disc_price, \
                 SUM(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)) AS sum_charge, \
                 AVG(l_quantity) AS avg_qty, \
                 AVG(l_extendedprice) AS avg_price, \
                 AVG(l_discount) AS avg_disc, \
                 COUNT(*) AS count_order \
                 FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
                 GROUP BY l_returnflag, l_linestatus \
                 ORDER BY l_returnflag, l_linestatus"
            }
            TpchQuery::Q3 => {
                "SELECT o_orderkey, o_orderdate, o_shippriority, \
                 SUM(l_extendedprice * (1.0 - l_discount)) AS revenue \
                 FROM customer, orders, lineitem \
                 WHERE c_mktsegment = 'BUILDING' \
                 AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
                 AND o_orderdate < DATE '1995-03-15' \
                 AND l_shipdate > DATE '1995-03-15' \
                 GROUP BY o_orderkey, o_orderdate, o_shippriority \
                 ORDER BY revenue DESC, o_orderdate LIMIT 10"
            }
            TpchQuery::Q4 => {
                "SELECT o_orderpriority, COUNT(*) AS order_count \
                 FROM orders \
                 WHERE o_orderdate >= DATE '1993-07-01' \
                 AND o_orderdate < DATE '1993-10-01' \
                 AND EXISTS (SELECT * FROM lineitem \
                 WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate) \
                 GROUP BY o_orderpriority ORDER BY o_orderpriority"
            }
            TpchQuery::Q5 => {
                "SELECT n_name, SUM(l_extendedprice * (1.0 - l_discount)) AS revenue \
                 FROM customer \
                 JOIN orders ON c_custkey = o_custkey \
                 JOIN lineitem ON o_orderkey = l_orderkey \
                 JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
                 JOIN nation ON s_nationkey = n_nationkey \
                 JOIN region ON n_regionkey = r_regionkey \
                 WHERE r_name = 'ASIA' \
                 AND o_orderdate >= DATE '1994-01-01' \
                 AND o_orderdate < DATE '1995-01-01' \
                 GROUP BY n_name ORDER BY revenue DESC"
            }
            TpchQuery::Q6 => {
                "SELECT SUM(l_extendedprice * l_discount) AS revenue \
                 FROM lineitem \
                 WHERE l_shipdate >= DATE '1994-01-01' \
                 AND l_shipdate < DATE '1995-01-01' \
                 AND l_discount BETWEEN 0.05 AND 0.07 \
                 AND l_quantity < 24"
            }
            TpchQuery::Q10 => {
                "SELECT c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment, \
                 SUM(l_extendedprice * (1.0 - l_discount)) AS revenue \
                 FROM customer \
                 JOIN orders ON c_custkey = o_custkey \
                 JOIN lineitem ON o_orderkey = l_orderkey \
                 JOIN nation ON c_nationkey = n_nationkey \
                 WHERE o_orderdate >= DATE '1993-10-01' \
                 AND o_orderdate < DATE '1994-01-01' \
                 AND l_returnflag = 'R' \
                 GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
                 ORDER BY revenue DESC LIMIT 20"
            }
            TpchQuery::Q13 => {
                "SELECT c_count, COUNT(*) AS custdist FROM \
                 (SELECT c_custkey, COUNT(o_orderkey) AS c_count \
                 FROM customer LEFT JOIN orders \
                 ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%' \
                 GROUP BY c_custkey) c_orders \
                 GROUP BY c_count ORDER BY custdist DESC, c_count DESC"
            }
            TpchQuery::Q14 => {
                "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' \
                 THEN l_extendedprice * (1.0 - l_discount) ELSE 0.0 END) \
                 / SUM(l_extendedprice * (1.0 - l_discount)) AS promo_revenue \
                 FROM lineitem JOIN part ON l_partkey = p_partkey \
                 WHERE l_shipdate >= DATE '1995-09-01' \
                 AND l_shipdate < DATE '1995-10-01'"
            }
            TpchQuery::Q18 => {
                "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, \
                 SUM(l_quantity) AS sum_qty \
                 FROM customer \
                 JOIN orders ON c_custkey = o_custkey \
                 JOIN lineitem ON o_orderkey = l_orderkey \
                 WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem \
                 GROUP BY l_orderkey HAVING SUM(l_quantity) > 250) \
                 GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
                 ORDER BY o_totalprice DESC, o_orderdate LIMIT 100"
            }
        }
    }

    /// Compiles this query's SQL against a generated database: the full
    /// parser → binder pipeline, no hand-built plans.
    pub fn plan(self, t: &TpchDb) -> LogicalPlan {
        dbvirt_sql::parse_query(self.sql(), &t.db)
            .unwrap_or_else(|e| panic!("{self} failed to compile: {e}"))
    }
}

impl fmt::Display for TpchQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TpchConfig, TpchDb};
    use dbvirt_engine::{run_plan, CpuCosts};
    use dbvirt_optimizer::{plan_query, OptimizerParams};
    use dbvirt_storage::BufferPool;

    fn run(q: TpchQuery) -> dbvirt_engine::QueryOutput {
        let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
        let logical = q.plan(&t);
        let planned = plan_query(&t.db, &logical, &OptimizerParams::default()).unwrap();
        let mut pool = BufferPool::new(4096);
        run_plan(
            &t.db,
            &mut pool,
            &planned.physical,
            4 << 20,
            CpuCosts::default(),
        )
        .unwrap()
    }

    #[test]
    fn q1_produces_flag_status_groups() {
        let out = run(TpchQuery::Q1);
        // 3 return flags x 2 line statuses, possibly minus empty combos.
        assert!(
            (4..=6).contains(&out.rows.len()),
            "{} groups",
            out.rows.len()
        );
        assert_eq!(out.schema.field(2).name, "sum_qty");
        // Sorted by flag then status.
        let keys: Vec<(String, String)> = out
            .rows
            .iter()
            .map(|r| {
                (
                    r.get(0).as_str().unwrap().to_string(),
                    r.get(1).as_str().unwrap().to_string(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // sum_disc_price <= sum_base_price (discounts only reduce).
        for r in &out.rows {
            assert!(r.get(4).as_float().unwrap() <= r.get(3).as_float().unwrap());
        }
    }

    #[test]
    fn q3_returns_top_orders() {
        let out = run(TpchQuery::Q3);
        assert!(out.rows.len() <= 10);
        assert!(!out.rows.is_empty());
        // Revenue is descending.
        let revenues: Vec<f64> = out
            .rows
            .iter()
            .map(|r| r.get(3).as_float().unwrap())
            .collect();
        assert!(revenues.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn q4_counts_priorities() {
        let out = run(TpchQuery::Q4);
        assert_eq!(out.rows.len(), 5, "all five priorities appear");
        // Alphabetical priority order.
        let names: Vec<&str> = out
            .rows
            .iter()
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        for r in &out.rows {
            assert!(r.get(1).as_int().unwrap() > 0);
        }
    }

    #[test]
    fn q5_sums_by_nation() {
        let out = run(TpchQuery::Q5);
        // Only ASIA nations (5 of 25) can appear.
        assert!(out.rows.len() <= 5);
        let revenues: Vec<f64> = out
            .rows
            .iter()
            .map(|r| r.get(1).as_float().unwrap())
            .collect();
        assert!(revenues.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn q6_returns_single_revenue() {
        let out = run(TpchQuery::Q6);
        assert_eq!(out.rows.len(), 1);
        let revenue = out.rows[0].get(0).as_float().unwrap();
        assert!(revenue > 0.0);
    }

    #[test]
    fn q10_returns_top20_customers() {
        let out = run(TpchQuery::Q10);
        assert!(out.rows.len() <= 20);
        assert!(!out.rows.is_empty());
        assert_eq!(out.schema.field(7).name, "revenue");
    }

    #[test]
    fn q13_is_a_count_distribution() {
        let out = run(TpchQuery::Q13);
        assert!(!out.rows.is_empty());
        // Total customers across the distribution equals the customer count.
        let total: i64 = out
            .rows
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
        let n_customers = t.db.table(t.customer).stats.as_ref().unwrap().n_rows as i64;
        assert_eq!(total, n_customers);
        // custdist descending.
        let dist: Vec<i64> = out
            .rows
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .collect();
        assert!(dist.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn q14_returns_percentage() {
        let out = run(TpchQuery::Q14);
        assert_eq!(out.rows.len(), 1);
        let pct = out.rows[0].get(0).as_float().unwrap();
        assert!((0.0..=100.0).contains(&pct), "promo fraction {pct}%");
        // PROMO is 1 of 6 type syllables, so expect roughly 1/6.
        assert!((5.0..35.0).contains(&pct), "promo fraction {pct}%");
    }

    #[test]
    fn q18_finds_large_volume_orders() {
        let out = run(TpchQuery::Q18);
        assert!(out.rows.len() <= 100);
        assert!(
            !out.rows.is_empty(),
            "some orders exceed the quantity threshold"
        );
        // Every returned order's summed quantity exceeds the threshold.
        for r in &out.rows {
            assert!(r.get(5).as_int().unwrap() > 250);
        }
    }

    #[test]
    fn all_queries_plan_and_execute() {
        let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
        let params = OptimizerParams::default();
        for q in TpchQuery::all() {
            let logical = q.plan(&t);
            let planned = plan_query(&t.db, &logical, &params)
                .unwrap_or_else(|e| panic!("{q} failed to plan: {e}"));
            let mut pool = BufferPool::new(4096);
            let out = run_plan(
                &t.db,
                &mut pool,
                &planned.physical,
                4 << 20,
                CpuCosts::default(),
            )
            .unwrap_or_else(|e| panic!("{q} failed to execute: {e}"));
            assert!(out.demand.cpu_cycles > 0.0, "{q} did no work");
        }
    }

    /// The acceptance contract: for every query, the plan chosen over the
    /// indexed database returns results bit-identical to the plan chosen
    /// over the scan-only database.
    #[test]
    fn indexed_results_bit_identical_to_scan_only() {
        let run_on = |cfg: TpchConfig, q: TpchQuery| {
            let t = TpchDb::generate(cfg).unwrap();
            let logical = q.plan(&t);
            let planned = plan_query(&t.db, &logical, &OptimizerParams::default()).unwrap();
            let mut pool = BufferPool::new(4096);
            let out = run_plan(
                &t.db,
                &mut pool,
                &planned.physical,
                4 << 20,
                CpuCosts::default(),
            )
            .unwrap();
            out.rows
        };
        for q in TpchQuery::all() {
            let indexed = run_on(TpchConfig::tiny(), q);
            let scan_only = run_on(TpchConfig::tiny().scan_only(), q);
            assert_eq!(indexed, scan_only, "{q} differs between index and scan");
        }
    }
}
