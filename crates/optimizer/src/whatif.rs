//! The paper's virtualization-aware **what-if mode**.
//!
//! Section 4 of the paper: to model `Cost(W_i, R_i)`, set the optimizer's
//! environment parameters `P` to the values calibrated for allocation
//! `R_i`, re-optimize every query of the workload under that `P` (access
//! paths and statistics unchanged, nothing executed), and sum the
//! estimated execution times. This module is that operation, as a small
//! API over the planner's analyse and price stages — no plan is built.

use crate::{LogicalPlan, OptError, OptimizerParams, PreparedQuery};
use dbvirt_engine::Database;

/// Estimated execution time of one query under `params`, in seconds.
///
/// Touches only the catalog and statistics — never the data — so it is
/// safe and cheap to call for many candidate allocations.
pub fn estimate_query_seconds(
    db: &Database,
    query: &LogicalPlan,
    params: &OptimizerParams,
) -> Result<f64, OptError> {
    params.validate()?;
    let prepared = PreparedQuery::analyse(db, query, &[])?;
    Ok(params.units_to_seconds(prepared.cost_units_unchecked(params)))
}

/// Estimated execution time of a whole workload (a sequence of queries)
/// under `params`: the sum of per-query estimates, matching the paper's
/// throughput-oriented cost definition.
pub fn estimate_workload_seconds(
    db: &Database,
    workload: &[LogicalPlan],
    params: &OptimizerParams,
) -> Result<f64, OptError> {
    params.validate()?;
    Ok(PreparedWorkload::analyse(db, workload)?.sum_seconds(params))
}

/// A workload analysed once (see [`PreparedQuery`]): what a design search
/// keeps per workload so that each candidate allocation costs one pricing
/// pass — `P(R)` in, seconds out — instead of a re-optimization.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    queries: Vec<PreparedQuery>,
}

impl PreparedWorkload {
    /// Analyses every query of `workload` against `db`, in order.
    pub fn analyse(db: &Database, workload: &[LogicalPlan]) -> Result<PreparedWorkload, OptError> {
        let queries = workload
            .iter()
            .map(|q| PreparedQuery::analyse(db, q, &[]))
            .collect::<Result<_, _>>()?;
        Ok(PreparedWorkload { queries })
    }

    /// [`estimate_workload_seconds`] of the analysed workload under
    /// `params`, bit for bit.
    pub fn estimate_seconds(&self, params: &OptimizerParams) -> Result<f64, OptError> {
        params.validate()?;
        Ok(self.sum_seconds(params))
    }

    /// The per-query estimates under validated `params`, summed in order.
    fn sum_seconds(&self, params: &OptimizerParams) -> f64 {
        self.queries
            .iter()
            .map(|q| params.units_to_seconds(q.cost_units_unchecked(params)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_engine::{Expr, TableId};
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};

    fn db() -> (Database, TableId) {
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
            (0..10_000).map(|i| Tuple::new(vec![Datum::Int(i), Datum::Int(i * 2)])),
        )
        .unwrap();
        db.analyze_all().unwrap();
        (db, t)
    }

    #[test]
    fn workload_estimate_is_sum_of_queries() {
        let (db, t) = db();
        let q1 = LogicalPlan::scan(t);
        let q2 = LogicalPlan::scan_filtered(t, Expr::lt(Expr::col(0), Expr::int(100)));
        let p = OptimizerParams::default();
        let a = estimate_query_seconds(&db, &q1, &p).unwrap();
        let b = estimate_query_seconds(&db, &q2, &p).unwrap();
        let total = estimate_workload_seconds(&db, &[q1, q2], &p).unwrap();
        assert!((total - (a + b)).abs() < 1e-12);
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn cpu_heavier_params_raise_cpu_bound_estimates_more() {
        let (db, t) = db();
        // CPU-bound: heavy predicate over every row.
        let heavy_pred = Expr::and_all(
            (0..8)
                .map(|i| Expr::ge(Expr::add(Expr::col(0), Expr::int(i)), Expr::int(0)))
                .collect(),
        );
        let cpu_q = LogicalPlan::scan_filtered(t, heavy_pred);
        // I/O-bound: bare scan.
        let io_q = LogicalPlan::scan(t);
        // A small cache so the bare scan really pays page I/O.
        let base = OptimizerParams {
            effective_cache_size_pages: 1.0,
            ..OptimizerParams::default()
        };
        let mut slow_cpu = base;
        slow_cpu.cpu_tuple_cost *= 3.0;
        slow_cpu.cpu_operator_cost *= 3.0;

        let cpu_base = estimate_query_seconds(&db, &cpu_q, &base).unwrap();
        let cpu_slow = estimate_query_seconds(&db, &cpu_q, &slow_cpu).unwrap();
        let io_base = estimate_query_seconds(&db, &io_q, &base).unwrap();
        let io_slow = estimate_query_seconds(&db, &io_q, &slow_cpu).unwrap();

        let cpu_ratio = cpu_slow / cpu_base;
        let io_ratio = io_slow / io_base;
        assert!(
            cpu_ratio > io_ratio,
            "CPU-bound queries must be more sensitive to CPU-cost growth \
             ({cpu_ratio:.3} vs {io_ratio:.3})"
        );
    }
}
