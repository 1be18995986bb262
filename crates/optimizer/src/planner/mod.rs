//! The planner: logical plans in, costed physical plans out.
//!
//! Planning follows the classic System R / PostgreSQL recipe:
//!
//! 1. **Access-path selection** — for every base-table scan, compare a
//!    sequential scan against every index whose column appears in a
//!    sargable conjunct of the filter, using the cost formulas in
//!    [`crate::cost`] under the supplied [`OptimizerParams`];
//! 2. **Join ordering** — chains of inner equi-joins are flattened and
//!    re-ordered with Selinger-style dynamic programming over relation
//!    subsets (no cross products unless the join graph is disconnected);
//!    outer/semi/anti joins act as optimization barriers;
//! 3. **Physical operator choice** — hash joins build on the cheaper
//!    (smaller) side; aggregation picks hash vs sort+sorted-agg by cost.
//!
//! Because the cost formulas take `P` as an argument, *the same planner* is
//! both the normal optimizer (default `P`) and the paper's what-if
//! optimizer (calibrated `P(R)`); changing `P` can genuinely change the
//! chosen plan, exactly as in the paper.
//!
//! It runs in three stages, split where `P` enters:
//!
//! * **analyse** ([`PreparedQuery::analyse`]) — everything that depends
//!   only on access paths, statistics and the join graph (which relation
//!   subsets the join DP can split, and how), once per query;
//! * **price** ([`PreparedQuery::est_seconds`]) — the cost formulas, the
//!   access-path comparison and the join DP's choices under one `P`, over
//!   numbers alone: this is all the what-if mode runs per allocation;
//! * **materialise** — the winning choices turned into a
//!   [`PhysicalPlan`], once, for callers that execute.
//!
//! [`plan_query`] is the three in a row.

mod access;
mod analyse;
mod materialise;
mod price;

pub use analyse::{JoinSplits, PreparedQuery};

use crate::{CheckedParams, LogicalPlan, OptError, OptimizerParams};
use dbvirt_engine::{Database, PhysicalPlan, TableId};

/// A hypothetical ("what-if") index over `columns` of `table`, priced by
/// the planner exactly as a real index would be — its B+tree geometry is
/// computed from the table's row count via
/// [`dbvirt_storage::BPlusTree::bulk_geometry`] without building anything.
/// Plans that pick a hypothetical access path are estimate-only (see
/// [`PlannedQuery::uses_hypothetical`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HypoIndex {
    /// The indexed table.
    pub table: TableId,
    /// Key columns, major first.
    pub columns: Vec<usize>,
}

/// A fully planned query: the physical plan plus its estimates.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The executable physical plan.
    pub physical: PhysicalPlan,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated total cost, in optimizer units.
    pub est_cost_units: f64,
    /// True when the plan references a hypothetical index (what-if
    /// planning via [`plan_query_with_indexes`]); such plans cost-estimate
    /// but must not be executed.
    pub uses_hypothetical: bool,
    /// Seconds per cost unit of the `P` the query was planned under.
    unit_seconds: f64,
}

impl PlannedQuery {
    /// Estimated execution time in seconds under the parameters the query
    /// was planned under.
    pub fn est_seconds(&self) -> f64 {
        self.est_cost_units * self.unit_seconds
    }
}

impl PreparedQuery {
    /// Estimated execution time under `params`, in seconds: exactly the
    /// [`PlannedQuery::est_seconds`] of planning the analysed query under
    /// `params`, without building the plan. This is all the what-if mode
    /// runs per allocation.
    pub fn est_seconds(&self, params: &CheckedParams) -> f64 {
        params.units_to_seconds(self.price(params, None).cost)
    }

    /// The physical plan this analysis — of `plan` against `db`, with
    /// `hypo` offered — chooses under `params`, with its estimates. Fails
    /// with [`OptError::BadPlan`] when `plan`'s shape does not match the
    /// choices pricing recorded; `plan` must be the plan analysed.
    pub fn plan(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        params: &CheckedParams,
        hypo: &[HypoIndex],
    ) -> Result<PlannedQuery, OptError> {
        let mut choices = Vec::new();
        let priced = self.price(params, Some(&mut choices));
        let mut materialiser = materialise::Materialiser {
            db,
            hypo,
            choices: choices.into_iter(),
        };
        let physical = (materialiser.plan(plan))
            .filter(|_| materialiser.choices.next().is_none())
            .ok_or_else(|| OptError::BadPlan {
                reason: "materialised a plan other than the one analysed".to_string(),
            })?;
        let uses_hypothetical = !hypo.is_empty() && references_hypo(&physical, db.num_indexes());
        Ok(PlannedQuery {
            physical,
            est_rows: priced.rows,
            est_cost_units: priced.cost,
            uses_hypothetical,
            unit_seconds: params.unit_seconds,
        })
    }
}

/// Plans `plan` against `db` under `params`, returning the physical plan
/// and its cost estimates. This is both the regular optimizer (default
/// `params`) and the paper's what-if optimizer (calibrated `params`):
/// `plan_query(db, q, &p)?.est_seconds()` is the one-shot what-if
/// estimate of `q` under `p`. Fails with [`OptError::InvalidParams`] before
/// looking at `plan` when `params` does not pass [`CheckedParams::new`].
pub fn plan_query(
    db: &Database,
    plan: &LogicalPlan,
    params: &OptimizerParams,
) -> Result<PlannedQuery, OptError> {
    plan_query_with_indexes(db, plan, params, &[])
}

/// True if any scan in the plan references an index id past the catalog —
/// i.e. a hypothetical index.
fn references_hypo(phys: &PhysicalPlan, num_real: usize) -> bool {
    let local = match phys {
        PhysicalPlan::IndexScan { index, .. } => index.0 >= num_real,
        PhysicalPlan::IndexAnd { arms, .. } | PhysicalPlan::IndexOr { arms, .. } => {
            arms.iter().any(|a| a.index.0 >= num_real)
        }
        _ => false,
    };
    local || phys.children().iter().any(|c| references_hypo(c, num_real))
}

/// What-if planning: like [`plan_query`], but the access-path menu also
/// offers `hypo` as hypothetical indexes (ids numbered past the catalog,
/// in declaration order). A returned plan with
/// [`PlannedQuery::uses_hypothetical`] set prices what the plan *would*
/// cost if those indexes were built; it must not be executed.
pub fn plan_query_with_indexes(
    db: &Database,
    plan: &LogicalPlan,
    params: &OptimizerParams,
    hypo: &[HypoIndex],
) -> Result<PlannedQuery, OptError> {
    let params = CheckedParams::new(*params)?;
    PreparedQuery::analyse(db, plan, hypo)?.plan(db, plan, &params, hypo)
}

#[cfg(test)]
mod tests;
