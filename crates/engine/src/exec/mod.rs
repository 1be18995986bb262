//! The executor: physical operators with demand metering.
//!
//! [`execute`] runs a plan bottom-up and returns its output as a
//! `Vec<Tuple>`. Operators that keep their input (sort, the joins, limit)
//! take their children's output that way; operators that only look at each
//! input row once (filter, project, the aggregates) pull borrowed rows
//! through `for_each_row`, which a scan child serves straight off the
//! buffer-pool page without decoding them.
//!
//! All physical work is charged as it happens: CPU cycles via
//! [`crate::ExecContext::charge_cpu`] and page I/O via the buffer pool the
//! context carries. This is what makes an execution a *measurement*: the
//! accumulated [`dbvirt_vmm::ResourceDemand`] is converted to simulated
//! time by a [`dbvirt_vmm::VirtualMachine`] under some resource allocation.

mod agg;
mod join;
mod scan;
mod sort;

use crate::runtime::{EngineError, ExecContext};
use crate::PhysicalPlan;
use dbvirt_storage::Tuple;
use dbvirt_telemetry as telemetry;

/// The telemetry span name for a plan node (the `exec.*` taxonomy).
fn op_name(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::SeqScan { .. } => "exec.seq_scan",
        PhysicalPlan::IndexScan { .. } => "exec.index_scan",
        PhysicalPlan::IndexAnd { .. } => "exec.index_and",
        PhysicalPlan::IndexOr { .. } => "exec.index_or",
        PhysicalPlan::Filter { .. } => "exec.filter",
        PhysicalPlan::Project { .. } => "exec.project",
        PhysicalPlan::Sort { .. } => "exec.sort",
        PhysicalPlan::Limit { .. } => "exec.limit",
        PhysicalPlan::HashJoin { .. } => "exec.hash_join",
        PhysicalPlan::MergeJoin { .. } => "exec.merge_join",
        PhysicalPlan::NestedLoopJoin { .. } => "exec.nested_loop_join",
        PhysicalPlan::HashAgg { .. } => "exec.hash_agg",
        PhysicalPlan::SortAgg { .. } => "exec.sort_agg",
    }
}

/// Executes a plan, returning its materialized output rows.
pub fn execute(ctx: &mut ExecContext<'_>, plan: &PhysicalPlan) -> Result<Vec<Tuple>, EngineError> {
    // One span per operator; recursion nests child operators under their
    // parents automatically (no-op guard while telemetry is disabled).
    let mut op_span = telemetry::span(op_name(plan));
    let result = execute_inner(ctx, plan);
    if let Ok(rows) = &result {
        op_span.set_attr("rows_out", rows.len());
    }
    result
}

/// Feeds every output row of `input` to `sink`, borrowed. This is how the
/// operators that do not keep their input — filter, project, the
/// aggregates, the nested-loop join — pull rows: a scan child pushes views
/// straight off the buffer-pool page, so a row its consumer only looks at
/// is never decoded; any other child is executed and iterated.
///
/// The sink runs while the page is borrowed from the pool, so it cannot
/// touch `ctx`: consumers accumulate in locals and charge afterwards —
/// which also keeps every `charge_cpu` in child-then-consumer order, as if
/// the child had been materialised first.
pub(crate) fn for_each_row(
    ctx: &mut ExecContext<'_>,
    input: &PhysicalPlan,
    sink: &mut scan::RowSink<'_>,
) -> Result<(), EngineError> {
    match input {
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::IndexScan { .. }
        | PhysicalPlan::IndexAnd { .. }
        | PhysicalPlan::IndexOr { .. } => {
            let mut op_span = telemetry::span(op_name(input));
            let rows_out = scan::scan(ctx, input, sink)?;
            op_span.set_attr("rows_out", rows_out);
        }
        other => {
            for row in execute(ctx, other)? {
                sink(&row);
            }
        }
    }
    Ok(())
}

fn execute_inner(
    ctx: &mut ExecContext<'_>,
    plan: &PhysicalPlan,
) -> Result<Vec<Tuple>, EngineError> {
    match plan {
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::IndexScan { .. }
        | PhysicalPlan::IndexAnd { .. }
        | PhysicalPlan::IndexOr { .. } => {
            let mut rows = Vec::new();
            scan::scan(ctx, plan, &mut |row| rows.push(row.to_tuple()))?;
            Ok(rows)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let ops = predicate.num_operators() as f64;
            let per_row = ops * ctx.costs.per_operator + ctx.costs.per_tuple;
            let (mut rows_in, mut rows) = (0usize, Vec::new());
            for_each_row(ctx, input, &mut |row| {
                rows_in += 1;
                if predicate.eval_bool(row) == Some(true) {
                    rows.push(row.to_tuple());
                }
            })?;
            ctx.charge_cpu(per_row * rows_in as f64);
            Ok(rows)
        }
        PhysicalPlan::Project { input, exprs } => {
            let ops: f64 = exprs.iter().map(|(e, _)| e.num_operators() as f64).sum();
            let per_row = ops * ctx.costs.per_operator + ctx.costs.per_tuple;
            let mut rows = Vec::new();
            for_each_row(ctx, input, &mut |row| {
                rows.push(Tuple::new(exprs.iter().map(|(e, _)| e.eval(row)).collect()));
            })?;
            ctx.charge_cpu(per_row * rows.len() as f64);
            Ok(rows)
        }
        PhysicalPlan::Sort { input, keys } => {
            let rows = execute(ctx, input)?;
            Ok(sort::sort(ctx, rows, keys))
        }
        PhysicalPlan::Limit { input, limit } => {
            let mut rows = execute(ctx, input)?;
            rows.truncate(*limit);
            Ok(rows)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let left_rows = execute(ctx, left)?;
            let right_rows = execute(ctx, right)?;
            let right_arity = right.output_schema(ctx.db).len();
            Ok(join::hash_join(
                ctx,
                left_rows,
                right_rows,
                left_keys,
                right_keys,
                *join_type,
                right_arity,
            ))
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let left_rows = execute(ctx, left)?;
            let right_rows = execute(ctx, right)?;
            Ok(join::merge_join(
                ctx, left_rows, right_rows, *left_key, *right_key,
            ))
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
            join_type,
        } => {
            let left_rows = execute(ctx, left)?;
            let right_rows = execute(ctx, right)?;
            let right_arity = right.output_schema(ctx.db).len();
            Ok(join::nested_loop_join(
                ctx,
                left_rows,
                right_rows,
                predicate.as_ref(),
                *join_type,
                right_arity,
            ))
        }
        PhysicalPlan::HashAgg {
            input,
            group_by,
            aggs,
        } => agg::hash_agg(ctx, input, group_by, aggs),
        PhysicalPlan::SortAgg {
            input,
            group_by,
            aggs,
        } => agg::sort_agg(ctx, input, group_by, aggs),
    }
}
