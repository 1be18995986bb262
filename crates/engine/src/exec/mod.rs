//! The executor: physical operators with demand metering.
//!
//! Every operator is a push-based row *source*: `for_each_row` runs a plan
//! node and hands each output row, borrowed, to its consumer's sink. A scan
//! pushes views of records where they lie on the buffer-pool page; a filter,
//! a projection, a limit or an aggregate pushes on what it is pushed, or
//! something computed from it; the operators that must keep their input —
//! sort and the three joins — keep it encoded in a [`RowBuf`] and push views
//! of that. [`execute`] is `for_each_row` with a sink that decodes, so the
//! only rows ever decoded are the query's result.
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
use crate::{Expr, PhysicalPlan};
use dbvirt_storage::{DatumRef, Row, RowBuf, Tuple};
use dbvirt_telemetry as telemetry;

/// What an operator pushes its output rows into.
pub(crate) type RowSink<'s> = dyn FnMut(&dyn Row) + 's;

/// Folds `bytes` into `hash` eight at a time: the hash of a join key and of
/// a grouping key. Deterministic and cheap rather than collision-resistant —
/// the keys are field encodings of stored rows, a collision costs one more
/// byte comparison, and no order is ever derived from it.
fn hash_words(mut hash: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        // Multiplying carries a word's bits upwards only; folding the high
        // half down lets the next word's multiply carry them too.
        hash = (hash ^ u64::from_le_bytes(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        hash ^= hash >> 32;
    }
    hash
}

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
///
/// Fails with [`EngineError::Plan`] — before any page is read — on a plan
/// that does not pass [`PhysicalPlan::validate`] or a context without
/// `work_mem`.
pub(crate) fn execute(
    ctx: &mut ExecContext<'_>,
    plan: &PhysicalPlan,
) -> Result<Vec<Tuple>, EngineError> {
    plan.validate(ctx.db)?;
    if ctx.work_mem_bytes == 0 {
        return Err(EngineError::Plan("work_mem_bytes must be positive".into()));
    }
    let mut rows = Vec::new();
    for_each_row(ctx, plan, &mut |row| rows.push(row.to_tuple()))?;
    Ok(rows)
}

/// Runs `input` to its end, keeping every output row encoded.
fn collect(ctx: &mut ExecContext<'_>, input: &PhysicalPlan) -> Result<RowBuf, EngineError> {
    let mut rows = RowBuf::new();
    for_each_row(ctx, input, &mut |row| rows.push(row))?;
    Ok(rows)
}

/// A projection's output row: each column is evaluated when it is read.
struct Projected<'a> {
    exprs: &'a [(Expr, String)],
    input: &'a dyn Row,
}

impl Row for Projected<'_> {
    fn arity(&self) -> usize {
        self.exprs.len()
    }

    fn col(&self, idx: usize) -> DatumRef<'_> {
        self.exprs[idx].0.eval_ref(self.input)
    }
}

/// Runs `plan`, feeding every output row to `sink`, borrowed, in order.
///
/// A sink runs while a page is borrowed from the pool (or a `RowBuf` from
/// the operator below), so it cannot touch `ctx`: consumers accumulate in
/// locals and charge after their child has returned — which keeps every
/// `charge_cpu` in child-then-consumer order, as if each child had been
/// materialised first. A two-input operator runs its left child to the end
/// before its right, so pages are fetched in that order.
fn for_each_row(
    ctx: &mut ExecContext<'_>,
    plan: &PhysicalPlan,
    sink: &mut RowSink<'_>,
) -> Result<(), EngineError> {
    // One span per operator; recursion nests child operators under their
    // parents automatically (no-op guard while telemetry is disabled).
    let mut op_span = telemetry::span(op_name(plan));
    let rows_out = match plan {
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::IndexScan { .. }
        | PhysicalPlan::IndexAnd { .. }
        | PhysicalPlan::IndexOr { .. } => scan::scan(ctx, plan, sink)?,
        PhysicalPlan::Filter { input, predicate } => {
            let ops = predicate.num_operators() as f64;
            let per_row = ops * ctx.costs.per_operator + ctx.costs.per_tuple;
            let (mut rows_in, mut rows_out) = (0usize, 0usize);
            for_each_row(ctx, input, &mut |row| {
                rows_in += 1;
                if predicate.eval_bool(row) == Some(true) {
                    rows_out += 1;
                    sink(row);
                }
            })?;
            ctx.charge_cpu(per_row * rows_in as f64);
            rows_out
        }
        PhysicalPlan::Project { input, exprs } => {
            let ops: f64 = exprs.iter().map(|(e, _)| e.num_operators() as f64).sum();
            let per_row = ops * ctx.costs.per_operator + ctx.costs.per_tuple;
            let mut rows = 0usize;
            for_each_row(ctx, input, &mut |row| {
                rows += 1;
                sink(&Projected { exprs, input: row });
            })?;
            ctx.charge_cpu(per_row * rows as f64);
            rows
        }
        PhysicalPlan::Sort { input, keys } => sort::sort(ctx, input, keys, sink)?,
        PhysicalPlan::Limit { input, limit } => {
            // The input still runs to its end: its work is charged in full.
            let mut rows_out = 0usize;
            for_each_row(ctx, input, &mut |row| {
                if rows_out < *limit {
                    rows_out += 1;
                    sink(row);
                }
            })?;
            rows_out
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let keys = (left_keys.as_slice(), right_keys.as_slice());
            join::hash_join(ctx, left, right, keys, *join_type, &mut op_span, sink)?
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => join::merge_join(ctx, left, right, (*left_key, *right_key), sink)?,
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
            join_type,
        } => join::nested_loop_join(ctx, left, right, predicate.as_ref(), *join_type, sink)?,
        PhysicalPlan::HashAgg {
            input,
            group_by,
            aggs,
        } => agg::hash_agg(ctx, input, group_by, aggs, sink)?,
        PhysicalPlan::SortAgg {
            input,
            group_by,
            aggs,
        } => agg::sort_agg(ctx, input, group_by, aggs, sink)?,
    };
    op_span.set_attr("rows_out", rows_out);
    Ok(())
}
