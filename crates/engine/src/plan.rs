//! The physical plan algebra.
//!
//! Physical plans are produced by the optimizer (`dbvirt-optimizer`) and
//! consumed by the executor ([`crate::exec`]). Keeping the type here lets
//! both crates share it without a dependency cycle.

use crate::{AggExpr, AggFunc, Database, EngineError, Expr};
use crate::{IndexId, TableId};
use dbvirt_storage::{DataType, Datum, Field, Schema};
use std::fmt::Write as _;
use std::ops::Bound;

/// Join variants supported by the join operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Matching pairs only.
    Inner,
    /// All left rows; unmatched ones padded with NULLs.
    Left,
    /// Left rows with at least one match (`EXISTS`).
    Semi,
    /// Left rows with no match (`NOT EXISTS`).
    Anti,
}

impl JoinType {
    /// True if the join output carries the right side's columns.
    pub fn emits_right(self) -> bool {
        matches!(self, JoinType::Inner | JoinType::Left)
    }
}

/// One sort key: a column and a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column position in the input schema.
    pub column: usize,
    /// Sort descending when true.
    pub descending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: usize) -> SortKey {
        SortKey {
            column,
            descending: false,
        }
    }

    /// Descending key.
    pub fn desc(column: usize) -> SortKey {
        SortKey {
            column,
            descending: true,
        }
    }
}

/// One index range probed by a multi-index scan ([`PhysicalPlan::IndexAnd`]
/// / [`PhysicalPlan::IndexOr`]): an index plus a key range over it.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexArm {
    /// The index probed by this arm.
    pub index: IndexId,
    /// Lower key bound.
    pub lo: Bound<Datum>,
    /// Upper key bound.
    pub hi: Bound<Datum>,
}

/// A physical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full heap scan with an optional pushed-down filter.
    SeqScan {
        /// Scanned table.
        table: TableId,
        /// Residual predicate applied to each tuple.
        filter: Option<Expr>,
    },
    /// B+tree range scan plus heap fetches, with an optional residual
    /// filter.
    IndexScan {
        /// Scanned table.
        table: TableId,
        /// The index used.
        index: IndexId,
        /// Lower key bound.
        lo: Bound<Datum>,
        /// Upper key bound.
        hi: Bound<Datum>,
        /// Residual predicate applied to fetched tuples.
        filter: Option<Expr>,
    },
    /// Index intersection: probe every arm, intersect the TID sets, fetch
    /// the surviving heap tuples once, apply the residual filter.
    IndexAnd {
        /// Scanned table.
        table: TableId,
        /// Index ranges intersected (two or more).
        arms: Vec<IndexArm>,
        /// Residual predicate applied to fetched tuples.
        filter: Option<Expr>,
    },
    /// Index union: probe every arm, union (dedup) the TID sets, fetch each
    /// surviving heap tuple once, apply the residual filter.
    IndexOr {
        /// Scanned table.
        table: TableId,
        /// Index ranges unioned (two or more).
        arms: Vec<IndexArm>,
        /// Residual predicate applied to fetched tuples.
        filter: Option<Expr>,
    },
    /// Standalone filter (e.g. `HAVING`).
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// The predicate.
        predicate: Expr,
    },
    /// Expression projection.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Sort (in-memory or external, decided by `work_mem` at run time).
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// First `limit` rows of the input.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Row budget.
        limit: usize,
    },
    /// Hash join on equality keys. Two keys are equal when every column
    /// pair is the same kind with the same bits (their record encodings
    /// match) and neither is NULL: `Int(1)` does *not* match `Float(1.0)`,
    /// which [`PhysicalPlan::MergeJoin`] and a nested-loop `=` (both
    /// numeric `sql_cmp`) would pair. The planner only hashes same-typed
    /// columns.
    HashJoin {
        /// Probe (outer) side.
        left: Box<PhysicalPlan>,
        /// Build (inner) side.
        right: Box<PhysicalPlan>,
        /// Equality key columns on the left schema.
        left_keys: Vec<usize>,
        /// Equality key columns on the right schema.
        right_keys: Vec<usize>,
        /// Join variant.
        join_type: JoinType,
    },
    /// Merge join of two inputs already sorted on the join key (inner
    /// only).
    MergeJoin {
        /// Left input, sorted on `left_key`.
        left: Box<PhysicalPlan>,
        /// Right input, sorted on `right_key`.
        right: Box<PhysicalPlan>,
        /// Left key column.
        left_key: usize,
        /// Right key column.
        right_key: usize,
    },
    /// Nested-loop join with an arbitrary predicate.
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (rescanned per outer row; materialized once).
        right: Box<PhysicalPlan>,
        /// Join predicate over the concatenated row (`None` = cross join).
        predicate: Option<Expr>,
        /// Join variant.
        join_type: JoinType,
    },
    /// Hash aggregation.
    HashAgg {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping columns (empty = one global group).
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Aggregation over input sorted by the grouping columns.
    SortAgg {
        /// Input plan, sorted by `group_by`.
        input: Box<PhysicalPlan>,
        /// Grouping columns.
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
}

fn agg_output_type(agg: &AggExpr, input: &Schema) -> DataType {
    match agg.func {
        AggFunc::Count | AggFunc::CountStar => DataType::Int,
        AggFunc::Avg => DataType::Float,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => agg
            .arg
            .as_ref()
            .map(|e| e.data_type(input))
            .unwrap_or(DataType::Float),
    }
}

fn agg_schema(input: &Schema, group_by: &[usize], aggs: &[AggExpr]) -> Schema {
    let mut fields: Vec<Field> = group_by.iter().map(|&c| input.field(c).clone()).collect();
    for a in aggs {
        fields.push(Field::new(a.name.clone(), agg_output_type(a, input)));
    }
    Schema::new(fields)
}

/// `Err` naming the first of `columns` that is not below `arity`.
fn columns_within(
    node: &str,
    what: &str,
    columns: impl IntoIterator<Item = usize>,
    arity: usize,
) -> Result<(), EngineError> {
    match columns.into_iter().find(|&c| c >= arity) {
        Some(c) => Err(EngineError::Plan(format!(
            "{node}: {what} reads column {c} of an input with {arity}"
        ))),
        None => Ok(()),
    }
}

fn expr_within(node: &str, what: &str, expr: &Expr, arity: usize) -> Result<(), EngineError> {
    let mut columns = Vec::new();
    expr.referenced_columns(&mut columns);
    columns_within(node, what, columns, arity)
}

impl PhysicalPlan {
    /// Checks everything the executor (and [`PhysicalPlan::output_schema`])
    /// would otherwise index with: every table and index exists, an index
    /// belongs to the table it scans, a hash join's key lists pair up, and
    /// every key, sort, group or expression column lies inside the schema
    /// of the input it reads. [`crate::exec::execute`] runs this first.
    pub fn validate(&self, db: &Database) -> Result<(), EngineError> {
        self.checked_arity(db).map(drop)
    }

    /// Validates the subtree and returns how many columns it outputs.
    fn checked_arity(&self, db: &Database) -> Result<usize, EngineError> {
        let node = self.node_name();
        let bad = |msg: String| EngineError::Plan(format!("{node}: {msg}"));
        let index_of = |index: IndexId, table: TableId| match index.0 < db.num_indexes() {
            false => Err(bad(format!("no {index}"))),
            true if db.index(index).table != table => {
                Err(bad(format!("{index} is not on {table}")))
            }
            true => Ok(()),
        };
        match self {
            PhysicalPlan::SeqScan { table, filter }
            | PhysicalPlan::IndexScan { table, filter, .. }
            | PhysicalPlan::IndexAnd { table, filter, .. }
            | PhysicalPlan::IndexOr { table, filter, .. } => {
                if table.0 >= db.num_tables() {
                    return Err(bad(format!("no {table}")));
                }
                match self {
                    PhysicalPlan::IndexScan { index, .. } => index_of(*index, *table)?,
                    PhysicalPlan::IndexAnd { arms, .. } | PhysicalPlan::IndexOr { arms, .. } => {
                        arms.iter()
                            .try_for_each(|arm| index_of(arm.index, *table))?
                    }
                    _ => {}
                }
                let arity = db.table(*table).schema.len();
                if let Some(filter) = filter {
                    expr_within(node, "filter", filter, arity)?;
                }
                Ok(arity)
            }
            PhysicalPlan::Filter { input, predicate } => {
                let arity = input.checked_arity(db)?;
                expr_within(node, "predicate", predicate, arity)?;
                Ok(arity)
            }
            PhysicalPlan::Project { input, exprs } => {
                let arity = input.checked_arity(db)?;
                for (expr, name) in exprs {
                    expr_within(node, name, expr, arity)?;
                }
                Ok(exprs.len())
            }
            PhysicalPlan::Sort { input, keys } => {
                let arity = input.checked_arity(db)?;
                columns_within(node, "sort key", keys.iter().map(|k| k.column), arity)?;
                Ok(arity)
            }
            PhysicalPlan::Limit { input, .. } => input.checked_arity(db),
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
            } => {
                let (l, r) = (left.checked_arity(db)?, right.checked_arity(db)?);
                if left_keys.len() != right_keys.len() {
                    return Err(bad(format!(
                        "{} left key columns against {} right",
                        left_keys.len(),
                        right_keys.len()
                    )));
                }
                columns_within(node, "left key", left_keys.iter().copied(), l)?;
                columns_within(node, "right key", right_keys.iter().copied(), r)?;
                Ok(if join_type.emits_right() { l + r } else { l })
            }
            PhysicalPlan::MergeJoin {
                left,
                right,
                left_key,
                right_key,
            } => {
                let (l, r) = (left.checked_arity(db)?, right.checked_arity(db)?);
                columns_within(node, "left key", [*left_key], l)?;
                columns_within(node, "right key", [*right_key], r)?;
                Ok(l + r)
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
                join_type,
            } => {
                let (l, r) = (left.checked_arity(db)?, right.checked_arity(db)?);
                if let Some(predicate) = predicate {
                    expr_within(node, "predicate", predicate, l + r)?;
                }
                Ok(if join_type.emits_right() { l + r } else { l })
            }
            PhysicalPlan::HashAgg {
                input,
                group_by,
                aggs,
            }
            | PhysicalPlan::SortAgg {
                input,
                group_by,
                aggs,
            } => {
                let arity = input.checked_arity(db)?;
                columns_within(node, "group", group_by.iter().copied(), arity)?;
                for agg in aggs {
                    if let Some(arg) = &agg.arg {
                        expr_within(node, &agg.name, arg, arity)?;
                    }
                }
                Ok(group_by.len() + aggs.len())
            }
        }
    }

    /// The output schema, resolved against a database catalog.
    ///
    /// # Panics
    /// Panics on a plan that does not pass [`PhysicalPlan::validate`].
    pub fn output_schema(&self, db: &Database) -> Schema {
        match self {
            PhysicalPlan::SeqScan { table, .. }
            | PhysicalPlan::IndexScan { table, .. }
            | PhysicalPlan::IndexAnd { table, .. }
            | PhysicalPlan::IndexOr { table, .. } => db.table(*table).schema.clone(),
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Limit { input, .. } => {
                input.output_schema(db)
            }
            PhysicalPlan::Sort { input, .. } => input.output_schema(db),
            PhysicalPlan::Project { input, exprs } => {
                let in_schema = input.output_schema(db);
                Schema::new(
                    exprs
                        .iter()
                        .map(|(e, name)| Field::new(name.clone(), e.data_type(&in_schema)))
                        .collect(),
                )
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                ..
            }
            | PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                ..
            } => {
                let l = left.output_schema(db);
                if join_type.emits_right() {
                    l.join(&right.output_schema(db))
                } else {
                    l
                }
            }
            PhysicalPlan::MergeJoin { left, right, .. } => {
                left.output_schema(db).join(&right.output_schema(db))
            }
            PhysicalPlan::HashAgg {
                input,
                group_by,
                aggs,
            }
            | PhysicalPlan::SortAgg {
                input,
                group_by,
                aggs,
            } => agg_schema(&input.output_schema(db), group_by, aggs),
        }
    }

    /// One-word operator name (for EXPLAIN output and tests).
    pub fn node_name(&self) -> &'static str {
        match self {
            PhysicalPlan::SeqScan { .. } => "SeqScan",
            PhysicalPlan::IndexScan { .. } => "IndexScan",
            PhysicalPlan::IndexAnd { .. } => "IndexAnd",
            PhysicalPlan::IndexOr { .. } => "IndexOr",
            PhysicalPlan::Filter { .. } => "Filter",
            PhysicalPlan::Project { .. } => "Project",
            PhysicalPlan::Sort { .. } => "Sort",
            PhysicalPlan::Limit { .. } => "Limit",
            PhysicalPlan::HashJoin { .. } => "HashJoin",
            PhysicalPlan::MergeJoin { .. } => "MergeJoin",
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin",
            PhysicalPlan::HashAgg { .. } => "HashAgg",
            PhysicalPlan::SortAgg { .. } => "SortAgg",
        }
    }

    /// Child plans, for tree walks.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::IndexScan { .. }
            | PhysicalPlan::IndexAnd { .. }
            | PhysicalPlan::IndexOr { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::HashAgg { input, .. }
            | PhysicalPlan::SortAgg { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
        }
    }

    /// An indented EXPLAIN-style rendering of the plan tree.
    pub fn explain(&self) -> String {
        fn walk(plan: &PhysicalPlan, depth: usize, out: &mut String) {
            let _ = writeln!(
                out,
                "{:indent$}-> {}",
                "",
                plan.node_name(),
                indent = depth * 2
            );
            for child in plan.children() {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use dbvirt_storage::Field;

    fn db_with_table() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Str),
            ]),
        );
        (db, t)
    }

    #[test]
    fn scan_schema_is_table_schema() {
        let (db, t) = db_with_table();
        let plan = PhysicalPlan::SeqScan {
            table: t,
            filter: None,
        };
        assert_eq!(plan.output_schema(&db).len(), 2);
        assert_eq!(plan.node_name(), "SeqScan");
    }

    #[test]
    fn project_schema_uses_expr_types() {
        let (db, t) = db_with_table();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                filter: None,
            }),
            exprs: vec![
                (Expr::add(Expr::col(0), Expr::int(1)), "a1".into()),
                (Expr::lt(Expr::col(0), Expr::int(5)), "flag".into()),
            ],
        };
        let s = plan.output_schema(&db);
        assert_eq!(s.field(0).name, "a1");
        assert_eq!(s.field(0).data_type, DataType::Int);
        assert_eq!(s.field(1).data_type, DataType::Bool);
    }

    #[test]
    fn join_schema_depends_on_join_type() {
        let (db, t) = db_with_table();
        let scan = || {
            Box::new(PhysicalPlan::SeqScan {
                table: t,
                filter: None,
            })
        };
        let inner = PhysicalPlan::HashJoin {
            left: scan(),
            right: scan(),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        };
        assert_eq!(inner.output_schema(&db).len(), 4);
        let semi = PhysicalPlan::HashJoin {
            left: scan(),
            right: scan(),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Semi,
        };
        assert_eq!(semi.output_schema(&db).len(), 2);
    }

    #[test]
    fn agg_schema_groups_then_aggs() {
        let (db, t) = db_with_table();
        let plan = PhysicalPlan::HashAgg {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                filter: None,
            }),
            group_by: vec![1],
            aggs: vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(0), "total"),
                AggExpr::new(AggFunc::Avg, Expr::col(0), "mean"),
            ],
        };
        let s = plan.output_schema(&db);
        assert_eq!(s.field(0).name, "b");
        assert_eq!(s.field(1).data_type, DataType::Int);
        assert_eq!(s.field(2).name, "total");
        assert_eq!(s.field(2).data_type, DataType::Int);
        assert_eq!(s.field(3).data_type, DataType::Float);
    }

    #[test]
    fn explain_renders_tree() {
        let (_, t) = db_with_table();
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    filter: None,
                }),
                keys: vec![SortKey::asc(0)],
            }),
            limit: 10,
        };
        let text = plan.explain();
        assert!(text.contains("Limit"));
        assert!(text.contains("Sort"));
        assert!(text.contains("SeqScan"));
    }
}
