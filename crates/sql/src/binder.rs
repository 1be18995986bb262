//! The binder: names → catalog objects, AST → logical plan.
//!
//! Binding follows the textbook pipeline:
//!
//! 1. resolve the `FROM` tables and assign each a column-offset range in
//!    the (left-to-right) join output;
//! 2. classify `WHERE` conjuncts into per-table pushdown filters,
//!    equi-join conditions, and residual predicates (filters are *not*
//!    pushed below the nullable side of a `LEFT JOIN`, which would change
//!    the query's meaning);
//! 3. build the left-deep join tree, attach residual filters;
//! 4. lower `GROUP BY`/aggregates, `HAVING`, the projection, `ORDER BY`
//!    (by output name or 1-based position), and `LIMIT`. `HAVING` and an
//!    aggregating select list are lowered over the aggregate's output: a
//!    group column becomes its group position, an aggregate call its slot
//!    after the group columns.
//!
//! Every scalar expression is lowered by one function, `Binder::lower_in`;
//! its [`Scope`] (the join output or the aggregate output) decides only what
//! a column and an aggregate call mean, so every other form binds the same
//! in `WHERE`, `ON`, `HAVING` and the select list.

use crate::ast::{ExprAst, FromItem, JoinKind, OrderKey, SelectItem, SelectStmt};
use crate::SqlError;
use dbvirt_engine::{AggExpr, AggFunc, CmpOp, Database, Expr, JoinType, SortKey, TableId};
use dbvirt_optimizer::{JoinCondition, LogicalPlan};
use dbvirt_storage::Datum;

/// One resolved `FROM` entry.
struct BoundTable {
    alias: String,
    table: TableId,
    /// Global column offset of this table in the join output.
    offset: usize,
    /// `Left` marks the nullable side of a LEFT JOIN (no filter pushdown
    /// from `WHERE`, no join-condition hoisting past it).
    join_kind: JoinKind,
    /// Bound equality conditions from this table's ON clause.
    on_conditions: Vec<(usize, usize)>, // (prefix global col, this-table global col)
    /// Pushdown filter (table-local column indexes).
    pushdown: Option<Expr>,
}

impl BoundTable {
    /// Catalog table `name` as `alias`, its columns starting at global
    /// column `offset`.
    fn new(
        db: &Database,
        name: &str,
        alias: &str,
        offset: usize,
        join_kind: JoinKind,
    ) -> Result<BoundTable, SqlError> {
        let table = db
            .table_id(name)
            .ok_or_else(|| SqlError::bind(format!("unknown table {name:?}")))?;
        Ok(BoundTable {
            alias: alias.to_string(),
            table,
            offset,
            join_kind,
            on_conditions: Vec::new(),
            pushdown: None,
        })
    }

    /// ANDs a predicate over global columns (all of this table) into the
    /// table's scan filter.
    fn push_down(&mut self, e: &Expr) {
        let offset = self.offset;
        and_into(&mut self.pushdown, e.map_columns(&|c| c - offset));
    }

    /// The table's scan, with its pushed-down filter.
    fn scan(&self) -> LogicalPlan {
        LogicalPlan::Scan {
            table: self.table,
            filter: self.pushdown.clone(),
        }
    }
}

/// `acc AND e`, or `e` alone when `acc` is empty.
fn and_into(acc: &mut Option<Expr>, e: Expr) {
    *acc = Some(match acc.take() {
        Some(existing) => Expr::and(existing, e),
        None => e,
    });
}

/// Parses `YYYY-MM-DD` into days since the Unix epoch.
fn parse_date(s: &str) -> Result<i32, SqlError> {
    let parts: Vec<&str> = s.split('-').collect();
    let bad = || SqlError::bind(format!("bad date literal {s:?} (expected YYYY-MM-DD)"));
    if parts.len() != 3 {
        return Err(bad());
    }
    let year: i32 = parts[0].parse().map_err(|_| bad())?;
    let month: u32 = parts[1].parse().map_err(|_| bad())?;
    let day: u32 = parts[2].parse().map_err(|_| bad())?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(bad());
    }
    // Howard Hinnant's days_from_civil.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let m = month as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    Ok((era as i64 * 146_097 + doe - 719_468) as i32)
}

/// An aggregate call: its function name and argument (`None` for `*`).
type AggCall<'e> = (&'e str, Option<&'e ExprAst>);

/// What a column reference and an aggregate call lower to.
#[derive(Clone, Copy)]
enum Scope<'s> {
    /// The join output: a column is its global index; aggregate calls are
    /// refused.
    Join,
    /// The aggregate output: the group columns, then one slot per
    /// aggregate call. A column must be one of the group columns.
    Agg {
        group_cols: &'s [usize],
        aggs: &'s [AggCall<'s>],
    },
}

struct Binder<'a> {
    db: &'a Database,
    tables: Vec<BoundTable>,
    /// Set when the `FROM` clause is a derived table: `(alias, output
    /// column names of the subquery)`. Columns then resolve against the
    /// subquery's output schema instead of the catalog.
    derived: Option<(String, Vec<String>)>,
}

impl<'a> Binder<'a> {
    /// Resolves `[qualifier.]name` to a global column index.
    fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> Result<usize, SqlError> {
        if let Some((alias, names)) = &self.derived {
            if let Some(q) = qualifier {
                if q != alias {
                    return Err(SqlError::bind(format!("unknown table alias {q:?}")));
                }
            }
            let mut hits = names.iter().enumerate().filter(|(_, n)| *n == name);
            let first = hits.next();
            if hits.next().is_some() {
                return Err(SqlError::bind(format!("ambiguous column {name:?}")));
            }
            return first
                .map(|(i, _)| i)
                .ok_or_else(|| SqlError::bind(format!("unknown column {name}")));
        }
        let mut found: Option<usize> = None;
        for t in &self.tables {
            if let Some(q) = qualifier {
                if t.alias != q {
                    continue;
                }
            }
            let schema = &self.db.table(t.table).schema;
            if let Some(local) = schema.index_of(name) {
                if found.is_some() {
                    return Err(SqlError::bind(format!("ambiguous column {name:?}")));
                }
                found = Some(t.offset + local);
                if qualifier.is_some() {
                    break;
                }
            }
        }
        found.ok_or_else(|| {
            let q = qualifier.map(|q| format!("{q}.")).unwrap_or_default();
            SqlError::bind(format!("unknown column {q}{name}"))
        })
    }

    /// Lowers a scalar AST expression; `scope` says what its columns and
    /// aggregate calls refer to.
    fn lower_in(&self, ast: &ExprAst, scope: Scope<'_>) -> Result<Expr, SqlError> {
        let lower = |e: &ExprAst| self.lower_in(e, scope);
        match ast {
            ExprAst::Column { qualifier, name } => {
                let g = self.resolve_column(qualifier.as_deref(), name)?;
                match scope {
                    Scope::Join => Ok(Expr::col(g)),
                    Scope::Agg { group_cols, .. } => group_cols
                        .iter()
                        .position(|&c| c == g)
                        .map(Expr::col)
                        .ok_or_else(|| {
                            SqlError::bind(format!(
                                "column {name:?} must appear in GROUP BY or an aggregate"
                            ))
                        }),
                }
            }
            ExprAst::Agg { func, arg } => match scope {
                Scope::Agg { group_cols, aggs } => aggs
                    .iter()
                    .position(|&a| a == (func.as_str(), arg.as_deref()))
                    .map(|slot| Expr::col(group_cols.len() + slot)),
                Scope::Join => None,
            }
            .ok_or_else(|| SqlError::bind("aggregate used where a scalar expression is required")),
            ExprAst::Int(v) => Ok(Expr::int(*v)),
            ExprAst::Float(v) => Ok(Expr::float(*v)),
            ExprAst::Str(s) => Ok(Expr::str(s.clone())),
            ExprAst::Date(s) => Ok(Expr::date(parse_date(s)?)),
            ExprAst::Bool(b) => Ok(Expr::lit(Datum::Bool(*b))),
            ExprAst::Null => Ok(Expr::lit(Datum::Null)),
            // A negated numeric literal is a literal, so `x IN (-1, 2)`
            // binds; any other operand is `0 - x`.
            ExprAst::Neg(e) => Ok(match **e {
                ExprAst::Int(v) => match v.checked_neg() {
                    Some(v) => Expr::int(v),
                    None => Expr::sub(Expr::int(0), lower(e)?),
                },
                ExprAst::Float(v) => Expr::float(-v),
                _ => Expr::sub(Expr::int(0), lower(e)?),
            }),
            ExprAst::Not(e) => Ok(Expr::not(lower(e)?)),
            ExprAst::Binary { op, lhs, rhs } => {
                let (l, r) = (lower(lhs)?, lower(rhs)?);
                Ok(match op.as_str() {
                    "AND" => Expr::and(l, r),
                    "OR" => Expr::or(l, r),
                    "=" => Expr::eq(l, r),
                    "<>" => Expr::cmp(CmpOp::Ne, l, r),
                    "<" => Expr::lt(l, r),
                    "<=" => Expr::le(l, r),
                    ">" => Expr::gt(l, r),
                    ">=" => Expr::ge(l, r),
                    "+" => Expr::add(l, r),
                    "-" => Expr::sub(l, r),
                    "*" => Expr::mul(l, r),
                    "/" => Expr::arith(dbvirt_engine::BinOp::Div, l, r),
                    other => return Err(SqlError::bind(format!("unknown operator {other}"))),
                })
            }
            ExprAst::Like {
                expr,
                pattern,
                negated,
            } => {
                let e = lower(expr)?;
                Ok(if *negated {
                    Expr::not_like(e, pattern.clone())
                } else {
                    Expr::like(e, pattern.clone())
                })
            }
            ExprAst::InList {
                expr,
                list,
                negated,
            } => {
                let e = lower(expr)?;
                let items: Vec<Datum> = list
                    .iter()
                    .map(|item| match lower(item)? {
                        Expr::Literal(d) => Ok(d),
                        _ => Err(SqlError::bind("IN list items must be literals")),
                    })
                    .collect::<Result<_, _>>()?;
                let in_expr = Expr::in_list(e, items);
                Ok(if *negated {
                    Expr::not(in_expr)
                } else {
                    in_expr
                })
            }
            ExprAst::Between { expr, lo, hi } => {
                let e = lower(expr)?;
                let (lo, hi) = (lower(lo)?, lower(hi)?);
                Ok(Expr::and(Expr::ge(e.clone(), lo), Expr::le(e, hi)))
            }
            ExprAst::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(lower(expr)?),
                negated: *negated,
            }),
            ExprAst::Case {
                branches,
                else_expr,
            } => Ok(Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((lower(c)?, lower(v)?)))
                    .collect::<Result<_, SqlError>>()?,
                else_expr: else_expr
                    .as_deref()
                    .map(|e| Ok::<_, SqlError>(Box::new(lower(e)?)))
                    .transpose()?,
            }),
            ExprAst::Exists { .. } | ExprAst::InSelect { .. } => Err(SqlError::bind(
                "subqueries are only supported as top-level WHERE conjuncts",
            )),
        }
    }

    /// The table (index into `self.tables`) that owns global column `g`:
    /// the last one whose columns start at or before it.
    fn owner_of(&self, g: usize) -> usize {
        self.tables
            .partition_point(|t| t.offset <= g)
            .saturating_sub(1)
    }

    /// Tables referenced by a lowered expression.
    fn tables_of(&self, e: &Expr) -> Vec<usize> {
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        let mut out: Vec<usize> = cols.into_iter().map(|g| self.owner_of(g)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// An equality between two columns of different tables, as global
    /// indexes.
    fn as_equi_edge(&self, e: &Expr) -> Option<(usize, usize)> {
        let Expr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } = e
        else {
            return None;
        };
        match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Column(a), Expr::Column(b)) if self.owner_of(*a) != self.owner_of(*b) => {
                Some((*a, *b))
            }
            _ => None,
        }
    }

    /// Edge `(a, b)` as `(prefix column, column of table i)` when it joins
    /// table `i` to an earlier one.
    fn orient(&self, (a, b): (usize, usize), i: usize) -> Option<(usize, usize)> {
        let (oa, ob) = (self.owner_of(a), self.owner_of(b));
        if ob == i && oa < i {
            Some((a, b))
        } else if oa == i && ob < i {
            Some((b, a))
        } else {
            None
        }
    }
}

fn split_conjuncts_ast(e: &ExprAst, out: &mut Vec<ExprAst>) {
    match e {
        ExprAst::Binary { op, lhs, rhs } if op == "AND" => {
            split_conjuncts_ast(lhs, out);
            split_conjuncts_ast(rhs, out);
        }
        other => out.push(other.clone()),
    }
}

fn agg_func(name: &str, has_arg: bool) -> Result<AggFunc, SqlError> {
    Ok(match (name, has_arg) {
        ("COUNT", false) => AggFunc::CountStar,
        ("COUNT", true) => AggFunc::Count,
        ("SUM", true) => AggFunc::Sum,
        ("AVG", true) => AggFunc::Avg,
        ("MIN", true) => AggFunc::Min,
        ("MAX", true) => AggFunc::Max,
        _ => return Err(SqlError::bind(format!("unsupported aggregate {name}"))),
    })
}

/// Collects every distinct aggregate call in an AST expression, in
/// first-appearance order (the order fixes the aggregate's output slots).
fn collect_aggs<'e>(e: &'e ExprAst, out: &mut Vec<AggCall<'e>>) {
    if let ExprAst::Agg { func, arg } = e {
        let call = (func.as_str(), arg.as_deref());
        if !out.contains(&call) {
            out.push(call);
        }
    } else {
        e.for_each_child(|c| collect_aggs(c, out));
    }
}

/// `EXISTS` / `IN (SELECT ...)` bind to a semi join, their negations to an
/// anti join.
fn semi_or_anti(negated: bool) -> JoinType {
    if negated {
        JoinType::Anti
    } else {
        JoinType::Semi
    }
}

/// Binds a parsed statement against the catalog, producing a logical plan.
pub fn bind(stmt: &SelectStmt, db: &Database) -> Result<LogicalPlan, SqlError> {
    Ok(bind_with_names(stmt, db)?.0)
}

/// One `EXISTS` / `IN (SELECT ...)` conjunct, lowered to a semi/anti join
/// to be appended after the main join tree.
struct SemiJoinSpec {
    plan: LogicalPlan,
    conditions: Vec<JoinCondition>,
    join_type: JoinType,
}

/// Binds a statement, also returning its output column names (needed when
/// the statement is used as a derived table or a subquery).
pub(crate) fn bind_with_names(
    stmt: &SelectStmt,
    db: &Database,
) -> Result<(LogicalPlan, Vec<String>), SqlError> {
    // --- 1. Resolve the FROM clause. ---
    let mut binder = Binder {
        db,
        tables: Vec::new(),
        derived: None,
    };
    // Set when FROM is a derived table: the bound subquery plan.
    let mut derived_plan: Option<LogicalPlan> = None;
    match &stmt.from {
        FromItem::Table(first) => {
            let joined = stmt.joins.iter().map(|j| (&j.table, j.kind));
            let mut offset = 0;
            for (t, kind) in std::iter::once((first, JoinKind::Inner)).chain(joined) {
                let bound = BoundTable::new(db, &t.table, &t.alias, offset, kind)?;
                if binder.tables.iter().any(|b| b.alias == t.alias) {
                    return Err(SqlError::bind(format!(
                        "duplicate table alias {:?}",
                        t.alias
                    )));
                }
                offset += db.table(bound.table).schema.len();
                binder.tables.push(bound);
            }
        }
        FromItem::Derived { query, alias } => {
            if !stmt.joins.is_empty() {
                return Err(SqlError::bind(
                    "derived tables are only supported as the sole FROM entry",
                ));
            }
            let (inner, names) = bind_with_names(query, db)?;
            binder.derived = Some((alias.clone(), names));
            derived_plan = Some(inner);
        }
    }

    // --- 2. Bind ON clauses (each may only reference its prefix).
    // Equality conjuncts become join conditions; any other conjunct that
    // touches only the joined table is pushed into that table's scan
    // (which, for a LEFT JOIN, is the only meaning-preserving placement).
    for (i, j) in stmt.joins.iter().enumerate() {
        let table_idx = i + 1;
        let Some(on) = &j.on else { continue };
        let mut conjuncts = Vec::new();
        split_conjuncts_ast(on, &mut conjuncts);
        for c in conjuncts {
            let lowered = binder.lower_in(&c, Scope::Join)?;
            if let Some(edge) = binder.as_equi_edge(&lowered) {
                let oriented = binder.orient(edge, table_idx).ok_or_else(|| {
                    SqlError::bind("ON condition must relate the joined table to an earlier one")
                })?;
                binder.tables[table_idx].on_conditions.push(oriented);
            } else if binder.tables_of(&lowered).as_slice() == [table_idx] {
                binder.tables[table_idx].push_down(&lowered);
            } else {
                return Err(SqlError::bind(
                    "ON clauses must be conjunctions of column equalities \
                     (plus filters on the joined table)",
                ));
            }
        }
        if binder.tables[table_idx].on_conditions.is_empty() {
            return Err(SqlError::bind("JOIN ... ON needs at least one equality"));
        }
    }

    // --- 3. Classify WHERE conjuncts. ---
    let mut residual: Vec<Expr> = Vec::new();
    let mut where_edges: Vec<(usize, usize)> = Vec::new();
    let mut semi_joins: Vec<SemiJoinSpec> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        if w.contains_aggregate() {
            return Err(SqlError::bind("aggregates are not allowed in WHERE"));
        }
        let mut conjuncts = Vec::new();
        split_conjuncts_ast(w, &mut conjuncts);
        for c in conjuncts {
            match &c {
                ExprAst::Exists { query, negated } => {
                    semi_joins.push(bind_exists(&binder, query, *negated)?);
                    continue;
                }
                ExprAst::InSelect {
                    expr,
                    query,
                    negated,
                } => {
                    semi_joins.push(bind_in_select(&binder, expr, query, *negated)?);
                    continue;
                }
                _ => {}
            }
            let lowered = binder.lower_in(&c, Scope::Join)?;
            if binder.derived.is_some() {
                // Derived-table FROM: no pushdown bookkeeping, just filter.
                residual.push(lowered);
                continue;
            }
            if let Some(edge) = binder.as_equi_edge(&lowered) {
                where_edges.push(edge);
                continue;
            }
            match binder.tables_of(&lowered).as_slice() {
                [one] if binder.tables[*one].join_kind != JoinKind::Left => {
                    binder.tables[*one].push_down(&lowered);
                }
                _ => residual.push(lowered),
            }
        }
    }

    // --- 4. Build the left-deep join tree. ---
    let mut plan = match derived_plan {
        Some(inner) => inner,
        None => {
            let mut plan = binder.tables[0].scan();
            for (i, t) in binder.tables.iter().enumerate().skip(1) {
                // Conditions: the table's ON edges plus any WHERE edge
                // touching it and the prefix.
                let mut edges = t.on_conditions.clone();
                for &edge in &where_edges {
                    let Some(oriented) = binder.orient(edge, i) else {
                        continue;
                    };
                    if t.join_kind == JoinKind::Left {
                        return Err(SqlError::bind(
                            "LEFT JOIN conditions must be written in the ON clause",
                        ));
                    }
                    edges.push(oriented);
                }
                if edges.is_empty() {
                    return Err(SqlError::bind(format!(
                        "no join condition relates table {:?} to the preceding tables \
                         (cross joins are not supported)",
                        t.alias
                    )));
                }
                let conditions = edges
                    .into_iter()
                    .map(|(left_col, new_col)| JoinCondition {
                        left_col,
                        right_col: new_col - t.offset,
                    })
                    .collect();
                let join_type = match t.join_kind {
                    JoinKind::Inner => JoinType::Inner,
                    JoinKind::Left => JoinType::Left,
                };
                plan = plan.join_as(t.scan(), conditions, join_type);
            }
            plan
        }
    };

    // Semi/anti joins from EXISTS / IN (SELECT ...): they only filter the
    // left side, so appending them after the inner-join tree is sound.
    for s in semi_joins {
        plan = plan.join_as(s.plan, s.conditions, s.join_type);
    }

    if !residual.is_empty() {
        plan = plan.filter(Expr::and_all(residual));
    }

    // --- 5. Aggregation. ---
    // A `HAVING` makes the statement aggregated even with no aggregate
    // call and no `GROUP BY` (one group), as in PostgreSQL: a bare column
    // in it or in the select list then fails as not grouped.
    let has_aggs = stmt.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => false,
    }) || stmt.having.is_some()
        || !stmt.group_by.is_empty();

    let mut group_cols: Vec<usize> = Vec::new();
    let mut agg_calls: Vec<AggCall<'_>> = Vec::new();
    if has_aggs {
        if stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)))
        {
            return Err(SqlError::bind("SELECT * cannot be combined with GROUP BY"));
        }
        // Group columns must be plain columns.
        group_cols = stmt
            .group_by
            .iter()
            .map(|g| match g {
                ExprAst::Column { qualifier, name } => {
                    binder.resolve_column(qualifier.as_deref(), name)
                }
                other => Err(SqlError::bind(format!(
                    "GROUP BY supports plain columns only, got {other:?}"
                ))),
            })
            .collect::<Result<_, _>>()?;

        // Collect aggregates across SELECT, HAVING and ORDER BY.
        for item in &stmt.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggs(expr, &mut agg_calls);
            }
        }
        if let Some(h) = &stmt.having {
            collect_aggs(h, &mut agg_calls);
        }
        for k in &stmt.order_by {
            collect_aggs(&k.expr, &mut agg_calls);
        }
        let agg_exprs: Vec<AggExpr> = agg_calls
            .iter()
            .enumerate()
            .map(|(i, &(func, arg))| {
                Ok(AggExpr {
                    func: agg_func(func, arg.is_some())?,
                    arg: arg.map(|e| binder.lower_in(e, Scope::Join)).transpose()?,
                    name: format!("{}_{i}", func.to_ascii_lowercase()),
                })
            })
            .collect::<Result<_, SqlError>>()?;
        plan = plan.aggregate(group_cols.clone(), agg_exprs);
    }
    // `HAVING` and the select list read the aggregate's output when there
    // is one, the join output otherwise.
    let scope = if has_aggs {
        Scope::Agg {
            group_cols: &group_cols,
            aggs: &agg_calls,
        }
    } else {
        Scope::Join
    };
    if let Some(h) = &stmt.having {
        plan = plan.filter(binder.lower_in(h, scope)?);
    }

    // --- 6. The projection. ---
    let mut output_names: Vec<String> = Vec::new();
    let wildcard_only = stmt.items.len() == 1 && matches!(stmt.items[0], SelectItem::Wildcard);
    if wildcard_only {
        if let Some((_, names)) = &binder.derived {
            output_names.extend(names.iter().cloned());
        } else {
            for t in &binder.tables {
                let schema = &db.table(t.table).schema;
                for f in schema.fields() {
                    output_names.push(f.name.clone());
                }
            }
        }
    } else {
        let mut proj: Vec<(Expr, String)> = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    return Err(SqlError::bind(
                        "`*` mixed with other select items is not supported",
                    ))
                }
                SelectItem::QualifiedWildcard(q) => {
                    if let Some((alias, names)) = &binder.derived {
                        if q != alias {
                            return Err(SqlError::bind(format!("unknown table alias {q:?}")));
                        }
                        for (i, n) in names.iter().enumerate() {
                            output_names.push(n.clone());
                            proj.push((Expr::col(i), n.clone()));
                        }
                        continue;
                    }
                    let t = binder
                        .tables
                        .iter()
                        .find(|t| &t.alias == q)
                        .ok_or_else(|| SqlError::bind(format!("unknown table alias {q:?}")))?;
                    let schema = &db.table(t.table).schema;
                    for (i, f) in schema.fields().iter().enumerate() {
                        output_names.push(f.name.clone());
                        proj.push((Expr::col(t.offset + i), f.name.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let lowered = binder.lower_in(expr, scope)?;
                    let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                    output_names.push(name.clone());
                    proj.push((lowered, name));
                }
            }
        }
        plan = plan.project(proj);
    }

    // --- 7. ORDER BY (over the output schema) and LIMIT. ---
    if !stmt.order_by.is_empty() {
        let keys = stmt
            .order_by
            .iter()
            .map(|k| resolve_order_key(k, &output_names, &stmt.items))
            .collect::<Result<Vec<SortKey>, _>>()?;
        plan = plan.sort(keys);
    }
    if let Some(n) = stmt.limit {
        plan = plan.limit(n);
    }
    Ok((plan, output_names))
}

/// Lowers a correlated `EXISTS (SELECT ... FROM one_table WHERE ...)`
/// conjunct to a semi (or anti) join against the outer plan. Inner-only
/// conjuncts become the scan's filter; equalities between an inner and an
/// outer column become the join conditions.
fn bind_exists(
    outer: &Binder<'_>,
    query: &SelectStmt,
    negated: bool,
) -> Result<SemiJoinSpec, SqlError> {
    let FromItem::Table(tref) = &query.from else {
        return Err(SqlError::bind(
            "EXISTS subqueries must select from a single base table",
        ));
    };
    if !query.joins.is_empty() || !query.group_by.is_empty() || query.having.is_some() {
        return Err(SqlError::bind(
            "EXISTS subqueries support a single table with a WHERE clause only",
        ));
    }
    let mut inner = Binder {
        db: outer.db,
        tables: vec![BoundTable::new(
            outer.db,
            &tref.table,
            &tref.alias,
            0,
            JoinKind::Inner,
        )?],
        derived: None,
    };
    let mut conditions: Vec<JoinCondition> = Vec::new();
    if let Some(w) = &query.where_clause {
        let mut conjuncts = Vec::new();
        split_conjuncts_ast(w, &mut conjuncts);
        for c in conjuncts {
            // Inner-only conjunct?
            if let Ok(lowered) = inner.lower_in(&c, Scope::Join) {
                inner.tables[0].push_down(&lowered);
                continue;
            }
            // Correlation: an equality between an inner and an outer column.
            let ExprAst::Binary { op, lhs, rhs } = &c else {
                return Err(SqlError::bind(
                    "unsupported correlated predicate in EXISTS (need inner = outer)",
                ));
            };
            let col = |side: &ExprAst| -> Option<(Option<String>, String)> {
                match side {
                    ExprAst::Column { qualifier, name } => Some((qualifier.clone(), name.clone())),
                    _ => None,
                }
            };
            let pair = (op.as_str(), col(lhs), col(rhs));
            let ("=", Some((lq, ln)), Some((rq, rn))) = pair else {
                return Err(SqlError::bind(
                    "correlated EXISTS predicates must be column equalities",
                ));
            };
            let sides = [(lq, ln), (rq, rn)];
            let mut resolved: Option<(usize, usize)> = None; // (outer global, inner local)
            for (a, b) in [(0, 1), (1, 0)] {
                let (aq, an) = &sides[a];
                let (bq, bn) = &sides[b];
                if let (Ok(o), Ok(i)) = (
                    outer.resolve_column(aq.as_deref(), an),
                    inner.resolve_column(bq.as_deref(), bn),
                ) {
                    resolved = Some((o, i));
                    break;
                }
            }
            let Some((outer_col, inner_col)) = resolved else {
                return Err(SqlError::bind(format!(
                    "cannot resolve correlated EXISTS equality {} = {}",
                    sides[0].1, sides[1].1
                )));
            };
            conditions.push(JoinCondition {
                left_col: outer_col,
                right_col: inner_col,
            });
        }
    }
    if conditions.is_empty() {
        return Err(SqlError::bind(
            "EXISTS subqueries must be correlated with the outer query",
        ));
    }
    Ok(SemiJoinSpec {
        plan: inner.tables[0].scan(),
        conditions,
        join_type: semi_or_anti(negated),
    })
}

/// Lowers an uncorrelated `expr IN (SELECT ...)` conjunct to a semi (or
/// anti) join against the subquery's single output column.
fn bind_in_select(
    outer: &Binder<'_>,
    expr: &ExprAst,
    query: &SelectStmt,
    negated: bool,
) -> Result<SemiJoinSpec, SqlError> {
    let Expr::Column(outer_col) = outer.lower_in(expr, Scope::Join)? else {
        return Err(SqlError::bind(
            "the IN (SELECT ...) operand must be a plain column",
        ));
    };
    let (inner_plan, names) = bind_with_names(query, outer.db)?;
    if names.len() != 1 {
        return Err(SqlError::bind(format!(
            "IN subqueries must return exactly one column, got {}",
            names.len()
        )));
    }
    Ok(SemiJoinSpec {
        plan: inner_plan,
        conditions: vec![JoinCondition {
            left_col: outer_col,
            right_col: 0,
        }],
        join_type: semi_or_anti(negated),
    })
}

fn default_name(expr: &ExprAst, position: usize) -> String {
    match expr {
        ExprAst::Column { name, .. } => name.clone(),
        ExprAst::Agg { func, .. } => func.to_ascii_lowercase(),
        _ => format!("col{position}"),
    }
}

fn resolve_order_key(
    key: &OrderKey,
    output_names: &[String],
    items: &[SelectItem],
) -> Result<SortKey, SqlError> {
    // An output name / alias.
    let by_name = match &key.expr {
        ExprAst::Column {
            qualifier: None,
            name,
        } => output_names.iter().position(|n| n == name),
        _ => None,
    };
    let column = match (&key.expr, by_name) {
        // 1-based output position.
        (ExprAst::Int(n), _) if *n >= 1 && (*n as usize) <= output_names.len() => *n as usize - 1,
        (ExprAst::Int(n), _) => {
            return Err(SqlError::bind(format!(
                "ORDER BY position {n} out of range (1..={})",
                output_names.len()
            )))
        }
        (_, Some(position)) => position,
        // An expression textually matching a select item.
        (other, None) => items
            .iter()
            .position(|i| matches!(i, SelectItem::Expr { expr, .. } if expr == other))
            .ok_or_else(|| {
                SqlError::bind(
                    "ORDER BY keys must be output columns, aliases, positions, \
                     or select-list expressions",
                )
            })?,
    };
    Ok(SortKey {
        column,
        descending: key.descending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use dbvirt_engine::{run_plan, CpuCosts};
    use dbvirt_optimizer::{plan_query, OptimizerParams};
    use dbvirt_storage::{BufferPool, DataType, Field, Schema, Tuple};

    /// `users(id, name, city_id)` and `cities(id, city)`.
    fn db() -> Database {
        let mut db = Database::new();
        let users = db.create_table(
            "users",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("name", DataType::Str),
                Field::new("city_id", DataType::Int),
                Field::new("age", DataType::Int),
            ]),
        );
        db.insert_rows(
            users,
            (0..500).map(|i| {
                Tuple::new(vec![
                    Datum::Int(i),
                    Datum::str(format!("user{i}")),
                    Datum::Int(i % 10),
                    Datum::Int(18 + (i % 60)),
                ])
            }),
        )
        .unwrap();
        let cities = db.create_table(
            "cities",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("city", DataType::Str),
            ]),
        );
        db.insert_rows(
            cities,
            (0..10).map(|i| Tuple::new(vec![Datum::Int(i), Datum::str(format!("city{i}"))])),
        )
        .unwrap();
        db.analyze_all().unwrap();
        db
    }

    fn run(sql: &str) -> (Vec<Tuple>, Vec<String>) {
        let database = db();
        let logical = parse_query(sql, &database).unwrap();
        let planned = plan_query(&database, &logical, &OptimizerParams::default()).unwrap();
        let schema = planned.physical.output_schema(&database);
        let mut pool = BufferPool::new(256);
        let out = run_plan(
            &database,
            &mut pool,
            &planned.physical,
            1 << 20,
            CpuCosts::default(),
        )
        .unwrap();
        let names = schema.fields().iter().map(|f| f.name.clone()).collect();
        (out.rows, names)
    }

    #[test]
    fn select_star() {
        let (rows, _) = run("SELECT * FROM users");
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0].arity(), 4);
    }

    #[test]
    fn projection_filter_and_order() {
        let (rows, names) = run(
            "SELECT name, age + 1 AS next_age FROM users WHERE age >= 70 ORDER BY next_age DESC, name LIMIT 5",
        );
        assert_eq!(names, vec!["name", "next_age"]);
        assert_eq!(rows.len(), 5);
        let ages: Vec<i64> = rows.iter().map(|r| r.get(1).as_int().unwrap()).collect();
        assert!(ages.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(ages[0], 78);
    }

    #[test]
    fn join_with_on_and_where_pushdown() {
        let (rows, _) = run(
            "SELECT u.name, c.city FROM users u JOIN cities c ON u.city_id = c.id \
             WHERE c.city = 'city3' AND u.age < 30",
        );
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.get(1).as_str(), Some("city3"));
        }
    }

    #[test]
    fn comma_join_with_where_condition() {
        let (rows, _) =
            run("SELECT u.id FROM users u, cities c WHERE u.city_id = c.id AND c.id = 0");
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn group_by_having_and_aggregates() {
        let (rows, names) = run(
            "SELECT city_id, COUNT(*) AS n, AVG(age) AS avg_age FROM users \
             GROUP BY city_id HAVING COUNT(*) >= 50 ORDER BY city_id",
        );
        assert_eq!(names, vec!["city_id", "n", "avg_age"]);
        assert_eq!(rows.len(), 10, "all groups have exactly 50 members");
        for r in &rows {
            assert_eq!(r.get(1).as_int(), Some(50));
        }
    }

    #[test]
    fn global_aggregate_with_arithmetic_over_aggs() {
        let (rows, _) = run(
            "SELECT 100 * SUM(age) / COUNT(*) AS centi_avg FROM users WHERE age BETWEEN 20 AND 40",
        );
        assert_eq!(rows.len(), 1);
        let v = rows[0].get(0).as_float().unwrap();
        assert!(v > 2000.0 && v < 4100.0, "centi-average {v}");
    }

    #[test]
    fn predicates_over_aggregate_output_match_their_expansions() {
        // City c's 50 users average 42.2 + c years; its alphabetically
        // first name is user0, user1, then user102 … user109.
        let grouped = "SELECT city_id, COUNT(*) AS n FROM users GROUP BY city_id";
        let matched = "SELECT c.id, MAX(u.age) AS oldest FROM cities c \
                       LEFT JOIN users u ON c.id = u.city_id AND u.age > 70 GROUP BY c.id";
        for (query, widened, expanded, groups) in [
            (
                grouped,
                "COUNT(*) BETWEEN 40 AND 60",
                "COUNT(*) >= 40 AND COUNT(*) <= 60",
                10,
            ),
            (
                grouped,
                "AVG(age) BETWEEN 44 AND 48",
                "AVG(age) >= 44 AND AVG(age) <= 48",
                4,
            ),
            (
                grouped,
                "city_id IN (1, 3)",
                "city_id = 1 OR city_id = 3",
                2,
            ),
            (
                grouped,
                "city_id NOT IN (1, 3)",
                "NOT (city_id = 1 OR city_id = 3)",
                8,
            ),
            (
                grouped,
                "MIN(name) LIKE 'user1%'",
                "MIN(name) >= 'user1' AND MIN(name) < 'user2'",
                9,
            ),
            (
                grouped,
                "CASE WHEN city_id < 5 THEN AVG(age) > 44 ELSE FALSE END",
                "city_id < 5 AND AVG(age) > 44",
                3,
            ),
            (matched, "MAX(u.age) IS NULL", "COUNT(u.age) = 0", 3),
            (matched, "MAX(u.age) IS NOT NULL", "COUNT(u.age) > 0", 7),
        ] {
            let (rows, _) = run(&format!("{query} HAVING {widened} ORDER BY 1"));
            let (want, _) = run(&format!("{query} HAVING {expanded} ORDER BY 1"));
            assert_eq!(rows, want, "HAVING {widened}");
            assert_eq!(rows.len(), groups, "HAVING {widened}");
        }
    }

    #[test]
    fn left_join_preserves_unmatched() {
        let mut database = db();
        // Add a user with an unknown city.
        let users = database.table_id("users").unwrap();
        database
            .insert_rows(
                users,
                [Tuple::new(vec![
                    Datum::Int(999),
                    Datum::str("orphan"),
                    Datum::Int(77),
                    Datum::Int(30),
                ])],
            )
            .unwrap();
        database.analyze_all().unwrap();
        let logical = parse_query(
            "SELECT u.name, c.city FROM users u LEFT JOIN cities c ON u.city_id = c.id",
            &database,
        )
        .unwrap();
        let planned = plan_query(&database, &logical, &OptimizerParams::default()).unwrap();
        let mut pool = BufferPool::new(256);
        let out = run_plan(
            &database,
            &mut pool,
            &planned.physical,
            1 << 20,
            CpuCosts::default(),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 501);
        let orphan = out
            .rows
            .iter()
            .find(|r| r.get(0).as_str() == Some("orphan"))
            .unwrap();
        assert!(orphan.get(1).is_null());
    }

    #[test]
    fn like_in_between_and_not() {
        let (rows, _) = run(
            "SELECT id FROM users WHERE name LIKE 'user1%' AND id IN (1, 10, 11, 200) \
             AND NOT id = 200",
        );
        let ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 10, 11]);
    }

    #[test]
    fn negated_numeric_literals_are_literals() {
        let ids = |filter: &str| -> Vec<i64> {
            let (rows, _) = run(&format!("SELECT id FROM users WHERE {filter} ORDER BY id"));
            rows.iter().map(|r| r.get(0).as_int().unwrap()).collect()
        };
        assert_eq!(ids("id - 2 IN (-1, 0, 3)"), [1, 2, 5]);
        assert_eq!(ids("id NOT IN (-1, 0, 1) AND id < 4"), [2, 3]);
        assert_eq!(ids("id * 1.5 IN (-1.5, 3.0)"), [2]);
        // Any other operand is still `0 - x`.
        assert_eq!(ids("-id > -3"), [0, 1, 2]);
        assert_eq!(ids("id = -(-4)"), [4]);
        let database = db();
        let err = parse_query("SELECT id FROM users WHERE id IN (-id)", &database).unwrap_err();
        let err = err.to_string();
        assert!(err.contains("IN list items must be literals"), "{err}");
    }

    #[test]
    fn qualified_star_expands() {
        let (rows, names) =
            run("SELECT c.*, u.name FROM users u JOIN cities c ON u.city_id = c.id WHERE c.id = 0");
        assert_eq!(names, vec!["id", "city", "name"]);
        assert_eq!(rows.len(), 50);
        for r in &rows {
            assert_eq!(r.get(1).as_str(), Some("city0"));
        }
    }

    #[test]
    fn case_expression_evaluates() {
        // Ages are 18 + (i % 60); >= 50 means i % 60 >= 32, i.e. 28 of
        // every 60 users across 8 full cycles (480 users), none in the
        // 20-user tail.
        let (rows, _) = run("SELECT SUM(CASE WHEN age >= 50 THEN 1 ELSE 0 END) AS n FROM users");
        assert_eq!(rows[0].get(0).as_int(), Some(224));
    }

    #[test]
    fn exists_becomes_semi_join() {
        // age > 70 means i % 60 in 53..=59, whose i % 10 is always 3..=9.
        let (rows, _) = run("SELECT id FROM cities c WHERE EXISTS \
             (SELECT * FROM users u WHERE u.city_id = c.id AND u.age > 70) ORDER BY id");
        let ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn not_exists_becomes_anti_join() {
        let (rows, _) = run("SELECT id FROM cities c WHERE NOT EXISTS \
             (SELECT * FROM users u WHERE u.city_id = c.id AND u.age > 70) ORDER BY id");
        let ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn in_select_becomes_semi_join() {
        let (rows, _) = run("SELECT city FROM cities WHERE id IN \
             (SELECT city_id FROM users WHERE age > 70) ORDER BY city");
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].get(0).as_str(), Some("city3"));
    }

    #[test]
    fn derived_table_as_sole_from() {
        let (rows, names) = run("SELECT n, COUNT(*) AS cnt FROM \
             (SELECT city_id, COUNT(*) AS n FROM users GROUP BY city_id) d GROUP BY n");
        assert_eq!(names, vec!["n", "cnt"]);
        assert_eq!(rows.len(), 1, "every city has exactly 50 users");
        assert_eq!(rows[0].get(0).as_int(), Some(50));
        assert_eq!(rows[0].get(1).as_int(), Some(10));
    }

    #[test]
    fn left_join_on_filter_pushes_to_right_side() {
        let (rows, _) = run("SELECT u.name, c.city FROM users u \
             LEFT JOIN cities c ON u.city_id = c.id AND c.id < 3");
        assert_eq!(rows.len(), 500, "left side preserved");
        let matched = rows.iter().filter(|r| !r.get(1).is_null()).count();
        assert_eq!(matched, 150, "only cities 0-2 match");
    }

    #[test]
    fn order_by_position() {
        let (rows, _) = run("SELECT id, age FROM users ORDER BY 2 DESC, 1 ASC LIMIT 3");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(1).as_int(), Some(77));
    }

    #[test]
    fn date_literals_bind() {
        let database = db();
        // No date column in this schema; just ensure the literal lowers.
        let err = parse_query(
            "SELECT id FROM users WHERE missing >= DATE '1994-01-01'",
            &database,
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Bind { .. }));
        assert_eq!(parse_date("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date("1992-01-01").unwrap(), 8035);
        assert!(parse_date("1992-13-01").is_err());
        assert!(parse_date("nope").is_err());
    }

    #[test]
    fn bind_errors() {
        let database = db();
        for (sql, needle) in [
            ("SELECT * FROM missing", "unknown table"),
            ("SELECT nope FROM users", "unknown column"),
            (
                "SELECT id FROM users u, cities u WHERE u.id = 0",
                "duplicate table alias",
            ),
            ("SELECT u.id FROM users u, cities c", "no join condition"),
            ("SELECT id FROM users GROUP BY id + 1", "plain columns"),
            (
                "SELECT name FROM users GROUP BY city_id",
                "must appear in GROUP BY",
            ),
            (
                "SELECT id FROM users HAVING id > 5",
                "must appear in GROUP BY",
            ),
            ("SELECT * FROM users GROUP BY city_id", "SELECT *"),
            ("SELECT id FROM users ORDER BY nope", "ORDER BY"),
            (
                "SELECT id FROM users WHERE COUNT(*) > 1",
                "aggregates are not allowed",
            ),
            (
                "SELECT u.id FROM users u LEFT JOIN cities c ON u.city_id = c.id WHERE u.id = c.id",
                "LEFT JOIN conditions",
            ),
        ] {
            let err = parse_query(sql, &database).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{sql:?} -> {err} (expected {needle:?})"
            );
        }
    }

    #[test]
    fn ambiguous_bare_column_is_rejected() {
        let database = db();
        let err = parse_query(
            "SELECT id FROM users u JOIN cities c ON u.city_id = c.id",
            &database,
        )
        .unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }
}
