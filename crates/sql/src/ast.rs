//! The parsed statement shape (names unresolved).

/// A parsed scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    /// `[qualifier.]column`
    Column {
        /// Table alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `DATE 'YYYY-MM-DD'`.
    Date(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// `NULL`.
    Null,
    /// Binary operator (`= <> < <= > >= + - * / AND OR`).
    Binary {
        /// Operator spelling (normalized).
        op: String,
        /// Left operand.
        lhs: Box<ExprAst>,
        /// Right operand.
        rhs: Box<ExprAst>,
    },
    /// `NOT expr`.
    Not(Box<ExprAst>),
    /// Unary minus.
    Neg(Box<ExprAst>),
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Operand.
        expr: Box<ExprAst>,
        /// The pattern.
        pattern: String,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (literal, ...)`.
    InList {
        /// Operand.
        expr: Box<ExprAst>,
        /// Literal list items.
        list: Vec<ExprAst>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Operand.
        expr: Box<ExprAst>,
        /// Lower bound.
        lo: Box<ExprAst>,
        /// Upper bound.
        hi: Box<ExprAst>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<ExprAst>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// Aggregate call: `COUNT(*)` or `COUNT/SUM/AVG/MIN/MAX(expr)`.
    Agg {
        /// Upper-cased function name.
        func: String,
        /// Argument (`None` = `*`).
        arg: Option<Box<ExprAst>>,
    },
    /// `CASE WHEN c THEN v [WHEN ...]* [ELSE e] END`.
    Case {
        /// `(condition, value)` branches in order.
        branches: Vec<(ExprAst, ExprAst)>,
        /// The `ELSE` value (`NULL` if absent).
        else_expr: Option<Box<ExprAst>>,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The subquery.
        query: Box<SelectStmt>,
        /// `NOT EXISTS` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSelect {
        /// Operand.
        expr: Box<ExprAst>,
        /// The subquery (its first output column is matched).
        query: Box<SelectStmt>,
        /// `NOT IN` when true.
        negated: bool,
    },
}

/// One `SELECT` list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: ExprAst,
        /// Output alias, if written.
        alias: Option<String>,
    },
}

/// Join kind in the `FROM` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN` and comma joins.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
}

/// One table reference with its optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Catalog table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: String,
}

/// One joined table after the first.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Join kind.
    pub kind: JoinKind,
    /// The joined table.
    pub table: TableRef,
    /// The `ON` condition (`None` for comma joins — conditions live in
    /// `WHERE`).
    pub on: Option<ExprAst>,
}

/// `ORDER BY` key: an output name, a 1-based position, or an expression
/// matching a select item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The key expression (usually a bare column / alias, or an integer
    /// position literal).
    pub expr: ExprAst,
    /// Descending when true.
    pub descending: bool,
}

/// The first `FROM` entry: a base table or a parenthesised subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// `FROM table [alias]`
    Table(TableRef),
    /// `FROM (SELECT ...) alias` — a derived table.
    Derived {
        /// The subquery.
        query: Box<SelectStmt>,
        /// The mandatory alias.
        alias: String,
    },
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The projection list.
    pub items: Vec<SelectItem>,
    /// First table (or derived subquery).
    pub from: FromItem,
    /// Remaining joined tables.
    pub joins: Vec<JoinClause>,
    /// `WHERE` predicate.
    pub where_clause: Option<ExprAst>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<ExprAst>,
    /// `HAVING` predicate.
    pub having: Option<ExprAst>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
}

impl ExprAst {
    /// Calls `f` on each direct sub-expression, in source order: `lhs`
    /// before `rhs`, the operand before list items or bounds, `CASE`
    /// branches (condition, then value) before `ELSE`. A subquery's own
    /// expressions are a separate scope and are not visited.
    pub(crate) fn for_each_child<'e>(&'e self, mut f: impl FnMut(&'e ExprAst)) {
        match self {
            ExprAst::Binary { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            ExprAst::Not(e)
            | ExprAst::Neg(e)
            | ExprAst::Like { expr: e, .. }
            | ExprAst::IsNull { expr: e, .. }
            | ExprAst::InSelect { expr: e, .. } => f(e),
            ExprAst::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            ExprAst::Between { expr, lo, hi } => {
                f(expr);
                f(lo);
                f(hi);
            }
            ExprAst::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    f(c);
                    f(v);
                }
                if let Some(e) = else_expr {
                    f(e);
                }
            }
            ExprAst::Agg { arg: Some(e), .. } => f(e),
            _ => {}
        }
    }

    /// True if the expression contains an aggregate call anywhere.
    pub(crate) fn contains_aggregate(&self) -> bool {
        let mut found = matches!(self, ExprAst::Agg { .. });
        self.for_each_child(|c| found = found || c.contains_aggregate());
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection_recurses() {
        let agg = ExprAst::Agg {
            func: "SUM".into(),
            arg: Some(Box::new(ExprAst::Column {
                qualifier: None,
                name: "x".into(),
            })),
        };
        let wrapped = ExprAst::Binary {
            op: "+".into(),
            lhs: Box::new(ExprAst::Int(1)),
            rhs: Box::new(agg),
        };
        assert!(wrapped.contains_aggregate());
        assert!(!ExprAst::Int(1).contains_aggregate());
    }
}
