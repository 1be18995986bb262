//! Scalar expressions with SQL three-valued semantics.

use dbvirt_storage::{DataType, Datum, DatumRef, Row, Schema};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression over the columns of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to column `i` of the input tuple.
    Column(usize),
    /// A constant.
    Literal(Datum),
    /// Comparison of two sub-expressions.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical conjunction (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// Arithmetic on numerics.
    Arith {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// SQL `LIKE` with `%` (any run) and `_` (any char) wildcards.
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// The pattern.
        pattern: String,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `expr IN (list)` over constants.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// The constant list.
        list: Vec<Datum>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `CASE WHEN c1 THEN v1 ... ELSE e END`.
    Case {
        /// `(condition, value)` branches, tested in order.
        branches: Vec<(Expr, Expr)>,
        /// The `ELSE` value (`NULL` when absent).
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Constant.
    pub fn lit(d: Datum) -> Expr {
        Expr::Literal(d)
    }

    /// Integer constant.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Datum::Int(v))
    }

    /// Float constant.
    pub fn float(v: f64) -> Expr {
        Expr::Literal(Datum::Float(v))
    }

    /// String constant.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Literal(Datum::Str(s.into()))
    }

    /// Date constant (days since epoch).
    pub fn date(d: i32) -> Expr {
        Expr::Literal(Datum::Date(d))
    }

    /// Comparison builder.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, lhs, rhs)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Lt, lhs, rhs)
    }

    /// `lhs <= rhs`.
    pub fn le(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Le, lhs, rhs)
    }

    /// `lhs > rhs`.
    pub fn gt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Gt, lhs, rhs)
    }

    /// `lhs >= rhs`.
    pub fn ge(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Ge, lhs, rhs)
    }

    /// Conjunction.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::And(Box::new(lhs), Box::new(rhs))
    }

    /// Conjunction of many terms (`TRUE` for an empty list).
    pub fn and_all(terms: Vec<Expr>) -> Expr {
        terms
            .into_iter()
            .reduce(Expr::and)
            .unwrap_or(Expr::Literal(Datum::Bool(true)))
    }

    /// Disjunction.
    pub fn or(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Or(Box::new(lhs), Box::new(rhs))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)] // builder, not an operator impl
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// Arithmetic builder.
    pub fn arith(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Arith {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs + rhs`.
    #[allow(clippy::should_implement_trait)] // builder, not an operator impl
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::arith(BinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`.
    #[allow(clippy::should_implement_trait)] // builder, not an operator impl
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::arith(BinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`.
    #[allow(clippy::should_implement_trait)] // builder, not an operator impl
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::arith(BinOp::Mul, lhs, rhs)
    }

    /// `LIKE` builder.
    pub fn like(expr: Expr, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(expr),
            pattern: pattern.into(),
            negated: false,
        }
    }

    /// `NOT LIKE` builder.
    pub fn not_like(expr: Expr, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(expr),
            pattern: pattern.into(),
            negated: true,
        }
    }

    /// `IN` builder.
    pub fn in_list(expr: Expr, list: Vec<Datum>) -> Expr {
        Expr::InList {
            expr: Box::new(expr),
            list,
        }
    }

    /// `BETWEEN lo AND hi` (inclusive), as sugar over two comparisons.
    pub fn between(expr: Expr, lo: Datum, hi: Datum) -> Expr {
        Expr::and(
            Expr::ge(expr.clone(), Expr::lit(lo)),
            Expr::le(expr, Expr::lit(hi)),
        )
    }

    /// Evaluates the expression against a row without allocating: a string
    /// result is borrowed from the column or the literal it came from.
    /// `AND`/`OR` stop at a deciding left operand, which cannot change the
    /// value of a pure expression.
    pub fn eval_ref<'a, R: Row + ?Sized>(&'a self, row: &'a R) -> DatumRef<'a> {
        use DatumRef::{Bool, Float, Int, Null};
        match self {
            Expr::Column(i) => row.col(*i),
            Expr::Literal(d) => DatumRef::of(d),
            Expr::Cmp { op, lhs, rhs } => match lhs.eval_ref(row).sql_cmp(rhs.eval_ref(row)) {
                Some(ord) => Bool(op.test(ord)),
                None => Null,
            },
            Expr::And(l, r) => match l.eval_ref(row).as_bool() {
                Some(false) => Bool(false),
                l => match (l, r.eval_ref(row).as_bool()) {
                    (_, Some(false)) => Bool(false),
                    (Some(true), Some(true)) => Bool(true),
                    _ => Null,
                },
            },
            Expr::Or(l, r) => match l.eval_ref(row).as_bool() {
                Some(true) => Bool(true),
                l => match (l, r.eval_ref(row).as_bool()) {
                    (_, Some(true)) => Bool(true),
                    (Some(false), Some(false)) => Bool(false),
                    _ => Null,
                },
            },
            Expr::Not(e) => match e.eval_ref(row).as_bool() {
                Some(b) => Bool(!b),
                None => Null,
            },
            Expr::Arith { op, lhs, rhs } => {
                let (a, b) = (lhs.eval_ref(row), rhs.eval_ref(row));
                if a.is_null() || b.is_null() {
                    return Null;
                }
                // Integer arithmetic stays integral except division.
                if let (Int(x), Int(y)) = (a, b) {
                    return match op {
                        BinOp::Add => Int(x.wrapping_add(y)),
                        BinOp::Sub => Int(x.wrapping_sub(y)),
                        BinOp::Mul => Int(x.wrapping_mul(y)),
                        BinOp::Div if y == 0 => Null,
                        BinOp::Div => Float(x as f64 / y as f64),
                    };
                }
                match (a.as_float(), b.as_float()) {
                    (Some(x), Some(y)) => match op {
                        BinOp::Add => Float(x + y),
                        BinOp::Sub => Float(x - y),
                        BinOp::Mul => Float(x * y),
                        BinOp::Div if y == 0.0 => Null,
                        BinOp::Div => Float(x / y),
                    },
                    _ => Null,
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => match expr.eval_ref(row) {
                DatumRef::Str(s) => Bool(like_match(pattern.as_bytes(), s.as_bytes()) != *negated),
                _ => Null,
            },
            Expr::InList { expr, list } => {
                let v = expr.eval_ref(row);
                if v.is_null() {
                    return Null;
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_cmp(DatumRef::of(item)) {
                        Some(std::cmp::Ordering::Equal) => return Bool(true),
                        None => saw_null = true,
                        _ => {}
                    }
                }
                if saw_null {
                    Null
                } else {
                    Bool(false)
                }
            }
            Expr::IsNull { expr, negated } => Bool(expr.eval_ref(row).is_null() != *negated),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (cond, value) in branches {
                    if cond.eval_ref(row).as_bool() == Some(true) {
                        return value.eval_ref(row);
                    }
                }
                else_expr.as_ref().map_or(Null, |e| e.eval_ref(row))
            }
        }
    }

    /// Evaluates the expression against a row, copying the result out.
    pub fn eval<R: Row + ?Sized>(&self, row: &R) -> Datum {
        self.eval_ref(row).to_datum()
    }

    /// Evaluates as a filter predicate: `Some(true)` passes, anything else
    /// (false or NULL) filters the row out.
    pub fn eval_bool<R: Row + ?Sized>(&self, row: &R) -> Option<bool> {
        self.eval_ref(row).as_bool()
    }

    /// Number of operator applications in the expression tree — the unit
    /// PostgreSQL charges `cpu_operator_cost` for ("each WHERE clause
    /// item"). Columns and literals are free.
    pub fn num_operators(&self) -> u32 {
        match self {
            Expr::Column(_) | Expr::Literal(_) => 0,
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                1 + lhs.num_operators() + rhs.num_operators()
            }
            Expr::And(l, r) | Expr::Or(l, r) => 1 + l.num_operators() + r.num_operators(),
            Expr::Not(e) => 1 + e.num_operators(),
            // Pattern matching walks the string: charge one operator per
            // few pattern characters, so LIKE-heavy queries (e.g. TPC-H
            // Q13's comment filter) are correctly CPU-expensive in both
            // the executor's accounting and the optimizer's model.
            Expr::Like { expr, pattern, .. } => {
                1 + (pattern.len() as u32) / 4 + expr.num_operators()
            }
            Expr::InList { expr, list } => 1 + list.len() as u32 / 2 + expr.num_operators(),
            Expr::IsNull { expr, .. } => 1 + expr.num_operators(),
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .map(|(c, v)| 1 + c.num_operators() + v.num_operators())
                    .sum::<u32>()
                    + else_expr.as_ref().map_or(0, |e| e.num_operators())
            }
        }
    }

    /// Best-effort output type against an input schema.
    pub fn data_type(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Column(i) => schema.field(*i).data_type,
            Expr::Literal(d) => d.data_type().unwrap_or(DataType::Int),
            Expr::Cmp { .. }
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(_)
            | Expr::Like { .. }
            | Expr::InList { .. }
            | Expr::IsNull { .. } => DataType::Bool,
            Expr::Arith { op, lhs, rhs } => {
                let (a, b) = (lhs.data_type(schema), rhs.data_type(schema));
                if *op == BinOp::Div || a == DataType::Float || b == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => branches
                .first()
                .map(|(_, v)| v.data_type(schema))
                .or_else(|| else_expr.as_ref().map(|e| e.data_type(schema)))
                .unwrap_or(DataType::Int),
        }
    }

    /// Column indexes referenced anywhere in the expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) => {}
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.referenced_columns(out);
                rhs.referenced_columns(out);
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                l.referenced_columns(out);
                r.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Like { expr: e, .. } | Expr::IsNull { expr: e, .. } => {
                e.referenced_columns(out)
            }
            Expr::InList { expr, .. } => expr.referenced_columns(out),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.referenced_columns(out);
                    v.referenced_columns(out);
                }
                if let Some(e) = else_expr {
                    e.referenced_columns(out);
                }
            }
        }
    }

    /// Returns a copy with every column index `i` replaced by `f(i)` (used
    /// to move a predicate between a join's output and one of its inputs).
    pub fn map_columns<F: Fn(usize) -> usize>(&self, f: &F) -> Expr {
        let map = |e: &Expr| Box::new(e.map_columns(f));
        match self {
            Expr::Column(i) => Expr::Column(f(*i)),
            Expr::Literal(d) => Expr::Literal(d.clone()),
            Expr::Cmp { op, lhs, rhs } => Expr::cmp(*op, lhs.map_columns(f), rhs.map_columns(f)),
            Expr::And(l, r) => Expr::And(map(l), map(r)),
            Expr::Or(l, r) => Expr::Or(map(l), map(r)),
            Expr::Not(e) => Expr::Not(map(e)),
            Expr::Arith { op, lhs, rhs } => {
                Expr::arith(*op, lhs.map_columns(f), rhs.map_columns(f))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: map(expr),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: map(expr),
                list: list.clone(),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: map(expr),
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.map_columns(f), v.map_columns(f)))
                    .collect(),
                else_expr: else_expr.as_deref().map(map),
            },
        }
    }
}

/// SQL `LIKE` matcher with `%` and `_` wildcards (iterative backtracking).
pub(crate) fn like_match(pattern: &[u8], text: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while t < text.len() {
        if p < pattern.len() && (pattern[p] == b'_' || pattern[p] == text[t]) {
            p += 1;
            t += 1;
        } else if p < pattern.len() && pattern[p] == b'%' {
            star_p = p;
            star_t = t;
            p += 1;
        } else if star_p != usize::MAX {
            p = star_p + 1;
            star_t += 1;
            t = star_t;
        } else {
            return false;
        }
    }
    while p < pattern.len() && pattern[p] == b'%' {
        p += 1;
    }
    p == pattern.len()
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` — non-null inputs.
    Count,
    /// `COUNT(*)` — all rows.
    CountStar,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// One aggregate in a `GROUP BY` output.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Its argument (absent for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// `COUNT(*) AS name`.
    pub fn count_star(name: impl Into<String>) -> AggExpr {
        AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            name: name.into(),
        }
    }

    /// `func(arg) AS name`.
    pub fn new(func: AggFunc, arg: Expr, name: impl Into<String>) -> AggExpr {
        AggExpr {
            func,
            arg: Some(arg),
            name: name.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbvirt_storage::Tuple;

    fn t(values: Vec<Datum>) -> Tuple {
        Tuple::new(values)
    }

    #[test]
    fn comparisons_and_nulls() {
        let row = t(vec![Datum::Int(5), Datum::Null]);
        assert_eq!(
            Expr::lt(Expr::col(0), Expr::int(10)).eval(&row),
            Datum::Bool(true)
        );
        assert_eq!(
            Expr::eq(Expr::col(1), Expr::int(10)).eval(&row),
            Datum::Null
        );
        assert_eq!(
            Expr::ge(Expr::col(0), Expr::int(5)).eval(&row),
            Datum::Bool(true)
        );
    }

    #[test]
    fn three_valued_logic() {
        let row = t(vec![Datum::Null]);
        let null_cmp = Expr::eq(Expr::col(0), Expr::int(1));
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NOT NULL = NULL.
        assert_eq!(
            Expr::and(null_cmp.clone(), Expr::lit(Datum::Bool(false))).eval(&row),
            Datum::Bool(false)
        );
        assert_eq!(
            Expr::or(null_cmp.clone(), Expr::lit(Datum::Bool(true))).eval(&row),
            Datum::Bool(true)
        );
        assert_eq!(Expr::not(null_cmp.clone()).eval(&row), Datum::Null);
        assert_eq!(
            Expr::and(null_cmp.clone(), Expr::lit(Datum::Bool(true))).eval(&row),
            Datum::Null
        );
        assert_eq!(null_cmp.eval_bool(&row), None);
    }

    #[test]
    fn arithmetic_coercion_and_div_by_zero() {
        let row = t(vec![Datum::Int(7), Datum::Float(2.0)]);
        assert_eq!(
            Expr::add(Expr::col(0), Expr::int(3)).eval(&row),
            Datum::Int(10)
        );
        assert_eq!(
            Expr::mul(Expr::col(0), Expr::col(1)).eval(&row),
            Datum::Float(14.0)
        );
        assert_eq!(
            Expr::arith(BinOp::Div, Expr::col(0), Expr::int(2)).eval(&row),
            Datum::Float(3.5)
        );
        assert_eq!(
            Expr::arith(BinOp::Div, Expr::col(0), Expr::int(0)).eval(&row),
            Datum::Null
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match(b"PROMO%", b"PROMO BURNISHED"));
        assert!(!like_match(b"PROMO%", b"STANDARD"));
        assert!(like_match(
            b"%special%requests%",
            b"the special deposit requests here"
        ));
        assert!(!like_match(b"%special%requests%", b"requests then special"));
        assert!(like_match(b"a_c", b"abc"));
        assert!(!like_match(b"a_c", b"abbc"));
        assert!(like_match(b"%", b""));
        assert!(like_match(b"", b""));
        assert!(!like_match(b"", b"x"));
        assert!(like_match(b"%%x%%", b"zzxzz"));
    }

    #[test]
    fn like_expr_and_negation() {
        let row = t(vec![Datum::str("hello special world requests end")]);
        let e = Expr::like(Expr::col(0), "%special%requests%");
        assert_eq!(e.eval(&row), Datum::Bool(true));
        let e = Expr::not_like(Expr::col(0), "%special%requests%");
        assert_eq!(e.eval(&row), Datum::Bool(false));
        let null_row = t(vec![Datum::Null]);
        assert_eq!(e.eval(&null_row), Datum::Null);
    }

    #[test]
    fn in_list_semantics() {
        let row = t(vec![Datum::Int(2)]);
        let e = Expr::in_list(Expr::col(0), vec![Datum::Int(1), Datum::Int(2)]);
        assert_eq!(e.eval(&row), Datum::Bool(true));
        let e = Expr::in_list(Expr::col(0), vec![Datum::Int(5), Datum::Null]);
        assert_eq!(e.eval(&row), Datum::Null, "no match + NULL in list = NULL");
        let e = Expr::in_list(Expr::col(0), vec![Datum::Int(5)]);
        assert_eq!(e.eval(&row), Datum::Bool(false));
    }

    #[test]
    fn is_null_and_case() {
        let row = t(vec![Datum::Null, Datum::Int(3)]);
        assert_eq!(
            Expr::IsNull {
                expr: Box::new(Expr::col(0)),
                negated: false
            }
            .eval(&row),
            Datum::Bool(true)
        );
        let case = Expr::Case {
            branches: vec![
                (Expr::gt(Expr::col(1), Expr::int(5)), Expr::str("big")),
                (Expr::gt(Expr::col(1), Expr::int(1)), Expr::str("mid")),
            ],
            else_expr: Some(Box::new(Expr::str("small"))),
        };
        assert_eq!(case.eval(&row), Datum::str("mid"));
    }

    #[test]
    fn between_sugar() {
        let row = t(vec![Datum::Float(0.05)]);
        let e = Expr::between(Expr::col(0), Datum::Float(0.04), Datum::Float(0.06));
        assert_eq!(e.eval(&row), Datum::Bool(true));
        let row = t(vec![Datum::Float(0.07)]);
        assert_eq!(e.eval(&row), Datum::Bool(false));
    }

    #[test]
    fn operator_counting() {
        // (a < 10) AND (b = 'x') : two comparisons + one AND = 3.
        let e = Expr::and(
            Expr::lt(Expr::col(0), Expr::int(10)),
            Expr::eq(Expr::col(1), Expr::str("x")),
        );
        assert_eq!(e.num_operators(), 3);
        assert_eq!(Expr::col(0).num_operators(), 0);
        // LIKE costs grow with pattern length (string matching is real
        // work per row).
        let short = Expr::like(Expr::col(0), "%x%");
        let long = Expr::like(Expr::col(0), "%special%requests%");
        assert!(long.num_operators() > short.num_operators());
    }

    #[test]
    fn referenced_columns_and_shift() {
        let e = Expr::and(
            Expr::lt(Expr::col(2), Expr::int(10)),
            Expr::eq(Expr::col(0), Expr::col(5)),
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2, 5]);
        let shifted = e.map_columns(&|i| i + 10);
        let mut cols = Vec::new();
        shifted.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![10, 12, 15]);
        // Subtracting the same offset takes the columns back.
        assert_eq!(shifted.map_columns(&|i| i - 10), e);
        let case = Expr::Case {
            branches: vec![(
                Expr::like(Expr::col(7), "a%"),
                Expr::in_list(Expr::col(8), vec![]),
            )],
            else_expr: Some(Box::new(Expr::IsNull {
                expr: Box::new(Expr::not(Expr::col(9))),
                negated: true,
            })),
        };
        let mut cols = Vec::new();
        case.map_columns(&|i| i - 7).referenced_columns(&mut cols);
        assert_eq!(cols, vec![0, 1, 2]);
    }

    #[test]
    fn data_types() {
        use dbvirt_storage::Field;
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
        ]);
        assert_eq!(Expr::col(0).data_type(&schema), DataType::Int);
        assert_eq!(
            Expr::add(Expr::col(0), Expr::col(1)).data_type(&schema),
            DataType::Float
        );
        assert_eq!(
            Expr::lt(Expr::col(0), Expr::int(1)).data_type(&schema),
            DataType::Bool
        );
    }
}
