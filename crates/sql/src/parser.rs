//! Recursive-descent `SELECT` parser.

use crate::ast::{
    ExprAst, FromItem, JoinClause, JoinKind, OrderKey, SelectItem, SelectStmt, TableRef,
};
use crate::lexer::Token;
use crate::SqlError;

/// Keywords that can never be table/column aliases.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT",
    "OUTER", "ON", "AS", "AND", "OR", "NOT", "LIKE", "IN", "BETWEEN", "IS", "NULL", "ASC", "DESC",
    "TRUE", "FALSE", "DATE", "COUNT", "SUM", "AVG", "MIN", "MAX", "CASE", "WHEN", "THEN", "ELSE",
    "END", "EXISTS",
];

const AGG_FUNCS: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX"];

struct Cursor<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn advance(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_sym(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), SqlError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(SqlError::parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Consumes a non-reserved identifier, returning its original spelling.
    fn expect_name(&mut self, what: &str) -> Result<String, SqlError> {
        match self.peek() {
            Some(Token::Ident { upper, raw }) if !RESERVED.contains(&upper.as_str()) => {
                self.pos += 1;
                Ok(raw.clone())
            }
            other => Err(SqlError::parse(format!("expected {what}, found {other:?}"))),
        }
    }
}

/// Parses a token stream into a `SELECT` statement.
pub fn parse(tokens: &[Token]) -> Result<SelectStmt, SqlError> {
    let mut c = Cursor { tokens, pos: 0 };
    let stmt = parse_select(&mut c)?;
    if let Some(extra) = c.peek() {
        return Err(SqlError::parse(format!(
            "unexpected trailing token {extra:?}"
        )));
    }
    Ok(stmt)
}

fn parse_select(c: &mut Cursor<'_>) -> Result<SelectStmt, SqlError> {
    c.expect_kw("SELECT")?;

    let mut items = Vec::new();
    loop {
        if c.eat_sym("*") {
            items.push(SelectItem::Wildcard);
        } else if let Some(Token::Ident { upper, raw }) = c.peek() {
            // `alias.*`?
            if !RESERVED.contains(&upper.as_str())
                && c.tokens.get(c.pos + 1).is_some_and(|t| t.is_sym("."))
                && c.tokens.get(c.pos + 2).is_some_and(|t| t.is_sym("*"))
            {
                let q = raw.clone();
                c.pos += 3;
                items.push(SelectItem::QualifiedWildcard(q));
            } else {
                let expr = parse_expr(c)?;
                let alias = parse_item_alias(c)?;
                items.push(SelectItem::Expr { expr, alias });
            }
        } else {
            let expr = parse_expr(c)?;
            let alias = parse_item_alias(c)?;
            items.push(SelectItem::Expr { expr, alias });
        }
        if !c.eat_sym(",") {
            break;
        }
    }

    c.expect_kw("FROM")?;
    let from = if c.eat_sym("(") {
        let query = parse_select(c)?;
        c.expect_sym(")")?;
        c.eat_kw("AS");
        let alias = c.expect_name("derived-table alias")?;
        FromItem::Derived {
            query: Box::new(query),
            alias,
        }
    } else {
        FromItem::Table(parse_table_ref(c)?)
    };
    let mut joins = Vec::new();
    loop {
        if c.eat_sym(",") {
            joins.push(JoinClause {
                kind: JoinKind::Inner,
                table: parse_table_ref(c)?,
                on: None,
            });
        } else if c
            .peek()
            .is_some_and(|t| t.is_kw("JOIN") || t.is_kw("INNER") || t.is_kw("LEFT"))
        {
            let kind = if c.eat_kw("LEFT") {
                c.eat_kw("OUTER");
                JoinKind::Left
            } else {
                c.eat_kw("INNER");
                JoinKind::Inner
            };
            c.expect_kw("JOIN")?;
            let table = parse_table_ref(c)?;
            c.expect_kw("ON")?;
            let on = parse_expr(c)?;
            joins.push(JoinClause {
                kind,
                table,
                on: Some(on),
            });
        } else {
            break;
        }
    }

    let where_clause = if c.eat_kw("WHERE") {
        Some(parse_expr(c)?)
    } else {
        None
    };

    let mut group_by = Vec::new();
    if c.eat_kw("GROUP") {
        c.expect_kw("BY")?;
        loop {
            group_by.push(parse_expr(c)?);
            if !c.eat_sym(",") {
                break;
            }
        }
    }

    let having = if c.eat_kw("HAVING") {
        Some(parse_expr(c)?)
    } else {
        None
    };

    let mut order_by = Vec::new();
    if c.eat_kw("ORDER") {
        c.expect_kw("BY")?;
        loop {
            let expr = parse_expr(c)?;
            let descending = if c.eat_kw("DESC") {
                true
            } else {
                c.eat_kw("ASC");
                false
            };
            order_by.push(OrderKey { expr, descending });
            if !c.eat_sym(",") {
                break;
            }
        }
    }

    let limit = if c.eat_kw("LIMIT") {
        match c.advance() {
            Some(Token::Int(n)) if *n >= 0 => Some(*n as usize),
            other => {
                return Err(SqlError::parse(format!(
                    "LIMIT needs a count, found {other:?}"
                )))
            }
        }
    } else {
        None
    };

    Ok(SelectStmt {
        items,
        from,
        joins,
        where_clause,
        group_by,
        having,
        order_by,
        limit,
    })
}

/// `[AS] alias` after a select item, if present.
fn parse_item_alias(c: &mut Cursor<'_>) -> Result<Option<String>, SqlError> {
    if c.eat_kw("AS") {
        return Ok(Some(c.expect_name("alias")?));
    }
    match c.peek() {
        Some(Token::Ident { upper, raw }) if !RESERVED.contains(&upper.as_str()) => {
            let a = raw.clone();
            c.pos += 1;
            Ok(Some(a))
        }
        _ => Ok(None),
    }
}

fn parse_table_ref(c: &mut Cursor<'_>) -> Result<TableRef, SqlError> {
    let table = c.expect_name("table name")?;
    let alias = if c.eat_kw("AS") {
        c.expect_name("table alias")?
    } else {
        match c.peek() {
            Some(Token::Ident { upper, raw }) if !RESERVED.contains(&upper.as_str()) => {
                let a = raw.clone();
                c.pos += 1;
                a
            }
            _ => table.clone(),
        }
    };
    Ok(TableRef { table, alias })
}

/// One left-associative binary level: `next (op next)*`, where `eat`
/// consumes any operator of `ops`.
fn left_assoc<'a>(
    c: &mut Cursor<'a>,
    ops: &[&str],
    eat: impl Fn(&mut Cursor<'a>, &str) -> bool,
    next: impl Fn(&mut Cursor<'a>) -> Result<ExprAst, SqlError>,
) -> Result<ExprAst, SqlError> {
    let mut lhs = next(c)?;
    while let Some(op) = ops.iter().find(|op| eat(c, op)) {
        lhs = ExprAst::Binary {
            op: op.to_string(),
            lhs: Box::new(lhs),
            rhs: Box::new(next(c)?),
        };
    }
    Ok(lhs)
}

/// Full expression: OR-level.
fn parse_expr(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    left_assoc(c, &["OR"], Cursor::eat_kw, parse_and)
}

fn parse_and(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    left_assoc(c, &["AND"], Cursor::eat_kw, parse_not)
}

fn parse_not(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    if c.peek().is_some_and(|t| t.is_kw("NOT"))
        && c.tokens.get(c.pos + 1).is_some_and(|t| t.is_kw("EXISTS"))
    {
        c.pos += 1;
        return parse_exists(c, true);
    }
    if c.eat_kw("NOT") {
        Ok(ExprAst::Not(Box::new(parse_not(c)?)))
    } else {
        parse_predicate(c)
    }
}

/// `EXISTS (SELECT ...)` — the EXISTS keyword is at the cursor.
fn parse_exists(c: &mut Cursor<'_>, negated: bool) -> Result<ExprAst, SqlError> {
    c.expect_kw("EXISTS")?;
    c.expect_sym("(")?;
    let query = parse_select(c)?;
    c.expect_sym(")")?;
    Ok(ExprAst::Exists {
        query: Box::new(query),
        negated,
    })
}

/// Comparison / LIKE / IN / BETWEEN / IS NULL level.
fn parse_predicate(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    let lhs = parse_additive(c)?;

    // `NOT LIKE` / `NOT IN` at the predicate position.
    let negated = if c.peek().is_some_and(|t| t.is_kw("NOT"))
        && c.tokens
            .get(c.pos + 1)
            .is_some_and(|t| t.is_kw("LIKE") || t.is_kw("IN"))
    {
        c.pos += 1;
        true
    } else {
        false
    };

    if c.eat_kw("LIKE") {
        match c.advance() {
            Some(Token::Str(p)) => {
                return Ok(ExprAst::Like {
                    expr: Box::new(lhs),
                    pattern: p.clone(),
                    negated,
                })
            }
            other => {
                return Err(SqlError::parse(format!(
                    "LIKE needs a string pattern, found {other:?}"
                )))
            }
        }
    }
    if c.eat_kw("IN") {
        c.expect_sym("(")?;
        if c.peek().is_some_and(|t| t.is_kw("SELECT")) {
            let query = parse_select(c)?;
            c.expect_sym(")")?;
            return Ok(ExprAst::InSelect {
                expr: Box::new(lhs),
                query: Box::new(query),
                negated,
            });
        }
        let mut list = Vec::new();
        loop {
            list.push(parse_additive(c)?);
            if !c.eat_sym(",") {
                break;
            }
        }
        c.expect_sym(")")?;
        return Ok(ExprAst::InList {
            expr: Box::new(lhs),
            list,
            negated,
        });
    }
    if negated {
        return Err(SqlError::parse("dangling NOT before a non-predicate"));
    }
    if c.eat_kw("BETWEEN") {
        let lo = parse_additive(c)?;
        c.expect_kw("AND")?;
        let hi = parse_additive(c)?;
        return Ok(ExprAst::Between {
            expr: Box::new(lhs),
            lo: Box::new(lo),
            hi: Box::new(hi),
        });
    }
    if c.eat_kw("IS") {
        let negated = c.eat_kw("NOT");
        c.expect_kw("NULL")?;
        return Ok(ExprAst::IsNull {
            expr: Box::new(lhs),
            negated,
        });
    }
    for op in ["=", "<>", "<=", ">=", "<", ">"] {
        if c.eat_sym(op) {
            let rhs = parse_additive(c)?;
            return Ok(ExprAst::Binary {
                op: op.to_string(),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
    }
    Ok(lhs)
}

fn parse_additive(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    left_assoc(c, &["+", "-"], Cursor::eat_sym, parse_multiplicative)
}

fn parse_multiplicative(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    left_assoc(c, &["*", "/"], Cursor::eat_sym, parse_unary)
}

fn parse_unary(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    if c.eat_sym("-") {
        return Ok(ExprAst::Neg(Box::new(parse_unary(c)?)));
    }
    parse_primary(c)
}

fn parse_primary(c: &mut Cursor<'_>) -> Result<ExprAst, SqlError> {
    if c.eat_sym("(") {
        let inner = parse_expr(c)?;
        c.expect_sym(")")?;
        return Ok(inner);
    }
    match c.peek().cloned() {
        Some(Token::Int(v)) => {
            c.pos += 1;
            Ok(ExprAst::Int(v))
        }
        Some(Token::Float(v)) => {
            c.pos += 1;
            Ok(ExprAst::Float(v))
        }
        Some(Token::Str(s)) => {
            c.pos += 1;
            Ok(ExprAst::Str(s))
        }
        Some(Token::Ident { upper, raw }) => {
            if upper == "TRUE" {
                c.pos += 1;
                return Ok(ExprAst::Bool(true));
            }
            if upper == "FALSE" {
                c.pos += 1;
                return Ok(ExprAst::Bool(false));
            }
            if upper == "NULL" {
                c.pos += 1;
                return Ok(ExprAst::Null);
            }
            if upper == "CASE" {
                c.pos += 1;
                let mut branches = Vec::new();
                while c.eat_kw("WHEN") {
                    let cond = parse_expr(c)?;
                    c.expect_kw("THEN")?;
                    let val = parse_expr(c)?;
                    branches.push((cond, val));
                }
                if branches.is_empty() {
                    return Err(SqlError::parse("CASE needs at least one WHEN branch"));
                }
                let else_expr = if c.eat_kw("ELSE") {
                    Some(Box::new(parse_expr(c)?))
                } else {
                    None
                };
                c.expect_kw("END")?;
                return Ok(ExprAst::Case {
                    branches,
                    else_expr,
                });
            }
            if upper == "EXISTS" {
                return parse_exists(c, false);
            }
            if upper == "DATE" {
                c.pos += 1;
                match c.advance() {
                    Some(Token::Str(s)) => return Ok(ExprAst::Date(s.clone())),
                    other => {
                        return Err(SqlError::parse(format!(
                            "DATE needs a 'YYYY-MM-DD' string, found {other:?}"
                        )))
                    }
                }
            }
            if AGG_FUNCS.contains(&upper.as_str()) {
                c.pos += 1;
                c.expect_sym("(")?;
                let arg = if c.eat_sym("*") {
                    if upper != "COUNT" {
                        return Err(SqlError::parse(format!("{upper}(*) is not valid")));
                    }
                    None
                } else {
                    Some(Box::new(parse_expr(c)?))
                };
                c.expect_sym(")")?;
                return Ok(ExprAst::Agg { func: upper, arg });
            }
            if RESERVED.contains(&upper.as_str()) {
                return Err(SqlError::parse(format!(
                    "unexpected keyword {upper} in expression"
                )));
            }
            c.pos += 1;
            // Qualified column?
            if c.eat_sym(".") {
                let name = c.expect_name("column name")?;
                Ok(ExprAst::Column {
                    qualifier: Some(raw),
                    name,
                })
            } else {
                Ok(ExprAst::Column {
                    qualifier: None,
                    name: raw,
                })
            }
        }
        other => Err(SqlError::parse(format!(
            "expected an expression, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn p(sql: &str) -> SelectStmt {
        parse(&tokenize(sql).unwrap()).unwrap()
    }

    fn from_table(s: &SelectStmt) -> &TableRef {
        match &s.from {
            FromItem::Table(t) => t,
            other => panic!("expected a base table, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let s = p("SELECT * FROM t");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert_eq!(from_table(&s).table, "t");
        assert_eq!(from_table(&s).alias, "t");
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn aliases_and_projection() {
        let s = p("SELECT a, b + 1 AS b1, count(*) cnt FROM t x");
        assert_eq!(s.items.len(), 3);
        assert_eq!(from_table(&s).alias, "x");
        match &s.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("b1")),
            other => panic!("{other:?}"),
        }
        match &s.items[2] {
            SelectItem::Expr { expr, alias } => {
                assert_eq!(alias.as_deref(), Some("cnt"));
                assert!(matches!(expr, ExprAst::Agg { func, arg: None } if func == "COUNT"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn joins_comma_and_explicit() {
        let s = p("SELECT * FROM a, b JOIN c ON a.x = c.y LEFT JOIN d ON d.z = b.w");
        assert_eq!(s.joins.len(), 3);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert!(s.joins[0].on.is_none());
        assert_eq!(s.joins[1].table.alias, "c");
        assert!(s.joins[1].on.is_some());
        assert_eq!(s.joins[2].kind, JoinKind::Left);
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 = 10 AND x OR y  parses as  ((a + (b*2)) = 10 AND x) OR y
        let s = p("SELECT 1 FROM t WHERE a + b * 2 = 10 AND x OR y");
        let w = s.where_clause.unwrap();
        match &w {
            ExprAst::Binary { op, lhs, .. } => {
                assert_eq!(op, "OR");
                match lhs.as_ref() {
                    ExprAst::Binary { op, lhs, .. } => {
                        assert_eq!(op, "AND");
                        match lhs.as_ref() {
                            ExprAst::Binary { op, lhs, .. } => {
                                assert_eq!(op, "=");
                                match lhs.as_ref() {
                                    ExprAst::Binary { op, rhs, .. } => {
                                        assert_eq!(op, "+");
                                        assert!(matches!(
                                            rhs.as_ref(),
                                            ExprAst::Binary { op, .. } if op == "*"
                                        ));
                                    }
                                    other => panic!("{other:?}"),
                                }
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicates() {
        let s = p(
            "SELECT 1 FROM t WHERE a LIKE '%x%' AND b NOT LIKE 'y%' AND c IN (1, 2) \
             AND d NOT IN (3) AND e BETWEEN 1 AND 5 AND f IS NOT NULL AND g IS NULL",
        );
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn group_having_order_limit() {
        let s = p(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 5 \
             ORDER BY n DESC, g LIMIT 10",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn date_literal_and_negation() {
        let s = p("SELECT 1 FROM t WHERE d >= DATE '1994-01-01' AND v > -5");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn qualified_star_in_projection() {
        let s = p("SELECT u.*, c.city FROM u JOIN c ON u.x = c.y");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.items[0], SelectItem::QualifiedWildcard("u".into()));
    }

    #[test]
    fn case_when_parses() {
        let s = p("SELECT CASE WHEN a > 1 THEN b ELSE 0 END FROM t");
        match &s.items[0] {
            SelectItem::Expr {
                expr:
                    ExprAst::Case {
                        branches,
                        else_expr,
                    },
                ..
            } => {
                assert_eq!(branches.len(), 1);
                assert!(else_expr.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exists_and_in_subqueries_parse() {
        let s = p(
            "SELECT 1 FROM t WHERE EXISTS (SELECT * FROM u WHERE u.x = t.x) \
             AND NOT EXISTS (SELECT * FROM v WHERE v.y = t.y) \
             AND k IN (SELECT k FROM w)",
        );
        let mut conj = Vec::new();
        fn walk(e: &ExprAst, out: &mut Vec<ExprAst>) {
            if let ExprAst::Binary { op, lhs, rhs } = e {
                if op == "AND" {
                    walk(lhs, out);
                    walk(rhs, out);
                    return;
                }
            }
            out.push(e.clone());
        }
        walk(s.where_clause.as_ref().unwrap(), &mut conj);
        assert_eq!(conj.len(), 3);
        assert!(matches!(&conj[0], ExprAst::Exists { negated: false, .. }));
        assert!(matches!(&conj[1], ExprAst::Exists { negated: true, .. }));
        assert!(matches!(&conj[2], ExprAst::InSelect { negated: false, .. }));
    }

    #[test]
    fn derived_table_from_parses() {
        let s = p("SELECT n FROM (SELECT k AS n FROM t GROUP BY k) d GROUP BY n");
        match &s.from {
            FromItem::Derived { alias, query } => {
                assert_eq!(alias, "d");
                assert_eq!(query.group_by.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT x",
            "SELECT SUM(*) FROM t",
            "SELECT * FROM t trailing garbage ,",
            "SELECT a FROM t ORDER",
        ] {
            let toks = tokenize(bad).unwrap();
            assert!(parse(&toks).is_err(), "{bad:?} should not parse");
        }
    }
}
