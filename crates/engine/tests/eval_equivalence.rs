//! `Expr::eval_ref` against the evaluator it replaced.
//!
//! `reference_eval` below is `Expr::eval` as it stood before expressions
//! learned to borrow: it clones a `Datum` at every leaf and evaluates both
//! sides of every `AND`/`OR`. It survives here — and only here — as the
//! oracle: over random expression trees and random rows, the borrowing,
//! short-circuiting evaluator must return the same value, whether the row is
//! an owned `Tuple` or a `TupleView` over its encoded bytes.

use dbvirt_engine::{BinOp, CmpOp, Expr};
use dbvirt_storage::{Datum, Tuple, TupleView};
use proptest::prelude::*;
use proptest::TestRng;

fn reference_like(pattern: &[u8], text: &[u8]) -> bool {
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

fn cmp_test(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

fn reference_eval(expr: &Expr, tuple: &Tuple) -> Datum {
    let eval = |e: &Expr| reference_eval(e, tuple);
    match expr {
        Expr::Column(i) => tuple.get(*i).clone(),
        Expr::Literal(d) => d.clone(),
        Expr::Cmp { op, lhs, rhs } => {
            let (a, b) = (eval(lhs), eval(rhs));
            match a.sql_cmp(&b) {
                Some(ord) => Datum::Bool(cmp_test(*op, ord)),
                None => Datum::Null,
            }
        }
        Expr::And(l, r) => match (eval(l).as_bool(), eval(r).as_bool()) {
            (Some(false), _) | (_, Some(false)) => Datum::Bool(false),
            (Some(true), Some(true)) => Datum::Bool(true),
            _ => Datum::Null,
        },
        Expr::Or(l, r) => match (eval(l).as_bool(), eval(r).as_bool()) {
            (Some(true), _) | (_, Some(true)) => Datum::Bool(true),
            (Some(false), Some(false)) => Datum::Bool(false),
            _ => Datum::Null,
        },
        Expr::Not(e) => match eval(e).as_bool() {
            Some(b) => Datum::Bool(!b),
            None => Datum::Null,
        },
        Expr::Arith { op, lhs, rhs } => {
            let (a, b) = (eval(lhs), eval(rhs));
            if a.is_null() || b.is_null() {
                return Datum::Null;
            }
            if let (Datum::Int(x), Datum::Int(y)) = (&a, &b) {
                return match op {
                    BinOp::Add => Datum::Int(x.wrapping_add(*y)),
                    BinOp::Sub => Datum::Int(x.wrapping_sub(*y)),
                    BinOp::Mul => Datum::Int(x.wrapping_mul(*y)),
                    BinOp::Div => {
                        if *y == 0 {
                            Datum::Null
                        } else {
                            Datum::Float(*x as f64 / *y as f64)
                        }
                    }
                };
            }
            match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => match op {
                    BinOp::Add => Datum::Float(x + y),
                    BinOp::Sub => Datum::Float(x - y),
                    BinOp::Mul => Datum::Float(x * y),
                    BinOp::Div => {
                        if y == 0.0 {
                            Datum::Null
                        } else {
                            Datum::Float(x / y)
                        }
                    }
                },
                _ => Datum::Null,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match eval(expr) {
            Datum::Str(s) => {
                let m = reference_like(pattern.as_bytes(), s.as_bytes());
                Datum::Bool(m != *negated)
            }
            _ => Datum::Null,
        },
        Expr::InList { expr, list } => {
            let v = eval(expr);
            if v.is_null() {
                return Datum::Null;
            }
            let mut saw_null = false;
            for item in list {
                match v.sql_cmp(item) {
                    Some(std::cmp::Ordering::Equal) => return Datum::Bool(true),
                    None => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Datum::Null
            } else {
                Datum::Bool(false)
            }
        }
        Expr::IsNull { expr, negated } => Datum::Bool(eval(expr).is_null() != *negated),
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, value) in branches {
                if eval(cond).as_bool() == Some(true) {
                    return eval(value);
                }
            }
            else_expr.as_ref().map_or(Datum::Null, |e| eval(e))
        }
    }
}

const ARITY: usize = 6;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[below(rng, from.len() as u64) as usize]
}

/// All six kinds, weighted towards the values where the evaluator branches:
/// zero divisors, wrapping ints, signed zeros, strings a pattern can match.
fn arb_datum(rng: &mut TestRng) -> Datum {
    const STRINGS: [&str; 7] = ["", "a", "ab", "abc", "a%c", "wörld", "日本"];
    match below(rng, 7) {
        0 => Datum::Null,
        1 => Datum::Int(pick(rng, &[i64::MIN, -1, 0, 1, 2, 7, i64::MAX])),
        2 => Datum::Float(pick(rng, &[0.0, -0.0, 0.5, 2.0, -7.25, f64::MAX, f64::MIN])),
        3 | 4 => Datum::str(pick(rng, &STRINGS)),
        5 => Datum::Date(pick(rng, &[i32::MIN, 0, 1, 19_000, i32::MAX])),
        _ => Datum::Bool(below(rng, 2) == 0),
    }
}

fn arb_expr(rng: &mut TestRng, depth: u32) -> Expr {
    if depth == 0 || below(rng, 5) == 0 {
        return if below(rng, 2) == 0 {
            Expr::Column(below(rng, ARITY as u64) as usize)
        } else {
            Expr::Literal(arb_datum(rng))
        };
    }
    let sub = |rng: &mut TestRng| Box::new(arb_expr(rng, depth - 1));
    match below(rng, 9) {
        0 => Expr::Cmp {
            op: pick(
                rng,
                &[
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ],
            ),
            lhs: sub(rng),
            rhs: sub(rng),
        },
        1 => Expr::And(sub(rng), sub(rng)),
        2 => Expr::Or(sub(rng), sub(rng)),
        3 => Expr::Not(sub(rng)),
        4 => Expr::Arith {
            op: pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]),
            lhs: sub(rng),
            rhs: sub(rng),
        },
        5 => Expr::Like {
            expr: sub(rng),
            pattern: pick(rng, &["", "%", "a%", "%c", "a_c", "%b%", "_", "w%d"]).to_string(),
            negated: below(rng, 2) == 0,
        },
        6 => Expr::InList {
            expr: sub(rng),
            list: (0..below(rng, 5)).map(|_| arb_datum(rng)).collect(),
        },
        7 => Expr::IsNull {
            expr: sub(rng),
            negated: below(rng, 2) == 0,
        },
        _ => Expr::Case {
            branches: (0..below(rng, 3))
                .map(|_| (arb_expr(rng, depth - 1), arb_expr(rng, depth - 1)))
                .collect(),
            else_expr: (below(rng, 2) == 0).then(|| sub(rng)),
        },
    }
}

/// A random expression over a random row of `ARITY` columns.
struct ArbCase;

impl Strategy for ArbCase {
    type Value = (Expr, Tuple);
    fn sample(&self, rng: &mut TestRng) -> (Expr, Tuple) {
        let row = Tuple::new((0..ARITY).map(|_| arb_datum(rng)).collect());
        (arb_expr(rng, 4), row)
    }
}

/// `==` with floats compared by bits: arithmetic over the extreme values
/// reaches NaN and both zeros, and the evaluators must agree on those too.
fn same(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Float(x), Datum::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn eval_ref_agrees_with_the_cloning_evaluator((expr, row) in ArbCase) {
        let expect = reference_eval(&expr, &row);

        let on_tuple = expr.eval_ref(&row).to_datum();
        prop_assert!(same(&on_tuple, &expect), "{expr:?} on {row:?}: {on_tuple} vs {expect}");

        let bytes = row.encode();
        let mut fields = Vec::new();
        let view = TupleView::parse(&bytes, &mut fields).unwrap();
        let on_view = expr.eval_ref(&view).to_datum();
        prop_assert!(same(&on_view, &expect), "{expr:?} on view of {row:?}: {on_view} vs {expect}");

        prop_assert!(same(&expr.eval(&row), &expect));
        prop_assert_eq!(expr.eval_bool(&view), expect.as_bool());
    }
}
