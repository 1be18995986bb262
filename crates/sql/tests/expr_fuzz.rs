//! Random expression trees through the whole front end: generated SQL is
//! parsed, bound, planned and validated, and every stage must answer `Ok`
//! or a typed error, never panic. Trees (depth ≤ 4) draw on every binary
//! operator, literal kind and aggregate, and on `CASE`, `IN`, `BETWEEN`,
//! `LIKE` and `IS NULL`; each is placed in `WHERE`, in `HAVING` and in the
//! select list, with and without `GROUP BY` and joins.

use dbvirt_engine::Database;
use dbvirt_optimizer::{plan_query, OptimizerParams};
use dbvirt_sql::parse_query;
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use proptest::prelude::*;
use proptest::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// `users(id, name, city_id, age, score, born)` and `cities(id, city)`.
fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut db = Database::new();
        let users = db.create_table(
            "users",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("name", DataType::Str),
                Field::new("city_id", DataType::Int),
                Field::new("age", DataType::Int),
                Field::new("score", DataType::Float),
                Field::new("born", DataType::Date),
            ]),
        );
        db.insert_rows(
            users,
            (0..200).map(|i| {
                Tuple::new(vec![
                    Datum::Int(i),
                    Datum::str(format!("user{i}")),
                    if i % 17 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(i % 10)
                    },
                    Datum::Int(18 + (i % 60)),
                    Datum::Float(i as f64 * 0.5),
                    Datum::Date(8000 + i as i32),
                ])
            }),
        )
        .expect("insert users");
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
        .expect("insert cities");
        db.analyze_all().expect("analyze");
        db
    })
}

const BINARY: &[&str] = &[
    "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/",
];
const AGGS: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX"];

/// What a generated expression may refer to.
#[derive(Clone, Copy)]
struct Ctx {
    /// Columns in scope (the group columns over aggregate output).
    columns: &'static [&'static str],
    /// The input columns aggregate arguments read, when aggregates bind.
    agg_input: Option<&'static [&'static str]>,
}

const USERS: &[&str] = &["id", "name", "city_id", "age", "score", "born"];
const JOINED: &[&str] = &[
    "u.id", "name", "city_id", "u.age", "score", "born", "c.id", "city",
];

fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.next_u64().is_multiple_of(n)
}

fn pick<'a>(rng: &mut TestRng, xs: &[&'a str]) -> &'a str {
    xs[(rng.next_u64() % xs.len() as u64) as usize]
}

fn literal(rng: &mut TestRng) -> String {
    match rng.next_u64() % 8 {
        0 => format!("{}", rng.next_u64() % 100),
        1 => format!("{}.5", rng.next_u64() % 100),
        2 => format!("'user{}'", rng.next_u64() % 20),
        3 => format!(
            "DATE '199{}-0{}-1{}'",
            rng.next_u64() % 10,
            1 + rng.next_u64() % 9,
            rng.next_u64() % 10
        ),
        4 => "TRUE".into(),
        5 => "FALSE".into(),
        6 => "NULL".into(),
        _ => format!("-{}", rng.next_u64() % 10),
    }
}

/// A random expression of at most `depth` levels, fully parenthesised.
/// One leaf in 32 is out of scope (an unknown column, or an aggregate where
/// none may stand), so the refusals are exercised too.
fn expr(rng: &mut TestRng, depth: u32, ctx: Ctx) -> String {
    let stray = one_in(rng, 32);
    if depth == 0 {
        return match rng.next_u64() % 3 {
            _ if stray => "nope".into(),
            n if n == 0 || ctx.columns.is_empty() => literal(rng),
            _ => pick(rng, ctx.columns).to_string(),
        };
    }
    let sub = |rng: &mut TestRng| {
        let d = rng.next_u64() as u32 % depth;
        expr(rng, d, ctx)
    };
    let not = |rng: &mut TestRng| if one_in(rng, 2) { "NOT " } else { "" };
    match rng.next_u64() % 12 {
        0..=2 => {
            let op = pick(rng, BINARY);
            format!("({} {op} {})", sub(rng), sub(rng))
        }
        3 => format!("(NOT {})", sub(rng)),
        4 => format!("(- {})", sub(rng)),
        5 => format!("({} {}LIKE 'user1%')", sub(rng), not(rng)),
        6 => {
            let items: Vec<String> = (0..1 + rng.next_u64() % 3).map(|_| literal(rng)).collect();
            format!("({} {}IN ({}))", sub(rng), not(rng), items.join(", "))
        }
        7 => format!("({} BETWEEN {} AND {})", sub(rng), sub(rng), sub(rng)),
        8 => format!("({} IS {}NULL)", sub(rng), not(rng)),
        9 => {
            let mut s = String::from("(CASE");
            for _ in 0..1 + rng.next_u64() % 2 {
                s += &format!(" WHEN {} THEN {}", sub(rng), sub(rng));
            }
            if one_in(rng, 2) {
                s += &format!(" ELSE {}", sub(rng));
            }
            s + " END)"
        }
        _ => match (ctx.agg_input, pick(rng, AGGS)) {
            (None, _) if !stray => sub(rng),
            (_, "COUNT") if one_in(rng, 2) => "COUNT(*)".into(),
            (input, f) => {
                let columns = input.unwrap_or(ctx.columns);
                let arg = expr(
                    rng,
                    depth - 1,
                    Ctx {
                        columns,
                        agg_input: None,
                    },
                );
                format!("{f}({arg})")
            }
        },
    }
}

/// The `k`-th of six statement shapes, filled with two random expressions
/// (a select item, then a `WHERE` or `HAVING` predicate).
fn statement(k: u64, rng: &mut TestRng) -> String {
    let scalar = |columns| Ctx {
        columns,
        agg_input: None,
    };
    let grouped = |columns, input| Ctx {
        columns,
        agg_input: Some(input),
    };
    let mut e = |ctx| expr(rng, 4, ctx);
    match k % 6 {
        0 => format!(
            "SELECT {} AS x FROM users WHERE {}",
            e(scalar(USERS)),
            e(scalar(USERS))
        ),
        1 => format!(
            "SELECT city_id, {} AS x FROM users GROUP BY city_id HAVING {} ORDER BY 1",
            e(grouped(&["city_id"], USERS)),
            e(grouped(&["city_id"], USERS))
        ),
        2 => format!(
            "SELECT {} AS x FROM users u JOIN cities c ON u.city_id = c.id WHERE {}",
            e(scalar(JOINED)),
            e(scalar(JOINED))
        ),
        3 => format!(
            "SELECT {} AS x, COUNT(*) AS n FROM users HAVING {}",
            e(grouped(&[], USERS)),
            e(grouped(&[], USERS))
        ),
        4 => format!(
            "SELECT city, {} AS x FROM users u LEFT JOIN cities c ON u.city_id = c.id \
             GROUP BY city HAVING {} ORDER BY x DESC LIMIT 3",
            e(grouped(&["city"], JOINED)),
            e(grouped(&["city"], JOINED))
        ),
        _ => format!(
            "SELECT {} AS x FROM users WHERE city_id IN (SELECT id FROM cities WHERE {})",
            e(scalar(USERS)),
            e(scalar(&["id", "city"]))
        ),
    }
}

/// Parses, binds, plans and validates `sql`; `Some(stage)` names the stage
/// that refused it with a typed error.
fn front_end(sql: &str) -> Option<&'static str> {
    let db = db();
    let Ok(logical) = parse_query(sql, db) else {
        return Some("bind");
    };
    let Ok(planned) = plan_query(db, &logical, &OptimizerParams::default()) else {
        return Some("plan");
    };
    planned.physical.validate(db).err().map(|_| "validate")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]
    #[test]
    fn random_expressions_never_panic_the_front_end(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(seed, 0);
        for k in 0..6 {
            let sql = statement(k, &mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| front_end(&sql)));
            let Ok(refused) = outcome else {
                panic!("the front end panicked on {sql:?}");
            };
            // A statement that binds and plans is a valid physical plan.
            prop_assert!(refused != Some("validate"), "invalid plan for {sql:?}");
        }
    }
}

/// The widened forms over aggregate output bind, plan and validate.
#[test]
fn predicates_over_aggregate_output_bind() {
    for having in [
        "COUNT(*) BETWEEN 10 AND 30",
        "city_id IN (1, 3)",
        "MIN(name) LIKE 'user1%'",
        "MAX(score) IS NOT NULL",
        "CASE WHEN COUNT(*) > 19 THEN TRUE ELSE FALSE END",
    ] {
        let sql = format!("SELECT city_id, COUNT(*) FROM users GROUP BY city_id HAVING {having}");
        assert_eq!(front_end(&sql), None, "{sql}");
    }
}
