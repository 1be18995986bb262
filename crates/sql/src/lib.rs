//! # dbvirt-sql — the SQL front-end
//!
//! A small, dependency-free SQL layer so that workloads can be written the
//! way the paper writes them ("a sequence of SQL statements") instead of
//! as hand-built plan trees:
//!
//! * [`lexer`] — tokens, keywords, literals (including `DATE 'YYYY-MM-DD'`);
//! * [`ast`] — the parsed statement shape;
//! * [`parser`] — recursive-descent `SELECT` parser with standard operator
//!   precedence;
//! * [`binder`] — name resolution against a [`dbvirt_engine::Database`]
//!   catalog, predicate classification (pushdown vs join conditions vs
//!   residual), and lowering to a [`dbvirt_optimizer::LogicalPlan`].
//!
//! Supported surface: `SELECT` lists with expressions, aliases and
//! aggregates (`COUNT(*)`, `COUNT/SUM/AVG/MIN/MAX(expr)`); `FROM` with
//! comma joins and `[INNER|LEFT] JOIN … ON`; `WHERE` with `AND/OR/NOT`,
//! comparisons, arithmetic, `LIKE`, `IN (…)`, `BETWEEN`, `IS [NOT] NULL`,
//! `CASE WHEN … THEN … [ELSE …] END`; `GROUP BY` / `HAVING`;
//! `ORDER BY … [ASC|DESC]` (by output name or 1-based position); `LIMIT`.
//!
//! Over aggregate output (`HAVING`, and the select list of a grouped or
//! aggregating query) the expression grammar is the same as in `WHERE`:
//! every operator and predicate above may combine group columns,
//! aggregate calls and literals, e.g. `HAVING COUNT(*) BETWEEN 40 AND 60`
//! or `HAVING city_id IN (1, 3)`. A column that is neither grouped nor
//! inside an aggregate is refused.
//!
//! ```
//! use dbvirt_engine::Database;
//! use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
//!
//! let mut db = Database::new();
//! let t = db.create_table(
//!     "items",
//!     Schema::new(vec![
//!         Field::new("id", DataType::Int),
//!         Field::new("price", DataType::Float),
//!     ]),
//! );
//! db.insert_rows(t, (0..100).map(|i| {
//!     Tuple::new(vec![Datum::Int(i), Datum::Float(i as f64 * 1.5)])
//! })).unwrap();
//! db.analyze_all().unwrap();
//!
//! let plan = dbvirt_sql::parse_query(
//!     "SELECT COUNT(*) AS n, SUM(price) AS total FROM items WHERE id < 10",
//!     &db,
//! ).unwrap();
//! # let _ = plan;
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod ast;
mod binder;
mod error;
mod lexer;
mod parser;

pub use binder::bind;
pub use error::SqlError;
pub(crate) use lexer::tokenize;
pub use lexer::Token;
pub use parser::parse;

use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;

/// Parses one SQL `SELECT` statement and binds it against `db`'s catalog,
/// producing an optimizable logical plan.
pub fn parse_query(sql: &str, db: &Database) -> Result<LogicalPlan, SqlError> {
    let tokens = tokenize(sql)?;
    let stmt = parse(&tokens)?;
    bind(&stmt, db)
}
