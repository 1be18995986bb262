//! # dbvirt-optimizer — the virtualization-aware query optimizer
//!
//! A cost-based optimizer in the PostgreSQL mold, built around the paper's
//! central idea: the optimizer's cost model is parameterized by a vector of
//! **environment parameters** `P` ([`OptimizerParams`], with PostgreSQL's
//! names: `cpu_tuple_cost`, `cpu_operator_cost`, `random_page_cost`,
//! `effective_cache_size`, …), and *only* `P` changes when the virtual
//! machine's resource allocation changes. Access paths and statistics stay
//! fixed. Re-optimizing a workload under a calibrated `P(R)` therefore
//! yields a cost estimate for running the workload under allocation `R`
//! without executing anything — the paper's **what-if mode**.
//!
//! Section 4 of the paper: to model `Cost(W_i, R_i)`, set `P` to the values
//! calibrated for allocation `R_i`, re-optimize every query of the workload
//! under that `P` (access paths and statistics unchanged, nothing
//! executed), and sum the estimated execution times. Here that is
//! [`PreparedQuery::analyse`] once per query and
//! [`PreparedQuery::est_seconds`] once per query and `P` — or, one-shot,
//! `plan_query(db, q, &p)?.est_seconds(&p)`, bit for bit the same number.
//! Pricing takes a [`CheckedParams`], a `P` checked once where it is made,
//! so no estimate re-checks it.
//!
//! Components:
//!
//! * [`OptimizerParams`] — the parameter vector `P`, with PostgreSQL 8.1
//!   defaults and a `unit_seconds` scale (seconds per sequential page
//!   fetch) so that cost units convert to estimated execution time, and
//!   [`CheckedParams`], a `P` whose every field is finite and positive;
//! * [`LogicalPlan`] — the optimizer's input algebra;
//! * [`card`] — statistics-driven selectivity and cardinality estimation;
//! * [`cost`] — per-operator cost formulas mirroring `costsize.c`,
//!   including a Mackert–Lohman-style cache adjustment for index scans
//!   against `effective_cache_size`;
//! * [`planner`] — access-path selection, Selinger-style dynamic-
//!   programming join ordering for inner-join chains, and physical
//!   operator choice, producing the same [`dbvirt_engine::PhysicalPlan`]s
//!   the executor runs — in three stages split where `P` enters: analyse
//!   (once per query, [`PreparedQuery`]), price (per `P`, numbers only),
//!   materialise (once, for callers that execute).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod card;
pub mod cost;
mod error;
mod logical;
mod params;
pub mod planner;

pub use error::OptError;
pub use logical::{JoinCondition, LogicalPlan};
pub use params::{CheckedParams, OptimizerParams};
pub use planner::{plan_query, plan_query_with_indexes, HypoIndex, PlannedQuery, PreparedQuery};
