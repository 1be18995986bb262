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
//! without executing anything — the paper's **what-if mode** ([`whatif`]).
//!
//! Components:
//!
//! * [`OptimizerParams`] — the parameter vector `P`, with PostgreSQL 8.1
//!   defaults and a `unit_seconds` scale (seconds per sequential page
//!   fetch) so that cost units convert to estimated execution time;
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
//!   materialise (once, for callers that execute);
//! * [`whatif`] — `estimate_workload_seconds(db, workload, P)`: the
//!   function the virtualization design problem's `Cost(W, R)` is built
//!   from, and [`PreparedWorkload`], its analysed-once form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod card;
pub mod cost;
mod error;
mod logical;
mod params;
pub mod planner;
pub mod whatif;

pub use error::OptError;
pub use logical::{JoinCondition, LogicalPlan};
pub use params::OptimizerParams;
pub use planner::{plan_query, plan_query_with_indexes, HypoIndex, PlannedQuery, PreparedQuery};
pub use whatif::{estimate_query_seconds, estimate_workload_seconds, PreparedWorkload};
