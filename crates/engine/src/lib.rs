//! # dbvirt-engine — the relational engine substrate
//!
//! A small but real SQL-style execution engine in the PostgreSQL mold,
//! standing in for the PostgreSQL 8.1 instance the paper runs inside each
//! virtual machine. It executes physical plans over data stored in
//! `dbvirt-storage`, charging every unit of physical work (CPU cycles and
//! buffer-pool I/O) to a [`dbvirt_vmm::ResourceDemand`], which the VMM
//! simulator converts into "actual" execution time under a given resource
//! allocation.
//!
//! Components:
//!
//! * [`Database`] / [`catalog`] — tables, B+tree indexes, statistics;
//! * [`Expr`] — scalar expressions (comparisons, boolean logic, arithmetic,
//!   `LIKE`, `IN`, `CASE`) with three-valued SQL semantics;
//! * [`PhysicalPlan`] — the physical algebra (sequential and index scans,
//!   filter, project, sort, limit, hash/merge/nested-loop joins with
//!   inner/left/semi/anti variants, hash and sorted aggregation);
//! * [`exec`] — the executor: operators that do the physical work and meter
//!   it, pushing rows to their consumers as borrowed record bytes — off the
//!   page, or out of the arena a join or sort keeps them in — and decoding
//!   only the query's result;
//! * [`ExecContext`] / [`run_plan`] — the runtime tying a database, a
//!   buffer pool (sized from the VM's memory share), a `work_mem` budget,
//!   and the CPU cost constants together;
//! * [`Profile`] — one execution's page references, CPU cycles and
//!   [`SpillEvent`]s, from which its demand under *any* buffer-pool size and
//!   `work_mem` is arithmetic.
//!
//! The CPU constants in [`CpuCosts`] are the engine's ground truth; the
//! paper's calibration process exists precisely to recover their effect on
//! runtime (scaled by the VM's CPU share) without being told them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod cpu;
mod exec;
mod expr;
mod plan;
mod profile;
mod runtime;

pub use catalog::{Database, IndexId, IndexMeta, TableId, TableMeta};
pub use cpu::CpuCosts;
pub use expr::{AggExpr, AggFunc, BinOp, CmpOp, Expr};
pub use plan::{IndexArm, JoinType, PhysicalPlan, SortKey};
pub use profile::{Profile, CARRIER_PAGES};
pub use runtime::{run_plan, EngineError, QueryOutput};
