//! # dbvirt-calibrate — optimizer calibration (the paper's Section 5)
//!
//! To use the query optimizer as a virtualization-aware cost model, its
//! environment-parameter vector `P` must reflect the virtual machine's
//! resource allocation `R`. The paper obtains `P(R)` experimentally: run
//! carefully designed synthetic queries inside a VM configured with `R`,
//! measure their actual execution times, equate those measurements with the
//! optimizer's cost formulas (which are linear in the unknown parameters),
//! and solve the resulting system.
//!
//! This crate implements that pipeline end to end:
//!
//! * [`probedb`] — a deterministic synthetic calibration database (a narrow
//!   table, a wide table with few rows per page, and an indexed column);
//! * [`probes`] — the designed probe queries, each carrying both a fixed
//!   physical plan to *execute* and the coefficient row its predicted time
//!   contributes to the linear system (the paper's worked example —
//!   `select max(R.a) from R` pinning `cpu_tuple_cost` +
//!   `cpu_operator_cost` — is probe number one);
//! * [`solver`] — dense linear least squares via normal equations and
//!   Gaussian elimination with partial pivoting;
//! * [`runner`] — [`runner::calibrate`]: execute the probes once → replay
//!   their page references and spills under `R`'s memory configuration →
//!   price the demands at `R`'s shares → solve →
//!   [`dbvirt_optimizer::OptimizerParams`];
//! * [`grid`] — [`grid::CalibrationGrid`]: `P(R)` over a share grid (probes
//!   executed once per sweep, every cell priced from a replay of them) with
//!   bilinear interpolation for off-grid allocations and a JSON cache, the
//!   paper's "calibrate once per machine, reuse everywhere" and its
//!   "reduce the number of calibration experiments" next step;
//! * [`vmdb`] — the deployment policy mapping a VM to database memory
//!   settings (buffer pool, `work_mem`, `effective_cache_size`), shared by
//!   the measuring side and the modeling side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
pub mod grid;
pub mod json;
pub mod probedb;
pub mod probes;
pub mod report;
pub mod runner;
pub mod solver;
pub mod vmdb;

pub use error::CalError;
pub use grid::{CalibrationGrid, GridHealth};
pub use probedb::ProbeDb;
pub use report::{CalibrationReport, ProbeStat};
pub use runner::{calibrate, Calibration, CalibrationConfig};
pub use vmdb::DbVmConfig;
