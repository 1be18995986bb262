//! # dbvirt-core — the virtualization design problem
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrates below it:
//!
//! > *Given `N` database workloads that will run on `N` database systems
//! > inside virtual machines, how should we allocate the available
//! > resources to the `N` virtual machines to get the best overall
//! > performance?*
//!
//! Formally (paper, Section 3): find `argmin_R Σᵢ Cost(Wᵢ, Rᵢ)` subject to
//! `r_ij ≥ 0` and `Σᵢ r_ij = 1` for every resource `j`.
//!
//! The pieces, mirroring the paper's Figure 2 framework:
//!
//! * [`DesignProblem`] — the `N` workloads, their databases, and the
//!   physical machine;
//! * [`CostModel`] / [`CalibratedCostModel`] — `Cost(Wᵢ, Rᵢ)` via the
//!   calibrated what-if optimizer (`dbvirt-calibrate` + the what-if mode
//!   in `dbvirt-optimizer`);
//! * [`measure`] — the *measured* oracle: actually execute a workload in a
//!   simulated VM at allocation `R` (used only to validate the model,
//!   exactly like the paper's estimated-vs-actual figures);
//! * [`search`] — the combinatorial search over candidate allocations:
//!   exhaustive enumeration, greedy share reallocation, and the dynamic
//!   programming the paper suggests as "a standard technique";
//! * [`VirtualizationAdvisor`] — the end-to-end recommender: calibrate
//!   once, then search with what-if cost evaluations;
//! * [`dynamic`] — the paper's dynamic-reconfiguration next step: a
//!   controller that re-solves the design problem when the workload mix
//!   changes, with switch-overhead hysteresis;
//! * [`metrics`] — equal-split baselines and speedup summaries;
//! * [`lagrange`] — the subgradient ascent behind the fleet and design
//!   tiers' LP lower bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod cost_model;
pub mod dynamic;
mod error;
pub mod lagrange;
pub mod measure;
pub mod metrics;
mod problem;
pub mod search;

pub use advisor::VirtualizationAdvisor;
pub use cost_model::{CalibratedCostModel, CostModel};
pub use error::CoreError;
pub use problem::{DesignProblem, WorkloadSpec};
pub use search::{CostCache, Recommendation, SearchAlgorithm, SearchConfig};
