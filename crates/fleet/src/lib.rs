//! # dbvirt-fleet — datacenter-scale virtualization design
//!
//! The paper solves the virtualization design problem for *one* machine:
//! split its resources among `N` workloads to minimize the weighted cost
//! sum. At datacenter scale the problem gains a combinatorial outer
//! layer — *which* machine should each VM live on — while the inner
//! problem (share splits per machine) stays exactly the paper's. This
//! crate solves the joint problem with a three-tier ladder:
//!
//! 1. **Greedy bin-pack**: demand-sorted best-fit by
//!    marginal modeled cost, every candidate host re-solved exactly.
//! 2. **Local search**: move/swap descent; share
//!    rebalancing is implicit because every touched machine is re-solved
//!    with the exact per-machine dynamic program.
//! 3. **LP lower bound**: an in-tree Lagrangian relaxation
//!    certifies how far the answer can be from optimal (the reported
//!    *optimality gap*) — no external solver.
//!
//! All three tiers price what-if cells out of `dbvirt-core`'s dense
//! write-once cost table — one per machine class, one row per VM; the
//! [`FleetAdvisor`] pre-warms the reachable rectangle in parallel and then
//! runs the ladder over array reads of those same rows, so placements are
//! bit-identical at every parallelism setting. Re-placements over a
//! deployed fleet price their churn with the controller's
//! pool-refill model and report it as a [`RebalanceDelta`].

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod advisor;
mod config;
mod error;
mod greedy;
mod ledger;
mod local_search;
mod lp;
mod migrate;
mod placement;
mod problem;
mod sim;
mod solver;

pub use advisor::{FleetAdvisor, FleetReport};
pub use config::FleetConfig;
pub use error::FleetError;
pub use ledger::RebalanceDelta;
pub use local_search::LocalSearchStats;
pub use lp::{LpBound, LpScan};
pub use placement::Placement;
pub use problem::{CurrentPlacement, FleetProblem, FleetVm, MachineClasses};
pub use sim::{simulate_placement, FleetSimReport};
