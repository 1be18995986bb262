//! `dbvirt-controller` — online drift-detecting re-allocation control.
//!
//! The paper's Section 7 names the dynamic case — "reconfigure the virtual
//! machines on the fly in response to changes in the workload" — as the
//! next step beyond static virtualization design. `dbvirt-core`'s
//! [`dbvirt_core::dynamic::run_dynamic`] covers the *clairvoyant offline*
//! version, where the phase sequence is known ahead of time. This crate
//! closes the loop for live traffic:
//!
//! * [`Scenario`] — deterministic phased workload streams
//!   (stationary / drifting / bursty / adversarial), with optional
//!   observation noise from `dbvirt_vmm::fault` that perturbs only what
//!   the controller *sees*, never the simulated ground truth;
//! * [`VmStats`] — streaming per-VM statistics: an EWMA estimate of the
//!   allocation-independent base demand (recovered by inverting the linear
//!   working-set cache model) plus a two-sided [`PageHinkley`] drift
//!   detector on a whole-machine reference cost stream;
//! * [`run_controller`] — the discrete-event control loop: simulate each
//!   epoch under the allocation in force, absorb observations, and on
//!   detected drift re-solve with [`dbvirt_core::search::solve_dp`], every
//!   cell priced under the current estimate, applying the new allocation
//!   only when the predicted benefit clears hysteresis plus a modeled
//!   reconfiguration cost charged in virtual time;
//! * [`account_regret`] — solves each distinct phase once on the same DP,
//!   replays the identical stream under that clairvoyant per-phase optimum
//!   and a never-reconfigure baseline, and reports cumulative-cost regret,
//!   switch counts, and time-in-suboptimal-allocation.
//!
//! Everything is deterministic: identical `(scenario, config)` pairs
//! produce bit-identical decision traces.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod controller;
mod drift;
mod error;
mod governor;
mod health;
mod profile;
mod regret;
mod scenario;
mod stats;

pub use controller::{
    pool_refill_seconds, run_controller, ControllerConfig, ControllerOutcome, SwitchEvent,
};
pub use error::ControllerError;
pub use health::ControllerHealth;
pub use profile::{profile_from_queries, ProblemTemplate, VmTemplate, WorkloadProfile};
pub use regret::{account_regret, RegretReport};
pub use scenario::{Scenario, ScenarioPhase};

#[cfg(test)]
pub(crate) mod testkit {
    //! A minimal catalog skeleton for end-to-end tests. The controller
    //! never plans or executes these queries; it only checks the
    //! template's machine and VM count.

    use crate::{ProblemTemplate, VmTemplate};
    use dbvirt_engine::Database;
    use dbvirt_optimizer::LogicalPlan;
    use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
    use dbvirt_vmm::MachineSpec;

    pub fn tiny_db() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
            .unwrap();
        db.analyze_all().unwrap();
        db
    }

    pub fn template(db: &Database, n: usize, machine: MachineSpec) -> ProblemTemplate<'_> {
        let t = db.table_id("t").unwrap();
        ProblemTemplate {
            machine,
            vms: (0..n)
                .map(|i| VmTemplate {
                    name: format!("vm{i}"),
                    db,
                    base_query: LogicalPlan::scan(t),
                })
                .collect(),
        }
    }
}
