//! Regret accounting: how far from clairvoyant did the controller land?
//!
//! The controller only *observes* drift after the fact; the oracle is told
//! the phase sequence up front. It solves each distinct phase once with the
//! controller's own DP over the true profiles and walks the phases with
//! [`dbvirt_core::dynamic::run_dynamic`]'s rule: phase 0 placed for free, a
//! later phase switches to its optimum when that beats keeping the
//! allocation in force by more than the base switch charge. Replaying the
//! exact same query stream under the oracle's per-phase allocations (and
//! under a never-reconfigure baseline) through the same fluid simulator
//! turns that information gap into a number: cumulative-cost regret,
//! switch counts, and time spent in a suboptimal allocation.

use crate::controller::{
    pool_pages, price, solve, switch_cost_seconds, ControllerConfig, ControllerOutcome,
    SWITCH_BASE_SECONDS,
};
use crate::profile::ProblemTemplate;
use crate::scenario::Scenario;
use crate::ControllerError;
use dbvirt_vmm::sched::{co_schedule, SchedMode};
use dbvirt_vmm::AllocationMatrix;

/// The regret ledger for one controller run.
#[derive(Debug, Clone)]
pub struct RegretReport {
    /// The controller's realized cost (epochs + switch charges).
    pub controller_cost: f64,
    /// The clairvoyant oracle's cost on the same stream (its per-phase
    /// optimal allocations replayed through the simulator, switch charges
    /// included).
    pub oracle_cost: f64,
    /// Cost of holding the controller's first informed placement (or the
    /// initial equal split, if the run never placed) for the whole stream.
    pub never_cost: f64,
    /// `controller_cost - oracle_cost`.
    pub regret_seconds: f64,
    /// `regret_seconds / oracle_cost`.
    pub relative_regret: f64,
    /// Reconfigurations the controller applied.
    pub controller_switches: usize,
    /// Allocation changes in the oracle's replayed trajectory.
    pub oracle_switches: usize,
    /// Epochs the controller spent under an allocation different from the
    /// oracle's for that epoch.
    pub suboptimal_epochs: usize,
    /// Simulated seconds accumulated during those epochs.
    pub suboptimal_seconds: f64,
    /// The oracle's allocation for each phase of the scenario.
    pub oracle_allocations: Vec<AllocationMatrix>,
}

/// Replays the scenario's clean query stream under a fixed per-epoch
/// allocation trajectory, charging the modeled reconfiguration cost at
/// every epoch boundary where the allocation changes. Returns the total
/// cost and the number of switches charged.
///
/// An epoch replayed under the allocation `ran` had in force for it costs
/// what `ran` recorded — the controller simulated the same clean jobs
/// under the same pools and summed the same makespans — so only the epochs
/// where the trajectories differ go through the simulator again.
fn replay(
    scenario: &Scenario,
    by_epoch: &[&AllocationMatrix],
    ran: &ControllerOutcome,
) -> Result<(f64, usize), ControllerError> {
    let machine = scenario.machine;
    let mut total = 0.0;
    let mut switches = 0usize;
    let mut prev: Option<&AllocationMatrix> = None;
    for (epoch, allocation) in by_epoch.iter().enumerate() {
        if let Some(p) = prev {
            if p != *allocation {
                total += switch_cost_seconds(machine, p, allocation, SWITCH_BASE_SECONDS)?;
                switches += 1;
            }
        }
        total += if **allocation == ran.allocations[epoch] {
            ran.epoch_costs[epoch]
        } else {
            let pools = pool_pages(machine, allocation)?;
            let jobs = scenario.epoch_jobs(epoch, &pools)?;
            co_schedule(machine, allocation, &jobs, SchedMode::Capped)?
                .iter()
                .map(|o| o.makespan().as_secs_f64())
                .sum::<f64>()
        };
        prev = Some(allocation);
    }
    Ok((total, switches))
}

/// Accounts a controller run against the clairvoyant per-phase optimum and
/// the never-reconfigure baseline, on the identical query stream.
/// `template` must describe the scenario's machine and VM count, and
/// `outcome` must be what [`crate::run_controller`] returned for this
/// `scenario`: its per-epoch allocations and costs are read as the record
/// of the stream, one of each per epoch.
pub fn account_regret(
    scenario: &Scenario,
    template: &ProblemTemplate<'_>,
    config: &ControllerConfig,
    outcome: &ControllerOutcome,
) -> Result<RegretReport, ControllerError> {
    scenario.validate()?;
    template.check(scenario)?;
    for (what, len) in [
        ("allocations", outcome.allocations.len()),
        ("epoch costs", outcome.epoch_costs.len()),
    ] {
        if len != scenario.total_epochs() {
            return Err(ControllerError::BadScenario {
                reason: format!(
                    "outcome has {what} for {len} epochs, scenario has {}",
                    scenario.total_epochs()
                ),
            });
        }
    }
    let (machine, n) = (scenario.machine, scenario.num_vms());

    // The oracle knows the true profiles. Phases of one ordinal compare
    // equal; like `run_dynamic`'s name map, the last one's profiles stand
    // for them.
    let ordinals = scenario.phase_ordinals();
    let distinct = ordinals.iter().max().map_or(0, |k| k + 1);
    let mut truth = vec![&scenario.phases[0].profiles; distinct];
    for (phase, &k) in scenario.phases.iter().zip(&ordinals) {
        truth[k] = &phase.profiles;
    }
    let optima = (truth.iter())
        .map(|profiles| {
            solve(&config.search, n, |w, shares| {
                price(machine, &profiles[w], shares)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut in_force = optima[ordinals[0]].0.clone();
    let mut oracle_allocations = Vec::with_capacity(ordinals.len());
    for (phase, &k) in ordinals.iter().enumerate() {
        let (optimum, objective) = &optima[k];
        if phase > 0 {
            let keep: f64 = (0..n)
                .map(|w| price(machine, &truth[k][w], in_force.row(w)))
                .sum::<Result<f64, _>>()?;
            // `run_dynamic`'s gate at a `min_relative_gain` of 0.
            if keep - objective - SWITCH_BASE_SECONDS > 0.0 * keep {
                in_force = optimum.clone();
            }
        }
        oracle_allocations.push(in_force.clone());
    }

    // Replay the oracle's trajectory and the never-reconfigure baseline
    // through the same simulator the controller ran under.
    let oracle_by_epoch: Vec<&AllocationMatrix> = (0..scenario.total_epochs())
        .map(|e| &oracle_allocations[scenario.phase_of_epoch(e)])
        .collect();
    let (oracle_cost, oracle_switches) = replay(scenario, &oracle_by_epoch, outcome)?;

    let held = outcome
        .placement
        .as_ref()
        .unwrap_or(&outcome.initial_allocation);
    let never_by_epoch: Vec<&AllocationMatrix> =
        (0..scenario.total_epochs()).map(|_| held).collect();
    let (never_cost, _) = replay(scenario, &never_by_epoch, outcome)?;

    let mut suboptimal_epochs = 0usize;
    let mut suboptimal_seconds = 0.0;
    for (epoch, in_force) in outcome.allocations.iter().enumerate() {
        if in_force != oracle_by_epoch[epoch] {
            suboptimal_epochs += 1;
            suboptimal_seconds += outcome.epoch_costs[epoch];
        }
    }

    let regret_seconds = outcome.total_cost - oracle_cost;
    Ok(RegretReport {
        controller_cost: outcome.total_cost,
        oracle_cost,
        never_cost,
        regret_seconds,
        relative_regret: if oracle_cost > 0.0 {
            regret_seconds / oracle_cost
        } else {
            0.0
        },
        controller_switches: outcome.switches.len(),
        oracle_switches,
        suboptimal_epochs,
        suboptimal_seconds,
        oracle_allocations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::run_controller;
    use crate::profile::{cpu_heavy, io_heavy};
    use crate::testkit::{template, tiny_db};
    use dbvirt_core::search::SearchConfig;
    use dbvirt_vmm::MachineSpec;

    fn config() -> ControllerConfig {
        ControllerConfig::new(SearchConfig::for_workloads(8, 2))
    }

    fn drifting() -> Scenario {
        Scenario::drifting(
            "drifting",
            MachineSpec::tiny(),
            vec![cpu_heavy(), io_heavy()],
            12,
            vec![io_heavy(), cpu_heavy()],
            12,
            11,
        )
    }

    #[test]
    fn controller_lands_between_oracle_and_never_on_drift() {
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let out = run_controller(&drifting(), &template, &config()).unwrap();
        let report = account_regret(&drifting(), &template, &config(), &out).unwrap();
        assert!(
            report.oracle_cost <= report.controller_cost,
            "oracle {} vs controller {}",
            report.oracle_cost,
            report.controller_cost
        );
        assert!(
            report.controller_cost < report.never_cost,
            "reconfiguring must beat holding the placement: {} vs {}",
            report.controller_cost,
            report.never_cost
        );
        assert!(report.relative_regret >= 0.0 && report.relative_regret.is_finite());
        assert_eq!(
            report.oracle_switches, 1,
            "one phase flip, one oracle switch"
        );
        assert!(report.suboptimal_epochs > 0, "detection lag is not free");
        assert!(report.suboptimal_seconds > 0.0);
        assert_eq!(report.oracle_allocations.len(), 2);
    }

    #[test]
    fn stationary_oracle_never_switches_and_regret_is_tiny() {
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let scenario = Scenario::stationary(
            "stationary",
            MachineSpec::tiny(),
            vec![cpu_heavy(), io_heavy()],
            16,
            11,
        );
        let out = run_controller(&scenario, &template, &config()).unwrap();
        let report = account_regret(&scenario, &template, &config(), &out).unwrap();
        assert_eq!(report.oracle_switches, 0);
        assert_eq!(report.controller_switches, 0);
        // The only loss is the warmup epochs under the equal split.
        assert!(
            report.relative_regret < 0.10,
            "stationary regret should be warmup-only, got {}",
            report.relative_regret
        );
    }

    #[test]
    fn mismatched_outcomes_are_rejected() {
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let out = run_controller(&drifting(), &template, &config()).unwrap();
        let shorter = Scenario::stationary(
            "short",
            MachineSpec::tiny(),
            vec![cpu_heavy(), io_heavy()],
            3,
            11,
        );
        assert!(account_regret(&shorter, &template, &config(), &out).is_err());
    }

    #[test]
    fn a_template_for_another_machine_or_vm_count_is_refused() {
        let db = tiny_db();
        let tiny = template(&db, 2, MachineSpec::tiny());
        let out = run_controller(&drifting(), &tiny, &config()).unwrap();
        let other = MachineSpec::paper_testbed();
        for template in [
            template(&db, 2, other),
            template(&db, 3, MachineSpec::tiny()),
        ] {
            let refused = account_regret(&drifting(), &template, &config(), &out);
            assert!(
                matches!(refused, Err(ControllerError::BadScenario { .. })),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn an_outcome_missing_epoch_costs_is_a_typed_error_not_a_panic() {
        // The replays index `epoch_costs` by epoch, so a truncated or
        // hand-built outcome must be refused before they run.
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let mut out = run_controller(&drifting(), &template, &config()).unwrap();
        out.epoch_costs.pop();
        let err = account_regret(&drifting(), &template, &config(), &out).unwrap_err();
        assert!(
            matches!(err, ControllerError::BadScenario { .. }),
            "{err:?}"
        );
        out.epoch_costs.clear();
        assert!(account_regret(&drifting(), &template, &config(), &out).is_err());
    }

    #[test]
    fn epoch_counts_that_overflow_usize_are_a_typed_error() {
        // Summed unchecked, `usize::MAX + 2` epochs panics a debug build
        // and wraps to a one-epoch run in a release build.
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let out = run_controller(&drifting(), &template, &config()).unwrap();
        let phase = |epochs| crate::ScenarioPhase {
            profiles: vec![cpu_heavy(), io_heavy()],
            epochs,
        };
        let huge = Scenario::new(
            "huge",
            MachineSpec::tiny(),
            vec![phase(usize::MAX), phase(2)],
            11,
        );
        let ran = run_controller(&huge, &template, &config());
        assert!(
            matches!(ran, Err(ControllerError::BadScenario { .. })),
            "{ran:?}"
        );
        let accounted = account_regret(&huge, &template, &config(), &out);
        assert!(
            matches!(accounted, Err(ControllerError::BadScenario { .. })),
            "{accounted:?}"
        );
    }

    #[test]
    fn reusing_the_controllers_epochs_does_not_move_a_bit() {
        // With every recorded allocation replaced by one no replay asks
        // for, both replays simulate every epoch themselves.
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let out = run_controller(&drifting(), &template, &config()).unwrap();
        let reused = account_regret(&drifting(), &template, &config(), &out).unwrap();
        let mut opaque = out.clone();
        let nobody = dbvirt_vmm::ResourceVector::from_fractions(0.01, 0.01, 0.01).unwrap();
        opaque.allocations =
            vec![AllocationMatrix::new(vec![nobody; 2]).unwrap(); out.allocations.len()];
        let replayed = account_regret(&drifting(), &template, &config(), &opaque).unwrap();
        assert_eq!(reused.oracle_cost.to_bits(), replayed.oracle_cost.to_bits());
        assert_eq!(reused.never_cost.to_bits(), replayed.never_cost.to_bits());
        assert_eq!(reused.oracle_switches, replayed.oracle_switches);
        assert!(
            reused.suboptimal_epochs < out.allocations.len(),
            "some epochs must be reused"
        );
    }
}
