//! Dynamic reconfiguration — the paper's Section 7 next step:
//!
//! > "An important next step in the area of tuning and virtualization,
//! > beyond the static virtualization design problem, is to consider the
//! > dynamic case and reconfigure the virtual machines on the fly in
//! > response to changes in the workload."
//!
//! A [`DynamicTimeline`] is a sequence of phases, each a full
//! [`DesignProblem`] over the same set of virtual machines (the workload
//! mix changes; the VMs persist). The controller re-solves the design
//! problem at every phase boundary and switches allocations only when the
//! predicted gain clears a hysteresis threshold plus the reconfiguration
//! overhead (resizing a VM's memory flushes caches and costs wall-clock
//! time — switching is not free, so a sensible controller doesn't chase
//! noise).

use crate::search::{run_search, SearchAlgorithm, SearchConfig};
use crate::{CoreError, CostModel, DesignProblem};
use dbvirt_vmm::AllocationMatrix;

/// A sequence of workload phases over the same `N` virtual machines.
#[derive(Debug)]
pub struct DynamicTimeline<'a> {
    /// The phases, in time order. Every phase must have the same number of
    /// workloads (one per persistent VM).
    pub phases: Vec<DesignProblem<'a>>,
}

impl<'a> DynamicTimeline<'a> {
    /// Creates a timeline, validating phase alignment.
    pub fn new(phases: Vec<DesignProblem<'a>>) -> Result<DynamicTimeline<'a>, CoreError> {
        let timeline = DynamicTimeline { phases };
        timeline.validate()?;
        Ok(timeline)
    }

    /// At least one phase, and every phase over the same number of
    /// workloads. `phases` is public, so [`run_dynamic`] checks this again
    /// for a timeline that was built without [`DynamicTimeline::new`].
    fn validate(&self) -> Result<(), CoreError> {
        let Some(first) = self.phases.first() else {
            return Err(CoreError::BadProblem {
                reason: "a timeline needs at least one phase".to_string(),
            });
        };
        let n = first.num_workloads();
        if self.phases.iter().any(|p| p.num_workloads() != n) {
            return Err(CoreError::BadProblem {
                reason: "every phase must have the same number of workloads".to_string(),
            });
        }
        Ok(())
    }

    /// Number of persistent VMs (0 for a timeline with no phases).
    pub fn num_workloads(&self) -> usize {
        self.phases.first().map_or(0, DesignProblem::num_workloads)
    }
}

/// Controller policy. Every phase is solved by the exact DP.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigPolicy {
    /// Share discretization (as in the static search).
    pub config: SearchConfig,
    /// Wall-clock seconds one reconfiguration costs (VM resize + cache
    /// refill), charged whenever the controller switches.
    pub switch_overhead_seconds: f64,
    /// Minimum relative improvement (e.g. `0.05` = 5%) the new allocation
    /// must promise over keeping the current one, beyond the overhead,
    /// before the controller switches.
    pub min_relative_gain: f64,
}

impl ReconfigPolicy {
    /// A reasonable default: 5% hysteresis, 1 s overhead.
    pub fn new(config: SearchConfig) -> ReconfigPolicy {
        ReconfigPolicy {
            config,
            switch_overhead_seconds: 1.0,
            min_relative_gain: 0.05,
        }
    }
}

/// What happened at one phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// The allocation in force during the phase.
    pub allocation: AllocationMatrix,
    /// Predicted phase cost under that allocation (seconds).
    pub cost: f64,
    /// True if the controller reconfigured at this phase's start.
    pub reconfigured: bool,
}

/// The full run: per-phase outcomes plus baselines.
#[derive(Debug, Clone)]
pub struct DynamicOutcome {
    /// Per-phase decisions and costs.
    pub phases: Vec<PhaseOutcome>,
    /// Total dynamic cost, including reconfiguration overheads.
    pub total_cost: f64,
    /// Number of reconfigurations performed (phase 0's initial setup is
    /// not counted).
    pub reconfigurations: usize,
    /// Baseline: the equal split held for the whole timeline.
    pub static_equal_cost: f64,
    /// Baseline: phase 0's optimal allocation held for the whole timeline.
    pub static_first_phase_cost: f64,
}

/// Cost of running `problem` under a fixed `allocation` (weighted, like
/// the search objective).
fn phase_cost(
    problem: &DesignProblem<'_>,
    model: &dyn CostModel,
    allocation: &AllocationMatrix,
) -> Result<f64, CoreError> {
    (0..problem.num_workloads())
        .map(|w| Ok(model.cost(problem, w, allocation.row(w))? * problem.workloads[w].weight))
        .sum()
}

/// Runs the reconfiguration controller over a timeline. A timeline with
/// no phases or misaligned phases, and a non-finite overhead or gain
/// threshold (under which no comparison could ever switch), are
/// [`CoreError::BadProblem`].
pub fn run_dynamic(
    timeline: &DynamicTimeline<'_>,
    model: &dyn CostModel,
    policy: ReconfigPolicy,
) -> Result<DynamicOutcome, CoreError> {
    timeline.validate()?;
    for (name, value) in [
        ("switch_overhead_seconds", policy.switch_overhead_seconds),
        ("min_relative_gain", policy.min_relative_gain),
    ] {
        if !value.is_finite() {
            return Err(CoreError::BadProblem {
                reason: format!("{name} {value} is not finite"),
            });
        }
    }
    let n = timeline.num_workloads();
    let dp = SearchAlgorithm::DynamicProgramming;

    // Baseline allocations.
    let equal = policy.config.equal_split(n)?;

    // Phase 0: initial placement (not counted as a reconfiguration). Every
    // phase is solved on a table of its own: the DP's answer does not
    // depend on which cells a table already holds.
    let first_rec = run_search(dp, &timeline.phases[0], model, policy.config)?;
    let mut current = first_rec.allocation.clone();

    let mut phases = Vec::with_capacity(timeline.phases.len());
    let mut total = 0.0;
    let mut reconfigurations = 0usize;
    let mut static_equal = 0.0;
    let mut static_first = 0.0;

    for (i, problem) in timeline.phases.iter().enumerate() {
        static_equal += phase_cost(problem, model, &equal)?;
        static_first += phase_cost(problem, model, &first_rec.allocation)?;

        let keep_cost = phase_cost(problem, model, &current)?;
        let (allocation, cost, reconfigured) = if i == 0 {
            (current.clone(), keep_cost, false)
        } else {
            let rec = run_search(dp, problem, model, policy.config)?;
            let gain = keep_cost - rec.objective - policy.switch_overhead_seconds;
            if gain > policy.min_relative_gain * keep_cost {
                reconfigurations += 1;
                (
                    rec.allocation.clone(),
                    rec.objective + policy.switch_overhead_seconds,
                    true,
                )
            } else {
                (current.clone(), keep_cost, false)
            }
        };
        current = allocation.clone();
        total += cost;
        phases.push(PhaseOutcome {
            allocation,
            cost,
            reconfigured,
        });
    }

    Ok(DynamicOutcome {
        phases,
        total_cost: total,
        reconfigurations,
        static_equal_cost: static_equal,
        static_first_phase_cost: static_first,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests_support::{dummy_db, dummy_problem, SyntheticModel};
    use dbvirt_vmm::ResourceVector;

    /// A model whose weights can be swapped per phase is simulated by
    /// giving each phase its own SyntheticModel via a closure-dispatching
    /// wrapper keyed on the problem pointer. Simpler: phases share one
    /// model but differ in workload *weights* (SLO), which the objective
    /// already folds in.
    #[test]
    fn controller_reconfigures_when_the_mix_flips() {
        let db = dummy_db();
        // Phase A: workload 0 is hot (weight 10); phase B: workload 1 is.
        let mut phase_a = dummy_problem(&db, 2);
        phase_a.workloads[0].weight = 10.0;
        let mut phase_b = dummy_problem(&db, 2);
        phase_b.workloads[1].weight = 10.0;
        let mut phase_b2 = dummy_problem(&db, 2);
        phase_b2.workloads[1].weight = 10.0;

        let timeline = DynamicTimeline::new(vec![phase_a, phase_b, phase_b2]).unwrap();
        let model = SyntheticModel {
            weights: vec![(2.0, 2.0), (2.0, 2.0)],
        };
        let policy = ReconfigPolicy {
            switch_overhead_seconds: 0.5,
            min_relative_gain: 0.02,
            ..ReconfigPolicy::new(SearchConfig::for_workloads(8, 2))
        };
        let out = run_dynamic(&timeline, &model, policy).unwrap();

        assert_eq!(out.phases.len(), 3);
        assert!(!out.phases[0].reconfigured);
        assert!(
            out.phases[1].reconfigured,
            "the flip should trigger a switch"
        );
        assert!(
            !out.phases[2].reconfigured,
            "an unchanged mix should not re-switch"
        );
        assert_eq!(out.reconfigurations, 1);
        // Phase 0 favors workload 0; phase 1 favors workload 1.
        assert!(out.phases[0].allocation.row(0).cpu() > out.phases[0].allocation.row(1).cpu());
        assert!(out.phases[1].allocation.row(1).cpu() > out.phases[1].allocation.row(0).cpu());
        // Dynamic beats both static baselines on this flipping timeline.
        assert!(out.total_cost < out.static_first_phase_cost);
        assert!(out.total_cost < out.static_equal_cost);
    }

    #[test]
    fn hysteresis_prevents_switching_for_marginal_gains() {
        let db = dummy_db();
        let phases = vec![dummy_problem(&db, 2), dummy_problem(&db, 2)];
        let timeline = DynamicTimeline::new(phases).unwrap();
        // Symmetric workloads: the optimum never moves.
        let model = SyntheticModel {
            weights: vec![(1.0, 1.0), (1.0, 1.0)],
        };
        let policy = ReconfigPolicy::new(SearchConfig::for_workloads(8, 2));
        let out = run_dynamic(&timeline, &model, policy).unwrap();
        assert_eq!(out.reconfigurations, 0);
        // Equal-split baseline equals the dynamic cost here (the optimum
        // *is* the equal split for symmetric convex costs).
        assert!((out.total_cost - out.static_equal_cost).abs() < 1e-9);
    }

    #[test]
    fn overhead_is_charged_on_switch() {
        let db = dummy_db();
        let mut phase_a = dummy_problem(&db, 2);
        phase_a.workloads[0].weight = 10.0;
        let mut phase_b = dummy_problem(&db, 2);
        phase_b.workloads[1].weight = 10.0;
        let timeline = DynamicTimeline::new(vec![phase_a, phase_b]).unwrap();
        let model = SyntheticModel {
            weights: vec![(2.0, 2.0), (2.0, 2.0)],
        };
        let mut policy = ReconfigPolicy::new(SearchConfig::for_workloads(8, 2));
        policy.switch_overhead_seconds = 0.25;
        policy.min_relative_gain = 0.0;
        let out = run_dynamic(&timeline, &model, policy).unwrap();
        assert_eq!(out.reconfigurations, 1);
        // The switched phase's booked cost includes the overhead: it
        // exceeds the pure allocation cost by exactly 0.25 s.
        let pure = phase_cost(&timeline.phases[1], &model, &out.phases[1].allocation).unwrap();
        assert!((out.phases[1].cost - (pure + 0.25)).abs() < 1e-9);
    }

    #[test]
    fn misaligned_timelines_are_rejected() {
        let db = dummy_db();
        let phases = vec![dummy_problem(&db, 2), dummy_problem(&db, 3)];
        assert!(DynamicTimeline::new(phases).is_err());
        assert!(DynamicTimeline::new(vec![]).is_err());
    }

    /// `phases` is public, so a struct literal skips `new`'s checks:
    /// `run_dynamic` must refuse such a timeline, and a NaN threshold
    /// (which would silently never switch), with a typed error rather
    /// than an index out of bounds.
    #[test]
    fn unchecked_timelines_and_non_finite_policies_are_refused() {
        let db = dummy_db();
        let model = SyntheticModel {
            weights: vec![(1.0, 1.0); 3],
        };
        let policy = ReconfigPolicy::new(SearchConfig::for_workloads(8, 2));
        let refused = |timeline: &DynamicTimeline<'_>, policy| {
            matches!(
                run_dynamic(timeline, &model, policy),
                Err(CoreError::BadProblem { .. })
            )
        };
        let empty = DynamicTimeline { phases: vec![] };
        assert_eq!(empty.num_workloads(), 0);
        assert!(refused(&empty, policy));
        let misaligned = DynamicTimeline {
            phases: vec![dummy_problem(&db, 2), dummy_problem(&db, 3)],
        };
        assert!(refused(&misaligned, policy));

        let aligned = DynamicTimeline::new(vec![dummy_problem(&db, 2)]).unwrap();
        for (overhead, gain) in [(f64::NAN, 0.05), (1.0, f64::NAN), (f64::INFINITY, 0.05)] {
            let policy = ReconfigPolicy {
                switch_overhead_seconds: overhead,
                min_relative_gain: gain,
                ..policy
            };
            assert!(refused(&aligned, policy), "{overhead} {gain}");
        }
    }

    #[test]
    fn huge_overhead_pins_the_first_allocation() {
        let db = dummy_db();
        let mut phase_a = dummy_problem(&db, 2);
        phase_a.workloads[0].weight = 10.0;
        let mut phase_b = dummy_problem(&db, 2);
        phase_b.workloads[1].weight = 10.0;
        let timeline = DynamicTimeline::new(vec![phase_a, phase_b]).unwrap();
        let model = SyntheticModel {
            weights: vec![(2.0, 2.0), (2.0, 2.0)],
        };
        let mut policy = ReconfigPolicy::new(SearchConfig::for_workloads(8, 2));
        policy.switch_overhead_seconds = 1e9;
        let out = run_dynamic(&timeline, &model, policy).unwrap();
        assert_eq!(out.reconfigurations, 0);
        // Dynamic then equals the static-first-phase baseline.
        assert!((out.total_cost - out.static_first_phase_cost).abs() < 1e-9);
    }

    #[test]
    fn single_phase_timeline_is_pure_placement() {
        let db = dummy_db();
        let mut phase = dummy_problem(&db, 2);
        phase.workloads[0].weight = 10.0;
        let timeline = DynamicTimeline::new(vec![phase]).unwrap();
        let model = SyntheticModel {
            weights: vec![(2.0, 2.0), (2.0, 2.0)],
        };
        let out = run_dynamic(
            &timeline,
            &model,
            ReconfigPolicy::new(SearchConfig::for_workloads(8, 2)),
        )
        .unwrap();
        assert_eq!(out.phases.len(), 1);
        assert_eq!(out.reconfigurations, 0);
        assert!(!out.phases[0].reconfigured);
        // With one phase the dynamic run *is* the static-first baseline.
        assert!((out.total_cost - out.static_first_phase_cost).abs() < 1e-12);
    }

    #[test]
    fn identical_consecutive_phases_never_switch() {
        let db = dummy_db();
        // Asymmetric weights so the optimum is NOT the equal split — a
        // buggy controller that re-derives the allocation from scratch
        // each phase would still land on the same answer, but one that
        // compares against a stale baseline could oscillate. Four
        // identical phases must yield zero switches and 4x the phase cost.
        let mut phases = Vec::new();
        for _ in 0..4 {
            let mut p = dummy_problem(&db, 2);
            p.workloads[0].weight = 7.0;
            phases.push(p);
        }
        let timeline = DynamicTimeline::new(phases).unwrap();
        let model = SyntheticModel {
            weights: vec![(3.0, 1.0), (1.0, 3.0)],
        };
        let out = run_dynamic(
            &timeline,
            &model,
            ReconfigPolicy::new(SearchConfig::for_workloads(8, 2)),
        )
        .unwrap();
        assert_eq!(out.reconfigurations, 0);
        assert!(out.phases.iter().all(|p| !p.reconfigured));
        let per_phase = out.phases[0].cost;
        assert!((out.total_cost - 4.0 * per_phase).abs() < 1e-9);
        // The held allocation is the informed (non-equal) placement.
        assert_ne!(
            out.phases[0].allocation,
            AllocationMatrix::equal_split(2).unwrap()
        );
    }

    #[test]
    fn hysteresis_boundary_is_pinned_exactly() {
        // Pin the switch rule `gain > min_relative_gain * keep_cost` at
        // the boundary. With min_relative_gain = 0 the rule degenerates to
        // `keep - objective - overhead > 0`, so setting the overhead to
        // exactly `keep - objective` makes the gain exactly 0.0 — the
        // strict inequality must NOT switch — while one ULP less overhead
        // must switch.
        let db = dummy_db();
        let mut phase_a = dummy_problem(&db, 2);
        phase_a.workloads[0].weight = 10.0;
        let mut phase_b = dummy_problem(&db, 2);
        phase_b.workloads[1].weight = 10.0;
        let model = SyntheticModel {
            weights: vec![(2.0, 2.0), (2.0, 2.0)],
        };
        let config = SearchConfig::for_workloads(8, 2);

        // Reproduce the controller's own arithmetic for phase 1.
        let first = run_search(
            SearchAlgorithm::DynamicProgramming,
            &phase_a,
            &model,
            config,
        )
        .unwrap();
        let keep = phase_cost(&phase_b, &model, &first.allocation).unwrap();
        let rec = run_search(
            SearchAlgorithm::DynamicProgramming,
            &phase_b,
            &model,
            config,
        )
        .unwrap();
        let boundary_overhead = keep - rec.objective;
        assert!(boundary_overhead > 0.0, "the flip must promise a gain");

        let run = |overhead: f64, gain: f64| {
            let phases = vec![dummy_problem(&db, 2), dummy_problem(&db, 2)];
            let mut timeline_phases = phases;
            timeline_phases[0].workloads[0].weight = 10.0;
            timeline_phases[1].workloads[1].weight = 10.0;
            let timeline = DynamicTimeline::new(timeline_phases).unwrap();
            let policy = ReconfigPolicy {
                config,
                switch_overhead_seconds: overhead,
                min_relative_gain: gain,
            };
            run_dynamic(&timeline, &model, policy)
                .unwrap()
                .reconfigurations
        };

        // gain == 0.0 exactly: strict `>` must hold the allocation.
        assert_eq!(
            run(boundary_overhead, 0.0),
            0,
            "gain of exactly zero must not switch"
        );
        // One ULP below the boundary: gain becomes positive, must switch.
        assert_eq!(run(boundary_overhead.next_down(), 0.0), 1);

        // With 5% hysteresis the boundary moves by 0.05 * keep; pin it
        // from both sides with a margin far above float error.
        let hysteresis_boundary = keep - rec.objective - 0.05 * keep;
        assert_eq!(run(hysteresis_boundary + 1e-6, 0.05), 0);
        assert_eq!(run(hysteresis_boundary - 1e-6, 0.05), 1);
    }

    #[test]
    fn equal_baseline_uses_policy_disk_share() {
        let db = dummy_db();
        let problem = dummy_problem(&db, 2);
        let timeline = DynamicTimeline::new(vec![problem]).unwrap();
        let model = SyntheticModel {
            weights: vec![(1.0, 1.0), (1.0, 1.0)],
        };
        let policy = ReconfigPolicy::new(SearchConfig::for_workloads(4, 2));
        let out = run_dynamic(&timeline, &model, policy).unwrap();
        let row: ResourceVector = out.phases[0].allocation.row(0);
        assert!((row.disk().fraction() - 0.5).abs() < 1e-12);
    }
}
