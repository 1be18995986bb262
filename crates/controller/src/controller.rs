//! The online control loop.
//!
//! [`run_controller`] drives the `dbvirt-vmm` credit scheduler over the
//! virtual clock, one control epoch at a time:
//!
//! 1. materialize the epoch's jobs and observations from the scenario
//!    (once: a query's job demand is its clean observation's demand) and
//!    run the jobs under the current allocation ([`co_schedule`], capped
//!    mode — the paper's experimental configuration; capped VMs never
//!    interact, so the scheduler walks each VM's completion chain in
//!    closed form and an epoch costs O(phases), with no event structure);
//! 2. feed each completed query's observation into the per-VM streaming
//!    statistics, which maintain an EWMA profile estimate and a
//!    Page–Hinkley drift detector on an allocation-invariant reference
//!    stream;
//! 3. when drift is detected (and the cooldown has elapsed), re-solve the
//!    allocation from the estimated profiles with [`solve_dp`], every cell
//!    priced once by [`price`] under the profiles of this solve — no table
//!    outlives a solve, so no cell priced for an earlier estimate is read;
//! 4. apply the recommended allocation only if its predicted benefit over
//!    the decision horizon clears the modeled reconfiguration cost (memory
//!    resize = cache flush, charged in virtual time) plus a hysteresis
//!    margin. A quiet epoch decides nothing unless the governor pre-switches
//!    ahead of a predicted phase boundary.
//!
//! Every cost the loop compares — both sides of every gate, and the regret
//! oracle's too — is a sum of [`price`]s of the profiles at hand. The loop
//! is fully deterministic: identical `(scenario, config)` pairs produce
//! bit-identical decision traces, which
//! [`ControllerOutcome::trace_fingerprint`] pins.

use crate::drift::DriftConfig;
use crate::governor::SwitchGovernor;
use crate::health::ControllerHealth;
use crate::profile::{ProblemTemplate, ProfileKey, WorkloadProfile};
use crate::scenario::Scenario;
use crate::stats::VmStats;
use crate::ControllerError;
use dbvirt_core::search::{cell_shares, solve_dp, SearchConfig};
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::kernel::Fnv1a;
use dbvirt_vmm::sched::{co_schedule, SchedMode, VmJob};
use dbvirt_vmm::{
    AllocationMatrix, MachineSpec, ResourceVector, SimDuration, SimTime, VirtualMachine,
};

static TM_EPOCHS: telemetry::Counter = telemetry::Counter::new("controller.epochs");
static TM_DRIFTS: telemetry::Counter = telemetry::Counter::new("controller.drift_detections");
static TM_DECISIONS: telemetry::Counter = telemetry::Counter::new("controller.decisions");
static TM_SWITCHES: telemetry::Counter = telemetry::Counter::new("controller.switches");
static TM_DROPPED: telemetry::Counter = telemetry::Counter::new("controller.dropped_observations");
static TM_VETOES: telemetry::Counter = telemetry::Counter::new("controller.governor_vetoes");
static TM_PRESWITCHES: telemetry::Counter =
    telemetry::Counter::new("controller.prescheduled_switches");
static TM_LOCALIZED: telemetry::Counter = telemetry::Counter::new("controller.localized_solves");

/// What a caller chooses about a controller run: the share lattice its
/// re-solves search. Every policy value is a constant beside
/// [`run_controller`].
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Share discretization, per-VM floor, disk share and budgets of every
    /// re-solve, each a few hundred closed-form cells priced on the
    /// caller's thread.
    pub search: SearchConfig,
}

impl ControllerConfig {
    /// A controller searching `search`'s share lattice.
    pub fn new(search: SearchConfig) -> ControllerConfig {
        ControllerConfig { search }
    }
}

/// One applied reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent {
    /// Epoch at whose end the switch was applied.
    pub epoch: usize,
    /// Virtual instant after charging the reconfiguration.
    pub time: SimTime,
    /// Modeled reconfiguration cost charged (seconds).
    pub cost_seconds: f64,
    /// The allocation switched to.
    pub allocation: AllocationMatrix,
}

/// The controller's full run record.
#[derive(Debug, Clone)]
pub struct ControllerOutcome {
    /// Allocation in force during each epoch.
    pub allocations: Vec<AllocationMatrix>,
    /// Simulated cost of each epoch (sum of VM makespans, seconds).
    pub epoch_costs: Vec<f64>,
    /// Total cost: epoch costs plus all reconfiguration charges.
    pub total_cost: f64,
    /// Virtual clock at the end of the run.
    pub final_time: SimTime,
    /// Decisions taken (searches run), including the initial placement.
    pub decisions: usize,
    /// Applied reconfigurations (the initial placement is not counted).
    pub switches: Vec<SwitchEvent>,
    /// Drift-detector firings observed.
    pub drift_detections: usize,
    /// Observations lost to measurement faults or degeneracy.
    pub dropped_observations: usize,
    /// The uninformed equal split the run started under.
    pub initial_allocation: AllocationMatrix,
    /// The first informed placement (applied uncharged after warmup), when
    /// the run got far enough to make one.
    pub placement: Option<AllocationMatrix>,
    /// Diagnostic health report: sensor trouble absorbed, governor
    /// activity and localized re-solves. Deliberately **not**
    /// part of [`ControllerOutcome::trace_fingerprint`] — it describes the
    /// run, it is not the decision trace.
    pub health: ControllerHealth,
}

impl ControllerOutcome {
    /// FNV-1a fingerprint of the decision trace: switch epochs, times, and
    /// costs, every epoch's allocation shares (bit-exact), and the total.
    /// Two runs with identical scenario and config must produce identical
    /// fingerprints.
    pub fn trace_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.f64(self.total_cost);
        h.u64(self.final_time.as_micros());
        h.u64(self.decisions as u64);
        for s in &self.switches {
            h.u64(s.epoch as u64);
            h.u64(s.time.as_micros());
            h.f64(s.cost_seconds);
        }
        for allocation in &self.allocations {
            for row in allocation.rows() {
                for share in row.as_array() {
                    h.f64(share.fraction());
                }
            }
        }
        h.finish()
    }
}

/// Sequential refill time of the buffer pool a VM would run with at
/// `shares` on `machine`: every page of the (new) pool re-read at full-disk
/// sequential speed. This is the variable part of every reconfiguration
/// charge — resizing a VM's memory flushes its cache, and the re-warm is
/// paid at disk speed. `dbvirt-fleet` reuses this same pricing for
/// cross-machine migrations, so fleet placement churn is charged exactly
/// like the controller charges in-place resizes.
pub fn pool_refill_seconds(
    machine: MachineSpec,
    shares: ResourceVector,
) -> Result<f64, ControllerError> {
    let vm = VirtualMachine::new(machine, shares)?;
    Ok(vm.buffer_pool_pages() as f64 * machine.seq_page_seconds())
}

/// Modeled cost (in seconds of virtual time) of reconfiguring from `from`
/// to `to`: a fixed base charge plus, for every VM whose memory share
/// changes, the sequential refill time of its *new* buffer pool (see
/// [`pool_refill_seconds`]).
pub(crate) fn switch_cost_seconds(
    machine: MachineSpec,
    from: &AllocationMatrix,
    to: &AllocationMatrix,
    base_seconds: f64,
) -> Result<f64, ControllerError> {
    let mut cost = base_seconds;
    for i in 0..to.num_workloads() {
        if from.row(i).memory() != to.row(i).memory() {
            cost += pool_refill_seconds(machine, to.row(i))?;
        }
    }
    Ok(cost)
}

pub(crate) fn pool_pages(
    machine: MachineSpec,
    allocation: &AllocationMatrix,
) -> Result<Vec<usize>, ControllerError> {
    (0..allocation.num_workloads())
        .map(|i| Ok(VirtualMachine::new(machine, allocation.row(i))?.buffer_pool_pages()))
        .collect()
}

/// The mutable state a reconfiguration touches: the virtual clock, the
/// cost total, the allocation in force and the switch log.
struct Ledger {
    clock: SimTime,
    total_cost: f64,
    current: AllocationMatrix,
    switches: Vec<SwitchEvent>,
}

impl Ledger {
    /// Advances the virtual clock by `elapsed` and the cost total by `cost`.
    fn charge(&mut self, elapsed: SimDuration, cost: f64) -> Result<(), ControllerError> {
        self.clock =
            self.clock
                .checked_add(elapsed)
                .ok_or_else(|| ControllerError::BadScenario {
                    reason: "virtual clock overflowed".to_string(),
                })?;
        telemetry::advance_virtual_micros(elapsed.as_micros());
        self.total_cost += cost;
        Ok(())
    }

    /// Charges a reconfiguration, puts `candidate` in force and logs the
    /// switch.
    fn apply_switch(
        &mut self,
        epoch: usize,
        candidate: AllocationMatrix,
        switch_cost: f64,
    ) -> Result<(), ControllerError> {
        let charge = SimDuration::try_from_secs_f64(switch_cost).map_err(|_| {
            ControllerError::BadConfig {
                reason: format!("switch cost {switch_cost} seconds is not representable"),
            }
        })?;
        self.charge(charge, switch_cost)?;
        self.current = candidate.clone();
        self.switches.push(SwitchEvent {
            epoch,
            time: self.clock,
            cost_seconds: switch_cost,
            allocation: candidate,
        });
        TM_SWITCHES.add(1);
        Ok(())
    }
}

/// Predicted seconds per epoch of `profile` on a VM of `shares` — the one
/// price every cost the controller and its regret oracle compare is summed
/// from.
pub(crate) fn price(
    machine: MachineSpec,
    profile: &WorkloadProfile,
    shares: ResourceVector,
) -> Result<f64, ControllerError> {
    Ok(profile.epoch_seconds(&VirtualMachine::new(machine, shares)?))
}

/// One [`solve_dp`] over `n` VMs on `search`'s lattice and budgets, each
/// cell priced once as `cost(vm, shares)`. Returns the optimal allocation
/// and its objective: the sum, in VM order, of `cost` at the allocation's
/// rows.
pub(crate) fn solve(
    search: &SearchConfig,
    n: usize,
    cost: impl Fn(usize, ResourceVector) -> Result<f64, ControllerError>,
) -> Result<(AllocationMatrix, f64), ControllerError> {
    let shares = |c: u32, m: u32| cell_shares(search.units, search.disk_share, c, m);
    let solution = solve_dp(n, search, |w, c, m| cost(w, shares(c, m)?))?;
    let allocation = (solution.assignment.iter())
        .map(|&(c, m)| shares(c, m))
        .collect::<Result<_, _>>()?;
    Ok((AllocationMatrix::new(allocation)?, solution.objective))
}

/// The switch gate: moving from per-epoch cost `keep` to `objective` must
/// repay `switch_cost` plus the hysteresis margin over `horizon` epochs.
fn clears_gate(keep: f64, objective: f64, horizon: f64, switch_cost: f64) -> bool {
    let gain = (keep - objective) * horizon;
    gain > switch_cost + HYSTERESIS * keep * horizon
}

/// The whole-machine units a share corresponds to, if it sits exactly on
/// the search grid.
fn share_units(fraction: f64, units: u32) -> Option<u32> {
    let u = fraction * units as f64;
    if (u - u.round()).abs() < 1e-9 {
        Some(u.round() as u32)
    } else {
        None
    }
}

/// Attempts a localized re-solve: search only the drifted VMs' shares,
/// with every other VM pinned at its current allocation and the search
/// budgets reduced to what the pinned VMs leave free. Returns the
/// assembled full allocation plus the subset's keep-cost and solved
/// objective, or `None` when the sub-problem is infeasible (pinned shares
/// off the unit grid, or budgets below the per-VM minimum) and the caller
/// must fall back to a full solve.
fn localized_solve(
    machine: MachineSpec,
    search: &SearchConfig,
    current: &AllocationMatrix,
    profiles: &[WorkloadProfile],
    drifted: &[usize],
) -> Result<Option<(AllocationMatrix, f64, f64)>, ControllerError> {
    let units = search.units;
    let n = current.num_workloads();
    let mut pinned_cpu = 0u32;
    let mut pinned_mem = 0u32;
    for i in (0..n).filter(|i| !drifted.contains(i)) {
        let (Some(cpu), Some(mem)) = (
            share_units(current.row(i).cpu().fraction(), units),
            share_units(current.row(i).memory().fraction(), units),
        ) else {
            return Ok(None);
        };
        pinned_cpu += cpu;
        pinned_mem += mem;
    }
    let (Some(cpu_budget), Some(mem_budget)) =
        (units.checked_sub(pinned_cpu), units.checked_sub(pinned_mem))
    else {
        return Ok(None);
    };
    let k = drifted.len() as u32;
    if cpu_budget < search.min_units * k || mem_budget < search.min_units * k {
        return Ok(None);
    }

    let (solved, objective) = solve(
        &search.with_budgets(cpu_budget, mem_budget),
        drifted.len(),
        |j, shares| price(machine, &profiles[drifted[j]], shares),
    )?;

    let keep: f64 = drifted
        .iter()
        .map(|&i| price(machine, &profiles[i], current.row(i)))
        .sum::<Result<f64, _>>()?;
    let mut rows: Vec<ResourceVector> = (0..n).map(|i| current.row(i)).collect();
    for (j, &i) in drifted.iter().enumerate() {
        rows[i] = solved.row(j);
    }
    Ok(Some((AllocationMatrix::new(rows)?, keep, objective)))
}

/// Page–Hinkley parameters of every VM's drift detector, on log reference
/// seconds: ~5 % per-query wobble tolerated, fires on a 0.6 cumulative
/// excursion, never within a VM's first 8 observations.
pub(crate) const DRIFT: DriftConfig = DriftConfig {
    delta: 0.05,
    lambda: 0.6,
    warmup: 8,
};
/// EWMA factor for the streaming statistics (weight of the newest
/// observation).
const EWMA_ALPHA: f64 = 0.25;
/// Relative width of the profile-quantization buckets whose keys name the
/// governor's regimes (see [`WorkloadProfile::quantize`]). Keys decide
/// which regime an epoch belongs to, never what a cell costs.
const QUANTIZATION_REL: f64 = 0.2;
/// Hysteresis: the predicted gain must additionally exceed this fraction
/// of the keep-cost over the horizon before switching.
const HYSTERESIS: f64 = 0.05;
/// Fixed part of the reconfiguration cost (seconds of virtual time); the
/// variable part is the refill time of every resized buffer pool. The
/// regret oracle charges its switches the same way.
pub(crate) const SWITCH_BASE_SECONDS: f64 = 0.25;
/// How many epochs a new allocation is assumed to stay in force when
/// amortizing the switch cost.
const HORIZON_EPOCHS: usize = 8;
/// Epochs of pure observation before the first (unconditional, uncharged)
/// informed placement.
const WARMUP_EPOCHS: usize = 2;
/// Minimum epochs between consecutive decisions.
const COOLDOWN_EPOCHS: usize = 2;

/// Runs the control loop over a scenario. `template` must describe the
/// scenario's machine and VM count.
pub fn run_controller(
    scenario: &Scenario,
    template: &ProblemTemplate<'_>,
    config: &ControllerConfig,
) -> Result<ControllerOutcome, ControllerError> {
    scenario.validate()?;
    template.check(scenario)?;
    let n = scenario.num_vms();
    let machine = scenario.machine;
    let mut run_span = telemetry::span("controller.run");
    run_span.set_attr("scenario", scenario.name.clone());
    run_span.set_attr("epochs", scenario.total_epochs());

    let initial = config.search.equal_split(n)?;
    let mut ledger = Ledger {
        clock: SimTime::ZERO,
        total_cost: 0.0,
        current: initial.clone(),
        switches: Vec::new(),
    };

    let mut stats: Vec<VmStats> = (0..n)
        .map(|_| VmStats::new(EWMA_ALPHA, machine, DRIFT))
        .collect();
    let mut allocations = Vec::with_capacity(scenario.total_epochs());
    let mut epoch_costs = Vec::with_capacity(scenario.total_epochs());
    let mut decisions = 0usize;
    let mut drift_detections = 0usize;
    let mut dropped = 0usize;
    let mut placement: Option<AllocationMatrix> = None;
    let mut last_decision_epoch: Option<usize> = None;
    let mut governor = SwitchGovernor::new();
    let mut governor_vetoes = 0usize;
    let mut prescheduled = 0usize;
    let mut localized_solves = 0usize;

    // Buffer pools of the allocation in force; they move only with it.
    let mut pools = Vec::new();
    for epoch in 0..scenario.total_epochs() {
        let mut epoch_span = telemetry::span("controller.epoch");
        epoch_span.set_attr("epoch", epoch);
        TM_EPOCHS.add(1);

        // Run the epoch's ground truth under the allocation in force.
        if allocations.last() != Some(&ledger.current) {
            pools = pool_pages(machine, &ledger.current)?;
        }
        let (jobs, observations): (Vec<VmJob>, Vec<_>) = scenario
            .epoch_batch(epoch, &pools)?
            .into_iter()
            .map(|vm_epoch| (vm_epoch.job, vm_epoch.observations))
            .unzip();
        let outcomes = co_schedule(machine, &ledger.current, &jobs, SchedMode::Capped)?;
        let epoch_cost: f64 = outcomes.iter().map(|o| o.makespan().as_secs_f64()).sum();
        let advance = outcomes
            .iter()
            .map(|o| o.makespan())
            .max()
            .unwrap_or(SimDuration::ZERO);
        ledger.charge(advance, epoch_cost)?;
        allocations.push(ledger.current.clone());
        epoch_costs.push(epoch_cost);

        // Absorb the epoch's observations, tracking which VMs drifted.
        let mut fired_vms = vec![false; n];
        for (vm, vm_observations) in observations.iter().enumerate() {
            for obs in vm_observations {
                match obs {
                    Some(o) => match stats[vm].observe(o, pools[vm]) {
                        Ok(fired) => {
                            if fired {
                                fired_vms[vm] = true;
                            }
                        }
                        Err(()) => dropped += 1,
                    },
                    None => dropped += 1,
                }
            }
        }
        let snapshots: Vec<Option<WorkloadProfile>> =
            stats.iter_mut().map(|s| s.end_epoch()).collect();
        let drifted = fired_vms.iter().any(|&f| f);
        if drifted {
            drift_detections += 1;
            TM_DRIFTS.add(1);
        }

        // Feed the governor this epoch's regime snapshot. `None` when any
        // VM closed the epoch without a usable observation — sensor
        // silence is not evidence of a regime change.
        let snapshot_keys: Vec<Option<ProfileKey>> = snapshots
            .iter()
            .map(|s| s.map(|p| p.quantize(QUANTIZATION_REL)))
            .collect();
        let regime_snapshot: Option<(Vec<ProfileKey>, Vec<WorkloadProfile>)> = snapshot_keys
            .iter()
            .zip(&snapshots)
            .map(|(key, p)| Some(((*key)?, (*p)?)))
            .collect::<Option<Vec<_>>>()
            .map(|pairs| pairs.into_iter().unzip());
        let verdict = governor.observe_epoch(epoch, regime_snapshot);

        let warmed = epoch + 1 >= WARMUP_EPOCHS;
        let cooled = last_decision_epoch.is_none_or(|d| epoch - d >= COOLDOWN_EPOCHS);

        // A confirmed pre-switch prediction explains this epoch's drift:
        // the controller already holds the successor regime's allocation,
        // so the governor refuses the redundant re-solve and the detectors
        // restart for the new regime.
        let veto_hit = drifted && verdict.prediction_hit;
        if veto_hit {
            governor_vetoes += 1;
            TM_VETOES.add(1);
            for s in &mut stats {
                s.reset_detector();
            }
        }

        // Decide: first informed placement once warmup completes, then
        // drift-triggered (and cooled-down) re-decisions; a refuted
        // pre-switch prediction forces a corrective decision even without
        // drift (the controller holds a speculative allocation with no
        // justification).
        let should_decide = warmed
            && (placement.is_none()
                || verdict.prediction_missed
                || (drifted && cooled && !veto_hit));
        let profiles = should_decide
            .then(|| {
                stats
                    .iter()
                    .map(|s| s.profile())
                    .collect::<Option<Vec<_>>>()
            })
            .flatten();
        if let Some(profiles) = &profiles {
            let mut decide_span = telemetry::span("controller.decide");
            decide_span.set_attr("epoch", epoch);
            decisions += 1;
            TM_DECISIONS.add(1);
            let horizon = governor.governed_horizon(epoch, HORIZON_EPOCHS);

            // When drift fired on a strict subset of (at least two) VMs,
            // re-solve only that subset with everyone else pinned.
            let drifted_set: Vec<usize> = (0..n).filter(|&vm| fired_vms[vm]).collect();
            let localized =
                if placement.is_some() && drifted_set.len() >= 2 && drifted_set.len() < n {
                    let current = &ledger.current;
                    localized_solve(machine, &config.search, current, profiles, &drifted_set)?
                } else {
                    None
                };
            let (candidate, keep_cost, objective) = match localized {
                Some(result) => {
                    localized_solves += 1;
                    TM_LOCALIZED.add(1);
                    decide_span.set_attr("localized", true);
                    result
                }
                None => {
                    let (allocation, objective) = solve(&config.search, n, |w, shares| {
                        price(machine, &profiles[w], shares)
                    })?;
                    let keep: f64 = (0..n)
                        .map(|w| price(machine, &profiles[w], ledger.current.row(w)))
                        .sum::<Result<f64, _>>()?;
                    (allocation, keep, objective)
                }
            };
            if placement.is_none() {
                // Initial informed placement: unconditional and uncharged
                // (the run starts with VM creation either way, mirroring
                // the regret oracle's free placement of phase 0).
                placement = Some(candidate.clone());
                ledger.current = candidate;
            } else if candidate != ledger.current {
                let switch_cost =
                    switch_cost_seconds(machine, &ledger.current, &candidate, SWITCH_BASE_SECONDS)?;
                if clears_gate(keep_cost, objective, horizon, switch_cost) {
                    ledger.apply_switch(epoch, candidate, switch_cost)?;
                } else if horizon < HORIZON_EPOCHS as f64 {
                    // The governor's shortened amortization window is what
                    // refused this switch.
                    governor_vetoes += 1;
                    TM_VETOES.add(1);
                }
            }
            last_decision_epoch = Some(epoch);
            // One detection, one decision: start fresh either way so the
            // same change is not acted on twice.
            for s in &mut stats {
                s.reset_detector();
            }
        }

        // Predictive pre-switch: when the governor has learned that the
        // current regime flips next epoch and trusts the successor, solve
        // for the whole alternation at once — each cell priced as the sum
        // of the outgoing and incoming regime-pure snapshots — and apply
        // the cycle optimum now, so the next phase starts already
        // provisioned instead of paying detection lag, and the allocation
        // keeps serving when the phase flips back. Over one alternation
        // cycle a fixed allocation serves both phases; for genuinely
        // conflicting phases the cycle optimum is a compromise no
        // single-phase solve would pick.
        if placement.is_some() {
            if let Some(p) =
                governor.predicted_switch(epoch, scenario.total_epochs(), HORIZON_EPOCHS)
            {
                let pair = |w: usize, shares: ResourceVector| {
                    Ok::<_, ControllerError>(
                        price(machine, &p.outgoing_profiles[w], shares)?
                            + price(machine, &p.incoming_profiles[w], shares)?,
                    )
                };
                let (allocation, pair_objective) = solve(&config.search, n, pair)?;
                if allocation == ledger.current {
                    // Already provisioned; just arm the prediction so the
                    // anticipated drift does not trigger a re-solve.
                    governor.note_preswitch(p.key);
                } else {
                    // Pair costs cover one epoch of *each* regime; halve
                    // them so the gate compares per-epoch quantities over
                    // the cycle horizon. Both sides are sums of `pair`
                    // under the live snapshots.
                    let keep: f64 = (0..n)
                        .map(|w| pair(w, ledger.current.row(w)))
                        .sum::<Result<f64, _>>()?
                        / 2.0;
                    let objective = pair_objective / 2.0;
                    let switch_cost = switch_cost_seconds(
                        machine,
                        &ledger.current,
                        &allocation,
                        SWITCH_BASE_SECONDS,
                    )?;
                    if clears_gate(keep, objective, p.horizon_epochs, switch_cost) {
                        ledger.apply_switch(epoch, allocation, switch_cost)?;
                        prescheduled += 1;
                        TM_PRESWITCHES.add(1);
                        governor.note_preswitch(p.key);
                        last_decision_epoch = Some(epoch);
                    }
                }
            }
        }
    }

    TM_DROPPED.add(dropped as u64);
    run_span.set_attr("switches", ledger.switches.len());
    run_span.set_attr("total_cost_seconds", ledger.total_cost);

    let health = ControllerHealth {
        epochs: scenario.total_epochs(),
        observations: stats.iter().map(|s| s.observations()).sum(),
        dropped_observations: dropped,
        dropout_vm_epochs: stats.iter().map(|s| s.stale_epochs()).sum(),
        max_staleness: stats.iter().map(|s| s.max_staleness()).max().unwrap_or(0),
        drift_detections,
        decisions,
        switches: ledger.switches.len(),
        governor_vetoes,
        prescheduled_switches: prescheduled,
        prediction_hits: governor.prediction_hits(),
        prediction_misses: governor.prediction_misses(),
        localized_solves,
    };

    Ok(ControllerOutcome {
        allocations,
        epoch_costs,
        total_cost: ledger.total_cost,
        final_time: ledger.clock,
        decisions,
        switches: ledger.switches,
        drift_detections,
        dropped_observations: dropped,
        initial_allocation: initial,
        placement,
        health,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{cpu_heavy, io_heavy};
    use crate::testkit::{template, tiny_db};

    fn config() -> ControllerConfig {
        ControllerConfig::new(SearchConfig::for_workloads(8, 2))
    }

    fn stationary() -> Scenario {
        Scenario::stationary(
            "stationary",
            MachineSpec::tiny(),
            vec![cpu_heavy(), io_heavy()],
            16,
            11,
        )
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
    fn stationary_scenario_places_once_and_never_switches() {
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let out = run_controller(&stationary(), &template, &config()).unwrap();
        assert_eq!(out.allocations.len(), 16);
        assert!(out.placement.is_some(), "warmup must end in a placement");
        assert!(out.switches.is_empty(), "no drift, no reconfiguration");
        assert_eq!(out.decisions, 1, "exactly the placement decision");
        // The informed placement skews resources toward the I/O-heavy VM.
        let placed = out.placement.unwrap();
        assert!(placed.row(1).memory().fraction() > placed.row(0).memory().fraction());
    }

    #[test]
    fn drifting_scenario_triggers_a_reallocation_after_the_flip() {
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let out = run_controller(&drifting(), &template, &config()).unwrap();
        assert!(
            !out.switches.is_empty(),
            "the phase flip must trigger a switch (drift detections: {})",
            out.drift_detections
        );
        assert!(out.drift_detections >= 1);
        // Every switch happens after the flip at epoch 12, and the last
        // one mirrors the placement (resources follow the I/O load).
        for s in &out.switches {
            assert!(s.epoch >= 12, "spurious switch at epoch {}", s.epoch);
            assert!(s.cost_seconds > 0.0);
        }
        let last = &out.switches.last().unwrap().allocation;
        assert!(last.row(0).memory().fraction() > last.row(1).memory().fraction());
    }

    #[test]
    fn decision_trace_is_bit_identical_across_reruns() {
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let base = run_controller(&drifting(), &template, &config()).unwrap();
        let out = run_controller(&drifting(), &template, &config()).unwrap();
        assert_eq!(out.trace_fingerprint(), base.trace_fingerprint());
        assert_eq!(out.total_cost.to_bits(), base.total_cost.to_bits());
        assert_eq!(out.final_time, base.final_time);
    }

    #[test]
    fn every_solve_prices_its_own_profiles() {
        // Two estimates in one quantization bucket — one governor regime —
        // solved back to back: each objective is the sum of `price` under
        // its own profiles at the allocation it returns, so a gate compares
        // it with a keep cost priced the same way.
        let machine = MachineSpec::tiny();
        let search = config().search;
        let first = vec![cpu_heavy(), io_heavy()];
        let second: Vec<WorkloadProfile> = first.iter().map(|p| p.scaled(1.02)).collect();
        let key = |profiles: &[WorkloadProfile]| {
            (profiles.iter())
                .map(|p| p.quantize(QUANTIZATION_REL))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&first), key(&second), "one regime");
        assert_ne!(first, second);
        for profiles in [&first, &second] {
            let (allocation, objective) =
                solve(&search, 2, |w, shares| price(machine, &profiles[w], shares)).unwrap();
            let priced: f64 = (0..2)
                .map(|w| price(machine, &profiles[w], allocation.row(w)).unwrap())
                .sum();
            assert_eq!(objective.to_bits(), priced.to_bits());
        }
    }

    #[test]
    fn switch_cost_charges_only_resized_pools() {
        let machine = MachineSpec::tiny();
        let a = AllocationMatrix::equal_split(2).unwrap();
        // Same memory, different CPU: only the base charge applies.
        let cpu_only = AllocationMatrix::new(vec![
            ResourceVector::from_fractions(0.75, 0.5, 0.5).unwrap(),
            ResourceVector::from_fractions(0.25, 0.5, 0.5).unwrap(),
        ])
        .unwrap();
        let base = 0.25;
        let cost = switch_cost_seconds(machine, &a, &cpu_only, base).unwrap();
        assert_eq!(cost, base);
        // A memory move pays the refill of every resized pool.
        let mem_move = AllocationMatrix::new(vec![
            ResourceVector::from_fractions(0.5, 0.75, 0.5).unwrap(),
            ResourceVector::from_fractions(0.5, 0.25, 0.5).unwrap(),
        ])
        .unwrap();
        let cost = switch_cost_seconds(machine, &a, &mem_move, base).unwrap();
        let refill: f64 = (0..2)
            .map(|i| {
                VirtualMachine::new(machine, mem_move.row(i))
                    .unwrap()
                    .buffer_pool_pages() as f64
                    * machine.seq_page_seconds()
            })
            .sum();
        assert!((cost - (base + refill)).abs() < 1e-12);
    }

    #[test]
    fn empty_and_zero_epoch_scenarios_are_typed_errors() {
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let machine = MachineSpec::tiny();
        // No phases at all.
        let empty = Scenario::new("empty", machine, vec![], 1);
        assert!(matches!(
            run_controller(&empty, &template, &config()),
            Err(ControllerError::BadScenario { .. })
        ));
        // A phase that contributes zero epochs.
        let zero = Scenario::new(
            "zero-epochs",
            machine,
            vec![crate::ScenarioPhase {
                profiles: vec![cpu_heavy(), io_heavy()],
                epochs: 0,
            }],
            1,
        );
        assert!(matches!(
            run_controller(&zero, &template, &config()),
            Err(ControllerError::BadScenario { .. })
        ));
        // A phase with no VMs.
        let no_vms = Scenario::new(
            "no-vms",
            machine,
            vec![crate::ScenarioPhase {
                profiles: vec![],
                epochs: 4,
            }],
            1,
        );
        assert!(matches!(
            run_controller(&no_vms, &template, &config()),
            Err(ControllerError::BadScenario { .. })
        ));
    }

    #[test]
    fn total_sensor_blackout_degrades_to_health_flags_not_errors() {
        use dbvirt_vmm::fault::{FaultInjector, NoiseModel};
        // Every observation is dropped. The loop must run to completion,
        // never form an informed placement (no estimate ever exists), and
        // report the blackout through its health counters — missing data
        // is a reporting problem, not a control error.
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let scenario = drifting().with_noise(FaultInjector::new(
            NoiseModel::sensor_degraded(1.0, 0.0, 0, 0.0),
            3,
        ));
        let out = run_controller(&scenario, &template, &config()).unwrap();
        assert_eq!(out.allocations.len(), scenario.total_epochs());
        assert!(
            out.placement.is_none(),
            "no observations must mean no informed placement"
        );
        assert!(out.switches.is_empty());
        assert_eq!(
            out.drift_detections, 0,
            "the detector must never self-trigger on missing data"
        );
        assert!(out.health.dropped_observations > 0);
        assert!(out.health.dropout_vm_epochs > 0);
        assert!(!out.health.is_clean());
        assert!(out.total_cost.is_finite());
    }

    #[test]
    fn a_template_for_another_machine_or_vm_count_is_refused() {
        let db = tiny_db();
        let other = MachineSpec::paper_testbed();
        for template in [
            template(&db, 2, other),
            template(&db, 1, MachineSpec::tiny()),
        ] {
            let refused = run_controller(&stationary(), &template, &config());
            assert!(
                matches!(refused, Err(ControllerError::BadScenario { .. })),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn a_noisy_neighbor_swap_is_resolved_locally() {
        // Four VMs: tenants 0/1 swap loud/quiet roles while the two
        // victims hold still — drift fires on a strict subset, and the
        // controller re-solves only that subset with the victims pinned.
        let db = tiny_db();
        let template = template(&db, 4, MachineSpec::tiny());
        let scenario = Scenario::noisy_neighbor(
            "noisy-neighbor",
            MachineSpec::tiny(),
            io_heavy(),
            cpu_heavy(),
            vec![cpu_heavy(), cpu_heavy()],
            10,
            2,
            11,
        );
        let cfg = ControllerConfig::new(SearchConfig::for_workloads(8, 4));
        let out = run_controller(&scenario, &template, &cfg).unwrap();
        assert!(
            out.health.localized_solves >= 1,
            "a two-tenant swap must take the localized path, health: {}",
            out.health
        );
        // Localized decisions never move the victims: across every switch
        // the non-drifted VMs' shares are preserved.
        for s in &out.switches {
            let before = &out.allocations[s.epoch];
            for vm in 2..4 {
                assert_eq!(
                    s.allocation.row(vm),
                    before.row(vm),
                    "victim vm{vm} moved at epoch {}",
                    s.epoch
                );
            }
        }
        assert!(!out.switches.is_empty(), "the swap must be acted on");
    }

    #[test]
    fn fast_alternation_engages_the_governor() {
        // Two VMs swap a CPU-hot and a CPU-cold mix every 2 epochs — far
        // below the 8-epoch amortization horizon. The governor must learn
        // the recurrence, veto reactive churn, and provision ahead of the
        // predicted flips; because the pre-switch prices candidates under
        // *both* sides of the boundary, the single allocation it lands
        // serves the whole alternation and switching stops entirely.
        // (CPU-bound mixes keep the estimated profiles allocation-
        // invariant, so the regime keys recur cleanly.)
        fn cpu_profile(cycles: f64) -> WorkloadProfile {
            WorkloadProfile {
                cpu_cycles: cycles,
                cold_seq_reads: 5.0,
                cold_random_reads: 0.0,
                page_writes: 0.0,
                reread_seq: 10.0,
                reread_random: 0.0,
                working_set_pages: 50.0,
                queries_per_epoch: 4.0,
            }
        }
        let db = tiny_db();
        let template = template(&db, 2, MachineSpec::tiny());
        let hot = cpu_profile(4.0e8);
        let cold = cpu_profile(5.0e7);
        let scenario = Scenario::adversarial(
            "adversarial",
            MachineSpec::tiny(),
            vec![hot, cold],
            vec![cold, hot],
            2,
            6,
            11,
        );
        let out = run_controller(&scenario, &template, &config()).unwrap();
        let h = &out.health;
        assert_eq!(h.prediction_misses, 0, "a clean alternation never refutes");
        assert!(
            h.prescheduled_switches >= 1,
            "at least one flip must be provisioned ahead, health: {h}"
        );
        assert!(
            h.prediction_hits >= 2,
            "recurrences must be anticipated, health: {h}"
        );
        assert!(
            h.governor_vetoes >= 1,
            "reactive churn must be vetoed, health: {h}"
        );
        assert!(
            out.switches.len() <= 2,
            "the governor must prevent thrashing, got switches at {:?}",
            out.switches.iter().map(|s| s.epoch).collect::<Vec<_>>()
        );
    }
}
