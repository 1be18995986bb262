//! The rescan fluid loop: a whole-machine rescan per event.
//!
//! Every event recomputes every VM's rate and projected completion — O(V)
//! work per event, O(V · P) overall — with no event structure and no
//! cached class state. It serves twice:
//!
//! * as the **work-conserving path** of [`super::co_schedule`]. A machine
//!   hosts at most `units / min_units` VMs (a handful; see the module docs
//!   of [`super`]), and at that size rescanning everybody is cheaper than
//!   keeping a queue of their completions ordered;
//! * as the **oracle** behind [`super::co_schedule_reference`] in both
//!   modes, which the capped walk ([`super::walk`]) is pinned bit-identical
//!   to.
//!
//! The loop itself is silent — no span, no counter — so oracle runs leave
//! no trace; [`super::co_schedule_with_stats`] publishes the [`SchedStats`]
//! it returns.

use crate::{MachineSpec, ResourceVector, SimTime, VmmError};

use super::fluid::{
    checked_event_us, checked_rate, class_total, rate_of, report_instant, total_phases,
    ActivePhase, PhaseKind, PhaseSpec, ResClass, VmState, NUM_CLASSES,
};
use super::{SchedMode, SchedStats, VmJob, VmOutcome};

/// Runs the rescan loop. Inputs are pre-validated by the public wrappers.
///
/// [`SchedStats`] contract of the loop: one event per distinct completion
/// instant (simultaneous completions form one batch, so `events <=
/// phase_completions`); `vms_touched` counts, per event, the VMs whose
/// phase completed plus the VMs whose in-flight phase was re-anchored
/// because its rate changed bitwise — the VMs the event *affected*, not the
/// `V` it scanned.
pub(super) fn run(
    spec: &MachineSpec,
    mode: SchedMode,
    shares: &[ResourceVector],
    jobs: &[VmJob],
) -> Result<(Vec<VmOutcome>, SchedStats), VmmError> {
    let n = jobs.len();
    let mut states: Vec<VmState> = jobs.iter().map(|j| VmState::new(&j.queries)).collect();
    // Phases awaiting a rate assignment (initially each VM's first phase).
    let mut to_activate: Vec<Option<PhaseSpec>> = states
        .iter_mut()
        .map(|s| if s.done { None } else { s.next_spec() })
        .collect();
    let mut kinds: Vec<Option<PhaseKind>> = vec![None; n];
    let mut stats = SchedStats::default();
    let mut now_us: f64 = 0.0;
    sync_rates(
        spec,
        mode,
        shares,
        &mut states,
        &mut to_activate,
        &mut kinds,
        now_us,
    )?;

    // Hard bound on events: every phase of every query completes exactly
    // once (zero-length cascade steps complete a phase too).
    let budget = total_phases(jobs);
    for _ in 0..budget {
        if states.iter().all(|s| s.done) {
            break;
        }

        // The earliest projected phase completion across the fleet.
        let mut t_next = f64::INFINITY;
        for s in &states {
            if let Some(p) = &s.active {
                let c = p.completion_us();
                if c < t_next {
                    t_next = c;
                }
            }
        }
        if !t_next.is_finite() {
            return Err(VmmError::InvalidSchedule {
                reason: "no VM can make progress".to_string(),
            });
        }
        debug_assert!(t_next >= now_us, "events must be causally ordered");
        now_us = t_next;
        let now = report_instant(now_us);

        // Complete every phase projected at exactly this instant, in
        // ascending VM order (simultaneous completions form one batch).
        for i in 0..n {
            let completes = states[i]
                .active
                .as_ref()
                .is_some_and(|p| p.completion_us() == t_next);
            if completes {
                to_activate[i] = states[i].complete_active(now);
                stats.phase_completions += 1;
                stats.vms_touched += 1;
            }
        }

        stats.events += 1;
        stats.vms_touched += sync_rates(
            spec,
            mode,
            shares,
            &mut states,
            &mut to_activate,
            &mut kinds,
            now_us,
        )?;
    }

    if !states.iter().all(|s| s.done) {
        return Err(VmmError::InvalidSchedule {
            reason: "simulation failed to converge (event budget exhausted)".to_string(),
        });
    }

    let outcomes = states
        .into_iter()
        .map(|s| VmOutcome {
            completion: s.completions.last().copied().unwrap_or(SimTime::ZERO),
            query_completions: s.completions,
        })
        .collect();
    Ok((outcomes, stats))
}

/// Recomputes every VM's rate from the current class memberships,
/// activating pending phases and re-anchoring any in-flight phase whose
/// rate actually changed (bitwise); returns how many were re-anchored.
/// `kinds` is the run's scratch buffer, one slot per VM.
fn sync_rates(
    spec: &MachineSpec,
    mode: SchedMode,
    shares: &[ResourceVector],
    states: &mut [VmState],
    to_activate: &mut [Option<PhaseSpec>],
    kinds: &mut [Option<PhaseKind>],
    now_us: f64,
) -> Result<u64, VmmError> {
    let n = states.len();
    // The phase kind each VM currently demands: its in-flight phase, or
    // the phase awaiting activation.
    for i in 0..n {
        kinds[i] = states[i]
            .active
            .as_ref()
            .map(|p| p.kind)
            .or_else(|| to_activate[i].map(|s| s.kind));
    }

    // Per-class demand totals, summed in ascending VM index order.
    let mut totals = [0.0f64; NUM_CLASSES];
    for class in [ResClass::Cpu, ResClass::Disk] {
        let members = (0..n).filter(|&i| kinds[i].map(|k| k.class()) == Some(class));
        totals[class.index()] = class_total(members, shares, class);
    }

    let mut reanchored = 0;
    for i in 0..n {
        let Some(kind) = kinds[i] else {
            continue;
        };
        let total = totals[kind.class().index()];
        let rate = checked_rate(rate_of(spec, mode, kind, &shares[i], total))?;
        if let Some(phase_spec) = to_activate[i].take() {
            let phase = ActivePhase::activate(phase_spec, now_us, rate);
            checked_event_us(phase.completion_us())?;
            states[i].active = Some(phase);
        } else if let Some(phase) = states[i].active.as_mut() {
            if rate != phase.rate {
                phase.reanchor(now_us, rate);
                checked_event_us(phase.completion_us())?;
                reanchored += 1;
            }
        }
    }
    Ok(reanchored)
}
