//! The reference fluid loop: a whole-fleet rescan per event.
//!
//! This is the legacy `co_schedule` structure — every event recomputes
//! every VM's rate and projected completion, O(V) work per event and
//! O(V · P) overall — kept as the differential-testing baseline for the
//! incremental scheduler. It is *not* the byte-for-byte legacy code: the
//! two correctness fixes documented in [`super::fluid`] (anchored
//! integration instead of quantized work decrements, and the unit-aware
//! completion threshold) apply here too, because the incremental scheduler
//! is pinned bit-identical to *this* loop and the old behaviour was wrong.

use crate::{MachineSpec, ResourceVector, VmmError};

use super::fluid::{
    checked_event_us, checked_rate, class_total, rate_of, report_instant, total_phases,
    ActivePhase, PhaseSpec, ResClass, VmState, NUM_CLASSES,
};
use super::{SchedMode, VmJob, VmOutcome};

/// Runs the rescan loop. Inputs are pre-validated by the public wrappers.
pub(super) fn run(
    spec: &MachineSpec,
    mode: SchedMode,
    shares: &[ResourceVector],
    jobs: &[VmJob],
) -> Result<Vec<VmOutcome>, VmmError> {
    let n = jobs.len();
    let mut states: Vec<VmState> = jobs.iter().map(|j| VmState::new(&j.queries)).collect();
    // Phases awaiting a rate assignment (initially each VM's first phase).
    let mut to_activate: Vec<Option<PhaseSpec>> = states
        .iter_mut()
        .map(|s| if s.done { None } else { s.next_spec() })
        .collect();
    let mut now_us: f64 = 0.0;
    sync_rates(spec, mode, shares, &mut states, &mut to_activate, now_us)?;

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
            }
        }

        sync_rates(spec, mode, shares, &mut states, &mut to_activate, now_us)?;
    }

    if !states.iter().all(|s| s.done) {
        return Err(VmmError::InvalidSchedule {
            reason: "simulation failed to converge (event budget exhausted)".to_string(),
        });
    }

    Ok(super::collect_outcomes(states))
}

/// Recomputes every VM's rate from the current class memberships,
/// activating pending phases and re-anchoring any in-flight phase whose
/// rate actually changed (bitwise). The incremental scheduler performs the
/// identical per-VM computations, but only for VMs it can prove affected.
fn sync_rates(
    spec: &MachineSpec,
    mode: SchedMode,
    shares: &[ResourceVector],
    states: &mut [VmState],
    to_activate: &mut [Option<PhaseSpec>],
    now_us: f64,
) -> Result<(), VmmError> {
    let n = states.len();
    // The phase kind each VM currently demands: its in-flight phase, or
    // the phase awaiting activation (mirrors the legacy loop allocating a
    // per-event rates vector).
    let kinds: Vec<_> = (0..n)
        .map(|i| {
            states[i]
                .active
                .as_ref()
                .map(|p| p.kind)
                .or_else(|| to_activate[i].map(|s| s.kind))
        })
        .collect();

    // Per-class demand totals, summed in ascending VM index order.
    let mut totals = [0.0f64; NUM_CLASSES];
    for class in [ResClass::Cpu, ResClass::Disk] {
        let members = (0..n).filter(|&i| kinds[i].map(|k| k.class()) == Some(class));
        totals[class.index()] = class_total(members, shares, class);
    }

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
            }
        }
    }
    Ok(())
}
