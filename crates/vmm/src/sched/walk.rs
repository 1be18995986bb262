//! Capped co-scheduling as a per-VM closed-form walk.
//!
//! In [`SchedMode::Capped`] a phase's rate depends on nothing but its own
//! VM's configured share, so no completion ever changes another VM's rate:
//! a VM's completion chain `t ← t + (size / rate) · 1e6` is the same
//! whether or not anybody else is on the machine. An event loop would
//! spend its per-VM state and activation lists interleaving chains that
//! never interact; this module walks each chain on its own.
//!
//! Every f64 is produced by the [`super::fluid`] primitive the rescan loop
//! uses, over the same operands in the same order — a phase is
//! [`ActivePhase::activate`]d at the instant its predecessor completed and
//! its [`ActivePhase::completion_us`] is that chain's next instant — so
//! completions are bit-identical to [`super::co_schedule_reference`]
//! (`tests/sched_differential.rs`).
//!
//! One observable difference: the loop discovers a schedule that cannot be
//! represented (clock overflow, a rate that is not positive) in event
//! order, the walk in VM order. The error variant is the same; when
//! several VMs offend, the walk reports the lowest-indexed one.

use crate::{MachineSpec, ResourceVector, VmmError};

use super::fluid::{
    checked_event_us, checked_rate, phases_of, rate_of, report_instant, ActivePhase,
};
use super::{SchedMode, SchedStats, VmJob, VmOutcome};

/// Walks every VM's chain. Inputs are pre-validated by the public wrappers.
///
/// [`SchedStats`] contract of a walk: `phase_completions` is exact; nothing
/// is batched and nobody else is ever touched, so `events` and
/// `vms_touched` both equal it (the rescan loop reports `events <=
/// phase_completions`, batching simultaneous completions).
pub(super) fn run(
    spec: &MachineSpec,
    shares: &[ResourceVector],
    jobs: &[VmJob],
) -> Result<(Vec<VmOutcome>, SchedStats), VmmError> {
    let mut phases = 0u64;
    let mut outcomes = Vec::with_capacity(jobs.len());
    for (job, vm_shares) in jobs.iter().zip(shares) {
        let mut t_us = 0.0f64;
        let mut query_completions = Vec::with_capacity(job.queries.len());
        for demand in &job.queries {
            for phase in phases_of(demand) {
                let rate =
                    checked_rate(rate_of(spec, SchedMode::Capped, phase.kind, vm_shares, 0.0))?;
                t_us = checked_event_us(ActivePhase::activate(phase, t_us, rate).completion_us())?;
                phases += 1;
            }
            // A zero-demand query completes at its predecessor's instant.
            query_completions.push(report_instant(t_us));
        }
        outcomes.push(VmOutcome {
            query_completions,
            completion: report_instant(t_us),
        });
    }
    let stats = SchedStats {
        events: phases,
        phase_completions: phases,
        vms_touched: phases,
    };
    Ok((outcomes, stats))
}
