//! Shared primitives of the fluid co-scheduler.
//!
//! Both scheduler implementations — the rescan loop ([`super::reference`])
//! and the capped per-VM walk ([`super::walk`]) — are built from the
//! helpers in this module, and the bit-identical-completions contract
//! between them rests on three rules every caller follows:
//!
//! 1. **Anchored integration.** A phase's progress is never accumulated by
//!    repeated subtraction. Each in-flight phase stores an *anchor*: the
//!    continuous-time instant (`anchor_us`, f64 microseconds) at which its
//!    remaining work (`anchor_remaining`) was last evaluated, plus the rate
//!    in force since then. Remaining work at any later instant, and the
//!    phase's projected completion instant, are single closed-form
//!    expressions over the anchor ([`ActivePhase::remaining_at`],
//!    [`ActivePhase::completion_us`]). The anchor moves ([`ActivePhase::
//!    reanchor`]) only when the rate actually changes (bitwise), so the
//!    capped walk, which never meets a rate change, computes *exactly* the
//!    same f64 values as the loop rescanning everybody at every event.
//!    This is also the fix for the legacy work/clock quantization skew:
//!    the old loop advanced the clock by the microsecond-rounded step but
//!    decremented work by the raw `rate * dt`, letting work and time drift
//!    apart by up to a microsecond of work per event. With anchors, the
//!    clock is
//!    continuous f64 microseconds and is only rounded when a completion is
//!    *reported* as a [`SimTime`]; integrated work equals demand to f64
//!    precision regardless of stream length.
//!
//! 2. **Ordered share sums.** Work-conserving rates divide a VM's
//!    configured share by the total configured share of the VMs currently
//!    demanding the resource class. f64 addition is not associative, so
//!    that total is always [`class_total`] over members in ascending VM
//!    index order.
//!
//! 3. **Unit-aware completion fuzz.** Re-anchoring can leave a residue of
//!    floating-point noise in `anchor_remaining`. The legacy loop absorbed
//!    this with an absolute `remaining <= 1e-6` threshold — wrong for
//!    phases measured in cycles (~1e9 units, where accumulated ulps exceed
//!    the threshold) and wrong for pages at very low rates (where 1e-6
//!    pages is *real, observable* work it silently dropped). The threshold
//!    is now relative to the phase's initial size
//!    ([`PHASE_DONE_REL_EPS`]): residue below one part in 10^12 of the
//!    phase is rounding noise and snaps to zero, anything larger is kept
//!    and scheduled.

use crate::{MachineSpec, ResourceDemand, ResourceVector, SimTime, VmmError};

use super::SchedMode;

/// Work within this fraction of a phase's *initial* size is treated as
/// floating-point residue rather than real remaining work. Relative, so it
/// scales correctly from page-count phases (~1e3 units) to cycle-count
/// phases (~1e9 units); at either scale the absorbed work is far below the
/// microsecond reporting resolution.
pub(super) const PHASE_DONE_REL_EPS: f64 = 1e-12;

/// Which resource a phase consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PhaseKind {
    /// Sequential page reads.
    SeqRead,
    /// Random page reads.
    RandRead,
    /// CPU cycles.
    Cpu,
    /// Page write-back.
    Write,
}

/// The resource *class* a phase contends on. The credit scheduler shares
/// CPU and disk independently; all three disk-phase kinds (sequential,
/// random, write-back) draw from the same disk share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ResClass {
    /// CPU time.
    Cpu,
    /// Disk time (sequential, random, and write-back phases).
    Disk,
}

/// Number of resource classes (for per-class arrays).
pub(super) const NUM_CLASSES: usize = 2;

impl ResClass {
    /// Dense index for per-class arrays.
    pub(super) fn index(self) -> usize {
        match self {
            ResClass::Cpu => 0,
            ResClass::Disk => 1,
        }
    }
}

impl PhaseKind {
    /// The class this phase kind contends on.
    pub(super) fn class(self) -> ResClass {
        match self {
            PhaseKind::Cpu => ResClass::Cpu,
            _ => ResClass::Disk,
        }
    }
}

/// A not-yet-started phase: its kind and total work in phase units
/// (pages or cycles).
#[derive(Debug, Clone, Copy)]
pub(super) struct PhaseSpec {
    pub(super) kind: PhaseKind,
    pub(super) size: f64,
}

/// Splits a query's demand into its deterministic phase sequence: reads,
/// then CPU, then write-back (the fluid model only cares about per-resource
/// totals, so the order is a convention). Empty components are skipped.
pub(super) fn phases_of(demand: &ResourceDemand) -> impl Iterator<Item = PhaseSpec> {
    [
        (PhaseKind::SeqRead, demand.seq_page_reads as f64),
        (PhaseKind::RandRead, demand.random_page_reads as f64),
        (PhaseKind::Cpu, demand.cpu_cycles),
        (PhaseKind::Write, demand.page_writes as f64),
    ]
    .into_iter()
    .filter(|&(_, size)| size > 0.0)
    .map(|(kind, size)| PhaseSpec { kind, size })
}

/// An in-flight phase with its integration anchor (rule 1 above).
#[derive(Debug, Clone, Copy)]
pub(super) struct ActivePhase {
    pub(super) kind: PhaseKind,
    /// Total work of the phase, in phase units; fixed at activation.
    pub(super) initial: f64,
    /// Work remaining as of `anchor_us`.
    pub(super) anchor_remaining: f64,
    /// Continuous-time instant (f64 microseconds) the anchor was taken.
    pub(super) anchor_us: f64,
    /// Progress rate in force since the anchor, phase units per second.
    pub(super) rate: f64,
}

impl ActivePhase {
    /// Starts a phase at `now_us` running at `rate`.
    pub(super) fn activate(spec: PhaseSpec, now_us: f64, rate: f64) -> ActivePhase {
        ActivePhase {
            kind: spec.kind,
            initial: spec.size,
            anchor_remaining: spec.size,
            anchor_us: now_us,
            rate,
        }
    }

    /// Work remaining at instant `t_us` (must not precede the anchor).
    pub(super) fn remaining_at(&self, t_us: f64) -> f64 {
        self.anchor_remaining - (t_us - self.anchor_us) * 1e-6 * self.rate
    }

    /// Projected completion instant, in continuous f64 microseconds.
    pub(super) fn completion_us(&self) -> f64 {
        self.anchor_us + (self.anchor_remaining / self.rate) * 1e6
    }

    /// Moves the anchor to `now_us` and switches to `new_rate`, integrating
    /// the work done at the old rate. Residue within
    /// [`PHASE_DONE_REL_EPS`] of the phase's initial size is rounding
    /// noise and snaps to zero, so the phase completes at the very next
    /// event without dropping or double-counting observable work.
    pub(super) fn reanchor(&mut self, now_us: f64, new_rate: f64) {
        let left = self.remaining_at(now_us);
        self.anchor_remaining = if left <= self.initial * PHASE_DONE_REL_EPS {
            0.0
        } else {
            left
        };
        self.anchor_us = now_us;
        self.rate = new_rate;
    }
}

/// Checks a projected event instant is representable on the microsecond
/// virtual clock (finite and within `u64` microseconds), returning the
/// scheduler's typed error otherwise.
pub(super) fn checked_event_us(completion_us: f64) -> Result<f64, VmmError> {
    if completion_us.is_finite() && completion_us <= u64::MAX as f64 {
        Ok(completion_us)
    } else {
        Err(VmmError::InvalidSchedule {
            reason: format!(
                "phase completion at {completion_us} microseconds is not representable \
                 on the virtual clock"
            ),
        })
    }
}

/// Checks a phase's progress rate can finish it (finite and positive),
/// returning the scheduler's typed error otherwise.
pub(super) fn checked_rate(rate: f64) -> Result<f64, VmmError> {
    if rate.is_finite() && rate > 0.0 {
        Ok(rate)
    } else {
        Err(VmmError::InvalidSchedule {
            reason: "no VM can make progress".to_string(),
        })
    }
}

/// Rounds a continuous event instant to the reported microsecond clock.
/// Callers must have passed the instant through [`checked_event_us`].
pub(super) fn report_instant(event_us: f64) -> SimTime {
    SimTime::from_micros(event_us.round() as u64)
}

/// The progress rate (phase units per second) of a phase of `kind` run by a
/// VM holding `shares`, given the class's total demanded share
/// (work-conserving mode only). Pure: both implementations call this with
/// identical inputs and obtain bitwise-identical rates.
pub(super) fn rate_of(
    spec: &MachineSpec,
    mode: SchedMode,
    kind: PhaseKind,
    shares: &ResourceVector,
    class_total: f64,
) -> f64 {
    let configured = if kind == PhaseKind::Cpu {
        shares.cpu().fraction()
    } else {
        shares.disk().fraction()
    };
    let eff_share = match mode {
        SchedMode::Capped => configured,
        SchedMode::WorkConserving => {
            if class_total > 0.0 {
                configured / class_total
            } else {
                configured
            }
        }
    };
    match kind {
        PhaseKind::Cpu => spec.total_cycles_per_sec() * eff_share,
        PhaseKind::SeqRead | PhaseKind::Write => {
            eff_share * spec.disk_seq_bytes_per_sec / spec.page_size as f64
        }
        PhaseKind::RandRead => eff_share * spec.disk_random_iops,
    }
}

/// Total configured share of `class` over `members` — **which must be
/// supplied in ascending VM index order** (rule 2 above).
pub(super) fn class_total(
    members: impl Iterator<Item = usize>,
    shares: &[ResourceVector],
    class: ResClass,
) -> f64 {
    members.fold(0.0, |acc, i| {
        acc + match class {
            ResClass::Cpu => shares[i].cpu().fraction(),
            ResClass::Disk => shares[i].disk().fraction(),
        }
    })
}

/// Per-VM execution state: the pending queries, the in-flight query's
/// remaining phases, and the completions recorded so far.
#[derive(Debug)]
pub(super) struct VmState {
    /// Queries not yet started, in reverse order (pop from the back).
    pending: Vec<ResourceDemand>,
    /// Phases of the in-flight query after `active`, in reverse order.
    phase_queue: Vec<PhaseSpec>,
    /// The anchored in-flight phase, if any.
    pub(super) active: Option<ActivePhase>,
    /// Instant at which each query finished, in order.
    pub(super) completions: Vec<SimTime>,
    /// True once every query has completed.
    pub(super) done: bool,
}

impl VmState {
    /// Builds the state for one job and loads its first query. Leading
    /// zero-demand queries complete instantly at `t = 0`; the first real
    /// phase (if any) is left un-anchored for the scheduler to activate.
    pub(super) fn new(queries: &[ResourceDemand]) -> VmState {
        let mut pending: Vec<ResourceDemand> = queries.to_vec();
        pending.reverse();
        let mut state = VmState {
            pending,
            phase_queue: Vec::new(),
            active: None,
            completions: Vec::new(),
            done: false,
        };
        state.advance_query(SimTime::ZERO);
        state
    }

    /// Loads the next query (recording completions for any queries whose
    /// demand is empty), marking the VM done when the job is exhausted.
    fn advance_query(&mut self, now: SimTime) {
        while self.phase_queue.is_empty() {
            match self.pending.pop() {
                Some(demand) => {
                    let mut phases: Vec<PhaseSpec> = phases_of(&demand).collect();
                    phases.reverse();
                    if phases.is_empty() {
                        // Zero-demand query completes instantly.
                        self.completions.push(now);
                    }
                    self.phase_queue = phases;
                }
                None => {
                    self.done = true;
                    return;
                }
            }
        }
    }

    /// The phase spec the scheduler should activate next, if the VM is not
    /// yet running one. `None` when the VM is done.
    pub(super) fn next_spec(&mut self) -> Option<PhaseSpec> {
        debug_assert!(self.active.is_none());
        self.phase_queue.pop()
    }

    /// Retires the active phase at reported instant `t`, recording a query
    /// completion when it was the query's last phase, and returns the next
    /// phase spec to activate (`None` when the VM is done).
    pub(super) fn complete_active(&mut self, t: SimTime) -> Option<PhaseSpec> {
        debug_assert!(self.active.is_some());
        self.active = None;
        if let Some(spec) = self.phase_queue.pop() {
            return Some(spec);
        }
        self.completions.push(t);
        self.advance_query(t);
        self.phase_queue.pop()
    }
}

/// Total number of phase activations a job set can produce — the hard event
/// budget of the reference loop (every phase completes exactly once).
pub(super) fn total_phases(jobs: &[super::VmJob]) -> usize {
    jobs.iter()
        .flat_map(|j| j.queries.iter())
        .map(|q| phases_of(q).count().max(1))
        .sum::<usize>()
        + jobs.len()
        + 1
}
