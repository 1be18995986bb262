//! The incremental event-driven co-scheduler.
//!
//! Instead of rescanning every VM at every event (the reference loop's
//! O(V) per event), this scheduler maintains:
//!
//! * **per-class active sets** (sorted `Vec<usize>`, ascending VM index)
//!   and their cached demand totals — only in work-conserving mode, and
//!   recomputed only when a class's membership actually changes. In
//!   capped mode rates depend on nothing but the VM's own configured
//!   share, so no set or total is maintained at all;
//! * an **event structure** keyed by each VM's projected phase-completion
//!   instant (the f64 microsecond value from
//!   [`super::fluid::ActivePhase::completion_us`], compared by IEEE bit
//!   pattern, which orders non-negative floats numerically). The loop is
//!   generic over the structure ([`EventCore`]): production
//!   work-conserving runs use the calendar queue
//!   ([`super::calendar::CalendarCore`]) whose O(1) re-keys survive the
//!   adversarial class-flipping regime; the binary heap with lazy
//!   invalidation ([`super::event_core::HeapCore`]) is kept for the
//!   differential suite and `ext_sched` — see [`super::SchedCore`].
//!   Production capped runs never enter this loop: their VMs do not
//!   interact, so [`super::walk`] needs no event structure at all.
//!
//! Per event it touches only the VMs whose effective rate can have
//! changed: in [`SchedMode::Capped`] a completion perturbs nobody else,
//! so an event is O(log V); in [`SchedMode::WorkConserving`] only the
//! members of the resource classes whose membership changed are
//! re-anchored. Consecutive same-VM phase integrations are batched by
//! construction — a VM's work is integrated in closed form from its
//! anchor, never stepped through other VMs' events.
//!
//! **Event-structure invariants** (checked by `debug_assert`s and the
//! differential suite):
//!
//! 1. Every VM with an in-flight phase has exactly one live entry; a
//!    re-key replaces it (heap: generation bump, calendar: handle-based
//!    removal).
//! 2. Keys never decrease: a pushed key is `>=` the instant of the event
//!    being processed (phases project completions forward from their
//!    anchor).
//! 3. Entries with equal keys pop in ascending VM order, which is exactly
//!    the order the reference loop completes a simultaneous batch in.
//!
//! The determinism contract — completions bit-identical to
//! [`super::co_schedule_reference`] *and across event cores* — holds
//! because every f64 this module produces (rates, class totals, anchors,
//! projected completions) is computed by the same [`super::fluid`]
//! primitive over the same operands in the same order regardless of the
//! core; the cores differ only in how they store and surface the
//! identical event sequence.

use crate::{MachineSpec, ResourceVector, VmmError};

use super::calendar::CalendarCore;
use super::event_core::{EventCore, HeapCore};
use super::fluid::{
    checked_event_us, checked_rate, class_total, rate_of, report_instant, PhaseSpec, ResClass,
    VmState, NUM_CLASSES,
};
use super::{SchedCore, SchedMode, VmJob, VmOutcome};

use dbvirt_telemetry as telemetry;

// Scheduler telemetry (no-ops until `dbvirt_telemetry::enable()`).
static TM_EVENTS: telemetry::Counter = telemetry::Counter::new("sched.events");
static TM_PHASES: telemetry::Counter = telemetry::Counter::new("sched.phase_completions");
static TM_TOUCHED: telemetry::Counter = telemetry::Counter::new("sched.vms_touched");
static TM_TOUCHED_HIST: telemetry::Histogram =
    telemetry::Histogram::new("sched.vms_touched_per_event");
static TM_HEAP_HIST: telemetry::Histogram = telemetry::Histogram::new("sched.heap_size");
static TM_HEAP_PEAK: telemetry::Gauge = telemetry::Gauge::new("sched.heap_peak");

/// Work counters of one [`super::co_schedule`] run, exposed by
/// [`super::co_schedule_with_stats`] so benchmarks can report event counts
/// and per-event locality without scraping telemetry. A capped production
/// run is a per-VM walk with no event structure: it reports `events ==
/// vms_touched == phase_completions` and zero `heap_pushes` / `heap_peak`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Number of event batches processed (distinct completion instants).
    pub events: u64,
    /// Phases retired across the run (equals the fleet's total phase count).
    pub phase_completions: u64,
    /// VMs whose state was touched, summed over events (completions +
    /// activations + re-anchors). `vms_touched / events` is the per-event
    /// locality the rewrite exists to minimise.
    pub vms_touched: u64,
    /// Entries pushed into the event structure (named for the original
    /// heap; the calendar core counts its inserts here).
    pub heap_pushes: u64,
    /// Largest event-structure population observed (stale entries included
    /// for the heap core; the calendar core has none).
    pub heap_peak: usize,
}

impl SchedStats {
    /// Accumulates another run's counters (peak is a max, the rest sum) —
    /// how the multi-machine driver folds per-machine stats into a fleet
    /// total.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.events += other.events;
        self.phase_completions += other.phase_completions;
        self.vms_touched += other.vms_touched;
        self.heap_pushes += other.heap_pushes;
        self.heap_peak = self.heap_peak.max(other.heap_peak);
    }

    /// Adds one run's counters to the `sched.*` telemetry totals and to its
    /// `sched.co_schedule` span.
    pub(super) fn publish(&self, span: &mut telemetry::SpanGuard<'_>, vms: usize) {
        TM_EVENTS.add(self.events);
        TM_PHASES.add(self.phase_completions);
        TM_TOUCHED.add(self.vms_touched);
        span.set_attr("vms", vms);
        span.set_attr("events", self.events);
        span.set_attr("phase_completions", self.phase_completions);
        span.set_attr("vms_touched", self.vms_touched);
        span.set_attr("heap_peak", self.heap_peak);
    }
}

/// Inserts `i` into a sorted ascending member list.
fn insert_member(set: &mut Vec<usize>, i: usize) {
    if let Err(pos) = set.binary_search(&i) {
        set.insert(pos, i);
    }
}

/// Removes `i` from a sorted ascending member list.
fn remove_member(set: &mut Vec<usize>, i: usize) {
    if let Ok(pos) = set.binary_search(&i) {
        set.remove(pos);
    }
}

/// Runs the incremental scheduler with the given event core. Inputs are
/// pre-validated by the public wrappers.
pub(super) fn run(
    spec: &MachineSpec,
    mode: SchedMode,
    shares: &[ResourceVector],
    jobs: &[VmJob],
    core: SchedCore,
) -> Result<(Vec<VmOutcome>, SchedStats), VmmError> {
    match core {
        SchedCore::Heap => run_loop::<HeapCore>(spec, mode, shares, jobs),
        SchedCore::Calendar => run_loop::<CalendarCore>(spec, mode, shares, jobs),
    }
}

/// The event loop, monomorphized per core. Every fluid computation — and
/// therefore every completion — is independent of `C` by construction.
fn run_loop<C: EventCore>(
    spec: &MachineSpec,
    mode: SchedMode,
    shares: &[ResourceVector],
    jobs: &[VmJob],
) -> Result<(Vec<VmOutcome>, SchedStats), VmmError> {
    let n = jobs.len();
    let wc = mode == SchedMode::WorkConserving;
    let mut span = telemetry::span("sched.co_schedule");

    let mut states: Vec<VmState> = jobs.iter().map(|j| VmState::new(&j.queries)).collect();
    // Active sets and totals are pure work-conserving machinery: capped
    // rates never change after activation, so maintaining them would be
    // the O(V)-per-event work this scheduler exists to avoid.
    let mut members: [Vec<usize>; NUM_CLASSES] = [Vec::new(), Vec::new()];
    let mut totals = [0.0f64; NUM_CLASSES];
    let mut events = C::new(n);
    let mut stats = SchedStats::default();

    // Initial activations: seed memberships, then totals, then rates — the
    // same order the reference loop's first `sync_rates` pass uses.
    let mut to_activate: Vec<Option<PhaseSpec>> = states
        .iter_mut()
        .map(|s| if s.done { None } else { s.next_spec() })
        .collect();
    if wc {
        // Ascending iteration keeps the member lists sorted by construction.
        for (i, spec_p) in to_activate.iter().enumerate() {
            if let Some(p) = spec_p {
                members[p.kind.class().index()].push(i);
            }
        }
        for class in [ResClass::Cpu, ResClass::Disk] {
            totals[class.index()] =
                class_total(members[class.index()].iter().copied(), shares, class);
        }
    }
    for i in 0..n {
        if let Some(phase_spec) = to_activate[i].take() {
            activate(spec, mode, shares, &mut states, &totals, &mut events, i, phase_spec, 0.0)?;
        }
    }

    let mut batch: Vec<usize> = Vec::with_capacity(n);
    while let Some(bits) = {
        batch.clear();
        events.pop_min_batch(&mut batch)
    } {
        let t_next = f64::from_bits(bits);
        let now = report_instant(t_next);

        // 1. Retire completed phases; in work-conserving mode also track
        //    which class memberships changed.
        let mut changed = [false; NUM_CLASSES];
        for &i in batch.iter() {
            let old_class = if wc {
                states[i]
                    .active
                    .as_ref()
                    .expect("a live event entry implies an in-flight phase")
                    .kind
                    .class()
            } else {
                ResClass::Cpu // unused
            };
            let next = states[i].complete_active(now);
            stats.phase_completions += 1;
            match next {
                Some(phase_spec) => {
                    if wc {
                        let new_class = phase_spec.kind.class();
                        if new_class != old_class {
                            remove_member(&mut members[old_class.index()], i);
                            insert_member(&mut members[new_class.index()], i);
                            changed[old_class.index()] = true;
                            changed[new_class.index()] = true;
                        }
                    }
                    to_activate[i] = Some(phase_spec);
                }
                None => {
                    if wc {
                        remove_member(&mut members[old_class.index()], i);
                        changed[old_class.index()] = true;
                    }
                }
            }
        }

        // 2./3. Work-conserving mode only: refresh the demand totals of
        //    classes whose membership changed (a fresh ascending-order
        //    sum, never an incremental +=/-=, so the value is bit-identical
        //    to the reference's rescan), then re-anchor and re-key the
        //    surviving members whose rate actually changed (bitwise).
        //    Capped rates depend only on configured shares: nobody else is
        //    ever touched.
        let mut touched = batch.len() as u64;
        if wc {
            for class in [ResClass::Cpu, ResClass::Disk] {
                if !changed[class.index()] {
                    continue;
                }
                totals[class.index()] =
                    class_total(members[class.index()].iter().copied(), shares, class);
                let total = totals[class.index()];
                for idx in 0..members[class.index()].len() {
                    let i = members[class.index()][idx];
                    if to_activate[i].is_some() {
                        continue; // fresh phase, activated below with the new totals
                    }
                    let phase = states[i]
                        .active
                        .as_mut()
                        .expect("class members without a pending phase are in flight");
                    let rate = rate_of(spec, mode, phase.kind, &shares[i], total);
                    if rate != phase.rate {
                        phase.reanchor(t_next, rate);
                        let key = checked_event_us(phase.completion_us())?;
                        debug_assert!(key >= t_next, "re-keyed events must not move backwards");
                        events.rekey(i, key.to_bits());
                        touched += 1;
                    }
                }
            }
        }

        // 4. Activate the batch VMs' next phases under the new totals.
        for &i in batch.iter() {
            if let Some(phase_spec) = to_activate[i].take() {
                activate(
                    spec,
                    mode,
                    shares,
                    &mut states,
                    &totals,
                    &mut events,
                    i,
                    phase_spec,
                    t_next,
                )?;
            }
        }

        stats.events += 1;
        stats.vms_touched += touched;
        TM_TOUCHED_HIST.record_micros(touched);
        TM_HEAP_HIST.record_micros(events.len() as u64);
    }

    if !states.iter().all(|s| s.done) {
        return Err(VmmError::InvalidSchedule {
            reason: "no VM can make progress".to_string(),
        });
    }
    stats.heap_pushes = events.pushes();
    stats.heap_peak = events.peak();

    TM_HEAP_PEAK.set(stats.heap_peak as f64);
    stats.publish(&mut span, n);

    Ok((super::collect_outcomes(states), stats))
}

/// Anchors a fresh phase for VM `i` at `now_us` under the current totals
/// and pushes its completion event. Shared by setup and the event loop.
#[allow(clippy::too_many_arguments)]
fn activate<C: EventCore>(
    spec: &MachineSpec,
    mode: SchedMode,
    shares: &[ResourceVector],
    states: &mut [VmState],
    totals: &[f64; NUM_CLASSES],
    events: &mut C,
    i: usize,
    phase_spec: PhaseSpec,
    now_us: f64,
) -> Result<(), VmmError> {
    let total = totals[phase_spec.kind.class().index()];
    let rate = checked_rate(rate_of(spec, mode, phase_spec.kind, &shares[i], total))?;
    let phase = super::fluid::ActivePhase::activate(phase_spec, now_us, rate);
    let key = checked_event_us(phase.completion_us())?;
    debug_assert!(key >= now_us, "activations must not project into the past");
    states[i].active = Some(phase);
    events.insert(i, key.to_bits());
    Ok(())
}
