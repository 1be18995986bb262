//! Fluid-approximation credit scheduler for co-running VMs.
//!
//! The paper's Figure 5 experiment runs two database workloads *at the same
//! time* in two Xen VMs and measures each workload's completion time under
//! different CPU splits. This module provides the equivalent facility: a
//! deterministic fluid simulation of several VMs sharing one
//! [`MachineSpec`], where each VM executes a sequence of queries (each a
//! [`ResourceDemand`]) phase by phase.
//!
//! Two scheduling modes are supported, mirroring the Xen credit scheduler:
//!
//! * [`SchedMode::Capped`] — a VM never receives more than its configured
//!   share, even when the machine is otherwise idle (Xen's `cap` parameter;
//!   this is the mode the paper's experiments use);
//! * [`SchedMode::WorkConserving`] — idle capacity is redistributed among
//!   the VMs currently demanding the resource, in proportion to their
//!   shares (Xen's default `weight`-based behaviour).
//!
//! **One path per mode, one oracle** (see [`fluid`] for the shared
//! arithmetic and its determinism rules):
//!
//! * [`co_schedule`] in [`SchedMode::Capped`] — capped VMs never interact,
//!   so each VM's completion chain is walked on its own in closed form
//!   ([`walk`]). Every controller epoch, regret replay and measured-oracle
//!   run is a capped run.
//! * [`co_schedule`] in [`SchedMode::WorkConserving`] — the rescan loop
//!   ([`reference`]): every event recomputes every VM's rate, O(V) per
//!   event, with no event structure.
//! * [`co_schedule_reference`] — the same rescan loop in either mode, run
//!   silently: the oracle the capped walk is pinned **bit-identical** to
//!   (`tests/sched_differential.rs`, `tests/sched_wc_golden.rs`).
//!   Work-conserving has no second implementation;
//!   `tests/golden/sched_wc_bits.txt`, captured
//!   from the event-driven loop this module used to carry, holds its
//!   completions to the bit.
//!
//! Why a rescan is the right work-conserving loop: `V` is the number of
//! VMs on *one* machine, and every tier bounds it by `units / min_units`
//! (`SearchConfig::validate`, `FleetConfig::validate`) — the paper co-runs
//! two, the benchmark at most eight, and [`co_schedule_fleet`] is one
//! independent run per machine however many machines there are. An
//! incremental loop over a calendar queue of completions was measured
//! against this one (EXPERIMENTS.md, EXT-SCHED): slower below 8 VMs, level
//! at 8, ahead only from 16 up. That crossover — about 8 VMs on one
//! machine — is the number to revisit if a caller ever co-schedules more.

use crate::{
    AllocationMatrix, MachineSpec, ResourceDemand, ResourceVector, SimDuration, SimTime,
    VirtualMachine, VmmError,
};

mod fluid;
mod multi;
mod reference;
mod walk;

pub use multi::{co_schedule_fleet, MachineRun, MachineSim};

use dbvirt_telemetry as telemetry;

// Scheduler telemetry (no-ops until `dbvirt_telemetry::enable()`).
static TM_EVENTS: telemetry::Counter = telemetry::Counter::new("sched.events");
static TM_PHASES: telemetry::Counter = telemetry::Counter::new("sched.phase_completions");
static TM_TOUCHED: telemetry::Counter = telemetry::Counter::new("sched.vms_touched");

/// How unclaimed resource capacity is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Shares are hard caps (Xen `cap`); unclaimed capacity is wasted.
    Capped,
    /// Unclaimed capacity is shared among demanding VMs in proportion to
    /// their configured shares (Xen `weight`).
    WorkConserving,
}

/// Work counters of one [`co_schedule`] run, exposed by
/// [`co_schedule_with_stats`] so benchmarks can report event counts and
/// per-event locality without scraping telemetry. A capped run is a per-VM
/// walk: it reports `events == vms_touched == phase_completions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Number of event batches processed (distinct completion instants).
    pub events: u64,
    /// Phases retired across the run (equals the fleet's total phase count).
    pub phase_completions: u64,
    /// VMs an event affected, summed over events: those whose phase
    /// completed plus those whose in-flight phase was re-anchored at a new
    /// rate. `vms_touched / events` is the run's per-event interaction.
    pub vms_touched: u64,
}

impl SchedStats {
    /// Accumulates another run's counters — how the multi-machine driver's
    /// callers fold per-machine stats into a fleet total.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.events += other.events;
        self.phase_completions += other.phase_completions;
        self.vms_touched += other.vms_touched;
    }

    /// Adds one run's counters to the `sched.*` telemetry totals and to its
    /// `sched.co_schedule` span.
    fn publish(&self, span: &mut telemetry::SpanGuard<'_>, vms: usize) {
        TM_EVENTS.add(self.events);
        TM_PHASES.add(self.phase_completions);
        TM_TOUCHED.add(self.vms_touched);
        span.set_attr("vms", vms);
        span.set_attr("events", self.events);
        span.set_attr("phase_completions", self.phase_completions);
        span.set_attr("vms_touched", self.vms_touched);
    }
}

/// One VM's job: execute `queries` in order under `shares`.
#[derive(Debug, Clone)]
pub struct VmJob {
    /// The demands of the queries to run, in order.
    pub queries: Vec<ResourceDemand>,
}

impl VmJob {
    /// Creates a job from a sequence of query demands.
    pub fn new(queries: Vec<ResourceDemand>) -> VmJob {
        VmJob { queries }
    }
}

/// Completion report for one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmOutcome {
    /// Instant at which each query finished, in order.
    pub query_completions: Vec<SimTime>,
    /// Instant at which the whole job finished (equals the last query
    /// completion, or `t = 0` for an empty job).
    pub completion: SimTime,
}

impl VmOutcome {
    /// Total simulated time the VM's job took.
    pub fn makespan(&self) -> SimDuration {
        self.completion.duration_since(SimTime::ZERO)
    }
}

/// Runs `jobs` concurrently on `spec` under `allocation`, one VM per job,
/// and reports each VM's query completion instants.
///
/// Row `i` of `allocation` gives VM `i`'s shares. The number of jobs must
/// match the number of allocation rows, and every VM needs strictly positive
/// shares (enforced via [`VirtualMachine::new`]).
///
/// The simulation is a deterministic fluid model: at every instant each
/// in-flight phase progresses at a rate set by its VM's effective share of
/// the relevant resource; the simulator advances from phase-completion
/// event to phase-completion event. Time is continuous (f64 microseconds)
/// internally and rounded to the microsecond [`SimTime`] clock only when a
/// completion is reported, so integrated work equals demand to f64
/// precision regardless of stream length. With a single VM in
/// [`SchedMode::Capped`] mode the result matches the sum of
/// [`VirtualMachine::demand_seconds`] over the job, rounded to the
/// microsecond, which is checked by tests.
///
/// This entry point picks the implementation by mode (a per-VM walk for
/// capped, the rescan loop for work-conserving); see
/// [`co_schedule_reference`] for the oracle the walk is pinned
/// bit-identical to, and [`co_schedule_with_stats`] for the same run plus
/// its work counters.
///
/// A schedule that does not fit the virtual clock is an
/// [`VmmError::InvalidSchedule`] on every path; when several VMs offend, a
/// capped run reports the lowest-indexed one.
pub fn co_schedule(
    spec: MachineSpec,
    allocation: &AllocationMatrix,
    jobs: &[VmJob],
    mode: SchedMode,
) -> Result<Vec<VmOutcome>, VmmError> {
    co_schedule_with_stats(spec, allocation, jobs, mode).map(|(outcomes, _)| outcomes)
}

/// [`co_schedule`], additionally returning the scheduler's work counters
/// (events processed, VMs touched per event) for benchmarking and locality
/// assertions. Every production run passes through here: it opens the one
/// `sched.co_schedule` span and publishes the counters.
pub fn co_schedule_with_stats(
    spec: MachineSpec,
    allocation: &AllocationMatrix,
    jobs: &[VmJob],
    mode: SchedMode,
) -> Result<(Vec<VmOutcome>, SchedStats), VmmError> {
    let shares = validate_inputs(&spec, allocation, jobs)?;
    let mut span = telemetry::span("sched.co_schedule");
    let (outcomes, stats) = match mode {
        SchedMode::Capped => walk::run(&spec, &shares, jobs)?,
        SchedMode::WorkConserving => reference::run(&spec, mode, &shares, jobs)?,
    };
    stats.publish(&mut span, jobs.len());
    Ok((outcomes, stats))
}

/// The rescan loop in either mode, silently: identical semantics (and
/// identical completions, to the bit) as [`co_schedule`], with no span and
/// no counter, so verification runs do not show up as scheduler traffic.
/// The differential-testing and benchmarking oracle; production callers
/// use [`co_schedule`].
pub fn co_schedule_reference(
    spec: MachineSpec,
    allocation: &AllocationMatrix,
    jobs: &[VmJob],
    mode: SchedMode,
) -> Result<Vec<VmOutcome>, VmmError> {
    let shares = validate_inputs(&spec, allocation, jobs)?;
    reference::run(&spec, mode, &shares, jobs).map(|(outcomes, _)| outcomes)
}

/// Shared up-front validation: machine sanity, job/allocation alignment,
/// strictly positive shares, and hostile demand screening. The scheduler
/// is fed by external controllers, so hostile CPU demands (NaN, negative,
/// or so large that no finite schedule exists) must surface as typed
/// errors rather than silently-skipped phases or clock-overflow panics
/// deep in the event loop. Page counts are `u64` and need no check.
fn validate_inputs(
    spec: &MachineSpec,
    allocation: &AllocationMatrix,
    jobs: &[VmJob],
) -> Result<Vec<ResourceVector>, VmmError> {
    spec.validate()?;
    if jobs.len() != allocation.num_workloads() {
        return Err(VmmError::InvalidSchedule {
            reason: format!(
                "{} jobs but {} allocation rows",
                jobs.len(),
                allocation.num_workloads()
            ),
        });
    }
    // Validate each VM up front (positive shares etc.).
    let shares: Vec<ResourceVector> = (0..jobs.len())
        .map(|i| VirtualMachine::new(*spec, allocation.row(i)).map(|vm| vm.shares()))
        .collect::<Result<_, _>>()?;

    for (i, job) in jobs.iter().enumerate() {
        for (q, demand) in job.queries.iter().enumerate() {
            if !demand.cpu_cycles.is_finite() || demand.cpu_cycles < 0.0 {
                return Err(VmmError::InvalidSchedule {
                    reason: format!(
                        "VM {i} query {q}: cpu_cycles must be finite and non-negative, got {}",
                        demand.cpu_cycles
                    ),
                });
            }
        }
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResourceVector, Share};

    fn demand(cpu: f64, seq: u64, rand: u64) -> ResourceDemand {
        ResourceDemand {
            cpu_cycles: cpu,
            seq_page_reads: seq,
            random_page_reads: rand,
            page_writes: 0,
        }
    }

    /// Runs the production path and the oracle, asserts they agree to the
    /// bit, and returns the (shared) outcome.
    fn co_schedule_both(
        spec: MachineSpec,
        alloc: &AllocationMatrix,
        jobs: &[VmJob],
        mode: SchedMode,
    ) -> Vec<VmOutcome> {
        let prod = co_schedule(spec, alloc, jobs, mode).unwrap();
        let refr = co_schedule_reference(spec, alloc, jobs, mode).unwrap();
        assert_eq!(prod, refr, "production and reference completions diverged");
        prod
    }

    #[test]
    fn single_vm_matches_direct_model() {
        let spec = MachineSpec::paper_testbed();
        let shares = ResourceVector::from_fractions(0.5, 0.5, 0.5).unwrap();
        let alloc = AllocationMatrix::new(vec![shares]).unwrap();
        let queries = vec![demand(2.8e9, 1000, 50), demand(1.0e9, 0, 10)];
        let job = VmJob::new(queries.clone());
        let out = co_schedule_both(spec, &alloc, &[job], SchedMode::Capped);

        let vm = VirtualMachine::new(spec, shares).unwrap();
        let expect: f64 = queries.iter().map(|q| vm.demand_seconds(q)).sum();
        let got = out[0].completion.as_secs_f64();
        assert!(
            (got - expect).abs() / expect < 1e-6,
            "fluid sim {got} vs direct {expect}"
        );
        assert_eq!(out[0].query_completions.len(), 2);
    }

    #[test]
    fn capped_vms_do_not_interfere() {
        // Two CPU-bound VMs at 50% each finish exactly when they would alone.
        let spec = MachineSpec::paper_testbed();
        let alloc = AllocationMatrix::equal_split(2).unwrap();
        let job = VmJob::new(vec![demand(5.6e9, 0, 0)]);
        let out = co_schedule_both(spec, &alloc, &[job.clone(), job], SchedMode::Capped);
        // 5.6e9 cycles at 50% of 5.6e9 cycles/s = 2 seconds.
        for o in &out {
            assert!((o.completion.as_secs_f64() - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn work_conserving_redistributes_idle_capacity() {
        let spec = MachineSpec::paper_testbed();
        let alloc = AllocationMatrix::equal_split(2).unwrap();
        let long = VmJob::new(vec![demand(11.2e9, 0, 0)]);
        let short = VmJob::new(vec![demand(2.8e9, 0, 0)]);
        let out = co_schedule_both(spec, &alloc, &[long, short], SchedMode::WorkConserving);
        // While both run, each gets 50% (2.8e9 cyc/s). The short job needs
        // 2.8e9 cycles -> 1s. Then the long job gets 100%: it has consumed
        // 2.8e9 of 11.2e9, so 8.4e9 remain at 5.6e9 cyc/s -> 1.5s more.
        assert!((out[1].completion.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((out[0].completion.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn cpu_and_disk_phases_overlap_across_vms() {
        // One VM doing pure CPU and one doing pure I/O never contend, so in
        // both modes each finishes at its solo time.
        let spec = MachineSpec::paper_testbed();
        let rows = vec![
            ResourceVector::from_fractions(0.9, 0.5, 0.1).unwrap(),
            ResourceVector::from_fractions(0.1, 0.5, 0.9).unwrap(),
        ];
        let alloc = AllocationMatrix::new(rows.clone()).unwrap();
        let jobs = [
            VmJob::new(vec![demand(5.6e9, 0, 0)]),
            VmJob::new(vec![demand(0.0, 10_000, 0)]),
        ];
        for mode in [SchedMode::Capped, SchedMode::WorkConserving] {
            let out = co_schedule_both(spec, &alloc, &jobs, mode);
            let vm0 = VirtualMachine::new(spec, rows[0]).unwrap();
            let vm1 = VirtualMachine::new(spec, rows[1]).unwrap();
            let solo0 = vm0.demand_seconds(&jobs[0].queries[0]);
            let solo1 = vm1.demand_seconds(&jobs[1].queries[0]);
            let relerr = |got: f64, want: f64| (got - want).abs() / want.max(1e-12);
            if mode == SchedMode::Capped {
                assert!(relerr(out[0].completion.as_secs_f64(), solo0) < 1e-6);
                assert!(relerr(out[1].completion.as_secs_f64(), solo1) < 1e-6);
            } else {
                // Work-conserving can only be faster than the capped time.
                assert!(out[0].completion.as_secs_f64() <= solo0 + 1e-9);
                assert!(out[1].completion.as_secs_f64() <= solo1 + 1e-9);
            }
        }
    }

    #[test]
    fn job_count_must_match_allocation() {
        let spec = MachineSpec::tiny();
        let alloc = AllocationMatrix::equal_split(2).unwrap();
        let err = co_schedule(spec, &alloc, &[VmJob::new(vec![])], SchedMode::Capped).unwrap_err();
        assert!(matches!(err, VmmError::InvalidSchedule { .. }));
    }

    #[test]
    fn empty_jobs_complete_at_time_zero() {
        let spec = MachineSpec::tiny();
        let alloc = AllocationMatrix::new(vec![ResourceVector::uniform(Share::HALF)]).unwrap();
        let out = co_schedule_both(spec, &alloc, &[VmJob::new(vec![])], SchedMode::Capped);
        assert_eq!(out[0].completion, SimTime::ZERO);
        assert!(out[0].query_completions.is_empty());
    }

    #[test]
    fn hostile_cpu_demands_are_rejected_with_typed_errors() {
        let spec = MachineSpec::tiny();
        let alloc = AllocationMatrix::new(vec![ResourceVector::uniform(Share::HALF)]).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let job = VmJob::new(vec![demand(bad, 10, 0)]);
            for schedule in [co_schedule, co_schedule_reference] {
                let err = schedule(spec, &alloc, std::slice::from_ref(&job), SchedMode::Capped)
                    .unwrap_err();
                match err {
                    VmmError::InvalidSchedule { reason } => {
                        assert!(reason.contains("cpu_cycles"), "unexpected reason: {reason}")
                    }
                    other => panic!("expected InvalidSchedule for cpu={bad}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn huge_finite_demand_errors_instead_of_panicking() {
        // 1e300 cycles on a 1e9 cycles/s machine is ~1e291 seconds: finite,
        // but far beyond the microsecond clock. Must be an error, not a panic.
        let spec = MachineSpec::tiny();
        let alloc = AllocationMatrix::new(vec![ResourceVector::uniform(Share::HALF)]).unwrap();
        let job = VmJob::new(vec![demand(1e300, 0, 0)]);
        for schedule in [co_schedule, co_schedule_reference] {
            let err =
                schedule(spec, &alloc, std::slice::from_ref(&job), SchedMode::Capped).unwrap_err();
            assert!(matches!(err, VmmError::InvalidSchedule { .. }));
        }
    }

    #[test]
    fn zero_demand_queries_complete_instantly() {
        let spec = MachineSpec::tiny();
        let alloc = AllocationMatrix::new(vec![ResourceVector::uniform(Share::HALF)]).unwrap();
        let job = VmJob::new(vec![ResourceDemand::ZERO, demand(1e9, 0, 0)]);
        let out = co_schedule_both(spec, &alloc, &[job], SchedMode::Capped);
        assert_eq!(out[0].query_completions.len(), 2);
        assert_eq!(out[0].query_completions[0], SimTime::ZERO);
        assert!(out[0].completion > SimTime::ZERO);
    }

    /// Regression for the work/clock quantization skew: the pre-rewrite
    /// loop advanced the clock by the microsecond-rounded step but
    /// decremented `remaining` by the raw `rate * dt`, so every phase
    /// completed at a per-phase-rounded instant and the error compounded —
    /// 10,000 phases of 10.4 µs each reported ~100,000 µs instead of
    /// 104,000 µs (a 4 ms drift). With anchored continuous-time
    /// integration, integrated work equals demand and the reported
    /// completion matches `demand_seconds` at microsecond resolution over
    /// the whole stream.
    #[test]
    fn long_streams_do_not_accumulate_quantization_skew() {
        let spec = MachineSpec::paper_testbed();
        let shares = ResourceVector::from_fractions(0.5, 0.5, 0.5).unwrap();
        let alloc = AllocationMatrix::new(vec![shares]).unwrap();
        // 29,120 cycles at 50% of 5.6e9 cycles/s = 10.4 µs per query: every
        // phase has a fractional-microsecond duration, the worst case for
        // per-event rounding.
        let queries = vec![demand(29_120.0, 0, 0); 10_000];
        let job = VmJob::new(queries.clone());
        let out = co_schedule_both(spec, &alloc, &[job], SchedMode::Capped);

        let vm = VirtualMachine::new(spec, shares).unwrap();
        let expect_secs: f64 = queries.iter().map(|q| vm.demand_seconds(q)).sum();
        let expect_us = SimDuration::try_from_secs_f64(expect_secs)
            .unwrap()
            .as_micros();
        let got_us = out[0].completion.as_micros();
        assert!(
            got_us.abs_diff(expect_us) <= 1,
            "10k-event stream drifted: got {got_us} µs, want {expect_us} µs"
        );
        // Every intermediate completion is also on the exact integrated
        // timeline, not a per-phase-rounded one.
        for (k, t) in out[0].query_completions.iter().enumerate() {
            let want = ((k + 1) as f64 * 10.4).round() as u64;
            assert!(
                t.as_micros().abs_diff(want) <= 1,
                "query {k} completed at {} µs, want ~{want} µs",
                t.as_micros()
            );
        }
    }

    /// Regression for the completion threshold: the pre-rewrite loop
    /// absorbed float fuzz with an absolute `remaining <= 1e-6` check,
    /// applied uniformly to phases measured in cycles and in pages. At a
    /// low enough rate, 1e-6 phase units is *real, observable* work: here
    /// VM A still owes 9e-7 cycles when VM B finishes — a full microsecond
    /// of runtime at A's post-completion rate — and the old loop silently
    /// dropped it, completing A one microsecond early. The threshold is
    /// now relative to the phase's initial size, so the residue is kept
    /// and scheduled.
    #[test]
    fn sub_unit_residual_work_is_not_dropped() {
        // A deliberately slow machine: 1 cycle per second, so fractions of
        // a cycle are visible on the microsecond clock.
        let spec = MachineSpec {
            cores: 1,
            cycles_per_sec: 1.0,
            memory_bytes: 1 << 20,
            disk_seq_bytes_per_sec: 1e6,
            disk_random_iops: 100.0,
            page_size: 8192,
        };
        let alloc = AllocationMatrix::equal_split(2).unwrap();
        let b_cycles = 2.0 - 9e-7;
        let jobs = [
            VmJob::new(vec![demand(2.0, 0, 0)]),
            VmJob::new(vec![demand(b_cycles, 0, 0)]),
        ];
        let out = co_schedule_both(spec, &alloc, &jobs, SchedMode::WorkConserving);

        // Shared phase: both run at 0.5 cycles/s. B finishes first, having
        // consumed b_cycles of A's 2.0 as well.
        let t_b_us = (b_cycles / 0.5) * 1e6;
        assert_eq!(out[1].completion.as_micros(), t_b_us.round() as u64);
        // A then owes 9e-7 cycles at 1 cycle/s (work-conserving, alone):
        // 0.9 µs more. The old absolute threshold dropped this work and
        // reported A finishing at B's instant.
        let t_a_us = t_b_us + ((2.0 - b_cycles) / 1.0) * 1e6;
        assert_eq!(out[0].completion.as_micros(), t_a_us.round() as u64);
        assert!(
            out[0].completion > out[1].completion,
            "A's residual work must be scheduled, not dropped"
        );
    }

    /// The other direction of the threshold fix: at cycle scale (~1e10
    /// units) the float residue of integrating a phase exceeds the old
    /// absolute 1e-6 threshold, which cost the legacy loop spurious
    /// zero-length events. A relative threshold recognises the residue as
    /// noise: one phase is exactly one event in both modes, completed at
    /// the exact microsecond, with no work double-counted.
    #[test]
    fn cycle_scale_phases_complete_in_one_event_at_exact_micros() {
        let spec = MachineSpec::paper_testbed();
        let shares = ResourceVector::from_fractions(0.5, 0.5, 0.5).unwrap();
        let alloc = AllocationMatrix::new(vec![shares]).unwrap();
        let cycles = 5.6e10;
        let job = VmJob::new(vec![demand(cycles, 0, 0)]);
        let jobs = [job];
        // 5.6e10 cycles at the capped 2.8e9 cycles/s = 20 s exactly; alone
        // and work-conserving the VM has the machine's 5.6e9, 10 s.
        for (mode, rate) in [
            (SchedMode::Capped, 2.8e9),
            (SchedMode::WorkConserving, 5.6e9),
        ] {
            let (out, stats) = co_schedule_with_stats(spec, &alloc, &jobs, mode).unwrap();
            assert_eq!(
                out,
                co_schedule_reference(spec, &alloc, &jobs, mode).unwrap()
            );
            assert_eq!(stats.events, 1, "one phase must be exactly one event");
            assert_eq!(stats.phase_completions, 1);
            let want_us = ((cycles / rate) * 1e6).round() as u64;
            assert_eq!(out[0].completion.as_micros(), want_us);
        }
    }

    #[test]
    fn only_work_conserving_completions_touch_other_vms() {
        // 8 VMs, staggered CPU demands. Capped, no completion perturbs
        // anybody. Work-conserving, a VM finishing a CPU phase changes the
        // CPU class's total, so the others are re-anchored: locality is a
        // property of the workload, and the counter must show it.
        let spec = MachineSpec::paper_testbed();
        let alloc = AllocationMatrix::equal_split(8).unwrap();
        let jobs: Vec<VmJob> = (0..8)
            .map(|i| VmJob::new(vec![demand(1e9 + i as f64 * 7e7, 100 + i, 0); 4]))
            .collect();
        let (_, capped) = co_schedule_with_stats(spec, &alloc, &jobs, SchedMode::Capped).unwrap();
        assert_eq!(capped.vms_touched, capped.events);
        let (_, wc) =
            co_schedule_with_stats(spec, &alloc, &jobs, SchedMode::WorkConserving).unwrap();
        assert_eq!(wc.phase_completions, capped.phase_completions);
        assert!(wc.vms_touched > wc.phase_completions, "{wc:?}");
    }

    #[test]
    fn simultaneous_completions_form_one_event_batch() {
        // 4 identical VMs: all phases complete at bit-identical instants,
        // so each wave is a single event batch touching all 4 VMs.
        let spec = MachineSpec::paper_testbed();
        let alloc = AllocationMatrix::equal_split(4).unwrap();
        let job = VmJob::new(vec![demand(1.4e9, 200, 10); 3]);
        let jobs = vec![job; 4];
        for mode in [SchedMode::Capped, SchedMode::WorkConserving] {
            let (out, stats) = co_schedule_with_stats(spec, &alloc, &jobs, mode).unwrap();
            let refr = co_schedule_reference(spec, &alloc, &jobs, mode).unwrap();
            assert_eq!(out, refr);
            for o in &out[1..] {
                assert_eq!(o, &out[0], "identical VMs must complete identically");
            }
            // The loop batches; the capped walk has no batches to form.
            let per_event = match mode {
                SchedMode::Capped => 1,
                SchedMode::WorkConserving => 4,
            };
            assert_eq!(stats.phase_completions, stats.events * per_event);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ResourceVector;
    use proptest::prelude::*;

    fn arb_demand() -> impl Strategy<Value = ResourceDemand> {
        (0u64..5_000_000_000, 0u64..2_000, 0u64..200, 0u64..100).prop_map(
            |(cpu, seq, rand, writes)| ResourceDemand {
                cpu_cycles: cpu as f64,
                seq_page_reads: seq,
                random_page_reads: rand,
                page_writes: writes,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A single capped VM's fluid-simulated completion time equals the
        /// closed-form demand model, for arbitrary demand sequences.
        #[test]
        fn prop_single_vm_fluid_matches_direct(
            queries in prop::collection::vec(arb_demand(), 1..6),
            cpu in 0.05f64..1.0,
            disk in 0.05f64..1.0,
        ) {
            let spec = MachineSpec::paper_testbed();
            let shares = ResourceVector::from_fractions(cpu, 0.5, disk).unwrap();
            let alloc = AllocationMatrix::new(vec![shares]).unwrap();
            let out = co_schedule(
                spec,
                &alloc,
                &[VmJob::new(queries.clone())],
                SchedMode::Capped,
            )
            .unwrap();
            let vm = VirtualMachine::new(spec, shares).unwrap();
            let expect: f64 = queries.iter().map(|q| vm.demand_seconds(q)).sum();
            let got = out[0].completion.as_secs_f64();
            prop_assert!(
                (got - expect).abs() <= expect.max(1e-9) * 1e-6 + 2e-6,
                "fluid {got} vs direct {expect}"
            );
        }

        /// Work conservation never makes any VM slower than capped mode,
        /// and query completions are monotone within each VM.
        #[test]
        fn prop_work_conserving_dominates_capped(
            q1 in prop::collection::vec(arb_demand(), 1..4),
            q2 in prop::collection::vec(arb_demand(), 1..4),
            split in 0.1f64..0.9,
        ) {
            let spec = MachineSpec::paper_testbed();
            let rows = vec![
                ResourceVector::from_fractions(split, 0.5, split).unwrap(),
                ResourceVector::from_fractions(1.0 - split, 0.5, 1.0 - split).unwrap(),
            ];
            let alloc = AllocationMatrix::new(rows).unwrap();
            let jobs = [VmJob::new(q1), VmJob::new(q2)];
            let capped = co_schedule(spec, &alloc, &jobs, SchedMode::Capped).unwrap();
            let wc = co_schedule(spec, &alloc, &jobs, SchedMode::WorkConserving).unwrap();
            for (c, w) in capped.iter().zip(&wc) {
                let (tc, tw) = (c.completion.as_secs_f64(), w.completion.as_secs_f64());
                prop_assert!(tw <= tc * (1.0 + 1e-6) + 1e-6, "wc {tw} vs capped {tc}");
                prop_assert!(w.query_completions.windows(2).all(|p| p[0] <= p[1]));
                prop_assert!(c.query_completions.windows(2).all(|p| p[0] <= p[1]));
            }
        }
    }
}
