//! A production run is one `sched.co_schedule` span and one publication
//! of its counters, in either mode; an oracle run is neither.
//!
//! Lives in its own test binary (one `#[test]`) because it reads the
//! process-wide telemetry registry, which any other scheduler run would
//! also tick.

use dbvirt_telemetry as telemetry;
use dbvirt_vmm::sched::{
    co_schedule, co_schedule_fleet, co_schedule_reference, co_schedule_with_stats, MachineSim,
    SchedMode, SchedStats, VmJob,
};
use dbvirt_vmm::{AllocationMatrix, MachineSpec, ResourceDemand};

/// What the registry has seen of the scheduler: `sched.co_schedule` spans
/// and the three published totals, as a `SchedStats`.
fn seen() -> (usize, SchedStats) {
    let snap = telemetry::snapshot();
    let spans = snap
        .spans
        .iter()
        .filter(|s| s.name == "sched.co_schedule")
        .count();
    let stats = SchedStats {
        events: snap.counter("sched.events").unwrap_or(0),
        phase_completions: snap.counter("sched.phase_completions").unwrap_or(0),
        vms_touched: snap.counter("sched.vms_touched").unwrap_or(0),
    };
    (spans, stats)
}

#[test]
fn production_runs_are_traced_and_the_oracle_is_silent() {
    telemetry::enable();
    let spec = MachineSpec::paper_testbed();
    let alloc = AllocationMatrix::equal_split(3).unwrap();
    let jobs: Vec<VmJob> = (0..3u64)
        .map(|i| {
            let q = ResourceDemand {
                cpu_cycles: 1e9 + i as f64 * 3e8,
                seq_page_reads: 100 + 40 * i,
                random_page_reads: 0,
                page_writes: i,
            };
            VmJob::new(vec![q, ResourceDemand::ZERO, q])
        })
        .collect();

    let mut spans = 0;
    let mut total = SchedStats::default();
    for mode in [SchedMode::Capped, SchedMode::WorkConserving] {
        let (out, stats) = co_schedule_with_stats(spec, &alloc, &jobs, mode).unwrap();
        spans += 1;
        total.absorb(&stats);
        assert_eq!(
            seen(),
            (spans, total),
            "{mode:?}: one span, one publication"
        );

        // The oracle agrees and leaves no trace.
        assert_eq!(
            co_schedule_reference(spec, &alloc, &jobs, mode).unwrap(),
            out
        );
        assert_eq!(
            seen(),
            (spans, total),
            "{mode:?}: the oracle must stay silent"
        );

        // `co_schedule` is the same run.
        co_schedule(spec, &alloc, &jobs, mode).unwrap();
        spans += 1;
        total.absorb(&stats);
        assert_eq!(seen(), (spans, total));

        // A fleet is one production run per machine.
        let machine = MachineSim {
            spec,
            allocation: alloc.clone(),
            jobs: jobs.clone(),
        };
        co_schedule_fleet(&[machine.clone(), machine], mode, 1).unwrap();
        spans += 2;
        total.absorb(&stats);
        total.absorb(&stats);
        assert_eq!(seen(), (spans, total));
    }

    // The span carries the run's counters.
    let snap = telemetry::snapshot();
    let last = snap
        .last_span("sched.co_schedule")
        .expect("a recorded span");
    let attrs: Vec<&str> = last.attrs.iter().map(|(k, _)| *k).collect();
    assert_eq!(attrs, ["vms", "events", "phase_completions", "vms_touched"]);
}
