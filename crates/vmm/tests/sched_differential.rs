//! Differential suite for the co-scheduler's implementations.
//!
//! Pins the determinism contract of `crates/vmm/src/sched`: for every
//! input, **every implementation** reports **identical** completions — the
//! reported `SimTime`s compare equal, which at the microsecond clock's
//! integer representation means bit-identical:
//!
//! * [`co_schedule_reference`] — the whole-fleet rescan baseline,
//! * [`co_schedule`] — the production path: the per-VM closed-form walk in
//!   capped mode, the calendar event loop in work-conserving mode,
//! * [`SchedCore::Heap`] — the event loop on the binary heap with lazy
//!   invalidation,
//! * [`SchedCore::Calendar`] — the event loop on the calendar queue with
//!   per-VM handles,
//!
//! across random fleets, both scheduling modes, the class-flipping
//! adversarial mix (every query alternates resource class, so
//! work-conserving events re-key whole classes — the calendar core's
//! stress case), zero-demand queries, exactly simultaneous completions,
//! and hostile demands (which must yield the same typed error from every
//! path, never a panic).

use dbvirt_vmm::sched::{
    co_schedule, co_schedule_reference, co_schedule_with_core, co_schedule_with_stats, SchedCore,
    SchedMode, VmJob, VmOutcome,
};
use dbvirt_vmm::{
    AllocationMatrix, MachineSpec, ResourceDemand, ResourceVector, SimTime, VmmError,
};
use proptest::prelude::*;

const MODES: [SchedMode; 2] = [SchedMode::Capped, SchedMode::WorkConserving];
const CORES: [SchedCore; 2] = [SchedCore::Heap, SchedCore::Calendar];

/// A fleet description: per-VM share fractions and query lists.
#[derive(Debug, Clone)]
struct Fleet {
    rows: Vec<ResourceVector>,
    jobs: Vec<VmJob>,
}

fn demand(cpu: f64, seq: u64, rand: u64, writes: u64) -> ResourceDemand {
    ResourceDemand {
        cpu_cycles: cpu,
        seq_page_reads: seq,
        random_page_reads: rand,
        page_writes: writes,
    }
}

/// Query demands spanning zero-demand queries, single-resource queries, and
/// mixed CPU/disk queries at very different unit scales.
fn arb_demand() -> impl Strategy<Value = ResourceDemand> {
    (
        0u64..3_000_000_000,
        0u64..1_500,
        0u64..150,
        0u64..80,
        0u32..10,
    )
        .prop_map(|(cpu, seq, rand, writes, zero)| {
            if zero == 0 {
                // ~10% of queries are fully zero-demand: they must complete
                // instantly without ever entering the event loop.
                ResourceDemand::ZERO
            } else {
                demand(cpu as f64, seq, rand, writes)
            }
        })
}

/// Random fleets of 1–32 VMs with 0–6 queries each and feasible shares.
///
/// Share rows are raw fractions scaled down by the fleet size so every
/// column sums below 1.0 (the allocation feasibility constraint), while
/// still varying by an order of magnitude across VMs.
fn arb_fleet() -> impl Strategy<Value = Fleet> {
    prop::collection::vec(
        (
            prop::collection::vec(arb_demand(), 0..6),
            0.05f64..1.0,
            0.05f64..1.0,
        ),
        1..33,
    )
    .prop_map(|vms| {
        let n = vms.len() as f64;
        let scale = 1.0 / (n * 1.001);
        let rows = vms
            .iter()
            .map(|(_, cpu, disk)| {
                ResourceVector::from_fractions(cpu * scale, 0.5 * scale, disk * scale).unwrap()
            })
            .collect();
        let jobs = vms
            .into_iter()
            .map(|(queries, _, _)| VmJob::new(queries))
            .collect();
        Fleet { rows, jobs }
    })
}

/// Runs every implementation — the reference rescan loop, the
/// mode-selected production path, and both explicit event cores — and
/// asserts the determinism contract plus the per-VM structural
/// invariants; returns the shared outcome.
fn assert_identical(spec: MachineSpec, fleet: &Fleet, mode: SchedMode) -> Vec<VmOutcome> {
    let alloc = AllocationMatrix::new(fleet.rows.clone()).unwrap();
    let incr = co_schedule(spec, &alloc, &fleet.jobs, mode).unwrap();
    let refr = co_schedule_reference(spec, &alloc, &fleet.jobs, mode).unwrap();
    assert_eq!(
        incr, refr,
        "incremental vs reference diverged in mode {mode:?}"
    );
    for core in CORES {
        let (out, _) = co_schedule_with_core(spec, &alloc, &fleet.jobs, mode, core).unwrap();
        assert_eq!(out, refr, "{core:?} core vs reference diverged in mode {mode:?}");
    }
    for (i, (o, job)) in incr.iter().zip(&fleet.jobs).enumerate() {
        assert_eq!(
            o.query_completions.len(),
            job.queries.len(),
            "VM {i} lost or duplicated query completions"
        );
        assert!(
            o.query_completions.windows(2).all(|p| p[0] <= p[1]),
            "VM {i} query completions are not monotone: {:?}",
            o.query_completions
        );
        let last = o.query_completions.last().copied().unwrap_or(SimTime::ZERO);
        assert_eq!(o.completion, last, "VM {i} completion != last query");
    }
    incr
}

/// Class-flipping adversarial fleets: every VM's queries alternate
/// between a pure-CPU class and a pure-disk class, so in work-conserving
/// mode each phase completion changes the membership of *both* resource
/// classes and re-keys every VM in them — the maximal-re-key regime the
/// calendar core was built for (and the heap's worst case for stale
/// entries). Same shape as `ext_sched`'s benchmark mix, but with random
/// magnitudes instead of a fixed stream.
fn arb_flipping_fleet() -> impl Strategy<Value = Fleet> {
    prop::collection::vec(
        (
            prop::collection::vec((1u64..2_000_000_000, 1u64..1_200), 2..8),
            0.05f64..1.0,
            0.05f64..1.0,
        ),
        2..33,
    )
    .prop_map(|vms| {
        let n = vms.len() as f64;
        let scale = 1.0 / (n * 1.001);
        let rows = vms
            .iter()
            .map(|(_, cpu, disk)| {
                ResourceVector::from_fractions(cpu * scale, 0.5 * scale, disk * scale).unwrap()
            })
            .collect();
        let jobs = vms
            .into_iter()
            .map(|(queries, _, _)| {
                VmJob::new(
                    queries
                        .into_iter()
                        .enumerate()
                        .map(|(k, (cpu, pages))| {
                            if k % 2 == 0 {
                                demand(cpu as f64, 0, 0, 0)
                            } else {
                                demand(0.0, pages, pages / 16, 0)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        Fleet { rows, jobs }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core contract: arbitrary fleets, both modes, identical reports.
    #[test]
    fn prop_incremental_matches_reference(fleet in arb_fleet()) {
        let spec = MachineSpec::paper_testbed();
        for mode in MODES {
            assert_identical(spec, &fleet, mode);
        }
    }

    /// The class-flipping adversarial mix — the work-conserving regime's
    /// whole-class re-key storm — stays bit-identical across the
    /// reference loop and both event cores, in both modes.
    #[test]
    fn prop_class_flipping_mix_stays_identical(fleet in arb_flipping_fleet()) {
        let spec = MachineSpec::paper_testbed();
        for mode in MODES {
            assert_identical(spec, &fleet, mode);
        }
    }

    /// Identical VMs under an equal split produce exactly simultaneous
    /// completions at every phase boundary — the event-batch path — and
    /// every VM must report the same schedule in both implementations.
    #[test]
    fn prop_simultaneous_completions_stay_identical(
        queries in prop::collection::vec(arb_demand(), 1..5),
        n in 2usize..17,
    ) {
        let spec = MachineSpec::paper_testbed();
        let fleet = Fleet {
            rows: AllocationMatrix::equal_split(n).unwrap().rows().copied().collect(),
            jobs: vec![VmJob::new(queries); n],
        };
        for mode in MODES {
            let out = assert_identical(spec, &fleet, mode);
            for (i, o) in out.iter().enumerate().skip(1) {
                assert_eq!(o, &out[0], "identical VM {i} diverged from VM 0 in mode {mode:?}");
            }
        }
    }

    /// Hostile CPU demands (NaN, infinities, negatives) anywhere in the
    /// stream yield the same typed error from both paths — never a panic,
    /// never a silently skipped phase.
    #[test]
    fn prop_hostile_demands_error_identically(
        fleet in arb_fleet(),
        vm_pick in 0usize..32,
        q_pick in 0usize..8,
        which in 0usize..4,
    ) {
        let mut fleet = fleet;
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -42.0][which];
        let vm = vm_pick % fleet.jobs.len();
        let queries = &mut fleet.jobs[vm].queries;
        queries.insert(q_pick % (queries.len() + 1), demand(hostile, 5, 0, 0));
        let alloc = AllocationMatrix::new(fleet.rows.clone()).unwrap();
        for mode in MODES {
            for schedule in [co_schedule, co_schedule_reference] {
                match schedule(MachineSpec::paper_testbed(), &alloc, &fleet.jobs, mode) {
                    Err(VmmError::InvalidSchedule { reason }) => {
                        assert!(reason.contains("cpu_cycles"), "unexpected error reason: {reason}");
                    }
                    other => panic!("hostile demand {hostile} must be a typed error, got {other:?}"),
                }
            }
            for core in CORES {
                match co_schedule_with_core(
                    MachineSpec::paper_testbed(), &alloc, &fleet.jobs, mode, core,
                ) {
                    Err(VmmError::InvalidSchedule { reason }) => {
                        assert!(reason.contains("cpu_cycles"), "unexpected error reason: {reason}");
                    }
                    other => panic!(
                        "hostile demand {hostile} must be a typed error from {core:?}, got {other:?}"
                    ),
                }
            }
        }
    }

    /// Demands too large for the microsecond clock are typed errors from
    /// both paths, in both modes.
    #[test]
    fn prop_clock_overflow_errors_identically(fleet in arb_fleet(), vm_pick in 0usize..32) {
        let mut fleet = fleet;
        let vm = vm_pick % fleet.jobs.len();
        fleet.jobs[vm].queries.push(demand(1e300, 0, 0, 0));
        let alloc = AllocationMatrix::new(fleet.rows.clone()).unwrap();
        for mode in MODES {
            for schedule in [co_schedule, co_schedule_reference] {
                let res = schedule(MachineSpec::paper_testbed(), &alloc, &fleet.jobs, mode);
                prop_assert!(
                    matches!(res, Err(VmmError::InvalidSchedule { .. })),
                    "1e300 cycles must be a typed error, got {:?}",
                    res
                );
            }
            for core in CORES {
                let res = co_schedule_with_core(
                    MachineSpec::paper_testbed(), &alloc, &fleet.jobs, mode, core,
                );
                prop_assert!(
                    matches!(res, Err(VmmError::InvalidSchedule { .. })),
                    "1e300 cycles must be a typed error from {:?}, got {:?}",
                    core,
                    res
                );
            }
        }
    }

    /// The capped walk's stated `SchedStats` contract: `phase_completions`
    /// is exact (one per non-empty demand component, the number the event
    /// loop retires too) and equals `vms_touched`; `events` never exceeds
    /// it; `heap_pushes` and `heap_peak` are 0, no structure existing.
    #[test]
    fn prop_stats_are_consistent(fleet in arb_fleet()) {
        let spec = MachineSpec::paper_testbed();
        let alloc = AllocationMatrix::new(fleet.rows.clone()).unwrap();
        let phases: u64 = fleet
            .jobs
            .iter()
            .flat_map(|j| &j.queries)
            .map(|d| {
                u64::from(d.seq_page_reads > 0)
                    + u64::from(d.random_page_reads > 0)
                    + u64::from(d.cpu_cycles > 0.0)
                    + u64::from(d.page_writes > 0)
            })
            .sum();
        let (_, stats) =
            co_schedule_with_stats(spec, &alloc, &fleet.jobs, SchedMode::Capped).unwrap();
        prop_assert_eq!(stats.phase_completions, phases);
        prop_assert_eq!(stats.vms_touched, phases, "a capped completion touches only its own VM");
        prop_assert!(stats.events <= phases);
        prop_assert_eq!((stats.heap_pushes, stats.heap_peak), (0, 0));
        for core in CORES {
            let (_, looped) =
                co_schedule_with_core(spec, &alloc, &fleet.jobs, SchedMode::Capped, core).unwrap();
            prop_assert_eq!(looped.phase_completions, phases);
            prop_assert_eq!(looped.vms_touched, phases);
            prop_assert!(looped.events <= phases);
            prop_assert!(looped.heap_peak <= fleet.jobs.len() + 1);
        }
    }
}

/// Hand cases for the capped walk, each through all four implementations:
/// zero-demand queries in every position, empty jobs, and many VMs
/// completing at the same instant.
#[test]
fn capped_hand_cases_stay_identical() {
    let spec = MachineSpec::paper_testbed();
    let z = ResourceDemand::ZERO;
    let q = demand(1.4e9, 200, 10, 3);
    let streams: Vec<Vec<ResourceDemand>> = vec![
        vec![],
        vec![z],
        vec![z, z, z],
        vec![z, q],
        vec![q, z],
        vec![z, z, q, z, z, q, z],
        vec![q, demand(0.0, 0, 0, 7), z, demand(2.9e4, 0, 0, 0)],
    ];
    // Every stream next to every other one, on unequal shares.
    let mixed = Fleet {
        rows: (0..streams.len())
            .map(|i| {
                let f = (1.0 + i as f64) / 40.0;
                ResourceVector::from_fractions(f, 0.1, 0.2 - f).unwrap()
            })
            .collect(),
        jobs: streams.iter().cloned().map(VmJob::new).collect(),
    };
    let out = assert_identical(spec, &mixed, SchedMode::Capped);
    assert_eq!(out[0].completion, SimTime::ZERO);
    assert_eq!(out[2].query_completions, vec![SimTime::ZERO; 3]);
    assert_eq!(out[3].query_completions[0], SimTime::ZERO);
    assert_eq!(out[4].query_completions[0], out[4].query_completions[1]);
    // Only empty jobs: nothing to schedule at all.
    let idle = Fleet {
        rows: AllocationMatrix::equal_split(3).unwrap().rows().copied().collect(),
        jobs: vec![VmJob::new(vec![]); 3],
    };
    assert_identical(spec, &idle, SchedMode::Capped);
    // 24 identical VMs: every phase boundary is one 24-way simultaneous batch.
    for stream in &streams {
        let same = Fleet {
            rows: AllocationMatrix::equal_split(24).unwrap().rows().copied().collect(),
            jobs: vec![VmJob::new(stream.clone()); 24],
        };
        let out = assert_identical(spec, &same, SchedMode::Capped);
        assert!(out.iter().all(|o| o == &out[0]));
    }
}

/// A demand that overflows the virtual clock is the same
/// `VmmError::InvalidSchedule` variant from all four capped
/// implementations, wherever it sits. The event loops meet offenders in
/// event order, the walk in VM order: with several offending VMs the walk
/// reports the lowest-indexed one (here VM 1's instant, not VM 2's).
#[test]
fn capped_clock_overflow_is_the_same_variant_everywhere() {
    let spec = MachineSpec::paper_testbed();
    let alloc = AllocationMatrix::equal_split(3).unwrap();
    let q = demand(1.4e9, 200, 10, 3);
    let jobs = [
        VmJob::new(vec![q, q]),
        VmJob::new(vec![q, q, demand(1e300, 0, 0, 0), q]),
        VmJob::new(vec![demand(1e301, 0, 0, 0)]),
    ];
    let reason = |r: Result<Vec<VmOutcome>, VmmError>| match r {
        Err(VmmError::InvalidSchedule { reason }) => reason,
        other => panic!("expected InvalidSchedule, got {other:?}"),
    };
    let walk = reason(co_schedule(spec, &alloc, &jobs, SchedMode::Capped));
    reason(co_schedule_reference(spec, &alloc, &jobs, SchedMode::Capped));
    for core in CORES {
        let looped = co_schedule_with_core(spec, &alloc, &jobs, SchedMode::Capped, core);
        reason(looped.map(|(out, _)| out));
    }
    let only_vm1 = [jobs[0].clone(), jobs[1].clone(), jobs[0].clone()];
    let alone = reason(co_schedule(spec, &alloc, &only_vm1, SchedMode::Capped));
    assert_eq!(walk, alone, "the walk must report VM 1, the lowest-indexed offender");
}
