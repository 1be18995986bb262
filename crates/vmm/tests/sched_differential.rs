//! Differential and property suite for the co-scheduler.
//!
//! `crates/vmm/src/sched` has one path per mode and one oracle, and this
//! file holds each to what can be held without a third implementation:
//!
//! * **Capped** — the per-VM closed-form walk behind [`co_schedule`] must
//!   report completions **identical** to the rescan loop
//!   ([`co_schedule_reference`]): the reported `SimTime`s compare equal,
//!   which at the microsecond clock's integer representation means
//!   bit-identical. Checked across random fleets, the class-flipping mix,
//!   zero-demand queries, exactly simultaneous completions, and hostile
//!   demands (the same typed error from both, never a panic).
//! * **Work-conserving** — the rescan loop *is* the production path, so
//!   there is nothing to diff it against; `tests/sched_wc_golden.rs` pins
//!   its completions to the bit, and here every generator also checks what
//!   must hold analytically: a lone VM owns the machine, two identical VMs
//!   at equal shares each own half of it, nobody finishes later than under
//!   caps, and the work counters stay consistent.

use dbvirt_vmm::sched::{
    co_schedule, co_schedule_reference, co_schedule_with_stats, SchedMode, VmJob, VmOutcome,
};
use dbvirt_vmm::{
    AllocationMatrix, MachineSpec, ResourceDemand, ResourceVector, SimTime, VmmError,
};
use proptest::prelude::*;

const MODES: [SchedMode; 2] = [SchedMode::Capped, SchedMode::WorkConserving];

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

/// Per-VM structure every report must have, whatever produced it.
fn assert_well_formed(out: &[VmOutcome], fleet: &Fleet) {
    for (i, (o, job)) in out.iter().zip(&fleet.jobs).enumerate() {
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
}

/// Non-empty demand components across the fleet: the phases any run retires.
fn phase_count(fleet: &Fleet) -> u64 {
    fleet
        .jobs
        .iter()
        .flat_map(|j| &j.queries)
        .map(|d| {
            u64::from(d.seq_page_reads > 0)
                + u64::from(d.random_page_reads > 0)
                + u64::from(d.cpu_cycles > 0.0)
                + u64::from(d.page_writes > 0)
        })
        .sum()
}

/// Both modes of one fleet. Capped: the walk and the rescan loop report
/// identical completions, and the walk's stated `SchedStats` contract
/// holds (`events == vms_touched == phase_completions`, exact).
/// Work-conserving: every query completes no later than under caps (a
/// microsecond of reporting slack), and the loop's counters are consistent
/// — every phase retired once, batches never outnumber phases, every
/// completion counted as a touch. Returns `(capped, work-conserving)`.
fn check_fleet(spec: MachineSpec, fleet: &Fleet) -> (Vec<VmOutcome>, Vec<VmOutcome>) {
    let alloc = AllocationMatrix::new(fleet.rows.clone()).unwrap();
    let phases = phase_count(fleet);

    let (walk, stats) =
        co_schedule_with_stats(spec, &alloc, &fleet.jobs, SchedMode::Capped).unwrap();
    let refr = co_schedule_reference(spec, &alloc, &fleet.jobs, SchedMode::Capped).unwrap();
    assert_eq!(walk, refr, "capped walk vs rescan loop diverged");
    assert_well_formed(&walk, fleet);
    assert_eq!(
        (stats.events, stats.phase_completions, stats.vms_touched),
        (phases, phases, phases),
        "a capped completion is one event touching only its own VM"
    );

    let (wc, stats) =
        co_schedule_with_stats(spec, &alloc, &fleet.jobs, SchedMode::WorkConserving).unwrap();
    assert_well_formed(&wc, fleet);
    for (i, (w, c)) in wc.iter().zip(&walk).enumerate() {
        for (q, (tw, tc)) in w
            .query_completions
            .iter()
            .zip(&c.query_completions)
            .enumerate()
        {
            assert!(
                tw.as_micros() <= tc.as_micros() + 1,
                "VM {i} query {q}: work-conserving {tw:?} later than capped {tc:?}"
            );
        }
    }
    assert_eq!(stats.phase_completions, phases);
    assert!(stats.events <= stats.phase_completions, "{stats:?}");
    assert!(stats.vms_touched >= stats.phase_completions, "{stats:?}");
    (walk, wc)
}

/// Class-flipping adversarial fleets: every VM's queries alternate
/// between a pure-CPU class and a pure-disk class, so in work-conserving
/// mode each phase completion changes the membership of *both* resource
/// classes and re-anchors every VM in them. Same shape as EXT-SCHED's
/// benchmark mix, but with random magnitudes instead of a fixed stream.
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

    /// The core contract on arbitrary fleets: capped walk ≡ rescan loop,
    /// work-conserving within its analytic bounds.
    #[test]
    fn prop_random_fleets_hold_both_contracts(fleet in arb_fleet()) {
        check_fleet(MachineSpec::paper_testbed(), &fleet);
    }

    /// The class-flipping adversarial mix — every work-conserving event
    /// re-anchors whole classes — holds both contracts too.
    #[test]
    fn prop_class_flipping_mix_holds_both_contracts(fleet in arb_flipping_fleet()) {
        check_fleet(MachineSpec::paper_testbed(), &fleet);
    }

    /// Identical VMs under an equal split produce exactly simultaneous
    /// completions at every phase boundary — the event-batch path — and
    /// every VM must report the same schedule, in both modes.
    #[test]
    fn prop_simultaneous_completions_stay_identical(
        queries in prop::collection::vec(arb_demand(), 1..5),
        n in 2usize..17,
    ) {
        let fleet = Fleet {
            rows: AllocationMatrix::equal_split(n).unwrap().rows().copied().collect(),
            jobs: vec![VmJob::new(queries); n],
        };
        let (capped, wc) = check_fleet(MachineSpec::paper_testbed(), &fleet);
        for out in [capped, wc] {
            for (i, o) in out.iter().enumerate().skip(1) {
                assert_eq!(o, &out[0], "identical VM {i} diverged from VM 0");
            }
        }
    }

    /// A lone work-conserving VM owns the machine whatever its configured
    /// shares: its effective share is `s / s`, exactly one, so its run is
    /// the capped run of a VM holding the full machine — to the bit.
    #[test]
    fn prop_a_lone_work_conserving_vm_runs_as_capped_at_the_full_machine(
        queries in prop::collection::vec(arb_demand(), 0..8),
        cpu in 0.05f64..1.0,
        disk in 0.05f64..1.0,
    ) {
        let spec = MachineSpec::paper_testbed();
        let jobs = [VmJob::new(queries)];
        let own = AllocationMatrix::new(vec![
            ResourceVector::from_fractions(cpu, 0.5, disk).unwrap(),
        ]).unwrap();
        let full = AllocationMatrix::new(vec![ResourceVector::full_machine()]).unwrap();
        prop_assert_eq!(
            co_schedule(spec, &own, &jobs, SchedMode::WorkConserving).unwrap(),
            co_schedule(spec, &full, &jobs, SchedMode::Capped).unwrap()
        );
    }

    /// Two identical work-conserving VMs at equal shares always demand the
    /// same class together, so each holds `s / (s + s)`, exactly half:
    /// both run as a capped VM holding half the machine — to the bit.
    #[test]
    fn prop_identical_work_conserving_twins_run_as_capped_at_half_the_machine(
        queries in prop::collection::vec(arb_demand(), 0..8),
        cpu in 0.05f64..0.5,
        disk in 0.05f64..0.5,
    ) {
        let spec = MachineSpec::paper_testbed();
        let job = VmJob::new(queries);
        let row = ResourceVector::from_fractions(cpu, 0.5, disk).unwrap();
        let twins = AllocationMatrix::new(vec![row, row]).unwrap();
        let wc = co_schedule(spec, &twins, &[job.clone(), job.clone()], SchedMode::WorkConserving)
            .unwrap();
        let half = AllocationMatrix::new(vec![
            ResourceVector::from_fractions(0.5, 0.5, 0.5).unwrap(),
        ]).unwrap();
        let capped = co_schedule(spec, &half, &[job], SchedMode::Capped).unwrap();
        prop_assert_eq!(&wc[0], &capped[0]);
        prop_assert_eq!(&wc[1], &capped[0]);
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
        }
    }
}

/// Hand cases, each through both modes: zero-demand queries in every
/// position, empty jobs, and many VMs completing at the same instant.
#[test]
fn hand_cases_hold_both_contracts() {
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
    let (capped, wc) = check_fleet(spec, &mixed);
    for out in [capped, wc] {
        assert_eq!(out[0].completion, SimTime::ZERO);
        assert_eq!(out[2].query_completions, vec![SimTime::ZERO; 3]);
        assert_eq!(out[3].query_completions[0], SimTime::ZERO);
        assert_eq!(out[4].query_completions[0], out[4].query_completions[1]);
    }
    // Only empty jobs: nothing to schedule at all.
    let idle = Fleet {
        rows: AllocationMatrix::equal_split(3)
            .unwrap()
            .rows()
            .copied()
            .collect(),
        jobs: vec![VmJob::new(vec![]); 3],
    };
    check_fleet(spec, &idle);
    // 24 identical VMs: every phase boundary is one 24-way simultaneous batch.
    for stream in &streams {
        let same = Fleet {
            rows: AllocationMatrix::equal_split(24)
                .unwrap()
                .rows()
                .copied()
                .collect(),
            jobs: vec![VmJob::new(stream.clone()); 24],
        };
        let (capped, wc) = check_fleet(spec, &same);
        assert!(capped.iter().all(|o| o == &capped[0]));
        assert!(wc.iter().all(|o| o == &wc[0]));
    }
}

/// A demand that overflows the virtual clock is the same
/// `VmmError::InvalidSchedule` variant from the walk and the rescan loop,
/// wherever it sits. The loop meets offenders in event order, the walk in
/// VM order: with several offending VMs the walk reports the
/// lowest-indexed one (here VM 1's instant, not VM 2's).
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
    reason(co_schedule_reference(
        spec,
        &alloc,
        &jobs,
        SchedMode::Capped,
    ));
    let only_vm1 = [jobs[0].clone(), jobs[1].clone(), jobs[0].clone()];
    let alone = reason(co_schedule(spec, &alloc, &only_vm1, SchedMode::Capped));
    assert_eq!(
        walk, alone,
        "the walk must report VM 1, the lowest-indexed offender"
    );
}
