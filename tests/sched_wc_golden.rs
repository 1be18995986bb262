//! Golden work-conserving schedules: every completion instant the
//! co-scheduler reports in `SchedMode::WorkConserving`, to the bit, with
//! the work counters it reports beside them.
//!
//! `tests/golden/sched_wc_bits.txt` was captured from the commit *before*
//! the event-driven loop and its calendar queue were deleted (this file
//! run there with `GOLDEN_REGENERATE=1`), when work-conserving
//! `co_schedule` was that loop. Work-conserving now has one
//! implementation, so this file — not a second implementation — is what
//! holds it: a change that moves one completion by a microsecond, batches
//! two instants into one event or re-anchors one VM more or less fails
//! here. `tests/golden/sched_fingerprints.txt` (the 48 `ext_sched`
//! configurations, captured earlier still) is replayed too, so both modes
//! of that sweep are pinned by `cargo test` and not only by the replay
//! gate.

mod common;

use dbvirt::vmm::kernel::SplitMix64;
use dbvirt::vmm::sched::{
    co_schedule, co_schedule_reference, co_schedule_with_stats, SchedMode, VmJob,
};
use dbvirt::vmm::{AllocationMatrix, MachineSpec, ResourceDemand, ResourceVector};
use dbvirt_bench::{completions_fingerprint, experiment_machine, sched_sweep_fleet};
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/sched_wc_bits.txt";
const SWEEP_GOLDEN: &str = "tests/golden/sched_fingerprints.txt";

fn demand(cpu: u64, seq: u64, rand: u64, writes: u64) -> ResourceDemand {
    ResourceDemand {
        cpu_cycles: cpu as f64,
        seq_page_reads: seq,
        random_page_reads: rand,
        page_writes: writes,
    }
}

/// A uniform draw from `[lo, hi)`.
fn unit(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next() >> 11) as f64 / (1u64 << 53) as f64)
}

/// `n` unequal share rows — an order of magnitude apart — scaled so every
/// column sums below one.
fn unequal_rows(rng: &mut SplitMix64, n: usize) -> Vec<ResourceVector> {
    let scale = 1.0 / (n as f64 * 1.001);
    (0..n)
        .map(|_| {
            let (cpu, disk) = (unit(rng, 0.05, 1.0), unit(rng, 0.05, 1.0));
            ResourceVector::from_fractions(cpu * scale, 0.5 * scale, disk * scale).unwrap()
        })
        .collect()
}

/// 0–6 queries: one in ten fully zero-demand, the rest mixing both
/// resource classes at very different unit scales.
fn mixed_job(rng: &mut SplitMix64) -> VmJob {
    let queries = (0..rng.next() % 7)
        .map(|_| {
            let r = rng.next();
            if r % 10 == 0 {
                ResourceDemand::ZERO
            } else {
                demand(
                    (r >> 8) % 3_000_000_000,
                    (r >> 40) % 1_500,
                    (r >> 52) % 150,
                    (r >> 4) % 80,
                )
            }
        })
        .collect();
    VmJob::new(queries)
}

/// 2–7 queries alternating pure CPU and pure disk, so every completion
/// changes the membership of both resource classes.
fn flipping_job(rng: &mut SplitMix64) -> VmJob {
    let queries = (0..2 + rng.next() % 6)
        .map(|k| {
            let r = rng.next();
            if k % 2 == 0 {
                demand(1 + (r >> 8) % 2_000_000_000, 0, 0, 0)
            } else {
                let pages = 1 + (r >> 40) % 1_200;
                demand(0, pages, pages / 16, 0)
            }
        })
        .collect();
    VmJob::new(queries)
}

/// The seeded fleets, by family:
///
/// * `mixed` — unequal shares, zero-demand queries in every position;
/// * `flip` — the class-flipping mix on unequal shares;
/// * `twins` — unequal shares, but VMs `2k` and `2k + 1` hold the same row
///   and run the same job, so every phase boundary of a pair is an exactly
///   simultaneous completion inside a fleet that is otherwise staggered;
/// * `same` — `n` identical VMs on an equal split: every event is one
///   `n`-way batch.
fn fleets() -> Vec<(String, Vec<ResourceVector>, Vec<VmJob>)> {
    let mut out = Vec::new();
    for n in [1usize, 2, 3, 4, 5, 8, 12, 16, 24, 32] {
        for seed in 0..3u64 {
            let mut rng = SplitMix64(0x5eed_0000 ^ (n as u64) << 8 ^ seed);
            let rows = unequal_rows(&mut rng, n);
            let jobs = (0..n).map(|_| mixed_job(&mut rng)).collect();
            out.push((format!("mixed_{n}vm_s{seed}"), rows, jobs));
        }
    }
    for n in [2usize, 3, 4, 8, 16, 32] {
        for seed in 0..2u64 {
            let mut rng = SplitMix64(0xf11b_0000 ^ (n as u64) << 8 ^ seed);
            let rows = unequal_rows(&mut rng, n);
            let jobs = (0..n).map(|_| flipping_job(&mut rng)).collect();
            out.push((format!("flip_{n}vm_s{seed}"), rows, jobs));
        }
    }
    for n in [2usize, 4, 8, 16, 32] {
        let mut rng = SplitMix64(0x7215_0000 ^ (n as u64) << 8);
        let half = unequal_rows(&mut rng, n / 2);
        // Two VMs per row: halve each row so the columns still fit.
        let rows = half
            .iter()
            .flat_map(|r| {
                let row = ResourceVector::from_fractions(
                    r.cpu().fraction() / 2.0,
                    r.memory().fraction() / 2.0,
                    r.disk().fraction() / 2.0,
                )
                .unwrap();
                [row, row]
            })
            .collect();
        let jobs = (0..n / 2)
            .flat_map(|k| {
                let job = if k % 2 == 0 {
                    mixed_job(&mut rng)
                } else {
                    flipping_job(&mut rng)
                };
                [job.clone(), job]
            })
            .collect();
        out.push((format!("twins_{n}vm"), rows, jobs));
    }
    for n in [2usize, 7, 32] {
        let mut rng = SplitMix64(0x5a4e_0000 ^ (n as u64) << 8);
        let rows = AllocationMatrix::equal_split(n)
            .unwrap()
            .rows()
            .copied()
            .collect();
        let mut job = flipping_job(&mut rng);
        job.queries.insert(1, ResourceDemand::ZERO);
        job.queries.extend(mixed_job(&mut rng).queries);
        out.push((format!("same_{n}vm"), rows, vec![job; n]));
    }
    out
}

fn render() -> String {
    let spec = MachineSpec::paper_testbed();
    let mut out = String::new();
    for (name, rows, jobs) in fleets() {
        let alloc = AllocationMatrix::new(rows).unwrap();
        let (outcomes, stats) =
            co_schedule_with_stats(spec, &alloc, &jobs, SchedMode::WorkConserving).unwrap();
        writeln!(
            out,
            "{name} fp={:016x} events={} phases={} touched={}",
            completions_fingerprint(&outcomes),
            stats.events,
            stats.phase_completions,
            stats.vms_touched
        )
        .unwrap();
    }
    out
}

#[test]
fn every_work_conserving_fleet_completes_at_the_committed_bits() {
    common::assert_golden(GOLDEN, &render());
}

/// The 48 `SCHED_FINGERPRINT` lines of `ext_sched`, from `co_schedule` and
/// from the oracle.
#[test]
fn the_ext_sched_sweep_completes_at_the_committed_fingerprints() {
    let spec = experiment_machine();
    let golden = std::fs::read_to_string(SWEEP_GOLDEN).expect("golden file");
    let mut lines = golden.lines();
    for vms in [1usize, 2, 4, 8, 16, 32] {
        let alloc = AllocationMatrix::equal_split(vms).unwrap();
        for queries in [4usize, 16, 64, 256] {
            let jobs = sched_sweep_fleet(vms, queries);
            for (mode, tag) in [
                (SchedMode::Capped, "capped"),
                (SchedMode::WorkConserving, "wc"),
            ] {
                let want = lines.next().expect("48 golden lines");
                for schedule in [co_schedule, co_schedule_reference] {
                    let out = schedule(spec, &alloc, &jobs, mode).unwrap();
                    let got = format!(
                        "SCHED_FINGERPRINT {vms}vm_{queries}q_{tag}={:016x}",
                        completions_fingerprint(&out)
                    );
                    assert_eq!(got, want);
                }
            }
        }
    }
    assert_eq!(lines.next(), None);
}
