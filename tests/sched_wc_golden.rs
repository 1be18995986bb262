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
//! here. `tests/golden/sched_fingerprints.txt` (EXT-SCHED's 48-configuration
//! sweep, captured earlier still) is replayed too, so both modes of that
//! sweep are pinned, and so is the capped walk's speed over the rescan
//! loop at 16 VMs.

mod common;

use dbvirt::vmm::kernel::{Fnv1a, SplitMix64};
use dbvirt::vmm::sched::{
    co_schedule, co_schedule_reference, co_schedule_with_stats, SchedMode, VmJob, VmOutcome,
};
use dbvirt::vmm::{AllocationMatrix, MachineSpec, ResourceDemand, ResourceVector};
use dbvirt_bench::experiment_machine;
use std::fmt::Write;
use std::time::Instant;

const GOLDEN: &str = "tests/golden/sched_wc_bits.txt";
const SWEEP_GOLDEN: &str = "tests/golden/sched_fingerprints.txt";
/// EXT-SCHED's per-VM stream lengths.
const SWEEP_QUERIES: [usize; 4] = [4, 16, 64, 256];

/// FNV-1a over every reported completion instant, query by query.
fn completions_fingerprint(outcomes: &[VmOutcome]) -> u64 {
    let mut h = Fnv1a::new();
    for o in outcomes {
        h.u64(o.completion.as_micros());
        for t in &o.query_completions {
            h.u64(t.as_micros());
        }
    }
    h.finish()
}

/// EXT-SCHED's deterministic fleet: per-VM query streams mixing CPU-heavy,
/// I/O-heavy, balanced and zero-demand queries, so both resource classes
/// stay contended and phase kinds alternate (the work-conserving worst
/// case).
fn sched_sweep_fleet(vms: usize, queries: usize) -> Vec<VmJob> {
    let mut mix = SplitMix64((vms as u64) << 32 | queries as u64);
    (0..vms)
        .map(|_| {
            let stream = (0..queries)
                .map(|_| {
                    let r = mix.next();
                    let cpu = (r >> 8) % 2_000_000_000;
                    let seq = (r >> 40) % 1_200;
                    let rand = (r >> 50) % 120;
                    match r % 10 {
                        0..=3 => demand(cpu + 100_000_000, 0, 0, 0),
                        4..=6 => demand(0, seq + 50, rand, r % 40),
                        7..=8 => demand(cpu / 2, seq, rand, 0),
                        _ => ResourceDemand::ZERO,
                    }
                })
                .collect();
            VmJob::new(stream)
        })
        .collect()
}

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
            if r.is_multiple_of(10) {
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

/// The 48 `SCHED_FINGERPRINT` lines of EXT-SCHED, from `co_schedule` and
/// from the oracle.
#[test]
fn the_ext_sched_sweep_completes_at_the_committed_fingerprints() {
    let spec = experiment_machine();
    let golden = std::fs::read_to_string(SWEEP_GOLDEN).expect("golden file");
    let mut lines = golden.lines();
    for vms in [1usize, 2, 4, 8, 16, 32] {
        let alloc = AllocationMatrix::equal_split(vms).unwrap();
        for queries in SWEEP_QUERIES {
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

/// The capped walk is what every controller epoch, regret replay, measured
/// oracle and `fig5` run. At 16 VMs it must take at most a third of the
/// rescan loop's wall clock: best of three runs each, summed over the
/// sweep's four stream lengths.
#[test]
fn the_capped_walk_is_at_least_3x_the_rescan_loop_at_16_vms() {
    let spec = experiment_machine();
    let alloc = AllocationMatrix::equal_split(16).unwrap();
    let (mut walk, mut rescan) = (0.0, 0.0);
    for queries in SWEEP_QUERIES {
        let jobs = sched_sweep_fleet(16, queries);
        let (mut best_walk, mut best_rescan) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let t = Instant::now();
            co_schedule(spec, &alloc, &jobs, SchedMode::Capped).unwrap();
            best_walk = best_walk.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            co_schedule_reference(spec, &alloc, &jobs, SchedMode::Capped).unwrap();
            best_rescan = best_rescan.min(t.elapsed().as_secs_f64());
        }
        walk += best_walk;
        rescan += best_rescan;
    }
    let speedup = rescan / walk;
    println!("capped walk vs rescan at 16 VMs: {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "the capped walk must be >= 3x the rescan loop at 16 VMs, got {speedup:.2}x"
    );
}
