//! EXT-SCHED — the co-scheduler's production path vs its oracle, the
//! whole-machine rescan loop.
//!
//! Runs the pinned 48-configuration sweep (6 VM counts × 4 stream lengths
//! × 2 scheduling modes) over deterministic synthetic fleets. For every
//! configuration `co_schedule` (a per-VM closed-form walk in capped mode,
//! the rescan loop itself in work-conserving mode) and
//! `co_schedule_reference` must report **identical** completions (the
//! determinism contract of `dbvirt_vmm::sched`); wall clock, event counts,
//! and per-event VM-touch locality are recorded to `BENCH_sched.json`, and
//! the sweep asserts the headline claim: at 16 VMs the capped walk is at
//! least 3× faster than the rescan loop. Work-conserving rows time one
//! loop against itself (the production entry adds a disabled span and the
//! counters) and are there for the event and locality columns.
//!
//! One `SCHED_FINGERPRINT` line per configuration (an FNV-1a hash of every
//! reported completion instant) lets `scripts/replay_gate.sh` diff two
//! independent processes, and the committed golden, for bit-identical
//! behaviour.

use std::time::Instant;

use dbvirt_bench::{
    completions_fingerprint, experiment_machine, print_table, sched_sweep_fleet,
    write_bench_artifact,
};
use dbvirt_calibrate::json::Json;
use dbvirt_vmm::sched::{co_schedule_reference, co_schedule_with_stats, SchedMode, SchedStats};
use dbvirt_vmm::AllocationMatrix;

const VM_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const QUERY_COUNTS: [usize; 4] = [4, 16, 64, 256];
const MODES: [(SchedMode, &str); 2] = [
    (SchedMode::Capped, "capped"),
    (SchedMode::WorkConserving, "wc"),
];
const TIMING_REPS: usize = 3;

struct ConfigResult {
    vms: usize,
    queries: usize,
    mode_name: &'static str,
    /// The production path (`co_schedule`) and its counters.
    prod_secs: f64,
    ref_secs: f64,
    stats: SchedStats,
    fp: u64,
}

fn main() {
    // Telemetry stays disabled: production callers run with it off, and the
    // timing comparison must not charge the production path for the
    // instrumentation the oracle does not carry.
    let wall_start = Instant::now();
    let spec = experiment_machine();

    let mut results: Vec<ConfigResult> = Vec::new();
    for vms in VM_COUNTS {
        let alloc = AllocationMatrix::equal_split(vms).unwrap();
        for queries in QUERY_COUNTS {
            let jobs = sched_sweep_fleet(vms, queries);
            for (mode, mode_name) in MODES {
                // Identity first: both must agree on every completion
                // before their speeds are compared.
                let (prod_out, stats) =
                    co_schedule_with_stats(spec, &alloc, &jobs, mode).expect("production run");
                let ref_out =
                    co_schedule_reference(spec, &alloc, &jobs, mode).expect("reference run");
                assert_eq!(
                    prod_out, ref_out,
                    "co_schedule diverged at {vms} VMs × {queries} queries ({mode_name})"
                );

                // Best-of-N wall clock for each.
                let mut prod_secs = f64::INFINITY;
                let mut ref_secs = f64::INFINITY;
                for _ in 0..TIMING_REPS {
                    let t = Instant::now();
                    let out = co_schedule_with_stats(spec, &alloc, &jobs, mode).unwrap();
                    prod_secs = prod_secs.min(t.elapsed().as_secs_f64());
                    assert_eq!(out.0, ref_out, "production run is not deterministic");

                    let t = Instant::now();
                    let out = co_schedule_reference(spec, &alloc, &jobs, mode).unwrap();
                    ref_secs = ref_secs.min(t.elapsed().as_secs_f64());
                    assert_eq!(out, ref_out, "reference run is not deterministic");
                }

                results.push(ConfigResult {
                    vms,
                    queries,
                    mode_name,
                    prod_secs,
                    ref_secs,
                    stats,
                    fp: completions_fingerprint(&ref_out),
                });
            }
        }
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.vms),
                format!("{}", r.queries),
                r.mode_name.to_string(),
                format!("{}", r.stats.events),
                format!(
                    "{:.2}",
                    r.stats.vms_touched as f64 / r.stats.events.max(1) as f64
                ),
                format!("{:.1}µs", r.prod_secs * 1e6),
                format!("{:.1}µs", r.ref_secs * 1e6),
                format!("{:.2}x", r.ref_secs / r.prod_secs),
            ]
        })
        .collect();
    print_table(
        "EXT-SCHED: production path vs reference rescan loop",
        &[
            "vms",
            "queries",
            "mode",
            "events",
            "touch/evt",
            "production",
            "reference",
            "speedup",
        ],
        &rows,
    );

    // Aggregate capped speedup per VM count (total reference time / total
    // walk time across that VM count's 4 stream lengths). Capped is what
    // every controller epoch, regret replay, measured oracle and fig5 runs,
    // and the one mode with two implementations to compare.
    let mut speedup_rows = Vec::new();
    let mut speedup_16_capped = 0.0;
    for vms in VM_COUNTS {
        let (prod, refr) = results
            .iter()
            .filter(|r| r.vms == vms && r.mode_name == "capped")
            .fold((0.0, 0.0), |(a, b), r| (a + r.prod_secs, b + r.ref_secs));
        let speedup = refr / prod;
        if vms == 16 {
            speedup_16_capped = speedup;
        }
        speedup_rows.push(vec![format!("{vms}"), format!("{speedup:.2}x")]);
    }
    print_table(
        "Aggregate capped speedup by fleet size",
        &["vms", "walk vs rescan"],
        &speedup_rows,
    );
    assert!(
        speedup_16_capped >= 3.0,
        "headline claim violated: the capped walk must be >= 3x the rescan loop at 16 VMs, \
         got {speedup_16_capped:.2}x"
    );
    println!(
        "\nShape check: co_schedule and co_schedule_reference agree on all {} configurations; \
         the capped walk clears 3x at 16 VMs ({speedup_16_capped:.2}x).",
        results.len()
    );

    // One stable line per configuration for shell-level double-run diffing.
    for r in &results {
        println!(
            "SCHED_FINGERPRINT {}vm_{}q_{}={:016x}",
            r.vms, r.queries, r.mode_name, r.fp
        );
    }

    let per_config: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj([
                ("vms", Json::Num(r.vms as f64)),
                ("queries_per_vm", Json::Num(r.queries as f64)),
                ("mode", Json::Str(r.mode_name.to_string())),
                ("production_secs", Json::Num(r.prod_secs)),
                ("reference_secs", Json::Num(r.ref_secs)),
                ("speedup", Json::Num(r.ref_secs / r.prod_secs)),
                ("events", Json::Num(r.stats.events as f64)),
                (
                    "phase_completions",
                    Json::Num(r.stats.phase_completions as f64),
                ),
                ("vms_touched", Json::Num(r.stats.vms_touched as f64)),
                (
                    "vms_touched_per_event",
                    Json::Num(r.stats.vms_touched as f64 / r.stats.events.max(1) as f64),
                ),
                ("fingerprint", Json::Str(format!("{:016x}", r.fp))),
            ])
        })
        .collect();
    let bench = Json::obj([
        ("experiment", Json::Str("ext_sched".to_string())),
        ("wall_secs", Json::Num(wall_start.elapsed().as_secs_f64())),
        ("configurations", Json::Num(results.len() as f64)),
        ("timing_reps", Json::Num(TIMING_REPS as f64)),
        ("speedup_at_16_vms_capped", Json::Num(speedup_16_capped)),
        ("per_config", Json::Arr(per_config)),
    ]);
    write_bench_artifact("BENCH_sched.json", &bench.pretty());
}
