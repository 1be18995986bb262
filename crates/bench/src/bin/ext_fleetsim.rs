//! EXT-FLEETSIM — thousand-VM end-to-end: place a 1024-VM fleet across
//! 128 heterogeneous machines with the fleet advisor, then *execute* the
//! placement through the parallel per-machine co-scheduler
//! (`dbvirt_fleet::simulate_placement`) and set the simulated weighted
//! total against the placement's predicted objective.
//!
//! Per-VM demand streams come from the measured oracle
//! (`dbvirt_core::measure::workload_demands`): each (mix, machine class)
//! pair is executed once through the real engine under the forced 1-unit
//! share, then reused for every VM of that pair — 12 engine runs feed
//! 1024 simulated VMs.
//!
//! Pins enforced by this binary (and replayed by `scripts/replay_gate.sh`):
//!
//! * the fleet is at least 1024 VMs across at least 32 machines, driven
//!   end to end (place → simulate → report);
//! * simulation reports are **bit-identical** between serial and
//!   per-core parallel machine execution, in both scheduling modes
//!   (`FLEETSIM_FINGERPRINT` lines, diffed across two process runs);
//! * work conservation never makes the fleet slower than capped mode;
//! * the simulated per-run total lands within an order of magnitude of
//!   the placement's model-predicted objective (the model and the
//!   measured streams must describe the same fleet).

use dbvirt_bench::{experiment_machine, print_table, write_bench_artifact};
use dbvirt_calibrate::json::Json;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::measure::workload_demands;
use dbvirt_core::{CalibratedCostModel, CostModel};
use dbvirt_fleet::{simulate_placement, FleetAdvisor, FleetConfig, FleetProblem, FleetVm};
use dbvirt_telemetry::SinkConfig;
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt_vmm::sched::{SchedMode, VmJob};
use dbvirt_vmm::{MachineSpec, ResourceVector};

const UNITS: u32 = 8;
const VMS: usize = 1024;
const SMALL_MACHINES: usize = 64;
const BIG_MACHINES: usize = 64;
/// Each VM's measured demand stream is repeated this many times, so the
/// simulation carries real event volume (~6–12 phases per VM) while the
/// predicted objective stays per-run (divide the simulated total by this
/// to compare).
const STREAM_REPEATS: usize = 6;

/// Same compute-optimized second class as `ext_fleet`: 35% faster cores,
/// a quarter of the memory, 6x the sequential disk bandwidth.
fn big_machine() -> MachineSpec {
    let mut m = experiment_machine();
    m.cycles_per_sec *= 1.35;
    m.memory_bytes /= 4;
    m.disk_seq_bytes_per_sec *= 6.0;
    m
}

fn fleet_vms<'a>(t: &'a TpchDb, mixes: &'a [Workload], n: usize) -> Vec<FleetVm<'a>> {
    (0..n)
        .map(|i| {
            let mix = &mixes[i % mixes.len()];
            FleetVm::new(format!("vm{:04}-{}", i, mix.name), &t.db, mix.queries.clone())
                .with_weight(0.5 + (i % 5) as f64 * 0.45)
        })
        .collect()
}

fn main() {
    dbvirt_telemetry::enable();
    // Persistent sink: a day-long simulation stays profilable after the
    // fact without unbounded span memory. The flushed file is the same
    // version-1 JSON the exporters read.
    dbvirt_telemetry::attach_sink(
        SinkConfig::new("fleetsim_trace.json")
            .with_ring_capacity(8192)
            .with_flush_every(4096),
    );
    let wall_start = std::time::Instant::now();
    println!("Generating TPC-H (SF {:.3}) ...", TpchConfig::tiny().scale);
    let mut t = TpchDb::generate(TpchConfig::tiny()).expect("tpch generation");

    let mixes: Vec<Workload> = vec![
        Workload::compose(&t, &[(TpchQuery::Q6, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q1, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q14, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q4, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q6, 2)]),
        Workload::compose(&t, &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 1)]),
    ];

    let cfg = {
        let mut c = FleetConfig::new(UNITS).with_parallelism(1);
        // 128 full machines: the placement is capacity-forced (every VM
        // at the 1-unit floor), so keep the ladder short — the sampled
        // swap neighborhood does the searching.
        c.max_rounds = 2;
        c.lp_iterations = 60;
        c
    };
    let small = experiment_machine();
    let big = big_machine();
    let classes = [small, big];

    // Measured demand streams, one engine run per (class, mix) pair under
    // the forced 1-unit share — the exact share the placement will grant.
    println!(
        "Measuring demand streams ({} classes x {} mixes = {} engine runs) ...",
        classes.len(),
        mixes.len(),
        classes.len() * mixes.len()
    );
    let floor_share = ResourceVector::from_fractions(
        1.0 / UNITS as f64,
        1.0 / UNITS as f64,
        cfg.disk_share,
    )
    .expect("floor share");
    let mut streams: Vec<Vec<VmJob>> = Vec::new();
    for class in classes {
        let per_mix = mixes
            .iter()
            .map(|mix| {
                let one = workload_demands(&mut t.db, &mix.queries, class, floor_share)
                    .expect("measured demands");
                let mut repeated = Vec::with_capacity(one.len() * STREAM_REPEATS);
                for _ in 0..STREAM_REPEATS {
                    repeated.extend(one.iter().copied());
                }
                VmJob::new(repeated)
            })
            .collect();
        streams.push(per_mix);
    }

    println!(
        "Calibrating both machine classes ({} grid points, disk share {:.3}) ...",
        UNITS, cfg.disk_share
    );
    let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
    let grid_small =
        CalibrationGrid::calibrate(small, points.clone(), points.clone(), cfg.disk_share)
            .expect("small-class calibration");
    let grid_big = CalibrationGrid::calibrate(big, points.clone(), points.clone(), cfg.disk_share)
        .expect("big-class calibration");
    let model_small = CalibratedCostModel::new(&grid_small);
    let model_big = CalibratedCostModel::new(&grid_big);
    let models: Vec<&dyn CostModel> = vec![&model_small, &model_big];

    let machines: Vec<MachineSpec> = std::iter::repeat(small)
        .take(SMALL_MACHINES)
        .chain(std::iter::repeat(big).take(BIG_MACHINES))
        .collect();
    assert!(VMS >= 1024 && machines.len() >= 32, "fleet below the EXT-FLEETSIM floor");
    let vms = fleet_vms(&t, &mixes, VMS);
    let problem = FleetProblem::new(machines.clone(), vms).expect("fleet problem");

    println!("Placing {} VMs across {} machines ...", VMS, machines.len());
    let place_start = std::time::Instant::now();
    let advisor = FleetAdvisor::new(machines.clone(), models, cfg).expect("advisor");
    let report = advisor.place(&problem).expect("placement");
    let place_secs = place_start.elapsed().as_secs_f64();
    println!(
        "FLEETSIM_FINGERPRINT placement={:016x}",
        report.fingerprint()
    );

    // Each VM runs the measured stream of its mix on the class it landed
    // on — demands depend on the class (a quarter of the memory changes
    // work_mem and the chosen plans), so the streams follow the placement.
    let jobs: Vec<VmJob> = (0..VMS)
        .map(|i| {
            let class = usize::from(report.placement.machine_of[i] >= SMALL_MACHINES);
            streams[class][i % mixes.len()].clone()
        })
        .collect();

    let mut rows = Vec::new();
    let mut mode_objs = Vec::new();
    let mut simulated = Vec::new();
    for (mode, tag) in [(SchedMode::Capped, "capped"), (SchedMode::WorkConserving, "wc")] {
        let start = std::time::Instant::now();
        let serial = simulate_placement(&problem, &report.placement, &jobs, &cfg, mode, 1)
            .expect("serial simulation");
        let serial_secs = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        let parallel = simulate_placement(&problem, &report.placement, &jobs, &cfg, mode, 0)
            .expect("parallel simulation");
        let parallel_secs = start.elapsed().as_secs_f64();
        // Pin: machine-level parallelism must be invisible in the report.
        assert_eq!(
            serial, parallel,
            "{tag}: simulation diverged between serial and per-core parallel execution"
        );
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        println!("FLEETSIM_FINGERPRINT sim_{tag}={:016x}", serial.fingerprint());

        let events_per_sec = serial.stats.events as f64 / serial_secs.max(1e-9);
        let touch_per_event =
            serial.stats.vms_touched as f64 / serial.stats.events.max(1) as f64;
        rows.push(vec![
            tag.to_string(),
            format!("{}", serial.stats.events),
            format!("{:.2}", touch_per_event),
            format!("{:.3}s", serial.simulated_total),
            format!("{:.2}s", serial_secs),
            format!("{:.2}s", parallel_secs),
            format!("{:.0}", events_per_sec),
        ]);
        mode_objs.push(Json::obj([
            ("mode", Json::Str(tag.to_string())),
            ("events", Json::Num(serial.stats.events as f64)),
            (
                "phase_completions",
                Json::Num(serial.stats.phase_completions as f64),
            ),
            ("vms_touched_per_event", Json::Num(touch_per_event)),
            ("simulated_total_secs", Json::Num(serial.simulated_total)),
            ("serial_secs", Json::Num(serial_secs)),
            ("parallel_secs", Json::Num(parallel_secs)),
            ("events_per_sec", Json::Num(events_per_sec)),
            (
                "machines_occupied",
                Json::Num(serial.machines_occupied as f64),
            ),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", serial.fingerprint())),
            ),
        ]));
        simulated.push(serial);
    }

    // Pin: work conservation never slows the fleet down.
    let (capped, wc) = (&simulated[0], &simulated[1]);
    assert!(
        wc.simulated_total <= capped.simulated_total * (1.0 + 1e-6) + 1e-6,
        "work-conserving total {:.3}s exceeds capped {:.3}s",
        wc.simulated_total,
        capped.simulated_total
    );
    // Pin: the model's predicted objective and the measured-stream
    // simulation describe the same fleet (per-run, order of magnitude).
    let per_run = capped.simulated_total / STREAM_REPEATS as f64;
    let ratio = per_run / capped.predicted_total;
    assert!(
        (0.1..=10.0).contains(&ratio),
        "simulated per-run total {per_run:.3}s vs predicted {:.3}s (ratio {ratio:.2}) — \
         model and simulation disagree wildly",
        capped.predicted_total
    );

    print_table(
        "EXT-FLEETSIM: 1024 VMs / 128 machines, placed then executed",
        &[
            "mode",
            "events",
            "touch/evt",
            "sim total",
            "serial",
            "parallel",
            "evt/s",
        ],
        &rows,
    );
    println!(
        "\nPredicted objective {:.3}s, simulated per-run total {:.3}s (ratio {:.2}); \
         placement took {:.2}s; serial and parallel simulations bit-identical in both modes.",
        capped.predicted_total, per_run, ratio, place_secs
    );

    let sink = dbvirt_telemetry::detach_sink().expect("sink was attached");
    let bench = Json::obj([
        ("experiment", Json::Str("ext_fleetsim".to_string())),
        ("wall_secs", Json::Num(wall_start.elapsed().as_secs_f64())),
        ("vms", Json::Num(VMS as f64)),
        ("machines", Json::Num(machines.len() as f64)),
        ("units", Json::Num(UNITS as f64)),
        ("stream_repeats", Json::Num(STREAM_REPEATS as f64)),
        ("place_secs", Json::Num(place_secs)),
        ("predicted_total_secs", Json::Num(capped.predicted_total)),
        ("simulated_per_run_secs", Json::Num(per_run)),
        ("predicted_vs_simulated_ratio", Json::Num(ratio)),
        ("optimality_gap", Json::Num(report.optimality_gap)),
        (
            "placement_fingerprint",
            Json::Str(format!("{:016x}", report.fingerprint())),
        ),
        ("sink_spans_retained", Json::Num(sink.spans_retained as f64)),
        ("sink_spans_dropped", Json::Num(sink.spans_dropped as f64)),
        ("sink_flushes", Json::Num(sink.flushes as f64)),
        ("modes", Json::Arr(mode_objs)),
    ]);
    write_bench_artifact("BENCH_fleetsim.json", &bench.pretty());
}
