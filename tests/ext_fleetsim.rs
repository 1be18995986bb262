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
//! Pins, on every `cargo test`:
//!
//! * the fleet is at least 1024 VMs across at least 32 machines, driven
//!   end to end (place → simulate → report);
//! * simulation reports are **bit-identical** between serial and
//!   per-core parallel machine execution, in both scheduling modes, and
//!   the placement and both simulations fingerprint to
//!   `tests/golden/fleetsim_fingerprints.txt`;
//! * work conservation never makes the fleet slower than capped mode;
//! * the simulated per-run total lands within an order of magnitude of
//!   the placement's model-predicted objective (the model and the
//!   measured streams must describe the same fleet).
//!
//! `cargo test --release --test ext_fleetsim -- --nocapture` prints the
//! simulation table.

mod common;

use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::measure::workload_demands;
use dbvirt::core::{CalibratedCostModel, CostModel};
use dbvirt::fleet::{simulate_placement, FleetAdvisor, FleetConfig, FleetProblem, FleetVm};
use dbvirt::tpch::{TpchConfig, TpchDb, Workload};
use dbvirt::vmm::sched::{SchedMode, VmJob};
use dbvirt::vmm::{MachineSpec, ResourceVector};
use dbvirt_bench::{experiment_machine, print_table};
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/fleetsim_fingerprints.txt";
const UNITS: u32 = 8;
const VMS: usize = 1024;
const SMALL_MACHINES: usize = 64;
const BIG_MACHINES: usize = 64;
/// Each VM's measured demand stream is repeated this many times, so the
/// simulation carries real event volume (~6–12 phases per VM) while the
/// predicted objective stays per-run (divide the simulated total by this
/// to compare).
const STREAM_REPEATS: usize = 6;

fn fleet_vms<'a>(t: &'a TpchDb, mixes: &'a [Workload], n: usize) -> Vec<FleetVm<'a>> {
    (0..n)
        .map(|i| {
            let mix = &mixes[i % mixes.len()];
            FleetVm::new(
                format!("vm{:04}-{}", i, mix.name),
                &t.db,
                mix.queries.clone(),
            )
            .with_weight(0.5 + (i % 5) as f64 * 0.45)
        })
        .collect()
}

#[test]
fn a_1024_vm_fleet_places_and_simulates_identically_at_every_parallelism() {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let mixes = common::fleet_mixes(&t);

    let cfg = {
        let mut c = FleetConfig::new(UNITS).with_parallelism(1);
        // 128 full machines: the placement is capacity-forced (every VM
        // at the 1-unit floor), so keep the ladder short — the sampled
        // swap neighborhood does the searching.
        c.max_rounds = 2;
        c.lp_iterations = 60;
        c
    };
    let classes = [experiment_machine(), common::compute_machine()];

    // Measured demand streams, one engine run per (class, mix) pair under
    // the forced 1-unit share — the exact share the placement will grant.
    let floor = 1.0 / UNITS as f64;
    let floor_share = ResourceVector::from_fractions(floor, floor, cfg.disk_share).unwrap();
    let streams: Vec<Vec<VmJob>> = classes
        .iter()
        .map(|&class| {
            mixes
                .iter()
                .map(|mix| {
                    let one = workload_demands(&t.db, &mix.queries, class, floor_share).unwrap();
                    VmJob::new(one.repeat(STREAM_REPEATS))
                })
                .collect()
        })
        .collect();

    let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
    let grids = classes.map(|class| {
        CalibrationGrid::calibrate(class, points.clone(), points.clone(), cfg.disk_share).unwrap()
    });
    let model_small = CalibratedCostModel::new(&grids[0]);
    let model_big = CalibratedCostModel::new(&grids[1]);
    let models: Vec<&dyn CostModel> = vec![&model_small, &model_big];

    let machines: Vec<MachineSpec> = std::iter::repeat_n(classes[0], SMALL_MACHINES)
        .chain(std::iter::repeat_n(classes[1], BIG_MACHINES))
        .collect();
    assert!(
        VMS >= 1024 && machines.len() >= 32,
        "fleet below the EXT-FLEETSIM floor"
    );
    let problem = FleetProblem::new(machines.clone(), fleet_vms(&t, &mixes, VMS)).unwrap();

    let place_start = std::time::Instant::now();
    let advisor = FleetAdvisor::new(machines, models, cfg).unwrap();
    let report = advisor.place(&problem).unwrap();
    let place_secs = place_start.elapsed().as_secs_f64();
    let mut lines = format!(
        "FLEETSIM_FINGERPRINT placement={:016x}\n",
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
    let mut simulated = Vec::new();
    for (mode, tag) in [
        (SchedMode::Capped, "capped"),
        (SchedMode::WorkConserving, "wc"),
    ] {
        let start = std::time::Instant::now();
        let serial = simulate_placement(&problem, &report.placement, &jobs, &cfg, mode, 1).unwrap();
        let serial_secs = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        let parallel =
            simulate_placement(&problem, &report.placement, &jobs, &cfg, mode, 0).unwrap();
        let parallel_secs = start.elapsed().as_secs_f64();
        assert_eq!(
            serial, parallel,
            "{tag}: simulation diverged between serial and per-core parallel execution"
        );
        writeln!(
            lines,
            "FLEETSIM_FINGERPRINT sim_{tag}={:016x}",
            serial.fingerprint()
        )
        .unwrap();
        let events = serial.stats.events;
        rows.push(vec![
            tag.to_string(),
            format!("{events}"),
            format!(
                "{:.2}",
                serial.stats.vms_touched as f64 / events.max(1) as f64
            ),
            format!("{:.3}s", serial.simulated_total),
            format!("{serial_secs:.2}s"),
            format!("{parallel_secs:.2}s"),
            format!("{:.0}", events as f64 / serial_secs.max(1e-9)),
        ]);
        simulated.push(serial);
    }

    let (capped, wc) = (&simulated[0], &simulated[1]);
    assert!(
        wc.simulated_total <= capped.simulated_total * (1.0 + 1e-6) + 1e-6,
        "work-conserving total {:.3}s exceeds capped {:.3}s",
        wc.simulated_total,
        capped.simulated_total
    );
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
        "\nPredicted objective {:.3}s, simulated per-run total {per_run:.3}s (ratio {ratio:.2}); \
         placement took {place_secs:.2}s.",
        capped.predicted_total
    );

    print!("{lines}");
    common::assert_golden(GOLDEN, &lines);
}
