//! The probe suite executes once per process: the first sweep runs the
//! engine ten times, and no later sweep — whatever its machine, axes,
//! robustness or injected faults — runs it at all.
//!
//! Lives in its own test binary (one `#[test]`) because it reads the
//! process-wide telemetry registry, which any concurrently running
//! calibration would also write to, and because "first in the process" is a
//! property of the binary.

mod common;

use common::{reference_grid, REFERENCE_JSON_HASH};
use dbvirt_calibrate::{CalibrationConfig, CalibrationGrid};
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::{FaultInjector, MachineSpec, NoiseModel};

/// Executions of the suite: 8 probes, 2 of them preceded by a warm-up.
const RUNS_PER_PROCESS: usize = 10;

fn spans_named(snap: &telemetry::Snapshot, name: &str) -> usize {
    snap.spans.iter().filter(|s| s.name == name).count()
}

/// Checks what the sweep just made left in the registry, and clears it.
fn assert_sweep(engine_runs: usize, cells: usize, what: &str) {
    let snap = telemetry::snapshot();
    snap.validate().unwrap();
    assert_eq!(spans_named(&snap, "engine.run_plan"), engine_runs, "{what}");
    // One replay per sweep fills the memo for every memory point…
    assert_eq!(spans_named(&snap, "calibrate.replay"), 1, "{what}");
    // …and every cell is still calibrated from one measurement per probe.
    assert_eq!(spans_named(&snap, "calibrate.cell"), cells, "{what}");
    assert_eq!(
        snap.counter("calibrate.probe_runs"),
        Some(8 * cells as u64),
        "{what}"
    );
    telemetry::reset();
}

#[test]
fn the_engine_runs_ten_times_in_the_first_sweep_and_never_again() {
    telemetry::enable();
    telemetry::reset();
    let (first, first_hash) = reference_grid();
    assert_sweep(RUNS_PER_PROCESS, 9, "the process's first sweep");
    assert_eq!(first_hash, REFERENCE_JSON_HASH, "{first_hash:#018x}");

    // On the testbed every memory point has its own configuration; on a
    // small machine every one shares the `work_mem` floor.
    let small = MachineSpec {
        memory_bytes: 8 << 20,
        ..MachineSpec::paper_testbed()
    };
    let faulty = FaultInjector::new(NoiseModel::uniform_jitter(0.1).with_failures(0.2), 17);
    let axes = [
        vec![0.5],
        vec![0.25, 0.5, 0.75],
        vec![0.2, 0.35, 0.5, 0.65, 0.8],
    ];
    let configs = [
        CalibrationConfig::default(),
        CalibrationConfig::robust(),
        CalibrationConfig::robust().with_injector(faulty),
    ];
    for (at, cpu_points) in axes.iter().enumerate() {
        for (mem_points, rcfg) in axes.iter().zip(configs.iter().cycle().skip(at)) {
            for machine in [MachineSpec::paper_testbed(), small] {
                let (cpu, mem) = (cpu_points.clone(), mem_points.clone());
                CalibrationGrid::calibrate_with_config(machine, cpu, mem, 0.5, rcfg).unwrap();
                let cells = cpu_points.len() * mem_points.len();
                let what = format!(
                    "{} x {} cells, {rcfg:?}",
                    cpu_points.len(),
                    mem_points.len()
                );
                assert_sweep(0, cells, &what);
            }
        }
    }

    // The same grid again, now from the suite the first sweep left behind.
    let (again, _) = reference_grid();
    assert_sweep(0, 9, "the reference grid, second time");
    assert_eq!(first.to_json().unwrap(), again.to_json().unwrap());
    telemetry::disable();
}
