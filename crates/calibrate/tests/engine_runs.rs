//! A grid sweep's engine work depends on its memory axis alone.
//!
//! Lives in its own test binary (one `#[test]`) because it reads the
//! process-wide telemetry registry, which any concurrently running
//! calibration would also write to.

use dbvirt_calibrate::CalibrationGrid;
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::MachineSpec;

/// Executions per memory point: 8 probes, 2 of them preceded by a warm-up.
const RUNS_PER_MEMORY_POINT: usize = 10;

fn spans_named(snap: &telemetry::Snapshot, name: &str) -> usize {
    snap.spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn engine_runs_per_sweep_follow_the_memory_axis_only() {
    telemetry::enable();
    let mem_points = vec![0.25, 0.5, 0.75];
    for cpu_points in [
        vec![0.5],
        vec![0.25, 0.5, 0.75],
        vec![0.2, 0.35, 0.5, 0.65, 0.8],
    ] {
        telemetry::reset();
        let cells = cpu_points.len() * mem_points.len();
        CalibrationGrid::calibrate(
            MachineSpec::paper_testbed(),
            cpu_points,
            mem_points.clone(),
            0.5,
        )
        .unwrap();
        let snap = telemetry::snapshot();
        snap.validate().unwrap();
        assert_eq!(
            spans_named(&snap, "engine.run_plan"),
            mem_points.len() * RUNS_PER_MEMORY_POINT,
            "{cells} cells"
        );
        // Every cell is still calibrated from one measurement per probe.
        assert_eq!(spans_named(&snap, "calibrate.cell"), cells);
        assert_eq!(snap.counter("calibrate.probe_runs"), Some(8 * cells as u64));
    }
    telemetry::disable();
}
