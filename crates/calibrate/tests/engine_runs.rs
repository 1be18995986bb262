//! A grid sweep's engine work depends on neither of its axes.
//!
//! Lives in its own test binary (one `#[test]`) because it reads the
//! process-wide telemetry registry, which any concurrently running
//! calibration would also write to.

use dbvirt_calibrate::CalibrationGrid;
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::MachineSpec;

/// Executions per sweep: 8 probes, 2 of them preceded by a warm-up.
const RUNS_PER_SWEEP: usize = 10;

fn spans_named(snap: &telemetry::Snapshot, name: &str) -> usize {
    snap.spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn engine_runs_per_sweep_are_ten_whatever_the_grid() {
    telemetry::enable();
    // On the paper's testbed every memory point has its own buffer pool
    // *and* its own `work_mem`: nothing about the configurations coincides.
    let axes = [
        vec![0.5],
        vec![0.25, 0.5, 0.75],
        vec![0.2, 0.35, 0.5, 0.65, 0.8],
    ];
    for cpu_points in &axes {
        for mem_points in &axes {
            telemetry::reset();
            let cells = cpu_points.len() * mem_points.len();
            CalibrationGrid::calibrate(
                MachineSpec::paper_testbed(),
                cpu_points.clone(),
                mem_points.clone(),
                0.5,
            )
            .unwrap();
            let snap = telemetry::snapshot();
            snap.validate().unwrap();
            assert_eq!(
                spans_named(&snap, "engine.run_plan"),
                RUNS_PER_SWEEP,
                "{} x {} cells",
                cpu_points.len(),
                mem_points.len()
            );
            // One replay per sweep fills the memo for every memory point…
            assert_eq!(spans_named(&snap, "calibrate.replay"), 1);
            // …and every cell is still calibrated from one measurement per
            // probe.
            assert_eq!(spans_named(&snap, "calibrate.cell"), cells);
            assert_eq!(snap.counter("calibrate.probe_runs"), Some(8 * cells as u64));
        }
    }
    telemetry::disable();
}
