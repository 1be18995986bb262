//! The grid both process-order tests calibrate: once as the first sweep of
//! its process (`engine_runs.rs`), once after another (`second_in_process.rs`).

use dbvirt_calibrate::CalibrationGrid;
use dbvirt_vmm::kernel::Fnv1a;
use dbvirt_vmm::MachineSpec;

/// FNV-1a of the reference grid's `to_json()`, wherever in a process's life
/// it is calibrated (captured from the commit before the suite was kept
/// across sweeps, where every sweep executed it afresh).
pub const REFERENCE_JSON_HASH: u64 = 0x4444_aa2d_6be1_eb4f;

/// A 3 × 3 grid on the paper's testbed, where every memory point has its
/// own buffer pool *and* its own `work_mem`, and its JSON's hash.
pub fn reference_grid() -> (CalibrationGrid, u64) {
    let axis = vec![0.25, 0.5, 0.75];
    let grid = CalibrationGrid::calibrate(MachineSpec::paper_testbed(), axis.clone(), axis, 0.5)
        .expect("reference grid");
    let mut hash = Fnv1a::new();
    hash.eat(grid.to_json().expect("grid serializes").as_bytes());
    (grid, hash.finish())
}
