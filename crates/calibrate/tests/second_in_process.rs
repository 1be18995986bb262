//! A grid calibrated second in a process is the grid calibrated first in
//! one: `engine_runs.rs` pins the reference grid's JSON as its process's
//! first sweep, this binary as a later one — after a sweep of another
//! machine, under the robust loop with injected faults, has profiled the
//! suite.

mod common;

use common::{reference_grid, REFERENCE_JSON_HASH};
use dbvirt_calibrate::{CalibrationConfig, CalibrationGrid};
use dbvirt_vmm::{FaultInjector, MachineSpec, NoiseModel};

#[test]
fn a_grid_calibrated_second_is_bit_identical_to_the_same_grid_calibrated_first() {
    let injector = FaultInjector::new(NoiseModel::uniform_jitter(0.3).with_failures(0.3), 5);
    let rcfg = CalibrationConfig::robust().with_injector(injector);
    let other = MachineSpec {
        cycles_per_sec: 1.0e9,
        memory_bytes: 8 << 20,
        ..MachineSpec::paper_testbed()
    };
    CalibrationGrid::calibrate_with_config(other, vec![0.3, 0.9], vec![0.1], 1.0, &rcfg).unwrap();
    let (_, hash) = reference_grid();
    assert_eq!(hash, REFERENCE_JSON_HASH, "{hash:#018x}");
}
