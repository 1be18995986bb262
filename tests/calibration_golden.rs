//! Golden calibration bits: what a grid sweep and a single-cell calibration
//! answer, to the bit, on two machines — `MachineSpec::paper_testbed()`,
//! where every memory point has its own `work_mem`, and a machine shaped like
//! `perf/`'s, where every point sits on the 4 MiB `work_mem` floor and only
//! the buffer pool moves — through clean measurements, the robust loop, and
//! three fault injectors.
//!
//! Per grid: an FNV-1a hash of `to_json()`, then per cell every
//! `OptimizerParams` field's bits and each probe's `ProbeStat`. Per single
//! cell the same plus the fit's residual bits, or the typed error.
//! `tests/golden/calibration_bits.txt` was captured from the commit *before*
//! calibration stopped executing the probe suite once per memory
//! configuration (`GOLDEN_REGENERATE=1` rewrites it): replaying
//! one execution's page references must price every cell exactly as
//! executing under the cell's own buffer pool and `work_mem` did.

mod common;

use dbvirt::calibrate::runner::calibrate_with_config;
use dbvirt::calibrate::{CalibrationConfig, CalibrationGrid, CalibrationReport, ProbeDb};
use dbvirt::optimizer::OptimizerParams;
use dbvirt::vmm::fault::{FaultInjector, NoiseModel};
use dbvirt::vmm::kernel::Fnv1a;
use dbvirt::vmm::{MachineSpec, ResourceVector};
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/calibration_bits.txt";

/// `perf/`'s machine at scale 0.005: `dbvirt-bench`'s experiment machine
/// with its memory cut to a quarter.
fn small_machine() -> MachineSpec {
    MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

fn noise_configs() -> [(&'static str, CalibrationConfig); 5] {
    let robust = CalibrationConfig::robust();
    let with = |model: NoiseModel, seed| robust.with_injector(FaultInjector::new(model, seed));
    [
        ("clean", CalibrationConfig::default()),
        ("robust", robust),
        ("jitter10", with(NoiseModel::uniform_jitter(0.10), 17)),
        ("fail50", with(NoiseModel::none().with_failures(0.5), 23)),
        (
            "outliers_failures",
            with(
                NoiseModel::none()
                    .with_outliers(0.25, 10.0)
                    .with_failures(0.2),
                5,
            ),
        ),
    ]
}

/// `(cpu axis, memory axis)`: `perf/`'s 5×5 (the shares a four-tenant,
/// eight-unit search can hand out), a 3×2 and a 1×2.
fn grids() -> [(Vec<f64>, Vec<f64>); 3] {
    let eighths = |units: std::ops::RangeInclusive<u32>| units.map(|u| u as f64 / 8.0).collect();
    [
        (eighths(1..=5), eighths(1..=5)),
        (vec![0.25, 0.5, 0.75], vec![0.25, 0.75]),
        (vec![0.5], vec![0.3, 0.6]),
    ]
}

const CELLS: [(f64, f64, f64); 3] = [(0.5, 0.5, 0.5), (0.25, 0.75, 0.5), (0.8, 0.2, 1.0)];

fn params_bits(p: &OptimizerParams) -> String {
    [
        p.unit_seconds,
        p.seq_page_cost,
        p.random_page_cost,
        p.cpu_tuple_cost,
        p.cpu_index_tuple_cost,
        p.cpu_operator_cost,
        p.effective_cache_size_pages,
        p.work_mem_bytes,
    ]
    .map(|v| format!("{:016x}", v.to_bits()))
    .join("/")
}

fn probe_stats(report: &CalibrationReport) -> String {
    let stats: Vec<String> = report
        .probes
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}:{}:{}:{:016x}",
                s.name,
                s.trials,
                s.retries,
                s.timeouts,
                u8::from(s.dropped),
                s.seconds.to_bits()
            )
        })
        .collect();
    stats.join(",")
}

fn render() -> String {
    let mut out = String::new();
    let pdb = ProbeDb::template().expect("probe database");
    for (machine_name, machine) in [
        ("paper", MachineSpec::paper_testbed()),
        ("small", small_machine()),
    ] {
        for (noise, rcfg) in noise_configs() {
            for (cpu, mem) in grids() {
                let shape = format!("{machine_name} {noise} grid{}x{}", cpu.len(), mem.len());
                let grid = match CalibrationGrid::calibrate_with_config(
                    machine,
                    cpu.clone(),
                    mem.clone(),
                    0.5,
                    &rcfg,
                ) {
                    Ok(grid) => grid,
                    Err(e) => {
                        writeln!(out, "{shape} error={e}").unwrap();
                        continue;
                    }
                };
                let mut hash = Fnv1a::new();
                hash.eat(grid.to_json().expect("grid serializes").as_bytes());
                writeln!(out, "{shape} json={:016x}", hash.finish()).unwrap();
                for c in 0..cpu.len() {
                    for m in 0..mem.len() {
                        writeln!(
                            out,
                            "{shape} cell={c},{m} params={} probes={}",
                            params_bits(grid.at_point(c, m)),
                            probe_stats(grid.report_at(c, m)),
                        )
                        .unwrap();
                    }
                }
            }
            for (cpu, mem, disk) in CELLS {
                let shares = ResourceVector::from_fractions(cpu, mem, disk).expect("shares");
                let cell = format!("{machine_name} {noise} cell={cpu}/{mem}/{disk}");
                match calibrate_with_config(pdb, machine, shares, &rcfg) {
                    Ok(cal) => writeln!(
                        out,
                        "{cell} params={} rms={:016x} probes={}",
                        params_bits(&cal.params),
                        cal.rms_residual_seconds.to_bits(),
                        probe_stats(&cal.report),
                    )
                    .unwrap(),
                    Err(e) => writeln!(out, "{cell} error={e}").unwrap(),
                }
            }
        }
    }
    out
}

#[test]
fn every_grid_and_cell_calibrates_to_the_committed_bits() {
    common::assert_golden(GOLDEN, &render());
}
