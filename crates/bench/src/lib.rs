//! # dbvirt-bench — what the experiments share
//!
//! The paper's exhibits and the extension experiments are integration tests
//! of the root package; each asserts its claim on every `cargo test`, and
//! `cargo test --release --test <name> -- --nocapture` prints its tables:
//!
//! | test | exhibit |
//! |---|---|
//! | `paper_exhibits` | Figures 3–5, EXT-SEARCH, EXT-CONSOL, EXT-DYNAMIC, EXT-ABLATION, EXT-RESOLUTION (golden `tests/golden/exhibits.txt`) |
//! | `ext_grid` | calibration-grid density vs interpolation fidelity; one probe-suite execution per process |
//! | `telemetry_pipeline` | EXT-TRACE: a traced consolidation run's root span coverage |
//! | `calibration_recovery` | the chaos sweep (`--ignored`): calibration under fault injection |
//! | `ext_controller`, `ext_fleet`, `ext_fleetsim`, `ext_design`, `sched_wc_golden` | the fingerprinted experiments, each against its golden |
//!
//! This library holds what those tests and the `perf/` pipeline benchmark
//! (the only benchmark) share: the experiment machine and
//! measurement/printing helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dbvirt_core::measure::workload_demands;
use dbvirt_core::CoreError;
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_vmm::{MachineSpec, ResourceVector, VirtualMachine};

/// The machine the experiments run on.
///
/// The paper's testbed is 2×2.8 GHz Xeon / 4 GB RAM hosting a 1 GB (4 GB
/// with indexes) TPC-H database. The experiments here run TPC-H at a small
/// scale factor, so the machine's memory and disk are scaled to keep the
/// paper's *regimes*: the database exceeds any VM's page cache (memory
/// allocation matters), and sequential scans are disk-bound at full CPU
/// (so an I/O-bound query exists). CPU speed is kept at the testbed's,
/// which preserves the CPU-vs-I/O balance per tuple.
pub fn experiment_machine() -> MachineSpec {
    MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 32 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

/// Measures one query's steady-state execution time in a VM at `shares`:
/// the second demand of the workload `[query, query]` — planned with stock
/// optimizer settings (a deployed database does not know its allocation),
/// the first run only warming the cache.
pub fn measure_query_warm(
    db: &Database,
    query: &LogicalPlan,
    machine: MachineSpec,
    shares: ResourceVector,
) -> Result<f64, CoreError> {
    let vm = VirtualMachine::new(machine, shares)?;
    let pair = [query.clone(), query.clone()];
    let demands = workload_demands(db, &pair, machine, shares)?;
    Ok(vm.demand_seconds(&demands[1]))
}

/// Renders a fixed-width table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with three significant decimals.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_machine_is_valid_and_scaled() {
        let m = experiment_machine();
        m.validate().unwrap();
        // Regime check: the machine is memory-scarce relative to the
        // paper testbed but equally fast per core.
        let paper = MachineSpec::paper_testbed();
        assert_eq!(m.cycles_per_sec, paper.cycles_per_sec);
        assert!(m.memory_bytes < paper.memory_bytes / 16);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(0.305), "30.5%");
    }
}
