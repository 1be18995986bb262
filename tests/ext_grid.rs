//! EXT-GRID — reducing the number of calibration experiments (paper,
//! Section 7: "cost model calibration is a fairly lengthy process").
//!
//! Calibrates a dense 9-point CPU-axis grid as ground truth, then coarse
//! grids whose off-grid allocations are interpolated, and compares
//! parameter error and whether the interpolated what-if model still ranks
//! Q13's candidate CPU shares as the dense one does. A second table sweeps
//! the memory axis.
//!
//! Pins, on every `cargo test`:
//!
//! * the process's first sweep runs the engine exactly 10 times (the probe
//!   suite, executed once) and every later sweep, on either axis, not at
//!   all: each memory point replays the suite's page references;
//! * a 3-point grid already preserves Q13's allocation ranking, and the
//!   estimate error shrinks as the grid gets denser.
//!
//! The engine-run counts read the global telemetry registry, so this file
//! holds one `#[test]`: nothing else in the process may execute plans.
//! `cargo test --release --test ext_grid -- --nocapture` prints the tables.

use dbvirt::calibrate::CalibrationGrid;
use dbvirt::optimizer::plan_query;
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::{MachineSpec, ResourceVector};
use dbvirt_bench::{experiment_machine, print_table};
use dbvirt_telemetry as telemetry;

/// Executions of the probe suite, made by the process's first sweep alone:
/// 8 probes, 2 of them preceded by a warm-up.
const RUNS_PER_PROCESS: usize = 10;

/// Plans the engine has executed so far (`engine.run_plan` spans).
fn engine_runs() -> usize {
    let spans = telemetry::snapshot().spans;
    spans.iter().filter(|s| s.name == "engine.run_plan").count()
}

fn probe_runs() -> u64 {
    telemetry::snapshot()
        .counter("calibrate.probe_runs")
        .unwrap_or(0)
}

/// `n` points spanning 25%..75% (the midpoint alone for one).
fn axis(n: usize) -> Vec<f64> {
    match n {
        1 => vec![0.5],
        _ => (0..n)
            .map(|i| 0.25 + 0.5 * i as f64 / (n - 1) as f64)
            .collect(),
    }
}

/// Calibrates a `cpu` × `mem` grid and asserts it ran the engine
/// `expected_runs` times; returns the grid, its probe measurements and its
/// engine runs / wall milliseconds.
fn sweep(
    machine: MachineSpec,
    cpu: usize,
    mem: usize,
    expected_runs: usize,
) -> (CalibrationGrid, u64, String) {
    let (probes_before, runs_before) = (probe_runs(), engine_runs());
    let start = std::time::Instant::now();
    let grid = CalibrationGrid::calibrate(machine, axis(cpu), axis(mem), 0.5).unwrap();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let runs = engine_runs() - runs_before;
    assert_eq!(
        runs, expected_runs,
        "a {cpu} x {mem} sweep must replay the suite's one execution"
    );
    (
        grid,
        probe_runs() - probes_before,
        format!("{runs} / {wall_ms:.1}"),
    )
}

fn ranking(v: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    idx
}

#[test]
fn coarse_grids_rank_as_the_dense_one_and_no_sweep_executes_twice() {
    telemetry::enable();
    let machine = experiment_machine();
    let t = TpchDb::generate(TpchConfig::experiment()).unwrap();
    let q13 = TpchQuery::Q13.plan(&t);
    let estimate = |grid: &CalibrationGrid, cpu: f64| {
        let shares = ResourceVector::from_fractions(cpu, 0.5, 0.5).unwrap();
        let p = grid.params_for(shares).unwrap();
        (
            p.cpu_tuple_cost,
            plan_query(&t.db, &q13, &p).unwrap().est_seconds(),
        )
    };

    let dense_n = 9;
    let (dense, _, dense_cost) = sweep(machine, dense_n, 1, RUNS_PER_PROCESS);
    println!(
        "the process's first sweep, suite execution included: {dense_cost} (engine runs / wall ms)"
    );
    // Candidate allocations: every dense grid point.
    let probes = axis(dense_n);
    let reference: Vec<(f64, f64)> = probes.iter().map(|&cpu| estimate(&dense, cpu)).collect();
    let reference_est: Vec<f64> = reference.iter().map(|r| r.1).collect();

    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for coarse_n in [2usize, 3, 5, 9] {
        let (coarse, _, cost) = sweep(machine, coarse_n, 1, 0);
        let (mut max_param_err, mut max_est_err) = (0.0f64, 0.0f64);
        let mut estimates = Vec::new();
        for (&cpu, &(dense_param, dense_est)) in probes.iter().zip(&reference) {
            let (param, est) = estimate(&coarse, cpu);
            max_param_err = max_param_err.max(((param - dense_param) / dense_param).abs());
            max_est_err = max_est_err.max(((est - dense_est) / dense_est).abs());
            estimates.push(est);
        }
        let ranking_ok = ranking(&estimates) == ranking(&reference_est);
        if coarse_n >= 3 {
            assert!(
                ranking_ok,
                "a {coarse_n}-point grid reorders Q13's allocations"
            );
        }
        errors.push(max_est_err);
        rows.push(vec![
            coarse_n.to_string(),
            format!("{:.1}%", max_param_err * 100.0),
            format!("{:.1}%", max_est_err * 100.0),
            if ranking_ok { "yes" } else { "NO" }.to_string(),
            cost,
        ]);
    }
    assert!(
        errors.windows(2).all(|w| w[1] < w[0] || w[1] == 0.0),
        "estimate error must shrink as the grid gets denser: {errors:?}"
    );

    // The memory axis: every point is its own buffer pool (and, past the
    // 4 MiB floor, its own `work_mem`), none of them an execution.
    let mem_cpu_n = 3;
    let mut mem_rows = Vec::new();
    for mem_n in [1usize, 2, 3, 5, 9] {
        let (_, probe_measurements, cost) = sweep(machine, mem_cpu_n, mem_n, 0);
        mem_rows.push(vec![
            mem_n.to_string(),
            (mem_cpu_n * mem_n).to_string(),
            probe_measurements.to_string(),
            cost,
        ]);
    }
    telemetry::disable();

    print_table(
        "EXT-GRID: coarse calibration grids + interpolation vs a 9-point reference (Q13, CPU axis 25-75%)",
        &[
            "grid points",
            "max cpu_tuple_cost err",
            "max estimate err",
            "ranking preserved",
            "engine runs / wall ms",
        ],
        &rows,
    );
    print_table(
        "EXT-GRID: the memory axis (3 CPU points x M memory points, 25-75%)",
        &[
            "memory points",
            "cells",
            "probe measurements",
            "engine runs / wall ms",
        ],
        &mem_rows,
    );
}
