//! EXT-GRID — reducing the number of calibration experiments (paper,
//! Section 7: "This cost modeling can be refined by developing techniques
//! to reduce the number of calibration experiments required, since cost
//! model calibration is a fairly lengthy process").
//!
//! Calibrates a dense CPU-axis grid as ground truth, then compares coarse
//! grids (with bilinear interpolation for off-grid allocations) on two
//! criteria: parameter error, and whether the interpolated what-if model
//! still ranks candidate CPU allocations for Q13 the same way. A second
//! table sweeps the *memory* axis. The process's first sweep must make
//! exactly ten engine runs — the probe suite executed once — and every later
//! one, on either axis, none: every memory configuration is answered by
//! replaying the suite's page references. Otherwise the binary panics.

use dbvirt_bench::{experiment_machine, print_table};
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_optimizer::whatif::estimate_query_seconds;
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt_vmm::{MachineSpec, ResourceVector};

/// The calibration probe-run count from the global telemetry registry.
fn probe_runs() -> u64 {
    dbvirt_telemetry::snapshot()
        .counter("calibrate.probe_runs")
        .unwrap_or(0)
}

/// Plans the engine has executed so far (`engine.run_plan` spans).
fn engine_runs() -> usize {
    dbvirt_telemetry::snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "engine.run_plan")
        .count()
}

/// Executions of the probe suite, made by the process's first sweep alone:
/// 8 probes, 2 of them preceded by a warm-up.
const RUNS_PER_PROCESS: usize = 10;

/// `n` points spanning 25%..75% (the midpoint alone for one).
fn axis(n: usize) -> Vec<f64> {
    match n {
        1 => vec![0.5],
        _ => (0..n)
            .map(|i| 0.25 + 0.5 * i as f64 / (n - 1) as f64)
            .collect(),
    }
}

/// What one sweep cost.
struct SweepCost {
    probe_runs: u64,
    engine_runs: usize,
    wall_ms: f64,
}

impl SweepCost {
    fn cell(&self) -> String {
        format!("{} / {:.1}", self.engine_runs, self.wall_ms)
    }
}

/// Calibrates a `cpu` × `mem` grid, counting the work behind it. Whatever
/// the axes hold, the sweep must have run the engine `expected_runs` times:
/// the suite's ten if it is the process's first, else not at all.
fn sweep(
    machine: MachineSpec,
    cpu: usize,
    mem: usize,
    expected_runs: usize,
) -> (CalibrationGrid, SweepCost) {
    let (probes_before, runs_before) = (probe_runs(), engine_runs());
    let start = std::time::Instant::now();
    let grid = CalibrationGrid::calibrate(machine, axis(cpu), axis(mem), 0.5).expect("grid");
    let cost = SweepCost {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        probe_runs: probe_runs() - probes_before,
        engine_runs: engine_runs() - runs_before,
    };
    assert_eq!(
        cost.engine_runs, expected_runs,
        "a {cpu} x {mem} sweep must replay the suite's one execution"
    );
    (grid, cost)
}

fn main() {
    dbvirt_telemetry::enable();
    let machine = experiment_machine();
    println!(
        "Generating TPC-H (SF {:.3}) ...",
        TpchConfig::experiment().scale
    );
    let t = TpchDb::generate(TpchConfig::experiment()).expect("tpch generation");
    let q13 = TpchQuery::Q13.plan(&t);

    let dense_n = 9;
    println!("Calibrating the dense reference grid ({dense_n} CPU points) ...");
    let (dense, dense_cost) = sweep(machine, dense_n, 1, RUNS_PER_PROCESS);
    println!(
        "  the process's first sweep, suite execution included: {} (engine runs / wall ms)",
        dense_cost.cell()
    );

    // Probe allocations: every dense grid point.
    let probes: Vec<f64> = axis(dense_n);
    let reference: Vec<f64> = probes
        .iter()
        .map(|&cpu| {
            let shares = ResourceVector::from_fractions(cpu, 0.5, 0.5).expect("shares");
            let p = dense.params_for(shares).expect("dense lookup");
            estimate_query_seconds(&t.db, &q13, &p).expect("estimate")
        })
        .collect();

    let mut rows = Vec::new();
    for coarse_n in [2usize, 3, 5, 9] {
        println!("Calibrating a {coarse_n}-point grid ...");
        let (coarse, cost) = sweep(machine, coarse_n, 1, 0);
        let mut max_param_err: f64 = 0.0;
        let mut max_est_err: f64 = 0.0;
        let mut estimates = Vec::new();
        for (i, &cpu) in probes.iter().enumerate() {
            let shares = ResourceVector::from_fractions(cpu, 0.5, 0.5).expect("shares");
            let pd = dense.params_for(shares).expect("dense lookup");
            let pc = coarse.params_for(shares).expect("coarse lookup");
            let param_err = ((pc.cpu_tuple_cost - pd.cpu_tuple_cost) / pd.cpu_tuple_cost).abs();
            max_param_err = max_param_err.max(param_err);
            let est = estimate_query_seconds(&t.db, &q13, &pc).expect("estimate");
            max_est_err = max_est_err.max(((est - reference[i]) / reference[i]).abs());
            estimates.push(est);
        }
        // Ranking fidelity: do the coarse estimates order the candidate
        // allocations exactly as the dense ones do?
        let rank = |v: &[f64]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
            idx
        };
        let ranking_ok = rank(&estimates) == rank(&reference);
        rows.push(vec![
            coarse_n.to_string(),
            format!("{:.1}%", max_param_err * 100.0),
            format!("{:.1}%", max_est_err * 100.0),
            if ranking_ok { "yes" } else { "NO" }.to_string(),
            cost.cell(),
        ]);
    }

    // The memory axis: every point is its own buffer pool (and, past the
    // 4 MiB floor, its own `work_mem`), none of them an execution.
    let mem_cpu_n = 3;
    let mut mem_rows = Vec::new();
    for mem_n in [1usize, 2, 3, 5, 9] {
        println!("Calibrating a {mem_cpu_n} x {mem_n} grid ...");
        let (_, cost) = sweep(machine, mem_cpu_n, mem_n, 0);
        mem_rows.push(vec![
            mem_n.to_string(),
            (mem_cpu_n * mem_n).to_string(),
            cost.probe_runs.to_string(),
            cost.cell(),
        ]);
    }

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
    println!(
        "\nShape check: a 3-point grid already preserves the allocation ranking, which is all \
         the virtualization design search consumes — the paper's 'only used to rank \
         alternatives' observation carries to P(R) itself."
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
    println!(
        "\nShape check: {RUNS_PER_PROCESS} engine runs in the dense reference sweep, the \
         process's first, and none in any sweep after it (asserted) — the probe suite executes \
         once per process, each memory point replays its page references through a buffer pool \
         of its own size, and CPU points are priced from the same demands: a denser grid, or \
         another grid, costs arithmetic on every axis, not experiments."
    );
}
