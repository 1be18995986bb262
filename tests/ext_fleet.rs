//! EXT-FLEET — datacenter-scale placement: the fleet advisor's solver
//! ladder (greedy bin-pack → local search → LP lower bound) over a
//! heterogeneous machine fleet, from 4 VMs / 1 machine (the degenerate
//! EXT-CONSOL case, checked bit-for-bit against the core DP) up to
//! 256 VMs / 32 machines.
//!
//! Pins, on every `cargo test`:
//!
//! * the LP optimality gap is ≤ 25% on every configuration;
//! * local search strictly improves the greedy seed on the 64-VM /
//!   8-machine `large` fleet;
//! * the M=1 placement equals the single-machine DP recommendation;
//! * the capacity-forced `xl` fleet samples swaps;
//! * placements are bit-identical at pre-warm parallelism 1 and 0, and
//!   their fingerprints equal `tests/golden/fleet_fingerprints.txt`.
//!
//! `cargo test --release --test ext_fleet -- --nocapture` prints the
//! ladder table.

mod common;

use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::search::{run_search, SearchAlgorithm, SearchConfig};
use dbvirt::core::{CalibratedCostModel, CostModel, DesignProblem};
use dbvirt::fleet::{FleetAdvisor, FleetConfig, FleetProblem, FleetReport, FleetVm};
use dbvirt::tpch::{TpchConfig, TpchDb, Workload};
use dbvirt::vmm::MachineSpec;
use dbvirt_bench::{experiment_machine, print_table};
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/fleet_fingerprints.txt";
const UNITS: u32 = 8;

struct FleetShape {
    name: &'static str,
    vms: usize,
    small_machines: usize,
    big_machines: usize,
    max_rounds: usize,
    lp_iterations: usize,
}

/// At `vms == machines × cap` a fleet is capacity-forced: every machine
/// hosts exactly `cap` VMs, every VM gets the 1-unit floor, and the
/// problem collapses to an assignment problem over per-class costs.
/// `large` (64 VMs / 8 machines, forced) is where the local-search pin
/// lives: greedy ranks VMs by total demand while the true cost of the
/// class boundary is the cross-class *difference*, and because the
/// compute-class ratio varies per mix (see `common::compute_machine`) those
/// orderings disagree — greedy misassigns a handful of VMs and swaps
/// recover the optimum. `xl` doubles as the scale stress and stays in the
/// same forced regime.
#[rustfmt::skip]
const SHAPES: &[FleetShape] = &[
    FleetShape { name: "m1", vms: 4, small_machines: 1, big_machines: 0, max_rounds: 16, lp_iterations: 250 },
    FleetShape { name: "small", vms: 4, small_machines: 1, big_machines: 1, max_rounds: 16, lp_iterations: 250 },
    FleetShape { name: "mid", vms: 16, small_machines: 2, big_machines: 2, max_rounds: 24, lp_iterations: 300 },
    FleetShape { name: "large", vms: 64, small_machines: 4, big_machines: 4, max_rounds: 32, lp_iterations: 300 },
    FleetShape { name: "xl", vms: 256, small_machines: 16, big_machines: 16, max_rounds: 6, lp_iterations: 150 },
];

fn fleet_vms<'a>(t: &'a TpchDb, mixes: &'a [Workload], n: usize) -> Vec<FleetVm<'a>> {
    (0..n)
        .map(|i| {
            let mix = &mixes[i % mixes.len()];
            FleetVm::new(
                format!("vm{:03}-{}", i, mix.name),
                &t.db,
                mix.queries.clone(),
            )
            .with_weight(0.5 + (i % 5) as f64 * 0.45)
        })
        .collect()
}

fn place(
    machines: &[MachineSpec],
    models: &[&dyn CostModel],
    cfg: FleetConfig,
    problem: &FleetProblem<'_>,
) -> FleetReport {
    let advisor = FleetAdvisor::new(machines.to_vec(), models.to_vec(), cfg).unwrap();
    advisor.place(problem).unwrap()
}

#[test]
fn every_shape_is_lp_certified_and_replays_the_golden() {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let mixes = common::fleet_mixes(&t);

    let base_cfg = FleetConfig::new(UNITS);
    let (small, big) = (experiment_machine(), common::compute_machine());
    let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
    let calibrate = |m| {
        CalibrationGrid::calibrate(m, points.clone(), points.clone(), base_cfg.disk_share).unwrap()
    };
    let (grid_small, grid_big) = (calibrate(small), calibrate(big));
    let model_small = CalibratedCostModel::new(&grid_small);
    let model_big = CalibratedCostModel::new(&grid_big);

    let mut rows = Vec::new();
    let mut lines = String::new();
    for shape in SHAPES {
        let machines: Vec<MachineSpec> = std::iter::repeat_n(small, shape.small_machines)
            .chain(std::iter::repeat_n(big, shape.big_machines))
            .collect();
        let models: Vec<&dyn CostModel> = if shape.big_machines == 0 {
            vec![&model_small]
        } else {
            vec![&model_small, &model_big]
        };
        let mut cfg = base_cfg.with_parallelism(1);
        cfg.max_rounds = shape.max_rounds;
        cfg.lp_iterations = shape.lp_iterations;
        let problem =
            FleetProblem::new(machines.clone(), fleet_vms(&t, &mixes, shape.vms)).unwrap();

        let start = std::time::Instant::now();
        let report = place(&machines, &models, cfg, &problem);
        let wall = start.elapsed().as_secs_f64();
        let report_par = place(&machines, &models, cfg.with_parallelism(0), &problem);
        assert_eq!(
            report.fingerprint(),
            report_par.fingerprint(),
            "{}: placement diverged between pre-warm parallelism 1 and 0",
            shape.name
        );
        assert!(
            report.optimality_gap <= 0.25,
            "{}: optimality gap {:.1}% exceeds the 25% pin",
            shape.name,
            report.optimality_gap * 100.0
        );
        let improvement =
            report.greedy_placement.total_objective - report.placement.total_objective;
        match shape.name {
            "large" => assert!(
                improvement > 0.0,
                "large: local search found no improvement"
            ),
            "m1" => assert_m1_matches_core_dp(&report, &problem, &model_small, cfg),
            // Moves are structurally impossible on the capacity-forced xl
            // fleet (every machine is full), so the seeded swap sampler is
            // what keeps candidates flowing.
            "xl" => {
                assert!(
                    report.local_search.candidates_evaluated > 0,
                    "xl: no candidates"
                );
                assert!(
                    report.local_search.swap_candidates_sampled > 0,
                    "xl: no swaps sampled"
                );
            }
            _ => {}
        }

        writeln!(
            lines,
            "FLEET_FINGERPRINT {}={:016x}",
            shape.name,
            report.fingerprint()
        )
        .unwrap();
        rows.push(vec![
            shape.name.to_string(),
            format!("{}", shape.vms),
            format!("{}", machines.len()),
            format!("{:.3}s", report.greedy_placement.total_objective),
            format!("{:.3}s", report.placement.total_objective),
            format!("{:.4}s", improvement),
            format!("{:.3}s", report.lp.bound),
            format!("{:.1}%", report.optimality_gap * 100.0),
            format!("{}/{}", report.lp_scan.candidates, report.lp_scan.cells),
            format!(
                "{}+{}",
                report.local_search.moves_applied, report.local_search.swaps_applied
            ),
            format!("{wall:.2}s"),
        ]);
    }
    print_table(
        "EXT-FLEET: placement ladder (greedy -> local search, LP-certified)",
        &[
            "shape",
            "vms",
            "machines",
            "greedy",
            "final",
            "LS gain",
            "LP bound",
            "gap",
            "LP kept/dense",
            "moves+swaps",
            "wall",
        ],
        &rows,
    );
    print!("{lines}");
    common::assert_golden(GOLDEN, &lines);
}

/// The degenerate fleet (one machine) must return exactly what the core
/// dynamic program returns for the equivalent [`DesignProblem`].
fn assert_m1_matches_core_dp(
    report: &FleetReport,
    problem: &FleetProblem<'_>,
    model: &CalibratedCostModel<'_>,
    cfg: FleetConfig,
) {
    // A fleet VM is a workload spec: the fleet's VMs are the problem's
    // workloads as they stand.
    let workloads = problem.vms.clone();
    let dp = DesignProblem::new(problem.machines[0], workloads).unwrap();
    let scfg = SearchConfig {
        units: cfg.units,
        disk_share: cfg.disk_share,
        min_units: cfg.min_units,
        cpu_budget: cfg.units,
        mem_budget: cfg.units,
    };
    let rec = run_search(SearchAlgorithm::DynamicProgramming, &dp, model, scfg).unwrap();
    assert!(
        report.placement.machine_of.iter().all(|&m| m == 0),
        "m1: some VM left the only machine"
    );
    assert_eq!(
        report.placement.steady_objective, rec.objective,
        "m1: fleet objective differs from the core DP objective"
    );
    for (i, row) in rec.allocation.rows().enumerate() {
        let c = (row.cpu().fraction() * cfg.units as f64).round() as u32;
        let mu = (row.memory().fraction() * cfg.units as f64).round() as u32;
        assert_eq!(
            report.placement.units_of[i],
            (c, mu),
            "m1: VM {i} units differ from the core DP recommendation"
        );
    }
}
