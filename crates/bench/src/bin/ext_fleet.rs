//! EXT-FLEET — datacenter-scale placement: the fleet advisor's solver
//! ladder (greedy bin-pack → local search → LP lower bound) over a
//! heterogeneous machine fleet, from 4 VMs / 1 machine (the degenerate
//! EXT-CONSOL case, checked bit-for-bit against the core DP) up to
//! 256 VMs / 32 machines.
//!
//! Pins enforced by this binary (and replayed by `scripts/replay_gate.sh`):
//!
//! * local search strictly improves the greedy seed on the pinned
//!   64-VM / 8-machine fleet;
//! * the LP optimality gap is ≤ 25% on every configuration;
//! * the M=1 placement equals the single-machine DP recommendation;
//! * placements are bit-identical at pre-warm parallelism 1 and 0
//!   (`FLEET_FINGERPRINT` lines, diffed across two process runs).

use dbvirt_bench::{experiment_machine, print_table, write_bench_artifact};
use dbvirt_calibrate::json::Json;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::search::{run_search, SearchAlgorithm, SearchConfig};
use dbvirt_core::{CalibratedCostModel, CostModel, DesignProblem, WorkloadSpec};
use dbvirt_fleet::{FleetAdvisor, FleetConfig, FleetProblem, FleetReport, FleetVm};
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt_vmm::MachineSpec;

/// The fleet's second machine class: compute-optimized nodes — 35%
/// faster cores and 6x the sequential disk bandwidth of
/// [`experiment_machine`], but only a quarter of the memory. Every mix
/// spills out of this class's 1-unit memory share, yet the fast disk
/// keeps the penalty moderate, so the cross-class cost ratio varies
/// *continuously* with each mix's CPU:scan balance (~1.3-2.4x). That
/// non-collinearity is deliberate: demand-sorted greedy ranks VMs by
/// w*(c_small + c_fast) while the true cost of exiling a VM to this class
/// is w*(c_fast - c_small), so greedy misassigns some VMs and local
/// search has real swaps to find.
fn big_machine() -> MachineSpec {
    let mut m = experiment_machine();
    m.cycles_per_sec *= 1.35;
    m.memory_bytes /= 4;
    m.disk_seq_bytes_per_sec *= 6.0;
    m
}

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
/// compute-class ratio varies per mix (see [`big_machine`]) those
/// orderings disagree — greedy misassigns a handful of VMs and swaps
/// recover the optimum. `xl` doubles as the scale stress and stays in the
/// same forced regime.
const SHAPES: &[FleetShape] = &[
    FleetShape { name: "m1", vms: 4, small_machines: 1, big_machines: 0, max_rounds: 16, lp_iterations: 250 },
    FleetShape { name: "small", vms: 4, small_machines: 1, big_machines: 1, max_rounds: 16, lp_iterations: 250 },
    FleetShape { name: "mid", vms: 16, small_machines: 2, big_machines: 2, max_rounds: 24, lp_iterations: 300 },
    FleetShape { name: "large", vms: 64, small_machines: 4, big_machines: 4, max_rounds: 32, lp_iterations: 300 },
    FleetShape { name: "xl", vms: 256, small_machines: 16, big_machines: 16, max_rounds: 6, lp_iterations: 150 },
];

const UNITS: u32 = 8;

fn fleet_vms<'a>(t: &'a TpchDb, mixes: &'a [Workload], n: usize) -> Vec<FleetVm<'a>> {
    (0..n)
        .map(|i| {
            let mix = &mixes[i % mixes.len()];
            FleetVm::new(format!("vm{:03}-{}", i, mix.name), &t.db, mix.queries.clone())
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
    let advisor = FleetAdvisor::new(machines.to_vec(), models.to_vec(), cfg).expect("advisor");
    advisor.place(problem).expect("placement")
}

fn main() {
    dbvirt_telemetry::enable();
    let wall_start = std::time::Instant::now();
    println!("Generating TPC-H (SF {:.3}) ...", TpchConfig::tiny().scale);
    let t = TpchDb::generate(TpchConfig::tiny()).expect("tpch generation");

    // Cheap single-scan-dominated mixes: pre-warm evaluates up to
    // |classes| x N x 64 cells, so per-evaluation planning must stay light.
    let mixes: Vec<Workload> = vec![
        Workload::compose(&t, &[(TpchQuery::Q6, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q1, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q14, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q4, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q6, 2)]),
        Workload::compose(&t, &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 1)]),
    ];

    let base_cfg = FleetConfig::new(UNITS);
    let small = experiment_machine();
    let big = big_machine();
    println!(
        "Calibrating both machine classes ({} grid points, disk share {:.3}) ...",
        UNITS, base_cfg.disk_share
    );
    let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
    let grid_small = CalibrationGrid::calibrate(small, points.clone(), points.clone(), base_cfg.disk_share)
        .expect("small-class calibration");
    let grid_big = CalibrationGrid::calibrate(big, points.clone(), points.clone(), base_cfg.disk_share)
        .expect("big-class calibration");
    let model_small = CalibratedCostModel::new(&grid_small);
    let model_big = CalibratedCostModel::new(&grid_big);

    let mut rows = Vec::new();
    let mut shape_objs = Vec::new();
    for shape in SHAPES {
        let machines: Vec<MachineSpec> = std::iter::repeat(small)
            .take(shape.small_machines)
            .chain(std::iter::repeat(big).take(shape.big_machines))
            .collect();
        let models: Vec<&dyn CostModel> = if shape.big_machines == 0 {
            vec![&model_small]
        } else {
            vec![&model_small, &model_big]
        };
        let mut cfg = base_cfg.with_parallelism(1);
        cfg.max_rounds = shape.max_rounds;
        cfg.lp_iterations = shape.lp_iterations;
        let vms = fleet_vms(&t, &mixes, shape.vms);
        let problem = FleetProblem::new(machines.clone(), vms).expect("fleet problem");

        let start = std::time::Instant::now();
        let report = place(&machines, &models, cfg, &problem);
        let serial_secs = start.elapsed().as_secs_f64();
        // Pin: pre-warm parallelism must be invisible in the answer.
        let start = std::time::Instant::now();
        let report_par = place(&machines, &models, cfg.with_parallelism(0), &problem);
        let parallel_secs = start.elapsed().as_secs_f64();
        assert_eq!(
            report.fingerprint(),
            report_par.fingerprint(),
            "{}: placement diverged between pre-warm parallelism 1 and 0",
            shape.name
        );

        let improvement =
            report.greedy_placement.total_objective - report.placement.total_objective;
        // Pin: the LP gap certifies every configuration within 25%.
        assert!(
            report.optimality_gap <= 0.25,
            "{}: optimality gap {:.1}% exceeds the 25% pin",
            shape.name,
            report.optimality_gap * 100.0
        );
        // Pin: local search strictly improves greedy on the 64/8 fleet.
        if shape.name == "large" {
            assert!(
                improvement > 0.0,
                "large: local search found no improvement over greedy"
            );
        }
        // Pin: M=1 is exactly the paper's single-machine problem.
        if shape.name == "m1" {
            assert_m1_matches_core_dp(&report, &problem, &model_small, cfg);
        }
        // Pin: the capacity-forced xl shape must actually search — moves
        // are structurally impossible there (every machine is full), so
        // the seeded swap sampler is what keeps candidates flowing.
        if shape.name == "xl" {
            assert!(
                report.local_search.candidates_evaluated > 0,
                "xl: local search evaluated no candidates (sampler broken?)"
            );
            assert!(
                report.local_search.swap_candidates_sampled > 0,
                "xl: swap sampler drew no candidates"
            );
        }

        println!(
            "FLEET_FINGERPRINT {}={:016x}",
            shape.name,
            report.fingerprint()
        );
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
            format!("{:.2}s", serial_secs),
        ]);
        shape_objs.push(Json::obj([
            ("shape", Json::Str(shape.name.to_string())),
            ("vms", Json::Num(shape.vms as f64)),
            ("machines", Json::Num(machines.len() as f64)),
            (
                "greedy_total_secs",
                Json::Num(report.greedy_placement.total_objective),
            ),
            (
                "final_total_secs",
                Json::Num(report.placement.total_objective),
            ),
            ("ls_improvement_secs", Json::Num(improvement)),
            ("lp_bound_secs", Json::Num(report.lp.bound)),
            ("optimality_gap", Json::Num(report.optimality_gap)),
            ("lp_iterations", Json::Num(report.lp.iterations as f64)),
            ("lp_cells", Json::Num(report.lp_scan.cells as f64)),
            ("lp_candidates", Json::Num(report.lp_scan.candidates as f64)),
            ("ls_rounds", Json::Num(report.local_search.rounds as f64)),
            (
                "ls_moves",
                Json::Num(report.local_search.moves_applied as f64),
            ),
            (
                "ls_swaps",
                Json::Num(report.local_search.swaps_applied as f64),
            ),
            (
                "ls_candidates",
                Json::Num(report.local_search.candidates_evaluated as f64),
            ),
            (
                "swaps_enumerated",
                Json::Bool(report.local_search.swaps_enumerated),
            ),
            (
                "ls_swaps_sampled",
                Json::Num(report.local_search.swap_candidates_sampled as f64),
            ),
            ("prewarm_cells", Json::Num(report.prewarm_cells as f64)),
            ("dp_solves", Json::Num(report.solves as f64)),
            ("memo_hits", Json::Num(report.memo_hits as f64)),
            ("serial_secs", Json::Num(serial_secs)),
            ("parallel_secs", Json::Num(parallel_secs)),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", report.fingerprint())),
            ),
        ]));
    }

    print_table(
        "EXT-FLEET: placement ladder (greedy -> local search, LP-certified)",
        &[
            "shape", "vms", "machines", "greedy", "final", "LS gain", "LP bound", "gap",
            "LP kept/dense", "moves+swaps", "wall",
        ],
        &rows,
    );
    println!(
        "\nShape check: local search never worsens greedy, every gap is LP-certified ≤ 25%, \
         and the M=1 fleet reproduces the single-machine DP exactly."
    );

    let bench = Json::obj([
        ("experiment", Json::Str("ext_fleet".to_string())),
        ("wall_secs", Json::Num(wall_start.elapsed().as_secs_f64())),
        ("units", Json::Num(UNITS as f64)),
        ("disk_share", Json::Num(base_cfg.disk_share)),
        ("shapes", Json::Arr(shape_objs)),
    ]);
    write_bench_artifact("BENCH_fleet.json", &bench.pretty());
}

/// The degenerate fleet (one machine) must return exactly what the core
/// dynamic program returns for the equivalent [`DesignProblem`].
fn assert_m1_matches_core_dp(
    report: &FleetReport,
    problem: &FleetProblem<'_>,
    model: &CalibratedCostModel<'_>,
    cfg: FleetConfig,
) {
    let workloads = problem
        .vms
        .iter()
        .map(|vm| {
            WorkloadSpec::new(vm.name.clone(), vm.db, vm.queries.clone()).with_weight(vm.weight)
        })
        .collect();
    let dp = DesignProblem::new(problem.machines[0], workloads).expect("m1 problem");
    let scfg = SearchConfig {
        units: cfg.units,
        disk_share: cfg.disk_share,
        min_units: cfg.min_units,
        cpu_budget: cfg.units,
        mem_budget: cfg.units,
    };
    let rec = run_search(SearchAlgorithm::DynamicProgramming, &dp, model, scfg).expect("m1 DP");
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
    println!("m1 check OK: fleet placement == single-machine DP recommendation (bit-exact).");
}
