//! EXT-CONTROLLER — the online counterpart of EXT-DYNAMIC: a
//! drift-detecting control loop that is *not* told the phase sequence up
//! front (the paper's Section 7 next step, "monitor the workload ... and
//! reconfigure the virtual machines on the fly").
//!
//! Two scenario families built from TPC-H-derived workload profiles run
//! through `dbvirt-controller`:
//!
//! * four **pinned** clean streams — stationary (the loop must hold
//!   still), drifting (one mix flip it must catch), bursty (short
//!   excursions), and adversarial (fast alternation designed to tempt it
//!   into thrashing; the switch governor must learn the recurrence and
//!   provision ahead of it);
//! * a five-scenario production **zoo** — diurnal, flash crowd, noisy
//!   neighbor (4 VMs), correlated drift, slow ramp — each run under a
//!   seeded sensor-degradation fault model (dropouts, stale reads,
//!   corrupt probes) with a pinned regret ceiling.
//!
//! Every run is accounted against the clairvoyant per-phase oracle and a
//! never-reconfigure baseline on the identical query stream, and the
//! decision trace is fingerprinted so `scripts/replay_gate.sh` can assert
//! bit-identical behaviour across processes.

use dbvirt_bench::{experiment_machine, print_table, write_bench_artifact};
use dbvirt_calibrate::json::Json;
use dbvirt_controller::{
    account_regret, profile_from_queries, run_controller, ControllerConfig, ControllerOutcome,
    ProblemTemplate, RegretReport, Scenario, VmTemplate, WorkloadProfile,
};
use dbvirt_core::SearchConfig;
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt_vmm::fault::{FaultInjector, NoiseModel};
use dbvirt_vmm::MachineSpec;

const SEED: u64 = 11;

/// Pinned regret bands for the clean scenarios (relative to clairvoyant).
const DRIFTING_REGRET: f64 = 0.052;
const BURSTY_REGRET: f64 = 0.048;
const PIN_TOLERANCE: f64 = 0.01;
/// The adversarial alternation must stay within this ceiling — the switch
/// governor's contract.
const ADVERSARIAL_CEILING: f64 = 0.15;

fn config() -> ControllerConfig {
    ControllerConfig::new(SearchConfig::for_workloads(8, 2))
}

fn scenarios(
    machine: MachineSpec,
    cpu_bound: &WorkloadProfile,
    io_bound: &WorkloadProfile,
) -> Vec<Scenario> {
    let fwd = vec![*cpu_bound, *io_bound];
    let rev = vec![*io_bound, *cpu_bound];
    vec![
        Scenario::stationary("stationary", machine, fwd.clone(), 16, SEED),
        Scenario::drifting("drifting", machine, fwd.clone(), 12, rev.clone(), 12, SEED),
        Scenario::bursty("bursty", machine, fwd.clone(), rev.clone(), 8, 3, 2, SEED),
        Scenario::adversarial("adversarial", machine, fwd, rev, 2, 4, SEED),
    ]
}

/// The production zoo: each stream perturbed by the same seeded
/// sensor-degradation model (5% dropouts, 5% stale reads up to 2 epochs
/// old, 2% corrupt probes) plus mild per-query size variability. Returns
/// `(scenario, uses 4-VM template, regret ceiling)`.
fn zoo(
    machine: MachineSpec,
    cpu_bound: &WorkloadProfile,
    io_bound: &WorkloadProfile,
) -> Vec<(Scenario, bool, f64)> {
    let fwd = vec![*cpu_bound, *io_bound];
    let rev = vec![*io_bound, *cpu_bound];
    let degraded = |s: Scenario, salt: u64| -> Scenario {
        s.with_variability(0.05).with_noise(FaultInjector::new(
            NoiseModel::sensor_degraded(0.05, 0.05, 2, 0.02),
            SEED + salt,
        ))
    };
    vec![
        (
            degraded(
                Scenario::diurnal("diurnal", machine, fwd.clone(), rev.clone(), 6, 2, SEED),
                1,
            ),
            false,
            ZOO_CEILINGS[0].1,
        ),
        (
            degraded(
                Scenario::flash_crowd(
                    "flash-crowd",
                    machine,
                    fwd.clone(),
                    1,
                    2.5,
                    6,
                    4,
                    2,
                    2,
                    SEED,
                ),
                2,
            ),
            false,
            ZOO_CEILINGS[1].1,
        ),
        (
            degraded(
                Scenario::noisy_neighbor(
                    "noisy-neighbor",
                    machine,
                    *io_bound,
                    *cpu_bound,
                    vec![*cpu_bound, *cpu_bound],
                    8,
                    2,
                    SEED,
                ),
                3,
            ),
            true,
            ZOO_CEILINGS[2].1,
        ),
        (
            degraded(
                Scenario::correlated_drift("correlated-drift", machine, fwd.clone(), rev, 8, SEED),
                4,
            ),
            false,
            ZOO_CEILINGS[3].1,
        ),
        (
            degraded(
                Scenario::slow_ramp("slow-ramp", machine, fwd, vec![*io_bound, *cpu_bound], 4, 4, SEED),
                5,
            ),
            false,
            ZOO_CEILINGS[4].1,
        ),
    ]
}

/// Pinned per-scenario regret ceilings for the zoo (measured under the
/// seeded fault model, with headroom for the injected degradation).
const ZOO_CEILINGS: [(&str, f64); 5] = [
    ("diurnal", 0.09),
    ("flash-crowd", 0.03),
    ("noisy-neighbor", 0.15),
    ("correlated-drift", 0.18),
    ("slow-ramp", 0.09),
];

fn run_one(
    scenario: &Scenario,
    template: &ProblemTemplate<'_>,
    config: &ControllerConfig,
) -> (ControllerOutcome, RegretReport) {
    let out = run_controller(scenario, template, config).expect("controller run");
    let report = account_regret(scenario, template, config, &out).expect("regret accounting");
    (out, report)
}

fn main() {
    dbvirt_telemetry::enable();
    let wall_start = std::time::Instant::now();
    let machine = experiment_machine();
    println!(
        "Generating TPC-H (SF {:.3}) ...",
        TpchConfig::experiment().scale
    );
    let mut t = TpchDb::generate(TpchConfig::experiment()).expect("tpch generation");

    // Profile two contrasting mixes the same way EXT-CONSOL frames them:
    // a CPU-bound interactive mix and an I/O-bound batch mix.
    let cpu_mix = Workload::compose(&t, &[(TpchQuery::Q13, 2)]);
    let io_mix = Workload::compose(&t, &[(TpchQuery::Q4, 1), (TpchQuery::Q6, 1)]);
    let cpu_bound = profile_from_queries(&mut t.db, &cpu_mix.queries, machine, 4.0, 2.0)
        .expect("cpu-bound profile");
    let io_bound = profile_from_queries(&mut t.db, &io_mix.queries, machine, 2.0, 3.0)
        .expect("io-bound profile");
    println!(
        "Profiled mixes: {} at {:.3}s/query on the whole machine, {} at {:.3}s/query.",
        cpu_mix.name,
        cpu_bound.reference_seconds(&machine),
        io_mix.name,
        io_bound.reference_seconds(&machine),
    );

    let vm = |name: &str, query: &dbvirt_optimizer::LogicalPlan| VmTemplate {
        name: name.to_string(),
        db: &t.db,
        base_query: query.clone(),
    };
    let template = ProblemTemplate {
        machine,
        vms: vec![
            vm("vm0", &cpu_mix.queries[0]),
            vm("vm1", &io_mix.queries[0]),
        ],
    };
    // Four tenants for the noisy-neighbor stream: the swapping pair plus
    // two steady victims.
    let template4 = ProblemTemplate {
        machine,
        vms: vec![
            vm("vm0", &io_mix.queries[0]),
            vm("vm1", &cpu_mix.queries[0]),
            vm("vm2", &cpu_mix.queries[0]),
            vm("vm3", &cpu_mix.queries[0]),
        ],
    };
    let config = config();
    let config4 = ControllerConfig::new(SearchConfig::for_workloads(8, 4));

    let mut rows = Vec::new();
    let mut scenario_objs = Vec::new();
    let mut fingerprints = Vec::new();
    let mut regrets = Vec::new();

    let record = |scenario: &Scenario,
                  out: &ControllerOutcome,
                  report: &RegretReport,
                  run_secs: f64,
                  rows: &mut Vec<Vec<String>>,
                  objs: &mut Vec<Json>,
                  fps: &mut Vec<(String, u64)>,
                  regs: &mut Vec<(String, f64)>| {
        let fp = out.trace_fingerprint();
        println!(
            "  [{}] {} | switch epochs {:?}",
            scenario.name,
            out.health,
            out.switches.iter().map(|s| s.epoch).collect::<Vec<_>>()
        );
        rows.push(vec![
            scenario.name.clone(),
            format!("{}", scenario.total_epochs()),
            format!("{}", out.switches.len()),
            format!("{}", out.drift_detections),
            format!("{:.3}s", report.controller_cost),
            format!("{:.3}s", report.oracle_cost),
            format!("{:.3}s", report.never_cost),
            format!("{:.1}%", report.relative_regret * 100.0),
            format!("{}", report.suboptimal_epochs),
        ]);
        let h = &out.health;
        objs.push(Json::obj([
            ("scenario", Json::Str(scenario.name.to_string())),
            ("epochs", Json::Num(scenario.total_epochs() as f64)),
            ("decisions", Json::Num(out.decisions as f64)),
            ("switches", Json::Num(out.switches.len() as f64)),
            ("drift_detections", Json::Num(out.drift_detections as f64)),
            (
                "dropped_observations",
                Json::Num(out.dropped_observations as f64),
            ),
            ("dropout_vm_epochs", Json::Num(h.dropout_vm_epochs as f64)),
            ("max_staleness", Json::Num(h.max_staleness as f64)),
            ("governor_vetoes", Json::Num(h.governor_vetoes as f64)),
            (
                "prescheduled_switches",
                Json::Num(h.prescheduled_switches as f64),
            ),
            ("prediction_hits", Json::Num(h.prediction_hits as f64)),
            ("prediction_misses", Json::Num(h.prediction_misses as f64)),
            ("localized_solves", Json::Num(h.localized_solves as f64)),
            ("controller_cost_secs", Json::Num(report.controller_cost)),
            ("oracle_cost_secs", Json::Num(report.oracle_cost)),
            ("never_reconfigure_cost_secs", Json::Num(report.never_cost)),
            ("relative_regret", Json::Num(report.relative_regret)),
            ("oracle_switches", Json::Num(report.oracle_switches as f64)),
            (
                "suboptimal_epochs",
                Json::Num(report.suboptimal_epochs as f64),
            ),
            ("suboptimal_seconds", Json::Num(report.suboptimal_seconds)),
            ("run_secs", Json::Num(run_secs)),
            ("fingerprint", Json::Str(format!("{fp:016x}"))),
        ]));
        fps.push((scenario.name.clone(), fp));
        regs.push((scenario.name.clone(), report.relative_regret));
    };

    for scenario in scenarios(machine, &cpu_bound, &io_bound) {
        let run_start = std::time::Instant::now();
        let (out, report) = run_one(&scenario, &template, &config);
        let run_secs = run_start.elapsed().as_secs_f64();

        match scenario.name.as_str() {
            "stationary" => {
                assert!(
                    out.switches.is_empty(),
                    "stationary stream must never trigger a reconfiguration, got {}",
                    out.switches.len()
                );
            }
            "drifting" => {
                assert!(
                    (report.relative_regret - DRIFTING_REGRET).abs() <= PIN_TOLERANCE,
                    "drifting regret must stay within ±{:.0}pp of the pinned {:.1}%, got {:.1}%",
                    PIN_TOLERANCE * 100.0,
                    DRIFTING_REGRET * 100.0,
                    report.relative_regret * 100.0
                );
                assert!(
                    report.controller_cost < report.never_cost,
                    "reconfiguring must beat holding the placement: {:.3}s vs {:.3}s",
                    report.controller_cost,
                    report.never_cost
                );
            }
            "bursty" => {
                assert!(
                    (report.relative_regret - BURSTY_REGRET).abs() <= PIN_TOLERANCE,
                    "bursty regret must stay within ±{:.0}pp of the pinned {:.1}%, got {:.1}%",
                    PIN_TOLERANCE * 100.0,
                    BURSTY_REGRET * 100.0,
                    report.relative_regret * 100.0
                );
            }
            "adversarial" => {
                assert!(
                    report.relative_regret <= ADVERSARIAL_CEILING,
                    "the governor must keep adversarial regret within {:.0}%, got {:.1}%",
                    ADVERSARIAL_CEILING * 100.0,
                    report.relative_regret * 100.0
                );
                assert!(
                    report.controller_cost <= report.never_cost * 1.05,
                    "thrash guard: adversarial alternation must not lose more than 5% \
                     to the held placement, got {:.3}s vs {:.3}s",
                    report.controller_cost,
                    report.never_cost
                );
                assert!(
                    out.health.prescheduled_switches >= 1 && out.health.prediction_misses == 0,
                    "the alternation must be provisioned ahead without refuted predictions, \
                     health: {}",
                    out.health
                );
            }
            _ => {}
        }
        record(
            &scenario,
            &out,
            &report,
            run_secs,
            &mut rows,
            &mut scenario_objs,
            &mut fingerprints,
            &mut regrets,
        );
    }

    // The zoo: every stream must complete under the seeded fault model
    // (zero panics), actually exercise the fault path, and stay under its
    // pinned regret ceiling.
    for (scenario, wide, ceiling) in zoo(machine, &cpu_bound, &io_bound) {
        let (tmpl, cfg) = if wide {
            (&template4, &config4)
        } else {
            (&template, &config)
        };
        let run_start = std::time::Instant::now();
        let (out, report) = run_one(&scenario, tmpl, cfg);
        let run_secs = run_start.elapsed().as_secs_f64();
        assert!(
            out.health.dropped_observations > 0 || out.health.dropout_vm_epochs > 0,
            "[{}] the sensor-degradation model must actually bite",
            scenario.name
        );
        assert!(
            report.relative_regret <= ceiling,
            "[{}] regret ceiling breached: {:.1}% > {:.1}%",
            scenario.name,
            report.relative_regret * 100.0,
            ceiling * 100.0
        );
        record(
            &scenario,
            &out,
            &report,
            run_secs,
            &mut rows,
            &mut scenario_objs,
            &mut fingerprints,
            &mut regrets,
        );
    }

    print_table(
        "EXT-CONTROLLER: online control loop vs clairvoyant oracle vs never-reconfigure",
        &[
            "scenario",
            "epochs",
            "switches",
            "drifts",
            "controller",
            "oracle",
            "never",
            "regret",
            "subopt epochs",
        ],
        &rows,
    );
    println!(
        "\nShape check: stationary holds still, drifting catches the flip within a few \
         epochs of detection lag, the adversarial alternation is provisioned ahead by \
         the governor instead of thrashing, and the fault-injected zoo stays under its \
         regret ceilings."
    );

    // Determinism: the full drifting decision trace must be bit-identical
    // across repeated runs.
    let drifting = &scenarios(machine, &cpu_bound, &io_bound)[1];
    let baseline = run_controller(drifting, &template, &config)
        .expect("determinism baseline")
        .trace_fingerprint();
    let rerun = run_controller(drifting, &template, &config)
        .expect("determinism rerun")
        .trace_fingerprint();
    assert_eq!(rerun, baseline, "decision trace diverged across reruns");
    println!("Determinism: drifting trace bit-identical across reruns.");

    // Chaos sweep (opt-in): degraded sensors must cost accuracy at worst,
    // never crash the loop. Three fault shapes — jittery probes, heavy
    // dropouts, and long staleness — each across 8 seeds.
    let chaos = std::env::var("CONTROLLER_CHAOS").is_ok_and(|v| v == "1");
    if chaos {
        let models: [(&str, NoiseModel); 3] = [
            ("realistic", NoiseModel::realistic(0.05)),
            ("dropout", NoiseModel::sensor_degraded(0.3, 0.0, 0, 0.05)),
            ("stale", NoiseModel::sensor_degraded(0.05, 0.4, 4, 0.0)),
        ];
        for (label, model) in models {
            for seed in 0..8u64 {
                let noisy = scenarios(machine, &cpu_bound, &io_bound)
                    .into_iter()
                    .nth(1)
                    .unwrap()
                    .with_variability(0.1)
                    .with_noise(FaultInjector::new(model, seed));
                let out = run_controller(&noisy, &template, &config)
                    .expect("the controller must survive degraded sensors");
                println!(
                    "  chaos {label} seed {seed}: {} switches, {} dropped, \
                     {} dropout vm-epochs, max staleness {}, total {:.3}s",
                    out.switches.len(),
                    out.dropped_observations,
                    out.health.dropout_vm_epochs,
                    out.health.max_staleness,
                    out.total_cost
                );
            }
        }
        println!("Chaos: 3 fault shapes x 8 seeds completed without a panic.");
    }

    // One stable line per scenario for shell-level double-run diffing and
    // ceiling gating.
    for (name, fp) in &fingerprints {
        println!("CONTROLLER_FINGERPRINT {name}={fp:016x}");
    }
    for (name, regret) in &regrets {
        println!("CONTROLLER_REGRET {name}={regret:.4}");
    }

    let bench = Json::obj([
        ("experiment", Json::Str("ext_controller".to_string())),
        ("wall_secs", Json::Num(wall_start.elapsed().as_secs_f64())),
        ("scenarios", Json::Num(scenario_objs.len() as f64)),
        (
            "chaos_seeds",
            Json::Num((if chaos { 24 } else { 0 }) as f64),
        ),
        (
            "cpu_profile_reference_secs",
            Json::Num(cpu_bound.reference_seconds(&machine)),
        ),
        (
            "io_profile_reference_secs",
            Json::Num(io_bound.reference_seconds(&machine)),
        ),
        ("per_scenario", Json::Arr(scenario_objs)),
    ]);
    write_bench_artifact("BENCH_controller.json", &bench.pretty());
}
