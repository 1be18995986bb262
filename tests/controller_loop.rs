//! End-to-end contract tests for the online control loop: determinism of
//! the decision trace across reruns, stationary stability,
//! drift recovery against the clairvoyant oracle, and crash-freedom under
//! injected observation noise.

use dbvirt_controller::{
    account_regret, run_controller, ControllerConfig, ProblemTemplate, Scenario, VmTemplate,
    WorkloadProfile,
};
use dbvirt_core::SearchConfig;
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt_vmm::fault::{FaultInjector, NoiseModel};
use dbvirt_vmm::MachineSpec;

fn tiny_db() -> Database {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
    db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
        .unwrap();
    db.analyze_all().unwrap();
    db
}

fn template(db: &Database, n: usize, machine: MachineSpec) -> ProblemTemplate<'_> {
    let t = db.table_id("t").unwrap();
    ProblemTemplate {
        machine,
        vms: (0..n)
            .map(|i| VmTemplate {
                name: format!("vm{i}"),
                db,
                base_query: LogicalPlan::scan(t),
            })
            .collect(),
    }
}

fn cpu_heavy() -> WorkloadProfile {
    WorkloadProfile {
        cpu_cycles: 2.0e8,
        cold_seq_reads: 20.0,
        cold_random_reads: 5.0,
        page_writes: 0.0,
        reread_seq: 40.0,
        reread_random: 10.0,
        working_set_pages: 800.0,
        queries_per_epoch: 4.0,
    }
}

fn io_heavy() -> WorkloadProfile {
    WorkloadProfile {
        cpu_cycles: 2.0e7,
        cold_seq_reads: 400.0,
        cold_random_reads: 60.0,
        page_writes: 20.0,
        reread_seq: 2000.0,
        reread_random: 300.0,
        working_set_pages: 6000.0,
        queries_per_epoch: 2.0,
    }
}

fn config() -> ControllerConfig {
    ControllerConfig::new(SearchConfig::for_workloads(8, 2))
}

fn drifting() -> Scenario {
    Scenario::drifting(
        "drifting",
        MachineSpec::tiny(),
        vec![cpu_heavy(), io_heavy()],
        12,
        vec![io_heavy(), cpu_heavy()],
        12,
        11,
    )
}

#[test]
fn decision_trace_is_bit_identical_across_reruns() {
    let db = tiny_db();
    let template = template(&db, 2, MachineSpec::tiny());
    let scenario = drifting();
    let reference = run_controller(&scenario, &template, &config())
        .unwrap()
        .trace_fingerprint();
    // Re-run with the identical config: the trace must replay exactly.
    let rerun = run_controller(&scenario, &template, &config())
        .unwrap()
        .trace_fingerprint();
    assert_eq!(reference, rerun, "identical inputs must replay identically");
}

#[test]
fn stationary_stream_places_once_and_holds() {
    let db = tiny_db();
    let template = template(&db, 2, MachineSpec::tiny());
    let scenario = Scenario::stationary(
        "stationary",
        MachineSpec::tiny(),
        vec![cpu_heavy(), io_heavy()],
        16,
        11,
    );
    let out = run_controller(&scenario, &template, &config()).unwrap();
    assert!(out.placement.is_some(), "warmup must end in a placement");
    assert!(
        out.switches.is_empty(),
        "a stationary stream must never be reconfigured"
    );
    assert_eq!(out.drift_detections, 0);
}

#[test]
fn drift_recovery_beats_holding_and_stays_near_the_oracle() {
    let db = tiny_db();
    let template = template(&db, 2, MachineSpec::tiny());
    let scenario = drifting();
    let cfg = config();
    let out = run_controller(&scenario, &template, &cfg).unwrap();
    assert!(!out.switches.is_empty(), "the flip must trigger a switch");
    let report = account_regret(&scenario, &template, &cfg, &out).unwrap();
    assert!(
        report.controller_cost < report.never_cost,
        "reconfiguring must beat holding the placement: {:.3}s vs {:.3}s",
        report.controller_cost,
        report.never_cost
    );
    assert!(
        report.oracle_cost <= report.controller_cost,
        "clairvoyance is a lower bound"
    );
    assert!(
        report.relative_regret <= 0.15,
        "regret must stay within 15% of clairvoyant, got {:.1}%",
        report.relative_regret * 100.0
    );
}

#[test]
fn noisy_observations_never_panic_the_loop() {
    let db = tiny_db();
    let template = template(&db, 2, MachineSpec::tiny());
    for seed in 0..6u64 {
        let scenario = drifting()
            .with_variability(0.1)
            .with_noise(FaultInjector::new(NoiseModel::realistic(0.05), seed));
        let out = run_controller(&scenario, &template, &config())
            .expect("noise perturbs observations, never the loop itself");
        assert_eq!(out.allocations.len(), scenario.total_epochs());
        assert!(out.total_cost.is_finite());
    }
}
