//! Integration: the paper's Figure 5 scenario and the full advisor
//! pipeline, end to end.

use dbvirt::core::measure::measure_concurrent_seconds;
use dbvirt::core::{
    metrics, CalibratedCostModel, DesignProblem, SearchAlgorithm, VirtualizationAdvisor,
    WorkloadSpec,
};
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt::vmm::sched::SchedMode;
use dbvirt::vmm::{AllocationMatrix, MachineSpec, ResourceVector};

fn machine() -> MachineSpec {
    MachineSpec {
        memory_bytes: 32 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        ..MachineSpec::paper_testbed()
    }
}

#[test]
fn figure5_scenario_shape_holds() {
    let machine = machine();
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let w1 = Workload::compose(&t, &[(TpchQuery::Q4, 1)]);
    let w2 = Workload::compose(&t, &[(TpchQuery::Q13, 8)]);

    let default_alloc = AllocationMatrix::equal_split(2).unwrap();
    let skewed = AllocationMatrix::new(vec![
        ResourceVector::from_fractions(0.25, 0.5, 0.5).unwrap(),
        ResourceVector::from_fractions(0.75, 0.5, 0.5).unwrap(),
    ])
    .unwrap();

    let run = |alloc: &AllocationMatrix| {
        measure_concurrent_seconds(
            &[&t.db, &t.db],
            &[&w1.queries, &w2.queries],
            machine,
            alloc,
            SchedMode::Capped,
        )
        .unwrap()
    };
    let base = run(&default_alloc);
    let skew = run(&skewed);

    // The CPU-bound workload improves noticeably...
    let q13_improvement = 1.0 - skew[1] / base[1];
    assert!(
        q13_improvement > 0.15,
        "Q13 workload improvement only {:.1}%",
        q13_improvement * 100.0
    );
    // ...without (much) hurting the I/O-bound one.
    let q4_penalty = skew[0] / base[0] - 1.0;
    assert!(
        q4_penalty < 0.15,
        "Q4 workload hurt by {:.1}%",
        q4_penalty * 100.0
    );
}

#[test]
fn advisor_end_to_end_beats_or_ties_equal_split() {
    let machine = machine();
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let w_io = Workload::compose(&t, &[(TpchQuery::Q4, 1)]);
    let w_cpu = Workload::compose(&t, &[(TpchQuery::Q13, 6)]);
    let problem = DesignProblem::new(
        machine,
        vec![
            WorkloadSpec::new(w_io.name.clone(), &t.db, w_io.queries.clone()),
            WorkloadSpec::new(w_cpu.name.clone(), &t.db, w_cpu.queries.clone()),
        ],
    )
    .unwrap();

    let advisor = VirtualizationAdvisor::calibrate(machine, 2, 4).unwrap();
    let model = CalibratedCostModel::new(advisor.grid());
    let equal: f64 = metrics::equal_split_costs(&problem, &model)
        .unwrap()
        .iter()
        .sum();

    let dp = advisor
        .recommend(&problem, SearchAlgorithm::DynamicProgramming)
        .unwrap();
    let ex = advisor
        .recommend(&problem, SearchAlgorithm::Exhaustive)
        .unwrap();
    let greedy = advisor
        .recommend(&problem, SearchAlgorithm::Greedy)
        .unwrap();

    assert!(dp.total_cost <= equal + 1e-9);
    assert!(greedy.total_cost <= equal + 1e-9);
    assert!(
        (dp.total_cost - ex.total_cost).abs() < 1e-9,
        "DP {} vs exhaustive {}",
        dp.total_cost,
        ex.total_cost
    );
    // The CPU-bound workload never ends up with less CPU than the
    // I/O-bound one.
    assert!(dp.allocation.row(1).cpu() >= dp.allocation.row(0).cpu());
    // All recommendations are feasible allocations.
    assert!(
        dp.allocation.is_fully_utilized()
            || dp.allocation.column_sum(dbvirt::vmm::ResourceKind::Cpu) <= 1.0 + 1e-9
    );
}

#[test]
fn homogeneous_workloads_get_the_equal_split() {
    let machine = machine();
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let w = Workload::compose(&t, &[(TpchQuery::Q6, 2)]);
    let problem = DesignProblem::new(
        machine,
        vec![
            WorkloadSpec::new("a", &t.db, w.queries.clone()),
            WorkloadSpec::new("b", &t.db, w.queries.clone()),
        ],
    )
    .unwrap();
    let advisor = VirtualizationAdvisor::calibrate(machine, 2, 4).unwrap();
    let rec = advisor
        .recommend(&problem, SearchAlgorithm::DynamicProgramming)
        .unwrap();
    // The paper, Section 3: "If there are multiple virtual machines but
    // they are all running similar database workloads, then the available
    // resources should be divided equally."
    let model = CalibratedCostModel::new(advisor.grid());
    let equal: f64 = metrics::equal_split_costs(&problem, &model)
        .unwrap()
        .iter()
        .sum();
    assert!(
        (rec.total_cost - equal).abs() / equal < 1e-6,
        "identical workloads: recommended {} vs equal {}",
        rec.total_cost,
        equal
    );
}
