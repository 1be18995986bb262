//! Fleet placement micro-benchmarks at the `perf/` benchmark's median
//! shape (24 VMs on 3 + 3 machines of two classes, 6 share units,
//! SQL-bound TPC-H mixes): a cold `place` on a fresh advisor (pre-warm,
//! greedy, local search, LP bound) and the warm re-`place` of a re-weighted
//! fleet over the deployed placement (the same ladder over warm tables,
//! plus rebalance pricing). `perf/`'s `fleet_place` workload is the
//! end-to-end number; these isolate the ladder.

use criterion::{criterion_group, criterion_main, Criterion};
use dbvirt_bench::experiment_machine;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::{CalibratedCostModel, CostModel};
use dbvirt_fleet::{FleetAdvisor, FleetConfig, FleetProblem, FleetVm};
use dbvirt_optimizer::LogicalPlan;
use dbvirt_sql::parse_query;
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt_vmm::MachineSpec;
use std::hint::black_box;

const UNITS: u32 = 6;
const VMS: usize = 24;
const MIXES: [&[TpchQuery]; 6] = [
    &[TpchQuery::Q6],
    &[TpchQuery::Q1],
    &[TpchQuery::Q14],
    &[TpchQuery::Q4],
    &[TpchQuery::Q6, TpchQuery::Q6],
    &[TpchQuery::Q1, TpchQuery::Q6],
];

fn bench_place(c: &mut Criterion) {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.001,
        seed: 11,
        with_indexes: true,
    })
    .expect("tpch generation");
    let cfg = FleetConfig::new(UNITS).with_parallelism(1);
    let small = experiment_machine();
    let mut big = small;
    big.cycles_per_sec *= 1.35;
    big.memory_bytes /= 4;
    big.disk_seq_bytes_per_sec *= 6.0;
    let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
    let grids = [small, big].map(|class| {
        CalibrationGrid::calibrate(class, points.clone(), points.clone(), cfg.disk_share)
            .expect("class calibration")
    });
    let models = grids.each_ref().map(CalibratedCostModel::new);
    let class_models = || {
        models
            .iter()
            .map(|m| m as &dyn CostModel)
            .collect::<Vec<_>>()
    };
    let mixes: Vec<Vec<LogicalPlan>> = MIXES
        .iter()
        .map(|mix| {
            mix.iter()
                .map(|q| parse_query(q.sql(), &t.db).expect("mix SQL"))
                .collect()
        })
        .collect();
    let machines: Vec<MachineSpec> = [small, small, small, big, big, big].to_vec();
    let problem = |reweighted: bool| {
        let vms = (0..VMS)
            .map(|i| {
                let bump = if reweighted && i % 10 == 3 { 0.65 } else { 0.0 };
                FleetVm::new(format!("vm{i:03}"), &t.db, mixes[i % MIXES.len()].clone())
                    .with_weight(0.5 + (i * 7 % 5) as f64 * 0.45 + bump)
            })
            .collect();
        FleetProblem::new(machines.clone(), vms).expect("fleet problem")
    };

    let first = problem(false);
    c.bench_function("fleet/place_cold_24vms_6machines", |b| {
        b.iter(|| {
            let advisor = FleetAdvisor::new(machines.clone(), class_models(), cfg).unwrap();
            black_box(advisor.place(&first).unwrap().placement.total_objective);
        });
    });

    let advisor = FleetAdvisor::new(machines.clone(), class_models(), cfg).unwrap();
    let deployed = advisor.place(&first).unwrap().placement.as_current();
    let second = problem(true).with_current(deployed).unwrap();
    c.bench_function("fleet/place_warm_24vms_6machines", |b| {
        b.iter(|| {
            let report = advisor.place(&second).unwrap();
            assert_eq!(report.prewarm_cells, 0);
            black_box(report.placement.total_objective);
        });
    });
}

criterion_group!(benches, bench_place);
criterion_main!(benches);
