//! Search-algorithm benchmarks. The synthetic (instant) cost model
//! isolates enumeration overhead; the calibrated what-if bench prices a
//! cold DP on a real model, where each cell re-prices a TPC-H workload —
//! the EXT-SEARCH experiment covers solution *quality*.

use criterion::{criterion_group, criterion_main, Criterion};
use dbvirt_bench::experiment_machine;
use dbvirt_core::search::{run_search, SearchAlgorithm, SearchConfig};
use dbvirt_core::{
    CalibratedCostModel, CoreError, CostModel, DesignProblem, VirtualizationAdvisor, WorkloadSpec,
};
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt_vmm::{MachineSpec, ResourceVector};
use std::hint::black_box;

/// Convex synthetic model: `w_c / cpu + w_m / mem` per workload.
struct Synthetic {
    weights: Vec<(f64, f64)>,
}

impl CostModel for Synthetic {
    fn cost(
        &self,
        _problem: &DesignProblem<'_>,
        w_idx: usize,
        shares: ResourceVector,
    ) -> Result<f64, CoreError> {
        let (wc, wm) = self.weights[w_idx];
        Ok(wc / shares.cpu().fraction() + wm / shares.memory().fraction())
    }
}

fn dummy_db() -> Database {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
    db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
        .unwrap();
    db.analyze_all().unwrap();
    db
}

fn bench_search(c: &mut Criterion) {
    let db = dummy_db();
    let t = db.table_id("t").unwrap();

    for n in [2usize, 3, 4] {
        let workloads: Vec<WorkloadSpec<'_>> = (0..n)
            .map(|i| WorkloadSpec::new(format!("w{i}"), &db, vec![LogicalPlan::scan(t)]))
            .collect();
        let problem = DesignProblem::new(MachineSpec::paper_testbed(), workloads).unwrap();
        let model = Synthetic {
            weights: (0..n)
                .map(|i| (1.0 + i as f64, 4.0 - i as f64 * 0.8))
                .collect(),
        };
        let config = SearchConfig::for_workloads(8, n);

        for alg in [
            SearchAlgorithm::Exhaustive,
            SearchAlgorithm::Greedy,
            SearchAlgorithm::DynamicProgramming,
        ] {
            c.bench_function(&format!("search/{}_{n}workloads", alg.name()), |b| {
                b.iter(|| {
                    let rec = run_search(alg, &problem, &model, config).unwrap();
                    black_box(rec.total_cost);
                });
            });
        }
    }
}

/// The DP kernel where its combinatorics dominate: 8 workloads over 12
/// units is 8 x 25 cells to price and a few thousand transitions to relax, against
/// the 8-unit rows above where the tables are most of the work.
fn bench_dp_kernel(c: &mut Criterion) {
    let db = dummy_db();
    let t = db.table_id("t").unwrap();
    let n = 8;
    let workloads: Vec<WorkloadSpec<'_>> = (0..n)
        .map(|i| WorkloadSpec::new(format!("w{i}"), &db, vec![LogicalPlan::scan(t)]))
        .collect();
    let problem = DesignProblem::new(MachineSpec::paper_testbed(), workloads).unwrap();
    let model = Synthetic {
        weights: (0..n)
            .map(|i| (1.0 + i as f64, 8.0 - i as f64 * 0.8))
            .collect(),
    };
    let config = SearchConfig::for_workloads(12, n);
    c.bench_function("search/dynamic-programming_8workloads_12units", |b| {
        b.iter(|| {
            let rec = run_search(
                SearchAlgorithm::DynamicProgramming,
                &problem,
                &model,
                config,
            )
            .unwrap();
            black_box(rec.total_cost);
        });
    });
}

/// A cold DP on the calibrated model: every run starts from a cold cache,
/// so it pays for its full cost table.
fn bench_whatif_dp(c: &mut Criterion) {
    let machine = experiment_machine();
    let t = TpchDb::generate(TpchConfig::experiment()).expect("tpch generation");
    let advisor = VirtualizationAdvisor::calibrate(machine, 2, 8).expect("advisor calibration");
    let model = CalibratedCostModel::new(advisor.grid());
    let w_io = Workload::compose(&t, &[(TpchQuery::Q4, 3)]);
    let w_cpu = Workload::compose(&t, &[(TpchQuery::Q13, 9)]);
    let problem = DesignProblem::new(
        machine,
        vec![
            WorkloadSpec::new(w_io.name.clone(), &t.db, w_io.queries.clone()),
            WorkloadSpec::new(w_cpu.name.clone(), &t.db, w_cpu.queries.clone()),
        ],
    )
    .expect("problem");

    let config = advisor.config();
    c.bench_function("search/whatif_dp", |b| {
        b.iter(|| {
            let rec = run_search(
                SearchAlgorithm::DynamicProgramming,
                &problem,
                &model,
                config,
            )
            .unwrap();
            black_box(rec.total_cost);
        });
    });
}

criterion_group!(benches, bench_search, bench_dp_kernel, bench_whatif_dp);
criterion_main!(benches);
