//! Parallel what-if evaluation: same recommendation, less wall clock.
//!
//! ```sh
//! cargo run --release --example parallel_search
//! ```
//!
//! The allocation search's cost is dominated by what-if evaluations
//! (each cell re-optimizes a workload under the interpolated `P(R)`).
//! `SearchConfig::parallelism` spreads those evaluations over worker
//! threads; the recommendation — allocation, costs, and even the
//! evaluation count — is bit-identical at every setting, so parallelism
//! is purely a wall-clock knob. This example runs the DP search at
//! several worker counts and checks the identity as it goes.

use dbvirt::core::search::run_search;
use dbvirt::core::{
    CalibratedCostModel, DesignProblem, SearchAlgorithm, VirtualizationAdvisor, WorkloadSpec,
};
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt::vmm::MachineSpec;

fn main() {
    let machine = MachineSpec::paper_testbed();
    println!("Generating a small TPC-H database ...");
    let t = TpchDb::generate(TpchConfig::tiny()).expect("tpch generation");
    let w1 = Workload::compose(&t, &[(TpchQuery::Q4, 2)]);
    let w2 = Workload::compose(&t, &[(TpchQuery::Q13, 6)]);
    let problem = DesignProblem::new(
        machine,
        vec![
            WorkloadSpec::new(w1.name.clone(), &t.db, w1.queries.clone()),
            WorkloadSpec::new(w2.name.clone(), &t.db, w2.queries.clone()),
        ],
    )
    .expect("problem");

    println!("Calibrating the optimizer (once per machine) ...");
    let advisor = VirtualizationAdvisor::calibrate(machine, 2, 8).expect("calibration");
    let model = CalibratedCostModel::new(advisor.grid());

    let cores = dbvirt::vmm::kernel::workers_for(0, usize::MAX);
    println!("\nDP search at several evaluation-worker counts ({cores} core(s) available):");
    let mut reference: Option<dbvirt::core::Recommendation> = None;
    for workers in [1usize, 2, 4, 0] {
        let config = advisor.config().with_parallelism(workers);
        let t0 = std::time::Instant::now();
        let rec = run_search(SearchAlgorithm::DynamicProgramming, &problem, &model, config)
            .expect("search");
        let elapsed = t0.elapsed().as_secs_f64();
        let label = if workers == 0 {
            format!("auto ({cores})")
        } else {
            workers.to_string()
        };
        match &reference {
            None => reference = Some(rec.clone()),
            Some(first) => {
                assert_eq!(first.objective.to_bits(), rec.objective.to_bits());
                assert_eq!(first.evaluations, rec.evaluations);
                assert_eq!(first.allocation.to_string(), rec.allocation.to_string());
            }
        }
        println!(
            "  workers {label:>8}: {elapsed:.4}s, objective {:.4}s, {} evaluations",
            rec.objective, rec.evaluations
        );
    }
    let rec = reference.expect("at least one run");
    println!(
        "\nEvery worker count returned the identical recommendation:\n{}",
        rec.allocation
    );
    println!(
        "On a multi-core machine the evaluation phase scales with the worker \
         count; on one core the knob is a no-op — never a correctness trade."
    );
}
