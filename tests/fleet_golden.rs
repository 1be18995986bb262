//! Golden allocation and placement bits: what the resource-allocation DP
//! and the fleet placement ladder answer, to the bit, on problems shaped
//! like the benchmark's.
//!
//! `tests/golden/fleet_bits.txt` was captured from the commit *before* the
//! DP became a table-driven kernel shared by `dbvirt-core` and
//! `dbvirt-fleet` (this file copied there and run with
//! `GOLDEN_REGENERATE=1`). A change that moves one unit of one
//! assignment, one bit of one objective or LP bound, one evaluation, one
//! local-search step, one solve or one memo hit fails here.

mod common;

use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::search::{run_search, SearchAlgorithm, SearchConfig};
use dbvirt::core::{CalibratedCostModel, CoreError, CostModel, DesignProblem, WorkloadSpec};
use dbvirt::engine::Database;
use dbvirt::fleet::{FleetAdvisor, FleetConfig, FleetProblem, FleetReport, FleetVm};
use dbvirt::optimizer::LogicalPlan;
use dbvirt::sql::parse_query;
use dbvirt::storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::kernel::SplitMix64;
use dbvirt::vmm::{MachineSpec, ResourceVector};
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/fleet_bits.txt";

// ---------------------------------------------------------------------
// Core DP rows
// ---------------------------------------------------------------------

/// Separable and deliberately *not* convex: a smooth `a/cpu + b/mem` term
/// plus a per-cell ripple, so optima sit off the diagonal. Workloads
/// `2k` and `2k+1` share their coefficients, so equal-cost candidates
/// exist and the strict-`<` tie-breaks decide the assignment.
struct Ripple;

impl CostModel for Ripple {
    fn cost(
        &self,
        _problem: &DesignProblem<'_>,
        w_idx: usize,
        shares: ResourceVector,
    ) -> Result<f64, CoreError> {
        let k = (w_idx / 2) as f64;
        let (a, b) = (1.0 + 2.25 * k, 5.0 / (1.0 + k));
        let (cpu, mem) = (shares.cpu().fraction(), shares.memory().fraction());
        let ripple = ((cpu * 37.0 + mem * 11.0 + k) * 1.7).sin() * 0.4;
        Ok(a / cpu + b / mem + ripple)
    }
}

fn tiny_db() -> Database {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
    db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
        .expect("rows");
    db.analyze_all().expect("analyze");
    db
}

fn render_core(out: &mut String) {
    let db = tiny_db();
    let t = db.table_id("t").expect("table");
    for n in 2..=8usize {
        let workloads = (0..n)
            .map(|i| {
                WorkloadSpec::new(format!("w{i}"), &db, vec![LogicalPlan::scan(t)])
                    .with_weight(0.5 + (i % 4) as f64 * 0.75)
            })
            .collect();
        let problem = DesignProblem::new(MachineSpec::paper_testbed(), workloads).expect("problem");
        for units in [6u32, 12] {
            for min_units in [1u32, 2] {
                for (cpu_cut, mem_cut) in [(0u32, 0u32), (1, 2), (3, 0)] {
                    let (cpu, mem) = (units - cpu_cut, units - mem_cut);
                    let floor = min_units * n as u32;
                    if floor > cpu || floor > mem {
                        continue;
                    }
                    let mut cfg = SearchConfig::for_workloads(units, n).with_budgets(cpu, mem);
                    cfg.min_units = min_units;
                    let rec =
                        run_search(SearchAlgorithm::DynamicProgramming, &problem, &Ripple, cfg)
                            .expect("DP");
                    let assignment: Vec<(u32, u32)> = rec
                        .allocation
                        .rows()
                        .map(|row| {
                            (
                                (row.cpu().fraction() * units as f64).round() as u32,
                                (row.memory().fraction() * units as f64).round() as u32,
                            )
                        })
                        .collect();
                    writeln!(
                        out,
                        "dp n={n} units={units} min={min_units} budget=({cpu},{mem}) \
                         {assignment:?} obj={:016x} total={:016x} evals={}",
                        rec.objective.to_bits(),
                        rec.total_cost.to_bits(),
                        rec.evaluations,
                    )
                    .expect("write");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fleet rows
// ---------------------------------------------------------------------

const UNITS: u32 = 6;
/// `(VMs, small machines, big machines)`: the three sizes of
/// `perf/src/workloads/fleet_place.rs`.
const FLEETS: [(usize, usize, usize); 3] = [(16, 2, 2), (24, 3, 3), (32, 4, 4)];
/// The benchmark's VM mixes, as counts of TPC-H queries.
const MIXES: [&[(TpchQuery, usize)]; 6] = [
    &[(TpchQuery::Q6, 1)],
    &[(TpchQuery::Q1, 1)],
    &[(TpchQuery::Q14, 1)],
    &[(TpchQuery::Q4, 1)],
    &[(TpchQuery::Q6, 2)],
    &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 1)],
];

/// `dbvirt_bench::experiment_machine()`, and `tests/ext_fleet.rs`'s
/// compute-optimized second class derived from it.
fn machine_classes() -> [MachineSpec; 2] {
    let small = MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 32 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    };
    let mut big = small;
    big.cycles_per_sec *= 1.35;
    big.memory_bytes /= 4;
    big.disk_seq_bytes_per_sec *= 6.0;
    [small, big]
}

fn report_line(out: &mut String, label: &str, r: &FleetReport) {
    let p = &r.placement;
    let ls = &r.local_search;
    writeln!(
        out,
        "{label} machine_of={:?} units_of={:?} steady={:016x} migration={:016x} total={:016x} \
         greedy={:016x} lp={:016x} lp_iters={} ls=({},{},{},{},{},{}) solves={} memo_hits={}",
        p.machine_of,
        p.units_of,
        p.steady_objective.to_bits(),
        p.migration_seconds.to_bits(),
        p.total_objective.to_bits(),
        r.greedy_placement.total_objective.to_bits(),
        r.lp.bound.to_bits(),
        r.lp.iterations,
        ls.rounds,
        ls.moves_applied,
        ls.swaps_applied,
        ls.candidates_evaluated,
        ls.swaps_enumerated,
        ls.swap_candidates_sampled,
        r.solves,
        r.memo_hits,
    )
    .expect("write");
}

fn render_fleet(out: &mut String) {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.001,
        seed: 11,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    let cfg = FleetConfig::new(UNITS).with_parallelism(1);
    let classes = machine_classes();
    let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
    let grids = classes.map(|class| {
        CalibrationGrid::calibrate(class, points.clone(), points.clone(), cfg.disk_share)
            .expect("class calibration")
    });
    let models = grids.each_ref().map(CalibratedCostModel::new);
    let mixes: Vec<Vec<LogicalPlan>> = MIXES
        .iter()
        .map(|mix| {
            mix.iter()
                .flat_map(|&(q, count)| std::iter::repeat_n(q, count))
                .map(|q| parse_query(q.sql(), &t.db).expect("mix SQL"))
                .collect()
        })
        .collect();

    for (f, &(n, small, big)) in FLEETS.iter().enumerate() {
        let mut r = SplitMix64(0xf1ee7 + f as u64);
        // A seeded deal: mixes round-robin over a permutation of the VMs,
        // weights from five levels, a tenth re-weighted for the warm ask.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (r.next() % (i as u64 + 1)) as usize);
        }
        let mut deal = vec![(0usize, 0.0f64, 0.0f64); n];
        for (k, &i) in order.iter().enumerate() {
            let w = 0.5 + (r.next() % 5) as f64 * 0.45;
            let reweight = if k < n / 10 {
                0.7 + (r.next() % 5) as f64 * 0.45
            } else {
                w
            };
            deal[i] = (k % MIXES.len(), w, reweight);
        }
        let machines: Vec<MachineSpec> = std::iter::repeat_n(classes[0], small)
            .chain(std::iter::repeat_n(classes[1], big))
            .collect();
        let problem = |reweighted: bool| {
            let vms = deal
                .iter()
                .enumerate()
                .map(|(i, &(mix, w, rw))| {
                    FleetVm::new(format!("vm{i:03}"), &t.db, mixes[mix].clone())
                        .with_weight(if reweighted { rw } else { w })
                })
                .collect();
            FleetProblem::new(machines.clone(), vms).expect("fleet problem")
        };
        let class_models: Vec<&dyn CostModel> =
            models.iter().map(|m| m as &dyn CostModel).collect();
        let advisor = FleetAdvisor::new(machines.clone(), class_models, cfg).expect("advisor");
        let cold = advisor.place(&problem(false)).expect("cold place");
        report_line(out, &format!("fleet{n} cold"), &cold);
        let second = problem(true)
            .with_current(cold.placement.as_current())
            .expect("deployed placement");
        let warm = advisor.place(&second).expect("warm place");
        assert_eq!(warm.prewarm_cells, 0, "the warm ask re-priced cells");
        report_line(out, &format!("fleet{n} warm"), &warm);
    }
}

/// One line per DP problem, then one per placement request.
pub fn render() -> String {
    let mut out = String::new();
    render_core(&mut out);
    render_fleet(&mut out);
    out
}

#[test]
fn dp_and_placements_answer_the_committed_bits() {
    common::assert_golden(GOLDEN, &render());
}
