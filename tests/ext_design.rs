//! EXT-DESIGN — the physical-design advisor: joint secondary-index
//! selection and resource allocation over a scan-only TPC-H database.
//!
//! The lookup VM's queries enter as **SQL text** and run through the
//! full parser → binder → optimizer pipeline, so this experiment closes
//! the SQL → plan loop end to end: the same what-if pricer the advisor
//! uses is fed by plans the SQL frontend produced, not hand-built ones.
//!
//! Pins, on every `cargo test`:
//!
//! * the joint advisor never loses to either marginal (index-only at the
//!   equal split, allocation-only with no indexes), and on the `duo`
//!   scenario beats both **strictly**;
//! * the alternation history is monotone;
//! * with a zero storage budget the joint loop degenerates to the
//!   allocation-only answer bit-for-bit;
//! * the per-VM Lagrangian bound is below every objective and certifies
//!   it within a 25% optimality gap;
//! * every recommendation fingerprints to
//!   `tests/golden/design_fingerprints.txt`.
//!
//! `cargo test --release --test ext_design -- --nocapture` prints the
//! scenario table.

mod common;

use dbvirt::calibrate::CalibrationGrid;
use dbvirt::core::{DesignProblem, WorkloadSpec};
use dbvirt::design::{DesignAdvisor, DesignConfig};
use dbvirt::sql::parse_query;
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::MachineSpec;
use dbvirt_bench::{experiment_machine, print_table};
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/design_fingerprints.txt";
const UNITS: u32 = 8;
/// Fixed per-VM disk share: one calibration grid serves the 2-VM and
/// 3-VM scenarios alike.
const DISK_SHARE: f64 = 0.25;

/// [`experiment_machine`] with an SSD-class random-read rate. The
/// paper-era testbed disk (100 iops) charges ~40 ms per heap fetch at a
/// quarter disk share — no selectivity can amortize that, so secondary
/// indexes never beat a sequential scan and the design problem is
/// vacuous. 2000 iops keeps scan bandwidth identical but lets selective
/// lookups win wherever the working set spills out of the buffer cache,
/// which is exactly the regime the joint advisor is built for.
fn design_machine() -> MachineSpec {
    let mut m = experiment_machine();
    m.disk_random_iops = 2000.0;
    m
}

/// The lookup VM's workload, as SQL text. Selective point and small-range
/// predicates on `lineitem` — the one table big enough that the
/// experiment machine cannot cache it at scarce memory shares, so
/// secondary indexes actually pay for their random I/O.
const LOOKUP_SQL: &[&str] = &[
    "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 4242",
    "SELECT l_partkey, l_extendedprice FROM lineitem WHERE l_partkey = 271",
    "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_orderkey IN (11, 901, 17777)",
];

#[test]
fn joint_design_beats_both_marginals_and_replays_the_golden() {
    let t = TpchDb::generate(TpchConfig::experiment().scan_only()).unwrap();
    let machine = design_machine();
    let points: Vec<f64> = (1..=UNITS).map(|u| u as f64 / UNITS as f64).collect();
    let grid = CalibrationGrid::calibrate(machine, points.clone(), points, DISK_SHARE).unwrap();

    // The three VM personalities. Lookups arrive as SQL text; the report
    // and mixed mixes reuse the benchmark's stock logical plans.
    let sql = |s: &str| parse_query(s, &t.db).unwrap();
    let lookups: Vec<_> = LOOKUP_SQL.iter().map(|s| sql(s)).collect();
    let reports = vec![TpchQuery::Q1.plan(&t), TpchQuery::Q14.plan(&t)];
    let mixed = vec![
        TpchQuery::Q6.plan(&t),
        sql("SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 31337"),
    ];
    let spec =
        |name: &str, queries: &Vec<_>| WorkloadSpec::new(name.to_string(), &t.db, queries.clone());
    let duo = || vec![spec("lookups", &lookups), spec("reports", &reports)];
    let trio = vec![
        spec("lookups", &lookups),
        spec("reports", &reports),
        spec("mixed", &mixed),
    ];
    let scenarios = [
        ("duo", 2600, duo()),
        ("trio", 2600, trio),
        ("frozen", 0, duo()),
    ];

    let mut rows = Vec::new();
    let mut lines = String::new();
    for (name, budget_pages, workloads) in scenarios {
        let n = workloads.len();
        let problem = DesignProblem::new(machine, workloads).unwrap();
        let mut cfg = DesignConfig::new(UNITS, n).with_budget(budget_pages);
        cfg.disk_share = DISK_SHARE;
        let advisor = DesignAdvisor::new(&grid, cfg);

        let start = std::time::Instant::now();
        let joint = advisor.advise(&problem).unwrap();
        let wall = start.elapsed().as_secs_f64();
        let index_only = advisor.advise_index_only(&problem).unwrap();
        let alloc_only = advisor.advise_allocation_only(&problem).unwrap();

        for w in joint.alternation_objectives.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "{name}: alternation objective rose {} -> {}",
                w[0],
                w[1]
            );
        }
        for marginal in [&index_only, &alloc_only] {
            assert!(
                joint.objective <= marginal.objective + 1e-9,
                "{name}: joint {} lost to {} {}",
                joint.objective,
                marginal.mode,
                marginal.objective
            );
        }
        match name {
            // Co-optimization buys real headroom on the pinned scenario.
            "duo" => {
                for marginal in [&index_only, &alloc_only] {
                    assert!(
                        joint.objective < marginal.objective * (1.0 - 1e-6),
                        "duo: joint {} does not strictly beat {} {}",
                        joint.objective,
                        marginal.mode,
                        marginal.objective
                    );
                }
                assert!(
                    !joint.per_vm[0].chosen.is_empty(),
                    "duo: the lookup VM chose no index"
                );
            }
            "frozen" => {
                assert_eq!(
                    joint.objective.to_bits(),
                    alloc_only.objective.to_bits(),
                    "frozen: zero-budget joint differs from allocation-only"
                );
                assert!(joint.per_vm.iter().all(|vm| vm.mask == 0));
            }
            _ => {}
        }
        for rec in [&joint, &index_only, &alloc_only] {
            assert!(
                rec.optimality_gap <= 0.25,
                "{name}/{}: optimality gap {:.1}% exceeds the 25% pin",
                rec.mode,
                rec.optimality_gap * 100.0
            );
            assert!(
                rec.lp_bound <= rec.objective + 1e-9,
                "{name}/{}: LP bound above the objective",
                rec.mode
            );
            writeln!(
                lines,
                "DESIGN_FINGERPRINT {name}.{}={:016x}",
                rec.mode, rec.fingerprint
            )
            .unwrap();
        }

        let chosen_total: usize = joint.per_vm.iter().map(|vm| vm.chosen.len()).sum();
        let cells: Vec<String> = joint
            .cells
            .iter()
            .map(|&(c, m)| format!("{c}c{m}m"))
            .collect();
        rows.push(vec![
            name.to_string(),
            format!("{n}"),
            format!("{budget_pages}"),
            format!("{:.3}s", joint.objective),
            format!("{:.3}s", index_only.objective),
            format!("{:.3}s", alloc_only.objective),
            format!("{:.3}s", joint.lp_bound),
            format!("{:.1}%", joint.optimality_gap * 100.0),
            format!("{chosen_total}"),
            cells.join(" "),
            format!("{wall:.2}s"),
        ]);
    }
    print_table(
        "EXT-DESIGN: joint index selection + allocation vs the marginals",
        &[
            "scenario",
            "vms",
            "budget",
            "joint",
            "idx-only",
            "alloc-only",
            "LP bound",
            "gap",
            "indexes",
            "cells",
            "wall",
        ],
        &rows,
    );
    print!("{lines}");
    common::assert_golden(GOLDEN, &lines);
}
