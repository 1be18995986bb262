//! Golden measured-oracle bits: what `dbvirt_core::measure` and
//! `dbvirt_bench::measure_query_warm` answer, to the bit, for tenants shaped
//! like `perf/`'s `cold_advise` (Q1 + Q6 × 2, Q13 × 3, Q4 × 2, 40 seeded
//! index lookups; SF 0.005) plus one tenant of wide sorted joins, under
//! seven allocations on two machines — `MachineSpec::paper_testbed()`, whose
//! `work_mem` follows the memory share, and a machine shaped like `perf/`'s,
//! where every share sits on the 4 MiB `work_mem` floor: there the wide
//! tenant's sorts spill (636 and 1 017 pages written and read back), on the
//! testbed only under the 2 % memory share that reaches the same floor.
//!
//! Per machine × allocation × tenant: every query's `ResourceDemand` from
//! the machine's one `WorkloadProfile` of the tenant (`demands_under`, what
//! `workload_demands` answers one-shot: CPU-cycle bits and the three page
//! counts) and the bits of `measure_workload_seconds` (under two of the
//! allocations); per machine × allocation matrix the bits of
//! `measure_concurrent_seconds` (capped, and once work-conserving); per
//! machine × allocation × query the bits of `measure_query_warm`.
//! `tests/golden/measure_bits.txt` was captured from the commit *before* the
//! oracle stopped executing every query of a workload under every
//! configuration (`GOLDEN_REGENERATE=1` rewrites it): executing each
//! distinct plan once and replaying its page references must answer exactly
//! what the per-query execution over one shared pool did.

mod common;

use dbvirt::core::measure::{
    measure_concurrent_seconds, measure_workload_seconds, WorkloadProfile,
};
use dbvirt::optimizer::LogicalPlan;
use dbvirt::sql::parse_query;
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery};
use dbvirt::vmm::kernel::SplitMix64;
use dbvirt::vmm::sched::SchedMode;
use dbvirt::vmm::{AllocationMatrix, MachineSpec, ResourceVector};
use dbvirt_bench::measure_query_warm;
use std::fmt::Write;

const GOLDEN: &str = "tests/golden/measure_bits.txt";
const SCALE: f64 = 0.005;

/// `perf/`'s machine at scale 0.005: `dbvirt-bench`'s experiment machine
/// with its memory cut to a quarter.
fn small_machine() -> MachineSpec {
    MachineSpec {
        cores: 2,
        cycles_per_sec: 2.8e9,
        memory_bytes: 8 * 1024 * 1024,
        disk_seq_bytes_per_sec: 25.0 * 1024.0 * 1024.0,
        disk_random_iops: 100.0,
        page_size: 8192,
    }
}

/// `(cpu, memory, disk)` shares: the corners and the middle of what a
/// four-tenant, eight-unit search hands out, and two off-lattice points.
const ALLOCATIONS: [(f64, f64, f64); 7] = [
    (0.125, 0.125, 0.25),
    (0.125, 0.625, 0.25),
    (0.625, 0.125, 0.25),
    (0.25, 0.25, 0.25),
    (0.5, 0.375, 0.25),
    (0.3, 0.02, 1.0),
    (1.0, 1.0, 1.0),
];
/// The allocations `measure_workload_seconds` is pinned under as well.
const SOLO: [(f64, f64, f64); 2] = [ALLOCATIONS[0], ALLOCATIONS[5]];

/// The six lookup shapes `perf/` answers by index, literals drawn from a
/// seeded stream inside the key spaces of a scale-0.005 database.
fn lookups(n: usize) -> Vec<String> {
    let (customers, orders, parts) = (750, 7500, 1000);
    let mut r = SplitMix64(11);
    let mut key = |space: u64| r.next() % space;
    (0..n)
        .map(|k| match k % 6 {
            0 => format!(
                "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = {}",
                key(orders)
            ),
            1 => format!(
                "SELECT l_partkey, l_extendedprice FROM lineitem WHERE l_partkey = {}",
                key(parts)
            ),
            2 => format!(
                "SELECT l_orderkey, l_extendedprice FROM lineitem \
                 WHERE l_orderkey IN ({}, {}, {})",
                key(orders),
                key(orders),
                key(orders)
            ),
            3 => format!(
                "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {}",
                key(customers)
            ),
            4 => {
                let lo = key(orders - 24);
                format!(
                    "SELECT o_orderkey, o_orderdate FROM orders \
                     WHERE o_orderkey >= {lo} AND o_orderkey < {}",
                    lo + 24
                )
            }
            _ => format!(
                "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = {}",
                key(customers)
            ),
        })
        .collect()
}

/// The tenants, named: `perf/`'s four, and one whose sorts and hash builds
/// outgrow a 4 MiB `work_mem`.
fn tenants(t: &TpchDb) -> Vec<(&'static str, Vec<LogicalPlan>)> {
    let sql = |text: &str| parse_query(text, &t.db).unwrap_or_else(|e| panic!("{text}: {e}"));
    let repeat = |q: TpchQuery, n: usize| vec![q.plan(t); n];
    // Every column of a two- and a three-way join, sorted: 6 and 10 MB of
    // rows, against a 4 MiB floor.
    let lineitem_orders = "l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, \
         l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate, \
         l_commitdate, l_receiptdate, o_custkey, o_orderstatus, o_totalprice, o_orderdate, \
         o_orderpriority, o_comment";
    let sorted_pairs = sql(&format!(
        "SELECT {lineitem_orders} FROM lineitem, orders \
         WHERE l_orderkey = o_orderkey ORDER BY l_extendedprice"
    ));
    let sorted_triples = sql(&format!(
        "SELECT {lineitem_orders}, c_name, c_address, c_phone, c_acctbal, c_mktsegment, \
         c_comment FROM lineitem, orders, customer \
         WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey ORDER BY l_extendedprice"
    ));
    vec![
        (
            "reports",
            [repeat(TpchQuery::Q1, 1), repeat(TpchQuery::Q6, 2)].concat(),
        ),
        ("cpu", repeat(TpchQuery::Q13, 3)),
        ("io", repeat(TpchQuery::Q4, 2)),
        ("lookups", lookups(40).iter().map(|s| sql(s)).collect()),
        (
            "wide",
            vec![
                sorted_triples.clone(),
                TpchQuery::Q3.plan(t),
                sorted_pairs,
                sorted_triples,
            ],
        ),
    ]
}

fn render() -> String {
    let mut out = String::new();
    let t = TpchDb::generate(TpchConfig {
        scale: SCALE,
        seed: 42,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    let tenants = tenants(&t);
    let shares = |(cpu, mem, disk)| ResourceVector::from_fractions(cpu, mem, disk).expect("shares");
    for (machine_name, machine) in [
        ("paper", MachineSpec::paper_testbed()),
        ("small", small_machine()),
    ] {
        // One profile per tenant answers every allocation: each distinct
        // plan executes once, whichever allocation meets it first.
        let mut profiles: Vec<WorkloadProfile<'_>> = tenants
            .iter()
            .map(|(_, queries)| WorkloadProfile::new(&t.db, queries))
            .collect();
        for alloc in ALLOCATIONS {
            let (cpu, mem, disk) = alloc;
            let at = format!("{machine_name} {cpu}/{mem}/{disk}");
            for ((name, queries), profile) in tenants.iter().zip(&mut profiles) {
                let demands = profile
                    .demands_under(machine, shares(alloc))
                    .expect("workload executes");
                for (q, d) in demands.iter().enumerate() {
                    writeln!(
                        out,
                        "{at} {name}[{q}] cpu={:016x} seq={} random={} writes={}",
                        d.cpu_cycles.to_bits(),
                        d.seq_page_reads,
                        d.random_page_reads,
                        d.page_writes
                    )
                    .unwrap();
                }
                if !SOLO.contains(&alloc) {
                    continue;
                }
                let seconds = measure_workload_seconds(&t.db, queries, machine, shares(alloc))
                    .expect("workload executes");
                writeln!(out, "{at} {name} seconds={:016x}", seconds.to_bits()).unwrap();
            }
            // Steady state of one query of each kind: Q4, Q13, a spilling
            // sort, an index lookup.
            let warm = [("io", 0), ("cpu", 0), ("wide", 2), ("lookups", 4)];
            for (name, q) in warm {
                let (_, queries) = tenants.iter().find(|(n, _)| *n == name).expect("tenant");
                let seconds = measure_query_warm(&t.db, &queries[q], machine, shares(alloc))
                    .expect("query executes");
                writeln!(
                    out,
                    "{at} warm {name}[{q}] seconds={:016x}",
                    seconds.to_bits()
                )
                .unwrap();
            }
        }

        // Co-runs of the five tenants, all on the one database: an equal
        // split, the kind of matrix the advisor hands out, and one
        // that starves the wide tenant of memory.
        let matrices: [[(f64, f64, f64); 5]; 3] = [
            [(0.2, 0.2, 0.2); 5],
            [
                (0.125, 0.125, 0.2),
                (0.5, 0.125, 0.2),
                (0.125, 0.375, 0.2),
                (0.125, 0.125, 0.2),
                (0.125, 0.25, 0.2),
            ],
            [
                (0.1, 0.3, 0.2),
                (0.3, 0.3, 0.2),
                (0.2, 0.3, 0.2),
                (0.1, 0.05, 0.2),
                (0.3, 0.05, 0.2),
            ],
        ];
        let workloads: Vec<&[LogicalPlan]> = tenants.iter().map(|(_, q)| q.as_slice()).collect();
        for (k, rows) in matrices.iter().enumerate() {
            let allocation =
                AllocationMatrix::new(rows.iter().map(|&r| shares(r)).collect()).expect("matrix");
            let modes = [SchedMode::Capped, SchedMode::WorkConserving];
            for &mode in &modes[..if k == 1 { 2 } else { 1 }] {
                let dbs = vec![&t.db; tenants.len()];
                let times =
                    measure_concurrent_seconds(&dbs, &workloads, machine, &allocation, mode)
                        .expect("co-run executes");
                let bits: Vec<String> = times
                    .iter()
                    .map(|s| format!("{:016x}", s.to_bits()))
                    .collect();
                writeln!(out, "{machine_name} matrix{k} {mode:?} {}", bits.join("/")).unwrap();
            }
        }
    }
    out
}

#[test]
fn every_measurement_answers_the_committed_bits() {
    let actual = render();
    common::assert_golden(GOLDEN, &actual);
    // The file must hold what it claims to: the wide tenant's three sorts
    // spill under every share of the small machine, and on the testbed under
    // the one share small enough.
    let spilled = |machine: &str| {
        let wide = actual
            .lines()
            .filter(|l| l.starts_with(machine) && l.contains(" wide["));
        wide.filter(|l| !l.contains(" warm ") && !l.ends_with("writes=0"))
            .count()
    };
    assert_eq!(
        (spilled("small"), spilled("paper")),
        (3 * ALLOCATIONS.len(), 3)
    );
}
