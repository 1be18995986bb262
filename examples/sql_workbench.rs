//! SQL workbench: write workloads as SQL, execute them, and price them
//! under different virtual-machine allocations.
//!
//! ```sh
//! cargo run --release --example sql_workbench
//! ```
//!
//! The paper defines a workload as "a sequence of SQL statements against a
//! separate database". This example does exactly that: a handful of SQL
//! queries over the generated TPC-H data, run through the full pipeline
//! (parse → bind → optimize → execute), then priced by the calibrated
//! what-if model at two candidate allocations.

use dbvirt::calibrate::calibrate;
use dbvirt::engine::{run_plan, CpuCosts};
use dbvirt::optimizer::{plan_query, whatif, OptimizerParams};
use dbvirt::sql::parse_query;
use dbvirt::storage::BufferPool;
use dbvirt::tpch::{TpchConfig, TpchDb};
use dbvirt::vmm::{MachineSpec, ResourceVector};

const QUERIES: &[(&str, &str)] = &[
    (
        "urgent order count",
        "SELECT o_orderpriority, COUNT(*) AS n FROM orders \
         WHERE o_orderdate >= DATE '1995-01-01' AND o_orderdate < DATE '1996-01-01' \
         GROUP BY o_orderpriority ORDER BY o_orderpriority",
    ),
    (
        "revenue by returnflag",
        "SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
                AVG(l_quantity) AS avg_qty \
         FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
         GROUP BY l_returnflag ORDER BY revenue DESC",
    ),
    (
        "top customers by order count",
        "SELECT c.c_name, COUNT(*) AS orders \
         FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey \
         WHERE o.o_comment NOT LIKE '%special%requests%' \
         GROUP BY c.c_name ORDER BY orders DESC, c_name LIMIT 5",
    ),
];

fn main() {
    println!("Generating TPC-H ...");
    let t = TpchDb::generate(TpchConfig::tiny()).expect("generation");
    let machine = MachineSpec::paper_testbed();

    println!("Calibrating P(R) at two candidate allocations ...");
    let quarter = ResourceVector::from_fractions(0.25, 0.5, 0.5).expect("shares");
    let threequarter = ResourceVector::from_fractions(0.75, 0.5, 0.5).expect("shares");
    let p_quarter = calibrate(machine, quarter).expect("calibration");
    let p_threequarter = calibrate(machine, threequarter).expect("calibration");

    for (label, sql) in QUERIES {
        println!("\n=== {label} ===\n{sql}");
        let logical = parse_query(sql, &t.db).expect("SQL should bind");
        let planned = plan_query(&t.db, &logical, &OptimizerParams::default()).expect("planning");
        let mut pool = BufferPool::new(4096);
        let out = run_plan(
            &t.db,
            &mut pool,
            &planned.physical,
            4 << 20,
            CpuCosts::default(),
        )
        .expect("execution");

        // Show up to five result rows.
        let names: Vec<String> = out.schema.fields().iter().map(|f| f.name.clone()).collect();
        println!(
            "-> {} rows  (columns: {})",
            out.rows.len(),
            names.join(", ")
        );
        for row in out.rows.iter().take(5) {
            let cells: Vec<String> = row.values().iter().map(ToString::to_string).collect();
            println!("   {}", cells.join(" | "));
        }

        // Price the same query at both allocations with the what-if model.
        let est_q = whatif::estimate_query_seconds(&t.db, &logical, &p_quarter).unwrap();
        let est_t = whatif::estimate_query_seconds(&t.db, &logical, &p_threequarter).unwrap();
        println!(
            "   what-if: {est_q:.4}s at 25% CPU vs {est_t:.4}s at 75% CPU  (x{:.2} speedup)",
            est_q / est_t
        );
    }
}
