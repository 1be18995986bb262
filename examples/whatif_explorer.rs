//! What-if explorer: watch the optimizer change its mind as the virtual
//! machine's resources change.
//!
//! ```sh
//! cargo run --release --example whatif_explorer
//! ```
//!
//! The paper's core mechanism is that only the environment-parameter
//! vector `P` changes with the resource allocation `R` — statistics and
//! access paths do not. This example calibrates `P(R)` at several
//! allocations and shows (a) how a query's estimated time moves, and
//! (b) that the *chosen plan itself* can flip when resources change.

use dbvirt::calibrate::calibrate;
use dbvirt::engine::{Database, Expr};
use dbvirt::optimizer::{LogicalPlan, PreparedQuery};
use dbvirt::storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt::vmm::{MachineSpec, ResourceVector};

fn main() {
    // A memory-scarce variant of the paper testbed, so that whether a
    // table stays cached genuinely depends on the VM's memory share.
    let machine = MachineSpec {
        memory_bytes: 32 * 1024 * 1024,
        ..MachineSpec::paper_testbed()
    };

    // A table big enough that index-vs-scan is a real decision.
    println!("Building a demo table (100k rows, index on `v`) ...");
    let mut db = Database::new();
    let t = db.create_table(
        "events",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("payload", DataType::Str),
        ]),
    );
    db.insert_rows(
        t,
        (0..100_000).map(|i| {
            Tuple::new(vec![
                Datum::Int(i),
                Datum::Int((i * 48_271) % 100_000),
                Datum::str("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
            ])
        }),
    )
    .expect("load");
    db.create_index("events_v", t, 1).expect("index");
    db.analyze_all().expect("analyze");

    // A borderline-selectivity range query (~10 of 100k rows): the index
    // avoids touching every tuple (saving CPU) but pays random I/O; the
    // sequential scan pays CPU for all 100k tuples but reads nothing when
    // the table is cached. Which side wins depends on the allocation.
    let query = LogicalPlan::scan_filtered(
        t,
        Expr::and(
            Expr::ge(Expr::col(1), Expr::int(0)),
            Expr::lt(Expr::col(1), Expr::int(10)),
        ),
    );

    // Statistics and access paths do not move with `R`: analyse once.
    let prepared = PreparedQuery::analyse(&db, &query, &[]).expect("analysis");
    println!(
        "\n{:<28} {:>12} {:>12}  plan",
        "allocation (cpu/mem/disk)", "est. time", "cpu_tuple"
    );
    for (cpu, mem) in [(0.75, 0.75), (0.75, 0.125), (0.25, 0.75), (0.25, 0.125)] {
        let shares = ResourceVector::from_fractions(cpu, mem, 0.5).expect("shares");
        // Calibrate P for this allocation (the paper does this off-line,
        // once per machine and R); it comes back checked, so planning the
        // analysed query under it cannot fail on `P`.
        let params = calibrate(machine, shares).expect("calibration");
        let planned = prepared.plan(&db, &query, &params, &[]).expect("planning");
        println!(
            "{:<28} {:>11.3}s {:>12.5}  {}",
            format!("{:.0}% / {:.0}% / 50%", cpu * 100.0, mem * 100.0),
            planned.est_seconds(),
            params.cpu_tuple_cost,
            planned.physical.node_name(),
        );
    }
    println!(
        "\nSame statistics, same indexes — different resources, different plan. This is the \
         virtualization-aware what-if mode the virtualization design problem is built on."
    );
}
