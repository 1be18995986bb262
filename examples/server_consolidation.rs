//! Server consolidation: validate an allocation by *running* the
//! workloads concurrently, as the paper's Figure 5 does.
//!
//! ```sh
//! cargo run --release --example server_consolidation
//! ```
//!
//! Two department database servers — an order-fulfilment reporting server
//! (I/O-heavy) and a marketing analytics server (CPU-heavy) — are
//! consolidated onto one physical machine, each in its own VM. We compare
//! the naive equal split against a skewed CPU split by actually executing
//! both workloads concurrently under the simulated credit scheduler.

use dbvirt::core::measure::measure_concurrent_seconds;
use dbvirt::tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
use dbvirt::vmm::sched::SchedMode;
use dbvirt::vmm::{AllocationMatrix, MachineSpec, ResourceVector};

fn main() {
    let machine = MachineSpec {
        memory_bytes: 64 * 1024 * 1024,
        ..MachineSpec::paper_testbed()
    };

    // Each server has its own database instance, per the paper's
    // formulation ("a sequence of SQL statements against a separate
    // database").
    println!("Generating the two servers' databases ...");
    let fulfilment = TpchDb::generate(TpchConfig::tiny()).expect("generation");
    let marketing = TpchDb::generate(TpchConfig {
        seed: 7,
        ..TpchConfig::tiny()
    })
    .expect("generation");

    let w_fulfilment = Workload::compose(&fulfilment, &[(TpchQuery::Q4, 2), (TpchQuery::Q1, 1)]);
    let w_marketing = Workload::compose(&marketing, &[(TpchQuery::Q13, 8)]);
    println!(
        "Fulfilment workload: {}   Marketing workload: {}",
        w_fulfilment.name, w_marketing.name
    );

    let candidates = [
        (
            "equal split",
            AllocationMatrix::equal_split(2).expect("alloc"),
        ),
        (
            "cpu to marketing",
            AllocationMatrix::new(vec![
                ResourceVector::from_fractions(0.25, 0.5, 0.5).expect("shares"),
                ResourceVector::from_fractions(0.75, 0.5, 0.5).expect("shares"),
            ])
            .expect("alloc"),
        ),
    ];

    println!(
        "\n{:<18} {:>12} {:>12}",
        "allocation", "fulfilment", "marketing"
    );
    for (name, alloc) in &candidates {
        let times = measure_concurrent_seconds(
            &[&fulfilment.db, &marketing.db],
            &[&w_fulfilment.queries, &w_marketing.queries],
            machine,
            alloc,
            SchedMode::Capped,
        )
        .expect("co-scheduled run");
        println!("{name:<18} {:>11.3}s {:>11.3}s", times[0], times[1]);
    }
    println!(
        "\nThe skewed split speeds the CPU-bound marketing server up substantially while \
         leaving the I/O-bound fulfilment server nearly untouched — the paper's Figure 5 \
         effect, on your own workloads."
    );
}
