//! Planner micro-benchmarks: the what-if evaluations the design search
//! performs by the dozen must be cheap.

use criterion::{criterion_group, criterion_main, Criterion};
use dbvirt_optimizer::{plan_query, whatif, OptimizerParams, PreparedQuery, PreparedWorkload};
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery};
use std::hint::black_box;

fn bench_planner(c: &mut Criterion) {
    let t = TpchDb::generate(TpchConfig::tiny()).unwrap();
    let params = OptimizerParams::default();

    // Q6: single-table access-path selection.
    let q6 = TpchQuery::Q6.plan(&t);
    c.bench_function("plan/q6_access_path", |b| {
        b.iter(|| {
            let planned = plan_query(&t.db, &q6, &params).unwrap();
            black_box(planned.est_cost_units);
        });
    });

    // Q5: the 6-relation Selinger DP.
    let q5 = TpchQuery::Q5.plan(&t);
    c.bench_function("plan/q5_join_dp_6way", |b| {
        b.iter(|| {
            let planned = plan_query(&t.db, &q5, &params).unwrap();
            black_box(planned.est_cost_units);
        });
    });

    // The full what-if workload estimate from scratch: analyse + price.
    let workload: Vec<_> = TpchQuery::all().iter().map(|q| q.plan(&t)).collect();
    c.bench_function("whatif/all_nine_queries", |b| {
        b.iter(|| {
            let secs = whatif::estimate_workload_seconds(&t.db, &workload, &params).unwrap();
            black_box(secs);
        });
    });

    // Its two halves: what a search pays once per workload...
    c.bench_function("whatif/analyse_all_nine_queries", |b| {
        b.iter(|| black_box(PreparedWorkload::analyse(&t.db, &workload).unwrap()));
    });

    // ...and what it pays per allocation cell.
    let prepared = PreparedWorkload::analyse(&t.db, &workload).unwrap();
    c.bench_function("whatif/prepared_all_nine_queries", |b| {
        b.iter(|| black_box(prepared.estimate_seconds(black_box(&params)).unwrap()));
    });

    // The per-cell price of the 6-relation DP alone, over the splits
    // analysis kept.
    let q5 = PreparedQuery::analyse(&t.db, &q5, &[]).unwrap();
    let splits = q5.join_splits();
    println!(
        "Q5 join DP: {} enumerated -> {} connected ordered splits over {} connected subsets ({} bytes)",
        splits.enumerated, splits.connected, splits.subsets, splits.bytes
    );
    c.bench_function("whatif/prepared_q5_6way", |b| {
        b.iter(|| black_box(q5.cost_units(black_box(&params)).unwrap()));
    });
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
