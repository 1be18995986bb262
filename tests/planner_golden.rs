//! Golden planner bits: the estimated cost (as `f64` bits) and the shape of
//! the chosen physical plan for every benchmark statement under parameter
//! vectors on both sides of every `P`-dependent decision the planner makes
//! (seq-scan cache cutoff, `work_mem` spill, access-path choice, join
//! order, hash-vs-sort aggregation).
//!
//! `tests/golden/planner_bits.txt` was captured from the commit *before* the
//! planner was split into analyse / price / materialise, with `render()`
//! below run from a throwaway example there. A change that moves one bit of
//! one estimate, or one node of one plan, fails here.

mod common;

use common::LOOKUPS;
use dbvirt::engine::PhysicalPlan;
use dbvirt::optimizer::{plan_query_with_indexes, HypoIndex, LogicalPlan, OptimizerParams};
use dbvirt::sql::parse_query;
use dbvirt::tpch::{col, TpchConfig, TpchDb, TpchQuery};

fn param_vectors() -> Vec<(&'static str, OptimizerParams)> {
    let d = OptimizerParams::default();
    vec![
        ("default", d),
        (
            "rich_cache",
            OptimizerParams {
                effective_cache_size_pages: 1e6,
                ..d
            },
        ),
        (
            "poor_cache",
            OptimizerParams {
                effective_cache_size_pages: 1.0,
                random_page_cost: 40.0,
                ..d
            },
        ),
        (
            "tiny_work_mem",
            OptimizerParams {
                work_mem_bytes: 16.0 * 1024.0,
                effective_cache_size_pages: 1e6,
                ..d
            },
        ),
        (
            "cheap_random",
            OptimizerParams {
                random_page_cost: 1.0,
                effective_cache_size_pages: 1e6,
                ..d
            },
        ),
        (
            "dear_pages",
            OptimizerParams {
                effective_cache_size_pages: 1.0,
                random_page_cost: 400.0,
                seq_page_cost: 400.0,
                ..d
            },
        ),
        (
            "slow_cpu",
            OptimizerParams {
                cpu_tuple_cost: d.cpu_tuple_cost * 3.0,
                cpu_operator_cost: d.cpu_operator_cost * 7.0,
                cpu_index_tuple_cost: d.cpu_index_tuple_cost * 3.0,
                effective_cache_size_pages: 300.0,
                work_mem_bytes: 256.0 * 1024.0,
                ..d
            },
        ),
    ]
}

/// Pre-order operator names, children in parentheses.
fn shape(plan: &PhysicalPlan) -> String {
    let children = plan.children();
    if children.is_empty() {
        return plan.node_name().to_string();
    }
    let inner: Vec<String> = children.iter().map(|c| shape(c)).collect();
    format!("{}({})", plan.node_name(), inner.join(","))
}

/// Hash of the plan's full `Debug` rendering (keys, bounds, residual
/// filters, projections); `DefaultHasher::new()` uses fixed keys.
fn debug_hash(plan: &PhysicalPlan) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{plan:?}").hash(&mut h);
    h.finish()
}

/// One line per `(statement, index configuration, parameter vector)`.
pub fn render() -> String {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.005,
        seed: 42,
        with_indexes: true,
    })
    .expect("TPC-H generation");
    let mut statements: Vec<(String, LogicalPlan, Vec<HypoIndex>)> = TpchQuery::all()
        .iter()
        .map(|q| (q.to_string(), q.plan(&t), Vec::new()))
        .collect();
    for (i, sql) in LOOKUPS.iter().enumerate() {
        let plan = parse_query(sql, &t.db).expect("lookup compiles");
        statements.push((format!("lookup{i}"), plan, Vec::new()));
    }
    // Hypothetical configurations over the two shapes without a stock index:
    // a composite on shape 7's two columns beside a single on its minor
    // column, and a single on shape 6's column.
    let hypo = |columns: &[usize]| HypoIndex {
        table: t.lineitem,
        columns: columns.to_vec(),
    };
    let lookup = |i: usize| parse_query(LOOKUPS[i], &t.db).expect("lookup compiles");
    statements.push((
        "lookup7+hypo(partkey,quantity)+hypo(quantity)".to_string(),
        lookup(7),
        vec![
            hypo(&[col::lineitem::PARTKEY, col::lineitem::QUANTITY]),
            hypo(&[col::lineitem::QUANTITY]),
        ],
    ));
    statements.push((
        "lookup6+hypo(suppkey)".to_string(),
        lookup(6),
        vec![hypo(&[col::lineitem::SUPPKEY])],
    ));
    statements.push((
        "Q6+hypo(discount,quantity)".to_string(),
        TpchQuery::Q6.plan(&t),
        vec![hypo(&[col::lineitem::DISCOUNT, col::lineitem::QUANTITY])],
    ));

    let mut out = String::new();
    for (name, plan, hypo) in &statements {
        for (pname, p) in param_vectors() {
            let planned = plan_query_with_indexes(&t.db, plan, &p, hypo).expect("plans");
            out.push_str(&format!(
                "{name} {pname} {:016x} {:016x} {} {:016x} {}\n",
                planned.est_cost_units.to_bits(),
                planned.est_rows.to_bits(),
                planned.uses_hypothetical,
                debug_hash(&planned.physical),
                shape(&planned.physical),
            ));
        }
    }
    out
}

#[test]
fn every_statement_prices_and_plans_to_the_committed_bits() {
    common::assert_golden("tests/golden/planner_bits.txt", &render());
}
