//! The designed probe queries.
//!
//! Each probe pairs a **fixed physical plan** (so the measured execution is
//! exactly the plan the equation describes — the paper ensures this by
//! designing queries whose plan choice is forced) with the **coefficient
//! row** its predicted runtime contributes to the linear system
//!
//! ```text
//! measured_seconds ≈ a·x,
//! x = [seq_page_s, random_page_s, cpu_tuple_s, cpu_index_tuple_s, cpu_operator_s]
//! ```
//!
//! Coefficients are computed from catalog statistics only — page counts,
//! row counts, operator counts, Yao's formula for distinct heap pages —
//! never from the engine's hidden cycle constants. Probe #1 is the paper's
//! worked example: `select max(a) from cal_narrow` with no index on `a`,
//! whose time is a weighted sum of per-page, per-tuple, and per-operator
//! costs.

use crate::{CalError, ProbeDb};
use dbvirt_engine::{AggExpr, AggFunc, Expr, PhysicalPlan};
use dbvirt_optimizer::cost::yao_pages;
use dbvirt_storage::Datum;
use std::ops::Bound;

/// Number of unknown parameters in the calibration system.
pub(crate) const NUM_UNKNOWNS: usize = 5;

/// Cache regime a probe is measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Fresh buffer pool: first-touch physical reads are part of the
    /// measurement.
    Cold,
    /// The plan is executed once unmeasured to populate the cache, then
    /// measured: the measurement is pure CPU (isolating per-tuple and
    /// per-index-entry CPU parameters from I/O noise).
    Warm,
}

/// One calibration probe.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Diagnostic name.
    pub name: &'static str,
    /// The fixed plan to execute and time.
    pub plan: PhysicalPlan,
    /// Coefficient row: predicted seconds = `coeffs · x`.
    pub coeffs: [f64; NUM_UNKNOWNS],
    /// Cold or warm measurement.
    pub cache: CacheState,
}

/// Wraps a scan in a global aggregate so that result-return overhead is
/// nil, as the paper prescribes ("the aggregation eliminates any overhead
/// for returning the result").
fn global_agg(input: PhysicalPlan, agg: AggExpr) -> PhysicalPlan {
    PhysicalPlan::HashAgg {
        input: Box::new(input),
        group_by: vec![],
        aggs: vec![agg],
    }
}

/// A filter of `n` always-true comparisons on `cal_narrow.a` joined by
/// ANDs (so its total operator count is `2n - 1`).
fn n_op_filter(n: usize) -> Expr {
    Expr::and_all(
        (0..n)
            .map(|k| Expr::ge(Expr::col(0), Expr::int(-(k as i64) - 1)))
            .collect(),
    )
}

/// Builds the probe suite for a calibration database.
///
/// The suite is overdetermined (six equations, five unknowns) and spans two
/// very different pages-per-row ratios plus two index-range sizes, which is
/// what makes every parameter identifiable. Fails with
/// [`CalError::ProbeFailed`] when `pdb`'s tables carry no statistics.
pub fn build_probes(pdb: &ProbeDb) -> Result<Vec<Probe>, CalError> {
    let stats = |table| {
        (pdb.db.table(table).stats.as_ref())
            .ok_or_else(|| CalError::probe_failed("<build>", "the probe database is not analyzed"))
    };
    let (narrow_stats, wide_stats) = (stats(pdb.narrow)?, stats(pdb.wide)?);
    let (n_pages, n_rows) = (narrow_stats.n_pages as f64, narrow_stats.n_rows as f64);
    let (w_pages, w_rows) = (wide_stats.n_pages as f64, wide_stats.n_rows as f64);

    let tree = pdb.db.index_tree(pdb.b_index);
    let (height, index_pages, entries) = (
        tree.height() as f64,
        tree.num_pages() as f64,
        tree.len() as f64,
    );

    let mut probes = Vec::new();

    // 1. The paper's example: select max(a) from cal_narrow (forced seq
    //    scan — no index on `a`). One aggregate transition per tuple.
    probes.push(Probe {
        name: "max_scan",
        plan: global_agg(
            PhysicalPlan::SeqScan {
                table: pdb.narrow,
                filter: None,
            },
            AggExpr::new(AggFunc::Max, Expr::col(0), "m"),
        ),
        coeffs: [n_pages, 0.0, n_rows, 0.0, n_rows],
        cache: CacheState::Cold,
    });

    // 2./3. Scans with 2 and 8 filter operators + count(*): the spread in
    //    operator count per tuple separates cpu_operator from cpu_tuple.
    for (name, n_cmps) in [("filter_scan_light", 2usize), ("filter_scan_heavy", 8)] {
        let filter = n_op_filter(n_cmps);
        let filter_ops = filter.num_operators() as f64;
        probes.push(Probe {
            name,
            plan: global_agg(
                PhysicalPlan::SeqScan {
                    table: pdb.narrow,
                    filter: Some(filter),
                },
                AggExpr::count_star("n"),
            ),
            coeffs: [n_pages, 0.0, n_rows, 0.0, n_rows * (filter_ops + 1.0)],
            cache: CacheState::Cold,
        });
    }

    // 4. Wide-table scan: ~7 rows per page instead of ~240, pinning the
    //    per-page term against the per-tuple term.
    probes.push(Probe {
        name: "wide_scan",
        plan: global_agg(
            PhysicalPlan::SeqScan {
                table: pdb.wide,
                filter: None,
            },
            AggExpr::count_star("n"),
        ),
        coeffs: [w_pages, 0.0, w_rows, 0.0, w_rows],
        cache: CacheState::Cold,
    });

    // 5./6. Cold index-range probes on cal_narrow.b at two range sizes:
    //    random index-node and heap-page fetches pin random_page_s, index
    //    entries pin cpu_index_tuple_s.
    for (name, tuples) in [("index_small", 300.0f64), ("index_large", 3000.0)] {
        let sel = tuples / entries;
        let rand_pages = height + sel * index_pages + yao_pages(n_pages, n_rows, tuples);
        probes.push(Probe {
            name,
            plan: global_agg(
                PhysicalPlan::IndexScan {
                    table: pdb.narrow,
                    index: pdb.b_index,
                    lo: Bound::Included(Datum::Int(0)),
                    hi: Bound::Excluded(Datum::Int(tuples as i64)),
                    filter: None,
                },
                AggExpr::count_star("n"),
            ),
            coeffs: [0.0, rand_pages, tuples, tuples, tuples],
            cache: CacheState::Cold,
        });
    }

    // 7./8. Warm index-range probes: the cache is pre-populated, so the
    //    measurement is pure CPU — this is what makes cpu_index_tuple_s
    //    identifiable (in the cold probes it is drowned by random I/O).
    for (name, tuples) in [("index_warm_small", 300.0f64), ("index_warm_large", 3000.0)] {
        probes.push(Probe {
            name,
            plan: global_agg(
                PhysicalPlan::IndexScan {
                    table: pdb.narrow,
                    index: pdb.b_index,
                    lo: Bound::Included(Datum::Int(0)),
                    hi: Bound::Excluded(Datum::Int(tuples as i64)),
                    filter: None,
                },
                AggExpr::count_star("n"),
            ),
            coeffs: [0.0, 0.0, tuples, tuples, tuples],
            cache: CacheState::Warm,
        });
    }

    Ok(probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_op_filter_counts_operators() {
        for n in [1usize, 2, 5, 8] {
            let f = n_op_filter(n);
            // n comparisons + (n - 1) ANDs.
            assert_eq!(f.num_operators(), (2 * n - 1) as u32, "n = {n}");
        }
    }

    #[test]
    fn suite_is_overdetermined_and_spans_all_unknowns() {
        let pdb = ProbeDb::build().unwrap();
        let probes = build_probes(&pdb).unwrap();
        assert!(probes.len() > NUM_UNKNOWNS);
        for j in 0..NUM_UNKNOWNS {
            assert!(
                probes.iter().any(|p| p.coeffs[j] > 0.0),
                "unknown {j} never appears"
            );
        }
        // The two pages/rows regimes really differ.
        let ratio = |p: &Probe| p.coeffs[0] / p.coeffs[2].max(1.0);
        let narrow = probes.iter().find(|p| p.name == "max_scan").unwrap();
        let wide = probes.iter().find(|p| p.name == "wide_scan").unwrap();
        assert!(ratio(wide) > 10.0 * ratio(narrow));
    }

    #[test]
    fn filter_coefficient_counts_match_plan_filters() {
        let pdb = ProbeDb::build().unwrap();
        let probes = build_probes(&pdb).unwrap();
        let light = probes
            .iter()
            .find(|p| p.name == "filter_scan_light")
            .unwrap();
        let heavy = probes
            .iter()
            .find(|p| p.name == "filter_scan_heavy")
            .unwrap();
        assert!(heavy.coeffs[4] > light.coeffs[4]);
    }
}
