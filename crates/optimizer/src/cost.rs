//! Per-operator cost formulas (the shape of PostgreSQL's `costsize.c`).
//!
//! All costs are in optimizer units (1 = one sequential page fetch) and are
//! functions of the environment-parameter vector [`OptimizerParams`] plus
//! statistics-derived sizes. The virtualization-aware what-if mode works by
//! evaluating these same formulas under different calibrated `P(R)`.

use crate::OptimizerParams;
use dbvirt_storage::PAGE_SIZE;

/// Expected number of distinct pages touched when fetching `k` random
/// tuples from a table of `n_rows` rows on `n_pages` pages (Yao's formula,
/// in the closed approximation `p * (1 - (1 - 1/p)^k)`).
pub fn yao_pages(n_pages: f64, _n_rows: f64, k_tuples: f64) -> f64 {
    if n_pages <= 0.0 || k_tuples <= 0.0 {
        return 0.0;
    }
    let p = n_pages.max(1.0);
    p * (1.0 - (1.0 - 1.0 / p).powf(k_tuples))
}

/// Physical pages a steady-state sequential scan reads: zero when the
/// **query's whole base-table working set** fits in the effective cache
/// (repeated executions are all hits), the full table when it does not —
/// a clock-swept cache smaller than the working set is flushed by the
/// query's own looping scans, so every page misses again.
///
/// PostgreSQL's `cost_seqscan` charges every page unconditionally; this
/// cache cutoff is a documented extension (DESIGN.md) that matches the
/// steady-state measurements the virtualization design problem optimizes
/// for — it is what makes the *memory* share matter to the what-if model,
/// as it does in the paper's Figure 3. Gating on the working set rather
/// than the single table keeps the model honest: it cannot claim a cache
/// win for one table of a query whose total footprint still thrashes.
pub(crate) fn seq_scan_io_pages(p: &OptimizerParams, pages: f64, working_set_pages: f64) -> f64 {
    if working_set_pages.max(pages) <= p.effective_cache_size_pages {
        0.0
    } else {
        pages
    }
}

/// Sequential scan: steady-state page I/O (see [`seq_scan_io_pages`]),
/// every row processed, the filter (with `filter_ops` operator
/// applications) evaluated per row. `working_set_pages` is the summed page
/// count of every distinct base table the whole query touches.
pub(crate) fn seq_scan_cost(
    p: &OptimizerParams,
    pages: f64,
    rows: f64,
    filter_ops: f64,
    working_set_pages: f64,
) -> f64 {
    seq_scan_io_pages(p, pages, working_set_pages) * p.seq_page_cost
        + rows * (p.cpu_tuple_cost + filter_ops * p.cpu_operator_cost)
}

/// Index scan: B+tree descent and leaf walk, index-entry CPU, then heap
/// fetches with a Mackert–Lohman-style cache discount against
/// `effective_cache_size`.
///
/// * `tuples_fetched` — rows selected by the index condition;
/// * repeats beyond the first touch of a page are free when the table fits
///   in the effective cache, and cost a full random fetch when it does not
///   (linear in between).
#[allow(clippy::too_many_arguments)]
pub(crate) fn index_scan_cost(
    p: &OptimizerParams,
    index_height: f64,
    index_leaf_pages: f64,
    index_entries: f64,
    selectivity: f64,
    table_pages: f64,
    table_rows: f64,
    filter_ops: f64,
) -> f64 {
    let selectivity = selectivity.clamp(0.0, 1.0);
    let tuples_fetched = (table_rows * selectivity).max(0.0);

    // Index I/O: descent plus the visited fraction of the leaf level.
    let index_pages = index_height + selectivity * index_leaf_pages;
    let index_io = index_pages * p.random_page_cost;
    let index_cpu = selectivity * index_entries * p.cpu_index_tuple_cost;

    // Heap I/O: distinct pages always fault once; repeats fault only when
    // the table exceeds the effective cache.
    let distinct = yao_pages(table_pages, table_rows, tuples_fetched);
    let cached_frac = if table_pages > 0.0 {
        (p.effective_cache_size_pages / table_pages).min(1.0)
    } else {
        1.0
    };
    let repeats = (tuples_fetched - distinct).max(0.0);
    let heap_pages = distinct + repeats * (1.0 - cached_frac);
    let heap_io = heap_pages * p.random_page_cost;

    let heap_cpu = tuples_fetched * (p.cpu_tuple_cost + filter_ops * p.cpu_operator_cost);
    index_io + index_cpu + heap_io + heap_cpu
}

/// Heap-fetch side shared by all index access paths: distinct pages fault
/// once (Yao), repeats fault only when the table exceeds the effective
/// cache, plus per-tuple CPU and residual-filter evaluation.
fn heap_fetch_cost(
    p: &OptimizerParams,
    table_pages: f64,
    table_rows: f64,
    tuples_fetched: f64,
    filter_ops: f64,
) -> f64 {
    let distinct = yao_pages(table_pages, table_rows, tuples_fetched);
    let cached_frac = if table_pages > 0.0 {
        (p.effective_cache_size_pages / table_pages).min(1.0)
    } else {
        1.0
    };
    let repeats = (tuples_fetched - distinct).max(0.0);
    let heap_pages = distinct + repeats * (1.0 - cached_frac);
    heap_pages * p.random_page_cost
        + tuples_fetched * (p.cpu_tuple_cost + filter_ops * p.cpu_operator_cost)
}

/// Statistics describing one arm of a multi-index scan for costing:
/// the probed index's geometry plus the arm condition's selectivity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmStats {
    /// B+tree height of the probed index.
    pub height: f64,
    /// Total node pages of the probed index.
    pub pages: f64,
    /// Total entries in the probed index.
    pub entries: f64,
    /// Fraction of entries the arm's key range selects.
    pub selectivity: f64,
}

/// Index side of one multi-index arm: descent + visited leaf fraction,
/// per-entry index CPU, plus one comparison per entry for the TID merge.
fn arm_cost(p: &OptimizerParams, a: &ArmStats) -> f64 {
    let sel = a.selectivity.clamp(0.0, 1.0);
    let index_pages = a.height + sel * a.pages;
    index_pages * p.random_page_cost
        + sel * a.entries * (p.cpu_index_tuple_cost + p.cpu_operator_cost)
}

fn multi_index_cost(
    p: &OptimizerParams,
    arms: &[ArmStats],
    combined_selectivity: f64,
    table_pages: f64,
    table_rows: f64,
    filter_ops: f64,
) -> f64 {
    let index_side: f64 = arms.iter().map(|a| arm_cost(p, a)).sum();
    let tuples = (table_rows * combined_selectivity.clamp(0.0, 1.0)).max(0.0);
    index_side + heap_fetch_cost(p, table_pages, table_rows, tuples, filter_ops)
}

/// Index intersection (`IndexAnd`): every arm pays its index side, then
/// only the intersection (`combined_selectivity`, typically the product of
/// arm selectivities) is fetched from the heap.
pub(crate) fn index_and_cost(
    p: &OptimizerParams,
    arms: &[ArmStats],
    combined_selectivity: f64,
    table_pages: f64,
    table_rows: f64,
    filter_ops: f64,
) -> f64 {
    multi_index_cost(
        p,
        arms,
        combined_selectivity,
        table_pages,
        table_rows,
        filter_ops,
    )
}

/// Index union (`IndexOr`): every arm pays its index side, then the union
/// (`combined_selectivity`, at most the sum of arm selectivities) is
/// fetched from the heap.
pub(crate) fn index_or_cost(
    p: &OptimizerParams,
    arms: &[ArmStats],
    combined_selectivity: f64,
    table_pages: f64,
    table_rows: f64,
    filter_ops: f64,
) -> f64 {
    multi_index_cost(
        p,
        arms,
        combined_selectivity,
        table_pages,
        table_rows,
        filter_ops,
    )
}

/// Sort: `2 * cpu_operator_cost` per comparison over `n log2 n`
/// comparisons, plus one spill write+read pass when the input exceeds
/// `work_mem`.
pub(crate) fn sort_cost(p: &OptimizerParams, rows: f64, avg_width_bytes: f64) -> f64 {
    if rows < 2.0 {
        return rows * p.cpu_operator_cost;
    }
    let cpu = 2.0 * p.cpu_operator_cost * rows * rows.log2();
    let bytes = rows * avg_width_bytes;
    let io = if bytes > p.work_mem_bytes {
        let pages = (bytes / PAGE_SIZE as f64).ceil();
        2.0 * pages * p.seq_page_cost
    } else {
        0.0
    };
    cpu + io
}

/// Hash join: build-side hashing, probe-side hashing, per-output tuple
/// cost, plus grace-hash spill I/O when the build side exceeds `work_mem`.
pub(crate) fn hash_join_cost(
    p: &OptimizerParams,
    probe_rows: f64,
    build_rows: f64,
    out_rows: f64,
    probe_bytes: f64,
    build_bytes: f64,
) -> f64 {
    let cpu = (probe_rows + build_rows) * (p.cpu_operator_cost + 0.5 * p.cpu_tuple_cost)
        + out_rows * p.cpu_tuple_cost;
    let io = if build_bytes > p.work_mem_bytes {
        let batches = (build_bytes / p.work_mem_bytes).ceil().max(2.0);
        let spilled = (batches - 1.0) / batches;
        2.0 * spilled * (build_bytes + probe_bytes) / PAGE_SIZE as f64 * p.seq_page_cost
    } else {
        0.0
    };
    cpu + io
}

/// Nested-loop join over a materialized inner: a predicate evaluation per
/// pair.
pub(crate) fn nl_join_cost(
    p: &OptimizerParams,
    left_rows: f64,
    right_rows: f64,
    pred_ops: f64,
    out_rows: f64,
) -> f64 {
    left_rows * right_rows * (p.cpu_tuple_cost + pred_ops * p.cpu_operator_cost)
        + out_rows * p.cpu_tuple_cost
}

/// Aggregation: per-row transition work (one operator per aggregate plus
/// argument evaluation, plus hashing when `hashed`), per-group output
/// tuples.
pub(crate) fn agg_cost(
    p: &OptimizerParams,
    rows: f64,
    groups: f64,
    n_aggs: f64,
    arg_ops: f64,
    hashed: bool,
) -> f64 {
    let hash_term = if hashed { p.cpu_operator_cost } else { 0.0 };
    rows * (n_aggs * p.cpu_operator_cost + arg_ops * p.cpu_operator_cost + hash_term)
        + groups * p.cpu_tuple_cost
}

/// Standalone filter.
pub(crate) fn filter_cost(p: &OptimizerParams, rows: f64, pred_ops: f64) -> f64 {
    rows * (p.cpu_tuple_cost + pred_ops * p.cpu_operator_cost)
}

/// Projection.
pub(crate) fn project_cost(p: &OptimizerParams, rows: f64, expr_ops: f64) -> f64 {
    rows * (p.cpu_tuple_cost + expr_ops * p.cpu_operator_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> OptimizerParams {
        OptimizerParams::postgres_defaults()
    }

    #[test]
    fn yao_properties() {
        // Fetching nothing touches nothing.
        assert_eq!(yao_pages(100.0, 1000.0, 0.0), 0.0);
        // Fetching one tuple touches ~one page.
        assert!((yao_pages(100.0, 1000.0, 1.0) - 1.0).abs() < 0.01);
        // Never exceeds the page count.
        assert!(yao_pages(100.0, 1000.0, 1e9) <= 100.0 + 1e-9);
        // Monotone in k.
        assert!(yao_pages(100.0, 1000.0, 50.0) < yao_pages(100.0, 1000.0, 500.0));
    }

    /// Parameters with a negligible cache, so page I/O is always charged.
    fn p_uncached() -> OptimizerParams {
        OptimizerParams {
            effective_cache_size_pages: 1.0,
            ..p()
        }
    }

    #[test]
    fn seq_scan_monotone_in_pages_and_rows() {
        let base = seq_scan_cost(&p_uncached(), 100.0, 5000.0, 2.0, 100.0);
        assert!(seq_scan_cost(&p_uncached(), 200.0, 5000.0, 2.0, 200.0) > base);
        assert!(seq_scan_cost(&p_uncached(), 100.0, 10_000.0, 2.0, 100.0) > base);
        assert!(seq_scan_cost(&p_uncached(), 100.0, 5000.0, 4.0, 100.0) > base);
    }

    #[test]
    fn seq_scan_io_is_free_for_cached_tables() {
        let params = p(); // ecs = 1000 pages
        assert_eq!(seq_scan_io_pages(&params, 500.0, 500.0), 0.0);
        assert_eq!(seq_scan_io_pages(&params, 1500.0, 1500.0), 1500.0);
        // Cached table, thrashing query: still charged.
        assert_eq!(seq_scan_io_pages(&params, 500.0, 5000.0), 500.0);
        // A cached scan costs only CPU.
        let cached = seq_scan_cost(&params, 500.0, 1000.0, 0.0, 500.0);
        assert!((cached - 1000.0 * params.cpu_tuple_cost).abs() < 1e-12);
    }

    #[test]
    fn index_scan_wins_when_selective_loses_when_not() {
        let params = p_uncached();
        let (pages, rows) = (1000.0, 100_000.0);
        let seq = seq_scan_cost(&params, pages, rows, 2.0, pages);
        let selective = index_scan_cost(&params, 3.0, 200.0, rows, 0.001, pages, rows, 0.0);
        let unselective = index_scan_cost(&params, 3.0, 200.0, rows, 0.9, pages, rows, 0.0);
        assert!(selective < seq, "0.1% selectivity should favor the index");
        assert!(unselective > seq, "90% selectivity should favor the scan");
    }

    #[test]
    fn larger_effective_cache_makes_index_scans_cheaper() {
        let mut small = p();
        small.effective_cache_size_pages = 10.0;
        let mut large = p();
        large.effective_cache_size_pages = 100_000.0;
        let cost_small =
            index_scan_cost(&small, 3.0, 200.0, 100_000.0, 0.3, 1000.0, 100_000.0, 0.0);
        let cost_large =
            index_scan_cost(&large, 3.0, 200.0, 100_000.0, 0.3, 1000.0, 100_000.0, 0.0);
        assert!(
            cost_large < cost_small,
            "cache discount must reduce repeat-fetch cost ({cost_large} vs {cost_small})"
        );
    }

    #[test]
    fn sort_spills_when_past_work_mem() {
        let mut params = p();
        params.work_mem_bytes = 1024.0;
        let in_mem = sort_cost(&params, 10.0, 50.0);
        let spilled = sort_cost(&params, 10_000.0, 50.0);
        let cpu_only = 2.0 * params.cpu_operator_cost * 10_000.0 * 10_000f64.log2();
        assert!(in_mem < 1.0);
        assert!(spilled > cpu_only, "spill I/O must be charged");
    }

    #[test]
    fn hash_join_spill_kicks_in() {
        let mut params = p();
        params.work_mem_bytes = 8192.0;
        let small = hash_join_cost(&params, 1000.0, 100.0, 1000.0, 50_000.0, 5_000.0);
        let large = hash_join_cost(&params, 1000.0, 10_000.0, 1000.0, 50_000.0, 500_000.0);
        assert!(large > small);
        // The spilled variant includes I/O beyond linear CPU scaling.
        let linear_cpu = hash_join_cost(
            &OptimizerParams {
                work_mem_bytes: f64::MAX,
                ..params
            },
            1000.0,
            10_000.0,
            1000.0,
            50_000.0,
            500_000.0,
        );
        assert!(large > linear_cpu);
    }

    #[test]
    fn costs_respond_to_parameter_changes() {
        // This is the heart of the what-if mode: raising cpu_tuple_cost
        // raises CPU-heavy costs but leaves pure I/O costs alone.
        let base = p_uncached();
        let mut cpu_heavy = p_uncached();
        cpu_heavy.cpu_tuple_cost *= 4.0;
        let scan_base = seq_scan_cost(&base, 100.0, 100_000.0, 0.0, 100.0);
        let scan_heavy = seq_scan_cost(&cpu_heavy, 100.0, 100_000.0, 0.0, 100.0);
        assert!(scan_heavy > scan_base);
        // Pure page cost unchanged.
        let io_base = seq_scan_cost(&base, 100.0, 0.0, 0.0, 100.0);
        let io_heavy = seq_scan_cost(&cpu_heavy, 100.0, 0.0, 0.0, 100.0);
        assert_eq!(io_base, io_heavy);
    }
}
