//! Scan operators: sequential heap scans, B+tree index scans, and
//! multi-index intersection/union scans.
//!
//! A scan is a row *source*: it reads each row where it lies on the
//! buffer-pool page (a `TupleView` from the image's checked layout, see
//! [`dbvirt_storage::Page::rows`]), evaluates the pushed-down filter there,
//! and pushes the rows that pass to its consumer's sink still borrowed.
//! Nothing is walked per scan: every image is checked in full, once, before
//! any of its rows is read, so a corrupt record fails the scan at its page
//! before that page delivers a row. Whether a row is ever decoded is the
//! consumer's business.

use super::RowSink;
use crate::runtime::{EngineError, ExecContext};
use crate::{Expr, IndexArm, IndexId, PhysicalPlan, TableId};
use dbvirt_storage::{AccessPattern, Datum, HeapFile, TupleId};
use std::ops::Bound;

/// Runs one of the four scan operators, returning how many rows it pushed
/// to `sink`.
pub(crate) fn scan(
    ctx: &mut ExecContext<'_>,
    plan: &PhysicalPlan,
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    match plan {
        PhysicalPlan::SeqScan { table, filter } => seq_scan(ctx, *table, filter.as_ref(), sink),
        PhysicalPlan::IndexScan {
            table,
            index,
            lo,
            hi,
            filter,
        } => index_scan(ctx, *table, *index, lo, hi, filter.as_ref(), sink),
        PhysicalPlan::IndexAnd {
            table,
            arms,
            filter,
        } => multi_index_scan(ctx, *table, arms, filter.as_ref(), true, sink),
        PhysicalPlan::IndexOr {
            table,
            arms,
            filter,
        } => multi_index_scan(ctx, *table, arms, filter.as_ref(), false, sink),
        other => Err(EngineError::Plan(format!(
            "{} is not a scan",
            other.node_name()
        ))),
    }
}

/// Full heap scan with an optional pushed-down filter.
fn seq_scan(
    ctx: &mut ExecContext<'_>,
    table: TableId,
    filter: Option<&Expr>,
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let costs = ctx.costs;
    let filter_ops = filter.map_or(0.0, |f| f.num_operators() as f64);
    let mut rows_out = 0;
    let mut cpu = 0.0;

    let heap = ctx.db.table(table).heap;
    let n_pages = heap.num_pages(ctx.db.disk());
    for page_no in 0..n_pages {
        let page = heap.fetch_page(ctx.db.disk(), ctx.pool, page_no, AccessPattern::Sequential)?;
        cpu += costs.per_page;
        for (_, row) in page.rows()? {
            cpu += costs.per_tuple + filter_ops * costs.per_operator;
            if filter.is_none_or(|f| f.eval_bool(&row) == Some(true)) {
                rows_out += 1;
                sink(&row);
            }
        }
    }
    ctx.charge_cpu(cpu);
    Ok(rows_out)
}

/// Fetches `tids` from the heap in the order given, offering each row to the
/// residual filter and the sink; `cpu` is the charge accumulated by the
/// index probes that produced them.
fn fetch_tids(
    ctx: &mut ExecContext<'_>,
    heap: HeapFile,
    tids: Vec<TupleId>,
    mut cpu: f64,
    filter: Option<&Expr>,
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let costs = ctx.costs;
    let filter_ops = filter.map_or(0.0, |f| f.num_operators() as f64);
    let mut rows_out = 0;
    for tid in tids {
        let row = heap.fetch(ctx.db.disk(), ctx.pool, tid)?;
        cpu += costs.per_tuple + filter_ops * costs.per_operator;
        if filter.is_none_or(|f| f.eval_bool(&row) == Some(true)) {
            rows_out += 1;
            sink(&row);
        }
    }
    ctx.charge_cpu(cpu);
    Ok(rows_out)
}

/// Index range scan: B+tree traversal, then heap fetches in **tuple-id
/// order** (so the output ordering — and therefore every downstream
/// float accumulation — is bit-identical to a filtered sequential scan),
/// then the residual filter.
fn index_scan(
    ctx: &mut ExecContext<'_>,
    table: TableId,
    index: IndexId,
    lo: &Bound<Datum>,
    hi: &Bound<Datum>,
    filter: Option<&Expr>,
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let heap = ctx.db.table(table).heap;
    let tree = ctx.db.index_tree(index);
    let entries = tree.range_metered(ctx.db.disk(), ctx.pool, lo.as_ref(), hi.as_ref())?;
    let mut tids: Vec<TupleId> = entries.iter().map(|(_, tid)| *tid).collect();
    tids.sort_unstable();
    let cpu = entries.len() as f64 * ctx.costs.per_index_tuple;
    fetch_tids(ctx, heap, tids, cpu, filter, sink)
}

fn merge_tids(acc: Vec<TupleId>, arm: Vec<TupleId>, intersect: bool) -> Vec<TupleId> {
    // Both inputs sorted and deduped; linear merge keeps it that way.
    let mut out = Vec::with_capacity(if intersect {
        acc.len().min(arm.len())
    } else {
        acc.len() + arm.len()
    });
    let (mut i, mut j) = (0, 0);
    while i < acc.len() && j < arm.len() {
        match acc[i].cmp(&arm[j]) {
            std::cmp::Ordering::Less => {
                if !intersect {
                    out.push(acc[i]);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if !intersect {
                    out.push(arm[j]);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(acc[i]);
                i += 1;
                j += 1;
            }
        }
    }
    if !intersect {
        out.extend_from_slice(&acc[i..]);
        out.extend_from_slice(&arm[j..]);
    }
    out
}

/// Index intersection (`intersect`) or union scan: probe every arm's key
/// range, intersect or union (dedup) the resulting TID sets, fetch each
/// surviving heap tuple once (in TID order), apply the residual filter.
fn multi_index_scan(
    ctx: &mut ExecContext<'_>,
    table: TableId,
    arms: &[IndexArm],
    filter: Option<&Expr>,
    intersect: bool,
    sink: &mut RowSink<'_>,
) -> Result<usize, EngineError> {
    let costs = ctx.costs;
    let heap = ctx.db.table(table).heap;

    let mut tids: Option<Vec<TupleId>> = None;
    let mut cpu = 0.0;
    for arm in arms {
        let tree = ctx.db.index_tree(arm.index);
        let entries =
            tree.range_metered(ctx.db.disk(), ctx.pool, arm.lo.as_ref(), arm.hi.as_ref())?;
        cpu += entries.len() as f64 * costs.per_index_tuple;
        let mut arm_tids: Vec<TupleId> = entries.into_iter().map(|(_key, tid)| tid).collect();
        arm_tids.sort_unstable();
        arm_tids.dedup();
        // One comparison per merged entry for the TID-set combine.
        cpu += arm_tids.len() as f64 * costs.per_operator;
        tids = Some(match tids {
            None => arm_tids,
            Some(acc) => merge_tids(acc, arm_tids, intersect),
        });
    }
    fetch_tids(ctx, heap, tids.unwrap_or_default(), cpu, filter, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::runtime::tests_support::{context, small_db};
    use dbvirt_storage::Tuple;

    // Each scan collected through `execute`, under the operator's name.

    fn seq_scan(
        ctx: &mut ExecContext<'_>,
        table: TableId,
        filter: Option<&Expr>,
    ) -> Result<Vec<Tuple>, EngineError> {
        let filter = filter.cloned();
        execute(ctx, &PhysicalPlan::SeqScan { table, filter })
    }

    fn index_scan(
        ctx: &mut ExecContext<'_>,
        table: TableId,
        index: IndexId,
        lo: &Bound<Datum>,
        hi: &Bound<Datum>,
        filter: Option<&Expr>,
    ) -> Result<Vec<Tuple>, EngineError> {
        let plan = PhysicalPlan::IndexScan {
            table,
            index,
            lo: lo.clone(),
            hi: hi.clone(),
            filter: filter.cloned(),
        };
        execute(ctx, &plan)
    }

    fn index_and_scan(
        ctx: &mut ExecContext<'_>,
        table: TableId,
        arms: &[IndexArm],
        filter: Option<&Expr>,
    ) -> Result<Vec<Tuple>, EngineError> {
        let (arms, filter) = (arms.to_vec(), filter.cloned());
        execute(
            ctx,
            &PhysicalPlan::IndexAnd {
                table,
                arms,
                filter,
            },
        )
    }

    fn index_or_scan(
        ctx: &mut ExecContext<'_>,
        table: TableId,
        arms: &[IndexArm],
        filter: Option<&Expr>,
    ) -> Result<Vec<Tuple>, EngineError> {
        let (arms, filter) = (arms.to_vec(), filter.cloned());
        execute(
            ctx,
            &PhysicalPlan::IndexOr {
                table,
                arms,
                filter,
            },
        )
    }

    #[test]
    fn seq_scan_reads_every_row_and_charges_io() {
        let (db, mut pool) = small_db(1000);
        let mut ctx = context(&db, &mut pool);
        let rows = seq_scan(&mut ctx, TableId(0), None).unwrap();
        assert_eq!(rows.len(), 1000);
        let io = ctx.pool.demand();
        assert!(io.seq_page_reads > 0, "cold scan must read pages");
        assert_eq!(io.random_page_reads, 0);
        assert!(ctx.demand.cpu_cycles > 0.0);
    }

    #[test]
    fn seq_scan_filter_reduces_output_but_not_io() {
        let (db, mut pool) = small_db(1000);
        let filter = Expr::lt(Expr::col(0), Expr::int(100));
        let io_all;
        {
            let mut ctx = context(&db, &mut pool);
            let rows = seq_scan(&mut ctx, TableId(0), Some(&filter)).unwrap();
            assert_eq!(rows.len(), 100);
            io_all = ctx.pool.demand().seq_page_reads;
        }
        // Fresh pool: same physical reads regardless of selectivity.
        let mut pool2 = dbvirt_storage::BufferPool::new(pool.capacity());
        let mut ctx = context(&db, &mut pool2);
        let rows = seq_scan(&mut ctx, TableId(0), None).unwrap();
        assert_eq!(rows.len(), 1000);
        assert_eq!(ctx.pool.demand().seq_page_reads, io_all);
    }

    #[test]
    fn index_scan_matches_filtered_seq_scan() {
        let (mut db, mut pool) = small_db(2000);
        let idx = db.create_index("t_a", TableId(0), 0).unwrap();
        let lo = Bound::Included(Datum::Int(500));
        let hi = Bound::Excluded(Datum::Int(600));
        let mut ctx = context(&db, &mut pool);
        let mut via_index = index_scan(&mut ctx, TableId(0), idx, &lo, &hi, None).unwrap();
        let filter = Expr::and(
            Expr::ge(Expr::col(0), Expr::int(500)),
            Expr::lt(Expr::col(0), Expr::int(600)),
        );
        let mut via_scan = seq_scan(&mut ctx, TableId(0), Some(&filter)).unwrap();
        let key = |t: &Tuple| t.get(0).as_int().unwrap();
        via_index.sort_by_key(key);
        via_scan.sort_by_key(key);
        assert_eq!(via_index, via_scan);
        assert_eq!(via_index.len(), 100);
        assert!(
            ctx.pool.demand().random_page_reads > 0,
            "index path is random I/O"
        );
    }

    #[test]
    fn index_and_or_match_filtered_seq_scan() {
        let (mut db, mut pool) = small_db(1000);
        let ia = db.create_index("t_a", TableId(0), 0).unwrap();
        let ib = db.create_index("t_b", TableId(0), 1).unwrap();
        let arm_a = IndexArm {
            index: ia,
            lo: Bound::Included(Datum::Int(100)),
            hi: Bound::Excluded(Datum::Int(300)),
        };
        let arm_b = IndexArm {
            index: ib,
            lo: Bound::Included(Datum::str("row-1")),
            hi: Bound::Excluded(Datum::str("row-2")),
        };
        let pred_a = Expr::and(
            Expr::ge(Expr::col(0), Expr::int(100)),
            Expr::lt(Expr::col(0), Expr::int(300)),
        );
        let pred_b = Expr::and(
            Expr::ge(Expr::col(1), Expr::str("row-1")),
            Expr::lt(Expr::col(1), Expr::str("row-2")),
        );
        let mut ctx = context(&db, &mut pool);

        let arms = vec![arm_a.clone(), arm_b.clone()];
        let both = Expr::and(pred_a.clone(), pred_b.clone());
        let mut anded = index_and_scan(&mut ctx, TableId(0), &arms, Some(&both)).unwrap();
        let mut expect = seq_scan(&mut ctx, TableId(0), Some(&both)).unwrap();
        let key = |t: &Tuple| t.get(0).as_int().unwrap();
        anded.sort_by_key(key);
        expect.sort_by_key(key);
        assert_eq!(anded, expect);
        assert_eq!(anded.len(), 100, "a in 100..199 also has b prefix row-1");

        let either = Expr::or(pred_a, pred_b);
        let mut ored = index_or_scan(&mut ctx, TableId(0), &arms, Some(&either)).unwrap();
        let mut expect = seq_scan(&mut ctx, TableId(0), Some(&either)).unwrap();
        ored.sort_by_key(key);
        expect.sort_by_key(key);
        assert_eq!(ored, expect);
        assert_eq!(ored.len(), 211, "200 + 111 - 100 overlapping");
    }

    /// One byte of one record, in the middle of the table's second page, is
    /// overwritten: every reader of that page — not only of that record —
    /// fails with what checking the image found, and delivers none of its
    /// rows.
    #[test]
    fn a_corrupt_record_fails_every_reader_of_its_page_before_any_of_its_rows() {
        use dbvirt_storage::{Page, PageId, StorageError, PAGE_SIZE};

        // `(a INT, b STR)`: a's tag is 2 bytes into a record, b's body 16.
        for (byte, value, reason) in [(2, 99, "unknown tag 99"), (16, 0xFF, "invalid utf-8")] {
            let (mut db, mut pool) = small_db(2000);
            let table = TableId(0);
            let index = db.create_index("t_a", table, 0).unwrap();
            let pid = PageId {
                file: db.table(table).heap.file_id(),
                page_no: 1,
            };
            let rows_before = i64::from(
                db.disk()
                    .read_page(PageId { page_no: 0, ..pid })
                    .unwrap()
                    .slot_count(),
            );
            let mut image = *db.disk().read_page(pid).unwrap().as_bytes();
            let entry = PAGE_SIZE - 4 * (5 + 1);
            let record = usize::from(u16::from_le_bytes([image[entry], image[entry + 1]]));
            image[record + byte] = value;
            *db.disk_mut().page_mut(pid).unwrap() = Page::from_bytes(image);
            let expect = StorageError::CorruptTuple {
                reason: reason.to_string(),
            };

            let mut ctx = context(&db, &mut pool);
            let mut delivered = 0;
            let plan = PhysicalPlan::SeqScan {
                table,
                filter: None,
            };
            let scanned = scan(&mut ctx, &plan, &mut |_| delivered += 1);
            assert_eq!(scanned, Err(EngineError::Storage(expect.clone())));
            assert_eq!(delivered, rows_before, "the first page's rows and no more");

            // The second page's first row, five records before the bad one.
            let key = Bound::Included(Datum::Int(rows_before));
            let fetched = index_scan(&mut ctx, table, index, &key, &key, None);
            assert_eq!(fetched, Err(EngineError::Storage(expect.clone())));

            assert_eq!(db.create_index("t_b", table, 1), Err(expect.clone()));
            assert_eq!(db.analyze_table(table), Err(expect));
        }
    }

    #[test]
    fn index_scan_with_residual_filter() {
        let (mut db, mut pool) = small_db(500);
        let idx = db.create_index("t_a", TableId(0), 0).unwrap();
        let mut ctx = context(&db, &mut pool);
        // Ids ending in 0, within [100, 200): 100, 110, ..., 190.
        let residual = Expr::like(Expr::col(1), "%0");
        let rows = index_scan(
            &mut ctx,
            TableId(0),
            idx,
            &Bound::Included(Datum::Int(100)),
            &Bound::Excluded(Datum::Int(200)),
            Some(&residual),
        )
        .unwrap();
        assert_eq!(rows.len(), 10);
    }
}
