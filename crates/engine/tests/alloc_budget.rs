//! An allocation budget for the executor.
//!
//! Wall-clock on a shared host is noisy; allocation counts are not. A scan
//! that feeds a consumer which keeps nothing — a filter that rejects every
//! row, a global `count(*)`, a three-group `sum` — must allocate in
//! proportion to the groups it forms, never to the pages it reads or the
//! rows it looks at. One decoded row, one cloned `Datum::Str`, one boxed
//! key per row would put these counts above 50 000; the ceilings below sit
//! far under that and over what the page cache legitimately needs: a miss
//! shares the disk's page image instead of copying it into a frame, so a
//! scan's budget is a constant — the pool's map and frame vector growing to
//! its 16 frames — whatever the number of pages it reads.
//!
//! The one thing a read may allocate per page is the image's checked
//! layout, and only the first read of that image: it is built once, kept
//! beside the bytes, and found there by every later scan through any pool.
//! Loading allocates nothing for it — a layout is not kept up row by row,
//! the next reader of a written page builds it.
//!
//! The operators that *keep* rows — the joins and the sort — keep them
//! encoded in a few growing buffers, so they add a handful of doublings per
//! buffer to that, not an allocation per row: one joined tuple, one key
//! copy, one bucket vector per row would show here the same way. Rows are
//! decoded, one vector and one string each, only where they leave the plan.
//!
//! The counting allocator lives in this test binary only; both library
//! crates stay `#![forbid(unsafe_code)]`.

use dbvirt_engine::{
    run_plan, AggExpr, AggFunc, CpuCosts, Database, Expr, JoinType, PhysicalPlan, SortKey, TableId,
};
use dbvirt_storage::{BufferPool, DataType, Datum, Field, Schema, Tuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (const-initialised and `Copy`, so
    /// touching it from inside the allocator allocates nothing itself).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, with the caller's size obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: i64 = 50_000;
/// What a scan of checked images and a consumer that keeps nothing may
/// allocate in all.
const SCAN_BUDGET: u64 = 32;
/// What checking one image may allocate: its layout table growing from the
/// slot count to the field count and cut to size, the offsets of the record
/// being walked.
const LAYOUT_BUDGET: u64 = 8;
const GROUPS: [&str; 3] = ["x", "y", "z"];

/// `t(a INT, b INT, g STR)`, the operator table EXPERIMENTS.md's EXT-EXEC timings used.
fn build_db() -> Database {
    let mut db = Database::new();
    let t = db.create_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("g", DataType::Str),
        ]),
    );
    db.insert_rows(
        t,
        (0..ROWS).map(|i| {
            Tuple::new(vec![
                Datum::Int(i),
                Datum::Int((i * 48_271) % ROWS),
                Datum::str(GROUPS[(i % 3) as usize]),
            ])
        }),
    )
    .unwrap();
    db
}

/// What `work` allocates on this thread.
fn counting<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `plan` on a cold pool, returning its rows and the allocations the
/// run made on this thread.
fn allocations_of(db: &Database, plan: &PhysicalPlan) -> (Vec<Tuple>, u64) {
    let mut pool = BufferPool::new(16);
    let (out, allocations) =
        counting(|| run_plan(db, &mut pool, plan, 8 << 20, CpuCosts::default()).unwrap());
    (out.rows, allocations)
}

/// [`build_db`] with every image checked, as after any first scan.
fn build_checked_db() -> Database {
    let db = build_db();
    let scan = PhysicalPlan::SeqScan {
        table: TableId(0),
        filter: Some(Expr::lt(Expr::col(0), Expr::int(0))),
    };
    allocations_of(&db, &scan);
    db
}

#[test]
fn images_are_checked_by_their_first_scan_and_by_no_later_one() {
    let db = build_db();
    let t = TableId(0);
    let pages = u64::from(db.table(t).heap.num_pages(db.disk()));
    assert!(
        pages > 4 * SCAN_BUDGET,
        "an allocation per page must break the budget"
    );
    let reject_all = PhysicalPlan::SeqScan {
        table: t,
        filter: Some(Expr::lt(Expr::col(0), Expr::int(0))),
    };
    let (rows, first) = allocations_of(&db, &reject_all);
    assert!(rows.is_empty());
    assert!(
        (pages..=SCAN_BUDGET + LAYOUT_BUDGET * pages).contains(&first),
        "checking {pages} pages of {ROWS} rows allocated {first} times"
    );
    // The same images through a fresh pool, and through a copy of the
    // database: nothing is left to check.
    for db in [&db.clone(), &db] {
        let (_, again) = allocations_of(db, &reject_all);
        assert!(
            again <= SCAN_BUDGET,
            "rescanning {pages} checked pages allocated {again} times"
        );
    }
}

#[test]
fn loading_keeps_no_layout_up_row_by_row() {
    let mut db = build_checked_db();
    let t = TableId(0);
    let pages_before = db.table(t).heap.num_pages(db.disk());
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| Tuple::new(vec![Datum::Int(i), Datum::Int(-i), Datum::str("w")]))
        .collect();
    // What writing a row costs whatever the page does with it: its record.
    let (_, encoding) = counting(|| rows.iter().for_each(|row| drop(row.encode())));
    let (loaded, loading) = counting(|| db.insert_rows(t, rows).unwrap());
    assert_eq!(loaded, ROWS as u64);
    // Per page appended: its image and the file's page vector growing; the
    // checked last page of the first load is written in place.
    let appended = u64::from(db.table(t).heap.num_pages(db.disk()) - pages_before);
    assert!(
        loading <= encoding + 2 * appended + SCAN_BUDGET,
        "loading {ROWS} rows onto {appended} pages allocated {loading} times, \
         {encoding} of them for their records"
    );
    // And the rows are there for the next reader, old pages and new.
    let count_star = PhysicalPlan::HashAgg {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            filter: None,
        }),
        group_by: vec![],
        aggs: vec![AggExpr::count_star("n")],
    };
    let (counted, allocations) = allocations_of(&db, &count_star);
    assert_eq!(counted[0].get(0), &Datum::Int(2 * ROWS));
    assert!(allocations <= SCAN_BUDGET + LAYOUT_BUDGET * (appended + 1));
}

#[test]
fn borrowing_consumers_allocate_per_page_and_group_not_per_row() {
    let db = build_checked_db();
    let t = TableId(0);
    let pages = u64::from(db.table(t).heap.num_pages(db.disk()));
    // Small change only: the pool's map and frame vector growing, the
    // output vector.
    let scan = |filter| PhysicalPlan::SeqScan { table: t, filter };

    let count_star = PhysicalPlan::HashAgg {
        input: Box::new(scan(None)),
        group_by: vec![],
        aggs: vec![AggExpr::count_star("n")],
    };
    let (rows, allocations) = allocations_of(&db, &count_star);
    assert_eq!(rows[0].get(0), &Datum::Int(ROWS));
    assert!(
        allocations <= SCAN_BUDGET,
        "counting {ROWS} rows over {pages} pages allocated {allocations} times"
    );

    let grouped_sum = PhysicalPlan::HashAgg {
        input: Box::new(scan(None)),
        group_by: vec![2],
        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(0), "s")],
    };
    let (rows, allocations) = allocations_of(&db, &grouped_sum);
    assert_eq!(rows.len(), GROUPS.len());
    let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
    assert_eq!(total, ROWS * (ROWS - 1) / 2);
    // Per group: its key bytes, key values, key string, aggregate states
    // and output tuple — a dozen allocations at most.
    assert!(
        allocations <= SCAN_BUDGET + 12 * GROUPS.len() as u64,
        "summing {ROWS} rows into {} groups over {pages} pages allocated {allocations} times",
        GROUPS.len()
    );
}

/// What a kept side may allocate: three growing
/// vectors per row buffer (bytes, field offsets, row ends), each doubling
/// at most ~25 times on the way to 50 000 rows.
const PER_ROW_BUF: u64 = 3 * 25;

#[test]
fn keeping_operators_allocate_per_buffer_doubling_not_per_row() {
    let db = build_checked_db();
    let t = TableId(0);
    let pages = u64::from(db.table(t).heap.num_pages(db.disk()));
    let scan = || {
        Box::new(PhysicalPlan::SeqScan {
            table: t,
            filter: None,
        })
    };
    // `b` is a permutation of `a`, so every row finds exactly one partner.
    let join = |join_type| PhysicalPlan::HashJoin {
        left: scan(),
        right: scan(),
        left_keys: vec![0],
        right_keys: vec![1],
        join_type,
    };
    let count_star = |input| PhysicalPlan::HashAgg {
        input: Box::new(input),
        group_by: vec![],
        aggs: vec![AggExpr::count_star("n")],
    };
    // Two scans, two row buffers, the chain table's two vectors, the NULL
    // pad's schema, and the small change of the borrowing budget.
    let join_budget = 2 * (SCAN_BUDGET + PER_ROW_BUF);

    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi] {
        let (rows, allocations) = allocations_of(&db, &count_star(join(join_type)));
        assert_eq!(rows[0].get(0), &Datum::Int(ROWS));
        assert!(
            allocations <= join_budget,
            "counting a {join_type:?} join of {ROWS} x {ROWS} rows over 2 x {pages} pages \
             allocated {allocations} times"
        );
    }

    // Grouped by the probe side's `g`, summing the build side's `a`
    // (column 3 of the joined row): the aggregate reads through the pair.
    let grouped_sum = PhysicalPlan::HashAgg {
        input: Box::new(join(JoinType::Inner)),
        group_by: vec![2],
        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(3), "s")],
    };
    let (rows, allocations) = allocations_of(&db, &grouped_sum);
    assert_eq!(rows.len(), GROUPS.len());
    let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
    assert_eq!(total, ROWS * (ROWS - 1) / 2);
    assert!(
        allocations <= join_budget + 12 * GROUPS.len() as u64,
        "summing a join of {ROWS} x {ROWS} rows into {} groups allocated {allocations} times",
        GROUPS.len()
    );

    // A sort keeps one row buffer, its key values and its permutation.
    let sort = || PhysicalPlan::Sort {
        input: scan(),
        keys: vec![SortKey::desc(1), SortKey::asc(0)],
    };
    let (rows, allocations) = allocations_of(&db, &count_star(sort()));
    assert_eq!(rows[0].get(0), &Datum::Int(ROWS));
    assert!(
        allocations <= SCAN_BUDGET + PER_ROW_BUF,
        "counting {ROWS} sorted rows over {pages} pages allocated {allocations} times"
    );
    // At the root each of its rows is decoded: a vector and `g`'s string.
    let (rows, allocations) = allocations_of(&db, &sort());
    assert_eq!(rows.len(), ROWS as usize);
    assert_eq!(rows[0].get(1), &Datum::Int(ROWS - 1));
    assert!(
        allocations <= 2 * ROWS as u64 + SCAN_BUDGET + PER_ROW_BUF,
        "sorting {ROWS} rows to the root allocated {allocations} times"
    );
}
