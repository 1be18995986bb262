//! An allocation budget for the borrowing operators.
//!
//! Wall-clock on a shared host is noisy; allocation counts are not. A scan
//! that feeds a consumer which keeps nothing — a filter that rejects every
//! row, a global `count(*)`, a three-group `sum` — must allocate in
//! proportion to the pages it reads and the groups it forms, never to the
//! rows it looks at. One decoded row, one cloned `Datum::Str`, one boxed
//! key per row would put these counts above 50 000; the ceilings below sit
//! far under that and far over what the page cache legitimately needs (one
//! 8 KiB frame per page read, plus map growth).
//!
//! The counting allocator lives in this test binary only; both library
//! crates stay `#![forbid(unsafe_code)]`.

use dbvirt_engine::{run_plan, AggExpr, AggFunc, CpuCosts, Database, Expr, PhysicalPlan, TableId};
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
const GROUPS: [&str; 3] = ["x", "y", "z"];

/// `t(a INT, b INT, g STR)`, the table of `benches/executor.rs`.
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

/// Runs `plan` on a cold pool, returning its rows and the allocations the
/// run made on this thread.
fn allocations_of(db: &mut Database, plan: &PhysicalPlan) -> (Vec<Tuple>, u64) {
    let mut pool = BufferPool::new(16);
    let before = ALLOCATIONS.with(Cell::get);
    let out = run_plan(db, &mut pool, plan, 8 << 20, CpuCosts::default()).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    (out.rows, after - before)
}

#[test]
fn borrowing_consumers_allocate_per_page_and_group_not_per_row() {
    let mut db = build_db();
    let t = TableId(0);
    let pages = u64::from(db.table(t).heap.num_pages(db.disk()));
    assert!(
        pages * 100 < ROWS as u64,
        "the budget needs many rows per page"
    );
    // One page-frame clone per page read, and small change: the pool's map
    // and frame vector growing, the offsets buffer, the output vector.
    let per_page = pages + 64;
    let scan = |filter| PhysicalPlan::SeqScan { table: t, filter };

    let reject_all = scan(Some(Expr::lt(Expr::col(0), Expr::int(0))));
    let (rows, allocations) = allocations_of(&mut db, &reject_all);
    assert!(rows.is_empty());
    assert!(
        allocations <= per_page,
        "rejecting {ROWS} rows over {pages} pages allocated {allocations} times"
    );

    let count_star = PhysicalPlan::HashAgg {
        input: Box::new(scan(None)),
        group_by: vec![],
        aggs: vec![AggExpr::count_star("n")],
    };
    let (rows, allocations) = allocations_of(&mut db, &count_star);
    assert_eq!(rows[0].get(0), &Datum::Int(ROWS));
    assert!(
        allocations <= per_page,
        "counting {ROWS} rows over {pages} pages allocated {allocations} times"
    );

    let grouped_sum = PhysicalPlan::HashAgg {
        input: Box::new(scan(None)),
        group_by: vec![2],
        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(0), "s")],
    };
    let (rows, allocations) = allocations_of(&mut db, &grouped_sum);
    assert_eq!(rows.len(), GROUPS.len());
    let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
    assert_eq!(total, ROWS * (ROWS - 1) / 2);
    // Per group: its key bytes, key values, key string, aggregate states
    // and output tuple — a dozen allocations at most.
    assert!(
        allocations <= per_page + 12 * GROUPS.len() as u64,
        "summing {ROWS} rows into {} groups over {pages} pages allocated {allocations} times",
        GROUPS.len()
    );
}
