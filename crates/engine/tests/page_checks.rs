//! An image is walked once: `storage.page_checks` counts first reads.
//!
//! Lives in its own test binary (one `#[test]`) because it reads the
//! process-wide telemetry registry, which any other page reader would also
//! tick.

use dbvirt_engine::{run_plan, CpuCosts, Database, PhysicalPlan, TableId};
use dbvirt_storage::{BufferPool, DataType, Datum, Field, Page, PageId, Schema, Tuple};
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::kernel::claim_and_reduce;
use std::ops::Bound;
use std::sync::Barrier;

const ROWS: i64 = 5000;
const T: TableId = TableId(0);

fn row(i: i64) -> Tuple {
    Tuple::new(vec![Datum::Int(i), Datum::str(format!("row-{i}"))])
}

fn build_db() -> Database {
    let mut db = Database::new();
    let fields = vec![
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Str),
    ];
    db.create_table("t", Schema::new(fields));
    db.insert_rows(T, (0..ROWS).map(row)).unwrap();
    db
}

fn pages(db: &Database) -> u64 {
    u64::from(db.table(T).heap.num_pages(db.disk()))
}

fn checks() -> u64 {
    let snapshot = telemetry::snapshot();
    snapshot.counter("storage.page_checks").unwrap_or(0)
}

/// `plan`'s rows through a cold pool of 8 frames.
fn run(db: &Database, plan: &PhysicalPlan) -> Vec<Tuple> {
    let mut pool = BufferPool::new(8);
    let out = run_plan(db, &mut pool, plan, 1 << 20, CpuCosts::default());
    out.unwrap().rows
}

#[test]
fn an_image_is_walked_by_its_first_reader_only() {
    telemetry::enable();
    let scan = PhysicalPlan::SeqScan {
        table: T,
        filter: None,
    };

    let mut db = build_db();
    let n_pages = pages(&db);
    assert!(n_pages > 8, "more pages than the pool holds");
    assert_eq!(checks(), 0, "loading reads nothing");
    assert_eq!(run(&db, &scan).len(), ROWS as usize);
    assert_eq!(run(&db, &scan).len(), ROWS as usize);
    assert_eq!(checks(), n_pages, "two scans, each image walked once");

    // Every other reader finds the images checked, copies of the database
    // included.
    let index = db.create_index("t_a", T, 0).unwrap();
    db.analyze_table(T).unwrap();
    let lookup = PhysicalPlan::IndexScan {
        table: T,
        index,
        lo: Bound::Included(Datum::Int(17)),
        hi: Bound::Included(Datum::Int(ROWS - 17)),
        filter: None,
    };
    assert_eq!(run(&db.clone(), &lookup).len(), ROWS as usize - 33);
    assert_eq!(checks(), n_pages);

    // A load rewrites the last image and appends new ones: those are walked
    // again, by the next reader, and no others.
    db.insert_rows(T, (ROWS..2 * ROWS).map(row)).unwrap();
    assert_eq!(checks(), n_pages);
    let appended = pages(&db) - n_pages;
    assert_eq!(run(&db, &scan).len(), 2 * ROWS as usize);
    assert_eq!(checks(), n_pages + 1 + appended);

    // Two threads, each with its own copy of one cold database, scanning at
    // once: one of them walks each image, both read the same rows.
    let cold = build_db();
    let before = checks();
    let both_started = Barrier::new(2);
    let scans = claim_and_reduce(
        2,
        2,
        "test.scan_worker",
        || cold.clone(),
        |db, _| {
            both_started.wait();
            let mut pool = BufferPool::new(8);
            run_plan(db, &mut pool, &scan, 1 << 20, CpuCosts::default()).map(|out| out.rows)
        },
    )
    .map_err(|e| e.into_task())
    .unwrap();
    assert_eq!(scans[0].len(), ROWS as usize);
    assert_eq!(scans[0], scans[1]);
    assert_eq!(checks() - before, n_pages);

    // What the walk finds wrong is kept like what it finds right.
    let pid = PageId {
        file: db.table(T).heap.file_id(),
        page_no: 2,
    };
    let mut image = *db.disk().read_page(pid).unwrap().as_bytes();
    image[4 + 2] = 99; // the first record's first tag
    *db.disk_mut().page_mut(pid).unwrap() = Page::from_bytes(image);
    let before = checks();
    let mut pool = BufferPool::new(8);
    let failures: Vec<_> = (0..3)
        .map(|_| run_plan(&db, &mut pool, &scan, 1 << 20, CpuCosts::default()).unwrap_err())
        .collect();
    assert!(failures[0].to_string().contains("unknown tag 99"));
    assert!(failures.iter().all(|e| *e == failures[0]));
    assert_eq!(checks() - before, 1);
    telemetry::disable();
}
