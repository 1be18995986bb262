//! A replay is accounting, not work: it moves no process-wide counter.
//!
//! Lives in its own test binary (one `#[test]`) because it reads the
//! process-wide telemetry registry, which any other pool would also write to.

use dbvirt_storage::{AccessPattern, BufferPool, Datum, DiskManager, HeapFile, PageId, Tuple};
use dbvirt_telemetry as telemetry;

const COUNTERS: [&str; 4] = [
    "bufpool.hits",
    "bufpool.misses",
    "bufpool.evictions",
    "storage.pages_read",
];

fn counters() -> [u64; 4] {
    let snap = telemetry::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

#[test]
fn only_the_live_pool_ticks_the_process_wide_counters() {
    telemetry::enable();
    let mut disk = DiskManager::new();
    let heap = HeapFile::create(&mut disk);
    for i in 0..4000i64 {
        let row = Tuple::new(vec![Datum::Int(i), Datum::str("pad pad pad pad")]);
        heap.insert(&mut disk, &row).unwrap();
    }
    let n_pages = heap.num_pages(&disk);
    assert!(n_pages > 8);

    // Two sweeps through four frames, each page fetched (a miss, an
    // eviction) then touched (a hit), every fourth one as a random probe.
    let mut pool = BufferPool::new(4);
    pool.open_log();
    for page_no in (0..n_pages).chain(0..n_pages) {
        let pid = PageId {
            file: heap.file_id(),
            page_no,
        };
        let pattern = if page_no % 4 == 0 {
            AccessPattern::Random
        } else {
            AccessPattern::Sequential
        };
        pool.fetch(&disk, pid, pattern).unwrap();
        pool.touch(&disk, pid, AccessPattern::Random).unwrap();
    }
    let log = pool.close_log();
    let live = counters();
    let m = pool.metrics();
    assert_eq!(
        live,
        [m.hits, m.misses, m.evictions, m.misses],
        "the live pool's own metrics, process-wide"
    );
    assert!(live.iter().all(|&n| n > 0), "{live:?}");

    for capacity in [1, 4, n_pages as usize + 1] {
        BufferPool::replay(capacity, &log, &[log.len()]).unwrap();
        BufferPool::replay(capacity, &log, &[log.len() / 2, log.len()]).unwrap();
    }
    assert_eq!(counters(), live, "a replay does no physical work");
    assert_eq!(
        BufferPool::replay(4, &log, &[log.len()]).unwrap()[0],
        *pool.demand(),
        "and yet it charges what the live pool did"
    );
    telemetry::disable();
}
