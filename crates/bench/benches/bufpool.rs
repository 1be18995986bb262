//! Buffer pool micro-benchmarks: hit path, miss/eviction path, and the
//! metered B+tree traversal.

use criterion::{criterion_group, criterion_main, Criterion};
use dbvirt_storage::{
    AccessPattern, BPlusTree, BufferPool, Datum, DiskManager, HeapFile, PageId, Tuple, TupleId,
};
use std::hint::black_box;
use std::ops::Bound;

fn loaded(rows: i64) -> (DiskManager, HeapFile) {
    let mut disk = DiskManager::new();
    let heap = HeapFile::create(&mut disk);
    for i in 0..rows {
        heap.insert(
            &mut disk,
            &Tuple::new(vec![Datum::Int(i), Datum::str("some padding text here")]),
        )
        .unwrap();
    }
    (disk, heap)
}

fn bench_bufpool(c: &mut Criterion) {
    let (disk, heap) = loaded(20_000);
    let n_pages = heap.num_pages(&disk);

    c.bench_function("bufpool/hit", |b| {
        let mut pool = BufferPool::new(n_pages as usize + 1);
        let pid = PageId {
            file: heap.file_id(),
            page_no: 0,
        };
        pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
        b.iter(|| {
            let page = pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
            black_box(page.slot_count());
        });
    });

    c.bench_function("bufpool/miss_evict_sweep", |b| {
        // A pool far smaller than the table: every fetch in a sweep
        // misses and evicts.
        let mut pool = BufferPool::new(8);
        let mut page_no = 0u32;
        b.iter(|| {
            let pid = PageId {
                file: heap.file_id(),
                page_no,
            };
            page_no = (page_no + 1) % n_pages;
            let page = pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
            black_box(page.slot_count());
        });
    });

    c.bench_function("bufpool/heap_scan_page_decode", |b| {
        let mut pool = BufferPool::new(n_pages as usize + 1);
        b.iter(|| {
            let page = heap
                .fetch_page(&disk, &mut pool, 0, AccessPattern::Sequential)
                .unwrap();
            let tuples: Vec<Tuple> = page
                .records()
                .map(|record| Tuple::decode(record.unwrap().1).unwrap())
                .collect();
            black_box(tuples.len());
        });
    });
}

fn bench_btree(c: &mut Criterion) {
    let mut disk = DiskManager::new();
    let entries: Vec<(Datum, TupleId)> = (0..100_000u32)
        .map(|i| {
            (
                Datum::Int(i as i64),
                TupleId {
                    page_no: i / 100,
                    slot: (i % 100) as u16,
                },
            )
        })
        .collect();
    let tree = BPlusTree::bulk_load(&mut disk, entries).unwrap();

    c.bench_function("btree/point_lookup_metered", |b| {
        let mut pool = BufferPool::new(4096);
        let mut key = 0i64;
        b.iter(|| {
            key = (key + 7919) % 100_000;
            let hits = tree
                .lookup_metered(&disk, &mut pool, &Datum::Int(key))
                .unwrap();
            black_box(hits.len());
        });
    });

    c.bench_function("btree/range_1000", |b| {
        b.iter(|| {
            let out = tree.range(
                Bound::Included(&Datum::Int(5_000)),
                Bound::Excluded(&Datum::Int(6_000)),
            );
            black_box(out.len());
        });
    });
}

criterion_group!(benches, bench_bufpool, bench_btree);
criterion_main!(benches);
