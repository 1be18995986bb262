//! Clock-sweep buffer pool.
//!
//! The buffer pool is the junction between logical work and physical work:
//! every page access goes through [`BufferPool::fetch`] (or
//! [`BufferPool::touch`] for index nodes whose contents live elsewhere), and
//! every *miss* is charged to the pool's internal
//! [`ResourceDemand`] as a sequential or random physical read. The pool's
//! capacity is set from the virtual machine's memory share
//! ([`dbvirt_vmm::VirtualMachine::buffer_pool_pages`]), which is exactly how
//! the memory allocation knob influences query time in this reproduction.
//!
//! ## Memory is accounting: the access log and its replay
//!
//! Which pages an execution references, in which order and pattern, does
//! not depend on the pool it runs over — capacity only decides which of
//! those references miss. So a pool can record the references it serves
//! ([`BufferPool::open_log`] … [`BufferPool::close_log`]: one [`Access`]
//! per successful `fetch` / `touch`, nothing else — not a failed fetch),
//! and [`BufferPool::replay`] answers what
//! a cold pool of *any* capacity would have charged for them. The replay is
//! exact because it is the same code: it drives the one clock sweep below
//! over frames that hold no bytes (what `touch` has always kept), with no
//! disk behind them, so hits, misses and evictions fall exactly where the
//! live pool's would. The capacity of the pool that
//! *recorded* a log — its carrier — is irrelevant to every replay of it.
//! Since no physical work happens in a replay, it ticks none of the
//! process-wide `bufpool.*` / `storage.pages_read` counters.
//!
//! The pool is read-only: a frame shares its page image with the disk
//! ([`Page`] is reference-counted), so a miss copies nothing, and an
//! eviction writes nothing back. Executor spill writes are charged by the
//! operators that spill (`ResourceDemand::page_writes`), not here.

use crate::{DiskManager, Page, PageId, StorageError};
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::ResourceDemand;
use std::collections::HashMap;

// Process-wide telemetry counters aggregated across every pool instance
// (per-pool numbers stay in [`BufferPoolMetrics`]). All are no-ops until
// `dbvirt_telemetry::enable()`.
static TM_HITS: telemetry::Counter = telemetry::Counter::new("bufpool.hits");
static TM_MISSES: telemetry::Counter = telemetry::Counter::new("bufpool.misses");
static TM_EVICTIONS: telemetry::Counter = telemetry::Counter::new("bufpool.evictions");
static TM_PAGES_READ: telemetry::Counter = telemetry::Counter::new("storage.pages_read");

/// Whether an access is part of a sequential sweep or a random probe; on a
/// miss this decides which physical-read counter is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Part of a sequential scan (cheap on a spinning disk).
    Sequential,
    /// An isolated probe (seek-dominated).
    Random,
}

/// One page reference a pool served: an entry of its access log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The page referenced.
    pub pid: PageId,
    /// How a miss on it is charged.
    pub pattern: AccessPattern,
}

/// Hit/miss counters, useful in tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolMetrics {
    /// Accesses satisfied from the pool.
    pub hits: u64,
    /// Accesses that required a physical read.
    pub misses: u64,
    /// Victims evicted to make room.
    pub evictions: u64,
}

impl BufferPoolMetrics {
    /// Hit fraction over all accesses (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Frame {
    pid: PageId,
    /// `Some` for heap pages (real bytes); `None` for accounting-only
    /// residents: B+tree nodes whose structure lives in memory, and every
    /// frame of a replay.
    data: Option<Page>,
    ref_bit: bool,
}

/// A clock-sweep page cache with demand accounting.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    hand: usize,
    metrics: BufferPoolMetrics,
    demand: ResourceDemand,
    /// The references served since [`BufferPool::open_log`], if open.
    log: Option<Vec<Access>>,
}

impl BufferPool {
    /// Creates a pool with room for `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::new(),
            map: HashMap::new(),
            hand: 0,
            metrics: BufferPoolMetrics::default(),
            demand: ResourceDemand::ZERO,
            log: None,
        }
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss counters since the pool was created.
    pub fn metrics(&self) -> BufferPoolMetrics {
        self.metrics
    }

    /// The physical I/O accumulated so far.
    pub fn demand(&self) -> &ResourceDemand {
        &self.demand
    }

    /// Returns and resets the accumulated physical I/O.
    pub(crate) fn take_demand(&mut self) -> ResourceDemand {
        std::mem::take(&mut self.demand)
    }

    /// Starts recording every reference this pool serves (dropping what an
    /// earlier, unclosed log held).
    pub fn open_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Stops recording and returns the references served since
    /// [`BufferPool::open_log`], in order (empty if no log was open).
    pub fn close_log(&mut self) -> Vec<Access> {
        self.log.take().unwrap_or_default()
    }

    /// What a cold pool of `capacity` pages would have charged for `log`,
    /// served in order and billed in runs: entry `k` is the demand of the
    /// references `log[run_ends[k - 1]..run_ends[k]]` (the first run starts
    /// at 0), each run over the pool its predecessors left behind. One pass
    /// over the log whatever the number of runs; references past the last
    /// end are not served. See the module docs for why this is exact. Zero
    /// capacity, an end past the log's, or an end before its predecessor is
    /// an error.
    pub fn replay(
        capacity: usize,
        log: &[Access],
        run_ends: &[usize],
    ) -> Result<Vec<ResourceDemand>, StorageError> {
        let bad = |boundary| StorageError::BadReplay {
            capacity,
            boundary,
            log_len: log.len(),
        };
        if capacity == 0 {
            return Err(bad(0));
        }
        let mut pool = BufferPool::new(capacity);
        let mut start = 0;
        run_ends
            .iter()
            .map(|&end| {
                let run = log.get(start..end).ok_or_else(|| bad(end))?;
                for &access in run {
                    pool.reference(None, access, false)?;
                }
                start = end;
                Ok(pool.take_demand())
            })
            .collect()
    }

    /// Finds a frame index for a new resident, evicting if necessary.
    fn allocate_frame(&mut self, live: bool) -> usize {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                pid: PageId {
                    file: crate::FileId(u32::MAX),
                    page_no: u32::MAX,
                },
                data: None,
                ref_bit: false,
            });
            return self.frames.len() - 1;
        }
        // Clock sweep: clear reference bits until an unreferenced victim is
        // found. Terminates within two passes since nothing is pinned.
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[idx].ref_bit {
                self.frames[idx].ref_bit = false;
                continue;
            }
            self.map.remove(&self.frames[idx].pid);
            self.metrics.evictions += 1;
            if live {
                TM_EVICTIONS.add(1);
            }
            return idx;
        }
    }

    /// Serves one reference: the whole replacement policy. With a `disk`
    /// this is a live access — page bytes are read when `with_data` asks for
    /// them, the process-wide counters tick and an open log records the
    /// reference. Without one it is a replay: the same hits, misses,
    /// evictions and charges over frames that hold no bytes, and nothing
    /// outside `self` moves.
    fn reference(
        &mut self,
        disk: Option<&DiskManager>,
        access: Access,
        with_data: bool,
    ) -> Result<usize, StorageError> {
        let Access { pid, pattern } = access;
        let live = disk.is_some();
        let resident = self.map.get(&pid).copied();
        // Read before anything is charged or moved: a page that is not
        // there must leave no trace of a physical read.
        let needs_data = with_data && resident.is_none_or(|idx| self.frames[idx].data.is_none());
        let data = match disk {
            Some(disk) if needs_data => Some(disk.read_page(pid)?.clone()),
            _ => None,
        };
        let idx = match resident {
            Some(idx) => {
                self.metrics.hits += 1;
                if live {
                    TM_HITS.add(1);
                }
                let frame = &mut self.frames[idx];
                frame.ref_bit = true;
                if data.is_some() {
                    // Resident as accounting-only: upgrade to a data frame
                    // without charging a second physical read.
                    frame.data = data;
                }
                idx
            }
            None => {
                self.metrics.misses += 1;
                if live {
                    TM_MISSES.add(1);
                    TM_PAGES_READ.add(1);
                }
                match pattern {
                    AccessPattern::Sequential => self.demand.add_seq_reads(1),
                    AccessPattern::Random => self.demand.add_random_reads(1),
                }
                let idx = self.allocate_frame(live);
                self.frames[idx] = Frame {
                    pid,
                    data,
                    ref_bit: true,
                };
                self.map.insert(pid, idx);
                idx
            }
        };
        if let (true, Some(log)) = (live, &mut self.log) {
            log.push(access);
        }
        Ok(idx)
    }

    /// Fetches a page for reading, charging a physical read on miss.
    pub fn fetch(
        &mut self,
        disk: &DiskManager,
        pid: PageId,
        pattern: AccessPattern,
    ) -> Result<&Page, StorageError> {
        let idx = self.reference(Some(disk), Access { pid, pattern }, true)?;
        Ok(self.frames[idx]
            .data
            .as_ref()
            .expect("data frame installed above"))
    }

    /// Records an access to a page whose contents are managed elsewhere
    /// (B+tree nodes): full hit/miss/eviction accounting, no byte storage.
    pub fn touch(
        &mut self,
        disk: &DiskManager,
        pid: PageId,
        pattern: AccessPattern,
    ) -> Result<(), StorageError> {
        self.reference(Some(disk), Access { pid, pattern }, false)
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Datum, HeapFile, Tuple};

    fn loaded_heap(rows: i64) -> (DiskManager, HeapFile) {
        let mut disk = DiskManager::new();
        let heap = HeapFile::create(&mut disk);
        for i in 0..rows {
            heap.insert(
                &mut disk,
                &Tuple::new(vec![Datum::Int(i), Datum::str("padding padding padding")]),
            )
            .unwrap();
        }
        (disk, heap)
    }

    #[test]
    fn repeated_access_hits() {
        let (disk, heap) = loaded_heap(100);
        let mut pool = BufferPool::new(4);
        let pid = PageId {
            file: heap.file_id(),
            page_no: 0,
        };
        pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
        pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
        pool.fetch(&disk, pid, AccessPattern::Random).unwrap();
        let m = pool.metrics();
        assert_eq!(m.misses, 1);
        assert_eq!(m.hits, 2);
        assert_eq!(pool.demand().seq_page_reads, 1);
        assert_eq!(pool.demand().random_page_reads, 0);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let (disk, heap) = loaded_heap(5000);
        let n_pages = heap.num_pages(&disk);
        assert!(n_pages > 8);
        let mut pool = BufferPool::new(8);
        for page_no in 0..n_pages {
            let pid = PageId {
                file: heap.file_id(),
                page_no,
            };
            pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
            assert!(pool.frames.len() <= 8);
        }
        assert_eq!(pool.metrics().misses as u32, n_pages);
        assert_eq!(pool.metrics().evictions as u32, n_pages - 8);
    }

    #[test]
    fn small_table_fits_and_rescans_are_free() {
        let (disk, heap) = loaded_heap(1000);
        let n_pages = heap.num_pages(&disk);
        let mut pool = BufferPool::new(n_pages as usize + 1);
        for _round in 0..3 {
            for page_no in 0..n_pages {
                let pid = PageId {
                    file: heap.file_id(),
                    page_no,
                };
                pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
            }
        }
        let m = pool.metrics();
        assert_eq!(m.misses as u32, n_pages, "only the first scan misses");
        assert_eq!(m.hits as u32, 2 * n_pages);
        assert!((m.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn touch_accounts_without_bytes() {
        let (disk, heap) = loaded_heap(100);
        let mut pool = BufferPool::new(4);
        let pid = PageId {
            file: heap.file_id(),
            page_no: 0,
        };
        pool.touch(&disk, pid, AccessPattern::Random).unwrap();
        pool.touch(&disk, pid, AccessPattern::Random).unwrap();
        assert_eq!(pool.metrics().misses, 1);
        assert_eq!(pool.metrics().hits, 1);
        assert_eq!(pool.demand().random_page_reads, 1);
        // Upgrading a touched page to a data fetch does not double-charge.
        pool.fetch(&disk, pid, AccessPattern::Random).unwrap();
        assert_eq!(pool.demand().random_page_reads, 1);
    }

    #[test]
    fn take_demand_resets() {
        let (disk, heap) = loaded_heap(100);
        let mut pool = BufferPool::new(4);
        let pid = PageId {
            file: heap.file_id(),
            page_no: 0,
        };
        pool.fetch(&disk, pid, AccessPattern::Sequential).unwrap();
        let d = pool.take_demand();
        assert_eq!(d.seq_page_reads, 1);
        assert!(pool.demand().is_zero());
    }

    #[test]
    fn a_failed_fetch_leaves_no_trace() {
        let (disk, heap) = loaded_heap(100);
        let mut pool = BufferPool::new(4);
        let here = PageId {
            file: heap.file_id(),
            page_no: 0,
        };
        let missing = PageId {
            file: heap.file_id(),
            page_no: 9999,
        };
        pool.fetch(&disk, here, AccessPattern::Sequential).unwrap();
        let (metrics, demand, resident) = (pool.metrics(), *pool.demand(), pool.frames.len());
        pool.open_log();
        for pattern in [AccessPattern::Sequential, AccessPattern::Random] {
            assert!(matches!(
                pool.fetch(&disk, missing, pattern),
                Err(StorageError::PageNotFound { page: 9999, .. })
            ));
        }
        assert_eq!(pool.metrics(), metrics);
        assert_eq!(*pool.demand(), demand, "no phantom physical read");
        assert_eq!(pool.frames.len(), resident);
        assert!(pool.close_log().is_empty());
        // Still a hit.
        pool.fetch(&disk, here, AccessPattern::Sequential).unwrap();
        assert_eq!(pool.metrics().hits, metrics.hits + 1);
    }

    #[test]
    fn the_log_holds_what_was_served_while_it_was_open() {
        let (disk, heap) = loaded_heap(1000);
        let pid = |page_no| PageId {
            file: heap.file_id(),
            page_no,
        };
        let mut pool = BufferPool::new(2);
        pool.fetch(&disk, pid(0), AccessPattern::Sequential)
            .unwrap();
        assert!(pool.close_log().is_empty(), "nothing is kept unasked");
        pool.open_log();
        pool.fetch(&disk, pid(1), AccessPattern::Sequential)
            .unwrap();
        pool.fetch(&disk, pid(2), AccessPattern::Random).unwrap();
        pool.touch(&disk, pid(1), AccessPattern::Random).unwrap();
        let access = |page_no, pattern| Access {
            pid: pid(page_no),
            pattern,
        };
        let log = pool.close_log();
        assert_eq!(
            log,
            vec![
                access(1, AccessPattern::Sequential),
                access(2, AccessPattern::Random),
                access(1, AccessPattern::Random),
            ]
        );
        pool.fetch(&disk, pid(3), AccessPattern::Sequential)
            .unwrap();
        assert!(pool.close_log().is_empty(), "closed");

        // Replayed cold through one frame: 1 misses, 2 misses and evicts 1,
        // 1 misses again and evicts 2.
        let d = BufferPool::replay(1, &log, &[3]).unwrap()[0];
        assert_eq!(
            (d.seq_page_reads, d.random_page_reads, d.page_writes),
            (1, 2, 0)
        );
        // With room for both pages the last reference is a hit, and an
        // empty run is free.
        let runs = BufferPool::replay(2, &log, &[2, 3, 3]).unwrap();
        assert!(!runs[0].is_zero() && runs[1].is_zero() && runs[2].is_zero());
        // References past the last end are not served.
        assert_eq!(BufferPool::replay(2, &log, &[2]).unwrap(), runs[..1]);
    }

    /// The one-pass replay against the definition it replaced: run `k` is
    /// what a cold pool charges for `log[ends[k - 1]..ends[k]]` after being
    /// warmed by everything before it — replayed prefix by prefix.
    #[test]
    fn a_thousand_runs_in_one_pass_equal_the_per_prefix_replays() {
        let file = crate::FileId(3);
        let mut stream = dbvirt_vmm::kernel::SplitMix64(17);
        let mut draw = |below: u64| stream.next() % below;
        let mut log = Vec::new();
        let mut ends = Vec::new();
        for _ in 0..1000 {
            for _ in 0..draw(12) {
                log.push(Access {
                    pid: PageId {
                        file,
                        page_no: draw(100) as u32,
                    },
                    pattern: [AccessPattern::Sequential, AccessPattern::Random][draw(2) as usize],
                });
            }
            ends.push(log.len());
        }
        for capacity in [1, 7, 64] {
            let one_pass = BufferPool::replay(capacity, &log, &ends).unwrap();
            assert_eq!(one_pass.len(), 1000);
            let mut start = 0;
            for (run, &end) in one_pass.iter().zip(&ends) {
                let prefix = BufferPool::replay(capacity, &log[..end], &[start, end]).unwrap();
                assert_eq!(*run, prefix[1], "capacity {capacity}, run ending at {end}");
                start = end;
            }
        }
    }

    #[test]
    fn an_impossible_replay_is_an_error_not_a_panic() {
        assert_eq!(
            BufferPool::replay(0, &[], &[0]),
            Err(StorageError::BadReplay {
                capacity: 0,
                boundary: 0,
                log_len: 0
            })
        );
        let access = Access {
            pid: PageId {
                file: crate::FileId(0),
                page_no: 0,
            },
            pattern: AccessPattern::Random,
        };
        // An end past the log's, and one before its predecessor.
        for (log, ends, boundary) in [(&[][..], &[0, 1][..], 1), (&[access; 3][..], &[2, 1, 3], 1)]
        {
            assert_eq!(
                BufferPool::replay(4, log, ends),
                Err(StorageError::BadReplay {
                    capacity: 4,
                    boundary,
                    log_len: log.len()
                })
            );
        }
        assert!(BufferPool::replay(4, &[], &[0]).unwrap()[0].is_zero());
        assert!(BufferPool::replay(4, &[access], &[]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_is_rejected() {
        let _ = BufferPool::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{Datum, HeapFile, Tuple};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Under any access sequence: residency never exceeds capacity,
        /// hits + misses equals accesses, and fetched data always matches
        /// the disk image.
        #[test]
        fn prop_pool_invariants(
            capacity in 1usize..24,
            accesses in prop::collection::vec((0u32..40, prop::bool::ANY), 1..200),
        ) {
            let mut disk = DiskManager::new();
            let heap = HeapFile::create(&mut disk);
            for i in 0..4000i64 {
                heap.insert(
                    &mut disk,
                    &Tuple::new(vec![Datum::Int(i), Datum::str("pad pad pad pad")]),
                )
                .unwrap();
            }
            let n_pages = heap.num_pages(&disk);
            let mut pool = BufferPool::new(capacity);
            for (page, random) in accesses.iter() {
                let page_no = page % n_pages;
                let pid = PageId {
                    file: heap.file_id(),
                    page_no,
                };
                let pattern = if *random {
                    AccessPattern::Random
                } else {
                    AccessPattern::Sequential
                };
                let via_pool = pool.fetch(&disk, pid, pattern).unwrap().clone();
                prop_assert!(pool.frames.len() <= capacity);
                let direct = disk.read_page(pid).unwrap();
                prop_assert!(&via_pool == direct, "cached page diverged from disk");
            }
            let m = pool.metrics();
            prop_assert_eq!(m.hits + m.misses, accesses.len() as u64);
            prop_assert_eq!(
                m.misses,
                pool.demand().seq_page_reads + pool.demand().random_page_reads
            );
        }

        /// Any sequence of fetches and touches — repeats included —
        /// replayed from its log charges what the pool that served it did:
        /// the same demand and the same metrics, measured from any point.
        #[test]
        fn prop_replay_equals_the_live_pool(
            capacity in 1usize..=64,
            accesses in prop::collection::vec((0u32..96, prop::bool::ANY, prop::bool::ANY), 1..400),
            measured_from in 0usize..400,
        ) {
            let mut disk = DiskManager::new();
            let heap = HeapFile::create(&mut disk);
            for i in 0..4000i64 {
                heap.insert(
                    &mut disk,
                    &Tuple::new(vec![Datum::Int(i), Datum::str("pad pad pad pad")]),
                )
                .unwrap();
            }
            let n_pages = heap.num_pages(&disk);
            let measured_from = measured_from % (accesses.len() + 1);
            // The carrier's capacity is not the replayed one.
            let mut live = BufferPool::new(capacity);
            let mut carrier = BufferPool::new(1 + (capacity * 7) % 64);
            carrier.open_log();
            for (at, (page, touch, random)) in accesses.iter().enumerate() {
                if at == measured_from {
                    live.take_demand();
                    live.metrics = BufferPoolMetrics::default();
                }
                let pid = PageId {
                    file: heap.file_id(),
                    page_no: page % n_pages,
                };
                let pattern = if *random {
                    AccessPattern::Random
                } else {
                    AccessPattern::Sequential
                };
                for pool in [&mut live, &mut carrier] {
                    if *touch {
                        pool.touch(&disk, pid, pattern).unwrap();
                    } else {
                        pool.fetch(&disk, pid, pattern).unwrap();
                    }
                }
            }
            if measured_from == accesses.len() {
                live.take_demand();
                live.metrics = BufferPoolMetrics::default();
            }
            let log = carrier.close_log();
            prop_assert_eq!(log.len(), accesses.len());
            prop_assert_eq!(
                BufferPool::replay(capacity, &log, &[measured_from, log.len()]).unwrap()[1],
                *live.demand()
            );
            // The same walk by hand, to see the metrics `replay` drops.
            let mut replayed = BufferPool::new(capacity);
            for (at, &access) in log.iter().enumerate() {
                if at == measured_from {
                    replayed.metrics = BufferPoolMetrics::default();
                }
                replayed.reference(None, access, false).unwrap();
            }
            if measured_from == log.len() {
                replayed.metrics = BufferPoolMetrics::default();
            }
            prop_assert_eq!(replayed.metrics(), live.metrics());
            prop_assert_eq!(replayed.frames.len(), live.frames.len());
        }
    }
}
