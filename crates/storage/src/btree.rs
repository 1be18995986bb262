//! Paged B+tree secondary indexes.
//!
//! Keys are [`Datum`]s (ties broken by [`TupleId`] so duplicates are fully
//! ordered); values are heap [`TupleId`]s. The node *structure* lives in
//! memory, but every node is assigned a page in a dedicated index file, and
//! metered traversals record node visits through the buffer pool
//! ([`BufferPool::touch`]) so that index I/O participates in cache-hit and
//! physical-read accounting exactly like heap I/O.

use crate::{AccessPattern, BufferPool, Datum, DiskManager, FileId, PageId, StorageError, TupleId};
use std::cmp::Ordering;
use std::ops::Bound;

/// Entries per leaf and children per internal node: roughly what 8 KiB
/// pages hold for short keys. Indexes are built once, by bulk load.
const BULK_FILL: usize = 100;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// `keys[i]` is the minimum key of the subtree `children[i + 1]`.
        keys: Vec<(Datum, TupleId)>,
        children: Vec<usize>,
    },
    Leaf {
        entries: Vec<(Datum, TupleId)>,
        next: Option<usize>,
    },
}

/// One `(node index, subtree-minimum entry)` pair used while building
/// internal levels.
type LevelEntry = (usize, (Datum, TupleId));

/// A B+tree index over one column of a heap table.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    file: FileId,
    nodes: Vec<Node>,
    root: usize,
    height: u32,
    len: usize,
}

fn cmp_entry(a: &(Datum, TupleId), b: &(Datum, TupleId)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

impl BPlusTree {
    /// Builds an index by bulk-loading `entries` (sorted internally).
    pub fn bulk_load(
        disk: &mut DiskManager,
        mut entries: Vec<(Datum, TupleId)>,
    ) -> Result<BPlusTree, StorageError> {
        entries.sort_by(cmp_entry);
        let file = disk.create_file();
        let mut tree = BPlusTree {
            file,
            nodes: Vec::new(),
            root: 0,
            height: 1,
            len: entries.len(),
        };

        if entries.is_empty() {
            tree.root = tree.alloc(
                disk,
                Node::Leaf {
                    entries: Vec::new(),
                    next: None,
                },
            )?;
            return Ok(tree);
        }

        // Build the leaf level.
        let mut level: Vec<LevelEntry> = Vec::new();
        let mut chunks = entries.chunks(BULK_FILL).peekable();
        let mut prev_leaf: Option<usize> = None;
        while let Some(chunk) = chunks.next() {
            let min = chunk[0].clone();
            let idx = tree.alloc(
                disk,
                Node::Leaf {
                    entries: chunk.to_vec(),
                    next: None,
                },
            )?;
            if let Some(p) = prev_leaf {
                if let Node::Leaf { next, .. } = &mut tree.nodes[p] {
                    *next = Some(idx);
                }
            }
            prev_leaf = Some(idx);
            level.push((idx, min));
            let _ = chunks.peek();
        }

        // Build internal levels until one root remains.
        while level.len() > 1 {
            tree.height += 1;
            let mut next_level = Vec::new();
            for group in level.chunks(BULK_FILL) {
                let min = group[0].1.clone();
                let children: Vec<usize> = group.iter().map(|(idx, _)| *idx).collect();
                let keys: Vec<(Datum, TupleId)> =
                    group[1..].iter().map(|(_, k)| k.clone()).collect();
                let idx = tree.alloc(disk, Node::Internal { keys, children })?;
                next_level.push((idx, min));
            }
            level = next_level;
        }
        tree.root = level[0].0;
        Ok(tree)
    }

    fn alloc(&mut self, disk: &mut DiskManager, node: Node) -> Result<usize, StorageError> {
        let pid = disk.append_page(self.file)?;
        debug_assert_eq!(pid.page_no as usize, self.nodes.len());
        self.nodes.push(node);
        Ok(pid.page_no as usize)
    }

    /// The index file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of node pages.
    pub fn num_pages(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The exact `(height, total node pages)` that [`BPlusTree::bulk_load`]
    /// produces for `len` entries, computed without building the tree.
    ///
    /// Mirrors `bulk_load`'s chunking arithmetic (`BULK_FILL` entries per
    /// leaf, `BULK_FILL` children per internal node, levels collapsed until
    /// a single root remains), so what-if pricing of a *hypothetical* index
    /// sees the same geometry a real build would.
    pub fn bulk_geometry(len: usize) -> (u32, u32) {
        if len == 0 {
            return (1, 1);
        }
        let mut level = len.div_ceil(BULK_FILL);
        let mut pages = level;
        let mut height = 1u32;
        while level > 1 {
            level = level.div_ceil(BULK_FILL);
            pages += level;
            height += 1;
        }
        (height, pages as u32)
    }

    fn page_id(&self, node: usize) -> PageId {
        PageId {
            file: self.file,
            page_no: node as u32,
        }
    }

    /// Descends to the leftmost leaf that may contain `lo`, recording the
    /// visited nodes in `visits`.
    fn descend(&self, lo: Bound<&Datum>, visits: &mut Vec<usize>) -> usize {
        let mut node = self.root;
        loop {
            visits.push(node);
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    let pos = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(k) | Bound::Excluded(k) => {
                            // Descend left of any separator >= k so that
                            // duplicates spanning leaves are not skipped.
                            keys.partition_point(|(sk, _)| sk.total_cmp(k) == Ordering::Less)
                        }
                    };
                    node = children[pos];
                }
            }
        }
    }

    fn in_lo(&self, key: &Datum, lo: Bound<&Datum>) -> bool {
        match lo {
            Bound::Unbounded => true,
            Bound::Included(k) => key.total_cmp(k) != Ordering::Less,
            Bound::Excluded(k) => key.total_cmp(k) == Ordering::Greater,
        }
    }

    fn past_hi(&self, key: &Datum, hi: Bound<&Datum>) -> bool {
        match hi {
            Bound::Unbounded => false,
            Bound::Included(k) => key.total_cmp(k) == Ordering::Greater,
            Bound::Excluded(k) => key.total_cmp(k) != Ordering::Less,
        }
    }

    /// Range scan without I/O accounting (tests, statistics building).
    pub fn range(&self, lo: Bound<&Datum>, hi: Bound<&Datum>) -> Vec<(Datum, TupleId)> {
        let mut visits = Vec::new();
        self.scan(lo, hi, &mut visits)
    }

    /// Range scan that charges every visited node page to the buffer pool
    /// (descent and leaf-chain walk are random accesses, as in PostgreSQL's
    /// cost model for index pages).
    pub fn range_metered(
        &self,
        disk: &DiskManager,
        pool: &mut BufferPool,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> Result<Vec<(Datum, TupleId)>, StorageError> {
        let mut visits = Vec::new();
        let out = self.scan(lo, hi, &mut visits);
        for node in visits {
            pool.touch(disk, self.page_id(node), AccessPattern::Random)?;
        }
        Ok(out)
    }

    fn scan(
        &self,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
        visits: &mut Vec<usize>,
    ) -> Vec<(Datum, TupleId)> {
        let mut out = Vec::new();
        let mut leaf = self.descend(lo, visits);
        loop {
            let Node::Leaf { entries, next } = &self.nodes[leaf] else {
                unreachable!("descend always reaches a leaf");
            };
            for (key, tid) in entries {
                if self.past_hi(key, hi) {
                    return out;
                }
                if self.in_lo(key, lo) {
                    out.push((key.clone(), *tid));
                }
            }
            match next {
                Some(n) => {
                    leaf = *n;
                    visits.push(leaf);
                }
                None => return out,
            }
        }
    }

    /// Equality lookup: all tuple ids whose key equals `key`.
    pub fn lookup_metered(
        &self,
        disk: &DiskManager,
        pool: &mut BufferPool,
        key: &Datum,
    ) -> Result<Vec<TupleId>, StorageError> {
        Ok(self
            .range_metered(disk, pool, Bound::Included(key), Bound::Included(key))?
            .into_iter()
            .map(|(_, tid)| tid)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> TupleId {
        TupleId {
            page_no: i / 100,
            slot: (i % 100) as u16,
        }
    }

    fn build(n: u32) -> (DiskManager, BPlusTree) {
        let mut disk = DiskManager::new();
        let entries: Vec<(Datum, TupleId)> =
            (0..n).map(|i| (Datum::Int(i as i64), tid(i))).collect();
        let tree = BPlusTree::bulk_load(&mut disk, entries).unwrap();
        (disk, tree)
    }

    #[test]
    fn bulk_geometry_matches_bulk_load() {
        for n in [0usize, 1, 99, 100, 101, 250, 10_000, 10_001, 1_000_000] {
            let mut disk = DiskManager::new();
            let entries: Vec<(Datum, TupleId)> = (0..n.min(20_000))
                .map(|i| (Datum::Int(i as i64), tid(i as u32)))
                .collect();
            if n > 20_000 {
                // Too slow to build; only check the arithmetic is sane.
                let (h, p) = BPlusTree::bulk_geometry(n);
                assert!(h >= 3 && p as usize >= n / BULK_FILL);
                continue;
            }
            let tree = BPlusTree::bulk_load(&mut disk, entries).unwrap();
            let (h, p) = BPlusTree::bulk_geometry(n);
            assert_eq!((h, p), (tree.height(), tree.num_pages()), "n={n}");
        }
    }

    #[test]
    fn bulk_load_and_full_scan() {
        let (_, tree) = build(10_000);
        assert_eq!(tree.len(), 10_000);
        assert!(tree.height() >= 2);
        let all = tree.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 10_000);
        for (i, (k, _)) in all.iter().enumerate() {
            assert_eq!(k, &Datum::Int(i as i64));
        }
    }

    #[test]
    fn range_bounds() {
        let (_, tree) = build(1000);
        let r = tree.range(
            Bound::Included(&Datum::Int(100)),
            Bound::Excluded(&Datum::Int(110)),
        );
        let keys: Vec<i64> = r.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, (100..110).collect::<Vec<_>>());
        let r = tree.range(Bound::Excluded(&Datum::Int(997)), Bound::Unbounded);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_tree() {
        let mut disk = DiskManager::new();
        let tree = BPlusTree::bulk_load(&mut disk, vec![]).unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert!(tree.range(Bound::Unbounded, Bound::Unbounded).is_empty());
    }

    #[test]
    fn duplicates_are_all_returned() {
        let mut disk = DiskManager::new();
        let mut entries = Vec::new();
        for i in 0..500u32 {
            entries.push((Datum::Int((i % 10) as i64), tid(i)));
        }
        let tree = BPlusTree::bulk_load(&mut disk, entries).unwrap();
        let r = tree.range(
            Bound::Included(&Datum::Int(3)),
            Bound::Included(&Datum::Int(3)),
        );
        assert_eq!(r.len(), 50);
        assert!(r.iter().all(|(k, _)| k == &Datum::Int(3)));
    }

    #[test]
    fn metered_scan_charges_node_visits() {
        let (disk, tree) = build(10_000);
        let mut pool = BufferPool::new(256);
        let r = tree
            .range_metered(
                &disk,
                &mut pool,
                Bound::Included(&Datum::Int(0)),
                Bound::Included(&Datum::Int(999)),
            )
            .unwrap();
        assert_eq!(r.len(), 1000);
        let m = pool.metrics();
        // Descent (height) plus ~10 leaves.
        assert!(m.misses as u32 >= tree.height() + 9);
        assert!(pool.demand().random_page_reads > 0);
        // A repeat scan hits the cache.
        let misses = m.misses;
        tree.range_metered(
            &disk,
            &mut pool,
            Bound::Included(&Datum::Int(0)),
            Bound::Included(&Datum::Int(999)),
        )
        .unwrap();
        assert_eq!(pool.metrics().misses, misses);
    }

    #[test]
    fn lookup_metered_finds_exact_matches() {
        let (disk, tree) = build(1000);
        let mut pool = BufferPool::new(64);
        let tids = tree
            .lookup_metered(&disk, &mut pool, &Datum::Int(42))
            .unwrap();
        assert_eq!(tids, vec![tid(42)]);
        let none = tree
            .lookup_metered(&disk, &mut pool, &Datum::Int(5000))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn string_keys_sort_lexicographically() {
        let mut disk = DiskManager::new();
        let entries = vec![
            (Datum::str("banana"), tid(1)),
            (Datum::str("apple"), tid(0)),
            (Datum::str("cherry"), tid(2)),
        ];
        let tree = BPlusTree::bulk_load(&mut disk, entries).unwrap();
        let all = tree.range(Bound::Unbounded, Bound::Unbounded);
        let keys: Vec<&str> = all.iter().map(|(k, _)| k.as_str().unwrap()).collect();
        assert_eq!(keys, vec!["apple", "banana", "cherry"]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_matches_sorted_model(keys in proptest::collection::vec(0i64..500, 0..400),
                                     lo in 0i64..500, span in 0i64..100) {
            let mut disk = DiskManager::new();
            let entries: Vec<(Datum, TupleId)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (Datum::Int(k), tid(i as u32)))
                .collect();
            let tree = BPlusTree::bulk_load(&mut disk, entries).unwrap();
            let hi = lo + span;
            let got: Vec<i64> = tree
                .range(Bound::Included(&Datum::Int(lo)), Bound::Excluded(&Datum::Int(hi)))
                .into_iter()
                .map(|(k, _)| k.as_int().unwrap())
                .collect();
            let mut expect: Vec<i64> = keys.iter().copied().filter(|k| (lo..hi).contains(k)).collect();
            expect.sort_unstable();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
