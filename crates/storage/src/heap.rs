//! Heap files and the disk manager.
//!
//! The [`DiskManager`] holds the persistent image of every file as a vector
//! of [`Page`]s. Bulk loading writes pages directly (loading is an offline
//! step the experiments do not meter); query-time access goes through the
//! [`crate::BufferPool`], which is where physical reads are charged.

use crate::{BufferPool, Page, StorageError, Tuple, TupleView};
use std::fmt;

/// Identifier of a file (heap table or index) within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// Identifier of one page on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    /// The containing file.
    pub file: FileId,
    /// Page number within the file.
    pub page_no: u32,
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.page_no)
    }
}

/// Identifier of a tuple within a heap file (the file is implied by the
/// table that owns the id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Page number within the heap file.
    pub page_no: u32,
    /// Slot within the page.
    pub slot: u16,
}

/// The persistent store: every file's pages.
#[derive(Debug, Clone, Default)]
pub struct DiskManager {
    files: Vec<Vec<Page>>,
}

impl DiskManager {
    /// Creates an empty disk.
    pub fn new() -> DiskManager {
        DiskManager::default()
    }

    /// Allocates a new, empty file.
    pub(crate) fn create_file(&mut self) -> FileId {
        self.files.push(Vec::new());
        FileId(self.files.len() as u32 - 1)
    }

    /// Number of pages in `file`.
    pub(crate) fn file_pages(&self, file: FileId) -> Result<u32, StorageError> {
        self.files
            .get(file.0 as usize)
            .map(|f| f.len() as u32)
            .ok_or(StorageError::FileNotFound { file: file.0 })
    }

    /// Appends an empty page to `file`, returning its id.
    pub(crate) fn append_page(&mut self, file: FileId) -> Result<PageId, StorageError> {
        let f = self
            .files
            .get_mut(file.0 as usize)
            .ok_or(StorageError::FileNotFound { file: file.0 })?;
        f.push(Page::new());
        Ok(PageId {
            file,
            page_no: f.len() as u32 - 1,
        })
    }

    /// Reads a page's persistent image.
    pub fn read_page(&self, pid: PageId) -> Result<&Page, StorageError> {
        self.files
            .get(pid.file.0 as usize)
            .and_then(|f| f.get(pid.page_no as usize))
            .ok_or(StorageError::PageNotFound {
                file: pid.file.0,
                page: pid.page_no,
            })
    }

    /// Mutable access to a page's persistent image (bulk-load path and
    /// buffer-pool write-back only).
    pub fn page_mut(&mut self, pid: PageId) -> Result<&mut Page, StorageError> {
        self.files
            .get_mut(pid.file.0 as usize)
            .and_then(|f| f.get_mut(pid.page_no as usize))
            .ok_or(StorageError::PageNotFound {
                file: pid.file.0,
                page: pid.page_no,
            })
    }

    /// Total pages across all files.
    pub fn total_pages(&self) -> usize {
        self.files.iter().map(Vec::len).sum()
    }
}

/// An append-only heap table over a file of slotted pages.
#[derive(Debug, Clone, Copy)]
pub struct HeapFile {
    file: FileId,
}

impl HeapFile {
    /// Creates a heap file backed by a fresh disk file.
    pub fn create(disk: &mut DiskManager) -> HeapFile {
        HeapFile {
            file: disk.create_file(),
        }
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of pages in the heap.
    pub fn num_pages(&self, disk: &DiskManager) -> u32 {
        disk.file_pages(self.file).unwrap_or(0)
    }

    /// Bulk-load insert: appends `tuple`, returning its id. Writes go
    /// straight to the persistent image — loading is an unmetered, offline
    /// step in the experiments, exactly like building the TPC-H database
    /// before the paper's measurements start.
    pub fn insert(&self, disk: &mut DiskManager, tuple: &Tuple) -> Result<TupleId, StorageError> {
        let bytes = tuple.encode();
        let n_pages = disk.file_pages(self.file)?;
        if n_pages > 0 {
            let pid = PageId {
                file: self.file,
                page_no: n_pages - 1,
            };
            if let Some(slot) = disk.page_mut(pid)?.insert(&bytes)? {
                return Ok(TupleId {
                    page_no: pid.page_no,
                    slot,
                });
            }
        }
        let pid = disk.append_page(self.file)?;
        let slot = disk
            .page_mut(pid)?
            .insert(&bytes)?
            .expect("fresh page rejected a record that fits in a page");
        Ok(TupleId {
            page_no: pid.page_no,
            slot,
        })
    }

    /// Fetches one heap page through the buffer pool, charging the access to
    /// `pool`'s demand tracker. The page stays borrowed from the pool, so a
    /// scan can look at its rows in place.
    pub fn fetch_page<'p>(
        &self,
        disk: &DiskManager,
        pool: &'p mut BufferPool,
        page_no: u32,
        pattern: crate::AccessPattern,
    ) -> Result<&'p Page, StorageError> {
        let pid = PageId {
            file: self.file,
            page_no,
        };
        pool.fetch(disk, pid, pattern)
    }

    /// Fetches one row by id through the buffer pool (random access, as in
    /// an index-scan heap lookup), read in place.
    ///
    /// # Errors
    /// What [`Page::row`] found wrong with the page, or
    /// [`StorageError::TupleNotFound`] if the page is sound and has no live
    /// record in that slot.
    pub fn fetch<'p>(
        &self,
        disk: &DiskManager,
        pool: &'p mut BufferPool,
        tid: TupleId,
    ) -> Result<TupleView<'p, u16>, StorageError> {
        let page = self.fetch_page(disk, pool, tid.page_no, crate::AccessPattern::Random)?;
        page.row(tid.slot)?.ok_or(StorageError::TupleNotFound {
            file: self.file.0,
            page: tid.page_no,
            slot: tid.slot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPattern, Datum, DatumRef};

    fn tuple(i: i64) -> Tuple {
        Tuple::new(vec![Datum::Int(i), Datum::str(format!("row-{i}"))])
    }

    #[test]
    fn insert_spans_pages() {
        let mut disk = DiskManager::new();
        let heap = HeapFile::create(&mut disk);
        let n = 2000;
        let tids: Vec<TupleId> = (0..n)
            .map(|i| heap.insert(&mut disk, &tuple(i)).unwrap())
            .collect();
        assert!(heap.num_pages(&disk) > 1, "2000 rows should span pages");
        // Tuple ids are dense and ordered.
        for w in tids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn scan_returns_all_rows_in_order() {
        let mut disk = DiskManager::new();
        let heap = HeapFile::create(&mut disk);
        for i in 0..500 {
            heap.insert(&mut disk, &tuple(i)).unwrap();
        }
        let mut pool = BufferPool::new(16);
        let mut seen = Vec::new();
        for page_no in 0..heap.num_pages(&disk) {
            let page = heap
                .fetch_page(&disk, &mut pool, page_no, AccessPattern::Sequential)
                .unwrap();
            for (_, row) in page.rows().unwrap() {
                seen.push(row.get(0).to_datum().as_int().unwrap());
            }
        }
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn fetch_by_tid() {
        let mut disk = DiskManager::new();
        let heap = HeapFile::create(&mut disk);
        let tids: Vec<TupleId> = (0..300)
            .map(|i| heap.insert(&mut disk, &tuple(i)).unwrap())
            .collect();
        let mut pool = BufferPool::new(8);
        let row = heap.fetch(&disk, &mut pool, tids[123]).unwrap();
        assert_eq!(row.get(0), DatumRef::Int(123));
        // Missing slot.
        let bogus = TupleId {
            page_no: 0,
            slot: 999,
        };
        assert!(matches!(
            heap.fetch(&disk, &mut pool, bogus),
            Err(StorageError::TupleNotFound { slot: 999, .. })
        ));
    }

    #[test]
    fn missing_file_and_page_errors() {
        let disk = DiskManager::new();
        assert!(disk.file_pages(FileId(9)).is_err());
        assert!(disk
            .read_page(PageId {
                file: FileId(0),
                page_no: 0
            })
            .is_err());
    }
}
