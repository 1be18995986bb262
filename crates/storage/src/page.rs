//! Slotted pages.
//!
//! Layout (all offsets little-endian u16 within an 8 KiB page):
//!
//! ```text
//! +--------+-----------------------------+--------------------+
//! | header | tuple data (grows forward)  | slot dir (grows <-)|
//! +--------+-----------------------------+--------------------+
//! header = { n_slots: u16, free_off: u16 }
//! slot   = { off: u16, len: u16 }   (stored from the page end backwards)
//! ```
//!
//! Deleted slots keep their directory entry with `len == 0` so that
//! [`crate::TupleId`]s remain stable.

use crate::StorageError;
use std::sync::Arc;

/// Page size in bytes, matching PostgreSQL's default 8 KiB.
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 4;
const SLOT_SIZE: usize = 4;

fn set_u16(data: &mut [u8; PAGE_SIZE], off: usize, v: u16) {
    data[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// An 8 KiB slotted page.
///
/// The image is shared: cloning a page — a buffer-pool miss, a copy of a
/// whole database — costs a reference count, and the first write to a page
/// that shares its image copies it ([`Page::insert`] is the only writer).
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Arc<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("n_slots", &self.slot_count())
            .field("free_space", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Page {
        Page::new()
    }
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Page {
        let mut data = [0u8; PAGE_SIZE];
        set_u16(&mut data, 0, 0); // n_slots
        set_u16(&mut data, 2, HEADER_SIZE as u16); // free_off
        Page::from_bytes(data)
    }

    /// Wraps a raw page image as read from a device. Nothing is checked
    /// here: [`Page::get`] and [`Page::records`] validate each slot they
    /// are asked for.
    pub fn from_bytes(data: [u8; PAGE_SIZE]) -> Page {
        Page {
            data: Arc::new(data),
        }
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    /// Number of slots (including deleted ones).
    pub fn slot_count(&self) -> u16 {
        self.get_u16(0)
    }

    fn free_off(&self) -> u16 {
        self.get_u16(2)
    }

    fn slot_dir_off(&self, slot: u16) -> usize {
        PAGE_SIZE - SLOT_SIZE * (slot as usize + 1)
    }

    /// Free bytes available for one more insertion (accounting for the new
    /// slot directory entry).
    pub fn free_space(&self) -> usize {
        let dir_start = PAGE_SIZE - SLOT_SIZE * self.slot_count() as usize;
        let used_end = self.free_off() as usize;
        (dir_start - used_end).saturating_sub(SLOT_SIZE)
    }

    /// Largest record that can ever fit in an empty page.
    pub fn max_record_size() -> usize {
        PAGE_SIZE - HEADER_SIZE - SLOT_SIZE
    }

    /// Inserts a record, returning its slot index, or `None` if the page is
    /// full.
    ///
    /// # Errors
    /// Returns [`StorageError::TupleTooLarge`] if the record could never fit
    /// even in an empty page.
    pub fn insert(&mut self, record: &[u8]) -> Result<Option<u16>, StorageError> {
        if record.len() > Self::max_record_size() {
            return Err(StorageError::TupleTooLarge { size: record.len() });
        }
        if record.len() > self.free_space() {
            return Ok(None);
        }
        let slot = self.slot_count();
        let off = self.free_off();
        let dir = self.slot_dir_off(slot);
        // Copy-on-write, once per insert: a page that shares its image with
        // the disk or another pool gets its own before the first byte moves.
        let data = Arc::make_mut(&mut self.data);
        data[off as usize..off as usize + record.len()].copy_from_slice(record);
        set_u16(data, dir, off);
        set_u16(data, dir + 2, record.len() as u16);
        set_u16(data, 0, slot + 1);
        set_u16(data, 2, off + record.len() as u16);
        Ok(Some(slot))
    }

    /// The `(offset, length)` directory entry of `slot`.
    fn slot_entry(&self, slot: u16) -> (usize, usize) {
        let dir = self.slot_dir_off(slot);
        (self.get_u16(dir) as usize, self.get_u16(dir + 2) as usize)
    }

    /// The bytes a live directory entry points at, or an error if they do
    /// not lie inside the page.
    fn record_at(&self, slot: u16, off: usize, len: usize) -> Result<&[u8], StorageError> {
        self.data
            .get(off..off + len)
            .ok_or_else(|| StorageError::CorruptPage {
                reason: format!("slot {slot} points outside the page"),
            })
    }

    /// Returns the record in `slot`, or an error if the slot is missing or
    /// deleted.
    pub fn get(&self, slot: u16) -> Result<&[u8], StorageError> {
        if slot >= self.slot_count() {
            return Err(StorageError::CorruptPage {
                reason: format!("slot {slot} out of range ({})", self.slot_count()),
            });
        }
        let (off, len) = self.slot_entry(slot);
        if len == 0 {
            return Err(StorageError::CorruptPage {
                reason: format!("slot {slot} is deleted"),
            });
        }
        self.record_at(slot, off, len)
    }

    /// Iterates over `(slot, record)` pairs of live records. Deleted
    /// (zero-length) slots are skipped; a slot that points outside the page
    /// is an error, the same one [`Page::get`] reports for it.
    pub fn records(&self) -> impl Iterator<Item = Result<(u16, &[u8]), StorageError>> {
        (0..self.slot_count()).filter_map(move |slot| {
            let (off, len) = self.slot_entry(slot);
            (len > 0).then(|| self.record_at(slot, off, len).map(|r| (slot, r)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap().unwrap();
        let b = p.insert(b"world!").unwrap().unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(p.get(0).unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn a_clone_shares_the_image_until_either_side_writes() {
        let mut a = Page::new();
        a.insert(b"before").unwrap().unwrap();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        b.insert(b"after").unwrap().unwrap();
        assert!(!Arc::ptr_eq(&a.data, &b.data));
        assert_eq!((a.slot_count(), b.slot_count()), (1, 2));
        assert_eq!(b.get(0).unwrap(), b"before");
        // An unshared page is written in place.
        let image = Arc::as_ptr(&b.data);
        b.insert(b"again").unwrap().unwrap();
        assert_eq!(Arc::as_ptr(&b.data), image);
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).unwrap().is_some() {
            n += 1;
        }
        // 8192 - 4 header; each record costs 100 + 4 slot = 104.
        assert_eq!(n, (PAGE_SIZE - HEADER_SIZE) / 104);
        // Still readable after filling.
        assert_eq!(p.get(0).unwrap(), &rec[..]);
        assert_eq!(p.get(n as u16 - 1).unwrap(), &rec[..]);
    }

    #[test]
    fn oversized_record_is_an_error_not_full() {
        let mut p = Page::new();
        let too_big = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&too_big),
            Err(StorageError::TupleTooLarge { .. })
        ));
        // A merely-large record that fits is fine.
        let big = vec![1u8; Page::max_record_size()];
        assert_eq!(p.insert(&big).unwrap(), Some(0));
        assert_eq!(p.insert(b"x").unwrap(), None);
    }

    #[test]
    fn out_of_range_slot_is_an_error() {
        let p = Page::new();
        assert!(p.get(0).is_err());
    }

    #[test]
    fn records_iterates_in_slot_order() {
        let mut p = Page::new();
        for i in 0..5u8 {
            p.insert(&[i]).unwrap().unwrap();
        }
        let collected: Vec<u8> = p.records().map(|r| r.unwrap().1[0]).collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn records_skips_deleted_slots_and_reports_out_of_range_ones() {
        let mut p = Page::new();
        for i in 0..3u8 {
            p.insert(&[i; 8]).unwrap().unwrap();
        }
        // Delete slot 1: zero its length.
        let dir = p.slot_dir_off(1);
        set_u16(Arc::make_mut(&mut p.data), dir + 2, 0);
        let live: Vec<u16> = p.records().map(|r| r.unwrap().0).collect();
        assert_eq!(live, vec![0, 2]);
        // Point slot 2 past the end of the page.
        let dir = p.slot_dir_off(2);
        set_u16(Arc::make_mut(&mut p.data), dir, (PAGE_SIZE - 4) as u16);
        let seen: Vec<_> = p.records().collect();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].as_ref().unwrap().0, 0);
        assert_eq!(seen[1], Err(p.get(2).unwrap_err()));
        assert!(matches!(seen[1], Err(StorageError::CorruptPage { .. })));
    }

    #[test]
    fn free_space_decreases_monotonically() {
        let mut p = Page::new();
        let mut prev = p.free_space();
        for _ in 0..10 {
            p.insert(&[0u8; 64]).unwrap().unwrap();
            let now = p.free_space();
            assert!(now < prev);
            prev = now;
        }
    }
}
