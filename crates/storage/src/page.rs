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
//!
//! An image is immutable between two [`Page::insert`]s, so whether its
//! records are valid and where their fields start are constants of it.
//! [`Page::rows`] and [`Page::row`] read rows through a *checked layout* kept
//! beside the bytes: the first reader of an image walks every live record
//! ([`TupleView::parse`] — field count, tags, lengths, string bodies) and
//! keeps the offsets it found, or the first error it met; every reader
//! after it, on any clone of the page and on any thread, is handed views
//! built from those offsets. Every image is checked in full before any of
//! its rows is read, and never again.

use crate::{StorageError, TupleView};
use dbvirt_telemetry as telemetry;
use std::sync::{Arc, OnceLock};

/// Images walked record by record: one tick per first read of an image.
static TM_PAGE_CHECKS: telemetry::Counter = telemetry::Counter::new("storage.page_checks");

/// Page size in bytes, matching PostgreSQL's default 8 KiB.
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 4;
const SLOT_SIZE: usize = 4;

fn set_u16(data: &mut [u8; PAGE_SIZE], off: usize, v: u16) {
    data[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Where the records of one image lie, as its first reader found them: one
/// table of `u16`s. Entry `s` and entry `s + 1`, for each of the image's
/// `n` slots, bound the part of the table that describes slot `s` — nothing
/// for a deleted slot, otherwise the offset from the record's first byte of
/// each field's tag, then of the record's end. Where the record starts is
/// the slot directory's business and is not copied.
type Layout = Box<[u16]>;

/// What a [`Page`] shares between its clones: the bytes and, once someone
/// has read a row, what checking them found.
struct Image {
    bytes: [u8; PAGE_SIZE],
    layout: OnceLock<Result<Layout, StorageError>>,
}

/// The copy [`Arc::make_mut`] takes for a writer: the bytes alone. A layout
/// describes the image it was read from, and the copy is about to change.
impl Clone for Image {
    fn clone(&self) -> Image {
        Image {
            bytes: self.bytes,
            layout: OnceLock::new(),
        }
    }
}

/// An 8 KiB slotted page.
///
/// The image is shared: cloning a page — a buffer-pool miss, a copy of a
/// whole database — costs a reference count, and the first write to a page
/// that shares its image copies it ([`Page::insert`] is the only writer).
/// The checked layout lives in the same allocation, so whoever reads an
/// image first checks it for every clone. Two pages are equal when their
/// bytes are.
#[derive(Clone)]
pub struct Page {
    image: Arc<Image>,
}

impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        self.image.bytes == other.image.bytes
    }
}

impl Eq for Page {}

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
    /// here: the first [`Page::rows`] or [`Page::row`] checks every record,
    /// [`Page::get`] and [`Page::records`] the slot entries they are asked
    /// for.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Page {
        Page {
            image: Arc::new(Image {
                bytes,
                layout: OnceLock::new(),
            }),
        }
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.image.bytes
    }

    fn get_u16(&self, off: usize) -> u16 {
        let bytes = &self.image.bytes;
        u16::from_le_bytes([bytes[off], bytes[off + 1]])
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
    pub(crate) fn free_space(&self) -> usize {
        let dir_start = PAGE_SIZE - SLOT_SIZE * self.slot_count() as usize;
        let used_end = self.free_off() as usize;
        (dir_start - used_end).saturating_sub(SLOT_SIZE)
    }

    /// Largest record that can ever fit in an empty page.
    pub(crate) fn max_record_size() -> usize {
        PAGE_SIZE - HEADER_SIZE - SLOT_SIZE
    }

    /// Inserts a record, returning its slot index, or `None` if the page is
    /// full.
    ///
    /// # Errors
    /// Returns [`StorageError::TupleTooLarge`] if the record could never fit
    /// even in an empty page, and [`StorageError::EmptyRecord`] for a record
    /// of no bytes, whose slot would read as deleted.
    pub fn insert(&mut self, record: &[u8]) -> Result<Option<u16>, StorageError> {
        if record.is_empty() {
            return Err(StorageError::EmptyRecord);
        }
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
        // Either way the image written to has no layout afterwards — the
        // copy never had one, an unshared image drops its own — and the
        // other side of a copy keeps the one that describes its bytes.
        let image = Arc::make_mut(&mut self.image);
        image.layout.take();
        let data = &mut image.bytes;
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
        self.image
            .bytes
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

    /// Walks every live record, in slot order, into a [`Layout`]; stops at
    /// the first slot that points outside the page or record that does not
    /// parse.
    fn check(&self) -> Result<Layout, StorageError> {
        TM_PAGE_CHECKS.add(1);
        let corrupt = |reason: &str| StorageError::CorruptPage {
            reason: reason.to_string(),
        };
        let n_slots = self.slot_count();
        if HEADER_SIZE + SLOT_SIZE * usize::from(n_slots) > PAGE_SIZE {
            return Err(corrupt("slot directory larger than the page"));
        }
        // Records that do not overlap describe themselves in fewer entries
        // than a `u16` counts; a directory whose records overlap that much
        // could ask for megabytes, and is refused instead.
        let next =
            |table: &Vec<u16>| u16::try_from(table.len()).map_err(|_| corrupt("records overlap"));
        let mut table = vec![0; usize::from(n_slots) + 1];
        let mut fields = Vec::new();
        for slot in 0..n_slots {
            table[usize::from(slot)] = next(&table)?;
            let (off, len) = self.slot_entry(slot);
            if len > 0 {
                let record = self.record_at(slot, off, len)?;
                let end = TupleView::parse(record, &mut fields)?.as_bytes().len();
                // A record on a page starts its fields and ends within
                // `PAGE_SIZE` of its first byte.
                table.extend(fields.iter().map(|&field| field as u16));
                table.push(end as u16);
            }
        }
        table[usize::from(n_slots)] = next(&table)?;
        Ok(table.into_boxed_slice())
    }

    /// The checked layout of this image: found by the first caller, on
    /// whichever clone of the page, and the same — the same error, if that
    /// is what was found — for every caller after it.
    fn layout(&self) -> Result<&[u16], StorageError> {
        let checked = self.image.layout.get_or_init(|| self.check());
        checked.as_deref().map_err(Clone::clone)
    }

    /// The live record in `slot`, one of the image's, as `table` describes
    /// it.
    fn view<'a>(&'a self, table: &'a [u16], slot: u16) -> Option<TupleView<'a, u16>> {
        let slot_no = usize::from(slot);
        let described = usize::from(table[slot_no])..usize::from(table[slot_no + 1]);
        let (&end, fields) = table[described].split_last()?;
        let (off, _) = self.slot_entry(slot);
        let record = &self.image.bytes[off..off + usize::from(end)];
        Some(TupleView::checked(record, fields))
    }

    /// The live rows in slot order, as `(slot, row)` pairs read in place.
    ///
    /// # Errors
    /// The first error, in slot order, that checking the image met — a slot
    /// pointing outside the page, a record that does not parse — before any
    /// row is returned, and the same one on every call.
    pub fn rows(&self) -> Result<impl Iterator<Item = (u16, TupleView<'_, u16>)>, StorageError> {
        let table = self.layout()?;
        Ok((0..self.slot_count()).filter_map(move |slot| Some((slot, self.view(table, slot)?))))
    }

    /// The row in `slot`, or `None` if the slot is missing or deleted.
    ///
    /// # Errors
    /// As [`Page::rows`]: an image with a corrupt record anywhere has no
    /// readable rows.
    pub fn row(&self, slot: u16) -> Result<Option<TupleView<'_, u16>>, StorageError> {
        let table = self.layout()?;
        Ok(if slot < self.slot_count() {
            self.view(table, slot)
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Row;

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
        assert!(Arc::ptr_eq(&a.image, &b.image));
        b.insert(b"after").unwrap().unwrap();
        assert!(!Arc::ptr_eq(&a.image, &b.image));
        assert_eq!((a.slot_count(), b.slot_count()), (1, 2));
        assert_eq!(b.get(0).unwrap(), b"before");
        // An unshared page is written in place.
        let image = Arc::as_ptr(&b.image);
        b.insert(b"again").unwrap().unwrap();
        assert_eq!(Arc::as_ptr(&b.image), image);
    }

    #[test]
    fn an_empty_record_is_refused_not_stored_as_a_deleted_slot() {
        let mut p = Page::new();
        p.insert(b"x").unwrap().unwrap();
        let before = p.clone();
        assert_eq!(p.insert(&[]), Err(StorageError::EmptyRecord));
        assert_eq!(p, before, "a refused insert writes nothing");
        assert_eq!(p.records().count(), usize::from(p.slot_count()));
    }

    /// A record of `n` NULL fields.
    fn nulls(n: u16) -> Vec<u8> {
        let mut record = n.to_be_bytes().to_vec();
        record.resize(2 + usize::from(n), 0);
        record
    }

    #[test]
    fn a_clone_shares_the_layout_and_an_insert_clears_only_the_writers() {
        let mut a = Page::new();
        a.insert(&nulls(3)).unwrap().unwrap();
        let mut b = a.clone();
        assert!(a.image.layout.get().is_none(), "nothing is checked unread");
        assert_eq!(a.rows().unwrap().count(), 1);
        assert!(
            b.image.layout.get().is_some(),
            "read through one, known to both"
        );

        // The writer's copy starts unchecked; the image it left keeps its
        // layout, which still describes it.
        b.insert(&nulls(5)).unwrap().unwrap();
        assert!(b.image.layout.get().is_none());
        let table = a.image.layout.get().unwrap().as_ref().unwrap();
        assert_eq!(table[..], [2, 6, 2, 3, 4, 5]);
        let arities = |p: &Page| {
            p.rows()
                .unwrap()
                .map(|(_, r)| r.arity())
                .collect::<Vec<_>>()
        };
        assert_eq!((arities(&a), arities(&b)), (vec![3], vec![3, 5]));

        // An unshared image is written in place and forgets its layout.
        let image = Arc::as_ptr(&b.image);
        b.insert(&nulls(1)).unwrap().unwrap();
        assert_eq!(Arc::as_ptr(&b.image), image);
        assert!(b.image.layout.get().is_none());
        assert_eq!(arities(&b), [3, 5, 1]);
        assert_eq!(b.row(2).unwrap().unwrap().arity(), 1);
        assert!(b.row(3).unwrap().is_none());
    }

    #[test]
    fn equality_is_of_bytes_whether_or_not_either_side_is_checked() {
        let mut a = Page::new();
        a.insert(&nulls(2)).unwrap().unwrap();
        let b = Page::from_bytes(*a.as_bytes());
        a.rows().unwrap().for_each(drop);
        assert!(a.image.layout.get().is_some() && b.image.layout.get().is_none());
        assert_eq!(a, b);
        // A bad record makes a page unreadable, not unequal to its bytes.
        let mut bytes = *a.as_bytes();
        bytes[HEADER_SIZE + 2] = 99;
        let (bad, same) = (Page::from_bytes(bytes), Page::from_bytes(bytes));
        assert!(bad.rows().is_err());
        assert_eq!(bad, same);
        assert_ne!(bad, a);
    }

    #[test]
    fn a_directory_that_cannot_be_a_pages_is_an_error_not_a_panic() {
        let corrupt = |page: &Page| match page.rows().map(|rows| rows.count()) {
            Err(StorageError::CorruptPage { reason }) => reason,
            other => panic!("read {other:?}"),
        };
        // More slots than fit between the header and the page end.
        let mut bytes = *Page::new().as_bytes();
        set_u16(&mut bytes, 0, 2048);
        assert!(corrupt(&Page::from_bytes(bytes)).contains("slot directory"));

        // Every slot on one record of 8 000 fields: 16 M offsets to keep.
        let mut p = Page::new();
        p.insert(&nulls(8000)).unwrap().unwrap();
        let mut bytes = *p.as_bytes();
        let n_slots = 40;
        set_u16(&mut bytes, 0, n_slots);
        for slot in 1..n_slots {
            let (from, to) = (p.slot_dir_off(0), p.slot_dir_off(slot));
            bytes.copy_within(from..from + SLOT_SIZE, to);
        }
        let p = Page::from_bytes(bytes);
        assert_eq!(p.records().count(), usize::from(n_slots));
        assert_eq!(corrupt(&p), "records overlap");
        assert_eq!(p.row(0).err(), p.rows().err(), "the same error again");
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
        set_u16(&mut Arc::make_mut(&mut p.image).bytes, dir + 2, 0);
        let live: Vec<u16> = p.records().map(|r| r.unwrap().0).collect();
        assert_eq!(live, vec![0, 2]);
        // Point slot 2 past the end of the page.
        let dir = p.slot_dir_off(2);
        set_u16(
            &mut Arc::make_mut(&mut p.image).bytes,
            dir,
            (PAGE_SIZE - 4) as u16,
        );
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
