//! `Page::rows` / `Page::row` against the walk they remember.
//!
//! The oracle is what every reader did per scan before an image kept its
//! checked layout: `Page::records` in slot order, `TupleView::parse` on each.
//! On any image — loaded through `insert`, then mangled the ways a device
//! could mangle it — the layout must hand out the same views in the same
//! order, or fail with the first error that walk meets, and go on doing so:
//! the second call answers as the first did, and by-slot reads agree with
//! the scan.

use dbvirt_storage::{Datum, Page, Row, StorageError, Tuple, TupleView, PAGE_SIZE};
use proptest::prelude::*;
use proptest::TestRng;

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn arb_tuple(rng: &mut TestRng) -> Tuple {
    const STRINGS: [&str; 5] = ["", "a", "hello, wörld", "日本語", "BUILDING"];
    let arity = below(rng, 7);
    let values = (0..arity).map(|_| match below(rng, 6) {
        0 => Datum::Null,
        1 => Datum::Int(rng.next_u64() as i64),
        2 => Datum::Float(f64::from_bits(rng.next_u64())),
        3 => Datum::str(STRINGS[below(rng, STRINGS.len())]),
        4 => Datum::Date(rng.next_u64() as i32),
        _ => Datum::Bool(rng.next_u64().is_multiple_of(2)),
    });
    Tuple::new(values.collect())
}

/// Where slot `slot`'s directory entry (offset, then length, little-endian
/// `u16`s) lies in an image.
fn entry_at(slot: usize) -> usize {
    PAGE_SIZE - 4 * (slot + 1)
}

fn read_u16(image: &[u8; PAGE_SIZE], at: usize) -> usize {
    usize::from(u16::from_le_bytes([image[at], image[at + 1]]))
}

fn write_u16(image: &mut [u8; PAGE_SIZE], at: usize, value: usize) {
    image[at..at + 2].copy_from_slice(&(value as u16).to_le_bytes());
}

/// A page of up to 24 valid records with up to four things done to its
/// image that `Page::insert` never does.
struct ArbImage;

impl Strategy for ArbImage {
    type Value = Page;
    fn sample(&self, rng: &mut TestRng) -> Page {
        let mut page = Page::new();
        let n_slots = below(rng, 25);
        for _ in 0..n_slots {
            page.insert(&arb_tuple(rng).encode()).unwrap().unwrap();
        }
        let mut image = *page.as_bytes();
        for _ in 0..below(rng, 5).min(n_slots) {
            let entry = entry_at(below(rng, n_slots));
            let (off, len) = (read_u16(&image, entry), read_u16(&image, entry + 2));
            match below(rng, 7) {
                // Deleted, between whatever slots are still live.
                0 => write_u16(&mut image, entry + 2, 0),
                // Pointing outside the page.
                1 => write_u16(&mut image, entry, PAGE_SIZE - below(rng, len.max(1))),
                // Cut short: a truncated int, date, string length or body,
                // a missing tag, a missing count.
                2 => write_u16(&mut image, entry + 2, 1 + below(rng, len.max(1))),
                // Running on into whatever follows, which is ignored.
                3 => write_u16(&mut image, entry + 2, len + below(rng, 9)),
                // Onto another slot's record.
                4 => {
                    let other = entry_at(below(rng, n_slots));
                    image.copy_within(other..other + 4, entry);
                }
                // One byte of the record anything at all: an unknown tag, a
                // lying count or length, a broken UTF-8 body, another value.
                _ => {
                    if let Some(byte) = image.get_mut(off + below(rng, len.max(1))) {
                        *byte = rng.next_u64() as u8;
                    }
                }
            }
        }
        Page::from_bytes(image)
    }
}

/// A row as bytes: its record, cut off where it ends, and each field's.
type Seen = (u16, Vec<u8>, Vec<Vec<u8>>);

fn seen<O: Copy + Into<u32>>(slot: u16, row: &TupleView<'_, O>) -> Seen {
    let fields = (0..row.arity()).map(|c| row.field_bytes(c).to_vec());
    (slot, row.as_bytes().to_vec(), fields.collect())
}

/// The walk a scan used to make: the rows in slot order, or the first
/// error met on the way.
fn walked(page: &Page) -> Result<Vec<Seen>, StorageError> {
    let mut fields = Vec::new();
    page.records()
        .map(|record| {
            let (slot, record) = record?;
            Ok(seen(slot, &TupleView::parse(record, &mut fields)?))
        })
        .collect()
}

fn remembered(page: &Page) -> Result<Vec<Seen>, StorageError> {
    Ok(page.rows()?.map(|(slot, row)| seen(slot, &row)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rows_are_the_walk_remembered(page in ArbImage) {
        let expect = walked(&page);
        prop_assert_eq!(&remembered(&page), &expect);
        prop_assert_eq!(&remembered(&page), &expect);
        // A clone made before or after the first read answers the same, and
        // so does an image that has the bytes but never shared the layout.
        prop_assert_eq!(&remembered(&page.clone()), &expect);
        prop_assert_eq!(&remembered(&Page::from_bytes(*page.as_bytes())), &expect);

        for slot in 0..page.slot_count() + 2 {
            let by_slot = page.row(slot).map(|row| row.map(|row| seen(slot, &row)));
            let in_scan = expect.as_ref().map(|rows| rows.iter().find(|row| row.0 == slot));
            prop_assert_eq!(by_slot.as_ref().map(Option::as_ref), in_scan);
        }
    }

    #[test]
    fn what_insert_wrote_reads_back(tuples in prop::collection::vec(0u64..u64::MAX, 0..40)) {
        let mut page = Page::new();
        let mut expect = Vec::new();
        for seed in tuples {
            let tuple = arb_tuple(&mut TestRng::deterministic(seed, 0));
            // Read between writes: each insert must forget the layout the
            // read before it left behind.
            prop_assert_eq!(page.rows().unwrap().count(), expect.len());
            if page.insert(&tuple.encode()).unwrap().is_some() {
                expect.push(tuple.encode().to_vec());
            }
        }
        let read: Vec<Vec<u8>> = page.rows().unwrap().map(|(_, r)| r.as_bytes().to_vec()).collect();
        prop_assert_eq!(read, expect);
    }
}
