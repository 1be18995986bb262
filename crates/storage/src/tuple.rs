//! Tuple serialization.
//!
//! Tuples are stored in pages as a compact tagged byte format:
//! a `u16` field count, then per field a 1-byte type tag followed by the
//! payload (fixed-width for numerics, length-prefixed for strings).
//!
//! [`TupleView`] is the one reader of that format: [`TupleView::parse`]
//! walks a record once, checking every tag, length and string body, and a
//! view then reads columns in place from the field offsets that walk found.
//! The offsets outlive the walk wherever the record does — a page image
//! keeps them beside its bytes ([`crate::Page::rows`]), a [`RowBuf`] beside
//! its arena — so a record is checked once, not once per reader.
//! [`Tuple::decode`] is the walk followed by [`Row::to_tuple`].
//!
//! [`RowBuf`] is how rows are *kept* without being decoded: one arena of
//! record encodings plus each field's offset, written by `memcpy` from a
//! checked view or field by field from any other [`Row`], and read back as
//! views.

use crate::{Datum, DatumRef, StorageError};
use bytes::Bytes;

/// Anything an expression can read columns from: an owned [`Tuple`], a
/// [`TupleView`] over page or [`RowBuf`] bytes, a pair of rows seen as their
/// concatenation ([`Joined`]), or whatever an operator computes per column.
pub trait Row {
    /// Number of columns.
    fn arity(&self) -> usize;

    /// The value of column `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range, as [`Tuple::get`] does.
    fn col(&self, idx: usize) -> DatumRef<'_>;

    /// Copies the row out as an owned tuple.
    fn to_tuple(&self) -> Tuple {
        Tuple::new((0..self.arity()).map(|i| self.col(i).to_datum()).collect())
    }

    /// Appends every column, in order, to a record being written into a
    /// [`RowBuf`]. A row that already is checked record bytes copies them.
    fn write_fields(&self, record: &mut RecordWriter<'_>) {
        for i in 0..self.arity() {
            record.push(self.col(i));
        }
    }
}

/// A row: an ordered list of datums, serializable to page bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Datum>,
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;
const TAG_BOOL_FALSE: u8 = 5;
const TAG_BOOL_TRUE: u8 = 6;

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Datum>) -> Tuple {
        Tuple { values }
    }

    /// The values in column order.
    pub fn values(&self) -> &[Datum] {
        &self.values
    }

    /// The value of column `idx`.
    pub fn get(&self, idx: usize) -> &Datum {
        &self.values[idx]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Datum> {
        self.values
    }

    /// Serializes the tuple to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&(self.values.len() as u16).to_be_bytes());
        for v in &self.values {
            DatumRef::of(v).encode_into(&mut buf);
        }
        Bytes::from(buf)
    }

    /// Exact size of [`Tuple::encode`]'s output, in bytes.
    pub fn encoded_len(&self) -> usize {
        2 + self
            .values
            .iter()
            .map(|v| match v {
                Datum::Null | Datum::Bool(_) => 1,
                Datum::Int(_) | Datum::Float(_) => 9,
                Datum::Date(_) => 5,
                Datum::Str(s) => 5 + s.len(),
            })
            .sum::<usize>()
    }

    /// Deserializes a tuple from bytes produced by [`Tuple::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Tuple, StorageError> {
        // The offsets in one allocation rather than three doublings (a field
        // takes at least a byte, so a lying count cannot ask for much).
        let count = array_at(bytes, 0).map_or(0, u16::from_be_bytes);
        let mut fields = Vec::with_capacity(usize::from(count).min(bytes.len()));
        Ok(TupleView::parse(bytes, &mut fields)?.to_tuple())
    }
}

impl Row for Tuple {
    fn arity(&self) -> usize {
        self.values.len()
    }

    fn col(&self, idx: usize) -> DatumRef<'_> {
        DatumRef::of(&self.values[idx])
    }

    fn to_tuple(&self) -> Tuple {
        self.clone()
    }
}

impl DatumRef<'_> {
    /// Appends this value's field encoding (tag, then payload) to `buf`.
    /// Two values encode to the same bytes exactly when they are the same
    /// kind with the same bits, which is what makes the encoding usable as
    /// a grouping key.
    pub fn encode_into(self, buf: &mut Vec<u8>) {
        match self {
            DatumRef::Null => buf.push(TAG_NULL),
            DatumRef::Int(x) => {
                buf.push(TAG_INT);
                buf.extend_from_slice(&x.to_be_bytes());
            }
            DatumRef::Float(x) => {
                buf.push(TAG_FLOAT);
                buf.extend_from_slice(&x.to_be_bytes());
            }
            DatumRef::Str(s) => {
                buf.push(TAG_STR);
                buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            DatumRef::Date(d) => {
                buf.push(TAG_DATE);
                buf.extend_from_slice(&d.to_be_bytes());
            }
            DatumRef::Bool(false) => buf.push(TAG_BOOL_FALSE),
            DatumRef::Bool(true) => buf.push(TAG_BOOL_TRUE),
        }
    }
}

/// A checked, undecoded record: the bytes of one encoded tuple plus the
/// offset of each field's tag, found by walking the record once.
///
/// The offsets live with whatever keeps the record — the page image it
/// lies on, a [`RowBuf`], or a buffer the caller of [`TupleView::parse`]
/// owns — so looking at a row allocates nothing; a column is decoded only
/// when asked for, and a string column is a `&str` into the record itself.
///
/// `O` is how wide the offsets are kept: `u32` where a record can be any
/// length, `u16` beside an 8 KiB page image.
#[derive(Debug, Clone, Copy)]
pub struct TupleView<'a, O = u32> {
    /// The record, cut off where its last field ends.
    bytes: &'a [u8],
    /// Offset in `bytes` of each field's tag byte.
    fields: &'a [O],
}

/// The `N` bytes at `bytes[at..]`, or `None` if the record ends first.
fn array_at<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..)?.get(..N)?.try_into().ok()
}

impl<'a> TupleView<'a> {
    /// Walks one record produced by [`Tuple::encode`], checking the field
    /// count, every tag, every payload length and every string body, and
    /// recording where each field starts in `fields` (cleared first).
    /// Bytes after the last field are ignored.
    pub fn parse(bytes: &'a [u8], fields: &'a mut Vec<u32>) -> Result<TupleView<'a>, StorageError> {
        let corrupt = |reason: &str| StorageError::CorruptTuple {
            reason: reason.to_string(),
        };
        let n = array_at(bytes, 0).ok_or_else(|| corrupt("missing field count"))?;
        fields.clear();
        let mut at = 2;
        for _ in 0..u16::from_be_bytes(n) {
            let tag = *bytes.get(at).ok_or_else(|| corrupt("missing field tag"))?;
            // Truncating only past 4 GiB, which is refused below.
            fields.push(at as u32);
            at += 1;
            let payload = bytes.len() - at;
            at += match tag {
                TAG_NULL | TAG_BOOL_FALSE | TAG_BOOL_TRUE => 0,
                TAG_INT if payload < 8 => return Err(corrupt("truncated int")),
                TAG_FLOAT if payload < 8 => return Err(corrupt("truncated float")),
                TAG_INT | TAG_FLOAT => 8,
                TAG_DATE if payload < 4 => return Err(corrupt("truncated date")),
                TAG_DATE => 4,
                TAG_STR => {
                    let len =
                        array_at(bytes, at).ok_or_else(|| corrupt("truncated string length"))?;
                    let len = u32::from_be_bytes(len) as usize;
                    let body = bytes[at + 4..]
                        .get(..len)
                        .ok_or_else(|| corrupt("truncated string body"))?;
                    std::str::from_utf8(body).map_err(|_| corrupt("invalid utf-8"))?;
                    4 + len
                }
                other => {
                    return Err(StorageError::CorruptTuple {
                        reason: format!("unknown tag {other}"),
                    })
                }
            };
        }
        if at > u32::MAX as usize {
            return Err(corrupt("record longer than 4 GiB"));
        }
        // Every step above stayed inside `bytes`, so this is `&bytes[..at]`
        // — written without its panic branch, which costs this function (the
        // hottest of every scan) 15 % per record in the shape it compiles to.
        Ok(TupleView {
            bytes: bytes.get(..at).unwrap_or(bytes),
            fields,
        })
    }
}

impl<'a, O: Copy + Into<u32>> TupleView<'a, O> {
    /// Where field `idx` starts in the record.
    fn at(&self, idx: usize) -> usize {
        self.fields[idx].into() as usize
    }

    /// A view of a record some [`TupleView::parse`] accepted, from the
    /// offsets that walk found: `bytes` is the record up to where its last
    /// field ends, `fields` where in it each field's tag is.
    pub(crate) fn checked(bytes: &'a [u8], fields: &'a [O]) -> TupleView<'a, O> {
        TupleView { bytes, fields }
    }

    /// The value of column `idx`, borrowed from the record rather than from
    /// this view (which is `Copy` and usually a temporary).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> DatumRef<'a> {
        // `parse` checked every length and string body read below.
        const CHECKED: &str = "parse checked this payload";
        let tag = self.at(idx);
        let payload = tag + 1;
        match self.bytes[tag] {
            TAG_NULL => DatumRef::Null,
            TAG_INT => DatumRef::Int(i64::from_be_bytes(
                array_at(self.bytes, payload).expect(CHECKED),
            )),
            TAG_FLOAT => DatumRef::Float(f64::from_be_bytes(
                array_at(self.bytes, payload).expect(CHECKED),
            )),
            TAG_STR => {
                let len = u32::from_be_bytes(array_at(self.bytes, payload).expect(CHECKED));
                let body = &self.bytes[payload + 4..][..len as usize];
                DatumRef::Str(std::str::from_utf8(body).expect(CHECKED))
            }
            TAG_DATE => DatumRef::Date(i32::from_be_bytes(
                array_at(self.bytes, payload).expect(CHECKED),
            )),
            TAG_BOOL_FALSE => DatumRef::Bool(false),
            TAG_BOOL_TRUE => DatumRef::Bool(true),
            tag => unreachable!("parse rejects tag {tag}"),
        }
    }

    /// The record itself: what [`Tuple::encode`] writes for this row, without
    /// whatever followed it where it was parsed.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The field encoding of column `idx` — tag, then payload — exactly as
    /// [`DatumRef::encode_into`] writes it: equal bytes, equal kind and bits.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn field_bytes(&self, idx: usize) -> &'a [u8] {
        let next = self.fields.get(idx + 1);
        let end = next.map_or(self.bytes.len(), |&field| field.into() as usize);
        &self.bytes[self.at(idx)..end]
    }

    /// True if column `idx` is NULL (its tag says so; nothing is decoded).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn is_null(&self, idx: usize) -> bool {
        self.bytes[self.at(idx)] == TAG_NULL
    }
}

impl<O: Copy + Into<u32>> Row for TupleView<'_, O> {
    fn arity(&self) -> usize {
        self.fields.len()
    }

    fn col(&self, idx: usize) -> DatumRef<'_> {
        self.get(idx)
    }

    fn write_fields(&self, record: &mut RecordWriter<'_>) {
        record.copy_checked(self);
    }
}

/// Two rows seen as their concatenation: what a join hands its consumer
/// instead of building the joined tuple.
pub struct Joined<'a> {
    /// The columns that come first.
    pub left: &'a dyn Row,
    /// The columns after them.
    pub right: &'a dyn Row,
}

impl Row for Joined<'_> {
    fn arity(&self) -> usize {
        self.left.arity() + self.right.arity()
    }

    fn col(&self, idx: usize) -> DatumRef<'_> {
        match idx.checked_sub(self.left.arity()) {
            None => self.left.col(idx),
            Some(right_idx) => self.right.col(right_idx),
        }
    }

    fn write_fields(&self, record: &mut RecordWriter<'_>) {
        self.left.write_fields(record);
        self.right.write_fields(record);
    }
}

/// Rows kept encoded: one arena holding each row's record exactly as
/// [`Tuple::encode`] would write it, plus the offset of every field, so a
/// kept row is read back as a [`TupleView`] without being checked again.
///
/// Offsets are `u32`s, which bounds the arena at 4 GiB.
#[derive(Debug, Default)]
pub struct RowBuf {
    bytes: Vec<u8>,
    /// Offset from its record's first byte of each field's tag, row after
    /// row.
    fields: Vec<u32>,
    /// Per row, where its record ends in `bytes` and its offsets in `fields`
    /// (and so where the next row's start).
    ends: Vec<(u32, u32)>,
}

/// A length or offset inside a [`RowBuf`].
fn compact(n: usize) -> u32 {
    u32::try_from(n).expect("a row buffer holds at most 4 GiB")
}

impl RowBuf {
    /// An empty buffer.
    pub fn new() -> RowBuf {
        RowBuf::default()
    }

    /// Number of rows kept.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no row is kept.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total size of the kept records: the sum of [`Tuple::encoded_len`]
    /// over the rows pushed.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Keeps a copy of `row`.
    ///
    /// # Panics
    /// Panics if the row has more than `u16::MAX` columns or the buffer
    /// would pass 4 GiB.
    pub fn push(&mut self, row: &dyn Row) {
        let start = self.bytes.len();
        let arity = u16::try_from(row.arity()).expect("a record holds at most 65 535 fields");
        self.bytes.extend_from_slice(&arity.to_be_bytes());
        row.write_fields(&mut RecordWriter { buf: self, start });
        self.ends
            .push((compact(self.bytes.len()), compact(self.fields.len())));
    }

    /// Row `idx`, in push order.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> TupleView<'_> {
        let (start, first) = idx.checked_sub(1).map_or((0, 0), |prev| self.ends[prev]);
        let (end, last) = self.ends[idx];
        TupleView {
            bytes: &self.bytes[start as usize..end as usize],
            fields: &self.fields[first as usize..last as usize],
        }
    }

    /// The kept rows in push order.
    pub fn iter(&self) -> impl Iterator<Item = TupleView<'_>> {
        (0..self.len()).map(|idx| self.get(idx))
    }
}

/// The record a [`RowBuf::push`] is writing; [`Row::write_fields`] appends
/// the row's columns to it.
pub struct RecordWriter<'b> {
    buf: &'b mut RowBuf,
    /// Where the record starts in the arena.
    start: usize,
}

impl RecordWriter<'_> {
    /// Appends one column.
    pub fn push(&mut self, value: DatumRef<'_>) {
        let at = self.buf.bytes.len() - self.start;
        self.buf.fields.push(compact(at));
        value.encode_into(&mut self.buf.bytes);
    }

    /// Appends every column of a checked record by copying its bytes.
    fn copy_checked<O: Copy + Into<u32>>(&mut self, view: &TupleView<'_, O>) {
        // The view's first field sits 2 bytes into its own record.
        let shift = compact(self.buf.bytes.len() - self.start) - 2;
        let shifted = view.fields.iter().map(|&f| f.into() + shift);
        self.buf.fields.extend(shifted);
        self.buf.bytes.extend_from_slice(&view.bytes[2..]);
    }
}

impl From<Vec<Datum>> for Tuple {
    fn from(values: Vec<Datum>) -> Tuple {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::new(vec![
            Datum::Int(-42),
            Datum::Float(3.25),
            Datum::str("hello, wörld"),
            Datum::Date(20000),
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Null,
        ])
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_len());
        let back = Tuple::decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::new(vec![]);
        assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = sample().encode();
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(
                Tuple::decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let bytes = [0u8, 1, 99];
        assert!(matches!(
            Tuple::decode(&bytes),
            Err(StorageError::CorruptTuple { .. })
        ));
    }

    proptest::proptest! {
        #[test]
        fn prop_roundtrip(ints in proptest::collection::vec(-1_000_000i64..1_000_000, 0..8),
                          s in "[a-zA-Z0-9 ]{0,40}") {
            let mut values: Vec<Datum> = ints.into_iter().map(Datum::Int).collect();
            values.push(Datum::str(s));
            values.push(Datum::Null);
            let t = Tuple::new(values);
            let bytes = t.encode();
            proptest::prop_assert_eq!(bytes.len(), t.encoded_len());
            proptest::prop_assert_eq!(Tuple::decode(&bytes).unwrap(), t);
        }
    }
}
