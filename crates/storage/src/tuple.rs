//! Tuple serialization.
//!
//! Tuples are stored in pages as a compact tagged byte format:
//! a `u16` field count, then per field a 1-byte type tag followed by the
//! payload (fixed-width for numerics, length-prefixed for strings).
//!
//! [`TupleView`] is the one reader of that format: it walks a record once,
//! checking every tag, length and string body, and then reads columns in
//! place. [`Tuple::decode`] is that walk followed by [`Row::to_tuple`].

use crate::{Datum, DatumRef, StorageError};
use bytes::Bytes;

/// Anything an expression can read columns from: an owned [`Tuple`], a
/// [`TupleView`] over page bytes, or a pair of rows seen as their
/// concatenation.
pub trait Row {
    /// The value of column `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range, as [`Tuple::get`] does.
    fn col(&self, idx: usize) -> DatumRef<'_>;

    /// Copies the row out as an owned tuple.
    fn to_tuple(&self) -> Tuple;
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

    /// Concatenates two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }

    /// Projects the tuple onto the given column indexes.
    pub fn project(&self, indexes: &[usize]) -> Tuple {
        Tuple {
            values: indexes.iter().map(|&i| self.values[i].clone()).collect(),
        }
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
        Ok(TupleView::parse(bytes, &mut Vec::new())?.to_tuple())
    }
}

impl Row for Tuple {
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
/// The offsets live in a buffer the caller owns and reuses from record to
/// record, so looking at a row allocates nothing; a column is decoded only
/// when [`Row::col`] asks for it, and a string column is a `&str`
/// into the record itself.
#[derive(Debug, Clone, Copy)]
pub struct TupleView<'a> {
    bytes: &'a [u8],
    /// Offset in `bytes` of each field's tag byte.
    fields: &'a [usize],
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
    pub fn parse(
        bytes: &'a [u8],
        fields: &'a mut Vec<usize>,
    ) -> Result<TupleView<'a>, StorageError> {
        let corrupt = |reason: &str| StorageError::CorruptTuple {
            reason: reason.to_string(),
        };
        let n = array_at(bytes, 0).ok_or_else(|| corrupt("missing field count"))?;
        fields.clear();
        let mut at = 2;
        for _ in 0..u16::from_be_bytes(n) {
            let tag = *bytes.get(at).ok_or_else(|| corrupt("missing field tag"))?;
            fields.push(at);
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
        Ok(TupleView { bytes, fields })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }
}

impl Row for TupleView<'_> {
    fn col(&self, idx: usize) -> DatumRef<'_> {
        // `parse` checked every length and string body read below.
        const CHECKED: &str = "parse checked this payload";
        let tag = self.fields[idx];
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

    fn to_tuple(&self) -> Tuple {
        Tuple {
            values: (0..self.arity()).map(|i| self.col(i).to_datum()).collect(),
        }
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

    #[test]
    fn concat_and_project() {
        let a = Tuple::new(vec![Datum::Int(1), Datum::str("x")]);
        let b = Tuple::new(vec![Datum::Bool(true)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        let p = c.project(&[2, 0]);
        assert_eq!(p.values(), &[Datum::Bool(true), Datum::Int(1)]);
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
