//! `TupleView` against the decoder it replaced.
//!
//! `reference_decode` below is the record-format reader as it stood before
//! `Tuple::decode` was rebuilt on `TupleView::parse`, kept here — and only
//! here — as the oracle: on every input, valid or mangled, the view must
//! accept exactly what it accepted, fail with exactly its reason, and yield
//! exactly its values.
//!
//! `RowBuf`, which keeps checked records and reads them back as views, is
//! held to the same encoding: whatever kind of row is pushed, what it keeps
//! is `to_tuple().encode()`.

use bytes::Buf;
use dbvirt_storage::{Datum, DatumRef, Joined, Row, RowBuf, StorageError, Tuple, TupleView};
use proptest::prelude::*;
use proptest::TestRng;

fn reference_decode(mut bytes: &[u8]) -> Result<Tuple, StorageError> {
    let corrupt = |reason: &str| StorageError::CorruptTuple {
        reason: reason.to_string(),
    };
    if bytes.remaining() < 2 {
        return Err(corrupt("missing field count"));
    }
    let n = bytes.get_u16() as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        if bytes.remaining() < 1 {
            return Err(corrupt("missing field tag"));
        }
        let tag = bytes.get_u8();
        let datum = match tag {
            0 => Datum::Null,
            1 => {
                if bytes.remaining() < 8 {
                    return Err(corrupt("truncated int"));
                }
                Datum::Int(bytes.get_i64())
            }
            2 => {
                if bytes.remaining() < 8 {
                    return Err(corrupt("truncated float"));
                }
                Datum::Float(bytes.get_f64())
            }
            3 => {
                if bytes.remaining() < 4 {
                    return Err(corrupt("truncated string length"));
                }
                let len = bytes.get_u32() as usize;
                if bytes.remaining() < len {
                    return Err(corrupt("truncated string body"));
                }
                let s = std::str::from_utf8(&bytes[..len])
                    .map_err(|_| corrupt("invalid utf-8"))?
                    .to_string();
                bytes.advance(len);
                Datum::Str(s)
            }
            4 => {
                if bytes.remaining() < 4 {
                    return Err(corrupt("truncated date"));
                }
                Datum::Date(bytes.get_i32())
            }
            5 => Datum::Bool(false),
            6 => Datum::Bool(true),
            other => {
                return Err(StorageError::CorruptTuple {
                    reason: format!("unknown tag {other}"),
                })
            }
        };
        values.push(datum);
    }
    Ok(Tuple::new(values))
}

/// Tuples over all six datum kinds, weighted towards the edges of each.
struct ArbTuple;

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

fn arb_datum(rng: &mut TestRng) -> Datum {
    const STRINGS: [&str; 7] = ["", "a", "hello, wörld", "日本語", "x%_y", "🦀", "BUILDING"];
    match rng.next_u64() % 6 {
        0 => Datum::Null,
        1 => {
            let any = rng.next_u64() as i64;
            Datum::Int(pick(rng, &[i64::MIN, -1, 0, 1, i64::MAX, any]))
        }
        2 => Datum::Float(pick(
            rng,
            &[
                0.0,
                -0.0,
                1.5,
                f64::MIN,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::INFINITY,
            ],
        )),
        3 => Datum::str(pick(rng, &STRINGS)),
        4 => Datum::Date(pick(rng, &[i32::MIN, 0, 19_000, i32::MAX])),
        _ => Datum::Bool(rng.next_u64().is_multiple_of(2)),
    }
}

impl Strategy for ArbTuple {
    type Value = Tuple;
    fn sample(&self, rng: &mut TestRng) -> Tuple {
        let arity = rng.next_u64() % 9;
        Tuple::new((0..arity).map(|_| arb_datum(rng)).collect())
    }
}

/// A decode result made comparable bit for bit (a mangled record can decode
/// to a NaN, which `Tuple`'s `==` would call unequal to itself).
fn outcome(decoded: Result<Tuple, StorageError>) -> Result<Vec<u8>, StorageError> {
    decoded.map(|t| t.encode().to_vec())
}

fn via_view(bytes: &[u8]) -> Result<Tuple, StorageError> {
    TupleView::parse(bytes, &mut Vec::new()).map(|view| view.to_tuple())
}

/// Offset of every field's tag byte in `t.encode()`.
fn tag_offsets(t: &Tuple) -> Vec<usize> {
    let mut at = 2;
    t.values()
        .iter()
        .map(|v| {
            let tag = at;
            at += Tuple::new(vec![v.clone()]).encoded_len() - 2;
            tag
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn view_reads_back_what_was_encoded(t in ArbTuple) {
        let bytes = t.encode();
        let mut fields = vec![99; 3]; // stale offsets from an earlier record
        let view = TupleView::parse(&bytes, &mut fields).unwrap();
        prop_assert_eq!(view.arity(), t.arity());
        for i in 0..t.arity() {
            prop_assert_eq!(view.col(i), DatumRef::of(t.get(i)));
            prop_assert_eq!(view.col(i), t.col(i));
            if let (DatumRef::Float(a), Datum::Float(b)) = (view.col(i), t.get(i)) {
                prop_assert_eq!(a.to_bits(), b.to_bits()); // -0.0 stays -0.0
            }
        }
        prop_assert_eq!(&view.to_tuple(), &t);
        prop_assert_eq!(&Tuple::decode(&bytes).unwrap(), &t);
    }

    #[test]
    fn every_prefix_fails_or_succeeds_as_the_old_decoder_did(t in ArbTuple) {
        let bytes = t.encode();
        for cut in 0..=bytes.len() {
            let expect = outcome(reference_decode(&bytes[..cut]));
            prop_assert_eq!(&outcome(via_view(&bytes[..cut])), &expect);
            prop_assert_eq!(&outcome(Tuple::decode(&bytes[..cut])), &expect);
        }
    }

    #[test]
    fn every_flipped_tag_fails_or_succeeds_as_the_old_decoder_did(t in ArbTuple) {
        let bytes = t.encode().to_vec();
        for at in tag_offsets(&t) {
            for tag in (0..=8).chain([255]) {
                let mut mangled = bytes.clone();
                mangled[at] = tag;
                let expect = outcome(reference_decode(&mangled));
                prop_assert_eq!(&outcome(via_view(&mangled)), &expect);
            }
        }
    }

    #[test]
    fn invalid_utf8_is_rejected_with_the_old_reason(t in ArbTuple, filler in "[a-z]{1,12}") {
        let mut values = t.into_values();
        values.push(Datum::str(filler));
        let t = Tuple::new(values);
        let mut bytes = t.encode().to_vec();
        let body = tag_offsets(&t).pop().unwrap() + 5;
        bytes[body] = 0xFF;
        let expect = reference_decode(&bytes);
        prop_assert_eq!(
            &expect,
            &Err(StorageError::CorruptTuple { reason: "invalid utf-8".to_string() })
        );
        prop_assert_eq!(&via_view(&bytes), &expect);
    }

    /// Each tuple goes in three ways — as itself (field by field), as a view
    /// of its record with bytes trailing the last field (copied, but only
    /// the checked extent), and as the left and right halves of a pair.
    #[test]
    fn row_buf_keeps_the_encoding_of_whatever_row_is_pushed(
        tuples in prop::collection::vec(ArbTuple, 0..10),
        trailing in prop::collection::vec(0u8..=255, 0..5),
    ) {
        let mut kept = RowBuf::new();
        let mut expect = Vec::new();
        let mut fields = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            let mut record = t.encode().to_vec();
            record.extend_from_slice(&trailing);
            let view = TupleView::parse(&record, &mut fields).unwrap();
            let other = &tuples[(i + 1) % tuples.len()];
            let pair = Joined { left: &view, right: other };
            kept.push(t);
            kept.push(&view);
            kept.push(&pair);
            kept.push(&Joined { left: &pair, right: &view });
            let paired = Tuple::new([t.values(), other.values()].concat());
            let nested = Tuple::new([paired.values(), t.values()].concat());
            expect.extend([t.clone(), t.clone(), paired, nested]);
        }

        prop_assert_eq!(kept.len(), expect.len());
        prop_assert_eq!(kept.is_empty(), tuples.is_empty());
        let total: usize = expect.iter().map(Tuple::encoded_len).sum();
        prop_assert_eq!(kept.encoded_bytes(), total);
        for (i, (row, t)) in kept.iter().zip(&expect).enumerate() {
            // Bit for bit: `Tuple`'s `==` would call a NaN unequal to itself.
            prop_assert_eq!(row.as_bytes(), &t.encode()[..]);
            prop_assert_eq!(row.to_tuple().encode(), t.encode());
            prop_assert_eq!(kept.get(i).arity(), t.arity());
            for c in 0..t.arity() {
                let mut field = Vec::new();
                t.col(c).encode_into(&mut field);
                prop_assert_eq!(row.field_bytes(c), field.as_slice());
                prop_assert_eq!(row.is_null(c), t.get(c).is_null());
            }
            // A kept row pushed again is still the same record.
            let mut again = RowBuf::new();
            again.push(&row);
            prop_assert_eq!(again.encoded_bytes(), t.encoded_len());
            prop_assert_eq!(again.get(0).to_tuple().encode(), t.encode());
        }
    }
}
