//! Order-preserving (memcomparable) encoding of composite index keys.
//!
//! Multi-column B+tree indexes store their keys as a single
//! [`Datum::Str`] whose *byte-wise* order equals the column-wise
//! `(total_cmp, total_cmp, ...)` order of the original tuples. Encoding a
//! key prefix therefore yields a contiguous key range: every composite
//! key starting with that prefix sorts inside
//! `[encode(prefix), encode(prefix) ++ 0xFF)`, which is what lets the
//! planner turn `a = x AND b BETWEEN lo AND hi` into one index range.
//!
//! Each raw byte `b` of the encoding is mapped to the Unicode code point
//! `U+00b` before storage. UTF-8 preserves code-point order, and Rust's
//! `String` ordering is byte-wise over UTF-8, so the stored strings
//! compare exactly like the raw byte sequences while remaining valid
//! UTF-8 (a [`Datum::Str`] requirement).
//!
//! Per-column layout (a tag byte keeps NULLs first and types apart):
//!
//! | value        | bytes                                         |
//! |--------------|-----------------------------------------------|
//! | NULL         | `0x00`                                        |
//! | Bool(b)      | `0x01`, `b`                                   |
//! | Int(i)       | `0x02`, 8 bytes BE of `i ^ i64::MIN`          |
//! | Float(f)     | `0x03`, 8 bytes BE of order-normalized bits   |
//! | Date(d)      | `0x04`, 4 bytes BE of `d ^ i32::MIN`          |
//! | Str(s)       | `0x05`, bytes with `00 → 00 FF`, then `00 00` |
//!
//! Fixed-width payloads need no terminator; the string escape/terminator
//! guarantees no full column encoding is a strict byte-prefix of
//! another, so the sentinel byte `0xFF` appended at a *column boundary*
//! sorts above every continuation (all tags are `< 0xFF`).

use crate::Datum;

/// The byte appended at a column boundary to form an exclusive upper
/// bound covering every continuation of a key prefix.
pub(crate) const KEY_SENTINEL: u8 = 0xFF;

fn push_bytes(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(0x00),
        Datum::Bool(b) => {
            out.push(0x01);
            out.push(*b as u8);
        }
        Datum::Int(i) => {
            out.push(0x02);
            out.extend_from_slice(&((*i ^ i64::MIN) as u64).to_be_bytes());
        }
        Datum::Float(f) => {
            out.push(0x03);
            // Standard order-preserving float bits: flip everything for
            // negatives, flip only the sign bit for non-negatives.
            let bits = f.to_bits();
            let norm = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend_from_slice(&norm.to_be_bytes());
        }
        Datum::Date(d) => {
            out.push(0x04);
            out.extend_from_slice(&((*d ^ i32::MIN) as u32).to_be_bytes());
        }
        Datum::Str(s) => {
            out.push(0x05);
            for &b in s.as_bytes() {
                if b == 0x00 {
                    out.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    out.push(b);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

/// Maps raw bytes to the order-preserving UTF-8 carrier string.
fn carrier(bytes: &[u8]) -> String {
    bytes.iter().map(|&b| b as char).collect()
}

/// Encodes a full composite key (or key prefix) into its carrier datum.
pub fn encode_key(values: &[Datum]) -> Datum {
    let mut bytes = Vec::with_capacity(values.len() * 10);
    for v in values {
        push_bytes(&mut bytes, v);
    }
    Datum::Str(carrier(&bytes))
}

/// Encodes a key prefix and appends the column-boundary sentinel: the
/// result is an *exclusive* upper bound for every key extending the
/// prefix (and an *inclusive* lower bound for everything strictly above
/// the prefix's key range).
pub fn encode_prefix_upper(values: &[Datum]) -> Datum {
    let mut bytes = Vec::with_capacity(values.len() * 10 + 1);
    for v in values {
        push_bytes(&mut bytes, v);
    }
    bytes.push(KEY_SENTINEL);
    Datum::Str(carrier(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn enc_str(values: &[Datum]) -> String {
        match encode_key(values) {
            Datum::Str(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_column_order_matches_total_cmp() {
        let values = vec![
            Datum::Null,
            Datum::Bool(false),
            Datum::Bool(true),
            Datum::Int(i64::MIN),
            Datum::Int(-5),
            Datum::Int(0),
            Datum::Int(7),
            Datum::Int(i64::MAX),
            Datum::Date(i32::MIN),
            Datum::Date(-1),
            Datum::Date(20000),
            Datum::str(""),
            Datum::str("a"),
            Datum::str("a\u{0}b"),
            Datum::str("ab"),
            Datum::str("b"),
        ];
        for a in &values {
            for b in &values {
                let raw = a.total_cmp(b);
                // Cross-type ranks differ between the tag bytes and
                // total_cmp only for Int-vs-Float mixes, which this
                // fixture avoids; within each comparable group the
                // encoded order must match exactly.
                if a.data_type() == b.data_type() || a.is_null() || b.is_null() {
                    let enc =
                        enc_str(std::slice::from_ref(a)).cmp(&enc_str(std::slice::from_ref(b)));
                    assert_eq!(enc, raw, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn float_order_covers_signs() {
        let floats = [-1e300, -2.5, -0.0, 0.0, 1e-9, 2.5, 1e300];
        for w in floats.windows(2) {
            let a = enc_str(&[Datum::Float(w[0])]);
            let b = enc_str(&[Datum::Float(w[1])]);
            assert_ne!(w[0].total_cmp(&w[1]), Ordering::Greater);
            assert!(a <= b, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn composite_order_is_lexicographic() {
        let a = enc_str(&[Datum::Int(1), Datum::str("z")]);
        let b = enc_str(&[Datum::Int(2), Datum::str("a")]);
        assert!(a < b, "first column dominates");
        let c = enc_str(&[Datum::Int(2), Datum::str("b")]);
        assert!(b < c, "second column breaks ties");
    }

    #[test]
    fn prefix_upper_bound_covers_all_continuations() {
        let prefix = [Datum::Int(42)];
        let lo = enc_str(&prefix);
        let hi = match encode_prefix_upper(&prefix) {
            Datum::Str(s) => s,
            _ => unreachable!(),
        };
        for second in [
            Datum::Null,
            Datum::Int(i64::MIN),
            Datum::Int(i64::MAX),
            Datum::str(""),
            Datum::str("zzzz"),
            Datum::Float(1e308),
        ] {
            let key = enc_str(&[Datum::Int(42), second.clone()]);
            assert!(lo <= key && key < hi, "{second:?} escaped the prefix range");
        }
        // Neighboring first-column values fall outside.
        assert!(enc_str(&[Datum::Int(41), Datum::str("zz")]) < lo);
        assert!(enc_str(&[Datum::Int(43), Datum::Null]) >= hi);
    }

    #[test]
    fn string_prefixes_do_not_alias() {
        // "ab" < "ab\0" < "abc" and none is a byte-prefix of another
        // once encoded (the terminator sees to it).
        let a = enc_str(&[Datum::str("ab")]);
        let b = enc_str(&[Datum::str("ab\u{0}")]);
        let c = enc_str(&[Datum::str("abc")]);
        assert!(a < b && b < c);
        assert!(!b.starts_with(&a) || a == b);
    }
}
