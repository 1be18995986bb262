//! A minimal JSON value model, parser, and pretty printer.
//!
//! The build environment has no network access, so the grid cache cannot
//! use serde/serde_json; this module is the small, dependency-free subset
//! the calibration cache needs. Strings and numbers are written by
//! `dbvirt-telemetry`'s JSON writer, the one the trace exporters use.
//! Numbers round-trip exactly: floats are printed with Rust's
//! shortest-roundtrip formatting and parsed with the standard library's
//! `f64` parser; non-finite values, which JSON cannot hold, print as
//! `null`.

use dbvirt_telemetry::{write_json_num, write_json_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integral values print without `.0`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so output is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_json_num(out, *n),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_json_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or escape as one run: both
        // are ASCII, so the run ends on a character boundary, and only the
        // run is validated (not the rest of the document).
        let end = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |n| *pos + n);
        out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
        *pos = end;
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            // The closing quote.
            Some(_) => {
                *pos += 1;
                return Ok(out);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("grid \"x\"\n".to_string())),
            ("text", Json::Str("naïve ✓ \\ \t \u{1} é".to_string())),
            ("points", Json::Arr(vec![Json::Num(0.25), Json::Num(0.5)])),
            ("count", Json::Num(6.0)),
            ("unit", Json::Num(9.765625e-5)),
            (
                "nested",
                Json::obj([("ok", Json::Bool(true)), ("none", Json::Null)]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(Default::default())),
        ]);
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for v in [0.1, 1.0 / 3.0, 9.765625e-5, 1e300, -2.5e-9, 4.0] {
            let text = Json::Num(v).pretty();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), v.to_bits(), "{text}");
        }
    }

    /// The trace exporter and this serializer share one writer: a span's
    /// attributes — non-finite, integral and fractional numbers, strings
    /// with control characters — survive `Json::parse`, non-finite values
    /// read back as `null`, and every number is spelled exactly as
    /// `Json`'s own writer spells it.
    #[test]
    fn telemetry_exports_parse_and_spell_numbers_as_json_does() {
        let numbers: [(&'static str, f64); 9] = [
            ("nan", f64::NAN),
            ("inf", f64::INFINITY),
            ("neg_inf", f64::NEG_INFINITY),
            ("integral", 42.0),
            ("negative", -7.0),
            ("fraction", 0.1),
            ("tiny", 1e-7),
            ("wide", 2.5e15),
            ("huge", 1e300),
        ];
        let text = "quote \" backslash \\ tab \t nl \n cr \r bell \u{7} nul \u{0}";
        let reg = dbvirt_telemetry::Registry::new_enabled();
        {
            let mut span = reg.span("json.attrs");
            for (key, v) in numbers {
                span.set_attr(key, v);
            }
            span.set_attr("text", text);
        }
        let dump = reg.snapshot().to_json();
        let doc = Json::parse(&dump).expect("the export parses");
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        let attrs = spans[0].get("attrs").unwrap();
        for (key, v) in numbers {
            let got = attrs.get(key).unwrap();
            if v.is_finite() {
                assert_eq!(got.as_f64().map(f64::to_bits), Some(v.to_bits()), "{key}");
            } else {
                assert_eq!(got, &Json::Null, "{key}");
            }
            let spelled = format!("\"{key}\":{}", Json::Num(v).pretty());
            assert!(dump.contains(&spelled), "{spelled} in {dump}");
        }
        assert_eq!(attrs.get("text").and_then(Json::as_str), Some(text));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
