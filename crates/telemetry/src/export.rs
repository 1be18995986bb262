//! Exporters: a self-contained JSON dump and the Chrome trace-event
//! format (`chrome://tracing` / Perfetto "JSON Array" flavor).
//!
//! The writer is hand-rolled (the crate depends on nothing); the output
//! is plain JSON that `dbvirt-calibrate::json::parse` — or any JSON
//! parser — round-trips. Numbers are emitted as integers where exact and
//! stay far below 2⁵³, so f64-based parsers read them back losslessly;
//! non-finite values read back as `null`.

use crate::registry::{AttrValue, Snapshot};
use crate::SpanRecord;
use std::fmt::Write as _;

/// Writes `s` as a JSON string literal (including the quotes). This and
/// [`write_json_num`] are the workspace's one JSON writer: the exporters
/// here and `dbvirt-calibrate`'s serializer both call them.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `n` as a JSON number: integral values below 10¹⁵ without a
/// fraction, others in Rust's shortest round-trip form, and non-finite
/// values — which JSON cannot represent — as `null`.
pub fn write_json_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}");
    }
}

fn attr(out: &mut String, v: &AttrValue) {
    match v {
        AttrValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        AttrValue::F64(f) => write_json_num(out, *f),
        AttrValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        AttrValue::Str(s) => write_json_str(out, s),
    }
}

fn attrs_obj(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, k);
        out.push(':');
        attr(out, v);
    }
    out.push('}');
}

impl Snapshot {
    /// Serializes the full snapshot as a self-contained JSON document:
    ///
    /// ```json
    /// {"version": 1, "open_spans": 0, "virtual_us": N,
    ///  "spans": [{"id", "parent", "name", "tid", "start_ns", "end_ns",
    ///             "vstart_us", "vend_us", "attrs": {..}}, ...],
    ///  "counters": {"name": n, ...}, "gauges": {"name": x, ...},
    ///  "histograms": {"name": {"count","sum","min","max","mean",
    ///                          "p50","p95","p99",
    ///                          "buckets": [[lower_bound, count], ...]}}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        let _ = write!(
            o,
            "{{\"version\":1,\"open_spans\":{},\"virtual_us\":{},\"spans\":[",
            self.open_spans, self.virtual_us
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(o, "{p}");
                }
                None => o.push_str("null"),
            }
            o.push_str(",\"name\":");
            write_json_str(&mut o, s.name);
            let _ = write!(
                o,
                ",\"tid\":{},\"start_ns\":{},\"end_ns\":{},\"vstart_us\":{},\"vend_us\":{},\"attrs\":",
                s.tid, s.start_ns, s.end_ns, s.vstart_us, s.vend_us
            );
            attrs_obj(&mut o, &s.attrs);
            o.push('}');
        }
        o.push_str("],\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_json_str(&mut o, n);
            let _ = write!(o, ":{v}");
        }
        o.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_json_str(&mut o, n);
            o.push(':');
            write_json_num(&mut o, *v);
        }
        o.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_json_str(&mut o, n);
            let _ = write!(
                o,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                h.count, h.sum, h.min, h.max
            );
            write_json_num(&mut o, h.mean());
            let _ = write!(
                o,
                ",\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99)
            );
            for (j, &(idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                let _ = write!(o, "[{},{}]", crate::hist::bucket_lower_bound(idx), n);
            }
            o.push_str("]}");
        }
        o.push_str("}}");
        o
    }

    /// Serializes the spans as Chrome trace events (the format
    /// `chrome://tracing` and Perfetto load directly): one complete
    /// (`"ph":"X"`) event per span with microsecond timestamps, span
    /// attributes plus the virtual-clock interval under `args`, and one
    /// counter (`"ph":"C"`) event per metric so counter tracks render
    /// alongside the spans.
    pub fn to_chrome_trace(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                o.push(',');
            }
            first = false;
            o.push_str("{\"ph\":\"X\",\"cat\":\"span\",\"name\":");
            write_json_str(&mut o, s.name);
            let _ = write!(
                o,
                ",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":",
                s.tid,
                // Chrome wants microsecond doubles; ns/1000 with 3 decimals
                // keeps full nanosecond precision.
                format_args!("{}.{:03}", s.start_ns / 1000, s.start_ns % 1000),
                format_args!("{}.{:03}", s.duration_ns() / 1000, s.duration_ns() % 1000),
            );
            let mut args = s.attrs.clone();
            args.push(("span_id", AttrValue::U64(s.id)));
            if let Some(p) = s.parent {
                args.push(("parent_id", AttrValue::U64(p)));
            }
            args.push(("vstart_us", AttrValue::U64(s.vstart_us)));
            args.push(("vdur_us", AttrValue::U64(s.virtual_us())));
            attrs_obj(&mut o, &args);
            o.push('}');
        }
        let end_ts = self
            .spans
            .iter()
            .map(|s: &SpanRecord| s.end_ns)
            .max()
            .unwrap_or(0)
            / 1000;
        for (n, v) in &self.counters {
            if !first {
                o.push(',');
            }
            first = false;
            o.push_str("{\"ph\":\"C\",\"cat\":\"metric\",\"name\":");
            write_json_str(&mut o, n);
            let _ = write!(
                o,
                ",\"pid\":1,\"tid\":0,\"ts\":{end_ts},\"args\":{{\"value\":{v}}}}}"
            );
        }
        for (n, v) in &self.gauges {
            if !first {
                o.push(',');
            }
            first = false;
            o.push_str("{\"ph\":\"C\",\"cat\":\"metric\",\"name\":");
            write_json_str(&mut o, n);
            let _ = write!(
                o,
                ",\"pid\":1,\"tid\":0,\"ts\":{end_ts},\"args\":{{\"value\":"
            );
            write_json_num(&mut o, *v);
            o.push_str("}}");
        }
        o.push_str("]}");
        o
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn json_dump_is_well_formed() {
        let reg = Registry::new_enabled();
        reg.add("c.one", 3);
        reg.gauge_cell("g\"quoted\"").set(0.25);
        reg.hist_cell("h.lat").record(42);
        {
            let mut s = reg.span("outer");
            s.set_attr("note", "line\nbreak");
            s.set_attr("k", 7u64);
            let _inner = reg.span("inner");
        }
        let json = reg.snapshot().to_json();
        // Structural spot checks (full parser round-trip lives in the
        // workspace integration tests, which may use dbvirt-calibrate).
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"open_spans\":0"));
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"note\":\"line\\nbreak\""));
        assert!(json.contains("\"g\\\"quoted\\\"\""));
        assert!(json.contains("\"c.one\":3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let reg = Registry::new_enabled();
        {
            let _a = reg.span("a");
            let _b = reg.span("b");
        }
        reg.add("hits", 5);
        let trace = reg.snapshot().to_chrome_trace();
        assert!(trace.contains("\"traceEvents\":["));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(trace.matches("\"ph\":\"C\"").count(), 1);
        assert!(trace.contains("\"displayTimeUnit\":\"ms\""));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }

    #[test]
    fn non_finite_gauges_export_as_null() {
        let reg = Registry::new_enabled();
        reg.gauge_cell("bad").set(f64::NAN);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"bad\":null"));
    }
}
