//! Persistent sink: bounded span retention plus periodic JSON flushes.
//!
//! Day-long `fleet_sim` runs finish millions of spans; the registry's
//! default unbounded `Vec` would eat the heap and the profile would only
//! exist if the process survived to call [`crate::snapshot`]. A sink
//! bounds both problems: completed spans land in a fixed-capacity ring
//! (oldest dropped first, every drop counted), and every
//! [`SinkConfig::flush_every`] finished spans the registry rewrites one
//! on-disk file with a full [`crate::Snapshot::to_json`] document — the
//! same version-1 format the exporters and CI smoke gate already read.
//! Counters, gauges, and histograms are fixed-size cells, so they are
//! never dropped; each flush carries their current values.
//!
//! Sinks are **off by default** and watch-only like the rest of the
//! crate: attaching one changes no computed result anywhere (the
//! workspace's determinism pins hold with a sink attached), and
//! [`crate::Registry::snapshot`] still returns every *retained* span, so
//! fingerprints over snapshots are identical with and without a sink
//! until the ring actually overflows — which [`SinkStats::spans_dropped`]
//! reports, never silently.
//!
//! Write failures (disk full, missing directory) are counted and
//! remembered, not propagated: telemetry must never take down the run it
//! is watching.

use crate::registry::SpanRecord;
use std::collections::VecDeque;
use std::path::PathBuf;

/// Configuration for a registry's persistent sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkConfig {
    /// File each flush overwrites with a version-1 snapshot JSON
    /// document (whole-file writes: readers never see a torn flush
    /// appended to an old one).
    pub path: PathBuf,
    /// Maximum completed spans retained in memory. When full, the oldest
    /// span is dropped per arrival and counted in
    /// [`SinkStats::spans_dropped`].
    pub ring_capacity: usize,
    /// Flush to disk every this many finished spans (a final flush also
    /// happens on [`crate::Registry::detach_sink`]).
    pub flush_every: u64,
}

impl SinkConfig {
    /// A sink writing to `path` with defaults sized for long runs:
    /// 65 536 retained spans, a flush every 4 096 completions.
    pub fn new(path: impl Into<PathBuf>) -> SinkConfig {
        SinkConfig {
            path: path.into(),
            ring_capacity: 65_536,
            flush_every: 4_096,
        }
    }

    /// Sets the retention ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> SinkConfig {
        self.ring_capacity = capacity;
        self
    }

    /// Sets the flush period in finished spans.
    pub fn with_flush_every(mut self, every: u64) -> SinkConfig {
        self.flush_every = every;
        self
    }
}

/// Observable state of an attached sink.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SinkStats {
    /// Spans currently held in the retention ring.
    pub spans_retained: usize,
    /// Spans evicted from the ring since attach (0 = profile complete).
    pub spans_dropped: u64,
    /// Completed flushes to disk.
    pub flushes: u64,
    /// Flush attempts that failed to write (see `last_error`).
    pub write_errors: u64,
    /// Message of the most recent write failure, if any.
    pub last_error: Option<String>,
}

/// Live sink state owned by the registry (behind its sink mutex).
#[derive(Debug)]
pub(crate) struct SinkState {
    pub(crate) cfg: SinkConfig,
    pub(crate) ring: VecDeque<SpanRecord>,
    pub(crate) spans_dropped: u64,
    pub(crate) since_flush: u64,
    pub(crate) flushes: u64,
    pub(crate) write_errors: u64,
    pub(crate) last_error: Option<String>,
}

impl SinkState {
    pub(crate) fn new(cfg: SinkConfig) -> SinkState {
        SinkState {
            ring: VecDeque::with_capacity(cfg.ring_capacity.min(4_096)),
            cfg,
            spans_dropped: 0,
            since_flush: 0,
            flushes: 0,
            write_errors: 0,
            last_error: None,
        }
    }

    /// Pushes one completed span, evicting the oldest when full.
    /// Returns `true` when a periodic flush is due.
    pub(crate) fn push(&mut self, rec: SpanRecord) -> bool {
        if self.cfg.ring_capacity == 0 {
            self.spans_dropped += 1;
        } else {
            if self.ring.len() >= self.cfg.ring_capacity {
                self.ring.pop_front();
                self.spans_dropped += 1;
            }
            self.ring.push_back(rec);
        }
        self.since_flush += 1;
        self.cfg.flush_every > 0 && self.since_flush >= self.cfg.flush_every
    }

    pub(crate) fn stats(&self) -> SinkStats {
        SinkStats {
            spans_retained: self.ring.len(),
            spans_dropped: self.spans_dropped,
            flushes: self.flushes,
            write_errors: self.write_errors,
            last_error: self.last_error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The attached sink's current stats (`None` when no sink).
    fn sink_stats(reg: &Registry) -> Option<SinkStats> {
        reg.sink.lock().unwrap().as_ref().map(SinkState::stats)
    }

    /// A unique temp path per test invocation (no tempfile dependency).
    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dbvirt_sink_{}_{}_{}.json",
            tag,
            std::process::id(),
            seq
        ))
    }

    fn record_spans(reg: &Registry, names: &[&'static str]) {
        for &name in names {
            drop(reg.span(name));
        }
    }

    #[test]
    fn snapshot_is_identical_with_and_without_a_sink() {
        // Same span sequence through two registries — one sinked, one
        // not. Everything deterministic about the snapshots must match
        // (ids, names, parents, virtual intervals, counters); only wall
        // clocks may differ.
        let plain = Registry::new_enabled();
        let sinked = Registry::new_enabled();
        let path = temp_path("identity");
        sinked.attach_sink(
            SinkConfig::new(&path)
                .with_ring_capacity(64)
                .with_flush_every(2),
        );
        for reg in [&plain, &sinked] {
            reg.add("work.items", 3);
            let outer = reg.span("outer");
            reg.advance_virtual_micros(500);
            drop(reg.span("inner"));
            drop(outer);
        }
        let (a, b) = (plain.snapshot(), sinked.snapshot());
        a.validate().unwrap();
        b.validate().unwrap();
        let key = |s: &crate::Snapshot| {
            s.spans
                .iter()
                .map(|r| (r.id, r.parent, r.name, r.vstart_us, r.vend_us))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.virtual_us, b.virtual_us);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ring_bound_evicts_oldest_and_counts_drops() {
        let reg = Registry::new_enabled();
        let path = temp_path("bound");
        reg.attach_sink(
            SinkConfig::new(&path)
                .with_ring_capacity(4)
                .with_flush_every(1_000),
        );
        record_spans(&reg, &["s"; 10]);
        let stats = sink_stats(&reg).unwrap();
        assert_eq!(stats.spans_retained, 4);
        assert_eq!(stats.spans_dropped, 6);
        // The survivors are the *newest* spans: ids 7..=10.
        let snap = reg.snapshot();
        assert_eq!(
            snap.spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn periodic_flush_writes_version1_json() {
        let reg = Registry::new_enabled();
        let path = temp_path("flush");
        reg.attach_sink(
            SinkConfig::new(&path)
                .with_ring_capacity(64)
                .with_flush_every(3),
        );
        record_spans(&reg, &["tick"; 7]);
        let stats = sink_stats(&reg).unwrap();
        assert_eq!(stats.flushes, 2, "7 spans at flush_every=3");
        assert_eq!(stats.write_errors, 0);
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(
            doc.starts_with("{\"version\":1,"),
            "existing on-disk format: {doc:.40}"
        );
        assert!(doc.contains("\"tick\""));
        // A forced flush rewrites the file with the latest state.
        record_spans(&reg, &["late"]);
        let stats = reg.flush_sink().unwrap();
        assert_eq!(stats.flushes, 3);
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"late\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn detach_final_flushes_and_keeps_retained_spans() {
        let reg = Registry::new_enabled();
        let path = temp_path("detach");
        reg.attach_sink(
            SinkConfig::new(&path)
                .with_ring_capacity(64)
                .with_flush_every(1_000),
        );
        record_spans(&reg, &["a", "b"]);
        let stats = reg.detach_sink().unwrap();
        assert_eq!(stats.flushes, 1, "detach performs the final flush");
        assert_eq!(stats.spans_retained, 2);
        assert!(sink_stats(&reg).is_none(), "sink is gone");
        // Retained spans folded back: still visible after detach, and
        // new spans keep recording into the plain store.
        record_spans(&reg, &["c"]);
        let snap = reg.snapshot();
        snap.validate().unwrap();
        assert_eq!(
            snap.spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"b\""));
        let _ = std::fs::remove_file(&path);
        assert!(reg.detach_sink().is_none(), "second detach is a no-op");
    }

    #[test]
    fn write_failures_are_counted_not_propagated() {
        let reg = Registry::new_enabled();
        let path = std::env::temp_dir()
            .join("dbvirt_sink_no_such_dir")
            .join("x.json");
        reg.attach_sink(
            SinkConfig::new(&path)
                .with_ring_capacity(8)
                .with_flush_every(1),
        );
        record_spans(&reg, &["doomed"]); // triggers a flush that must fail quietly
        let stats = sink_stats(&reg).unwrap();
        assert_eq!(stats.flushes, 0);
        assert_eq!(stats.write_errors, 1);
        assert!(stats.last_error.unwrap().contains("x.json"));
        assert_eq!(stats.spans_retained, 1, "span survives the failed flush");
    }

    #[test]
    fn zero_capacity_ring_drops_everything_but_still_flushes() {
        let reg = Registry::new_enabled();
        let path = temp_path("zero");
        reg.attach_sink(
            SinkConfig::new(&path)
                .with_ring_capacity(0)
                .with_flush_every(2),
        );
        record_spans(&reg, &["x", "y"]);
        let stats = sink_stats(&reg).unwrap();
        assert_eq!(stats.spans_retained, 0);
        assert_eq!(stats.spans_dropped, 2);
        assert_eq!(stats.flushes, 1);
        let _ = std::fs::remove_file(&path);
    }
}
