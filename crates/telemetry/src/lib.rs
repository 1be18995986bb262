//! # dbvirt-telemetry — zero-dependency tracing and metrics
//!
//! Observability substrate for the advisor pipeline. Nothing here changes
//! what the instrumented code computes — the subsystem only *watches*:
//!
//! * **spans** ([`span`], [`SpanGuard`]) — hierarchical timed regions with
//!   monotonic wall-clock timestamps *and* simulated virtual-clock
//!   timestamps (advanced by the code being measured via
//!   [`advance_virtual_micros`]); parentage follows a per-thread stack,
//!   and [`span_with_parent`] carries a parent across
//!   `std::thread::scope` workers;
//! * **counters / gauges** ([`Counter`], [`Gauge`]) — atomic, cacheable in
//!   `static`s so hot paths pay one relaxed load when disabled;
//! * **histograms** ([`Histogram`]) — log-bucketed (HDR-style: 8
//!   sub-buckets per power of two, ≤ 12.5% relative bucket width) latency
//!   distributions in integer microseconds;
//! * **exporters** ([`Snapshot::to_json`], [`Snapshot::to_chrome_trace`])
//!   — a self-contained JSON dump and the Chrome `chrome://tracing` /
//!   Perfetto trace-event format, plus [`Snapshot::validate`], the
//!   structural validator the CI smoke gate runs.
//!
//! Finished spans are kept in one place, the registry's span list:
//! [`snapshot`] copies it and [`reset`] clears it.
//!
//! ## The zero-cost disabled contract
//!
//! The global registry starts **disabled**. Every public operation begins
//! with one relaxed atomic load and returns immediately when disabled: no
//! allocation, no locking, no clock reads. Since instrumentation never
//! feeds back into computation, behavior with telemetry disabled is
//! bit-identical to a build without it; the workspace pins this with
//! recommendation-determinism regression tests.
//!
//! ## Threading model
//!
//! All state is thread-safe. Span parentage is tracked per thread; a
//! worker thread adopts a parent explicitly:
//!
//! ```
//! use dbvirt_telemetry as telemetry;
//! let reg = telemetry::Registry::new_enabled();
//! let root = reg.span("root");
//! let parent = root.id();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let _w = reg.span_with_parent("worker", parent);
//!     });
//! });
//! drop(root);
//! assert!(reg.snapshot().validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod export;
mod hist;
mod registry;
mod span;

pub use export::{write_json_num, write_json_str};
pub use hist::HistogramSnapshot;
pub use registry::{AttrValue, Registry, Snapshot, SpanRecord};
pub(crate) use registry::{CounterCell, GaugeCell, HistCell};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Global on/off switch (one relaxed load on every hot path).
static ENABLED: AtomicBool = AtomicBool::new(false);

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry instrumentation sites record into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// True if global telemetry collection is on.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global telemetry collection on.
pub fn enable() {
    global(); // materialize the registry (and its epoch) first
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns global telemetry collection off. Already-open spans still record
/// when their guards drop.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clears the global registry: spans are dropped, counters, gauges,
/// histograms, and the virtual clock are zeroed (handles cached in
/// `static`s stay valid). Call only with no spans open.
pub fn reset() {
    if GLOBAL.get().is_some() {
        global().reset();
    }
}

/// Starts a span on the global registry (no-op guard when disabled).
#[inline]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    if !is_enabled() {
        return SpanGuard::noop();
    }
    global().span(name)
}

/// Starts a span with an explicit parent (for handing parentage to
/// `std::thread::scope` workers). `parent = None` starts a root span.
#[inline]
pub fn span_with_parent(name: &'static str, parent: Option<u64>) -> SpanGuard<'static> {
    if !is_enabled() {
        return SpanGuard::noop();
    }
    global().span_with_parent(name, parent)
}

/// The id of this thread's innermost open global span — what a worker on
/// another thread passes to [`span_with_parent`] to nest under the caller.
/// `None` when disabled or outside any span.
#[inline]
pub fn current_span_id() -> Option<u64> {
    if !is_enabled() {
        return None;
    }
    span::current_parent(global().id())
}

/// Advances the global simulated (virtual) clock by `us` microseconds.
/// Spans snapshot this clock at start and end, giving every span a
/// virtual-time interval alongside its wall-clock one.
#[inline]
pub fn advance_virtual_micros(us: u64) {
    if !is_enabled() {
        return;
    }
    global().advance_virtual_micros(us);
}

/// Advances the global virtual clock by (non-negative, finite) seconds.
#[inline]
pub fn advance_virtual_secs(secs: f64) {
    if !is_enabled() {
        return;
    }
    if secs.is_finite() && secs > 0.0 {
        global().advance_virtual_micros((secs * 1e6).round() as u64);
    }
}

/// Takes a consistent snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// A named counter bound to the global registry, cacheable in a `static`
/// so the enabled hot path is one `OnceLock` read plus one `fetch_add`.
///
/// ```
/// use dbvirt_telemetry as telemetry;
/// static HITS: telemetry::Counter = telemetry::Counter::new("cache.hits");
/// HITS.add(1); // no-op while disabled
/// ```
pub struct Counter {
    name: &'static str,
    cell: OnceLock<Arc<CounterCell>>,
}

impl Counter {
    /// Declares a counter (registered in the global registry on first use).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` to the counter (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !is_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| global().counter_cell(self.name))
            .add(n);
    }

    /// The counter's current value (0 if it has never been touched).
    pub fn value(&self) -> u64 {
        self.cell.get().map_or(0, |c| c.value())
    }
}

/// A named f64 gauge bound to the global registry.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<Arc<GaugeCell>>,
}

impl Gauge {
    /// Declares a gauge (registered in the global registry on first use).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Sets the gauge (no-op while disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if !is_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| global().gauge_cell(self.name))
            .set(v);
    }
}

/// A named log-bucketed histogram bound to the global registry.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<Arc<HistCell>>,
}

impl Histogram {
    /// Declares a histogram (registered in the global registry on first
    /// use).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records a value in integer microseconds (no-op while disabled).
    #[inline]
    pub fn record_micros(&self, us: u64) {
        if !is_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| global().hist_cell(self.name))
            .record(us);
    }

    /// Records a wall-clock duration.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record_micros(d.as_micros().min(u64::MAX as u128) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that flip the global enabled flag.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_global_records_nothing() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        disable();
        reset();
        static C: Counter = Counter::new("test.disabled.counter");
        C.add(5);
        let s = span("test.disabled.span");
        drop(s);
        advance_virtual_micros(10);
        let snap = snapshot();
        assert!(snap.spans.iter().all(|s| s.name != "test.disabled.span"));
        assert_eq!(
            snap.counters
                .iter()
                .find(|(n, _)| n == "test.disabled.counter"),
            None
        );
    }

    #[test]
    fn enabled_global_roundtrip() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        disable();
        reset();
        enable();
        static C: Counter = Counter::new("test.enabled.counter");
        static H: Histogram = Histogram::new("test.enabled.hist");
        static G: Gauge = Gauge::new("test.enabled.gauge");
        C.add(2);
        C.add(3);
        H.record_micros(100);
        G.set(0.5);
        advance_virtual_micros(7);
        {
            let mut outer = span("test.enabled.outer");
            outer.set_attr("k", 1u64);
            let _inner = span("test.enabled.inner");
        }
        disable();
        let snap = snapshot();
        let c = snap
            .counters
            .iter()
            .find(|(n, _)| n == "test.enabled.counter")
            .unwrap();
        assert_eq!(c.1, 5);
        let outer = snap
            .spans
            .iter()
            .find(|s| s.name == "test.enabled.outer")
            .unwrap();
        let inner = snap
            .spans
            .iter()
            .find(|s| s.name == "test.enabled.inner")
            .unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(outer.vstart_us, 7);
        snap.validate().unwrap();
        reset();
    }
}
