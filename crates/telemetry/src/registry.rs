//! The thread-safe telemetry registry and its snapshot type.

use crate::hist::{Hist, HistogramSnapshot};
use crate::span::{self, Active, SpanGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Distinguishes registries on the per-thread parent stack.
static REGISTRY_IDS: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids for readable exports (`std::thread::ThreadId`
/// has no stable integer accessor).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Locks one of the registry's stores, taking the guard back from a
/// poisoned lock. Every critical section below leaves its data whole (a
/// push, a clear, a clone, an insert), so a panic elsewhere while one was
/// held tore nothing; and telemetry must never take down the run it
/// watches.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// A completed span as stored in the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the registry (monotone from 1).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Static span name (the taxonomy key, e.g. `"search.run"`).
    pub name: &'static str,
    /// Dense per-process thread id of the recording thread.
    pub tid: u64,
    /// Wall-clock start, nanoseconds since the registry's epoch.
    pub start_ns: u64,
    /// Wall-clock end, nanoseconds since the registry's epoch.
    pub end_ns: u64,
    /// Virtual-clock reading (micros) when the span opened.
    pub vstart_us: u64,
    /// Virtual-clock reading (micros) when the span closed.
    pub vend_us: u64,
    /// Attached attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Virtual-clock duration in microseconds.
    pub fn virtual_us(&self) -> u64 {
        self.vend_us.saturating_sub(self.vstart_us)
    }
}

/// A shared atomic counter cell (cacheable via [`crate::Counter`]).
#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A shared f64 gauge cell (bits stored in an `AtomicU64`).
#[derive(Debug)]
pub(crate) struct GaugeCell {
    bits: AtomicU64,
}

impl GaugeCell {
    fn new() -> GaugeCell {
        GaugeCell {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// A shared histogram cell (cacheable via [`crate::Histogram`]).
#[derive(Debug)]
pub(crate) struct HistCell {
    hist: Hist,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell { hist: Hist::new() }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.hist.record(v);
    }

    /// Snapshots the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }
}

/// A thread-safe telemetry registry.
///
/// The process-wide instance behind [`crate::global`] is gated by the
/// [`crate::enable`]/[`crate::disable`] switch; a directly constructed
/// `Registry` always records, which is what tests want.
#[derive(Debug)]
pub struct Registry {
    id: u64,
    epoch: Instant,
    next_span: AtomicU64,
    open_spans: AtomicU64,
    vclock_us: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    hists: Mutex<BTreeMap<String, Arc<HistCell>>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry; its epoch (wall-clock zero) is now.
    pub fn new() -> Registry {
        Registry {
            id: REGISTRY_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            next_span: AtomicU64::new(0),
            open_spans: AtomicU64::new(0),
            vclock_us: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
        }
    }

    /// Alias of [`Registry::new`] that reads better in tests: a directly
    /// constructed registry always records.
    pub fn new_enabled() -> Registry {
        Registry::new()
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Opens a span whose parent is this thread's innermost open span in
    /// this registry.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = span::current_parent(self.id);
        self.open(name, parent)
    }

    /// Opens a span with an explicit parent (`None` = root). The new span
    /// still joins this thread's stack, so spans opened underneath it on
    /// the same thread nest inside it — this is how a `thread::scope`
    /// worker adopts the spawning thread's span as its subtree root.
    pub fn span_with_parent(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        self.open(name, parent)
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        self.open_spans.fetch_add(1, Ordering::Relaxed);
        span::push(self.id, id);
        let rec = SpanRecord {
            id,
            parent,
            name,
            tid: current_tid(),
            start_ns: self.now_ns(),
            end_ns: 0,
            vstart_us: self.vclock_us.load(Ordering::Relaxed),
            vend_us: 0,
            attrs: Vec::new(),
        };
        SpanGuard {
            inner: Some(Active { reg: self, rec }),
        }
    }

    pub(crate) fn finish_span(&self, mut rec: SpanRecord) {
        rec.end_ns = self.now_ns().max(rec.start_ns);
        rec.vend_us = self.vclock_us.load(Ordering::Relaxed).max(rec.vstart_us);
        lock(&self.spans).push(rec);
        self.open_spans.fetch_sub(1, Ordering::Relaxed);
    }

    /// Advances the registry's virtual (simulated) clock.
    pub fn advance_virtual_micros(&self, us: u64) {
        self.vclock_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Current virtual-clock reading in microseconds.
    pub fn virtual_us(&self) -> u64 {
        self.vclock_us.load(Ordering::Relaxed)
    }

    /// Number of spans currently open (guards not yet dropped).
    pub fn open_spans(&self) -> u64 {
        self.open_spans.load(Ordering::Relaxed)
    }

    /// The shared cell for counter `name`, creating it on first use.
    pub(crate) fn counter_cell(&self, name: &str) -> Arc<CounterCell> {
        Arc::clone(lock(&self.counters).entry(name.to_string()).or_default())
    }

    /// The shared cell for gauge `name`, creating it on first use.
    pub(crate) fn gauge_cell(&self, name: &str) -> Arc<GaugeCell> {
        Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(GaugeCell::new())),
        )
    }

    /// The shared cell for histogram `name`, creating it on first use.
    pub(crate) fn hist_cell(&self, name: &str) -> Arc<HistCell> {
        Arc::clone(
            lock(&self.hists)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistCell::new())),
        )
    }

    /// Convenience: bumps counter `name` by `n`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter_cell(name).add(n);
    }

    /// Clears recorded spans, zeroes every metric cell in place (handles
    /// cached by callers stay valid), and rewinds the virtual clock.
    /// Open-span and id counters are preserved.
    pub fn reset(&self) {
        lock(&self.spans).clear();
        for c in lock(&self.counters).values() {
            c.reset();
        }
        for g in lock(&self.gauges).values() {
            g.reset();
        }
        for h in lock(&self.hists).values() {
            h.hist.reset();
        }
        self.vclock_us.store(0, Ordering::Relaxed);
    }

    /// Takes a consistent point-in-time snapshot (open spans are not
    /// included; [`Snapshot::open_spans`] reports how many are missing).
    pub fn snapshot(&self) -> Snapshot {
        let mut spans = lock(&self.spans).clone();
        spans.sort_by_key(|s| s.id);
        let counters = lock(&self.counters)
            .iter()
            .map(|(n, c)| (n.clone(), c.value()))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(n, g)| (n.clone(), g.value()))
            .collect();
        let histograms = lock(&self.hists)
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        Snapshot {
            spans,
            counters,
            gauges,
            histograms,
            open_spans: self.open_spans(),
            virtual_us: self.virtual_us(),
        }
    }
}

/// A point-in-time copy of a registry's state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Completed spans, ascending by id.
    pub spans: Vec<SpanRecord>,
    /// Counter values by name (sorted).
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name (sorted).
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots by name (sorted).
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Spans still open when the snapshot was taken (0 = quiescent).
    pub open_spans: u64,
    /// Virtual-clock reading at snapshot time (micros).
    pub virtual_us: u64,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The last completed span with `name` (highest id), if any.
    pub fn last_span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Fraction of `parent`'s wall-clock duration covered by its direct
    /// children (each child clamped to the parent's interval). 1.0 for a
    /// fully accounted parent; 0.0 for a leaf or zero-length span.
    pub fn child_coverage(&self, parent_id: u64) -> f64 {
        let Some(parent) = self.spans.iter().find(|s| s.id == parent_id) else {
            return 0.0;
        };
        let dur = parent.duration_ns();
        if dur == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent_id))
            .map(|s| {
                s.end_ns
                    .min(parent.end_ns)
                    .saturating_sub(s.start_ns.max(parent.start_ns))
            })
            .sum();
        covered as f64 / dur as f64
    }

    /// Structural validation — the CI smoke gate's checks:
    ///
    /// * no spans left open,
    /// * span ids unique,
    /// * every parent id refers to a recorded span,
    /// * wall and virtual intervals well-formed (`end ≥ start`),
    /// * every child's wall interval nests inside its parent's.
    pub fn validate(&self) -> Result<(), String> {
        if self.open_spans != 0 {
            return Err(format!(
                "{} span(s) still open (leaked guards)",
                self.open_spans
            ));
        }
        let mut by_id = BTreeMap::new();
        for s in &self.spans {
            if by_id.insert(s.id, s).is_some() {
                return Err(format!("duplicate span id {}", s.id));
            }
        }
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            if s.vend_us < s.vstart_us {
                return Err(format!(
                    "span {} ({}) virtual interval ends before it starts",
                    s.id, s.name
                ));
            }
            if let Some(pid) = s.parent {
                let Some(p) = by_id.get(&pid) else {
                    return Err(format!(
                        "span {} ({}) references unknown parent {}",
                        s.id, s.name, pid
                    ));
                };
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                        s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_registry_nests_spans_per_thread() {
        let reg = Registry::new_enabled();
        {
            let a = reg.span("a");
            let _b = reg.span("b");
            drop(reg.span("c")); // sibling of b? no — child of b
            let _ = a.id();
        }
        let snap = reg.snapshot();
        snap.validate().unwrap();
        let a = snap.last_span("a").unwrap();
        let b = snap.last_span("b").unwrap();
        let c = snap.last_span("c").unwrap();
        assert_eq!(a.parent, None);
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(c.parent, Some(b.id));
    }

    #[test]
    fn cross_thread_parenting_via_explicit_parent() {
        let reg = Registry::new_enabled();
        let root = reg.span("root");
        let parent = root.id();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let w = reg.span_with_parent("worker", parent);
                    let _leaf = reg.span("leaf"); // nests under worker via stack
                    drop(_leaf);
                    drop(w);
                });
            }
        });
        drop(root);
        let snap = reg.snapshot();
        snap.validate().unwrap();
        let root = snap.last_span("root").unwrap();
        let workers: Vec<_> = snap.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, Some(root.id));
        }
        for leaf in snap.spans.iter().filter(|s| s.name == "leaf") {
            let p = leaf.parent.unwrap();
            assert!(
                workers.iter().any(|w| w.id == p),
                "leaf parented to a worker"
            );
        }
    }

    #[test]
    fn two_registries_do_not_cross_parent() {
        let r1 = Registry::new_enabled();
        let r2 = Registry::new_enabled();
        let _a = r1.span("r1.outer");
        let b = r2.span("r2.span"); // must NOT adopt r1.outer as parent
        drop(b);
        let snap2 = r2.snapshot();
        assert_eq!(snap2.last_span("r2.span").unwrap().parent, None);
    }

    #[test]
    fn validator_flags_leaked_spans() {
        let reg = Registry::new_enabled();
        let leaked = reg.span("leak");
        let snap = reg.snapshot();
        assert!(snap.validate().is_err());
        drop(leaked);
        reg.snapshot().validate().unwrap();
    }

    #[test]
    fn virtual_clock_intervals_follow_advances() {
        let reg = Registry::new_enabled();
        {
            let _s = reg.span("sim");
            reg.advance_virtual_micros(1500);
        }
        let snap = reg.snapshot();
        let s = snap.last_span("sim").unwrap();
        assert_eq!(s.vstart_us, 0);
        assert_eq!(s.vend_us, 1500);
        assert_eq!(s.virtual_us(), 1500);
        assert_eq!(snap.virtual_us, 1500);
    }

    #[test]
    fn child_coverage_accounts_direct_children() {
        let reg = Registry::new_enabled();
        let root = reg.span("root");
        let rid = root.id().unwrap();
        {
            let _c1 = reg.span("c1");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _c2 = reg.span("c2");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(root);
        let snap = reg.snapshot();
        let cov = snap.child_coverage(rid);
        assert!(cov > 0.5, "children should dominate the root: {cov}");
        assert!(cov <= 1.0 + 1e-9);
    }

    #[test]
    fn a_poisoned_store_still_records() {
        let reg = Registry::new();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _spans = reg.spans.lock().unwrap();
                panic!("poison the span store");
            })
            .join()
        });
        assert!(holder.is_err() && reg.spans.is_poisoned());
        drop(reg.span("after"));
        reg.add("after", 1);
        let snap = reg.snapshot();
        assert!(snap.last_span("after").is_some());
        assert_eq!(snap.counter("after"), Some(1));
        reg.reset();
        assert!(reg.snapshot().spans.is_empty());
    }

    #[test]
    fn reset_preserves_cached_cells() {
        let reg = Registry::new();
        let c = reg.counter_cell("k");
        c.add(4);
        reg.advance_virtual_micros(9);
        reg.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(reg.virtual_us(), 0);
        c.add(2);
        assert_eq!(reg.snapshot().counter("k"), Some(2));
    }
}
