//! RAII span guards and the per-thread parent stack.

use crate::registry::{Registry, SpanRecord};
use std::cell::RefCell;

thread_local! {
    /// Stack of open spans on this thread as `(registry_id, span_id)`.
    /// Registry ids keep a test's private registry from adopting parents
    /// that belong to the global one (and vice versa).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Finds this thread's innermost open span belonging to `registry_id`.
pub(crate) fn current_parent(registry_id: u64) -> Option<u64> {
    STACK.with(|s| {
        s.borrow()
            .iter()
            .rev()
            .find(|&&(rid, _)| rid == registry_id)
            .map(|&(_, sid)| sid)
    })
}

pub(crate) fn push(registry_id: u64, span_id: u64) {
    STACK.with(|s| s.borrow_mut().push((registry_id, span_id)));
}

/// Removes the topmost matching entry (searching from the top tolerates
/// out-of-order guard drops without corrupting unrelated entries).
pub(crate) fn pop(registry_id: u64, span_id: u64) {
    STACK.with(|s| {
        let mut st = s.borrow_mut();
        if let Some(pos) = st.iter().rposition(|&e| e == (registry_id, span_id)) {
            st.remove(pos);
        }
    });
}

/// An open span. Dropping the guard closes the span and records it; a
/// guard from a disabled registry is an inert no-op.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    pub(crate) inner: Option<Active<'a>>,
}

pub(crate) struct Active<'a> {
    pub(crate) reg: &'a Registry,
    pub(crate) rec: SpanRecord,
}

impl<'a> SpanGuard<'a> {
    /// An inert guard (what every disabled entry point returns).
    pub(crate) fn noop() -> SpanGuard<'static> {
        SpanGuard { inner: None }
    }

    /// The span's id, usable as an explicit parent for spans started on
    /// other threads (see [`Registry::span_with_parent`]). `None` for a
    /// no-op guard — workers then correctly start root spans.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|a| a.rec.id)
    }

    /// Attaches a key/value attribute to the span record.
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<crate::AttrValue>) {
        if let Some(a) = self.inner.as_mut() {
            a.rec.attrs.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            pop(active.reg.id(), active.rec.id);
            active.reg.finish_span(active.rec);
        }
    }
}
