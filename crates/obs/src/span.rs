//! Spans: scoped regions of work reported to the collector on entry and
//! exit, with a zero-cost disabled representation.

use crate::{Collector, Event, Field, Level};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique span identifier, allocated by the facade so that fan-out
/// collectors all see the same id for one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A scoped region of work. Construct with [`Span::enter`]; the collector
/// is notified again when the span is dropped.
///
/// When no collector is installed (or the collector declines the
/// level/target), the span is [`Span::disabled`]: a `None` whose drop does
/// nothing, so instrumenting a function costs one relaxed atomic load.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    collector: Arc<dyn Collector>,
    id: SpanId,
    target: &'static str,
    name: &'static str,
}

impl Span {
    /// Opens a span if a collector is installed and wants `(level, target)`.
    #[inline]
    pub fn enter(level: Level, target: &'static str, name: &'static str, fields: &[Field]) -> Span {
        if !crate::enabled() {
            return Span::disabled();
        }
        Span::enter_slow(level, target, name, fields)
    }

    #[cold]
    fn enter_slow(
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: &[Field],
    ) -> Span {
        match crate::collector() {
            Some(c) if c.wants(level, target) => {
                let id = SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed));
                c.on_span_open(
                    id,
                    &Event {
                        level,
                        target,
                        name,
                        fields,
                    },
                );
                Span {
                    inner: Some(SpanInner {
                        collector: c,
                        id,
                        target,
                        name,
                    }),
                }
            }
            _ => Span::disabled(),
        }
    }

    /// The no-op span: nothing is reported on construction or drop.
    #[inline]
    pub const fn disabled() -> Span {
        Span { inner: None }
    }

    /// Attaches follow-up fields to an open span (no-op when disabled).
    pub fn record(&self, fields: &[Field]) {
        if let Some(inner) = &self.inner {
            inner.collector.on_span_record(inner.id, fields);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner
                .collector
                .on_span_close(inner.id, inner.target, inner.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect, CountingCollector};

    #[test]
    fn disabled_span_reports_nothing() {
        let s = Span::disabled();
        assert!(s.inner.is_none());
        s.record(&[Field::u64("ignored", 1)]);
    }

    #[test]
    fn enabled_span_opens_and_closes() {
        let _lock = collect::test_lock();
        let c = Arc::new(CountingCollector::new());
        {
            let _g = crate::install(c.clone());
            let span = Span::enter(Level::Debug, "test", "region", &[Field::u64("n", 2)]);
            assert!(span.inner.is_some());
            span.record(&[Field::bool("mid", true)]);
        }
        assert_eq!(c.spans(), 1);
        assert_eq!(c.closed(), 1);
    }

    #[test]
    fn span_ids_are_unique() {
        let _lock = collect::test_lock();
        let c = Arc::new(CountingCollector::new());
        let _g = crate::install(c.clone());
        let a = Span::enter(Level::Info, "test", "a", &[]);
        let b = Span::enter(Level::Info, "test", "b", &[]);
        let (ia, ib) = (a.inner.as_ref().unwrap().id, b.inner.as_ref().unwrap().id);
        assert_ne!(ia, ib);
    }
}
