//! Collectors: the pluggable sinks behind the facade, plus a few stock
//! implementations (stderr logger, counting, fan-out).

use crate::{Event, Field, Level, SpanId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A sink for spans and events. Implementations must be passive observers:
/// they may record, count, and print, but must never influence the control
/// flow of the instrumented code (the determinism contract depends on it).
pub trait Collector: Send + Sync {
    /// Level/target filter; the facade skips records the collector
    /// declines, so hot paths pay nothing for filtered-out verbosity.
    fn wants(&self, _level: Level, _target: &str) -> bool {
        true
    }

    /// A free-standing structured event.
    fn on_event(&self, event: &Event<'_>);

    /// A span opened; `id` is process-unique and reused at close.
    fn on_span_open(&self, _id: SpanId, _span: &Event<'_>) {}

    /// Fields recorded inside an open span.
    fn on_span_record(&self, _id: SpanId, _fields: &[Field]) {}

    /// A span closed (dropped).
    fn on_span_close(&self, _id: SpanId, _target: &'static str, _name: &'static str) {}
}

/// Serialises tests that install the process-wide collector. Exposed so
/// integration tests in other crates can share the discipline within one
/// test binary.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn render_fields(fields: &[Field]) -> String {
    let mut out = String::new();
    for f in fields {
        out.push(' ');
        out.push_str(f.key);
        out.push('=');
        out.push_str(&f.value.to_string());
    }
    out
}

/// Prints events and span open/close lines to stderr, filtered by a
/// maximum level. Span close lines include the wall-clock duration.
pub struct StderrLogger {
    max_level: Level,
    epoch: Instant,
    open: Mutex<HashMap<u64, Instant>>,
}

impl StderrLogger {
    pub fn new(max_level: Level) -> StderrLogger {
        StderrLogger {
            max_level,
            epoch: Instant::now(),
            open: Mutex::new(HashMap::new()),
        }
    }

    fn stamp(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }
}

impl Collector for StderrLogger {
    fn wants(&self, level: Level, _target: &str) -> bool {
        level <= self.max_level
    }

    fn on_event(&self, event: &Event<'_>) {
        eprintln!(
            "[{:10.3}ms {:5} {}] {}{}",
            self.stamp(),
            event.level,
            event.target,
            event.name,
            render_fields(event.fields)
        );
    }

    fn on_span_open(&self, id: SpanId, span: &Event<'_>) {
        self.open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id.0, Instant::now());
        eprintln!(
            "[{:10.3}ms {:5} {}] {}: begin{}",
            self.stamp(),
            span.level,
            span.target,
            span.name,
            render_fields(span.fields)
        );
    }

    fn on_span_close(&self, id: SpanId, target: &'static str, name: &'static str) {
        let elapsed = self
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id.0)
            .map(|t0| t0.elapsed().as_secs_f64() * 1e3);
        match elapsed {
            Some(ms) => eprintln!(
                "[{:10.3}ms       {}] {}: end ({ms:.3} ms)",
                self.stamp(),
                target,
                name
            ),
            None => eprintln!("[{:10.3}ms       {}] {}: end", self.stamp(), target, name),
        }
    }
}

/// Counts records without storing them — the cheapest possible enabled
/// collector, used by the overhead bench and the determinism proptest.
#[derive(Default)]
pub struct CountingCollector {
    events: AtomicU64,
    spans: AtomicU64,
    closed: AtomicU64,
}

impl CountingCollector {
    pub fn new() -> CountingCollector {
        CountingCollector::default()
    }

    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    pub fn spans(&self) -> u64 {
        self.spans.load(Ordering::Relaxed)
    }

    pub fn closed(&self) -> u64 {
        self.closed.load(Ordering::Relaxed)
    }

    /// Total records seen (events + span opens).
    pub fn total(&self) -> u64 {
        self.events() + self.spans()
    }
}

impl Collector for CountingCollector {
    fn on_event(&self, _event: &Event<'_>) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn on_span_open(&self, _id: SpanId, _span: &Event<'_>) {
        self.spans.fetch_add(1, Ordering::Relaxed);
    }

    fn on_span_close(&self, _id: SpanId, _target: &'static str, _name: &'static str) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Forwards every record to each child collector. A record is delivered to
/// a child only if that child wants it; the fan-out itself wants a record
/// if any child does.
pub struct Fanout {
    children: Vec<Arc<dyn Collector>>,
}

impl Fanout {
    pub fn new(children: Vec<Arc<dyn Collector>>) -> Fanout {
        Fanout { children }
    }
}

impl Collector for Fanout {
    fn wants(&self, level: Level, target: &str) -> bool {
        self.children.iter().any(|c| c.wants(level, target))
    }

    fn on_event(&self, event: &Event<'_>) {
        for c in &self.children {
            if c.wants(event.level, event.target) {
                c.on_event(event);
            }
        }
    }

    fn on_span_open(&self, id: SpanId, span: &Event<'_>) {
        for c in &self.children {
            if c.wants(span.level, span.target) {
                c.on_span_open(id, span);
            }
        }
    }

    fn on_span_record(&self, id: SpanId, fields: &[Field]) {
        for c in &self.children {
            c.on_span_record(id, fields);
        }
    }

    fn on_span_close(&self, id: SpanId, target: &'static str, name: &'static str) {
        for c in &self.children {
            c.on_span_close(id, target, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_collector_counts() {
        let c = CountingCollector::new();
        c.on_event(&Event {
            level: Level::Info,
            target: "t",
            name: "e",
            fields: &[],
        });
        c.on_span_open(
            SpanId(1),
            &Event {
                level: Level::Info,
                target: "t",
                name: "s",
                fields: &[],
            },
        );
        c.on_span_close(SpanId(1), "t", "s");
        assert_eq!((c.events(), c.spans(), c.closed()), (1, 1, 1));
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn fanout_delivers_per_child_filters() {
        struct OnlyErrors(CountingCollector);
        impl Collector for OnlyErrors {
            fn wants(&self, level: Level, _t: &str) -> bool {
                level == Level::Error
            }
            fn on_event(&self, e: &Event<'_>) {
                self.0.on_event(e);
            }
        }
        let all = Arc::new(CountingCollector::new());
        let errs = Arc::new(OnlyErrors(CountingCollector::new()));
        let fan = Fanout::new(vec![all.clone(), errs.clone()]);
        assert!(fan.wants(Level::Debug, "x"));
        fan.on_event(&Event {
            level: Level::Debug,
            target: "x",
            name: "d",
            fields: &[],
        });
        fan.on_event(&Event {
            level: Level::Error,
            target: "x",
            name: "e",
            fields: &[],
        });
        assert_eq!(all.events(), 2);
        assert_eq!(errs.0.events(), 1);
    }
}
