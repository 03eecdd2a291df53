//! # crossmesh-obs
//!
//! Structured observability for the crossmesh workspace: a dependency-free
//! `tracing`-style facade (spans + events with key/value fields behind a
//! pluggable [`Collector`]), a [`metrics`](mod@metrics) registry (named
//! counters, gauges, and fixed-bucket histograms, sharded across worker
//! threads and merged deterministically at drain), and a unified
//! Chrome/Perfetto [`export`] module that renders simulator traces, real
//! runtime timelines and daemon timelines into one JSON schema.
//!
//! The crate is a leaf: it depends on no other layer, so every layer
//! reports into it the same way. The flow-level simulator adds each run's
//! engine counters to the process-wide registry's `netsim.*` metrics, and
//! lays its traces out through [`export::TraceExport`] itself.
//!
//! ## Zero overhead when disabled
//!
//! No collector is installed by default. The disabled fast path is a single
//! relaxed atomic load: [`event`] returns immediately and [`Span::enter`]
//! hands back [`Span::disabled`] (a `None` that does nothing on drop), so
//! instrumented hot loops — planner branch search, the runtime frame pumps —
//! cost nothing measurable without an observer. Metric counters are always
//! live (they are plain sharded atomics), but every instrumentation site
//! batches hot-loop increments locally and flushes once per unit of work.
//!
//! ## Determinism contract
//!
//! Observers are passive: collectors and metrics must never perturb planner
//! search order, so planner output stays byte-identical at any rayon pool
//! width whether or not a collector is installed (locked by the
//! enabled-vs-disabled proptest in `tests/obs_overhead.rs`). Simulator-backend
//! traces carry virtual timestamps and are reproducible run-to-run; only the
//! wall-clock metrics (span durations, runtime timelines) vary.

pub mod collect;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod slo;
mod span;

pub use collect::{Collector, CountingCollector, Fanout, StderrLogger};
pub use metrics::{
    metrics, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SlidingWindowHistogram,
};
pub use recorder::FlightRecorder;
pub use slo::{SloBreach, SloMonitor, SloRule};
pub use span::{Span, SpanId};

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Severity / verbosity of an event or span, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
    Trace,
}

impl Level {
    /// Parses a `--log-level` style name (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One key/value field attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub key: &'static str,
    pub value: Value,
}

impl Field {
    pub fn u64(key: &'static str, value: u64) -> Field {
        Field {
            key,
            value: Value::U64(value),
        }
    }

    pub fn i64(key: &'static str, value: i64) -> Field {
        Field {
            key,
            value: Value::I64(value),
        }
    }

    pub fn f64(key: &'static str, value: f64) -> Field {
        Field {
            key,
            value: Value::F64(value),
        }
    }

    pub fn bool(key: &'static str, value: bool) -> Field {
        Field {
            key,
            value: Value::Bool(value),
        }
    }

    pub fn str(key: &'static str, value: impl Into<String>) -> Field {
        Field {
            key,
            value: Value::Str(value.into()),
        }
    }
}

/// A structured event (or the opening record of a span): a level, a dotted
/// subsystem target (`"planner.dfs"`, `"runtime.flow"`), a short name, and
/// borrowed key/value fields.
#[derive(Debug, Clone)]
pub struct Event<'a> {
    pub level: Level,
    pub target: &'static str,
    pub name: &'static str,
    pub fields: &'a [Field],
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Arc<dyn Collector>>> = Mutex::new(None);

/// Whether any collector is installed — the one-load fast path every
/// instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed collector, if any.
pub fn collector() -> Option<Arc<dyn Collector>> {
    if !enabled() {
        return None;
    }
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Replaces the process-wide collector, returning the previous one.
/// Passing `None` disables collection entirely.
pub fn set_collector(c: Option<Arc<dyn Collector>>) -> Option<Arc<dyn Collector>> {
    let mut guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::mem::replace(&mut *guard, c);
    ENABLED.store(guard.is_some(), Ordering::SeqCst);
    prev
}

/// Installs `c` for the lifetime of the returned guard; the previous
/// collector (possibly none) is restored on drop. Used by the CLI and by
/// tests that must not leak an observer into their neighbours.
pub fn install(c: Arc<dyn Collector>) -> CollectorGuard {
    CollectorGuard {
        prev: Some(set_collector(Some(c))),
    }
}

/// Restores the previously installed collector on drop. See [`install`].
pub struct CollectorGuard {
    prev: Option<Option<Arc<dyn Collector>>>,
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            set_collector(prev);
        }
    }
}

/// Emits a structured event to the installed collector, if any wants it.
///
/// The disabled fast path is one relaxed load; hot loops may still prefer
/// to accumulate locally and emit a single summary event.
#[inline]
pub fn event(level: Level, target: &'static str, name: &'static str, fields: &[Field]) {
    if !enabled() {
        return;
    }
    event_slow(level, target, name, fields);
}

#[cold]
fn event_slow(level: Level, target: &'static str, name: &'static str, fields: &[Field]) {
    if let Some(c) = collector() {
        if c.wants(level, target) {
            c.on_event(&Event {
                level,
                target,
                name,
                fields,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_guard_restores() {
        // Serialise against other tests in this binary that install.
        let _lock = collect::test_lock();
        assert!(!enabled());
        let counting = Arc::new(CountingCollector::new());
        {
            let _g = install(counting.clone());
            assert!(enabled());
            event(Level::Info, "test", "ping", &[Field::u64("n", 1)]);
            let inner = Arc::new(CountingCollector::new());
            {
                let _g2 = install(inner.clone());
                event(Level::Info, "test", "ping", &[]);
            }
            // Outer collector restored after the inner guard drops.
            event(Level::Info, "test", "ping", &[]);
            assert_eq!(inner.events(), 1);
        }
        assert!(!enabled());
        assert_eq!(counting.events(), 2);
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn field_constructors_carry_values() {
        assert_eq!(Field::u64("a", 3).value, Value::U64(3));
        assert_eq!(Field::str("b", "x").value, Value::Str("x".into()));
        assert_eq!(format!("{}", Value::F64(1.5)), "1.5");
    }
}
