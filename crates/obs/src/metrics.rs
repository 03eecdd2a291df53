//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! Counters are sharded across a small fixed set of cache-line-aligned
//! atomic cells; each worker thread is pinned to one shard on first use, so
//! concurrent increments from the rayon-shim pool rarely contend. Draining
//! (`get` / `snapshot`) merges shards by unsigned addition — commutative,
//! so the merged value is deterministic regardless of which thread
//! incremented which shard.
//!
//! The process-wide registry behind [`metrics()`] is what the CLI's
//! `--metrics` flag dumps; instrumented crates may also hold private
//! [`MetricsRegistry`] instances (the `PlanCache` keeps one per cache so
//! per-cache statistics stay isolated).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of counter shards. A small power of two: enough to keep the
/// rayon-shim pool (≤ 16 workers) off each other's cache lines.
const SHARDS: usize = 16;

/// A cache-line-aligned atomic cell, so neighbouring shards don't
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedAtomic(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

#[derive(Default)]
struct CounterCells {
    shards: [PaddedAtomic; SHARDS],
}

/// A monotonically increasing counter, cheap to clone (an `Arc` to the
/// shared cells) and cheap to bump from any thread.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<CounterCells>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            cells: Arc::new(CounterCells::default()),
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cells.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Deterministic merge of all shards.
    pub fn get(&self) -> u64 {
        self.cells
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    fn reset(&self) {
        for s in &self.cells.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// An `f64` gauge: last write wins through [`set`](Gauge::set), or a
/// running maximum through [`raise`](Gauge::raise).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if that is larger, so concurrent
    /// writers leave the maximum of their values.
    pub fn raise(&self, value: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (value > f64::from_bits(cur)).then_some(value.to_bits())
            });
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with fixed upper-bound buckets plus an overflow bucket.
/// Bucket counts are plain atomic adds, so the drained counts merge
/// deterministically; the running sum is a CAS-add of `f64` bits and is
/// deterministic only up to floating-point reassociation.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramCells>,
}

struct HistogramCells {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramCells {
                bounds: bounds.to_vec(),
                counts,
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    pub fn observe(&self, value: f64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            count: counts.iter().sum(),
            sum: f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed)),
            counts,
        }
    }

    fn reset(&self) {
        for c in &self.inner.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.inner.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A drained histogram: bucket bounds, per-bucket counts (the final entry
/// is the overflow bucket), total count, and the (approximate) sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named-metric registry. `counter` / `gauge` / `histogram` get-or-create
/// by name; handles are cheap clones, so call sites should cache them
/// (e.g. in a `OnceLock`) rather than re-looking-up in hot loops.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Gets or creates the histogram `name` with the given bucket bounds
    /// (ignored if the histogram already exists).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind,
    /// or if `bounds` is not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Drains every metric into a deterministic, name-ordered snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_prefixed("")
    }

    /// Drains the metrics whose names start with `prefix` (e.g. the
    /// `netsim.` slice) into a name-ordered snapshot.
    pub fn snapshot_prefixed(&self, prefix: &str) -> MetricsSnapshot {
        let metrics = self.lock();
        let mut snap = MetricsSnapshot::default();
        let slice = metrics
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(name, _)| name.starts_with(prefix));
        for (name, metric) in slice {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Zeroes every registered metric (registrations and handles survive).
    pub fn reset(&self) {
        let metrics = self.lock();
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.set(0.0),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Renders the registry as an aligned plain-text dump (the `--metrics`
    /// output), one metric per line in name order.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// A point-in-time, name-ordered copy of a registry's values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter's value, or 0 if absent (makes delta code total).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("# counters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("{name} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("# gauges\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("# histograms\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!("{name} count={} mean={:.6}", h.count, h.mean()));
                for (i, c) in h.counts.iter().enumerate() {
                    match h.bounds.get(i) {
                        Some(b) => out.push_str(&format!(" le{b}={c}")),
                        None => out.push_str(&format!(" inf={c}")),
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// Renders the snapshot as Prometheus-style text exposition: `# TYPE`
    /// comments, sanitised names, cumulative `_bucket{le=...}` series plus
    /// `_sum`/`_count` for histograms. Deterministic (name order).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cumulative += c;
                match h.bounds.get(i) {
                    Some(b) => {
                        out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cumulative}\n"));
                    }
                    None => {
                        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    }
                }
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

/// A sliding-window histogram for rolling-tail latency (p50/p99/p999).
///
/// Samples land in fixed-width time slots keyed by an externally supplied
/// clock (`now_s`), so the window is deterministic for callers that feed a
/// virtual clock; slots older than the window are pruned on every touch.
/// Quantiles are exact over the retained samples (each slot keeps raw
/// values up to a per-slot cap, counting overflow as dropped).
#[derive(Clone)]
pub struct SlidingWindowHistogram {
    inner: Arc<Mutex<WindowInner>>,
}

struct WindowInner {
    slot_secs: f64,
    slots: usize,
    per_slot_cap: usize,
    buckets: BTreeMap<i64, Vec<f64>>,
    dropped: u64,
}

impl std::fmt::Debug for SlidingWindowHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("SlidingWindowHistogram")
            .field("slot_secs", &inner.slot_secs)
            .field("slots", &inner.slots)
            .field("live_slots", &inner.buckets.len())
            .finish()
    }
}

impl SlidingWindowHistogram {
    /// A window of `slots` slots, each `slot_secs` wide (so the rolling
    /// window spans `slots * slot_secs` seconds). Each slot retains at
    /// most 65 536 raw samples.
    pub fn new(slot_secs: f64, slots: usize) -> SlidingWindowHistogram {
        assert!(slot_secs > 0.0, "slot width must be positive");
        assert!(slots > 0, "need at least one slot");
        SlidingWindowHistogram {
            inner: Arc::new(Mutex::new(WindowInner {
                slot_secs,
                slots,
                per_slot_cap: 65_536,
                buckets: BTreeMap::new(),
                dropped: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WindowInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records `value` at time `now_s` (seconds on the caller's clock).
    pub fn observe(&self, now_s: f64, value: f64) {
        let mut inner = self.lock();
        let slot = (now_s / inner.slot_secs).floor() as i64;
        prune(&mut inner, slot);
        let cap = inner.per_slot_cap;
        let bucket = inner.buckets.entry(slot).or_default();
        if bucket.len() >= cap {
            inner.dropped += 1;
        } else {
            bucket.push(value);
        }
    }

    /// Samples currently inside the window as of `now_s`.
    pub fn count(&self, now_s: f64) -> u64 {
        let mut inner = self.lock();
        let slot = (now_s / inner.slot_secs).floor() as i64;
        prune(&mut inner, slot);
        inner.buckets.values().map(|b| b.len() as u64).sum()
    }

    /// Samples discarded because a slot hit its cap.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) over the samples inside the
    /// window as of `now_s`, or `None` when the window is empty.
    pub fn quantile(&self, now_s: f64, q: f64) -> Option<f64> {
        let mut inner = self.lock();
        let slot = (now_s / inner.slot_secs).floor() as i64;
        prune(&mut inner, slot);
        let mut all: Vec<f64> = inner.buckets.values().flatten().copied().collect();
        if all.is_empty() {
            return None;
        }
        all.sort_by(f64::total_cmp);
        let idx = (q.clamp(0.0, 1.0) * (all.len() - 1) as f64).round() as usize;
        Some(all[idx.min(all.len() - 1)])
    }

    /// Renders Prometheus-style summary lines (`quantile` labels for
    /// p50/p99/p999 plus `_count`) for this window under `name`.
    pub fn render_prometheus(&self, name: &str, now_s: f64) -> String {
        let name = prometheus_name(name);
        let mut out = format!("# TYPE {name} summary\n");
        for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
            let v = self.quantile(now_s, q).unwrap_or(0.0);
            out.push_str(&format!("{name}{{quantile=\"{label}\"}} {v}\n"));
        }
        out.push_str(&format!("{name}_count {}\n", self.count(now_s)));
        out
    }
}

fn prune(inner: &mut WindowInner, now_slot: i64) {
    let oldest = now_slot - inner.slots as i64 + 1;
    inner.buckets.retain(|&slot, _| slot >= oldest);
}

/// Maps a dotted metric name onto the Prometheus charset
/// (`[a-zA-Z0-9_:]`); anything else becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry every instrumented crate reports into.
pub fn metrics() -> &'static MetricsRegistry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.count");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(reg.snapshot().counter("t.count"), 4000);
        reg.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn same_name_returns_same_counter() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        assert_eq!(reg.counter("a").get(), 5);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_values() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 7.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 562.5).abs() < 1e-9);
        assert!((snap.mean() - 112.5).abs() < 1e-9);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(3.5);
        g.set(-1.25);
        assert_eq!(g.get(), -1.25);
        // `raise` keeps the maximum, whatever order the values arrive in.
        for v in [-2.0, 4.0, 1.0] {
            g.raise(v);
        }
        assert_eq!(g.get(), 4.0);
    }

    #[test]
    fn sliding_window_quantiles_roll_off_old_samples() {
        let w = SlidingWindowHistogram::new(1.0, 10);
        for i in 0..100 {
            w.observe(0.5, i as f64);
        }
        assert_eq!(w.count(0.5), 100);
        let p50 = w.quantile(0.5, 0.5).unwrap();
        assert!((49.0..=51.0).contains(&p50), "p50 {p50}");
        let p99 = w.quantile(0.5, 0.99).unwrap();
        assert!((97.0..=99.0).contains(&p99), "p99 {p99}");
        assert_eq!(w.quantile(0.5, 0.999).unwrap(), 99.0);
        // Nine seconds later the slot is still inside the 10 s window...
        assert_eq!(w.count(9.2), 100);
        // ...but after the window passes the samples are gone.
        assert_eq!(w.count(30.0), 0);
        assert!(w.quantile(30.0, 0.5).is_none());
    }

    #[test]
    fn sliding_window_caps_each_slot() {
        let w = SlidingWindowHistogram::new(1.0, 4);
        {
            let mut inner = w.lock();
            inner.per_slot_cap = 8;
        }
        for i in 0..20 {
            w.observe(0.0, i as f64);
        }
        assert_eq!(w.count(0.0), 8);
        assert_eq!(w.dropped(), 12);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(7);
        reg.gauge("serve.queue_depth").set(2.0);
        let h = reg.histogram("serve.exec_ms", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 7\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 2\n"));
        assert!(text.contains("serve_exec_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("serve_exec_ms_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("serve_exec_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("serve_exec_ms_count 3\n"));
        // No raw dots survive into metric names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(!name.contains('.'), "unsanitised name in {line:?}");
        }
    }

    #[test]
    fn prometheus_names_are_sanitised() {
        assert_eq!(prometheus_name("a.b-c"), "a_b_c");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn window_summary_lines_render() {
        let w = SlidingWindowHistogram::new(1.0, 60);
        for i in 1..=100 {
            w.observe(0.0, i as f64);
        }
        let text = w.render_prometheus("serve.exec_ms.window", 0.0);
        assert!(text.contains("# TYPE serve_exec_ms_window summary"));
        assert!(text.contains("serve_exec_ms_window{quantile=\"0.5\"}"));
        assert!(text.contains("serve_exec_ms_window{quantile=\"0.999\"} 100\n"));
        assert!(text.contains("serve_exec_ms_window_count 100\n"));
    }

    #[test]
    fn render_text_is_name_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(1.5);
        reg.histogram("h.one", &[1.0]).observe(0.5);
        let text = reg.render_text();
        let a = text.find("a.first 2").unwrap();
        let z = text.find("z.last 1").unwrap();
        assert!(a < z);
        assert!(text.contains("m.mid 1.5"));
        assert!(text.contains("h.one count=1"));
    }
}
