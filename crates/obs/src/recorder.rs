//! Flight recorder: an always-on, per-thread-sharded bounded ring buffer
//! retaining the last N spans and events, dumped to a
//! Perfetto-compatible JSON file when something goes wrong.
//!
//! The recorder implements [`Collector`], so it rides the facade's
//! relaxed-atomic fast path: with no recorder (or no collector) installed
//! every instrumentation site costs one load. When installed, each record
//! is one uncontended mutex acquire — records land in the shard pinned to
//! the recording thread, so threads never contend for a ring except
//! against [`FlightRecorder::dump`] itself.
//!
//! Dumps are triggered, not periodic: check convictions, fault repairs,
//! serve shed spikes, SLO breaches, and panics (via
//! [`install_panic_hook`]) each snapshot the rings into a
//! `flightrec-<trigger>-<n>.json` rendered through [`crate::export`], so
//! `crossmesh validate-trace` accepts the dump unchanged and
//! [Perfetto](https://ui.perfetto.dev) opens it directly.

use crate::collect::Collector;
use crate::export::TraceExport;
use crate::{Event, Level, SpanId};
use crossmesh_hb as hb;
use parking_lot::Mutex as ShardMutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ring shards. Mirrors the metrics registry's shard count: enough that
/// the worker pool's threads land on distinct rings.
const SHARDS: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's ring shard, assigned round-robin on first record.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

#[derive(Debug, Clone)]
enum RecordKind {
    Event {
        level: Level,
        target: &'static str,
        name: &'static str,
    },
    SpanOpen {
        id: u64,
        target: &'static str,
        name: &'static str,
    },
    SpanClose {
        id: u64,
        name: &'static str,
    },
}

#[derive(Debug, Clone)]
struct Record {
    seq: u64,
    ts_us: f64,
    kind: RecordKind,
}

#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<Record>,
    dropped: u64,
}

/// The per-thread-sharded bounded ring buffer. See the module docs.
///
/// The shard locks are the instrumented `parking_lot` shim and each ring
/// is a declared `check::race` access point, so the race detector audits
/// the push/dump protocol along with the rest of the concurrent core.
#[derive(Debug)]
pub struct FlightRecorder {
    shards: Vec<ShardMutex<Ring>>,
    cap_per_shard: usize,
    epoch: Instant,
    seq: AtomicU64,
    dumps: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder retaining the last ~16 384 records.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(16_384)
    }

    /// A recorder retaining roughly the last `capacity` records (split
    /// evenly across the thread shards).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            shards: (0..SHARDS)
                .map(|_| ShardMutex::new(Ring::default()))
                .collect(),
            cap_per_shard: (capacity / SHARDS).max(1),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
        }
    }

    fn push(&self, kind: RecordKind) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let shard = &self.shards[shard_index()];
        let mut ring = shard.lock();
        hb::write(hb::object_id(shard));
        if ring.records.len() >= self.cap_per_shard {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(Record { seq, ts_us, kind });
    }

    /// Total records ever pushed (retained or since evicted).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records evicted from full rings.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let ring = s.lock();
                hb::read(hb::object_id(s));
                ring.dropped
            })
            .sum()
    }

    /// Dumps performed so far (also the sequence number in dump filenames).
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Renders the retained records as a Perfetto-compatible timeline:
    /// matched span open/close pairs become complete (`X`) events on
    /// their shard's thread row, free-standing events become instants,
    /// the eviction count becomes a `flightrec.dropped` counter track, and
    /// the trigger itself is marked with a `dump: <trigger>` instant. The rings are snapshotted,
    /// not cleared — overlapping triggers each get the full recent window.
    pub fn dump(&self, trigger: &str) -> String {
        let mut records: Vec<(usize, Record)> = Vec::new();
        let mut dropped = 0u64;
        for (shard, ring_lock) in self.shards.iter().enumerate() {
            let ring = ring_lock.lock();
            hb::read(hb::object_id(ring_lock));
            dropped += ring.dropped;
            records.extend(ring.records.iter().map(|r| (shard, r.clone())));
        }
        records.sort_by_key(|(_, r)| r.seq);

        let mut export = TraceExport::new();
        export.add_process(0, "flight-recorder");
        for shard in 0..SHARDS as u32 {
            export.add_thread(0, shard, format!("shard {shard}"));
        }

        let mut open: HashMap<u64, (f64, &'static str, &'static str, usize)> = HashMap::new();
        let now_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        for (shard, record) in &records {
            match &record.kind {
                RecordKind::Event {
                    level,
                    target,
                    name,
                } => {
                    export.add_instant(
                        format!("[{}] {target}: {name}", level.as_str()),
                        "flightrec",
                        record.ts_us,
                        0,
                        *shard as u32,
                    );
                }
                RecordKind::SpanOpen { id, target, name } => {
                    open.insert(*id, (record.ts_us, target, name, *shard));
                }
                RecordKind::SpanClose { id, name } => match open.remove(id) {
                    Some((ts_us, target, _open_name, open_shard)) => {
                        export.add_complete(
                            format!("{target}: {name}"),
                            "flightrec",
                            ts_us,
                            record.ts_us - ts_us,
                            0,
                            open_shard as u32,
                        );
                    }
                    None => {
                        // The open scrolled out of the ring; keep the
                        // close visible as an instant.
                        export.add_instant(
                            format!("close: {name}"),
                            "flightrec",
                            record.ts_us,
                            0,
                            *shard as u32,
                        );
                    }
                },
            }
        }
        // Spans still open when the dump fired extend to the dump edge.
        for (ts_us, target, name, shard) in open.into_values() {
            export.add_complete(
                format!("{target}: {name} (open)"),
                "flightrec",
                ts_us,
                now_us - ts_us,
                0,
                shard as u32,
            );
        }
        export.add_instant(format!("dump: {trigger}"), "flightrec", now_us, 0, 0);
        export.add_counter("flightrec.dropped", &[(now_us, dropped as f64)]);
        export.render()
    }

    /// Dumps into `dir` as `flightrec-<trigger>-<n>.json` (creating the
    /// directory), returning the written path. The trigger is sanitised
    /// into the filename; `n` increments per dump from this recorder.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn dump_to_dir(&self, dir: &Path, trigger: &str) -> io::Result<PathBuf> {
        let n = self.dumps.fetch_add(1, Ordering::Relaxed) + 1;
        let slug: String = trigger
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flightrec-{slug}-{n:04}.json"));
        std::fs::write(&path, self.dump(trigger))?;
        Ok(path)
    }
}

impl Collector for FlightRecorder {
    fn on_event(&self, event: &Event<'_>) {
        self.push(RecordKind::Event {
            level: event.level,
            target: event.target,
            name: event.name,
        });
    }

    fn on_span_open(&self, id: SpanId, span: &Event<'_>) {
        self.push(RecordKind::SpanOpen {
            id: id.0,
            target: span.target,
            name: span.name,
        });
    }

    fn on_span_close(&self, id: SpanId, _target: &'static str, name: &'static str) {
        self.push(RecordKind::SpanClose { id: id.0, name });
    }
}

static GLOBAL: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);

/// Replaces the process-wide recorder dump triggers target, returning the
/// previous one. The global recorder is *not* automatically installed as
/// the facade collector — callers compose it (usually via
/// [`Fanout`](crate::Fanout)) with whatever collector is already active.
pub fn set_global(rec: Option<Arc<FlightRecorder>>) -> Option<Arc<FlightRecorder>> {
    std::mem::replace(&mut *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()), rec)
}

/// The process-wide recorder, if one is set.
pub fn global() -> Option<Arc<FlightRecorder>> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Best-effort trigger: dumps the global recorder (if any) into `dir`,
/// bumping `obs.recorder.dumps` and `obs.recorder.dump.<trigger>` in the
/// global metrics registry. Returns the written path, or `None` when no
/// recorder is set or the write failed (a failing dump must never take
/// down the process it is trying to explain).
pub fn dump_global(dir: &Path, trigger: &str) -> Option<PathBuf> {
    let rec = global()?;
    let path = rec.dump_to_dir(dir, trigger).ok()?;
    crate::metrics().counter("obs.recorder.dumps").inc();
    crate::metrics()
        .counter(&format!("obs.recorder.dump.{trigger}"))
        .inc();
    Some(path)
}

static PANIC_HOOK: AtomicBool = AtomicBool::new(false);

/// Chains a panic hook that dumps the global flight recorder into `dir`
/// (trigger `panic`) before delegating to the previous hook. Idempotent:
/// only the first call installs.
pub fn install_panic_hook(dir: PathBuf) {
    if PANIC_HOOK.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = dump_global(&dir, "panic");
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect, export, Field};

    /// Pushes one event record, as an installed recorder does per event.
    fn tick(rec: &FlightRecorder) {
        rec.push(RecordKind::Event {
            level: Level::Debug,
            target: "test",
            name: "tick",
        });
    }

    #[test]
    fn records_spans_and_events_into_a_valid_dump() {
        let rec = Arc::new(FlightRecorder::new());
        let _lock = collect::test_lock();
        {
            let _g = crate::install(rec.clone());
            let span = crate::Span::enter(Level::Info, "planner", "search", &[]);
            crate::event(Level::Debug, "runtime", "tick", &[Field::u64("n", 1)]);
            drop(span);
        }
        assert!(rec.recorded() >= 3);

        let json = rec.dump("unit-test");
        let summary = export::validate(&json).expect("dump validates");
        assert!(summary.phases.contains("M"));
        assert!(summary.phases.contains("X"), "span pair becomes X");
        assert!(summary.phases.contains("i"));
        assert!(summary.phases.contains("C"));
        assert!(summary.counter_tracks.contains("flightrec.dropped"));
        assert!(json.contains("planner: search"));
        assert!(json.contains("dump: unit-test"));
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest_records() {
        let rec = FlightRecorder::with_capacity(SHARDS * 4);
        for _ in 0..100 {
            tick(&rec);
        }
        // This thread writes one shard, so exactly cap_per_shard survive.
        assert_eq!(rec.recorded(), 100);
        assert_eq!(rec.dropped(), 100 - 4);
        let kept: Vec<u64> = rec.shards[shard_index()]
            .lock()
            .records
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(kept, [96, 97, 98, 99], "the newest records are retained");
        export::validate(&rec.dump("bounded")).expect("bounded dump validates");
    }

    #[test]
    fn concurrent_recording_never_loses_more_than_the_cap() {
        let rec = Arc::new(FlightRecorder::with_capacity(100_000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for _ in 0..1000 {
                        tick(&rec);
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 4000);
        assert_eq!(rec.dropped(), 0);
        export::validate(&rec.dump("threads")).expect("valid dump under concurrency");
    }

    #[test]
    fn dump_to_dir_names_and_numbers_files() {
        let dir = std::env::temp_dir().join(format!("flightrec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new();
        tick(&rec);
        let p1 = rec.dump_to_dir(&dir, "slo breach!").unwrap();
        let p2 = rec.dump_to_dir(&dir, "slo breach!").unwrap();
        assert!(p1.file_name().unwrap().to_str().unwrap() == "flightrec-slo-breach--0001.json");
        assert!(p2.to_str().unwrap().ends_with("0002.json"));
        export::validate(&std::fs::read_to_string(&p1).unwrap()).expect("file validates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn global_recorder_round_trips() {
        let _lock = collect::test_lock();
        let prev = set_global(Some(Arc::new(FlightRecorder::new())));
        assert!(global().is_some());
        set_global(prev);
    }
}
