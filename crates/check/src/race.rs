//! Happens-before data-race detection for the concurrent core.
//!
//! A FastTrack-style vector-clock engine (Flanagan & Freund, PLDI 2009)
//! fed by the `crossmesh-hb` instrumentation seam: the vendored sync
//! shims emit lock acquire/release edges, `shims/rayon` emits per-job
//! fork/join edges, and the runtime emits channel send/recv and ack
//! edges. Shared state is *declared*, not discovered: the dataplane
//! buffers, `PlanCache` shards, admission queues, and the flight-recorder
//! ring each mark their reads and writes as access points. Two accesses
//! to the same access point with at least one write and no
//! happens-before path between them convict as a `race.*`
//! [`Diagnostic`] carrying both stack-side source locations.
//!
//! Epoch compression keeps the common case O(1): each variable's last
//! write is a single `(thread, clock)` epoch, and reads stay an epoch
//! until two unordered readers force inflation to a full read vector
//! (deflated again by the next ordered write). Full vector-clock joins
//! happen only at synchronization edges.
//!
//! The engine is a [`hb::Sink`]: install it with [`hb::install`] (via
//! [`run_defect`] / [`run_clean`] / [`run_armed`]), run the
//! workload, and drain findings. It is deliberately built on `std::sync`
//! only — a sink that acquired an instrumented lock would re-enter the
//! seam from inside itself.

use crate::{Diagnostic, Rule};
use crossmesh_hb as hb;
use parking_lot::Mutex as PlMutex;
use rayon::ThreadPoolBuilder;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A `(thread, clock)` pair: the compressed representation of "the last
/// access was by `tid` at its local time `clock`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epoch {
    tid: u32,
    clock: u32,
}

/// A dense vector clock indexed by the seam's thread ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Vc(Vec<u32>);

impl Vc {
    fn get(&self, tid: u32) -> u32 {
        self.0.get(tid as usize).copied().unwrap_or(0)
    }

    fn set(&mut self, tid: u32, clock: u32) {
        let idx = tid as usize;
        if self.0.len() <= idx {
            self.0.resize(idx + 1, 0);
        }
        self.0[idx] = clock;
    }

    fn tick(&mut self, tid: u32) {
        let next = self.get(tid) + 1;
        self.set(tid, next);
    }

    fn join(&mut self, other: &Vc) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// `epoch ⊑ self`: the access at `epoch` happens-before everything
    /// the owner of `self` does from now on.
    fn covers(&self, epoch: Epoch) -> bool {
        epoch.clock <= self.get(epoch.tid)
    }
}

/// Last-reader state for one variable: an epoch while reads are totally
/// ordered, a full per-thread map once they are not.
#[derive(Debug, Clone)]
enum ReadState {
    Epoch(Option<(Epoch, hb::Site)>),
    Share(HashMap<u32, (u32, hb::Site)>),
}

impl Default for ReadState {
    fn default() -> Self {
        ReadState::Epoch(None)
    }
}

/// FastTrack per-variable state.
#[derive(Debug, Clone, Default)]
struct VarState {
    write: Option<(Epoch, hb::Site)>,
    read: ReadState,
}

/// One racy pair, pre-diagnostic.
#[derive(Debug, Clone)]
struct Finding {
    rule: Rule,
    object: u64,
    prior_thread: u32,
    prior_site: hb::Site,
    thread: u32,
    site: hb::Site,
}

#[derive(Debug, Default)]
struct Engine {
    /// Per-thread clocks, indexed by seam thread id.
    threads: HashMap<u32, Vc>,
    /// Per-synchronization-object clocks (locks, channels, job edges).
    objects: HashMap<u64, Vc>,
    /// Per-access-point FastTrack state.
    vars: HashMap<u64, VarState>,
    findings: Vec<Finding>,
    /// Dedupe key: one finding per (object, rule, site pair).
    reported: HashSet<(u64, &'static str, hb::Site, hb::Site)>,
    events: u64,
}

impl Engine {
    fn thread_vc(&mut self, tid: u32) -> &mut Vc {
        self.threads.entry(tid).or_insert_with(|| {
            let mut vc = Vc::default();
            vc.set(tid, 1);
            vc
        })
    }

    fn report(&mut self, rule: Rule, prior: (u32, hb::Site), ev: &hb::Event) {
        let key = (ev.object, rule.id(), prior.1, ev.site);
        if self.reported.insert(key) {
            self.findings.push(Finding {
                rule,
                object: ev.object,
                prior_thread: prior.0,
                prior_site: prior.1,
                thread: ev.thread,
                site: ev.site,
            });
        }
    }

    fn handle(&mut self, ev: hb::Event) {
        self.events += 1;
        match ev.kind {
            hb::EventKind::Acquire => {
                if let Some(obj) = self.objects.get(&ev.object).cloned() {
                    self.thread_vc(ev.thread).join(&obj);
                }
            }
            hb::EventKind::Release => {
                // Join (not overwrite) into the object clock: a proper
                // mutex release always covers the previous one (join ==
                // overwrite there), but ack-counter edges accumulate
                // releases from *several* completers before the dispatcher
                // acquires — overwriting would drop all but the last.
                let vc = self.thread_vc(ev.thread).clone();
                self.objects
                    .entry(ev.object)
                    .and_modify(|obj| obj.join(&vc))
                    .or_insert(vc);
                self.thread_vc(ev.thread).tick(ev.thread);
            }
            hb::EventKind::Read => self.on_read(&ev),
            hb::EventKind::Write => self.on_write(&ev),
        }
    }

    fn on_read(&mut self, ev: &hb::Event) {
        let vc = self.thread_vc(ev.thread).clone();
        let epoch = Epoch {
            tid: ev.thread,
            clock: vc.get(ev.thread),
        };
        let var = self.vars.entry(ev.object).or_default();
        // Same-epoch fast path: this thread already read here since its
        // last synchronization.
        if let ReadState::Epoch(Some((r, _))) = var.read {
            if r == epoch {
                return;
            }
        }
        let write = var.write;
        let race = match write {
            Some((w, ws)) if !vc.covers(w) => Some((w.tid, ws)),
            _ => None,
        };
        match &mut var.read {
            ReadState::Epoch(slot @ None) => *slot = Some((epoch, ev.site)),
            ReadState::Epoch(slot @ Some(_)) => {
                let (prev, prev_site) = slot.expect("checked Some");
                if vc.covers(prev) {
                    *slot = Some((epoch, ev.site));
                } else {
                    // Two unordered readers: inflate to the read-share
                    // map. Concurrent reads are not a race; the map
                    // exists so a later write can be checked against
                    // every one of them.
                    let mut share = HashMap::new();
                    share.insert(prev.tid, (prev.clock, prev_site));
                    share.insert(epoch.tid, (epoch.clock, ev.site));
                    var.read = ReadState::Share(share);
                }
            }
            ReadState::Share(share) => {
                share.insert(epoch.tid, (epoch.clock, ev.site));
            }
        }
        if let Some(prior) = race {
            self.report(Rule::RaceWriteRead, prior, ev);
        }
    }

    fn on_write(&mut self, ev: &hb::Event) {
        let vc = self.thread_vc(ev.thread).clone();
        let epoch = Epoch {
            tid: ev.thread,
            clock: vc.get(ev.thread),
        };
        let var = self.vars.entry(ev.object).or_default();
        if var.write.map(|(w, _)| w == epoch).unwrap_or(false) {
            return;
        }
        let mut races: Vec<(Rule, (u32, hb::Site))> = Vec::new();
        if let Some((w, ws)) = var.write {
            if !vc.covers(w) {
                races.push((Rule::RaceWriteWrite, (w.tid, ws)));
            }
        }
        match &var.read {
            ReadState::Epoch(Some((r, rs))) => {
                if !vc.covers(*r) {
                    races.push((Rule::RaceReadWrite, (r.tid, *rs)));
                }
            }
            ReadState::Share(share) => {
                for (&tid, &(clock, rs)) in share {
                    if !vc.covers(Epoch { tid, clock }) {
                        races.push((Rule::RaceReadWrite, (tid, rs)));
                    }
                }
            }
            ReadState::Epoch(None) => {}
        }
        var.write = Some((epoch, ev.site));
        // Deflate the read share once this write covers every reader:
        // later same-thread accesses go back to the O(1) epoch path.
        if races.is_empty() {
            var.read = ReadState::Epoch(None);
        }
        for (rule, prior) in races {
            self.report(rule, prior, ev);
        }
    }
}

/// The vector-clock race detector; see the module docs. One instance per
/// armed section — create, [`hb::install`], run the workload, then
/// [`drain_diagnostics`](RaceDetector::drain_diagnostics).
#[derive(Debug, Default)]
pub struct RaceDetector {
    inner: Mutex<Engine>,
}

impl RaceDetector {
    /// A fresh detector with no recorded state.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Events processed so far (sync edges + declared accesses).
    pub fn events(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .events
    }

    /// Takes the accumulated racy pairs as `race.*` diagnostics (clearing
    /// them), recording the count in the `check.race_findings` metric.
    /// Each diagnostic's location is the convicting access; the
    /// explanation carries both stack-side locations and threads.
    pub fn drain_diagnostics(&self) -> Vec<Diagnostic> {
        let findings: Vec<Finding> = {
            let mut engine = self
                .inner
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            engine.reported.clear();
            engine.findings.drain(..).collect()
        };
        let diags: Vec<Diagnostic> = findings
            .iter()
            .map(|f| {
                let (prior_kind, kind) = match f.rule {
                    Rule::RaceWriteWrite => ("write", "write"),
                    Rule::RaceReadWrite => ("read", "write"),
                    _ => ("write", "read"),
                };
                Diagnostic::error(
                    f.rule,
                    f.site.to_string(),
                    format!(
                        "{kind} at {} (thread {}) races {prior_kind} at {} (thread {}): \
                         no happens-before edge orders them on shared object {:#x}",
                        f.site, f.thread, f.prior_site, f.prior_thread, f.object
                    ),
                )
            })
            .collect();
        crate::record_race_findings(diags.len() as u64);
        crate::record_run("check.race", &diags);
        diags
    }
}

impl hb::Sink for RaceDetector {
    fn event(&self, ev: hb::Event) {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .handle(ev);
    }
}

/// The seeded race defects the self-test injects. Each is a small
/// concurrent program with a deliberate synchronization hole patterned on
/// a real failure mode of the runtime; the detector must convict every
/// one under every schedule seed, because the *absence of an edge* — not
/// the observed interleaving — is what convicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Two senders write the same destination buffer with no lock and no
    /// channel edge: the classic overlapping-assignment corruption.
    UnsyncBufferWrite,
    /// Both sides release the shard lock *before* touching the shared
    /// state it was supposed to protect: the guard was dropped early.
    LockDroppedEarly,
    /// A producer hands a buffer to a consumer through a bare flag
    /// instead of an ack frame: data crosses threads with no edge.
    MissingAckEdge,
}

impl Defect {
    /// Every defect class, in self-test order.
    pub fn all() -> [Defect; 3] {
        [
            Defect::UnsyncBufferWrite,
            Defect::LockDroppedEarly,
            Defect::MissingAckEdge,
        ]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Defect::UnsyncBufferWrite => "unsync-buffer-write",
            Defect::LockDroppedEarly => "lock-dropped-early",
            Defect::MissingAckEdge => "missing-ack-edge",
        }
    }

    /// The rules under which this defect may convict. Write/write holes
    /// always convict as [`Rule::RaceWriteWrite`]; a read/write hole
    /// convicts as read-write or write-read depending on which access the
    /// engine observes second.
    pub fn expected_rules(self) -> &'static [Rule] {
        match self {
            Defect::UnsyncBufferWrite => &[Rule::RaceWriteWrite],
            Defect::LockDroppedEarly => &[Rule::RaceReadWrite, Rule::RaceWriteRead],
            Defect::MissingAckEdge => &[Rule::RaceWriteRead],
        }
    }

    fn execute(self) {
        match self {
            Defect::UnsyncBufferWrite => {
                let buffer = Arc::new(AtomicU64::new(0));
                let point = hb::fresh_id();
                let b1 = buffer.clone();
                let writer_a = std::thread::spawn(move || {
                    hb::preempt();
                    hb::write(point);
                    b1.fetch_add(0x1111, Ordering::SeqCst);
                });
                let b2 = buffer;
                let writer_b = std::thread::spawn(move || {
                    hb::preempt();
                    hb::write(point);
                    b2.fetch_add(0x2222, Ordering::SeqCst);
                });
                let _ = writer_a.join();
                let _ = writer_b.join();
            }
            Defect::LockDroppedEarly => {
                let shard = Arc::new(PlMutex::new(0u64));
                let point = hb::fresh_id();
                let s1 = shard.clone();
                let writer = std::thread::spawn(move || {
                    let guard = s1.lock();
                    drop(guard); // the bug: the shard lock no longer covers the write
                    hb::write(point);
                });
                let s2 = shard;
                let reader = std::thread::spawn(move || {
                    let guard = s2.lock();
                    drop(guard); // same hole on the read side
                    hb::read(point);
                });
                let _ = writer.join();
                let _ = reader.join();
            }
            Defect::MissingAckEdge => {
                let slot = Arc::new(AtomicU64::new(0));
                let ready = Arc::new(AtomicBool::new(false));
                let point = hb::fresh_id();
                let (s1, r1) = (slot.clone(), ready.clone());
                let producer = std::thread::spawn(move || {
                    hb::write(point);
                    s1.store(0xF00D, Ordering::Relaxed);
                    // The bug: publication through a relaxed flag, where
                    // the runtime would send an ack frame (an hb edge).
                    r1.store(true, Ordering::Relaxed);
                });
                let consumer = std::thread::spawn(move || {
                    while !ready.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    hb::read(point);
                    let _ = slot.load(Ordering::Relaxed);
                });
                let _ = producer.join();
                let _ = consumer.join();
            }
        }
    }
}

/// Runs one seeded defect with the detector and schedule perturbation
/// armed, returning its diagnostics. Serializes on [`hb::test_lock`]
/// internally — callers must not hold it.
pub fn run_defect(defect: Defect, seed: u64) -> Vec<Diagnostic> {
    run_armed(seed, || defect.execute())
}

/// Runs `workload` with a fresh detector installed and the schedule
/// fuzzer armed under `seed`, and returns the findings. Serializes on
/// [`hb::test_lock`] internally.
pub fn run_armed(seed: u64, workload: impl FnOnce()) -> Vec<Diagnostic> {
    let _serial = hb::test_lock();
    let detector = Arc::new(RaceDetector::new());
    let _armed = hb::install(detector.clone());
    let _fuzzing = hb::fuzz(seed);
    workload();
    detector.drain_diagnostics()
}

/// Runs the clean concurrent workload — rayon scope fan-out and a
/// `par_iter` map over a `width`-thread pool, all shared state behind an
/// instrumented `parking_lot` mutex — with the detector and perturbation
/// armed. Returns the diagnostics (which must be empty: every access is
/// ordered by a lock or fork/join edge) after asserting the byte-identical
/// equivalence oracle. Serializes on [`hb::test_lock`] internally.
pub fn run_clean(width: usize, seed: u64) -> Vec<Diagnostic> {
    run_armed(seed, || {
        let pool = ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("pool builds");
        let tally = PlMutex::new(Vec::<u64>::new());
        let point = hb::fresh_id();
        pool.install(|| {
            rayon::scope(|s| {
                for i in 0..24u64 {
                    let tally = &tally;
                    s.spawn(move |_| {
                        let mut guard = tally.lock();
                        hb::write(point);
                        guard.push(i * i);
                    });
                }
            });
            // The scope's join edges order every job's write before this read.
            let mut guard = tally.lock();
            hb::read(point);
            guard.sort_unstable();

            use rayon::prelude::*;
            let items: Vec<u64> = (0..48).collect();
            let squared: Vec<u64> = items.par_iter().map(|&x| x * x).collect();
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(
                squared, expected,
                "par_iter oracle diverged at width {width} seed {seed}"
            );
            let expected_tally: Vec<u64> = (0..24u64).map(|i| i * i).collect();
            assert_eq!(
                *guard, expected_tally,
                "scope tally oracle diverged at width {width} seed {seed}"
            );
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(line: u32) -> hb::Site {
        hb::Site {
            file: "synthetic.rs",
            line,
        }
    }

    fn ev(kind: hb::EventKind, thread: u32, object: u64, line: u32) -> hb::Event {
        hb::Event {
            kind,
            thread,
            object,
            site: site(line),
        }
    }

    fn feed(events: &[hb::Event]) -> Vec<Diagnostic> {
        use crossmesh_hb::Sink;
        let det = RaceDetector::new();
        for e in events {
            det.event(*e);
        }
        det.drain_diagnostics()
    }

    const LOCK: u64 = 10;
    const X: u64 = 99;

    #[test]
    fn lock_protected_accesses_are_clean() {
        use hb::EventKind::{Acquire, Read, Release, Write};
        let diags = feed(&[
            ev(Acquire, 0, LOCK, 1),
            ev(Write, 0, X, 2),
            ev(Release, 0, LOCK, 3),
            ev(Acquire, 1, LOCK, 4),
            ev(Read, 1, X, 5),
            ev(Write, 1, X, 6),
            ev(Release, 1, LOCK, 7),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unordered_writes_convict_once() {
        use hb::EventKind::Write;
        let diags = feed(&[ev(Write, 0, X, 1), ev(Write, 1, X, 2), ev(Write, 1, X, 2)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::RaceWriteWrite);
        assert!(diags[0].explanation.contains("synthetic.rs:1"));
        assert!(diags[0].explanation.contains("synthetic.rs:2"));
    }

    #[test]
    fn unordered_write_then_read_convicts_write_read() {
        use hb::EventKind::{Read, Write};
        let diags = feed(&[ev(Write, 0, X, 1), ev(Read, 1, X, 2)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::RaceWriteRead);
    }

    #[test]
    fn read_share_then_unordered_write_convicts_every_reader() {
        use hb::EventKind::{Read, Write};
        let diags = feed(&[ev(Read, 0, X, 1), ev(Read, 1, X, 2), ev(Write, 2, X, 3)]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::RaceReadWrite));
    }

    #[test]
    fn fork_edge_orders_spawner_before_job() {
        use hb::EventKind::{Acquire, Release, Write};
        const EDGE: u64 = 77;
        let diags = feed(&[
            ev(Write, 0, X, 1),
            ev(Release, 0, EDGE, 2),
            ev(Acquire, 1, EDGE, 3),
            ev(Write, 1, X, 4),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn multi_completer_counter_chain_accumulates_releases() {
        use hb::EventKind::{Acquire, Read, Release, Write};
        // Two completers each release the pending-counter edge after
        // writing their half; the dispatcher acquires once the count hits
        // zero. Join semantics must keep *both* releases in the edge.
        const PENDING: u64 = 55;
        let diags = feed(&[
            ev(Write, 0, X, 1),
            ev(Release, 0, PENDING, 2),
            ev(Write, 1, X + 1, 3),
            ev(Release, 1, PENDING, 4),
            ev(Acquire, 2, PENDING, 5),
            ev(Read, 2, X, 6),
            ev(Read, 2, X + 1, 7),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn condvar_handoff_through_lock_is_clean() {
        use hb::EventKind::{Acquire, Read, Release, Write};
        // Producer writes under the lock; consumer's wait re-acquires it.
        let diags = feed(&[
            ev(Acquire, 1, LOCK, 1), // consumer takes the lock first
            ev(Release, 1, LOCK, 2), // ... and releases it inside wait_for
            ev(Acquire, 0, LOCK, 3),
            ev(Write, 0, X, 4),
            ev(Release, 0, LOCK, 5),
            ev(Acquire, 1, LOCK, 6), // wait_for returns holding the lock
            ev(Read, 1, X, 7),
            ev(Release, 1, LOCK, 8),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn every_defect_convicts_under_a_matching_rule() {
        for defect in Defect::all() {
            for seed in [0, 1, 7] {
                let diags = run_defect(defect, seed);
                assert!(
                    !diags.is_empty(),
                    "defect {} seed {seed} did not convict",
                    defect.name()
                );
                assert!(
                    diags
                        .iter()
                        .any(|d| defect.expected_rules().contains(&d.rule)),
                    "defect {} seed {seed} convicted under the wrong rule: {diags:?}",
                    defect.name()
                );
            }
        }
    }

    #[test]
    fn clean_workload_is_silent_at_small_widths() {
        for width in [1, 4] {
            let diags = run_clean(width, 3);
            assert!(diags.is_empty(), "width {width}: {diags:?}");
        }
    }

    #[test]
    fn detector_counts_events() {
        use crossmesh_hb::Sink;
        let det = RaceDetector::new();
        det.event(ev(hb::EventKind::Write, 0, X, 1));
        assert_eq!(det.events(), 1);
    }
}
