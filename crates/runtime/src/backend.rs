//! The threaded wall-clock executor behind [`Backend`].
//!
//! Execution model:
//!
//! * one **compute thread** per device runs `Compute`/`ComputeFlops` tasks
//!   serially (FIFO in ready order, like the simulator's device queues),
//!   occupying wall time with a calibrated sleep+spin;
//! * one **send thread** per device chunks each `Flow` into frames and
//!   pushes them to the destination device — through a bounded in-process
//!   channel (intra-host; a frame is its length, nothing is copied) or a
//!   real TCP loopback socket (inter-host, on the [`ThreadedBackend::tcp`]
//!   transport, where the frame's zero bytes really cross the socket);
//! * one **receive thread** per device counts delivered bytes per flow and
//!   completes the flow task when its final frame arrives;
//! * `Marker` tasks complete inline, instantly, on whichever thread
//!   releases their last dependency.
//!
//! Dependency release is the happens-before edge: a task's finish
//! timestamp is stored **before** any dependent's pending count is
//! decremented, and timestamps come from a single monotonic clock, so
//! `finish(dep) <= start(task)` holds in the emitted [`Trace`] exactly as
//! it does in the simulator.
//!
//! Those edges are also *declared* to the `crossmesh-hb` seam so the
//! `check::race` vector-clock detector can audit them: every dispatch
//! channel send/recv, ack-counter decrement, and per-flow frame delivery
//! emits a release/acquire pair, and the per-task timestamp slots are
//! declared write access points (a double-dispatch convicts as
//! `race.write-write`). Disarmed, each emission is one relaxed atomic
//! load and a predicted branch.

use crossmesh_hb as hb;
use crossmesh_netsim::{
    Backend, ClusterSpec, DeviceId, FailureKind, FaultStats, SimError, TaskGraph, TaskId, Trace,
    TraceBuilder, Work,
};
use crossmesh_obs as obs;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Registry handles for the threaded backend, resolved once. Counters are
/// sharded, so the per-frame cost is one relaxed atomic add.
struct RuntimeMetrics {
    flows: obs::Counter,
    frames: obs::Counter,
    queue_depth: obs::Histogram,
}

fn runtime_metrics() -> &'static RuntimeMetrics {
    static METRICS: OnceLock<RuntimeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = obs::metrics();
        RuntimeMetrics {
            flows: m.counter("runtime.flows"),
            frames: m.counter("runtime.frames"),
            queue_depth: m.histogram(
                "runtime.queue_depth",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
        }
    })
}

/// Wall seconds one *simulated* compute second occupies: a 2 s simulated
/// kernel spins for 2 ms. Flows are unaffected — they take however long
/// the bytes take to move.
const TIME_SCALE: f64 = 1e-3;

/// Maximum payload bytes per frame; a TCP frame header announcing more is
/// refused before anything is allocated for it.
const CHUNK_BYTES: usize = 1 << 20;

/// Per-device inbound frame queue depth.
const CHANNEL_DEPTH: usize = 256;

/// Wall-clock deadline after which a run is aborted with a
/// [`SimError::Backend`] error.
const DEADLINE: Duration = Duration::from_secs(120);

/// How inter-host flows move their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    /// Everything in-process: bounded channels for every edge.
    Channels,
    /// Inter-host flows cross real TCP loopback sockets (one connection
    /// per host pair on `127.0.0.1`); intra-host flows stay on channels,
    /// mirroring NVLink-vs-NIC locality.
    Tcp,
}

/// Faults injected into a threaded run, resolved to mechanical terms by
/// the `crossmesh-faults` crate (no randomness lives here).
///
/// The runtime interprets faults in wall-clock terms: dead hosts make
/// every contact fail fast after a bounded backoff (emulating per-flow
/// timeout → retry → failover), degraded hosts delay every frame they
/// send, stragglers stretch compute occupancy, and dropped flows re-send
/// their payload after an exponential backoff — tagged with an attempt
/// number so receivers discard the partial bytes of a dropped attempt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InjectedFaults {
    /// Hosts considered crashed for the whole run.
    pub dead_hosts: Vec<u32>,
    /// Per-device compute slowdown factors (device id, factor).
    pub compute_slowdown: Vec<(u32, f64)>,
    /// Extra wall delay added to every frame sent by a device on the
    /// given host (host id, delay): link degradation.
    pub frame_delay: Vec<(u32, Duration)>,
    /// Per flow task id: how many transmission attempts are dropped.
    pub flow_drops: BTreeMap<u32, u32>,
    /// Re-transmissions allowed per flow before it fails.
    pub max_retries: u32,
    /// Base wall delay before the first re-transmission; attempt `k`
    /// waits `backoff * 2^k`.
    pub backoff: Duration,
}

/// A [`Backend`] that executes task graphs for real on OS threads.
///
/// Construct with [`ThreadedBackend::threads`] or
/// [`ThreadedBackend::tcp`]; [`ThreadedBackend::with_faults`] injects
/// faults.
#[derive(Debug, Clone)]
pub struct ThreadedBackend {
    transport: TransportKind,
    chunk_bytes: usize,
    channel_depth: usize,
    deadline: Duration,
    faults: Arc<InjectedFaults>,
}

impl ThreadedBackend {
    /// A channels-only backend (no sockets involved).
    pub fn threads() -> Self {
        ThreadedBackend {
            transport: TransportKind::Channels,
            chunk_bytes: CHUNK_BYTES,
            channel_depth: CHANNEL_DEPTH,
            deadline: DEADLINE,
            faults: Arc::new(InjectedFaults::default()),
        }
    }

    /// A backend that carries inter-host flows over TCP loopback sockets.
    pub fn tcp() -> Self {
        ThreadedBackend {
            transport: TransportKind::Tcp,
            ..ThreadedBackend::threads()
        }
    }

    /// Injects the given faults into every run of this backend.
    ///
    /// # Panics
    ///
    /// Panics if a slowdown factor is not positive and finite.
    #[must_use]
    pub fn with_faults(mut self, faults: InjectedFaults) -> Self {
        for &(device, factor) in &faults.compute_slowdown {
            assert!(
                factor > 0.0 && factor.is_finite(),
                "slowdown factor {factor} for d{device} must be positive and finite"
            );
        }
        self.faults = Arc::new(faults);
        self
    }
}

impl Backend for ThreadedBackend {
    fn name(&self) -> &'static str {
        match self.transport {
            TransportKind::Channels => "threads",
            TransportKind::Tcp => "tcp",
        }
    }

    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError> {
        // The same up-front validation the simulator performs.
        for (id, task) in graph.iter() {
            let bad = match task.work {
                Work::Compute { device, .. } | Work::ComputeFlops { device, .. } => {
                    (!cluster.contains(device)).then_some(device)
                }
                Work::Flow { src, dst, .. } => {
                    [src, dst].into_iter().find(|&d| !cluster.contains(d))
                }
                Work::Marker => None,
            };
            if let Some(device) = bad {
                return Err(SimError::UnknownDevice { task: id, device });
            }
        }
        if graph.is_empty() {
            return Ok(TraceBuilder::with_capacity(0).build());
        }

        let (start_ns, finish_ns, retries) =
            run(self, cluster, graph).map_err(|failure| failure.into_sim_error(self.name()))?;

        let mut tb = TraceBuilder::with_capacity(graph.len());
        for (id, task) in graph.iter() {
            let start = start_ns[id.0 as usize].load(Ordering::Acquire);
            let finish = finish_ns[id.0 as usize].load(Ordering::Acquire);
            tb.record_interval(id, start as f64 / 1e9, finish as f64 / 1e9);
            if let Work::Flow { src, dst, bytes } = task.work {
                tb.record_flow(cluster.host_of(src), cluster.host_of(dst), bytes);
            }
        }
        if retries > 0 {
            tb.record_fault_stats(FaultStats {
                retries,
                ..FaultStats::default()
            });
        }
        Ok(tb.build())
    }
}

/// A compute worker's queue entry: the task and its wall occupancy.
/// `None` tells the worker to quit.
type ComputeJob = Option<(u32, Duration)>;

/// A send worker's queue entry: the flow task, its destination device and
/// its bytes. `None` tells the worker to quit.
type SendJob = Option<(u32, u32, u64)>;

/// Messages on a device's inbound frame queue.
enum Inbound {
    /// `len` payload bytes of `flow` arrived; the receiver counts them
    /// and reads nothing else of the frame.
    Data {
        flow: u32,
        len: usize,
        last: bool,
        attempt: u8,
    },
    Quit,
}

/// What a task does, resolved against the cluster.
#[derive(Clone, Copy)]
enum Kind {
    Compute { wall: Duration },
    Flow { dst: u32, bytes: u64 },
    Marker,
}

/// A structured worker failure: which task (if attributable), what class
/// of problem, and a human-readable message. Converted to
/// [`SimError::TaskFailed`] (task known) or [`SimError::Backend`]
/// (run-level) when the run returns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunFailure {
    task: Option<u32>,
    kind: FailureKind,
    message: String,
}

impl RunFailure {
    /// A run-level failure not attributable to one task.
    fn run(message: impl Into<String>) -> Self {
        RunFailure {
            task: None,
            kind: FailureKind::Transport,
            message: message.into(),
        }
    }

    /// A failure attributable to `task`.
    fn task(task: u32, kind: FailureKind, message: impl Into<String>) -> Self {
        RunFailure {
            task: Some(task),
            kind,
            message: message.into(),
        }
    }

    fn into_sim_error(self, backend: &'static str) -> SimError {
        match self.task {
            Some(task) => SimError::TaskFailed {
                backend,
                task: TaskId(task),
                kind: self.kind,
                detail: self.message,
            },
            None => SimError::Backend {
                backend,
                message: self.message,
            },
        }
    }
}

/// Completion bookkeeping shared by every worker.
#[derive(Debug, Default)]
struct RunState {
    finished: bool,
    error: Option<RunFailure>,
}

/// The monitor's mutex is a non-poisoning `parking_lot::Mutex`: a worker
/// that panics while holding it (or while any other worker holds it) must
/// not turn into a poisoned-lock panic storm across every thread that
/// checks `is_finished` — the first failure is reported cleanly instead.
#[derive(Debug)]
struct Monitor {
    remaining: AtomicUsize,
    state: Mutex<RunState>,
    cv: Condvar,
}

impl Monitor {
    fn new(tasks: usize) -> Self {
        Monitor {
            remaining: AtomicUsize::new(tasks),
            state: Mutex::new(RunState::default()),
            cv: Condvar::new(),
        }
    }

    /// Called exactly once per task; the last one flips `finished`.
    fn task_done(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut st = self.state.lock();
            st.finished = true;
            self.cv.notify_all();
        }
    }

    /// Records the first failure and aborts the run.
    fn fail(&self, failure: RunFailure) {
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(failure);
        }
        st.finished = true;
        self.cv.notify_all();
    }

    fn is_finished(&self) -> bool {
        self.state.lock().finished
    }

    /// Blocks until the run finishes or `deadline` elapses (which marks
    /// the run failed so stuck workers bail out on their next check).
    fn wait(&self, deadline: Duration) {
        let t0 = Instant::now();
        let mut st = self.state.lock();
        while !st.finished {
            match deadline.checked_sub(t0.elapsed()) {
                None => {
                    st.error.get_or_insert_with(|| {
                        RunFailure::run(format!(
                            "run exceeded the {deadline:?} wall-clock deadline"
                        ))
                    });
                    st.finished = true;
                    self.cv.notify_all();
                    return;
                }
                Some(left) => {
                    self.cv
                        .wait_for(&mut st, left.min(Duration::from_millis(100)));
                }
            }
        }
    }

    fn take_error(&self) -> Option<RunFailure> {
        self.state.lock().error.take()
    }
}

/// Everything workers share for one run.
struct Shared {
    monitor: Monitor,
    t0: Instant,
    kinds: Vec<Kind>,
    /// Per task: the device whose worker executes it (flow source for
    /// flows; unused for markers).
    task_device: Vec<u32>,
    /// Tasks with no dependencies, dispatched once at run start.
    roots: Vec<u32>,
    /// Per task: unmet dependency count.
    pending: Vec<AtomicUsize>,
    /// Per task: tasks waiting on it (one entry per dependency edge).
    dependents: Vec<Vec<u32>>,
    start_ns: Vec<AtomicU64>,
    finish_ns: Vec<AtomicU64>,
    /// Per device: compute queue and send queue.
    compute_tx: Vec<Sender<ComputeJob>>,
    send_tx: Vec<Sender<SendJob>>,
    /// Per device: inbound frame queue (bounded; this is the backpressure).
    inbound_tx: Vec<SyncSender<Inbound>>,
    /// Per device: frames currently queued (enqueued by senders/readers,
    /// drained by the receive worker). Observed into the
    /// `runtime.queue_depth` histogram at every enqueue.
    queue_depth: Vec<AtomicI64>,
    /// `(src_host, dst_host) -> write half`, non-empty in TCP mode only.
    tcp_writers: HashMap<(u32, u32), Mutex<TcpStream>>,
    /// Device -> host, for routing.
    device_host: Vec<u32>,
    /// One all-zero chunk the TCP senders write each frame's payload
    /// from.
    zero: Vec<u8>,
    chunk_bytes: usize,
    /// Faults the workers interpret (empty by default).
    faults: Arc<InjectedFaults>,
    /// Flow re-transmissions performed (drop-triggered attempts).
    retries: AtomicU64,
    /// First id of this run's happens-before block, laid out as
    /// `[compute chan × D][send chan × D][inbound chan × D]`
    /// `[pending edge × n][flow edge × n][task point × n]`.
    hb_base: u64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn hb_compute_chan(&self, dev: usize) -> u64 {
        self.hb_base + dev as u64
    }

    fn hb_send_chan(&self, dev: usize) -> u64 {
        self.hb_base + (self.compute_tx.len() + dev) as u64
    }

    fn hb_inbound_chan(&self, dev: usize) -> u64 {
        self.hb_base + (2 * self.compute_tx.len() + dev) as u64
    }

    /// The ack edge a completing dependency releases and the dispatching
    /// thread acquires when `t`'s pending count hits zero.
    fn hb_pending_edge(&self, t: u32) -> u64 {
        self.hb_base + (3 * self.compute_tx.len()) as u64 + t as u64
    }

    /// The frame-delivery edge from `t`'s send worker to its receiver.
    fn hb_flow_edge(&self, t: u32) -> u64 {
        self.hb_pending_edge(t) + self.kinds.len() as u64
    }

    /// Declared access point for `t`'s timestamp slots: exactly one
    /// worker may own a dispatched task, so unordered writes here mean a
    /// double dispatch.
    fn hb_task_point(&self, t: u32) -> u64 {
        self.hb_pending_edge(t) + 2 * self.kinds.len() as u64
    }

    /// Puts one frame on `dst`'s bounded inbound queue. Blocks under
    /// backpressure but aborts once the run is finished, so a failed run
    /// never wedges a sender or a TCP reader. Every frame passes through
    /// exactly one enqueue (the channel path directly, the TCP path via
    /// its reader thread), so `runtime.frames` counts deliveries and the
    /// histogram samples the post-enqueue depth.
    fn enqueue(&self, dst: u32, mut msg: Inbound) -> Result<(), String> {
        hb::release(self.hb_inbound_chan(dst as usize));
        loop {
            match self.inbound_tx[dst as usize].try_send(msg) {
                Ok(()) => break,
                Err(TrySendError::Full(m)) => {
                    if self.monitor.is_finished() {
                        return Err("run aborted while queue was full".into());
                    }
                    msg = m;
                    thread::sleep(Duration::from_micros(20));
                }
                Err(TrySendError::Disconnected(_)) => {
                    return Err(format!("receiver d{dst} hung up"));
                }
            }
        }
        let depth = self.queue_depth[dst as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let m = runtime_metrics();
        m.frames.inc();
        m.queue_depth.observe(depth as f64);
        Ok(())
    }

    /// Accounts the receive worker of `device` draining one frame.
    fn note_dequeued(&self, device: u32) {
        self.queue_depth[device as usize].fetch_sub(1, Ordering::Relaxed);
    }

    fn record_start(&self, t: u32) {
        hb::write(self.hb_task_point(t));
        self.start_ns[t as usize].store(self.now_ns(), Ordering::Release);
    }

    /// Marks `t` finished, releases its dependents, and completes any
    /// markers that become ready, iteratively.
    fn finish_task(&self, t: u32) {
        hb::write(self.hb_task_point(t));
        self.finish_ns[t as usize].store(self.now_ns(), Ordering::Release);
        let mut done = vec![t];
        self.drain_completions(&mut done);
    }

    fn drain_completions(&self, done: &mut Vec<u32>) {
        while let Some(t) = done.pop() {
            for &d in &self.dependents[t as usize] {
                // The release precedes the decrement, so by the time some
                // thread sees the count hit zero every completer's clock
                // is already in the edge (joined, not overwritten).
                hb::release(self.hb_pending_edge(d));
                if self.pending[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    hb::acquire(self.hb_pending_edge(d));
                    self.dispatch(d, done);
                }
            }
            self.monitor.task_done();
        }
    }

    /// Hands a ready task to its executor. Markers finish immediately:
    /// their timestamps are taken here and they join the completion stack.
    fn dispatch(&self, t: u32, done: &mut Vec<u32>) {
        match self.kinds[t as usize] {
            Kind::Marker => {
                hb::write(self.hb_task_point(t));
                let now = self.now_ns();
                self.start_ns[t as usize].store(now, Ordering::Release);
                self.finish_ns[t as usize].store(now, Ordering::Release);
                done.push(t);
            }
            Kind::Compute { wall } => {
                let dev = self.executor_device(t);
                hb::release(self.hb_compute_chan(dev));
                let _ = self.compute_tx[dev].send(Some((t, wall)));
            }
            Kind::Flow { dst, bytes } => {
                let dev = self.executor_device(t);
                hb::release(self.hb_send_chan(dev));
                let _ = self.send_tx[dev].send(Some((t, dst, bytes)));
            }
        }
    }

    /// The device whose worker runs task `t` (compute device, or the
    /// flow's source device).
    fn executor_device(&self, t: u32) -> usize {
        self.task_device[t as usize] as usize
    }

    /// The dead-host path of compute and send alike: if one of `devices`
    /// sits on a host the injected fault set declares crashed, times `t`
    /// out with [`FailureKind::HostCrash`] (`what` names the task) and
    /// returns true.
    fn crashed(&self, t: u32, what: &str, devices: &[u32]) -> bool {
        let dead = devices
            .iter()
            .map(|&d| self.device_host[d as usize])
            .find(|h| self.faults.dead_hosts.contains(h));
        if let Some(host) = dead {
            let message = format!("{what} t{t} timed out: host h{host} is down");
            self.time_out(t, FailureKind::HostCrash, message);
        }
        dead.is_some()
    }

    /// Injected compute slowdown factor for `device` (1.0 when absent).
    fn slowdown(&self, device: u32) -> f64 {
        self.faults
            .compute_slowdown
            .iter()
            .find(|&&(d, _)| d == device)
            .map_or(1.0, |&(_, f)| f)
    }

    /// Injected per-frame delay for frames sent by `device`, if its host
    /// is degraded.
    fn frame_delay(&self, device: u32) -> Option<Duration> {
        let host = self.device_host[device as usize];
        self.faults
            .frame_delay
            .iter()
            .find(|&&(h, _)| h == host)
            .map(|&(_, d)| d)
    }

    /// Fails `t` the way a per-flow timeout does: sleeps out the full
    /// retry budget (bounded exponential backoff, cut short if the run
    /// already ended), then records the failure.
    fn time_out(&self, t: u32, kind: FailureKind, message: String) {
        let mut delay = self.faults.backoff;
        for _ in 0..=self.faults.max_retries {
            if self.monitor.is_finished() {
                break;
            }
            thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        self.monitor.fail(RunFailure::task(t, kind, message));
    }

    /// Dispatches every task with no dependencies. Roots come from the
    /// static graph (`roots`), never from the live pending counters: a
    /// fast root may already have completed and released dependents to
    /// pending 0 mid-iteration, and reading the counters here would
    /// dispatch those dependents a second time.
    fn seed(&self) {
        let mut done = Vec::new();
        for &t in &self.roots {
            self.dispatch(t, &mut done);
        }
        self.drain_completions(&mut done);
    }

    /// Delivers one frame of `flow` to `dst`, via channel or socket, with
    /// the backpressure of [`enqueue`](Shared::enqueue).
    fn send_frame(
        &self,
        src: u32,
        dst: u32,
        flow: u32,
        len: usize,
        last: bool,
        attempt: u8,
    ) -> Result<(), String> {
        let (sh, dh) = (
            self.device_host[src as usize],
            self.device_host[dst as usize],
        );
        // The receive worker acquires this edge per frame, so everything
        // the sender did before handing off the payload — including the
        // flow's start-timestamp write — is ordered before the ack.
        hb::release(self.hb_flow_edge(flow));
        if sh != dh && !self.tcp_writers.is_empty() {
            let stream = self
                .tcp_writers
                .get(&(sh, dh))
                .expect("a connection exists for every host pair");
            let mut stream = stream.lock();
            let hdr = encode_header(dst, flow, len as u32, last, attempt);
            write_full(&mut stream, &hdr, &self.monitor)?;
            write_full(&mut stream, &self.zero[..len], &self.monitor)?;
            return Ok(());
        }
        let msg = Inbound::Data {
            flow,
            len,
            last,
            attempt,
        };
        self.enqueue(dst, msg)
    }
}

/// Wire frame header: destination device, flow task, payload length, a
/// last-frame marker, and the transmission attempt number (receivers
/// discard bytes from superseded attempts).
const FRAME_HEADER: usize = 14;

fn encode_header(dst: u32, flow: u32, len: u32, last: bool, attempt: u8) -> [u8; FRAME_HEADER] {
    let mut hdr = [0u8; FRAME_HEADER];
    hdr[0..4].copy_from_slice(&dst.to_le_bytes());
    hdr[4..8].copy_from_slice(&flow.to_le_bytes());
    hdr[8..12].copy_from_slice(&len.to_le_bytes());
    hdr[12] = last as u8;
    hdr[13] = attempt;
    hdr
}

/// Writes all of `buf`, tolerating send-timeout ticks (used to notice an
/// aborted run instead of blocking forever on a full socket).
fn write_full(stream: &mut TcpStream, mut buf: &[u8], monitor: &Monitor) -> Result<(), String> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err("tcp connection closed mid-frame".into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if monitor.is_finished() {
                    return Err("run aborted during tcp write".into());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("tcp write: {e}")),
        }
    }
    Ok(())
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the peer closed the
/// connection cleanly before the first byte, or the run finished while the
/// socket was idle (both are normal shutdown at a frame boundary).
fn read_full(stream: &mut TcpStream, buf: &mut [u8], monitor: &Monitor) -> Result<bool, String> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err("tcp connection closed mid-frame".into());
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if monitor.is_finished() {
                    if got == 0 {
                        return Ok(false);
                    }
                    return Err("run aborted during tcp read".into());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("tcp read: {e}")),
        }
    }
    Ok(true)
}

/// Builds the shared state and fabric, spawns the workers, runs the graph
/// to completion, and returns the per-task timestamp arrays (nanoseconds
/// since the run's epoch) plus the flow re-transmission count.
#[allow(clippy::type_complexity)]
fn run(
    backend: &ThreadedBackend,
    cluster: &ClusterSpec,
    graph: &TaskGraph,
) -> Result<(Vec<AtomicU64>, Vec<AtomicU64>, u64), RunFailure> {
    let n = graph.len();
    let num_devices = cluster.num_devices() as usize;
    let device_host: Vec<u32> = (0..num_devices as u32)
        .map(|d| cluster.host_of(DeviceId(d)).0)
        .collect();

    let mut kinds = Vec::with_capacity(n);
    let mut task_device = Vec::with_capacity(n);
    let mut roots = Vec::new();
    let mut pending = Vec::with_capacity(n);
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (id, task) in graph.iter() {
        let (kind, dev) = match task.work {
            Work::Compute { device, seconds } => (
                Kind::Compute {
                    wall: Duration::from_secs_f64(seconds * TIME_SCALE),
                },
                device.0,
            ),
            Work::ComputeFlops { device, flops } => {
                let rate = cluster.host(cluster.host_of(device)).device_flops;
                (
                    Kind::Compute {
                        wall: Duration::from_secs_f64(flops / rate * TIME_SCALE),
                    },
                    device.0,
                )
            }
            Work::Flow { src, dst, bytes } => (
                Kind::Flow {
                    dst: dst.0,
                    bytes: bytes.round() as u64,
                },
                src.0,
            ),
            Work::Marker => (Kind::Marker, 0),
        };
        kinds.push(kind);
        task_device.push(dev);
        if task.deps.is_empty() {
            roots.push(id.0);
        }
        pending.push(AtomicUsize::new(task.deps.len()));
        for dep in task.deps {
            dependents[dep.0 as usize].push(id.0);
        }
    }

    let mut compute_tx = Vec::with_capacity(num_devices);
    let mut compute_rx = Vec::with_capacity(num_devices);
    let mut send_tx = Vec::with_capacity(num_devices);
    let mut send_rx = Vec::with_capacity(num_devices);
    let mut inbound_tx = Vec::with_capacity(num_devices);
    let mut inbound_rx = Vec::with_capacity(num_devices);
    for _ in 0..num_devices {
        let (tx, rx) = mpsc::channel();
        compute_tx.push(tx);
        compute_rx.push(rx);
        let (tx, rx) = mpsc::channel();
        send_tx.push(tx);
        send_rx.push(rx);
        let (tx, rx) = mpsc::sync_channel(backend.channel_depth);
        inbound_tx.push(tx);
        inbound_rx.push(rx);
    }

    // TCP fabric first (if any), so the write halves can live inside the
    // shared state from the start; reader threads spawn after it exists.
    let (tcp_writers, reader_streams) = if backend.transport == TransportKind::Tcp {
        tcp_fabric(cluster).map_err(|e| RunFailure::run(format!("tcp setup: {e}")))?
    } else {
        (HashMap::new(), Vec::new())
    };

    let shared = Arc::new(Shared {
        monitor: Monitor::new(n),
        t0: Instant::now(),
        kinds,
        task_device,
        roots,
        pending,
        dependents,
        start_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        finish_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        compute_tx,
        send_tx,
        inbound_tx,
        queue_depth: (0..num_devices).map(|_| AtomicI64::new(0)).collect(),
        tcp_writers,
        device_host,
        zero: vec![0u8; backend.chunk_bytes],
        chunk_bytes: backend.chunk_bytes,
        faults: Arc::clone(&backend.faults),
        retries: AtomicU64::new(0),
        hb_base: hb::fresh_ids((3 * num_devices + 3 * n) as u64),
    });

    let mut workers = Vec::with_capacity(num_devices * 3 + reader_streams.len());
    for (d, rx) in compute_rx.into_iter().enumerate() {
        workers.push(spawn_named(
            format!("cm-d{d}-compute"),
            Arc::clone(&shared),
            move |sh| compute_worker(d as u32, rx, sh),
        ));
    }
    for (d, rx) in send_rx.into_iter().enumerate() {
        workers.push(spawn_named(
            format!("cm-d{d}-send"),
            Arc::clone(&shared),
            move |sh| send_worker(d as u32, rx, sh),
        ));
    }
    let mut recv_workers = Vec::with_capacity(num_devices);
    for (d, rx) in inbound_rx.into_iter().enumerate() {
        recv_workers.push(spawn_named(
            format!("cm-d{d}-recv"),
            Arc::clone(&shared),
            move |sh| recv_worker(d as u32, rx, sh),
        ));
    }
    let mut tcp_readers = Vec::with_capacity(reader_streams.len());
    for (i, stream) in reader_streams.into_iter().enumerate() {
        tcp_readers.push(spawn_named(
            format!("cm-tcp-reader-{i}"),
            Arc::clone(&shared),
            move |sh| tcp_reader(stream, sh),
        ));
    }

    shared.seed();
    shared.monitor.wait(backend.deadline);

    // Orderly shutdown: quit the compute/send queues (they feed the
    // fabric), then the inbound queues; readers notice the finished flag
    // on their next I/O timeout tick.
    for tx in &shared.compute_tx {
        let _ = tx.send(None);
    }
    for tx in &shared.send_tx {
        let _ = tx.send(None);
    }
    for w in workers {
        let _ = w.join();
    }
    // A live receive worker drains its queue, and a finished one has
    // hung up, so this blocking send always returns.
    for tx in &shared.inbound_tx {
        let _ = tx.send(Inbound::Quit);
    }
    for w in recv_workers {
        let _ = w.join();
    }
    for r in tcp_readers {
        let _ = r.join();
    }

    if let Some(e) = shared.monitor.take_error() {
        return Err(e);
    }
    let shared = Arc::try_unwrap(shared)
        .map_err(|_| RunFailure::run("internal: worker threads outlived the run"))?;
    let retries = shared.retries.load(Ordering::Relaxed);
    Ok((shared.start_ns, shared.finish_ns, retries))
}

/// Fails the monitor if its worker thread unwinds: without this a
/// panicking worker would leave the run to sit out its full wall-clock
/// deadline with no explanation.
struct PanicGuard {
    shared: Arc<Shared>,
    name: String,
}

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if thread::panicking() {
            self.shared
                .monitor
                .fail(RunFailure::run(format!("worker {} panicked", self.name)));
        }
    }
}

fn spawn_named<F>(name: String, shared: Arc<Shared>, f: F) -> JoinHandle<()>
where
    F: FnOnce(&Shared) + Send + 'static,
{
    // Fork edge: the spawner's clock flows into the new worker, so
    // everything set up before the spawn is ordered before its first
    // action (priced only when a detector is installed).
    let fork = if hb::engaged() {
        let id = hb::fresh_id();
        hb::release(id);
        Some(id)
    } else {
        None
    };
    thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            if let Some(id) = fork {
                hb::acquire(id);
            }
            let guard = PanicGuard { shared, name };
            f(&guard.shared);
        })
        .expect("spawning an OS thread")
}

/// Opens one TCP loopback connection per host pair; returns the write
/// halves (routed by `(src_host, dst_host)`) and the read halves.
#[allow(clippy::type_complexity)]
fn tcp_fabric(
    cluster: &ClusterSpec,
) -> std::io::Result<(HashMap<(u32, u32), Mutex<TcpStream>>, Vec<TcpStream>)> {
    let hosts = cluster.num_hosts();
    let mut listeners = Vec::with_capacity(hosts as usize);
    for _ in 0..hosts {
        // Retrying ephemeral binds keeps CI runs with many concurrent
        // tcp-backend tests from flaking on momentary port exhaustion.
        listeners.push(crate::net::bind_ephemeral()?);
    }
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<Result<_, _>>()?;

    let mut writers = HashMap::new();
    let mut readers = Vec::new();
    let io_tick = Some(Duration::from_millis(200));
    for a in 0..hosts {
        for b in (a + 1)..hosts {
            // Sequential connect-then-accept keeps the pairing
            // deterministic: the backlog holds exactly this connection.
            let out = TcpStream::connect(addrs[b as usize])?;
            let (inc, _) = listeners[b as usize].accept()?;
            for s in [&out, &inc] {
                s.set_nodelay(true)?;
                s.set_read_timeout(io_tick)?;
                s.set_write_timeout(io_tick)?;
            }
            // `a` writes a->b on `out`; `b` writes b->a on `inc`. Each
            // side reads the opposite direction from its own clone.
            writers.insert((a, b), Mutex::new(out.try_clone()?));
            writers.insert((b, a), Mutex::new(inc.try_clone()?));
            readers.push(inc);
            readers.push(out);
        }
    }
    Ok((writers, readers))
}

/// Reads a little-endian `u32` out of a frame header at `at`. Infallible:
/// the header buffer is always `FRAME_HEADER` bytes.
fn header_u32(hdr: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([hdr[at], hdr[at + 1], hdr[at + 2], hdr[at + 3]])
}

/// Forwards frames from one TCP connection to the destination devices'
/// inbound queues until the peer closes or the run ends. Each payload is
/// drained into one per-connection scratch chunk: only its length travels
/// on.
fn tcp_reader(mut stream: TcpStream, shared: &Shared) {
    let mut hdr = [0u8; FRAME_HEADER];
    let mut scratch = vec![0u8; shared.chunk_bytes];
    loop {
        match read_full(&mut stream, &mut hdr, &shared.monitor) {
            Ok(true) => {}
            Ok(false) => return, // clean shutdown
            Err(e) => {
                shared.monitor.fail(RunFailure::run(e));
                return;
            }
        }
        let dst = header_u32(&hdr, 0);
        let flow = header_u32(&hdr, 4);
        let len = header_u32(&hdr, 8) as usize;
        let last = hdr[12] != 0;
        let attempt = hdr[13];
        // Senders never frame more than `chunk_bytes`: a larger length is
        // a corrupt or hostile header, refused before it can allocate.
        if len > shared.chunk_bytes {
            shared.monitor.fail(RunFailure::task(
                flow,
                FailureKind::Transport,
                format!(
                    "tcp frame of {len} bytes exceeds the {}-byte frame limit",
                    shared.chunk_bytes
                ),
            ));
            return;
        }
        // The frame must name a flow task bound for the frame's device:
        // past this check the receive worker trusts both.
        let names_its_flow = |&kind: &Kind| matches!(kind, Kind::Flow { dst: to, .. } if to == dst);
        let bad = if dst as usize >= shared.inbound_tx.len() {
            Some(format!("tcp frame for unknown device d{dst}"))
        } else if !shared.kinds.get(flow as usize).is_some_and(names_its_flow) {
            Some(format!("tcp frame names t{flow}, not a flow to d{dst}"))
        } else {
            None
        };
        if let Some(message) = bad {
            shared
                .monitor
                .fail(RunFailure::task(flow, FailureKind::Graph, message));
            return;
        }
        if len > 0 {
            match read_full(&mut stream, &mut scratch[..len], &shared.monitor) {
                Ok(true) => {}
                Ok(false) | Err(_) => {
                    shared.monitor.fail(RunFailure::task(
                        flow,
                        FailureKind::Transport,
                        "tcp connection closed mid-frame",
                    ));
                    return;
                }
            }
        }
        let msg = Inbound::Data {
            flow,
            len,
            last,
            attempt,
        };
        // Only a finished run or a hung-up receiver refuses a frame.
        if shared.enqueue(dst, msg).is_err() {
            return;
        }
    }
}

/// Runs compute tasks serially: wait out the calibrated wall duration
/// (stretched by any injected straggler factor), then release dependents.
/// A task landing on a crashed host times out and fails the run.
fn compute_worker(device: u32, rx: Receiver<ComputeJob>, shared: &Shared) {
    while let Ok(Some((t, wall))) = rx.recv() {
        hb::acquire(shared.hb_compute_chan(device as usize));
        shared.record_start(t);
        if shared.crashed(t, "compute", &[device]) {
            return;
        }
        precise_wait(wall.mul_f64(shared.slowdown(device)));
        shared.finish_task(t);
    }
}

/// Occupies the thread for `d`: sleep for the bulk, spin the tail, so
/// short "kernels" keep microsecond-ish fidelity.
fn precise_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    if d > Duration::from_micros(400) {
        thread::sleep(d - Duration::from_micros(200));
    }
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Chunks each flow into frames and pushes them toward the destination.
/// Injected faults are realized here: frames from degraded hosts are
/// delayed, flows touching dead hosts time out after the retry budget,
/// and each dropped attempt puts one partial frame on the wire, backs
/// off exponentially, then re-sends under a higher attempt number.
fn send_worker(device: u32, rx: Receiver<SendJob>, shared: &Shared) {
    while let Ok(Some((t, dst, bytes))) = rx.recv() {
        hb::acquire(shared.hb_send_chan(device as usize));
        shared.record_start(t);
        if shared.crashed(t, "flow", &[device, dst]) {
            return;
        }
        let drops = shared.faults.flow_drops.get(&t).copied().unwrap_or(0);
        let budget = shared.faults.max_retries;
        if drops > budget {
            let message = format!("flow t{t} dropped {drops} times, retry budget is {budget}");
            shared.time_out(t, FailureKind::RetriesExhausted, message);
            return;
        }
        runtime_metrics().flows.inc();
        if obs::enabled() {
            obs::event(
                obs::Level::Trace,
                "runtime.flow",
                "send_start",
                &[
                    obs::Field::u64("flow", t as u64),
                    obs::Field::u64("src", device as u64),
                    obs::Field::u64("dst", dst as u64),
                    obs::Field::u64("bytes", bytes),
                    obs::Field::u64("t_ns", shared.now_ns()),
                ],
            );
        }
        let delay = shared.frame_delay(device);
        let mut backoff = shared.faults.backoff;
        for attempt in 0..=drops {
            // A dropped attempt puts its first frame on the wire, never
            // marked last; the surviving one sends every frame.
            let dropped = attempt < drops;
            let mut left = bytes;
            loop {
                let n = left.min(shared.chunk_bytes as u64);
                let last = !dropped && n == left;
                if let Some(d) = delay {
                    thread::sleep(d);
                }
                let tag = attempt.min(255) as u8;
                if let Err(e) = shared.send_frame(device, dst, t, n as usize, last, tag) {
                    if !shared.monitor.is_finished() {
                        shared.monitor.fail(RunFailure::task(
                            t,
                            FailureKind::Transport,
                            format!("flow t{t}: {e}"),
                        ));
                    }
                    return;
                }
                if dropped || last {
                    break;
                }
                left -= n;
            }
            if dropped {
                thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
                shared.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
        if obs::enabled() {
            obs::event(
                obs::Level::Trace,
                "runtime.flow",
                "send_done",
                &[
                    obs::Field::u64("flow", t as u64),
                    obs::Field::u64("src", device as u64),
                    obs::Field::u64("dst", dst as u64),
                    obs::Field::u64("t_ns", shared.now_ns()),
                ],
            );
        }
    }
}

/// Counts delivered bytes per flow and transmission attempt: a frame
/// from a newer attempt discards the bytes of a superseded (dropped)
/// one, a stale frame is ignored, and the final frame completes the flow
/// task (so a flow's finish timestamp is taken on the receiving side).
fn recv_worker(device: u32, rx: Receiver<Inbound>, shared: &Shared) {
    let mut progress: HashMap<u32, (u8, u64)> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            Inbound::Data {
                flow,
                len,
                last,
                attempt,
            } => {
                hb::acquire(shared.hb_inbound_chan(device as usize));
                hb::acquire(shared.hb_flow_edge(flow));
                shared.note_dequeued(device);
                let entry = progress.entry(flow).or_insert((attempt, 0));
                if attempt > entry.0 {
                    *entry = (attempt, 0);
                } else if attempt < entry.0 {
                    continue; // stale frame from a dropped attempt
                }
                entry.1 += len as u64;
                if last {
                    let (_, got) = progress.remove(&flow).unwrap_or((attempt, 0));
                    let Kind::Flow { bytes: want, .. } = shared.kinds[flow as usize] else {
                        unreachable!("senders frame flows and tcp readers check every frame")
                    };
                    if got != want {
                        shared.monitor.fail(RunFailure::task(
                            flow,
                            FailureKind::Transport,
                            format!("flow t{flow} delivered {got} bytes, expected {want}"),
                        ));
                        return;
                    }
                    shared.finish_task(flow);
                    if obs::enabled() {
                        obs::event(
                            obs::Level::Trace,
                            "runtime.flow",
                            "ack",
                            &[
                                obs::Field::u64("flow", flow as u64),
                                obs::Field::u64("dst", device as u64),
                                obs::Field::u64("bytes", got),
                                obs::Field::u64("t_ns", shared.now_ns()),
                            ],
                        );
                    }
                }
            }
            Inbound::Quit => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{LinkParams, TaskId};

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 2, LinkParams::new(100e9, 10e9))
    }

    fn backends() -> [ThreadedBackend; 2] {
        [ThreadedBackend::threads(), ThreadedBackend::tcp()]
    }

    #[test]
    fn names_reflect_transport() {
        assert_eq!(ThreadedBackend::threads().name(), "threads");
        assert_eq!(ThreadedBackend::tcp().name(), "tcp");
    }

    #[test]
    fn empty_graph_is_an_empty_trace() {
        for b in backends() {
            let trace = b.execute(&cluster(), &TaskGraph::new()).unwrap();
            assert_eq!(trace.makespan(), 0.0);
        }
    }

    #[test]
    fn unknown_device_is_rejected_up_front() {
        let c = cluster();
        let mut g = TaskGraph::new();
        g.add(Work::compute(DeviceId(99), 1.0), []);
        let err = ThreadedBackend::threads().execute(&c, &g).unwrap_err();
        assert!(matches!(
            err,
            SimError::UnknownDevice {
                task: TaskId(0),
                device: DeviceId(99)
            }
        ));
    }

    #[test]
    fn dependencies_order_timestamps() {
        let c = cluster();
        let mut g = TaskGraph::new();
        let a = g.add(Work::compute(c.device(0, 0), 1.0), []);
        let f = g.add(
            Work::flow(c.device(0, 0), c.device(1, 1), (3 << 20) as f64),
            [a],
        );
        let b = g.add(Work::compute(c.device(1, 1), 0.5), [f]);
        let m = g.add(Work::Marker, [b]);
        for backend in backends() {
            let trace = backend.execute(&c, &g).unwrap();
            // Happens-before: each dependency finishes before its
            // dependent starts, on the shared wall clock.
            assert!(trace.interval(a).finish <= trace.interval(f).start);
            assert!(trace.interval(f).finish <= trace.interval(b).start);
            assert!(trace.interval(b).finish <= trace.interval(m).start);
            // The compute sleeps are real: 1 s at 1e-3 scale is >= 1 ms.
            let ia = trace.interval(a);
            assert!(ia.finish - ia.start >= 1e-3);
            assert!(trace.makespan() >= trace.interval(m).finish);
            // Cross-host accounting comes from the graph, not the wire.
            assert_eq!(trace.usage().total_cross_host_bytes(), (3u64 << 20) as f64);
        }
    }

    #[test]
    fn intra_host_flows_do_not_count_as_cross_host() {
        let c = cluster();
        let mut g = TaskGraph::new();
        g.add(
            Work::flow(c.device(0, 0), c.device(0, 1), (1 << 16) as f64),
            [],
        );
        for backend in backends() {
            let trace = backend.execute(&c, &g).unwrap();
            assert_eq!(trace.usage().total_cross_host_bytes(), 0.0);
        }
    }

    #[test]
    fn zero_byte_flows_complete() {
        let c = cluster();
        let mut g = TaskGraph::new();
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 0.0), []);
        let m = g.add(Work::Marker, [f]);
        for backend in backends() {
            let trace = backend.execute(&c, &g).unwrap();
            assert!(trace.interval(m).finish >= trace.interval(f).finish);
        }
    }

    #[test]
    fn wide_fan_out_and_fan_in_complete() {
        // Every device sends to every other device, all gated by one
        // marker and joined by another: exercises queues and the fabric.
        // Then again with 64-byte chunks and one-frame inbound queues, so
        // three senders fan in on each queue with backpressure on every
        // frame: every flow must still finish before the join.
        let c = cluster();
        let mut g = TaskGraph::new();
        let gate = g.add(Work::Marker, []);
        let mut flows = Vec::new();
        for s in 0..c.num_devices() {
            for d in 0..c.num_devices() {
                if s != d {
                    flows.push(g.add(
                        Work::flow(DeviceId(s), DeviceId(d), (1 << 14) as f64),
                        [gate],
                    ));
                }
            }
        }
        let join = g.add(Work::Marker, flows.clone());
        for backend in backends() {
            let depth_one = ThreadedBackend {
                chunk_bytes: 64,
                channel_depth: 1,
                ..backend.clone()
            };
            for backend in [backend, depth_one] {
                let trace = backend.execute(&c, &g).unwrap();
                for f in &flows {
                    assert!(trace.interval(*f).finish <= trace.interval(join).start);
                }
            }
        }
    }

    #[test]
    fn small_chunks_still_deliver_exact_byte_counts() {
        let c = cluster();
        let mut g = TaskGraph::new();
        // 10_000 bytes over 64-byte chunks: 157 partial frames.
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 1e4), []);
        for backend in backends() {
            let backend = ThreadedBackend {
                chunk_bytes: 64,
                channel_depth: 4,
                ..backend
            };
            let trace = backend.execute(&c, &g).unwrap();
            assert!(trace.interval(f).finish > trace.interval(f).start);
        }
    }

    #[test]
    fn deadline_aborts_instead_of_hanging() {
        let c = cluster();
        let mut g = TaskGraph::new();
        g.add(Work::compute(c.device(0, 0), 10.0), []);
        // 10 simulated seconds at default 1e-3 scale is 10 ms of wall
        // time; a 1 ms deadline must trip first.
        let backend = ThreadedBackend {
            deadline: Duration::from_millis(1),
            ..ThreadedBackend::threads()
        };
        let err = backend.execute(&c, &g).unwrap_err();
        assert!(matches!(
            err,
            SimError::Backend {
                backend: "threads",
                ..
            }
        ));
    }

    #[test]
    fn with_faults_rejects_a_non_positive_slowdown() {
        let r = std::panic::catch_unwind(|| {
            ThreadedBackend::threads().with_faults(InjectedFaults {
                compute_slowdown: vec![(0, 0.0)],
                ..InjectedFaults::default()
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn injected_straggler_stretches_compute() {
        let c = cluster();
        let mut g = TaskGraph::new();
        let t = g.add(Work::compute(c.device(0, 0), 1.0), []);
        let faults = InjectedFaults {
            compute_slowdown: vec![(0, 5.0)],
            ..InjectedFaults::default()
        };
        let trace = ThreadedBackend::threads()
            .with_faults(faults)
            .execute(&c, &g)
            .unwrap();
        let i = trace.interval(t);
        // 1 simulated second at 1e-3 scale is 1 ms; slowed 5x it is >= 5 ms.
        assert!(i.finish - i.start >= 5e-3);
        assert_eq!(trace.fault_stats(), &FaultStats::default());
    }

    #[test]
    fn dropped_flows_retry_and_are_counted() {
        let c = cluster();
        let mut g = TaskGraph::new();
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4096.0), []);
        let faults = InjectedFaults {
            flow_drops: BTreeMap::from([(f.0, 2)]),
            max_retries: 3,
            backoff: Duration::from_micros(100),
            ..InjectedFaults::default()
        };
        for backend in backends() {
            let trace = backend.with_faults(faults.clone()).execute(&c, &g).unwrap();
            assert_eq!(trace.fault_stats().retries, 2);
            assert!(trace.interval(f).finish > trace.interval(f).start);
            assert!(trace.failed_tasks().is_empty());
        }
    }

    #[test]
    fn drops_beyond_the_retry_budget_fail_the_flow() {
        let c = cluster();
        let mut g = TaskGraph::new();
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4096.0), []);
        let faults = InjectedFaults {
            flow_drops: BTreeMap::from([(f.0, 5)]),
            max_retries: 2,
            backoff: Duration::from_micros(100),
            ..InjectedFaults::default()
        };
        let err = ThreadedBackend::threads()
            .with_faults(faults)
            .execute(&c, &g)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::TaskFailed {
                backend: "threads",
                task,
                kind: FailureKind::RetriesExhausted,
                ..
            } if task == f
        ));
    }

    #[test]
    fn flows_to_a_dead_host_fail_with_host_crash() {
        let c = cluster();
        let mut g = TaskGraph::new();
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4096.0), []);
        let faults = InjectedFaults {
            dead_hosts: vec![1],
            max_retries: 1,
            backoff: Duration::from_micros(100),
            ..InjectedFaults::default()
        };
        for backend in backends() {
            let err = backend
                .with_faults(faults.clone())
                .execute(&c, &g)
                .unwrap_err();
            assert!(matches!(
                err,
                SimError::TaskFailed {
                    kind: FailureKind::HostCrash,
                    task,
                    ..
                } if task == f
            ));
        }
    }

    #[test]
    fn compute_on_a_dead_host_fails_with_host_crash() {
        let c = cluster();
        let mut g = TaskGraph::new();
        g.add(Work::compute(c.device(1, 0), 0.1), []);
        let faults = InjectedFaults {
            dead_hosts: vec![1],
            max_retries: 1,
            backoff: Duration::from_micros(100),
            ..InjectedFaults::default()
        };
        let err = ThreadedBackend::threads()
            .with_faults(faults)
            .execute(&c, &g)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::TaskFailed {
                kind: FailureKind::HostCrash,
                ..
            }
        ));
    }

    /// A shared state with no devices and no tasks: enough structure for
    /// driving individual workers directly in failure-path tests.
    fn bare_shared() -> Arc<Shared> {
        shared_with(Vec::new(), 0).0
    }

    /// A shared state with the given tasks and `devices` inbound queues
    /// (returned, so frames the reader accepts stay queued), and no
    /// workers.
    fn shared_with(kinds: Vec<Kind>, devices: usize) -> (Arc<Shared>, Vec<Receiver<Inbound>>) {
        let (inbound_tx, inbound_rx) = (0..devices).map(|_| mpsc::sync_channel(4)).unzip();
        let shared = Arc::new(Shared {
            monitor: Monitor::new(1),
            t0: Instant::now(),
            kinds,
            task_device: Vec::new(),
            roots: Vec::new(),
            pending: Vec::new(),
            dependents: Vec::new(),
            start_ns: Vec::new(),
            finish_ns: Vec::new(),
            compute_tx: Vec::new(),
            send_tx: Vec::new(),
            inbound_tx,
            queue_depth: (0..devices).map(|_| AtomicI64::new(0)).collect(),
            tcp_writers: HashMap::new(),
            device_host: Vec::new(),
            zero: Vec::new(),
            chunk_bytes: 1,
            faults: Arc::new(InjectedFaults::default()),
            retries: AtomicU64::new(0),
            hb_base: hb::fresh_ids(1),
        });
        (shared, inbound_rx)
    }

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let out = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (inc, _) = listener.accept().unwrap();
        (out, inc)
    }

    #[test]
    fn tcp_frame_for_an_unknown_device_fails_the_run() {
        let shared = bare_shared();
        let (mut out, inc) = loopback_pair();
        out.write_all(&encode_header(3, 7, 0, true, 0)).unwrap();
        drop(out);
        tcp_reader(inc, &shared);
        let err = shared
            .monitor
            .take_error()
            .expect("reader reports a failure");
        assert_eq!(err.task, Some(7));
        assert_eq!(err.kind, FailureKind::Graph);
        assert!(err.message.contains("unknown device d3"), "{}", err.message);
    }

    #[test]
    fn tcp_frame_for_an_unknown_flow_fails_the_run() {
        let flow_to_d0 = Kind::Flow { dst: 0, bytes: 0 };
        let (shared, _inbound) = shared_with(vec![flow_to_d0], 1);
        let (mut out, inc) = loopback_pair();
        out.write_all(&encode_header(0, 7, 0, true, 0)).unwrap();
        drop(out);
        tcp_reader(inc, &shared);
        let err = shared
            .monitor
            .take_error()
            .expect("reader reports a failure");
        assert_eq!(err.task, Some(7));
        assert_eq!(err.kind, FailureKind::Graph);
        assert!(err.message.contains("t7"), "{}", err.message);
    }

    #[test]
    fn tcp_frame_naming_another_devices_flow_fails_the_run() {
        // Task 0 is a flow to d1 and task 1 a marker: a frame for d0 may
        // name neither.
        let kinds = vec![Kind::Flow { dst: 1, bytes: 0 }, Kind::Marker];
        for flow in [0, 1] {
            let (shared, _inbound) = shared_with(kinds.clone(), 2);
            let (mut out, inc) = loopback_pair();
            out.write_all(&encode_header(0, flow, 0, true, 0)).unwrap();
            drop(out);
            tcp_reader(inc, &shared);
            let err = shared
                .monitor
                .take_error()
                .expect("reader reports a failure");
            assert_eq!(err.task, Some(flow));
            assert_eq!(err.kind, FailureKind::Graph);
            assert!(err.message.contains(&format!("t{flow}")), "{}", err.message);
        }
    }

    #[test]
    fn tcp_frame_longer_than_a_chunk_fails_before_allocating() {
        let shared = bare_shared();
        let (mut out, inc) = loopback_pair();
        out.write_all(&encode_header(0, 7, u32::MAX, true, 0))
            .unwrap();
        drop(out);
        tcp_reader(inc, &shared);
        let err = shared
            .monitor
            .take_error()
            .expect("reader reports a failure");
        assert_eq!(err.task, Some(7));
        assert_eq!(err.kind, FailureKind::Transport);
        assert!(err.message.contains("exceeds"), "{}", err.message);
    }

    #[test]
    fn tcp_connection_closed_mid_frame_is_reported() {
        let shared = bare_shared();
        let (mut out, inc) = loopback_pair();
        // 5 of the 14 header bytes, then the peer vanishes.
        out.write_all(&[1, 2, 3, 4, 5]).unwrap();
        drop(out);
        tcp_reader(inc, &shared);
        let err = shared
            .monitor
            .take_error()
            .expect("reader reports a failure");
        assert!(err.message.contains("closed mid-frame"), "{}", err.message);
    }

    #[test]
    fn a_panicking_worker_fails_the_run_instead_of_hanging() {
        let shared = bare_shared();
        let h = spawn_named("cm-test-panic".into(), Arc::clone(&shared), |_| {
            panic!("synthetic worker bug")
        });
        assert!(h.join().is_err());
        let err = shared
            .monitor
            .take_error()
            .expect("guard reports the panic");
        assert_eq!(err.task, None);
        assert!(
            err.message.contains("cm-test-panic") && err.message.contains("panicked"),
            "{}",
            err.message
        );
    }
}
