//! The resharding daemon: accept loop, per-tenant dispatch, worker pool.
//!
//! Life of a request: a reader thread parses the frame and runs admission
//! (token bucket, then bounded queue) under the dispatch lock — rejected
//! requests are answered right there with a `retry_after` hint and never
//! touch a worker. Admitted jobs land in their tenant's queue; workers
//! pull across tenants round-robin (so one chatty tenant cannot starve
//! the rest), plan through the shared cross-tenant [`PlanCache`], execute
//! on the configured backend — which runs the `crossmesh-check` static
//! verifier before anything moves — and write the reply tagged with the
//! request id (clients may pipeline; replies come in completion order).
//!
//! Shutdown is a two-phase drain: first new work is refused while queued
//! work finishes, then the accept and reader loops (which poll their
//! sockets on short ticks precisely so this works) are stopped and
//! metrics/timeline files are flushed.

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::proto::{
    self, DoneReply, ErrorReply, FrameRead, RejectedReply, Request, RequestBody, ReshardRequest,
    Response, StatsReply, TelemetryReply, TenantStats,
};
use crossmesh_core::{planner_for, Plan, PlanCache, PlannerConfig, SenderExclusions, TaskSpec};
use crossmesh_faults::{execute_with_repair, BackendKind, FaultSchedule, RecoveryError};
use crossmesh_hb as hb;
use crossmesh_models::presets;
use crossmesh_netsim::SimError;
use crossmesh_obs as obs;
use crossmesh_runtime::PollListener;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Consecutive rejections (across all tenants, with no admission in
/// between) that count as a shed spike and trigger a flight-recorder
/// dump. Fires once per spike: the streak must be broken by an admission
/// before another dump can trigger.
const SHED_SPIKE_STREAK: u64 = 16;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool width (planning/execution concurrency).
    pub workers: usize,
    /// Per-tenant admission limits.
    pub admission: AdmissionConfig,
    /// Execution backend for admitted requests.
    pub backend: BackendKind,
    /// Planner used when a request leaves `planner` empty.
    pub default_planner: String,
    /// Honour remote [`RequestBody::Shutdown`] requests. Off by default:
    /// a tenant must not be able to stop the daemon unless the operator
    /// opted in.
    pub allow_remote_shutdown: bool,
    /// Write the metrics registry (text format) here on shutdown.
    pub metrics_out: Option<String>,
    /// Write a Chrome/Perfetto timeline of queue depth and throughput
    /// counters here on shutdown.
    pub trace_out: Option<String>,
    /// Directory for flight-recorder dumps (`flightrec-<trigger>-<n>.json`).
    /// Dump triggers — check convictions, fault repairs, shed spikes, SLO
    /// breaches, worker/reader panics — are no-ops when unset.
    pub flightrec_dir: Option<String>,
    /// SLO bound on the rolling-window p99 of execution latency,
    /// milliseconds. Breaches fire `obs.slo.*` counters and a
    /// flight-recorder dump. Unset installs no latency rule.
    pub slo_exec_p99_ms: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            admission: AdmissionConfig::default(),
            backend: BackendKind::Sim,
            default_planner: "ours".into(),
            allow_remote_shutdown: false,
            metrics_out: None,
            trace_out: None,
            flightrec_dir: None,
            slo_exec_p99_ms: None,
        }
    }
}

/// One admitted request waiting for a worker.
struct Job {
    id: u64,
    tenant: String,
    req: ReshardRequest,
    conn: Arc<Conn>,
    enqueued: Instant,
}

/// The write half of a client connection. Workers for different tenants
/// may answer onto the same socket, so writes serialize on this lock and
/// each frame carries its request id for the client to correlate.
struct Conn {
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// Best-effort reply: a client that hung up mid-flight loses its
    /// response, which is its problem, not the daemon's.
    fn send(&self, resp: &Response) {
        let mut w = self.writer.lock();
        let _ = proto::write_frame(&mut *w, resp);
    }
}

/// Per-tenant dispatch state, all guarded by the dispatch lock. The
/// outcome counters are the registry's `serve.tenant.{t}.*` handles, bumped
/// under the lock, so stats replies and telemetry read the same numbers.
struct TenantState {
    bucket: TokenBucket,
    queue: VecDeque<Job>,
    accepted: obs::Counter,
    rejected: obs::Counter,
    completed: obs::Counter,
    failed: obs::Counter,
}

/// Everything behind the dispatch lock: tenant queues plus the
/// round-robin cursor workers use to pick the next tenant.
struct DispatchState {
    tenants: BTreeMap<String, TenantState>,
    cursor: usize,
    queued: usize,
}

impl DispatchState {
    /// Pops one job, round-robin across tenants with non-empty queues.
    /// The cursor indexes the (sorted) tenant key space so fairness is
    /// deterministic given a fixed arrival order. Allocates nothing.
    fn pop_round_robin(&mut self) -> Option<Job> {
        if self.queued == 0 || self.tenants.is_empty() {
            return None;
        }
        let n = self.tenants.len();
        let start = self.cursor % n;
        let ready = |(_, t): &(usize, &TenantState)| !t.queue.is_empty();
        let tenants = self.tenants.values().enumerate();
        let (pos, _) = tenants
            .clone()
            .skip(start)
            .find(ready)
            .or_else(|| tenants.take(start).find(ready))?;
        let job = self.tenants.values_mut().nth(pos)?.queue.pop_front()?;
        self.cursor = (pos + 1) % n;
        self.queued -= 1;
        Some(job)
    }
}

/// Cross-thread server state.
struct Shared {
    cfg: ServeConfig,
    cache: PlanCache,
    registry: obs::MetricsRegistry,
    dispatch: Mutex<DispatchState>,
    work: Condvar,
    /// Phase 1 of shutdown: refuse new work, finish queued work.
    draining: AtomicBool,
    /// Phase 2: accept/reader loops exit at their next tick.
    stopped: AtomicBool,
    /// Set by a remote `Shutdown` request (when allowed); observed by
    /// [`Server::run_until_shutdown`].
    shutdown_requested: AtomicBool,
    /// Verification failures at execute time (the cache counts hit-path
    /// invalidations separately in its own registry).
    exec_convictions: AtomicU64,
    started: Instant,
    /// `(ts_us, queue_depth, completed)` samples for the timeline export,
    /// recorded only when [`ServeConfig::trace_out`] is set.
    samples: Mutex<Vec<(f64, f64, f64)>>,
    queue_depth: obs::Gauge,
    queue_ms: obs::Histogram,
    plan_ms: obs::Histogram,
    exec_ms: obs::Histogram,
    /// Rolling one-minute latency windows behind the `Telemetry` reply's
    /// p50/p99/p999 summaries and the SLO monitor's quantile rules.
    queue_window: obs::SlidingWindowHistogram,
    plan_window: obs::SlidingWindowHistogram,
    exec_window: obs::SlidingWindowHistogram,
    /// Always-on flight recorder; dumped on triggers when
    /// [`ServeConfig::flightrec_dir`] is set.
    recorder: Arc<obs::FlightRecorder>,
    slo: obs::SloMonitor,
    /// Consecutive rejections with no admission in between; a shed spike
    /// fires when it reaches [`SHED_SPIKE_STREAK`].
    shed_streak: AtomicU64,
}

impl Shared {
    /// The daemon's monotonic clock, seconds since start. Feeds the
    /// sliding windows and the SLO monitor.
    fn clock(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Best-effort flight-recorder dump; a no-op without a configured
    /// dump directory, and a failing write never takes down the daemon
    /// it is trying to explain.
    fn dump_flightrec(&self, trigger: &str) {
        let Some(dir) = &self.cfg.flightrec_dir else {
            return;
        };
        match self.recorder.dump_to_dir(Path::new(dir), trigger) {
            Ok(path) => {
                self.registry.counter("serve.flightrec_dumps").inc();
                obs::event(
                    obs::Level::Info,
                    "serve",
                    "flightrec_dump",
                    &[
                        obs::Field::str("trigger", trigger),
                        obs::Field::str("path", path.display().to_string()),
                    ],
                );
            }
            Err(e) => obs::event(
                obs::Level::Warn,
                "serve",
                "flightrec_dump_failed",
                &[obs::Field::str("error", e.to_string())],
            ),
        }
    }

    /// Runs the SLO rules; each breach logs, counts (inside the monitor),
    /// and dumps the flight recorder. The monitor's per-rule cooldown
    /// keeps a sustained breach from dumping on every evaluation.
    fn evaluate_slo(&self) {
        for breach in self.slo.evaluate(self.clock(), &self.registry) {
            obs::event(
                obs::Level::Warn,
                "serve",
                "slo_breach",
                &[
                    obs::Field::str("rule", breach.rule.clone()),
                    obs::Field::f64("value", breach.value),
                    obs::Field::f64("threshold", breach.threshold),
                ],
            );
            self.dump_flightrec("slo-breach");
        }
    }

    /// Renders the full Prometheus-style exposition: the daemon and
    /// plan-cache registries, the `netsim.*` slice of the process-wide
    /// registry (every engine run in the process adds to it), and the
    /// rolling-window latency summaries.
    /// Evaluates the SLO rules first so `obs.slo.*` counters in the
    /// exposition reflect this scrape.
    fn telemetry_text(&self) -> String {
        self.evaluate_slo();
        let now = self.clock();
        let mut text = self.registry.snapshot().render_prometheus();
        text.push_str(&self.cache.registry().snapshot().render_prometheus());
        let netsim = obs::metrics().snapshot_prefixed("netsim.");
        text.push_str(&netsim.render_prometheus());
        text.push_str(
            &self
                .queue_window
                .render_prometheus("serve.queue_ms.window", now),
        );
        text.push_str(
            &self
                .plan_window
                .render_prometheus("serve.plan_ms.window", now),
        );
        text.push_str(
            &self
                .exec_window
                .render_prometheus("serve.exec_ms.window", now),
        );
        text
    }

    /// Records a timeline sample when there is a timeline file to write
    /// it to; otherwise takes no lock. (The `serve.queue_depth` gauge is
    /// set wherever the queue length changes, under the dispatch lock.)
    fn sample(&self) {
        if self.cfg.trace_out.is_none() {
            return;
        }
        let st = self.dispatch.lock();
        let depth = st.queued as f64;
        let completed: u64 = st.tenants.values().map(|t| t.completed.get()).sum();
        drop(st);
        let ts = self.started.elapsed().as_secs_f64() * 1e6;
        self.samples.lock().push((ts, depth, completed as f64));
    }

    /// Total verifier convictions: execute-time failures plus cache
    /// hit-path invalidations.
    fn convictions(&self) -> u64 {
        self.exec_convictions.load(Ordering::Relaxed)
            + self
                .cache
                .registry()
                .snapshot()
                .counter("plan_cache.invalidations")
    }

    fn stats_reply(&self, id: u64) -> StatsReply {
        let cache = self.cache.stats();
        let mut reply = StatsReply {
            id,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries,
            verifier_convictions: self.convictions(),
            ..StatsReply::default()
        };
        let st = self.dispatch.lock();
        for (name, t) in &st.tenants {
            let stats = TenantStats {
                accepted: t.accepted.get(),
                rejected: t.rejected.get(),
                completed: t.completed.get(),
                failed: t.failed.get(),
                queue_depth: t.queue.len(),
            };
            reply.accepted += stats.accepted;
            reply.rejected += stats.rejected;
            reply.completed += stats.completed;
            reply.failed += stats.failed;
            reply.tenants.insert(name.clone(), stats);
        }
        reply
    }
}

/// End-of-life report returned by [`Server::shutdown`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeSummary {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests shed.
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Admitted requests that failed.
    pub failed: u64,
    /// Shared-cache hits across all tenants.
    pub cache_hits: u64,
    /// Shared-cache misses.
    pub cache_misses: u64,
    /// Verifier convictions (must be zero in a healthy run).
    pub verifier_convictions: u64,
    /// Daemon uptime, seconds.
    pub uptime_seconds: f64,
}

/// A running resharding daemon. Dropping it without calling
/// [`shutdown`](Server::shutdown) aborts ungracefully (threads are
/// detached); call `shutdown` to drain.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Keeps the flight recorder installed (fanned out with whatever
    /// collector was already active) for the server's lifetime; dropping
    /// the guard on shutdown restores the previous collector.
    _obs_guard: obs::CollectorGuard,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Binds an ephemeral loopback port (with CI-safe retry) and starts
    /// the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = PollListener::bind_ephemeral()?;
        let addr = listener.local_addr()?;
        let registry = obs::MetricsRegistry::new();
        let hist_bounds = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0];

        // One-minute rolling windows (60 one-second slots) behind the
        // telemetry quantiles and the SLO rules.
        let queue_window = obs::SlidingWindowHistogram::new(1.0, 60);
        let plan_window = obs::SlidingWindowHistogram::new(1.0, 60);
        let exec_window = obs::SlidingWindowHistogram::new(1.0, 60);
        let mut slo = obs::SloMonitor::new(5.0);
        // Burn rate: shedding more than half the incoming requests over
        // an evaluation interval (with enough traffic to mean something)
        // is an overload signal even when latency looks fine.
        slo.add_rule(obs::SloRule::burn_rate(
            "shed_rate",
            registry.counter("serve.shed"),
            registry.counter("serve.requests"),
            0.5,
            20,
        ));
        if let Some(p99_ms) = cfg.slo_exec_p99_ms {
            slo.add_rule(obs::SloRule::quantile(
                "exec_p99_ms",
                exec_window.clone(),
                0.99,
                p99_ms,
                8,
            ));
        }

        // Install the flight recorder for the server's lifetime, fanned
        // out with whatever collector the host process already had. Also
        // publish it as the process-wide recorder so the panic hook (and
        // any other `dump_global` trigger) can reach it.
        let recorder = Arc::new(obs::FlightRecorder::new());
        let fanned: Arc<dyn obs::Collector> = match obs::collector() {
            Some(prev) => Arc::new(obs::Fanout::new(vec![prev, recorder.clone()])),
            None => recorder.clone(),
        };
        let obs_guard = obs::install(fanned);
        obs::recorder::set_global(Some(recorder.clone()));
        if let Some(dir) = &cfg.flightrec_dir {
            obs::recorder::install_panic_hook(PathBuf::from(dir));
        }

        let shared = Arc::new(Shared {
            queue_depth: registry.gauge("serve.queue_depth"),
            queue_ms: registry.histogram("serve.queue_ms", &hist_bounds),
            plan_ms: registry.histogram("serve.plan_ms", &hist_bounds),
            exec_ms: registry.histogram("serve.exec_ms", &hist_bounds),
            queue_window,
            plan_window,
            exec_window,
            recorder,
            slo,
            shed_streak: AtomicU64::new(0),
            cfg,
            cache: PlanCache::new(),
            registry,
            dispatch: Mutex::new(DispatchState {
                tenants: BTreeMap::new(),
                cursor: 0,
                queued: 0,
            }),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            exec_convictions: AtomicU64::new(0),
            started: Instant::now(),
            samples: Mutex::new(Vec::new()),
        });

        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let s = Arc::clone(&shared);
            let r = Arc::clone(&readers);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &s, &r))?
        };

        obs::event(
            obs::Level::Info,
            "serve",
            "started",
            &[
                obs::Field::str("addr", addr.to_string()),
                obs::Field::u64("workers", shared.cfg.workers.max(1) as u64),
            ],
        );
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
            readers,
            _obs_guard: obs_guard,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot (same shape the `Stats` request returns).
    pub fn stats(&self) -> StatsReply {
        self.shared.stats_reply(0)
    }

    /// The Prometheus-style exposition the `Telemetry` request returns.
    pub fn telemetry(&self) -> String {
        self.shared.telemetry_text()
    }

    /// The daemon's metrics registry (per-tenant counters, latency
    /// histograms, queue-depth gauge).
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.shared.registry
    }

    /// Blocks until a permitted remote `Shutdown` request arrives or
    /// `limit` (if given) has passed, then drains and returns the summary.
    pub fn run_until_shutdown(self, limit: Option<Duration>) -> ServeSummary {
        // A limit past the end of the clock is no limit.
        let deadline = limit.and_then(|l| Instant::now().checked_add(l));
        while !self.shared.shutdown_requested.load(Ordering::SeqCst) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            thread::sleep(Duration::from_millis(25));
        }
        self.shutdown()
    }

    /// Graceful shutdown: refuse new work, finish queued work, stop the
    /// accept and reader loops, flush metrics and timeline files.
    pub fn shutdown(mut self) -> ServeSummary {
        let shared = &self.shared;
        // Phase 1: drain. Readers now answer every reshard request with
        // `Rejected{shutting_down}`; workers exit once queues are empty.
        shared.draining.store(true, Ordering::SeqCst);
        shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Phase 2: stop the I/O loops at their next poll tick.
        shared.stopped.store(true, Ordering::SeqCst);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let readers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.readers.lock());
        for r in readers {
            let _ = r.join();
        }
        shared.sample();
        // Phase 3: flush observability outputs, the simulator's share of
        // the work included.
        if let Some(path) = &shared.cfg.metrics_out {
            let mut text = shared.registry.render_text();
            text.push_str(&shared.cache.registry().render_text());
            text.push_str(&obs::metrics().snapshot_prefixed("netsim.").render_text());
            let _ = std::fs::write(path, text);
        }
        if let Some(path) = &shared.cfg.trace_out {
            let _ = std::fs::write(path, render_timeline(shared));
        }

        let stats = shared.stats_reply(0);
        let summary = ServeSummary {
            accepted: stats.accepted,
            rejected: stats.rejected,
            completed: stats.completed,
            failed: stats.failed,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            verifier_convictions: stats.verifier_convictions,
            uptime_seconds: shared.started.elapsed().as_secs_f64(),
        };
        obs::event(
            obs::Level::Info,
            "serve",
            "stopped",
            &[
                obs::Field::u64("completed", summary.completed),
                obs::Field::u64("rejected", summary.rejected),
                obs::Field::u64("convictions", summary.verifier_convictions),
            ],
        );
        summary
    }
}

/// Renders the queue-depth/throughput timeline as a Chrome trace.
fn render_timeline(shared: &Shared) -> String {
    let mut export = obs::export::TraceExport::new();
    let samples = shared.samples.lock();
    let depth: Vec<(f64, f64)> = samples.iter().map(|&(ts, d, _)| (ts, d)).collect();
    let done: Vec<(f64, f64)> = samples.iter().map(|&(ts, _, c)| (ts, c)).collect();
    export.add_counter("serve.queue_depth", &depth);
    export.add_counter("serve.completed", &done);
    export.add_instant("serve.start", "serve", 0.0, 0, 0);
    export.add_instant(
        "serve.shutdown",
        "serve",
        shared.started.elapsed().as_secs_f64() * 1e6,
        0,
        0,
    );
    export.render()
}

/// Accepts connections until `stopped`, spawning one reader per client.
fn accept_loop(
    listener: &PollListener,
    shared: &Arc<Shared>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn = 0u64;
    while !shared.stopped.load(Ordering::SeqCst) {
        match listener.accept_timeout(Duration::from_millis(50)) {
            Ok(Some((stream, _peer))) => {
                next_conn += 1;
                let s = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("serve-conn-{next_conn}"))
                    .spawn(move || {
                        // A panicking reader must not die silently: dump
                        // the flight recorder so the frame that killed it
                        // is inspectable, and count the death.
                        let r = catch_unwind(AssertUnwindSafe(|| reader_loop(stream, &s)));
                        if r.is_err() {
                            s.registry.counter("serve.worker_panics").inc();
                            s.dump_flightrec("reader-panic");
                        }
                    });
                match spawned {
                    Ok(handle) => readers.lock().push(handle),
                    Err(e) => obs::event(
                        obs::Level::Error,
                        "serve",
                        "reader_spawn_failed",
                        &[obs::Field::str("error", e.to_string())],
                    ),
                }
            }
            Ok(None) => {}
            Err(e) => {
                obs::event(
                    obs::Level::Error,
                    "serve",
                    "accept_failed",
                    &[obs::Field::str("error", e.to_string())],
                );
                break;
            }
        }
    }
}

/// Reads frames off one connection, running admission inline and handing
/// admitted jobs to the worker pool. Polls on a short read timeout so
/// shutdown is observed within a tick even on an idle connection.
fn reader_loop(stream: TcpStream, shared: &Arc<Shared>) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
    });
    let mut reader = stream;
    loop {
        if shared.stopped.load(Ordering::SeqCst) {
            // Final sweep before closing: answer every frame already on
            // the wire (reshards are rejected as `shutting_down` by
            // `handle_request` since we are draining). Closing with
            // unread bytes in the socket buffer would RST the peer and
            // discard replies it has not read yet — requests would
            // silently vanish instead of being explicitly shed.
            // Bounded so a client that keeps streaming cannot stall
            // shutdown; anything past the cap is abandoned to the RST.
            for _ in 0..4096 {
                match proto::read_frame_timeout::<_, Request>(&mut reader) {
                    Ok(FrameRead::Frame(req)) => handle_request(req, &conn, shared),
                    Ok(FrameRead::TimedOut) | Ok(FrameRead::Eof) | Err(_) => return,
                }
            }
            return;
        }
        match proto::read_frame_timeout::<_, Request>(&mut reader) {
            Ok(FrameRead::TimedOut) => {}
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Frame(req)) => handle_request(req, &conn, shared),
            Err(e) => {
                obs::event(
                    obs::Level::Warn,
                    "serve",
                    "bad_frame",
                    &[obs::Field::str("error", e.to_string())],
                );
                return;
            }
        }
    }
}

/// Dispatches one parsed request: control requests answer inline,
/// reshard requests run admission.
fn handle_request(req: Request, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    match req.body {
        RequestBody::Ping => conn.send(&Response::Pong { id: req.id }),
        RequestBody::Stats => conn.send(&Response::Stats(shared.stats_reply(req.id))),
        RequestBody::Telemetry => conn.send(&Response::Telemetry(TelemetryReply {
            id: req.id,
            text: shared.telemetry_text(),
        })),
        RequestBody::Shutdown => {
            if shared.cfg.allow_remote_shutdown {
                conn.send(&Response::ShuttingDown { id: req.id });
                shared.shutdown_requested.store(true, Ordering::SeqCst);
            } else {
                conn.send(&Response::Error(ErrorReply {
                    id: req.id,
                    message: "remote shutdown is not enabled on this server".into(),
                }));
            }
        }
        RequestBody::Reshard(r) => admit(req.id, req.tenant, r, conn, shared),
    }
}

/// Admission control: bucket, then bounded queue, under the dispatch
/// lock. Rejections are answered here; admitted jobs wake a worker.
fn admit(id: u64, tenant: String, req: ReshardRequest, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let now = Instant::now();
    let verdict = {
        let mut st = shared.dispatch.lock();
        let cfg = shared.cfg.admission;
        let t = st
            .tenants
            .entry(tenant.clone())
            .or_insert_with(|| new_tenant(&cfg, now, &shared.registry, &tenant));
        if shared.draining.load(Ordering::SeqCst) {
            t.rejected.inc();
            Err(("shutting_down".to_string(), 1000))
        } else {
            match t.bucket.try_acquire(now) {
                Err(wait) => {
                    t.rejected.inc();
                    Err(("rate_limited".to_string(), wait.as_millis() as u64 + 1))
                }
                Ok(()) if t.queue.len() >= cfg.queue_depth => {
                    t.rejected.inc();
                    // Hint: one bucket period — by then at least one slot
                    // should have drained.
                    Err((
                        "queue_full".to_string(),
                        ((1000.0 / cfg.rate.max(1e-6)) as u64).clamp(1, 10_000),
                    ))
                }
                Ok(()) => {
                    t.accepted.inc();
                    // Admission-queue access point for `check::race`: every
                    // push/pop must stay under the dispatch lock.
                    hb::write(hb::object_id(&shared.dispatch));
                    t.queue.push_back(Job {
                        id,
                        tenant: tenant.clone(),
                        req,
                        conn: Arc::clone(conn),
                        enqueued: now,
                    });
                    st.queued += 1;
                    shared.queue_depth.set(st.queued as f64);
                    Ok(())
                }
            }
        }
    };
    shared.registry.counter("serve.requests").inc();
    match verdict {
        Ok(()) => {
            shared.shed_streak.store(0, Ordering::Relaxed);
            shared.sample();
            shared.work.notify_one();
        }
        Err((reason, retry_after_ms)) => {
            shared.registry.counter("serve.shed").inc();
            let streak = shared.shed_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak == SHED_SPIKE_STREAK {
                obs::event(
                    obs::Level::Warn,
                    "serve",
                    "shed_spike",
                    &[
                        obs::Field::u64("streak", streak),
                        obs::Field::str("reason", reason.clone()),
                    ],
                );
                shared.dump_flightrec("shed-spike");
            }
            conn.send(&Response::Rejected(RejectedReply {
                id,
                reason,
                retry_after_ms,
            }));
        }
    }
}

fn new_tenant(
    cfg: &AdmissionConfig,
    now: Instant,
    registry: &obs::MetricsRegistry,
    tenant: &str,
) -> TenantState {
    let counter = |which: &str| registry.counter(&format!("serve.tenant.{tenant}.{which}"));
    TenantState {
        bucket: TokenBucket::new(cfg.rate, cfg.burst, now),
        queue: VecDeque::new(),
        accepted: counter("accepted"),
        rejected: counter("rejected"),
        completed: counter("completed"),
        failed: counter("failed"),
    }
}

/// Worker loop: pop round-robin, process, repeat; exit once draining and
/// empty.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut st = shared.dispatch.lock();
            loop {
                if let Some(job) = st.pop_round_robin() {
                    hb::write(hb::object_id(&shared.dispatch));
                    shared.queue_depth.set(st.queued as f64);
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                shared.work.wait_for(&mut st, Duration::from_millis(50));
            }
        };
        let Some(job) = job else { return };
        // A panicking job must cost the daemon one reply, not one worker:
        // dump the recorder, answer the client, count the tenant failure,
        // and keep looping.
        let (id, tenant, conn) = (job.id, job.tenant.clone(), Arc::clone(&job.conn));
        if catch_unwind(AssertUnwindSafe(|| process(job, shared))).is_err() {
            shared.registry.counter("serve.worker_panics").inc();
            shared.dump_flightrec("worker-panic");
            if let Some(t) = shared.dispatch.lock().tenants.get(&tenant) {
                t.failed.inc();
            }
            conn.send(&Response::Error(ErrorReply {
                id,
                message: "internal error: worker panicked (flight recorder dumped)".into(),
            }));
        }
        shared.evaluate_slo();
        shared.sample();
    }
}

/// Plans (through the shared cache), executes, and answers one job.
fn process(job: Job, shared: &Arc<Shared>) {
    let queue_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
    shared.queue_ms.observe(queue_ms);
    shared.queue_window.observe(shared.clock(), queue_ms);
    let outcome = run_job(&job, shared, queue_ms);
    let (ok, resp) = match outcome {
        Ok(done) => (true, Response::Done(done)),
        Err(message) => (
            false,
            Response::Error(ErrorReply {
                id: job.id,
                message,
            }),
        ),
    };
    if let Some(t) = shared.dispatch.lock().tenants.get(&job.tenant) {
        if ok {
            t.completed.inc();
        } else {
            t.failed.inc();
        }
    }
    job.conn.send(&resp);
}

fn run_job(job: &Job, shared: &Arc<Shared>, queue_ms: f64) -> Result<DoneReply, String> {
    let params = presets::p3_cost_params();
    let req = &job.req;
    let (task, cluster) = TaskSpec {
        src_spec: req.src_spec.clone(),
        dst_spec: req.dst_spec.clone(),
        src_mesh: req.src_mesh.clone(),
        dst_mesh: req.dst_mesh.clone(),
        shape: req.shape.clone(),
        elem_bytes: req.elem_bytes,
        inter_bw: params.inter_bw,
        intra_bw: params.intra_bw,
        inter_latency: params.inter_latency,
        intra_latency: params.intra_latency,
    }
    .build()
    .map_err(|e| e.to_string())?;
    let planner_name = if job.req.planner.is_empty() {
        shared.cfg.default_planner.as_str()
    } else {
        job.req.planner.as_str()
    };
    let planner = planner_for(planner_name, PlannerConfig::new(params), job.req.seed)?;

    let plan_start = Instant::now();
    let (plan, cache_hit): (Plan<'_>, bool) = shared
        .cache
        .plan_with_exclusions_outcome(&*planner, &task, &SenderExclusions::none())
        .map_err(|e| format!("planning failed: {e}"))?;
    let plan_ms = plan_start.elapsed().as_secs_f64() * 1e3;
    shared.plan_ms.observe(plan_ms);
    shared.plan_window.observe(shared.clock(), plan_ms);

    // Every request runs the recovery loop: a request without a fault
    // schedule gets the empty one, which is the clean run. Failover
    // planning reuses the shared plan cache, so repeated (plan,
    // crashed-hosts) pairs replay.
    let exec_start = Instant::now();
    let schedule = parse_faults(job.req.faults.as_deref())?;
    let recovery = execute_with_repair(
        &plan,
        &cluster,
        shared.cfg.backend,
        &schedule,
        Some(&shared.cache),
    )
    .map_err(|e| {
        if is_conviction(&e) {
            shared.exec_convictions.fetch_add(1, Ordering::Relaxed);
            shared.dump_flightrec("check-conviction");
        }
        format!("execution failed: {e}")
    })?;
    if recovery.repaired.is_some() {
        shared.registry.counter("serve.fault_repairs").inc();
        shared
            .registry
            .counter("serve.failovers")
            .add(recovery.failovers as u64);
        obs::event(
            obs::Level::Warn,
            "serve",
            "fault_repair",
            &[
                obs::Field::u64("failovers", recovery.failovers as u64),
                obs::Field::u64("retries", recovery.retries),
            ],
        );
        shared.dump_flightrec("fault-repair");
    }
    let simulated_seconds = recovery.run.report().simulated_seconds;
    let exec_ms = exec_start.elapsed().as_secs_f64() * 1e3;
    shared.exec_ms.observe(exec_ms);
    shared.exec_window.observe(shared.clock(), exec_ms);

    Ok(DoneReply {
        id: job.id,
        cache_hit,
        queue_ms,
        plan_ms,
        exec_ms,
        estimate_seconds: plan.estimate(),
        simulated_seconds,
        unit_tasks: task.units().len(),
    })
}

/// Parses a request's optional inline fault schedule. Absent, empty or
/// whitespace-only text is the empty schedule.
fn parse_faults(text: Option<&str>) -> Result<FaultSchedule, String> {
    match text {
        Some(t) if !t.trim().is_empty() => {
            FaultSchedule::from_json(t).map_err(|e| format!("bad fault schedule: {e}"))
        }
        _ => Ok(FaultSchedule::default()),
    }
}

/// True if the static verifier refused a plan, on the first attempt or
/// after repair: the convictions `verifier_convictions` counts.
fn is_conviction(e: &RecoveryError) -> bool {
    matches!(
        e,
        RecoveryError::Sim(SimError::Backend {
            backend: "check",
            ..
        })
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{FailureKind, TaskId};

    #[test]
    fn convictions_are_counted_by_type_not_by_message() {
        let check = |message: &str| {
            RecoveryError::Sim(SimError::Backend {
                backend: "check",
                message: message.into(),
            })
        };
        assert!(is_conviction(&check(
            "plan failed static verification:\nerror [plan.coverage.missing]"
        )));
        assert!(is_conviction(&check(
            "repaired plan failed static verification:\nerror [plan.exclusion]"
        )));
        // A runtime failure is not a conviction, whatever its text says.
        let failed = RecoveryError::Sim(SimError::TaskFailed {
            backend: "threads",
            task: TaskId(0),
            kind: FailureKind::Transport,
            detail: "peer reset during static verification".into(),
        });
        assert!(!is_conviction(&failed));
    }

    #[test]
    fn a_daemon_without_a_timeline_file_keeps_no_samples() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let mut client = crate::Client::connect(server.addr()).expect("connects");
        let request = ReshardRequest {
            src_spec: "RS0R".into(),
            dst_spec: "S0RR".into(),
            src_mesh: "2x4".into(),
            dst_mesh: "2x4".into(),
            shape: "64x64x8".into(),
            elem_bytes: 4,
            planner: "ours".into(),
            seed: None,
            faults: None,
        };
        for _ in 0..4 {
            let reply = client.reshard("t", request.clone()).expect("answered");
            assert!(matches!(reply, Response::Done(_)), "{reply:?}");
        }
        assert!(server.shared.samples.lock().is_empty());
        let summary = server.shutdown();
        assert_eq!(summary.completed, 4);
    }

    #[test]
    fn round_robin_pops_tenants_in_key_order_skipping_empty_queues() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let stream = TcpStream::connect(listener.local_addr().expect("bound")).expect("connects");
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
        });
        let request = ReshardRequest {
            src_spec: "RS0R".into(),
            dst_spec: "S0RR".into(),
            src_mesh: "2x4".into(),
            dst_mesh: "2x4".into(),
            shape: "64x64x8".into(),
            elem_bytes: 4,
            planner: "ours".into(),
            seed: None,
            faults: None,
        };
        let (registry, now) = (obs::MetricsRegistry::new(), Instant::now());
        let mut st = DispatchState {
            tenants: BTreeMap::new(),
            cursor: 0,
            queued: 0,
        };
        // Tenant "b" queues 2 jobs, "a" 3 and "c" 1; job ids name them.
        for (tenant, ids) in [("b", &[10, 11][..]), ("a", &[0, 1, 2]), ("c", &[20])] {
            let mut state = new_tenant(&AdmissionConfig::default(), now, &registry, tenant);
            for &id in ids {
                state.queue.push_back(Job {
                    id,
                    tenant: tenant.into(),
                    req: request.clone(),
                    conn: Arc::clone(&conn),
                    enqueued: now,
                });
            }
            st.queued += ids.len();
            st.tenants.insert(tenant.into(), state);
        }
        let order: Vec<u64> = std::iter::from_fn(|| st.pop_round_robin())
            .map(|job| job.id)
            .collect();
        assert_eq!(order, [0, 10, 20, 1, 11, 2]);
        assert_eq!((st.queued, st.cursor), (0, 1));
    }

    #[test]
    fn the_queue_depth_gauge_reads_the_queue_length_after_a_burst() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let shared = Arc::clone(&server.shared);
        // Replies go to a socket of the test's own.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let stream = TcpStream::connect(listener.local_addr().expect("bound")).expect("connects");
        let (_peer, _) = listener.accept().expect("accepts");
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
        });
        let request = ReshardRequest {
            src_spec: "RS0R".into(),
            dst_spec: "S0RR".into(),
            src_mesh: "2x4".into(),
            dst_mesh: "2x4".into(),
            shape: "64x64x8".into(),
            elem_bytes: 4,
            planner: "ours".into(),
            seed: None,
            faults: None,
        };
        let burst = shared.cfg.admission.burst as u64;
        for id in 0..burst {
            admit(id, "t".into(), request.clone(), &conn, &shared);
        }
        // The gauge moves in the critical section that moves the queue, so
        // under the lock the two agree, whatever the worker popped since.
        {
            let st = shared.dispatch.lock();
            assert_eq!(shared.queue_depth.get(), st.queued as f64);
        }
        let summary = server.shutdown();
        assert_eq!(summary.completed, burst, "every admitted job ran");
        assert_eq!(shared.queue_depth.get(), 0.0, "the drained queue reads 0");
        assert!(shared.samples.lock().is_empty(), "no timeline file");
    }
}
