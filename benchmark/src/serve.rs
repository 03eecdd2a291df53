//! The three daemon workloads: `serve_hit`, `serve_miss` (closed loops)
//! and `serve_open` (open loop). The daemon runs in this process through
//! `serve::Server::start`; all traffic crosses the loopback interface.

use crate::gen::{self, Planned, RequestList};
use crate::layers::{self, Reference, ReplayRow};
use crate::load::{self, Limit, LoadResult, OpRecord, Outcome};
use crate::metrics::{set_p50_p95, setup_seconds, Pace, Report};
use crate::spans::{self, Recorder};
use crate::stats;
use crossmesh::core::PlanCache;
use crossmesh::serve::{
    AdmissionConfig, BackendKind, Client, DoneReply, ServeConfig, Server, StatsReply,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hit,
    Miss,
    Open,
}

impl Kind {
    /// Closed loops never meet admission control: a bucket no client can
    /// drain. The open loop runs under the limits its tenants are sized
    /// against (rate 30/s, burst 20 per tenant).
    fn admission(self) -> AdmissionConfig {
        match self {
            Kind::Hit | Kind::Miss => AdmissionConfig {
                rate: 1e6,
                burst: 1e6,
                queue_depth: 64,
            },
            Kind::Open => AdmissionConfig {
                rate: 30.0,
                burst: 20.0,
                queue_depth: 64,
            },
        }
    }

    /// Completed-op count at which memory and plan quality are read, so a
    /// faster commit that completes more ops is not charged for them.
    fn checkpoint(self, timed: usize) -> usize {
        match self {
            Kind::Hit => 800,
            Kind::Miss => 500,
            Kind::Open => timed,
        }
    }

    /// Every how many distinct tasks the full reference is computed. A
    /// `serve_miss` reference costs as much as the op it checks (it is the
    /// same planner call), so checking every reply would take as long as
    /// the timed phase; there, every fourth task gets the full reference
    /// and every reply the cheap checks (unit-task count, cache-hit flag).
    fn reference_stride(self) -> usize {
        match self {
            Kind::Hit | Kind::Open => 1,
            Kind::Miss => 4,
        }
    }

    /// Requests the traced replay pushes through the layers: as many as
    /// about five seconds allow, since the replay keeps the run's own pace
    /// (and a `serve_miss` request replays in ≈ 60 ms besides).
    fn replayed(self) -> usize {
        match self {
            Kind::Hit => 96,
            Kind::Miss => 48,
            Kind::Open => 160,
        }
    }

    fn requests(self, seed: u64, seconds: u64) -> RequestList {
        match self {
            Kind::Hit => gen::serve_hit(seed),
            // Room for a daemon ten times faster than today's ≈ 30 op/s.
            Kind::Miss => gen::serve_miss(seed, 400 * seconds as usize),
            Kind::Open => gen::serve_open(seed, (gen::OPEN_RATE * seconds as f64) as usize),
        }
    }
}

/// A daemon with its connections open and its warm-up done.
struct Ready {
    server: Server,
    streams: Vec<TcpStream>,
    list: RequestList,
}

/// One complete set-up: generate the request list, start the daemon,
/// connect, and run the warm-up (a fixed op count, so its cost is the
/// program's and not a sleep's).
fn set_up(kind: Kind, seed: u64, seconds: u64) -> Result<Ready, String> {
    let list = kind.requests(seed, seconds);
    let server = Server::start(ServeConfig {
        workers: 2,
        backend: BackendKind::Sim,
        admission: kind.admission(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon failed to start: {e}"))?;
    let mut streams = Vec::new();
    for _ in 0..gen::CONNS {
        streams.push(load::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let warm = load::closed_loop(
        &mut streams,
        &list.warmup,
        false,
        Limit::Ops(list.warmup.len()),
        usize::MAX,
        seed,
        None,
    );
    let done = warm
        .ops
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Done(_)))
        .count();
    if done != list.warmup.len() {
        server.shutdown();
        return Err(format!(
            "warm-up: {done} of {} requests completed",
            list.warmup.len()
        ));
    }
    Ok(Ready {
        server,
        streams,
        list,
    })
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    process_start: Instant,
) -> Result<Report, String> {
    let Ready {
        server,
        mut streams,
        list,
    } = set_up(kind, seed, seconds)?;
    let first_setup_s = process_start.elapsed().as_secs_f64();

    let checkpoint = kind.checkpoint(list.timed.len());
    let origin = trace.then_some(process_start);
    let result = match kind {
        Kind::Hit | Kind::Miss => load::closed_loop(
            &mut streams,
            &list.timed,
            list.cyclic,
            Limit::For(Duration::from_secs(seconds)),
            checkpoint,
            seed,
            origin,
        ),
        Kind::Open => load::open_loop(&mut streams, &list.timed, &list.schedule, origin),
    };
    let rss_end = load::vm_hwm_mb();
    let server_stats = Client::connect(server.addr()).and_then(|mut c| c.stats());
    drop(streams);

    let mut report = Report {
        attempted: result.ops.len(),
        checkpoint,
        checkpoint_reached: result.rss_at_checkpoint_mb.is_some(),
        ..Report::default()
    };
    report.end_to_end.set(
        "peak_rss_mb",
        result.rss_at_checkpoint_mb.unwrap_or(rss_end),
    );
    // Correctness: every Done reply against the cache-free reference.
    let refs = references(&list.timed, &result.ops, kind.reference_stride())?;
    let pool: HashSet<String> = list.warmup.iter().map(|p| layers::key(&p.req)).collect();
    let mut samples = Vec::with_capacity(result.ops.len());
    // Keyed by task and ordered, so the geomean never depends on hash order.
    let mut makespans: BTreeMap<String, f64> = BTreeMap::new();
    for op in &result.ops {
        let planned = &list.timed[op.index];
        match &op.outcome {
            Outcome::Done(done) => {
                let key = layers::key(&planned.req);
                let want = refs[&key];
                // A task the warm-up planned must be a cache hit, and a
                // task never sent before must not be.
                let seen_before = pool.contains(&key);
                if want
                    .simulated_seconds
                    .is_none_or(|s| s == done.simulated_seconds)
                    && done.unit_tasks == want.unit_tasks
                    && done.cache_hit == seen_before
                {
                    report.ok += 1;
                    samples.push((op.done_s, op.latency_ms()));
                    if op.seq < checkpoint {
                        makespans.insert(key, done.simulated_seconds * 1e3);
                    }
                } else {
                    report.fail(format!(
                        "request {}: {done:?}; expected {want:?}, cache_hit {seen_before}",
                        op.index
                    ));
                }
            }
            // The open loop's over-rate tenant must be rate-limited; that
            // reply is the right one. Nobody else may ever be shed.
            Outcome::Rejected(reason)
                if kind == Kind::Open
                    && planned.tenant == gen::BURSTY
                    && reason == "rate_limited" =>
            {
                report.shed_by_design += 1;
            }
            Outcome::Rejected(reason) => report.fail(format!(
                "request {} of tenant {} shed: {reason}",
                op.index, planned.tenant
            )),
            Outcome::Failed(why) => report.fail(format!("request {}: {why}", op.index)),
        }
    }
    let pace = match kind {
        Kind::Hit | Kind::Miss => Pace::Closed {
            clients: gen::CONNS,
        },
        Kind::Open => Pace::Open {
            elapsed_s: result.elapsed_s,
        },
    };
    report.set_latencies(&samples, seconds as f64, pace);
    let makespans: Vec<f64> = makespans.into_values().collect();
    report
        .end_to_end
        .set("sim_makespan_geomean_ms", stats::geomean(&makespans));

    // The daemon stays up (idle) through the replay: it keeps its flight
    // recorder installed as the process's span collector, so the replayed
    // library calls pay for the program's own instrumentation exactly as
    // they do inside a worker.
    let traced = match (trace, server_stats) {
        (true, Ok(stats_reply)) => traced_layers(
            kind,
            &list,
            result,
            &refs,
            &stats_reply,
            process_start,
            &mut report,
        ),
        (true, Err(e)) => Err(format!("stats request: {e}")),
        (false, _) => Ok(()),
    };
    let summary = server.shutdown();
    traced?;
    if summary.verifier_convictions != 0 {
        report.fail(format!(
            "{} verifier convictions",
            summary.verifier_convictions
        ));
    }
    let setup_s = setup_seconds(
        first_setup_s,
        || set_up(kind, seed, seconds),
        |spare| {
            drop(spare.streams);
            spare.server.shutdown();
        },
    )?;
    report.end_to_end.set("setup_s", setup_s);
    Ok(report)
}

/// The reference for every distinct task that was answered `Done`: the
/// unit-task count always, the simulated time for every `stride`-th task.
/// Computed on two threads (this is after the timed phase; nothing is
/// being measured any more).
fn references(
    list: &[Planned],
    ops: &[OpRecord],
    stride: usize,
) -> Result<HashMap<String, Reference>, String> {
    let mut todo: Vec<&Planned> = Vec::new();
    let mut seen = HashSet::new();
    for op in ops {
        let planned = &list[op.index];
        if matches!(op.outcome, Outcome::Done(_)) && seen.insert(layers::key(&planned.req)) {
            todo.push(planned);
        }
    }
    // Interleaved halves, so both threads get the same share of full
    // references.
    let half = |parity: usize| {
        todo.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(i, p)| {
                let full = i % stride == 0;
                Ok((layers::key(&p.req), layers::reference(&p.req, full)?))
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| half(1));
        (half(0), other.join().expect("reference thread panicked"))
    });
    Ok(a?.into_iter().chain(b?).collect())
}

/// One wire-reported field of every `Done` reply.
fn done_field(ops: &[OpRecord], pick: fn(&DoneReply) -> f64) -> Vec<f64> {
    ops.iter()
        .filter_map(|o| match &o.outcome {
            Outcome::Done(d) => Some(pick(d)),
            _ => None,
        })
        .collect()
}

/// Per-layer numbers of a traced run: from the fields the daemon returns
/// over the wire, and from a replay of the first requests of the same
/// list through the public functions, one layer at a time.
fn traced_layers(
    kind: Kind,
    list: &RequestList,
    result: LoadResult,
    refs: &HashMap<String, Reference>,
    stats_reply: &StatsReply,
    process_start: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let LoadResult {
        ops,
        elapsed_s,
        spans: mut all_spans,
        ..
    } = result;
    let out = &mut report.per_layer;

    // Wire-reported fields.
    let done: Vec<(&OpRecord, &DoneReply)> = ops
        .iter()
        .filter_map(|o| match &o.outcome {
            Outcome::Done(d) => Some((o, d)),
            _ => None,
        })
        .collect();
    let residual: Vec<f64> = done
        .iter()
        .map(|(o, d)| o.latency_ms() - d.queue_ms - d.plan_ms - d.exec_ms)
        .collect();
    set_p50_p95(
        out,
        "wire.residual_ms.p50",
        "wire.residual_ms.p95",
        &residual,
    );
    set_p50_p95(
        out,
        "server.queue_ms.p50",
        "server.queue_ms.p95",
        &done_field(&ops, |d| d.queue_ms),
    );
    set_p50_p95(
        out,
        "server.plan_ms.p50",
        "server.plan_ms.p95",
        &done_field(&ops, |d| d.plan_ms),
    );
    set_p50_p95(
        out,
        "server.exec_ms.p50",
        "server.exec_ms.p95",
        &done_field(&ops, |d| d.exec_ms),
    );
    let hits = done.iter().filter(|(_, d)| d.cache_hit).count();
    out.set("cache.hit_ratio", hits as f64 / done.len().max(1) as f64);
    out.set("cache.entries", stats_reply.cache_entries as f64);
    out.set(
        "server.convictions",
        stats_reply.verifier_convictions as f64,
    );

    // Admission.
    let shed = |reason: &str| {
        ops.iter()
            .filter(|o| matches!(&o.outcome, Outcome::Rejected(r) if r == reason))
            .count() as f64
    };
    let rejected = ops
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Rejected(_)))
        .count();
    out.set("admission.rate_limited", shed("rate_limited"));
    out.set("admission.queue_full", shed("queue_full"));
    out.set(
        "admission.shed_ratio",
        rejected as f64 / ops.len().max(1) as f64,
    );
    let victims: Vec<&OpRecord> = ops
        .iter()
        .filter(|o| list.timed[o.index].tenant != gen::BURSTY)
        .collect();
    let victims_shed = victims
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Rejected(_)))
        .count();
    out.set(
        "admission.victim_shed_ratio",
        victims_shed as f64 / victims.len().max(1) as f64,
    );

    // The generator itself.
    if kind == Kind::Open {
        let late: Vec<f64> = ops.iter().map(|o| (o.sent_s - o.due_s) * 1e3).collect();
        out.set(
            "loadgen.late_ms.p95",
            stats::tail(&stats::sorted(&late), 0.95).value,
        );
    }
    // Traced and untraced blocks alternate within this one run; for a
    // closed loop, throughput is the inverse of mean latency.
    let mean_latency = |traced: bool| {
        let v: Vec<f64> = done
            .iter()
            .filter(|(o, _)| o.traced == traced)
            .map(|(o, _)| o.latency_ms())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let (plain, traced) = (mean_latency(false), mean_latency(true));
    out.set(
        "trace.overhead_frac",
        if traced > 0.0 {
            1.0 - plain / traced
        } else {
            0.0
        },
    );

    // What the daemon itself reported for its share of each op.
    let served = stats::median(&done_field(&ops, |d| d.plan_ms + d.exec_ms));
    // Replay: warm a private cache the way the warm-up warmed the
    // daemon's (untimed), then push the first requests through in order,
    // at the pace the daemon's two workers saw them. A worker runs every
    // op after idling (40 ms, in the closed loops); replayed back to back,
    // with caches hot and the core never asleep, every layer reads about
    // a third faster than it ever is inside the daemon.
    let idle = Duration::from_secs_f64(
        (2.0 * elapsed_s / done.len().max(1) as f64 - served / 1e3).clamp(0.0, 0.1),
    );
    let cache = PlanCache::new();
    let mut rec = Recorder::new(false, process_start);
    for p in &list.warmup {
        layers::replay(&mut rec, p.id, p.tenant, &p.req, &cache)?;
    }
    rec.set_enabled(true);
    let count = kind.replayed().min(ops.len());
    let mut rows: Vec<ReplayRow> = Vec::with_capacity(count);
    for op in ops.iter().filter(|o| o.seq < count) {
        // What was shed never reached a worker; the replay skips it too.
        if !matches!(op.outcome, Outcome::Done(_)) {
            continue;
        }
        let planned = &list.timed[op.index];
        std::thread::sleep(idle);
        rec.set_request(op.index);
        let row = layers::replay(&mut rec, planned.id, planned.tenant, &planned.req, &cache)?;
        let want = refs[&layers::key(&planned.req)].simulated_seconds;
        if want.is_some_and(|s| s != row.simulated_seconds) {
            report.failures.push(format!(
                "replay of request {} disagrees with its reference",
                op.index
            ));
        }
        rows.push(row);
    }
    let replayed = rec.into_spans();
    let out = &mut report.per_layer;
    let med_us = |name: &str| stats::median(&spans::durations_us(&replayed, name));
    let med = |f: fn(&ReplayRow) -> f64| stats::median(&rows.iter().map(f).collect::<Vec<_>>());
    out.set("proto.encode_us", med_us("proto.encode"));
    out.set("proto.decode_us", med_us("proto.decode"));
    out.set("proto.request_bytes", med(|r| r.request_bytes as f64));
    out.set("proto.reply_bytes", med(|r| r.reply_bytes as f64));
    out.set("mesh.build_us", med_us("mesh.build"));
    out.set("mesh.unit_tasks", med(|r| r.unit_tasks as f64));
    out.set("cache.hit_us", med_us("cache.hit"));
    out.set(
        "cache.miss_overhead_us",
        stats::median(
            &rows
                .iter()
                .filter_map(|r| r.miss_overhead_us)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("planner.ensemble_ms", med_us("planner.ensemble") / 1e3);
    out.set("planner.dfs_ms", med_us("planner.dfs") / 1e3);
    out.set("planner.greedy_ms", med_us("planner.greedy") / 1e3);
    out.set(
        "planner.gap_ratio",
        stats::geomean(&rows.iter().map(|r| r.gap_ratio).collect::<Vec<_>>()),
    );
    out.set("check.verify_us", med_us("check.verify"));
    out.set("lower.lower_us", med_us("lower.lower"));
    out.set("lower.graph_tasks", med(|r| r.graph_tasks as f64));
    out.set("netsim.execute_us", med_us("netsim.execute"));
    out.set("netsim.events", med(|r| r.events as f64));
    let execute_s: f64 = spans::durations_us(&replayed, "netsim.execute")
        .iter()
        .sum::<f64>()
        / 1e6;
    let events: u64 = rows.iter().map(|r| r.events).sum();
    out.set(
        "netsim.events_per_s",
        if execute_s > 0.0 {
            events as f64 / execute_s
        } else {
            0.0
        },
    );
    out.set("replay.requests", rows.len() as f64);
    out.set(
        "replay.coverage",
        if served > 0.0 {
            med(|r| r.served_us / 1e3) / served
        } else {
            0.0
        },
    );

    spans::merge(&mut all_spans, replayed);
    out.set("trace.spans", all_spans.len() as f64);
    report.spans = all_spans;
    Ok(())
}
