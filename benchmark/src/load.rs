//! The load generator: closed and open loops over the daemon's public
//! wire protocol. One thread per connection and nothing else, so on a
//! 2-core host the daemon's two workers are never starved by their own
//! clients. Sockets have `TCP_NODELAY` and every request frame goes out
//! in a single `write`, so no stall is the generator's own; the daemon's
//! replies are measured as they come.

use crate::gen::Planned;
use crate::rng::Rng;
use crate::spans::{Recorder, Span};
use crossmesh::serve::proto::{self, DoneReply, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Traced runs record spans for alternate blocks of this many ops, so the
/// traced and untraced halves of one run see the same machine state and
/// their throughput ratio is the tracing overhead.
pub const TRACE_BLOCK: usize = 64;

/// Whether op `i` of a traced run is in a traced block.
pub fn in_traced_block(trace: bool, i: usize) -> bool {
    trace && (i / TRACE_BLOCK) % 2 == 1
}

/// Closed-loop clients pause for a seeded time below this before every
/// request of the timed phase. A reply ends when a kernel timer fires (the
/// delayed ACK that releases it), so without the pause every op would start
/// on a scheduler tick, every latency would be a whole number of ticks
/// (4 ms here), and a percentile would jump by 6 % whenever a bin's share
/// crossed it; the two connections would also keep whatever phase they
/// started in for the whole run. One tick of jitter makes latency
/// continuous and lets the phases mix. The pause is outside every op's
/// latency and outside `op_rps` ([`crate::metrics::Pace::Closed`]), and the
/// warm-up does without it, so neither a throughput figure nor `setup_s`
/// holds a sleep.
pub const THINK: Duration = Duration::from_millis(16);

/// How long the open loop waits for replies after its last send.
const GRACE: Duration = Duration::from_secs(5);

/// How one op ended, as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Done(DoneReply),
    /// Shed by admission control, with the daemon's reason.
    Rejected(String),
    /// Answered with an error, answered with the wrong id, or never
    /// answered.
    Failed(String),
}

/// One op of the timed phase. Times are seconds since the phase began.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Position in the op sequence (closed loop) or the schedule (open).
    pub seq: usize,
    /// Index into the request list.
    pub index: usize,
    /// When the request was due: the schedule's time in an open loop, the
    /// send time in a closed one.
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub traced: bool,
    pub outcome: Outcome,
}

impl OpRecord {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }
}

#[derive(Debug, Default)]
pub struct LoadResult {
    pub ops: Vec<OpRecord>,
    /// First send to last reply.
    pub elapsed_s: f64,
    /// `VmHWM` when the completed-op counter reached the checkpoint.
    pub rss_at_checkpoint_mb: Option<f64>,
    pub spans: Vec<Span>,
}

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn outcome_of(resp: Option<Response>, want_id: u64) -> Outcome {
    match resp {
        Some(r) if r.id() != want_id => {
            Outcome::Failed(format!("reply id {} for request {want_id}", r.id()))
        }
        Some(Response::Done(d)) => Outcome::Done(d),
        Some(Response::Rejected(r)) => Outcome::Rejected(r.reason),
        Some(Response::Error(e)) => Outcome::Failed(e.message),
        Some(other) => Outcome::Failed(format!("unexpected reply {other:?}")),
        None => Outcome::Failed("daemon closed the connection".into()),
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB; not a number
/// when `/proc` does not say, so that the run reports the metric as
/// missing and not as zero megabytes.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A connection's span recorder and the phase start on its clock, µs.
/// `trace` is the trace file's time origin; `None` records nothing.
fn recorder(trace: Option<Instant>, start: Instant) -> (Recorder, f64) {
    let origin = trace.unwrap_or(start);
    (
        Recorder::new(trace.is_some(), origin),
        start.duration_since(origin).as_secs_f64() * 1e6,
    )
}

/// When a closed loop stops issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many ops in total (warm-up: a fixed op count).
    Ops(usize),
    /// When this much time has passed (the timed phase).
    For(Duration),
}

/// Closed loop: each connection sends its next request only after the
/// previous reply arrived. Connections share one cursor into `list`, so
/// requests go out in list order whatever the connections' speeds.
pub fn closed_loop(
    streams: &mut [TcpStream],
    list: &[Planned],
    cyclic: bool,
    limit: Limit,
    checkpoint: usize,
    seed: u64,
    trace: Option<Instant>,
) -> LoadResult {
    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let start = Instant::now();
    let per_conn: Vec<(Vec<OpRecord>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                let (cursor, completed, rss) = (&cursor, &completed, &rss);
                s.spawn(move || {
                    let mut ops = Vec::new();
                    let (mut rec, base_us) = recorder(trace, start);
                    let mut think = Rng::new(seed, 16 + conn as u64);
                    loop {
                        if let Limit::For(phase) = limit {
                            std::thread::sleep(Duration::from_nanos(
                                think.below(THINK.as_nanos() as u64),
                            ));
                            if start.elapsed() >= phase {
                                break;
                            }
                        }
                        let seq = cursor.fetch_add(1, Ordering::Relaxed);
                        let past_end = match limit {
                            Limit::Ops(n) => seq >= n,
                            Limit::For(_) => false,
                        };
                        if past_end || (!cyclic && seq >= list.len()) {
                            break;
                        }
                        let index = seq % list.len();
                        let planned = &list[index];
                        let sent_s = start.elapsed().as_secs_f64();
                        let resp = stream
                            .write_all(&planned.frame)
                            .and_then(|()| proto::read_frame::<_, Response>(stream));
                        let done_s = start.elapsed().as_secs_f64();
                        let outcome = match resp {
                            Ok(r) => outcome_of(r, planned.id),
                            Err(e) => Outcome::Failed(e.to_string()),
                        };
                        let broken = matches!(&outcome, Outcome::Failed(_));
                        let traced = in_traced_block(trace.is_some(), seq);
                        if traced {
                            rec.set_request(index);
                            rec.leaf("op", base_us + sent_s * 1e6, base_us + done_s * 1e6);
                        }
                        ops.push(OpRecord {
                            seq,
                            index,
                            due_s: sent_s,
                            sent_s,
                            done_s,
                            traced,
                            outcome,
                        });
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == checkpoint {
                            let _ = rss.set(vm_hwm_mb());
                        }
                        if broken {
                            // A failed exchange leaves the stream in an
                            // unknown state; this connection is done.
                            break;
                        }
                    }
                    (ops, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    collect(per_conn, elapsed_s, rss.get().copied())
}

fn collect(
    per_conn: Vec<(Vec<OpRecord>, Vec<Span>)>,
    elapsed_s: f64,
    rss_at_checkpoint_mb: Option<f64>,
) -> LoadResult {
    let mut out = LoadResult {
        elapsed_s,
        rss_at_checkpoint_mb,
        ..LoadResult::default()
    };
    for (ops, spans) in per_conn {
        out.ops.extend(ops);
        crate::spans::merge(&mut out.spans, spans);
    }
    out.ops.sort_by_key(|o| o.seq);
    out
}

/// Open loop: every request goes out when the schedule says, whether or
/// not earlier ones were answered, and is timed from when it was due.
/// `schedule[c]` is connection `c`'s `(due, index into list)` stream.
pub fn open_loop(
    streams: &mut [TcpStream],
    list: &[Planned],
    schedule: &[Vec<(Duration, usize)>],
    trace: Option<Instant>,
) -> LoadResult {
    assert_eq!(streams.len(), schedule.len());
    let start = Instant::now();
    let per_conn: Vec<(Vec<OpRecord>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(schedule)
            .map(|(stream, arrivals)| {
                s.spawn(move || open_connection(stream, list, arrivals, trace, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    // The checkpoint of an open loop is its whole schedule.
    collect(per_conn, elapsed_s, Some(vm_hwm_mb()))
}

/// One connection's event loop: sleep until the next request is due or a
/// reply arrives, whichever is first.
fn open_connection(
    stream: &mut TcpStream,
    list: &[Planned],
    arrivals: &[(Duration, usize)],
    trace: Option<Instant>,
    start: Instant,
) -> (Vec<OpRecord>, Vec<Span>) {
    let (mut rec, base_us) = recorder(trace, start);
    let mut ops: Vec<OpRecord> = Vec::with_capacity(arrivals.len());
    // Request id -> position in `ops`, for matching replies.
    let mut pending: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut rx: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut broken: Option<String> = None;
    let last_due = arrivals.last().map_or(Duration::ZERO, |a| a.0);

    while broken.is_none() && (ops.len() < arrivals.len() || !pending.is_empty()) {
        let now = start.elapsed();
        if let Some(&(due, index)) = arrivals.get(ops.len()) {
            if now >= due {
                let planned = &list[index];
                if let Err(e) = stream.write_all(&planned.frame) {
                    broken = Some(e.to_string());
                    break;
                }
                pending.insert(planned.id, ops.len());
                ops.push(OpRecord {
                    seq: index,
                    index,
                    due_s: due.as_secs_f64(),
                    sent_s: now.as_secs_f64(),
                    done_s: f64::NAN,
                    traced: in_traced_block(trace.is_some(), index),
                    outcome: Outcome::Failed("no reply".into()),
                });
                continue;
            }
        }
        let wake = match arrivals.get(ops.len()) {
            Some(&(due, _)) => due,
            None => last_due + GRACE,
        };
        if now >= wake {
            break; // grace expired with replies still missing
        }
        match crate::sys::wait_readable(stream, wake - now) {
            Ok(false) => continue,
            Ok(true) => {}
            Err(e) => {
                broken = Some(e.to_string());
                break;
            }
        }
        let done_s = start.elapsed().as_secs_f64();
        match stream.read(&mut chunk) {
            Ok(0) => broken = Some("daemon closed the connection".into()),
            Ok(n) => rx.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => broken = Some(e.to_string()),
        }
        // Every complete frame in the buffer is one reply.
        while let Some(head) = rx.first_chunk::<4>() {
            let len = 4 + u32::from_le_bytes(*head) as usize;
            if rx.len() < len {
                break;
            }
            match proto::read_frame::<_, Response>(&mut &rx[..len]) {
                Ok(Some(resp)) => {
                    let id = resp.id();
                    if let Some(pos) = pending.remove(&id) {
                        let op = &mut ops[pos];
                        op.done_s = done_s;
                        op.outcome = outcome_of(Some(resp), id);
                        if op.traced {
                            rec.set_request(op.index);
                            rec.leaf("op", base_us + op.due_s * 1e6, base_us + done_s * 1e6);
                        }
                    }
                }
                Ok(None) => {}
                Err(e) => broken = Some(e.to_string()),
            }
            rx.drain(..len);
        }
    }
    let end_s = start.elapsed().as_secs_f64();
    // Whatever a broken connection never got to send still counts.
    for &(due, index) in &arrivals[ops.len()..] {
        ops.push(OpRecord {
            seq: index,
            index,
            due_s: due.as_secs_f64(),
            sent_s: end_s,
            done_s: f64::NAN,
            traced: false,
            outcome: Outcome::Failed("never sent".into()),
        });
    }
    for op in &mut ops {
        if op.done_s.is_nan() {
            op.done_s = end_s;
            if let Some(why) = &broken {
                op.outcome = Outcome::Failed(why.clone());
            }
        }
    }
    (ops, rec.into_spans())
}
