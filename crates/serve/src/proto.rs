//! The daemon's wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every frame is a 4-byte little-endian payload length followed by one
//! JSON document. Requests carry a client-chosen `id` that every reply
//! echoes, so a client may pipeline many requests on one connection and
//! match responses as they arrive (the daemon's workers reply in
//! completion order, not submission order).
//!
//! JSON-over-TCP is deliberate: the daemon's unit of work is *planning*
//! (milliseconds), not byte shuffling, so the protocol optimises for
//! debuggability — `nc` + a JSON pretty-printer is a usable client.

pub use crossmesh_core::{parse_mesh, parse_shape};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};

/// Frames larger than this are rejected instead of allocated: a corrupt
/// or hostile length prefix must not OOM the daemon.
pub const MAX_FRAME: usize = 4 << 20;

/// One client request: a tenant identity, a client-chosen id echoed by
/// the reply, and the request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// Tenant this request is accounted (and rate-limited) under.
    pub tenant: String,
    /// What to do.
    pub body: RequestBody,
}

/// The request payload variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Plan (through the shared cache), verify, and execute a resharding
    /// task.
    Reshard(ReshardRequest),
    /// Report server-wide and per-tenant counters.
    Stats,
    /// Report live metrics in Prometheus text exposition format,
    /// including rolling-window p50/p99/p999 latency quantiles.
    Telemetry,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to drain and exit (honoured only when the server
    /// was configured to allow remote shutdown).
    Shutdown,
}

/// A resharding problem, in the same portable string encoding the CLI
/// and `crossmesh check` use (`"2x4"` meshes, `"S0RR"` specs,
/// `"1024x64"` shapes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReshardRequest {
    /// Source sharding spec, e.g. `"RS0R"`.
    pub src_spec: String,
    /// Destination sharding spec, e.g. `"S0RR"`.
    pub dst_spec: String,
    /// Source mesh `rows x cols`, e.g. `"2x4"`.
    pub src_mesh: String,
    /// Destination mesh `rows x cols`.
    pub dst_mesh: String,
    /// Tensor shape, e.g. `"1024x64"`.
    pub shape: String,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Planner name (`ours`/`naive`/`lpt`/`dfs`/`greedy`); empty selects
    /// the server's default.
    pub planner: String,
    /// Seed for the randomized-greedy planner.
    pub seed: Option<u64>,
    /// Optional inline JSON fault schedule (`crossmesh-faults` format).
    /// When set, the job executes under fault injection with automatic
    /// repair; absent (or `null`, as older clients send) runs clean.
    pub faults: Option<String>,
}

impl ReshardRequest {
    /// A small default request (used by tests and examples).
    pub fn example() -> ReshardRequest {
        ReshardRequest {
            src_spec: "RS0R".into(),
            dst_spec: "S0RR".into(),
            src_mesh: "2x4".into(),
            dst_mesh: "2x4".into(),
            shape: "64x64x8".into(),
            elem_bytes: 4,
            planner: String::new(),
            seed: None,
            faults: None,
        }
    }
}

/// Every reply the daemon sends. All variants echo the request `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The request was planned, verified, and executed.
    Done(DoneReply),
    /// Admission control turned the request away; retry after the hint.
    Rejected(RejectedReply),
    /// The request was admitted but failed (bad specs, data loss,
    /// verification conviction, backend error).
    Error(ErrorReply),
    /// Counter snapshot.
    Stats(StatsReply),
    /// Prometheus-style exposition for [`RequestBody::Telemetry`].
    Telemetry(TelemetryReply),
    /// Pong for [`RequestBody::Ping`].
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Acknowledges [`RequestBody::Shutdown`]; the daemon drains and
    /// exits after sending this.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
}

impl Response {
    /// The echoed request id, whatever the variant.
    pub fn id(&self) -> u64 {
        match self {
            Response::Done(r) => r.id,
            Response::Rejected(r) => r.id,
            Response::Error(r) => r.id,
            Response::Stats(r) => r.id,
            Response::Telemetry(r) => r.id,
            Response::Pong { id } | Response::ShuttingDown { id } => *id,
        }
    }
}

/// A completed resharding request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoneReply {
    /// Echoed request id.
    pub id: u64,
    /// Whether the plan came from the shared cross-tenant cache.
    pub cache_hit: bool,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queue_ms: f64,
    /// Milliseconds spent planning (or replaying the cached plan).
    pub plan_ms: f64,
    /// Milliseconds spent executing on the configured backend.
    pub exec_ms: f64,
    /// The plan's analytic makespan estimate, seconds.
    pub estimate_seconds: f64,
    /// The backend's reported completion time, seconds.
    pub simulated_seconds: f64,
    /// Unit tasks in the resharding problem.
    pub unit_tasks: usize,
}

/// Load was shed: the tenant's token bucket or queue was full, or the
/// daemon is draining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectedReply {
    /// Echoed request id.
    pub id: u64,
    /// Why: `rate_limited`, `queue_full`, or `shutting_down`.
    pub reason: String,
    /// Client backoff hint: when capacity should next be available.
    pub retry_after_ms: u64,
}

/// An admitted request that could not complete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Echoed request id.
    pub id: u64,
    /// Human-readable failure description.
    pub message: String,
}

/// Live metrics in Prometheus text exposition format: every counter,
/// gauge, and histogram in the daemon's registry plus rolling-window
/// latency summaries (`*_window{quantile="0.5"|"0.99"|"0.999"}`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReply {
    /// Echoed request id.
    pub id: u64,
    /// The exposition text (newline-terminated metric lines).
    pub text: String,
}

/// Per-tenant counter snapshot inside [`StatsReply`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests shed (rate limit, queue bound, or drain).
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Admitted requests that failed.
    pub failed: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
}

/// Server-wide counter snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Echoed request id.
    pub id: u64,
    /// Sum of per-tenant accepted counts.
    pub accepted: u64,
    /// Sum of per-tenant rejected counts.
    pub rejected: u64,
    /// Sum of per-tenant completed counts.
    pub completed: u64,
    /// Sum of per-tenant failed counts.
    pub failed: u64,
    /// Shared plan-cache hits across all tenants.
    pub cache_hits: u64,
    /// Shared plan-cache misses.
    pub cache_misses: u64,
    /// Entries resident in the shared cache.
    pub cache_entries: usize,
    /// Verifier convictions: cache-hit invalidations plus pre-execute
    /// verification failures. Zero in a healthy deployment.
    pub verifier_convictions: u64,
    /// Per-tenant breakdown, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
}

/// Outcome of one timed frame read.
#[derive(Debug)]
pub enum FrameRead<T> {
    /// A whole frame arrived and parsed.
    Frame(T),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The read timed out before the first byte of a frame; the
    /// connection is still healthy (re-check shutdown flags and retry).
    TimedOut,
}

/// Writes one length-prefixed JSON frame.
///
/// # Errors
///
/// Propagates serialization and socket errors.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, value: &T) -> io::Result<()> {
    let body = serde_json::to_string(value)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("serialize frame: {e:?}")))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes, tolerating timeout ticks *only*
/// before the first byte when `allow_timeout_at_start` is set (in which
/// case `Ok(false)` reports the timeout). Mid-buffer timeouts keep
/// waiting: a frame, once started, must finish.
fn read_exact_tolerant<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    allow_timeout_at_start: bool,
) -> io::Result<Option<bool>> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None); // clean EOF at a boundary
                }
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if got == 0 && allow_timeout_at_start {
                    return Ok(Some(false));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(true))
}

/// Reads one frame, honouring the stream's read timeout at frame
/// boundaries (so accept/reader loops can poll a shutdown flag).
///
/// # Errors
///
/// Propagates socket errors, oversized frames, and JSON parse failures.
pub fn read_frame_timeout<R: Read, T: serde::de::DeserializeOwned>(
    r: &mut R,
) -> io::Result<FrameRead<T>> {
    let mut len_buf = [0u8; 4];
    match read_exact_tolerant(r, &mut len_buf, true)? {
        None => return Ok(FrameRead::Eof),
        Some(false) => return Ok(FrameRead::TimedOut),
        Some(true) => {}
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("incoming frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len];
    match read_exact_tolerant(r, &mut body, false)? {
        None | Some(false) => Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "peer closed mid-frame",
        )),
        Some(true) => {
            let text = String::from_utf8(body)
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("{e}")))?;
            serde_json::from_str(&text)
                .map(FrameRead::Frame)
                .map_err(|e| {
                    io::Error::new(ErrorKind::InvalidData, format!("bad frame JSON: {e:?}"))
                })
        }
    }
}

/// Reads one frame from a stream with no read timeout set; `None` means
/// the peer closed cleanly.
///
/// # Errors
///
/// Propagates socket errors, oversized frames, and JSON parse failures.
pub fn read_frame<R: Read, T: serde::de::DeserializeOwned>(r: &mut R) -> io::Result<Option<T>> {
    match read_frame_timeout(r)? {
        FrameRead::Frame(t) => Ok(Some(t)),
        FrameRead::Eof => Ok(None),
        // Without a read timeout the OS never reports WouldBlock; treat a
        // spurious one as an error rather than spinning.
        FrameRead::TimedOut => Err(io::Error::new(
            ErrorKind::TimedOut,
            "read timed out on a stream without a timeout policy",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let req = Request {
            id: 7,
            tenant: "acme".into(),
            body: RequestBody::Reshard(ReshardRequest::example()),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let mut cursor = &buf[..];
        let got: Request = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(got, req);
        // And EOF afterwards.
        let eof: Option<Request> = read_frame(&mut cursor).unwrap();
        assert!(eof.is_none());
    }

    #[test]
    fn reshard_frames_from_pre_faults_clients_still_parse() {
        // Hand-built frame with no `faults` key, as clients predating the
        // field send it: the field must default to None, not error.
        let body = r#"{"id":3,"tenant":"t","body":{"Reshard":{"src_spec":"RS0R","dst_spec":"S0RR","src_mesh":"2x4","dst_mesh":"2x4","shape":"64x64x8","elem_bytes":4,"planner":"","seed":null}}}"#;
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body.as_bytes());
        let got: Request = read_frame(&mut &buf[..]).unwrap().expect("frame");
        match got.body {
            RequestBody::Reshard(r) => assert_eq!(r.faults, None),
            other => panic!("parsed wrong body: {other:?}"),
        }
    }

    #[test]
    fn telemetry_request_round_trips() {
        let req = Request {
            id: 11,
            tenant: "ops".into(),
            body: RequestBody::Telemetry,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let got: Request = read_frame(&mut &buf[..]).unwrap().expect("frame");
        assert_eq!(got, req);
    }

    #[test]
    fn every_response_variant_round_trips_with_its_id() {
        let responses = [
            Response::Done(DoneReply {
                id: 1,
                cache_hit: true,
                queue_ms: 0.5,
                plan_ms: 1.5,
                exec_ms: 0.25,
                estimate_seconds: 0.01,
                simulated_seconds: 0.012,
                unit_tasks: 8,
            }),
            Response::Rejected(RejectedReply {
                id: 2,
                reason: "rate_limited".into(),
                retry_after_ms: 12,
            }),
            Response::Error(ErrorReply {
                id: 3,
                message: "boom".into(),
            }),
            Response::Stats(StatsReply {
                id: 4,
                ..StatsReply::default()
            }),
            Response::Telemetry(TelemetryReply {
                id: 5,
                text: "serve_completed_total 3\n".into(),
            }),
            Response::Pong { id: 6 },
            Response::ShuttingDown { id: 7 },
        ];
        for (i, r) in responses.iter().enumerate() {
            let mut buf = Vec::new();
            write_frame(&mut buf, r).unwrap();
            let got: Response = read_frame(&mut &buf[..]).unwrap().expect("frame");
            assert_eq!(&got, r);
            assert_eq!(got.id(), (i + 1) as u64);
        }
    }

    #[test]
    fn oversized_frames_are_rejected_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame::<_, Request>(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("MAX_FRAME"), "{err}");
    }

    #[test]
    fn truncated_frames_error_instead_of_hanging() {
        let req = Request {
            id: 1,
            tenant: "t".into(),
            body: RequestBody::Ping,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame::<_, Request>(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }
}
