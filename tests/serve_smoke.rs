//! End-to-end tests of the resharding daemon: multi-tenant service,
//! load shedding, the shared cross-tenant cache, and — the part that is
//! easy to get wrong — graceful shutdown: in-flight requests drain, new
//! ones are rejected with `shutting_down`, and observability files are
//! flushed. Exercised at worker-pool widths 1 and 4 under a fixed seed.

use crossmesh::serve::proto::{self, Request, RequestBody};
use crossmesh::serve::{
    AdmissionConfig, BackendKind, Client, ReshardRequest, Response, ServeConfig, Server,
};
use std::net::TcpStream;
use std::time::Duration;

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        admission: AdmissionConfig {
            rate: 500.0,
            burst: 100.0,
            queue_depth: 256,
        },
        backend: BackendKind::Sim,
        default_planner: "ours".into(),
        allow_remote_shutdown: false,
        metrics_out: None,
        trace_out: None,
        flightrec_dir: None,
        slo_exec_p99_ms: None,
    }
}

fn small_request() -> ReshardRequest {
    ReshardRequest {
        src_spec: "RS0R".into(),
        dst_spec: "S0RR".into(),
        src_mesh: "2x4".into(),
        dst_mesh: "2x4".into(),
        shape: "64x64x8".into(),
        elem_bytes: 4,
        planner: "ours".into(),
        seed: Some(7),
        faults: None,
    }
}

#[test]
fn multi_tenant_requests_complete_and_share_the_cache() {
    for workers in [1usize, 4] {
        let server = Server::start(config(workers)).expect("daemon starts");
        let addr = server.addr();
        // Three tenants, identical shapes: the first request plans, the
        // rest must hit the shared cache regardless of tenant.
        let mut done = 0u64;
        let mut hits = 0u64;
        for tenant in ["alpha", "beta", "gamma"] {
            let mut client = Client::connect(addr).expect("connects");
            for _ in 0..3 {
                match client.reshard(tenant, small_request()).expect("answered") {
                    Response::Done(d) => {
                        done += 1;
                        if d.cache_hit {
                            hits += 1;
                        }
                        assert!(d.simulated_seconds > 0.0);
                        assert!(d.unit_tasks > 0);
                    }
                    other => panic!("workers={workers}: unexpected reply {other:?}"),
                }
            }
        }
        assert_eq!(done, 9, "workers={workers}");
        assert_eq!(hits, 8, "all but the first request hit the shared cache");

        let summary = server.shutdown();
        assert_eq!(summary.completed, 9);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.verifier_convictions, 0, "workers={workers}");
        assert_eq!(summary.cache_misses, 1, "one cold plan total");
    }
}

#[test]
fn overload_is_shed_with_retry_hints_not_queued_unboundedly() {
    let mut cfg = config(2);
    // Tiny bucket: a burst of 30 admits ~8 and sheds the rest.
    cfg.admission = AdmissionConfig {
        rate: 10.0,
        burst: 8.0,
        queue_depth: 16,
    };
    let server = Server::start(cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");

    // Pipeline the burst: send all 30 before reading any reply.
    for i in 0..30u64 {
        client
            .send(&Request {
                id: i + 1,
                tenant: "burst".into(),
                body: RequestBody::Reshard(small_request()),
            })
            .expect("sends");
    }
    let mut done = 0;
    let mut rejected = 0;
    let mut max_retry = 0u64;
    let mut answered = Vec::new();
    for _ in 0..30 {
        match client.recv().expect("reply").expect("not eof") {
            Response::Done(d) => {
                done += 1;
                answered.push(d.id);
            }
            Response::Rejected(r) => {
                rejected += 1;
                answered.push(r.id);
                assert_eq!(r.reason, "rate_limited");
                assert!(r.retry_after_ms > 0, "a hint, not a guess");
                max_retry = max_retry.max(r.retry_after_ms);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // Nothing dropped, nothing answered twice: every offered request got
    // exactly one `Done` or `Rejected` (an `Error` panics above).
    answered.sort_unstable();
    assert_eq!(answered, (1..=30).collect::<Vec<u64>>());
    assert!(done >= 8, "the burst allowance is admitted (got {done})");
    assert!(rejected >= 20, "the overflow is shed (got {rejected})");
    assert!(max_retry <= 10_000, "hints stay sane: {max_retry}ms");

    let summary = server.shutdown();
    assert_eq!(summary.completed, done);
    assert_eq!(summary.rejected, rejected);
    assert_eq!(summary.verifier_convictions, 0);
}

#[test]
fn graceful_shutdown_drains_in_flight_rejects_new_and_flushes_files() {
    for workers in [1usize, 4] {
        let dir = std::env::temp_dir();
        let metrics_path = dir.join(format!("crossmesh_serve_metrics_{workers}.txt"));
        let trace_path = dir.join(format!("crossmesh_serve_trace_{workers}.json"));
        let _ = std::fs::remove_file(&metrics_path);
        let _ = std::fs::remove_file(&trace_path);

        let mut cfg = config(workers);
        cfg.metrics_out = Some(metrics_path.to_string_lossy().into_owned());
        cfg.trace_out = Some(trace_path.to_string_lossy().into_owned());
        let server = Server::start(cfg).expect("daemon starts");
        let addr = server.addr();

        // Pipeline a pile of requests and wait (via Stats on a second
        // connection) until every one of them has passed admission, so
        // shutdown provably races only against *queued* work.
        let in_flight = 20u64;
        let mut client = Client::connect(addr).expect("connects");
        for i in 0..in_flight {
            client
                .send(&Request {
                    id: i + 1,
                    tenant: "drain".into(),
                    body: RequestBody::Reshard(small_request()),
                })
                .expect("sends");
        }
        let mut probe = Client::connect(addr).expect("connects");
        while probe.stats().expect("stats").accepted < in_flight {
            std::thread::sleep(Duration::from_millis(2));
        }

        // Shut down on another thread while replies are still pending.
        let shutdown = std::thread::spawn(move || server.shutdown());

        // During the drain the daemon must keep answering: admitted work
        // completes, new work is explicitly shed as `shutting_down`.
        let mut probe_done = 0u64;
        let mut probe_shed = 0u64;
        loop {
            match probe.reshard("late", small_request()) {
                Ok(Response::Done(_)) => probe_done += 1,
                Ok(Response::Rejected(r)) => {
                    assert_eq!(r.reason, "shutting_down");
                    probe_shed += 1;
                    break;
                }
                Ok(other) => panic!("workers={workers}: unexpected reply {other:?}"),
                Err(e) => panic!("workers={workers}: daemon closed before shedding: {e}"),
            }
        }
        assert!(probe_shed > 0, "new work is rejected during the drain");

        // Every admitted request still gets its `Done` — drained, not
        // dropped.
        let mut done = 0u64;
        for _ in 0..in_flight {
            match client.recv().expect("reply").expect("not eof") {
                Response::Done(_) => done += 1,
                other => panic!("workers={workers}: unexpected reply {other:?}"),
            }
        }
        assert_eq!(done, in_flight, "nothing vanished");

        let summary = shutdown.join().expect("shutdown completes");
        assert_eq!(summary.completed, done + probe_done, "workers={workers}");
        assert_eq!(summary.rejected, probe_shed);
        assert_eq!(summary.verifier_convictions, 0);

        // New connections after shutdown must fail: the listener is gone.
        assert!(
            TcpStream::connect(addr).is_err()
                || proto::write_frame(
                    &mut TcpStream::connect(addr).expect("raced listener close"),
                    &Request {
                        id: 1,
                        tenant: "late".into(),
                        body: RequestBody::Ping,
                    },
                )
                .is_err()
                || {
                    // The kernel may accept into a dead backlog; the
                    // daemon must never answer.
                    let mut s = TcpStream::connect(addr).expect("raced listener close");
                    s.set_read_timeout(Some(Duration::from_millis(200))).ok();
                    proto::write_frame(
                        &mut s,
                        &Request {
                            id: 1,
                            tenant: "late".into(),
                            body: RequestBody::Ping,
                        },
                    )
                    .ok();
                    matches!(
                        proto::read_frame_timeout::<_, Response>(&mut s),
                        Ok(proto::FrameRead::TimedOut) | Ok(proto::FrameRead::Eof) | Err(_)
                    )
                },
            "a post-shutdown request must not be served"
        );

        // Observability files flushed on the way out.
        let metrics = std::fs::read_to_string(&metrics_path).expect("metrics flushed");
        assert!(
            metrics.contains("serve.tenant.drain.completed"),
            "workers={workers}: per-tenant counters present:\n{metrics}"
        );
        assert!(metrics.contains("plan_cache."), "cache counters present");
        assert!(
            metrics.contains("netsim.events_processed"),
            "workers={workers}: the netsim counters are synced before the flush:\n{metrics}"
        );
        let trace = std::fs::read_to_string(&trace_path).expect("trace flushed");
        let summary = crossmesh::obs::export::validate(&trace).expect("trace validates");
        assert!(
            summary
                .counter_tracks
                .iter()
                .any(|t| t.contains("queue_depth")),
            "queue-depth track exported"
        );
        let _ = std::fs::remove_file(&metrics_path);
        let _ = std::fs::remove_file(&trace_path);
    }
}

#[test]
fn remote_shutdown_is_gated_on_operator_opt_in() {
    // Denied by default.
    let server = Server::start(config(1)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    let err = client.shutdown().expect_err("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    // The daemon is still alive and serving.
    client.ping().expect("still serving");
    server.shutdown();

    // Allowed when opted in: the flag flips and run_until_shutdown drains.
    let mut cfg = config(1);
    cfg.allow_remote_shutdown = true;
    let server = Server::start(cfg).expect("daemon starts");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connects");
    match client.reshard("ops", small_request()).expect("answered") {
        Response::Done(_) => {}
        other => panic!("unexpected reply {other:?}"),
    }
    client.shutdown().expect("acknowledged");
    let summary = server.run_until_shutdown();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.verifier_convictions, 0);
}

#[test]
fn telemetry_exposes_prometheus_metrics_and_rolling_quantiles() {
    let server = Server::start(config(2)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    for _ in 0..3 {
        assert!(matches!(
            client.reshard("acme", small_request()).expect("answered"),
            Response::Done(_)
        ));
    }
    let text = client.telemetry().expect("telemetry");
    // Counters and gauges in exposition format, names sanitised.
    assert!(
        text.contains("# TYPE serve_requests counter"),
        "typed counter lines:\n{text}"
    );
    assert!(text.contains("# TYPE serve_queue_depth gauge"));
    // Latency histograms with cumulative buckets.
    assert!(text.contains("serve_exec_ms_bucket{le=\"+Inf\"}"));
    // Rolling-window quantile summaries over the last minute.
    for q in ["0.5", "0.99", "0.999"] {
        assert!(
            text.contains(&format!("serve_exec_ms_window{{quantile=\"{q}\"}}")),
            "missing p{q} summary:\n{text}"
        );
    }
    assert!(text.contains("serve_queue_ms_window_count"));
    // The netsim engine counters are synced into every scrape (the sim
    // backend just executed three plans).
    assert!(
        text.contains("netsim_events_processed"),
        "netsim counters synced before render:\n{text}"
    );
    // The plan cache's registry rides along.
    assert!(text.contains("plan_cache_"), "cache metrics present");
    // SLO rules were evaluated as part of the scrape.
    assert!(text.contains("obs_slo_evaluations"));
    server.shutdown();
}

#[test]
fn seeded_faults_repair_and_dump_a_validating_flight_record() {
    let dir =
        std::env::temp_dir().join(format!("crossmesh_serve_flightrec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config(2);
    cfg.flightrec_dir = Some(dir.to_string_lossy().into_owned());
    let server = Server::start(cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");

    // Crash a source host at t=0: the run fails, the daemon repairs the
    // plan around the crash, re-executes, and still answers `Done`.
    // RS1R replicates every slice across both sender hosts, so the crash
    // of host 0 is recoverable by failover.
    let schedule = crossmesh::faults::FaultSchedule::new(0)
        .with_event(crossmesh::faults::FaultEvent::HostCrash { host: 0, at: 0.0 });
    let mut req = small_request();
    req.src_spec = "RS1R".into();
    req.faults = Some(schedule.to_json());
    match client.reshard("faulty", req).expect("answered") {
        Response::Done(d) => assert!(d.simulated_seconds > 0.0),
        other => panic!("unexpected reply {other:?}"),
    }
    // The repair bumped the counter and dumped the flight recorder.
    let snap = server.registry().snapshot();
    assert!(snap.counter("serve.fault_repairs") >= 1, "repair counted");
    server.shutdown();

    let dump = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec-fault-repair-"))
        })
        .expect("a fault-repair flight record was dumped");
    let json = std::fs::read_to_string(&dump).expect("dump readable");
    crossmesh::obs::export::validate(&json).expect("dump passes validate-trace");
    assert!(json.contains("dump: fault-repair"), "trigger marked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slo_breach_and_shed_spike_trigger_flight_recorder_dumps() {
    // SLO: an absurdly tight exec-p99 bound that any real execution
    // breaches once the window holds enough samples.
    let dir = std::env::temp_dir().join(format!("crossmesh_serve_slo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config(2);
    cfg.flightrec_dir = Some(dir.to_string_lossy().into_owned());
    cfg.slo_exec_p99_ms = Some(1e-9);
    let server = Server::start(cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    for _ in 0..12 {
        assert!(matches!(
            client.reshard("hot", small_request()).expect("answered"),
            Response::Done(_)
        ));
    }
    let snap = server.registry().snapshot();
    assert!(
        snap.counter("obs.slo.breach.exec_p99_ms") >= 1,
        "the impossible p99 bound must be breached"
    );
    server.shutdown();
    let breach_dump = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter_map(|e| e.ok())
        .any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("flightrec-slo-breach-"))
        });
    assert!(breach_dump, "SLO breach dumped the flight recorder");
    let _ = std::fs::remove_dir_all(&dir);

    // Shed spike: a starved token bucket rejects a pipelined burst; 16
    // consecutive rejections fire one spike dump.
    let dir = std::env::temp_dir().join(format!("crossmesh_serve_shed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config(1);
    cfg.flightrec_dir = Some(dir.to_string_lossy().into_owned());
    cfg.admission = AdmissionConfig {
        rate: 0.001,
        burst: 1.0,
        queue_depth: 4,
    };
    let server = Server::start(cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    for i in 0..40u64 {
        client
            .send(&Request {
                id: i + 1,
                tenant: "burst".into(),
                body: RequestBody::Reshard(small_request()),
            })
            .expect("sends");
    }
    let mut rejected = 0;
    for _ in 0..40 {
        if let Response::Rejected(_) = client.recv().expect("reply").expect("not eof") {
            rejected += 1;
        }
    }
    assert!(rejected >= 30, "the burst is shed (got {rejected})");
    server.shutdown();
    let spike_dump = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter_map(|e| e.ok())
        .any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("flightrec-shed-spike-"))
        });
    assert!(spike_dump, "the shed spike dumped the flight recorder");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_reports_per_tenant_breakdown() {
    let server = Server::start(config(2)).expect("daemon starts");
    let mut a = Client::connect(server.addr()).expect("connects");
    let mut b = Client::connect(server.addr()).expect("connects");
    for _ in 0..2 {
        assert!(matches!(
            a.reshard("acme", small_request()).expect("answered"),
            Response::Done(_)
        ));
    }
    assert!(matches!(
        b.reshard("zeta", small_request()).expect("answered"),
        Response::Done(_)
    ));
    let stats = a.stats().expect("stats");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.tenants.len(), 2);
    assert_eq!(stats.tenants["acme"].completed, 2);
    assert_eq!(stats.tenants["zeta"].completed, 1);
    assert!(stats.cache_hits >= 2, "cross-tenant sharing visible");
    assert_eq!(stats.verifier_convictions, 0);
    server.shutdown();
}

/// Hostile sizes in a 20-byte field must cost the daemon an `Error`
/// reply, not an allocation or a worker: a mesh with billions of hosts
/// (which used to reach `vec![host; n_hosts]`), one whose host count wraps
/// a `u32`, and a shape whose byte size overflows `u64`.
#[test]
fn hostile_sizes_get_an_error_reply_and_the_daemon_keeps_answering() {
    let server = Server::start(config(1)).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    let hostile = [
        ("4000000000x1", "2x4", "64x64x8"),
        ("2x4", "4294967297x1", "64x64x8"),
        ("2x4", "2x4", "4294967296x4294967296x4"),
    ];
    for (src_mesh, dst_mesh, shape) in hostile {
        let req = ReshardRequest {
            src_mesh: src_mesh.into(),
            dst_mesh: dst_mesh.into(),
            shape: shape.into(),
            ..small_request()
        };
        match client.reshard("mallory", req).expect("answered") {
            Response::Error(e) => assert!(
                e.message.contains("at most") || e.message.contains("overflows"),
                "{src_mesh} {dst_mesh} {shape}: {}",
                e.message
            ),
            other => panic!("{src_mesh} {dst_mesh} {shape}: unexpected reply {other:?}"),
        }
        client.ping().expect("daemon still answers");
    }
    // The worker survived all three: an honest request still completes.
    match client
        .reshard("mallory", small_request())
        .expect("answered")
    {
        Response::Done(d) => assert!(d.unit_tasks > 0),
        other => panic!("unexpected reply {other:?}"),
    }
    let summary = server.shutdown();
    assert_eq!((summary.completed, summary.failed), (1, 3));
}

/// A fault schedule whose backoff cannot be a wall-clock `Duration` gets a
/// `bad fault schedule` reply from a `threads` daemon. It used to pass
/// validation and panic the worker converting the backoff.
#[test]
fn unrepresentable_fault_delays_get_an_error_reply_not_a_worker_panic() {
    let mut cfg = config(1);
    cfg.backend = BackendKind::Threads;
    let server = Server::start(cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    let req = ReshardRequest {
        faults: Some(r#"{"seed":0,"events":[],"max_retries":2,"retry_backoff":1e300}"#.into()),
        ..small_request()
    };
    match client.reshard("mallory", req).expect("answered") {
        Response::Error(e) => assert!(e.message.starts_with("bad fault schedule"), "{}", e.message),
        other => panic!("unexpected reply {other:?}"),
    }
    let snap = server.registry().snapshot();
    assert_eq!(snap.counter("serve.worker_panics"), 0);
    let summary = server.shutdown();
    assert_eq!((summary.completed, summary.failed), (0, 1));
}
