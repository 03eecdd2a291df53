//! Unified Chrome/Perfetto timeline export.
//!
//! Both execution backends produce a [`TaskGraph`] + [`Trace`] pair — the
//! simulator with virtual timestamps, the threaded runtime with monotonic
//! wall-clock timestamps — and this module renders either into one JSON
//! schema that loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev):
//!
//! * one *process* row per host, one *thread* row per device (named via
//!   `ph: "M"` metadata events);
//! * compute tasks and flows as complete events (`ph: "X"`) under the
//!   `compute` / `comm` categories (`recovery` for repaired re-runs);
//! * markers and runtime flow acks as instant events (`ph: "i"`);
//! * metric series (plan-cache counters, runtime queue depths) as counter
//!   tracks (`ph: "C"`) on a dedicated `metrics` process row.
//!
//! Rendering is hand-rolled rather than serde-derived so field order, and
//! therefore the byte-level output, is stable — the golden-file test in
//! `tests/obs_overhead.rs` relies on it.

use crossmesh_netsim::{ClusterSpec, TaskGraph, Trace, Work};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// How a run's events are categorised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// Normal execution: `compute` / `comm` categories.
    Primary,
    /// A repaired re-execution after a fault: everything under `recovery`.
    Recovery,
}

#[derive(Debug, Clone)]
struct CompleteEvent {
    name: String,
    cat: &'static str,
    ts_us: f64,
    dur_us: f64,
    pid: u32,
    tid: u32,
}

#[derive(Debug, Clone)]
struct InstantEvent {
    name: String,
    cat: &'static str,
    ts_us: f64,
    pid: u32,
    tid: u32,
}

/// Builder for the unified timeline JSON.
#[derive(Debug, Default)]
pub struct TraceExport {
    /// (pid, name) process rows, deduped.
    processes: BTreeMap<u32, String>,
    /// ((pid, tid), name) thread rows, deduped.
    threads: BTreeMap<(u32, u32), String>,
    complete: Vec<CompleteEvent>,
    instants: Vec<InstantEvent>,
    /// name → samples of (ts_us, value), rendered in name order.
    counters: BTreeMap<String, Vec<(f64, f64)>>,
}

impl TraceExport {
    pub fn new() -> TraceExport {
        TraceExport::default()
    }

    /// Appends one executed run. `offset_us` shifts every timestamp, so a
    /// recovery re-run can be laid out after the failed attempt it repairs.
    pub fn push_run(
        &mut self,
        graph: &TaskGraph,
        trace: &Trace,
        cluster: &ClusterSpec,
        kind: RunKind,
        offset_us: f64,
    ) {
        for h in 0..cluster.num_hosts() {
            self.processes
                .entry(h)
                .or_insert_with(|| format!("host {h}"));
            for d in cluster.devices_on(crossmesh_netsim::HostId(h)) {
                self.threads
                    .entry((h, d.0))
                    .or_insert_with(|| format!("device {}", d.0));
            }
        }
        for (id, task) in graph.iter() {
            let interval = trace.interval(id);
            let ts_us = interval.start * 1e6 + offset_us;
            let (device, cat) = match task.work {
                Work::Compute { device, .. } | Work::ComputeFlops { device, .. } => {
                    (device, "compute")
                }
                Work::Flow { src, .. } => (src, "comm"),
                Work::Marker => {
                    // Markers are instantaneous bookkeeping: instant events
                    // pinned to the first device row.
                    self.instants.push(InstantEvent {
                        name: match task.label {
                            Some(label) => label.to_string(),
                            None => format!("marker {id}"),
                        },
                        cat: "marker",
                        ts_us,
                        pid: 0,
                        tid: 0,
                    });
                    continue;
                }
            };
            // Labels are rendered here, on export, and nowhere else.
            let name = match (task.label, task.work) {
                (Some(label), _) => label.to_string(),
                (None, Work::Flow { dst, bytes, .. }) => {
                    format!("flow {id} -> {dst} ({bytes:.0} B)")
                }
                (None, _) => format!("compute {id}"),
            };
            let cat = match kind {
                RunKind::Primary => cat,
                RunKind::Recovery => "recovery",
            };
            self.complete.push(CompleteEvent {
                name,
                cat,
                ts_us,
                dur_us: (interval.finish - interval.start).max(0.0) * 1e6,
                pid: cluster.host_of(device).0,
                tid: device.0,
            });
        }
    }

    /// Names a process row explicitly (used by exporters that are not
    /// backed by a [`TaskGraph`] run, like the flight recorder).
    pub fn add_process(&mut self, pid: u32, name: impl Into<String>) {
        self.processes.insert(pid, name.into());
    }

    /// Names a thread row explicitly.
    pub fn add_thread(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        self.threads.insert((pid, tid), name.into());
    }

    /// Adds one complete (`ph: "X"`) event on an explicit row. Durations
    /// are clamped non-negative so the document always validates.
    pub fn add_complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
        pid: u32,
        tid: u32,
    ) {
        self.complete.push(CompleteEvent {
            name: name.into(),
            cat,
            ts_us,
            dur_us: dur_us.max(0.0),
            pid,
            tid,
        });
    }

    /// Adds an instant event on an explicit device row (used for runtime
    /// flow ack marks).
    pub fn add_instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        pid: u32,
        tid: u32,
    ) {
        self.instants.push(InstantEvent {
            name: name.into(),
            cat,
            ts_us,
            pid,
            tid,
        });
    }

    /// Adds samples to the counter track `name`. Samples render in the
    /// order given; repeated calls append.
    pub fn add_counter(&mut self, name: impl Into<String>, samples: &[(f64, f64)]) {
        self.counters
            .entry(name.into())
            .or_default()
            .extend_from_slice(samples);
    }

    /// The pid used for the synthetic `metrics` process row: one past the
    /// largest host pid (or 0 if no runs were pushed).
    fn metrics_pid(&self) -> u32 {
        self.processes.keys().max().map_or(0, |&p| p + 1)
    }

    /// Renders the deterministic JSON document.
    pub fn render(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for (&pid, name) in &self.processes {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
                json_str(name)
            ));
        }
        if !self.counters.is_empty() {
            let pid = self.metrics_pid();
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"metrics\"}}}}"
            ));
        }
        for (&(pid, tid), name) in &self.threads {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_str(name)
            ));
        }
        for e in &self.complete {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                json_str(&e.name),
                e.cat,
                num(e.ts_us),
                num(e.dur_us),
                e.pid,
                e.tid
            ));
        }
        for e in &self.instants {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\"}}",
                json_str(&e.name),
                e.cat,
                num(e.ts_us),
                e.pid,
                e.tid
            ));
        }
        let metrics_pid = self.metrics_pid();
        for (name, samples) in &self.counters {
            for &(ts_us, value) in samples {
                events.push(format!(
                    "{{\"name\":{},\"cat\":\"metric\",\"ph\":\"C\",\"ts\":{},\"pid\":{metrics_pid},\"tid\":0,\"args\":{{\"value\":{}}}}}",
                    json_str(name),
                    num(ts_us),
                    num(value)
                ));
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Formats a finite number without scientific notation surprises: plain
/// `Display` for `f64` is shortest-round-trip and deterministic.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A structural summary of an exported timeline, used to check that two
/// exports (e.g. sim-backend vs threads-backend) share one schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events, all phases.
    pub events: usize,
    /// Categories seen on `X`/`i` events.
    pub categories: BTreeSet<String>,
    /// Event phases seen (`M`, `X`, `i`, `C`, ...).
    pub phases: BTreeSet<String>,
    /// Distinct (pid, tid) device rows carrying `X` events.
    pub device_rows: BTreeSet<(u64, u64)>,
    /// Names of counter tracks.
    pub counter_tracks: BTreeSet<String>,
    /// JSON object keys used by each phase.
    pub keys_by_phase: BTreeMap<String, BTreeSet<String>>,
}

impl TraceSummary {
    /// Two exports share a schema when every phase present in both uses
    /// the same JSON keys, and both carry the load-bearing phases: row
    /// metadata (`M`), complete events (`X`), and counter tracks (`C`).
    pub fn schema_matches(&self, other: &TraceSummary) -> bool {
        for required in ["M", "X", "C"] {
            if !self.phases.contains(required) || !other.phases.contains(required) {
                return false;
            }
        }
        for (ph, keys) in &self.keys_by_phase {
            if let Some(other_keys) = other.keys_by_phase.get(ph) {
                if keys != other_keys {
                    return false;
                }
            }
        }
        true
    }
}

/// Parses and structurally validates an exported timeline.
///
/// Checks: top-level object with a `traceEvents` array; every event is an
/// object with `name` and `ph`; `X` events carry `cat`/`ts`/`dur`/`pid`/`tid`
/// with a non-negative finite duration; `i` events carry a scope; `C`
/// events carry a numeric `args.value`.
pub fn validate(json: &str) -> Result<TraceSummary, String> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let top = value.as_object().ok_or("top level must be an object")?;
    let events = top
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;

    let mut summary = TraceSummary {
        events: events.len(),
        categories: BTreeSet::new(),
        phases: BTreeSet::new(),
        device_rows: BTreeSet::new(),
        counter_tracks: BTreeSet::new(),
        keys_by_phase: BTreeMap::new(),
    };

    for (i, event) in events.iter().enumerate() {
        let obj = event
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i} has no ph"))?
            .to_string();
        let name = obj
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i} has no name"))?;
        summary
            .keys_by_phase
            .entry(ph.clone())
            .or_default()
            .extend(obj.keys().cloned());
        if let Some(cat) = obj.get("cat").and_then(|v| v.as_str()) {
            if ph == "X" || ph == "i" {
                summary.categories.insert(cat.to_string());
            }
        }
        match ph.as_str() {
            "X" => {
                let dur = obj
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("X event {i} ({name}) has no dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("X event {i} ({name}) has bad dur {dur}"));
                }
                let ts = obj
                    .get("ts")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("X event {i} ({name}) has no ts"))?;
                if !ts.is_finite() {
                    return Err(format!("X event {i} ({name}) has bad ts"));
                }
                let pid = obj
                    .get("pid")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("X event {i} ({name}) has no pid"))?;
                let tid = obj
                    .get("tid")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("X event {i} ({name}) has no tid"))?;
                summary.device_rows.insert((pid, tid));
            }
            "i" => {
                obj.get("s")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("instant event {i} ({name}) has no scope"))?;
            }
            "C" => {
                obj.get("args")
                    .and_then(|v| v.get("value"))
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("counter event {i} ({name}) has no args.value"))?;
                summary.counter_tracks.insert(name.to_string());
            }
            _ => {}
        }
        summary.phases.insert(ph);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{Engine, Label, LinkParams};

    fn run() -> (ClusterSpec, TaskGraph, Trace) {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0));
        let mut g = TaskGraph::new();
        let f = g.add_labeled(
            Work::flow(c.device(0, 0), c.device(1, 0), 5.0),
            [],
            Label::new("payload", []),
        );
        g.add(Work::compute(c.device(1, 0), 1.0), [f]);
        g.add_labeled(Work::Marker, [], Label::new("epoch", []));
        let trace = Engine::new(&c).run(&g).unwrap();
        (c, g, trace)
    }

    #[test]
    fn export_validates_and_carries_all_row_kinds() {
        let (c, g, trace) = run();
        let mut export = TraceExport::new();
        export.push_run(&g, &trace, &c, RunKind::Primary, 0.0);
        export.add_counter("plan_cache.hits", &[(0.0, 0.0), (1e6, 3.0)]);
        let json = export.render();
        let summary = validate(&json).expect("export validates");
        assert!(summary.phases.contains("M"));
        assert!(summary.phases.contains("X"));
        assert!(summary.phases.contains("i"));
        assert!(summary.phases.contains("C"));
        assert!(summary.categories.contains("comm"));
        assert!(summary.categories.contains("compute"));
        assert!(summary.categories.contains("marker"));
        assert_eq!(
            summary.counter_tracks.iter().collect::<Vec<_>>(),
            vec!["plan_cache.hits"]
        );
        // Two hosts of two devices each named; flow on (h0, d0),
        // compute on (h1, d2).
        assert!(summary.device_rows.contains(&(0, 0)));
        assert!(summary.device_rows.contains(&(1, 2)));
        assert!(json.contains("\"name\":\"epoch\""));
    }

    #[test]
    fn recovery_runs_use_the_recovery_category() {
        let (c, g, trace) = run();
        let mut export = TraceExport::new();
        export.push_run(&g, &trace, &c, RunKind::Primary, 0.0);
        export.push_run(&g, &trace, &c, RunKind::Recovery, 2e6);
        let summary = validate(&export.render()).unwrap();
        assert!(summary.categories.contains("recovery"));
        assert!(summary.categories.contains("compute"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let (c, g, trace) = run();
        let build = || {
            let mut export = TraceExport::new();
            export.push_run(&g, &trace, &c, RunKind::Primary, 0.0);
            export.add_counter("q", &[(0.0, 1.0)]);
            export.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sim_and_synthetic_threads_exports_share_schema() {
        let (c, g, trace) = run();
        let mut a = TraceExport::new();
        a.push_run(&g, &trace, &c, RunKind::Primary, 0.0);
        a.add_counter("x", &[(0.0, 1.0)]);
        let mut b = TraceExport::new();
        b.push_run(&g, &trace, &c, RunKind::Primary, 10.0);
        b.add_counter("y", &[(0.0, 2.0), (5.0, 3.0)]);
        b.add_instant("ack", "comm", 3.0, 0, 0);
        let sa = validate(&a.render()).unwrap();
        let sb = validate(&b.render()).unwrap();
        assert!(sa.schema_matches(&sb));
        assert!(sb.schema_matches(&sa));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("[]").is_err());
        assert!(validate("{\"traceEvents\":3}").is_err());
        assert!(validate("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(validate(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}]}"
        )
        .is_err());
    }

    #[test]
    fn explicit_rows_and_completes_validate_without_a_run() {
        let mut export = TraceExport::new();
        export.add_process(0, "flight-recorder");
        export.add_thread(0, 3, "shard 3");
        export.add_complete("plan", "flightrec", 10.0, -4.0, 0, 3);
        export.add_instant("dump: slo-breach", "flightrec", 20.0, 0, 0);
        export.add_counter("flightrec.dropped", &[(20.0, 0.0)]);
        let json = export.render();
        let summary = validate(&json).expect("validates");
        assert!(summary.phases.contains("M"));
        assert!(summary.phases.contains("X"));
        assert!(summary.phases.contains("C"));
        assert!(summary.device_rows.contains(&(0, 3)));
        // The negative duration was clamped, not emitted.
        assert!(json.contains("\"dur\":0"));
    }

    /// The event names `push_run` renders for `graph`, in document order.
    fn event_names(c: &ClusterSpec, graph: &TaskGraph) -> Vec<String> {
        let trace = Engine::new(c).run(graph).unwrap();
        let mut export = TraceExport::new();
        export.push_run(graph, &trace, c, RunKind::Primary, 0.0);
        let doc: serde_json::Value = serde_json::from_str(&export.render()).unwrap();
        doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"] != "M")
            .map(|e| e["name"].as_str().unwrap().to_string())
            .collect()
    }

    /// Two hosts of two devices on two rails.
    fn rails() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0)).with_fabric(
            crossmesh_netsim::FabricModel::RailOptimized {
                rails: 2,
                spine_capacity: 1.0,
            },
        )
    }

    /// Unit 3, a 12-byte slice that d0 sends to its host peer d1 and to
    /// both devices of host 1.
    #[allow(clippy::single_range_in_vec_init)]
    fn unit(c: &ClusterSpec) -> crossmesh_mesh::UnitTask {
        use crossmesh_mesh::{Receiver, Tile};
        crossmesh_mesh::UnitTask {
            index: 3,
            slice: Tile::new([0..12]),
            bytes: 12,
            senders: vec![(c.device(0, 0), crossmesh_netsim::HostId(0))],
            receivers: [(0, 1), (1, 0), (1, 1)]
                .into_iter()
                .map(|(h, l)| Receiver {
                    device: c.device(h, l),
                    host: crossmesh_netsim::HostId(h),
                    needed: Tile::new([0..12]),
                })
                .collect(),
        }
    }

    #[test]
    fn every_lowering_exports_the_names_it_always_has() {
        use crossmesh_collectives::{alpa_effective_strategy, lower_unit_task_on, Strategy};
        let c = rails();
        let unit = unit(&c);
        let names = |strategy: Strategy| {
            let mut g = TaskGraph::new();
            lower_unit_task_on(&mut g, &unit, c.device(0, 0), strategy, &[], Some(&c));
            event_names(&c, &g)
        };
        // The seven CLI strategies; `alpa` resolves per unit.
        let cases = [
            ("send_recv", Strategy::SendRecv),
            ("local_allgather", Strategy::LocalAllGather),
            ("global_allgather", Strategy::GlobalAllGather),
            ("broadcast", Strategy::Broadcast { chunks: 2 }),
            ("tree_broadcast", Strategy::TreeBroadcast { chunks: 2 }),
            (
                "multi_rail",
                Strategy::MultiRail {
                    rails: 2,
                    chunks: 2,
                },
            ),
            ("alpa", alpa_effective_strategy(&unit)),
        ];
        let ga: &[&str] = &[
            "ga u3 scatter",
            "ga u3 scatter",
            "ga u3 scatter",
            "ag[s0] d1->d2",
            "ag[s0] d2->d3",
            "ag[s0] d3->d1",
            "ag[s1] d1->d2",
            "ag[s1] d2->d3",
            "ag[s1] d3->d1",
            "marker t9",
            "marker t10",
            "marker t11",
            "marker t12",
            "marker t13",
        ];
        let want: [&[&str]; 7] = [
            &["sr u3 d0->d1", "sr u3 d0->d2", "sr u3 d0->d3", "marker t3"],
            &[
                "la u3 copy",
                "la u3 scatter",
                "la u3 scatter",
                "ag[s0] d2->d3",
                "ag[s0] d3->d2",
                "marker t5",
                "marker t6",
                "marker t7",
                "marker t8",
            ],
            ga,
            &[
                "bc u3 c0 h0",
                "bc u3 c0 h1",
                "bc u3 c0 h2",
                "bc u3 c1 h0",
                "bc u3 c1 h1",
                "bc u3 c1 h2",
                "marker t6",
            ],
            &[
                "tb u3 c0 0->1",
                "tb u3 c0 local",
                "tb u3 c0 local",
                "tb u3 c1 0->1",
                "tb u3 c1 local",
                "tb u3 c1 local",
                "marker t6",
            ],
            &[
                "mr u3 local d0->d1",
                "mr u3 c0 r0 h0",
                "mr u3 c1 r1 h0",
                "mr u3 c1 r1 h1",
                "mr u3 c1 r1 h2",
                "mr u3 c0 r0 h0",
                "mr u3 c0 r0 h1",
                "mr u3 c1 r1 h0",
                "mr u3 c1 r1 h1",
                "marker t5",
                "marker t10",
                "marker t11",
            ],
            ga,
        ];
        for ((cli, strategy), want) in cases.into_iter().zip(want) {
            assert_eq!(names(strategy), want, "{cli}");
        }
    }

    #[test]
    fn a_lone_global_all_gather_receiver_gets_a_named_copy() {
        use crossmesh_collectives::{lower_unit_task, Strategy};
        let c = rails();
        let mut unit = unit(&c);
        unit.receivers.truncate(1);
        let mut g = TaskGraph::new();
        lower_unit_task(
            &mut g,
            &unit,
            c.device(0, 0),
            Strategy::GlobalAllGather,
            &[],
        );
        assert_eq!(event_names(&c, &g), ["ga u3 copy", "marker t1"]);
    }

    #[test]
    fn ring_and_intra_mesh_lowerings_export_the_names_they_always_have() {
        use crossmesh_collectives::{
            lower_intra_mesh_resharding, ring_all_gather, ring_all_reduce,
        };
        let c = rails();
        let (d0, d1, d2) = (c.device(0, 0), c.device(0, 1), c.device(1, 0));

        let mut g = TaskGraph::new();
        ring_all_gather(&mut g, &[d0, d1, d2], &[1.0; 3], &vec![vec![]; 3]);
        assert_eq!(
            event_names(&c, &g),
            [
                "ag[s0] d0->d1",
                "ag[s0] d1->d2",
                "ag[s0] d2->d0",
                "ag[s1] d0->d1",
                "ag[s1] d1->d2",
                "ag[s1] d2->d0",
                "marker t6",
                "marker t7",
                "marker t8",
                "marker t9",
            ]
        );

        let mut g = TaskGraph::new();
        ring_all_reduce(&mut g, &[d0, d2], 4.0, &vec![vec![]; 2]);
        assert_eq!(
            event_names(&c, &g),
            [
                "rs[s0]",
                "rs[s0]",
                "ag[s0] d0->d2",
                "ag[s0] d2->d0",
                "marker t4",
                "marker t5",
                "marker t6",
            ]
        );

        let mesh = crossmesh_mesh::DeviceMesh::from_cluster(&c, 0, (2, 2), "m").unwrap();
        let mut g = TaskGraph::new();
        lower_intra_mesh_resharding(
            &mut g,
            &mesh,
            &"S0R".parse().unwrap(),
            &"RR".parse().unwrap(),
            &[4, 4],
            1,
            &[],
        )
        .unwrap();
        assert_eq!(
            event_names(&c, &g),
            [
                "intra d2->d0",
                "intra d3->d1",
                "intra d0->d2",
                "intra d1->d3",
                "marker t4",
                "marker t5",
                "marker t6",
                "marker t7",
                "marker t8",
            ]
        );
    }
    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
