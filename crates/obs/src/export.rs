//! Unified Chrome/Perfetto timeline export.
//!
//! Every timeline this workspace writes — an executed run on any backend,
//! the serve daemon's queue timeline, a flight-recorder dump — is built
//! with [`TraceExport`] and rendered into one JSON schema that loads
//! directly into `chrome://tracing` or [Perfetto](https://ui.perfetto.dev):
//!
//! * *process* and *thread* rows named via `ph: "M"` metadata events (one
//!   process per host and one thread per device for an executed run);
//! * complete events (`ph: "X"`), e.g. compute tasks and flows under the
//!   `compute` / `comm` categories;
//! * instant events (`ph: "i"`), e.g. markers and runtime flow acks;
//! * metric series as counter tracks (`ph: "C"`) on a dedicated `metrics`
//!   process row.
//!
//! An executed run is laid out by `crossmesh_netsim::Trace::export`, next
//! to the trace it renders, so this crate stays a leaf that depends on no
//! other layer.
//!
//! Rendering is hand-rolled rather than serde-derived so field order, and
//! therefore the byte-level output, is stable — the golden-file test in
//! `tests/obs_overhead.rs` relies on it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

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

    /// Names a process row.
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
    /// largest process pid (or 0 if no process row is named).
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

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut export = TraceExport::new();
            export.add_process(0, "host 0");
            export.add_thread(0, 0, "device 0");
            export.add_complete("payload", "comm", 0.0, 5.0, 0, 0);
            export.add_counter("q", &[(0.0, 1.0)]);
            export.render()
        };
        assert_eq!(build(), build());
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

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
