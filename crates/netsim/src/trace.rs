//! Execution traces produced by the engine, and their timeline export.

use crate::graph::{TaskGraph, Work};
use crate::topology::{ClusterSpec, HostId};
use crate::TaskId;
use crossmesh_obs::export::TraceExport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Start/finish interval of one task, in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskInterval {
    /// Time the task started executing (for flows: began transferring).
    pub start: f64,
    /// Time the task completed.
    pub finish: f64,
}

impl TaskInterval {
    /// Duration of the interval.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// Bytes moved through each host NIC over a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Bytes sent out of each host (inter-host flows only).
    pub host_sent: BTreeMap<u32, f64>,
    /// Bytes received by each host (inter-host flows only).
    pub host_received: BTreeMap<u32, f64>,
}

impl ResourceUsage {
    /// Total inter-host traffic (sum over senders).
    pub fn total_cross_host_bytes(&self) -> f64 {
        self.host_sent.values().sum()
    }

    pub(crate) fn record(&mut self, src: HostId, dst: HostId, bytes: f64) {
        *self.host_sent.entry(src.0).or_insert(0.0) += bytes;
        *self.host_received.entry(dst.0).or_insert(0.0) += bytes;
    }

    /// The usage of per-host byte totals indexed by host id, where `None`
    /// marks a host that moved nothing (it gets no entry).
    pub(crate) fn from_per_host(sent: &[Option<f64>], received: &[Option<f64>]) -> Self {
        let keyed = |per_host: &[Option<f64>]| {
            per_host
                .iter()
                .enumerate()
                .filter_map(|(host, bytes)| bytes.map(|b| (host as u32, b)))
                .collect()
        };
        ResourceUsage {
            host_sent: keyed(sent),
            host_received: keyed(received),
        }
    }
}

/// Degradation counters accumulated while a run executes under fault
/// injection. All zero (and `degraded_makespan` absent) for a fault-free
/// run, so fault-free traces compare and serialize exactly as before.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Flow transmissions that had to be re-sent after an injected drop.
    pub retries: u64,
    /// Unit tasks re-assigned to a surviving sender by plan repair.
    pub failovers: u64,
    /// Flows that exhausted their retry budget and failed.
    pub dropped_flows: u64,
    /// End-to-end completion time including repair and re-execution,
    /// when a recovery layer re-ran the plan; `None` otherwise.
    pub degraded_makespan: Option<f64>,
}

/// The result of a simulation run: per-task intervals plus aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    intervals: Vec<TaskInterval>,
    makespan: f64,
    usage: ResourceUsage,
    faults: FaultStats,
    failed_tasks: Vec<TaskId>,
}

/// Incrementally assembles a [`Trace`] from per-task timings, for execution
/// backends living outside this crate (see [`crate::Backend`]).
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    intervals: Vec<TaskInterval>,
    usage: ResourceUsage,
    faults: FaultStats,
}

impl TraceBuilder {
    /// A builder pre-sized for a graph of `tasks` tasks.
    pub fn with_capacity(tasks: usize) -> Self {
        TraceBuilder {
            intervals: Vec::with_capacity(tasks),
            usage: ResourceUsage::default(),
            faults: FaultStats::default(),
        }
    }

    /// Records the execution interval of `task`, in seconds. Tasks may be
    /// recorded in any order; gaps are zero-length intervals at t=0 until
    /// recorded.
    pub fn record_interval(&mut self, task: TaskId, start: f64, finish: f64) {
        let idx = task.0 as usize;
        if idx >= self.intervals.len() {
            self.intervals.resize(
                idx + 1,
                TaskInterval {
                    start: 0.0,
                    finish: 0.0,
                },
            );
        }
        self.intervals[idx] = TaskInterval { start, finish };
    }

    /// Accounts `bytes` of traffic from `src` to `dst` if they differ
    /// (intra-host traffic is not NIC traffic).
    pub fn record_flow(&mut self, src: HostId, dst: HostId, bytes: f64) {
        if src != dst {
            self.usage.record(src, dst, bytes);
        }
    }

    /// Overrides the fault counters carried by the final trace (backends
    /// that executed under fault injection report their retries here).
    pub fn record_fault_stats(&mut self, faults: FaultStats) {
        self.faults = faults;
    }

    /// Finalizes the trace; the makespan is the latest recorded finish.
    pub fn build(self) -> Trace {
        Trace::faulted(self.intervals, self.usage, self.faults, Vec::new())
    }
}

impl Trace {
    pub(crate) fn faulted(
        intervals: Vec<TaskInterval>,
        usage: ResourceUsage,
        faults: FaultStats,
        failed_tasks: Vec<TaskId>,
    ) -> Self {
        let makespan = intervals.iter().map(|i| i.finish).fold(0.0, f64::max);
        Trace {
            intervals,
            makespan,
            usage,
            faults,
            failed_tasks,
        }
    }

    /// Completion time of the last task, in simulated seconds.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Degradation counters from fault injection (all zero for a clean run).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    /// Tasks that failed under fault injection instead of completing,
    /// sorted by id. Empty for a clean run.
    pub fn failed_tasks(&self) -> &[TaskId] {
        &self.failed_tasks
    }

    /// The execution interval of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` was not part of the executed graph.
    pub fn interval(&self, task: TaskId) -> TaskInterval {
        self.intervals[task.0 as usize]
    }

    /// All intervals, indexed by task id.
    pub fn intervals(&self) -> &[TaskInterval] {
        &self.intervals
    }

    /// Inter-host traffic accounting.
    pub fn usage(&self) -> &ResourceUsage {
        &self.usage
    }

    /// Fraction of the makespan each device spent computing (compute tasks
    /// only — flows are attributed to the network, not the device).
    /// Devices that never compute are absent.
    pub fn device_utilization(&self, graph: &TaskGraph) -> BTreeMap<u32, f64> {
        let mut busy: BTreeMap<u32, f64> = BTreeMap::new();
        for (id, task) in graph.iter() {
            if let Some(dev) = task.work.compute_device() {
                *busy.entry(dev.0).or_insert(0.0) += self.interval(id).duration();
            }
        }
        if self.makespan > 0.0 {
            for v in busy.values_mut() {
                *v /= self.makespan;
            }
        }
        busy
    }

    /// Total seconds during which at least one flow between different
    /// hosts was in progress ("exposed or overlapped communication time"),
    /// computed by sweeping the merged flow intervals.
    pub fn cross_host_comm_seconds(&self, graph: &TaskGraph, cluster: &ClusterSpec) -> f64 {
        let mut intervals: Vec<TaskInterval> = graph
            .iter()
            .filter(|(_, t)| match t.work {
                Work::Flow { src, dst, .. } => !cluster.same_host(src, dst),
                _ => false,
            })
            .map(|(id, _)| self.interval(id))
            .filter(|iv| iv.duration() > 0.0)
            .collect();
        intervals.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut total = 0.0;
        let mut cur: Option<TaskInterval> = None;
        for iv in intervals {
            match &mut cur {
                None => cur = Some(iv),
                Some(c) if iv.start <= c.finish => c.finish = c.finish.max(iv.finish),
                Some(c) => {
                    total += c.duration();
                    *c = iv;
                }
            }
        }
        if let Some(c) = cur {
            total += c.duration();
        }
        total
    }

    /// The unified timeline of `graph` executed as this trace on
    /// `cluster`, whichever backend ran it: one process row per host and
    /// one thread row per device, compute tasks and flows as complete
    /// events, markers as instants on the first device row, and the
    /// number of in-flight flows as the `comm.inflight_flows` counter
    /// track. Task labels are rendered here, on export, and nowhere else.
    pub fn export(&self, graph: &TaskGraph, cluster: &ClusterSpec) -> TraceExport {
        let mut export = TraceExport::new();
        for h in 0..cluster.num_hosts() {
            export.add_process(h, format!("host {h}"));
            for d in cluster.devices_on(HostId(h)) {
                export.add_thread(h, d.0, format!("device {}", d.0));
            }
        }
        // (timestamp, +1 / -1) as each flow starts and finishes.
        let mut inflight: Vec<(f64, f64)> = Vec::new();
        for (id, task) in graph.iter() {
            let interval = self.interval(id);
            let ts_us = interval.start * 1e6;
            let name = match (task.label, task.work) {
                (Some(label), _) => label.to_string(),
                (None, Work::Flow { dst, bytes, .. }) => {
                    format!("flow {id} -> {dst} ({bytes:.0} B)")
                }
                (None, Work::Marker) => format!("marker {id}"),
                (None, _) => format!("compute {id}"),
            };
            let (device, cat) = match task.work {
                Work::Compute { device, .. } | Work::ComputeFlops { device, .. } => {
                    (device, "compute")
                }
                Work::Flow { src, .. } => {
                    inflight.push((ts_us, 1.0));
                    inflight.push((interval.finish * 1e6, -1.0));
                    (src, "comm")
                }
                Work::Marker => {
                    export.add_instant(name, "marker", ts_us, 0, 0);
                    continue;
                }
            };
            let (pid, dur_us) = (cluster.host_of(device).0, interval.duration() * 1e6);
            export.add_complete(name, cat, ts_us, dur_us, pid, device.0);
        }
        inflight.sort_by(|a, b| a.partial_cmp(b).expect("trace timestamps are finite"));
        let mut level = 0.0;
        let mut samples = vec![(0.0, 0.0)];
        for (ts, delta) in inflight {
            level += delta;
            samples.push((ts, level));
        }
        export.add_counter("comm.inflight_flows", &samples);
        export
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, Engine, LinkParams};

    #[test]
    fn utilization_and_comm_time_analysis() {
        let c = ClusterSpec::homogeneous(2, 1, LinkParams::new(10.0, 1.0).with_latencies(0.0, 0.0));
        let mut g = TaskGraph::new();
        let d0 = c.device(0, 0);
        let d1 = c.device(1, 0);
        // 2 s compute on d0 overlapping a 4 s flow, then 1 s compute on d1.
        g.add(Work::compute(d0, 2.0), []);
        let f = g.add(Work::flow(d0, d1, 4.0), []);
        g.add(Work::compute(d1, 1.0), [f]);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 5.0).abs() < 1e-9);
        let util = t.device_utilization(&g);
        assert!((util[&d0.0] - 2.0 / 5.0).abs() < 1e-9);
        assert!((util[&d1.0] - 1.0 / 5.0).abs() < 1e-9);
        assert!((t.cross_host_comm_seconds(&g, &c) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_flow_intervals_merge() {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0).with_latencies(0.0, 0.0));
        let mut g = TaskGraph::new();
        // Two concurrent flows sharing the NIC: both run [0, 4]; merged
        // comm time is 4 s, not 8.
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        g.add(Work::flow(c.device(0, 1), c.device(1, 1), 2.0), []);
        // An intra-host flow must not count.
        g.add(Work::flow(c.device(0, 0), c.device(0, 1), 100.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.cross_host_comm_seconds(&g, &c) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_is_last_finish() {
        let t = Trace::faulted(
            vec![
                TaskInterval {
                    start: 0.0,
                    finish: 1.0,
                },
                TaskInterval {
                    start: 0.5,
                    finish: 3.0,
                },
            ],
            ResourceUsage::default(),
            FaultStats::default(),
            Vec::new(),
        );
        assert_eq!(t.makespan(), 3.0);
        assert_eq!(t.fault_stats(), &FaultStats::default());
    }

    #[test]
    fn export_validates_and_carries_all_row_kinds() {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0));
        let mut g = TaskGraph::new();
        let f = g.add_labeled(
            Work::flow(c.device(0, 0), c.device(1, 0), 5.0),
            [],
            crate::Label::new("payload", []),
        );
        g.add(Work::compute(c.device(1, 0), 1.0), [f]);
        g.add_labeled(Work::Marker, [], crate::Label::new("epoch", []));
        let t = Engine::new(&c).run(&g).unwrap();
        let json = t.export(&g, &c).render();
        let summary = crossmesh_obs::export::validate(&json).expect("export validates");
        for phase in ["M", "X", "i", "C"] {
            assert!(summary.phases.contains(phase), "{phase}");
        }
        for cat in ["comm", "compute", "marker"] {
            assert!(summary.categories.contains(cat), "{cat}");
        }
        assert_eq!(
            summary.counter_tracks.iter().collect::<Vec<_>>(),
            ["comm.inflight_flows"]
        );
        // Two hosts of two devices each named; the flow on (h0, d0), the
        // compute on (h1, d2).
        assert!(summary.device_rows.contains(&(0, 0)));
        assert!(summary.device_rows.contains(&(1, 2)));
        assert!(json.contains("\"name\":\"payload\""));
        assert!(json.contains("\"name\":\"epoch\""));
        // One flow in flight from its start to its finish.
        assert_eq!(json.matches("\"args\":{\"value\":1}").count(), 1);
        assert_eq!(
            t.export(&g, &c).render(),
            json,
            "rendering is deterministic"
        );
    }

    #[test]
    fn usage_accumulates() {
        let mut u = ResourceUsage::default();
        u.record(HostId(0), HostId(1), 10.0);
        u.record(HostId(0), HostId(2), 5.0);
        assert_eq!(u.host_sent.get(&0), Some(&15.0));
        assert_eq!(u.host_received.get(&1), Some(&10.0));
        assert_eq!(u.host_received.get(&3), None);
        assert_eq!(u.total_cross_host_bytes(), 15.0);
    }
}
