//! The pre-refactor discrete-event engine, frozen verbatim.
//!
//! This is the progressive-filling engine exactly as it stood before the
//! incremental fair-share / indexed event-core rewrite: on every flow-set
//! change it re-solves max–min rates over *all* flows × *all* resources,
//! and on every event it linearly scans every active flow for the next
//! drain time. It is O(F·R) per event and unusable past a few hundred
//! hosts — which is precisely why it is kept, as a test-only oracle
//! compiled under `cfg(test)`: the equivalence proptests (the crate's
//! `equivalence` module) pin the rewritten engine against this one on
//! random clusters and task graphs.
//!
//! Do not "fix" or optimise this module; its value is that it does not
//! change. (It retains the latent empty-`resources` infinite-loop hazard
//! the new solver fixes — no graph built through [`TaskGraph::add`]
//! reaches it.)

use crate::error::SimError;
use crate::faults::Disruptions;
use crate::graph::{TaskGraph, TaskId, Work};
use crate::topology::{ClusterSpec, DeviceId, HostId};
use crate::trace::{FaultStats, ResourceUsage, TaskInterval, Trace};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Relative tolerance used to decide simultaneity of events and saturation
/// of resources (kept identical to the live engine's).
const REL_EPS: f64 = 1e-9;

/// The frozen pre-refactor engine. See the module docs: the equivalence
/// oracle only — [`Engine`](crate::Engine) runs everything else.
#[derive(Debug)]
pub struct ReferenceEngine<'a> {
    cluster: &'a ClusterSpec,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    ComputeDone(TaskId),
    /// The fixed latency of a flow elapsed; the flow starts draining bytes.
    FlowLatencyDone(TaskId),
    /// An injected fault fires; the payload indexes `Run::fault_actions`.
    Fault(usize),
}

/// A scheduled state change injected by [`Disruptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultAction {
    /// The host dies: everything on it or flowing through it fails.
    HostDown(HostId),
    /// The host's NIC send/recv capacity becomes `base * scale`.
    SetNicScale(HostId, f64),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
struct FlowState {
    task: TaskId,
    remaining: f64,
    rate: f64,
    resources: Vec<usize>,
}

/// An entry in a per-device FIFO ready queue, ordered by ready time then id.
#[derive(Debug, Clone, Copy)]
struct QueuedCompute {
    ready: f64,
    task: TaskId,
}

impl PartialEq for QueuedCompute {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.task == other.task
    }
}
impl Eq for QueuedCompute {}
impl PartialOrd for QueuedCompute {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedCompute {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ready
            .total_cmp(&other.ready)
            .then(self.task.cmp(&other.task))
    }
}

impl<'a> ReferenceEngine<'a> {
    /// Creates a reference engine over the given cluster.
    pub fn new(cluster: &'a ClusterSpec) -> Self {
        ReferenceEngine { cluster }
    }

    /// Runs `graph` to completion and returns the trace.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`](crate::Engine::run).
    pub fn run(&self, graph: &TaskGraph) -> Result<Trace, SimError> {
        Run::new(self.cluster, graph, &Disruptions::none())?.execute()
    }

    /// Runs `graph` under the given injected [`Disruptions`].
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`Engine::run_with_disruptions`](crate::Engine::run_with_disruptions).
    ///
    /// # Panics
    ///
    /// Panics if `disruptions` fails [`Disruptions::validate`].
    pub fn run_with_disruptions(
        &self,
        graph: &TaskGraph,
        disruptions: &Disruptions,
    ) -> Result<Trace, SimError> {
        if let Err(why) = disruptions.validate() {
            panic!("invalid disruptions: {why}");
        }
        Run::new(self.cluster, graph, disruptions)?.execute()
    }
}

struct Run<'a> {
    cluster: &'a ClusterSpec,
    graph: &'a TaskGraph,
    pending_deps: Vec<usize>,
    dependents: Vec<Vec<TaskId>>,
    intervals: Vec<TaskInterval>,
    done: Vec<bool>,
    completed: usize,
    usage: ResourceUsage,

    time: f64,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,

    device_queue: Vec<BinaryHeap<Reverse<QueuedCompute>>>,
    device_busy: Vec<bool>,

    flows: Vec<FlowState>,
    rates_dirty: bool,
    capacities: Vec<f64>,

    fault_actions: Vec<FaultAction>,
    host_dead: Vec<bool>,
    running_on: Vec<Option<TaskId>>,
    compute_scale: Vec<f64>,
    drops_left: BTreeMap<u32, u32>,
    attempts: BTreeMap<u32, u32>,
    retry_backoff: f64,
    max_retries: u32,
    failed: Vec<bool>,
    failed_tasks: Vec<TaskId>,
    stats: FaultStats,
}

impl<'a> Run<'a> {
    fn new(
        cluster: &'a ClusterSpec,
        graph: &'a TaskGraph,
        disruptions: &Disruptions,
    ) -> Result<Self, SimError> {
        let n = graph.len();
        let mut pending_deps = vec![0usize; n];
        let mut dependents = vec![Vec::new(); n];
        for (id, task) in graph.iter() {
            pending_deps[id.0 as usize] = task.deps.len();
            for d in task.deps {
                dependents[d.0 as usize].push(id);
            }
            let check = |dev: DeviceId| -> Result<(), SimError> {
                if cluster.contains(dev) {
                    Ok(())
                } else {
                    Err(SimError::UnknownDevice {
                        task: id,
                        device: dev,
                    })
                }
            };
            match task.work {
                Work::Compute { device, .. } | Work::ComputeFlops { device, .. } => check(device)?,
                Work::Flow { src, dst, .. } => {
                    check(src)?;
                    check(dst)?;
                }
                Work::Marker => {}
            }
        }

        let d = cluster.num_devices() as usize;
        let capacities = cluster.resource_capacities();

        let mut compute_scale = vec![1.0f64; d];
        for &(device, factor) in &disruptions.compute_slowdown {
            if cluster.contains(device) {
                compute_scale[device.0 as usize] *= factor;
            }
        }

        let h = cluster.num_hosts() as usize;
        let mut run = Run {
            cluster,
            graph,
            pending_deps,
            dependents,
            intervals: vec![
                TaskInterval {
                    start: 0.0,
                    finish: 0.0
                };
                n
            ],
            done: vec![false; n],
            completed: 0,
            usage: ResourceUsage::default(),
            time: 0.0,
            events: BinaryHeap::new(),
            next_seq: 0,
            device_queue: (0..d).map(|_| BinaryHeap::new()).collect(),
            device_busy: vec![false; d],
            flows: Vec::new(),
            rates_dirty: false,
            capacities,
            fault_actions: Vec::new(),
            host_dead: vec![false; h],
            running_on: vec![None; d],
            compute_scale,
            drops_left: disruptions
                .flow_drops
                .iter()
                .filter(|&(_, &k)| k > 0)
                .map(|(&t, &k)| (t, k))
                .collect(),
            attempts: BTreeMap::new(),
            retry_backoff: disruptions.retry_backoff,
            max_retries: disruptions.max_retries,
            failed: vec![false; n],
            failed_tasks: Vec::new(),
            stats: FaultStats::default(),
        };

        for &(host, at) in &disruptions.host_down {
            if (host.0 as usize) < run.host_dead.len() {
                let idx = run.fault_actions.len();
                run.fault_actions.push(FaultAction::HostDown(host));
                run.push_event(at, EventKind::Fault(idx));
            }
        }
        for p in &disruptions.nic_scale {
            if (p.host.0 as usize) < run.host_dead.len() {
                let idx = run.fault_actions.len();
                run.fault_actions
                    .push(FaultAction::SetNicScale(p.host, p.factor));
                run.push_event(p.from, EventKind::Fault(idx));
                let idx = run.fault_actions.len();
                run.fault_actions
                    .push(FaultAction::SetNicScale(p.host, 1.0));
                run.push_event(p.until, EventKind::Fault(idx));
            }
        }
        Ok(run)
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
    }

    fn fail_task(&mut self, task: TaskId, completions: &mut Vec<TaskId>) {
        self.intervals[task.0 as usize].start = self.time;
        self.failed[task.0 as usize] = true;
        self.failed_tasks.push(task);
        completions.push(task);
    }

    fn is_dead(&self, host: HostId) -> bool {
        self.host_dead[host.0 as usize]
    }

    fn make_ready(&mut self, task: TaskId, completions: &mut Vec<TaskId>) {
        let t = self.graph.task(task);
        if t.deps.iter().any(|d| self.failed[d.0 as usize]) {
            self.fail_task(task, completions);
            return;
        }
        let needs_dead_host = match t.work {
            Work::Compute { device, .. } | Work::ComputeFlops { device, .. } => {
                self.is_dead(self.cluster.host_of(device))
            }
            Work::Flow { src, dst, .. } => {
                self.is_dead(self.cluster.host_of(src)) || self.is_dead(self.cluster.host_of(dst))
            }
            Work::Marker => false,
        };
        if needs_dead_host {
            self.fail_task(task, completions);
            return;
        }
        self.intervals[task.0 as usize].start = self.time;
        match t.work {
            Work::Marker => completions.push(task),
            Work::Compute { device, .. } | Work::ComputeFlops { device, .. } => {
                self.device_queue[device.0 as usize].push(Reverse(QueuedCompute {
                    ready: self.time,
                    task,
                }));
            }
            Work::Flow { src, dst, bytes } => {
                let src_host = self.cluster.host_of(src);
                let dst_host = self.cluster.host_of(dst);
                let links = self.cluster.host(src_host).links;
                let latency = if src_host == dst_host {
                    links.intra_host_latency
                } else {
                    self.usage.record(src_host, dst_host, bytes);
                    links.inter_host_latency
                };
                self.push_event(self.time + latency, EventKind::FlowLatencyDone(task));
            }
        }
    }

    fn activate_flow(&mut self, task: TaskId, completions: &mut Vec<TaskId>) {
        let Work::Flow { src, dst, bytes } = self.graph.task(task).work else {
            unreachable!("latency event for a non-flow task");
        };
        if self.is_dead(self.cluster.host_of(src)) || self.is_dead(self.cluster.host_of(dst)) {
            self.fail_task(task, completions);
            return;
        }
        if bytes <= 0.0 {
            completions.push(task);
            return;
        }
        let d = self.cluster.num_devices() as usize;
        let h = self.cluster.num_hosts() as usize;
        let src_host = self.cluster.host_of(src);
        let dst_host = self.cluster.host_of(dst);
        let mut resources = vec![
            src.0 as usize,     // device send
            d + dst.0 as usize, // device recv
        ];
        if src_host != dst_host {
            resources.push(2 * d + src_host.0 as usize); // host NIC send
            resources.push(2 * d + h + dst_host.0 as usize); // host NIC recv
            self.cluster
                .fabric_route(src, dst, 2 * d + 2 * h, &mut resources);
        }
        self.flows.push(FlowState {
            task,
            remaining: bytes,
            rate: 0.0,
            resources,
        });
        self.rates_dirty = true;
    }

    fn dispatch_computes(&mut self) {
        for dev in 0..self.device_queue.len() {
            if self.device_busy[dev] {
                continue;
            }
            if let Some(Reverse(q)) = self.device_queue[dev].pop() {
                self.device_busy[dev] = true;
                let seconds = match self.graph.task(q.task).work {
                    Work::Compute { seconds, .. } => seconds,
                    Work::ComputeFlops { device, flops } => {
                        flops / self.cluster.host(self.cluster.host_of(device)).device_flops
                    }
                    _ => unreachable!("non-compute task in device queue"),
                } * self.compute_scale[dev];
                self.intervals[q.task.0 as usize].start =
                    self.intervals[q.task.0 as usize].start.max(self.time);
                self.running_on[dev] = Some(q.task);
                self.push_event(self.time + seconds, EventKind::ComputeDone(q.task));
            }
        }
    }

    fn apply_fault(&mut self, action: FaultAction, completions: &mut Vec<TaskId>) {
        let d = self.cluster.num_devices() as usize;
        let h = self.cluster.num_hosts() as usize;
        match action {
            FaultAction::SetNicScale(host, scale) => {
                let base = self.cluster.host(host).links.inter_host_bw
                    * self.cluster.host_nic_multiplier();
                self.capacities[2 * d + host.0 as usize] = base * scale;
                self.capacities[2 * d + h + host.0 as usize] = base * scale;
                self.rates_dirty = true;
            }
            FaultAction::HostDown(host) => {
                if self.host_dead[host.0 as usize] {
                    return;
                }
                self.host_dead[host.0 as usize] = true;
                let mut i = 0;
                while i < self.flows.len() {
                    let fails = match self.graph.task(self.flows[i].task).work {
                        Work::Flow { src, dst, .. } => {
                            self.cluster.host_of(src) == host || self.cluster.host_of(dst) == host
                        }
                        _ => false,
                    };
                    if fails {
                        let task = self.flows[i].task;
                        self.flows.swap_remove(i);
                        self.rates_dirty = true;
                        self.fail_task(task, completions);
                    } else {
                        i += 1;
                    }
                }
                let devices: Vec<DeviceId> = self.cluster.devices_on(host).collect();
                for dev in devices {
                    let dev = dev.0 as usize;
                    if let Some(task) = self.running_on[dev].take() {
                        self.fail_task(task, completions);
                    }
                    self.device_busy[dev] = true;
                    while let Some(Reverse(q)) = self.device_queue[dev].pop() {
                        self.fail_task(q.task, completions);
                    }
                }
            }
        }
    }

    /// The original global progressive-filling max–min rate assignment:
    /// re-solves every flow against every resource on each call.
    fn recompute_rates(&mut self) {
        let mut used = vec![0.0f64; self.capacities.len()];
        let mut count = vec![0u32; self.capacities.len()];
        let mut frozen = vec![false; self.flows.len()];
        for f in &self.flows {
            for &r in &f.resources {
                count[r] += 1;
            }
        }
        let mut remaining = self.flows.len();
        let mut fill = 0.0f64;
        while remaining > 0 {
            let mut delta = f64::INFINITY;
            for (r, &c) in count.iter().enumerate() {
                if c > 0 {
                    let head = (self.capacities[r] - used[r]) / c as f64;
                    if head < delta {
                        delta = head;
                    }
                }
            }
            debug_assert!(delta.is_finite());
            fill += delta;
            for (r, &c) in count.iter().enumerate() {
                if c > 0 {
                    used[r] += delta * c as f64;
                }
            }
            for (i, f) in self.flows.iter_mut().enumerate() {
                if frozen[i] {
                    continue;
                }
                let saturated = f
                    .resources
                    .iter()
                    .any(|&r| self.capacities[r] - used[r] <= REL_EPS * self.capacities[r]);
                if saturated {
                    frozen[i] = true;
                    f.rate = fill;
                    remaining -= 1;
                    for &r in &f.resources {
                        count[r] -= 1;
                    }
                }
            }
        }
        self.rates_dirty = false;
    }

    fn complete(&mut self, task: TaskId, newly_ready: &mut Vec<TaskId>) {
        debug_assert!(!self.done[task.0 as usize], "task completed twice");
        self.done[task.0 as usize] = true;
        self.completed += 1;
        self.intervals[task.0 as usize].finish = self.time;
        for i in 0..self.dependents[task.0 as usize].len() {
            let dep = self.dependents[task.0 as usize][i];
            let c = &mut self.pending_deps[dep.0 as usize];
            *c -= 1;
            if *c == 0 {
                newly_ready.push(dep);
            }
        }
    }

    fn execute(mut self) -> Result<Trace, SimError> {
        let mut completions: Vec<TaskId> = Vec::new();
        let initially_ready: Vec<TaskId> = self
            .pending_deps
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for t in initially_ready {
            self.make_ready(t, &mut completions);
        }

        loop {
            while let Some(task) = completions.pop() {
                let mut ready = Vec::new();
                self.complete(task, &mut ready);
                for r in ready {
                    self.make_ready(r, &mut completions);
                }
            }
            self.dispatch_computes();
            if self.rates_dirty {
                self.recompute_rates();
            }

            if self.completed == self.graph.len() {
                break;
            }

            let heap_next = self.events.peek().map(|Reverse(e)| e.time);
            let flow_next = self
                .flows
                .iter()
                .map(|f| {
                    if f.rate > 0.0 {
                        self.time + f.remaining / f.rate
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(f64::INFINITY, f64::min);
            let next = match heap_next {
                Some(h) => h.min(flow_next),
                None => flow_next,
            };
            if !next.is_finite() {
                return Err(SimError::Stalled {
                    remaining: self.graph.len() - self.completed,
                });
            }

            let dt = next - self.time;
            let eps = REL_EPS * next.max(1e-12);
            self.time = next;
            if dt > 0.0 {
                for f in &mut self.flows {
                    f.remaining -= f.rate * dt;
                }
            }

            let mut i = 0;
            while i < self.flows.len() {
                let f = &self.flows[i];
                let finished = f.remaining <= f.rate * eps || f.remaining <= 0.0;
                if finished {
                    let task = f.task;
                    self.flows.swap_remove(i);
                    self.rates_dirty = true;
                    if self.drops_left.get(&task.0).copied().unwrap_or(0) > 0 {
                        self.handle_dropped_flow(task, &mut completions);
                    } else {
                        completions.push(task);
                    }
                } else {
                    i += 1;
                }
            }
            while let Some(Reverse(e)) = self.events.peek().copied() {
                if e.time <= self.time + eps {
                    self.events.pop();
                    match e.kind {
                        EventKind::ComputeDone(task) => {
                            if self.done[task.0 as usize] {
                                continue;
                            }
                            let device = self
                                .graph
                                .task(task)
                                .work
                                .compute_device()
                                .expect("compute event for non-compute task");
                            self.device_busy[device.0 as usize] = false;
                            self.running_on[device.0 as usize] = None;
                            completions.push(task);
                        }
                        EventKind::FlowLatencyDone(task) => {
                            self.activate_flow(task, &mut completions);
                        }
                        EventKind::Fault(idx) => {
                            let action = self.fault_actions[idx];
                            self.apply_fault(action, &mut completions);
                        }
                    }
                } else {
                    break;
                }
            }
        }

        self.failed_tasks.sort_unstable();
        self.failed_tasks.dedup();
        Ok(Trace::faulted(
            self.intervals,
            self.usage,
            self.stats,
            self.failed_tasks,
        ))
    }

    fn handle_dropped_flow(&mut self, task: TaskId, completions: &mut Vec<TaskId>) {
        let attempts = self.attempts.get(&task.0).copied().unwrap_or(0);
        if attempts >= self.max_retries {
            self.drops_left.remove(&task.0);
            self.stats.dropped_flows += 1;
            self.fail_task(task, completions);
            return;
        }
        let left = self
            .drops_left
            .get_mut(&task.0)
            .expect("drop count present");
        *left -= 1;
        if *left == 0 {
            self.drops_left.remove(&task.0);
        }
        self.attempts.insert(task.0, attempts + 1);
        self.stats.retries += 1;
        if let Work::Flow { src, dst, bytes } = self.graph.task(task).work {
            let src_host = self.cluster.host_of(src);
            let dst_host = self.cluster.host_of(dst);
            if src_host != dst_host {
                self.usage.record(src_host, dst_host, bytes);
            }
        }
        let backoff = self.retry_backoff * f64::powi(2.0, attempts as i32);
        self.push_event(self.time + backoff, EventKind::FlowLatencyDone(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkParams;

    fn two_hosts() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0).with_latencies(0.0, 0.0))
    }

    #[test]
    fn reference_still_solves_max_min_sharing() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let a = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        let b = g.add(Work::flow(c.device(0, 1), c.device(1, 1), 6.0), []);
        let t = ReferenceEngine::new(&c).run(&g).unwrap();
        assert!((t.interval(a).finish - 4.0).abs() < 1e-9);
        assert!((t.interval(b).finish - 8.0).abs() < 1e-9);
    }

    #[test]
    fn reference_is_deterministic() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        for i in 0..8 {
            let src = c.device(0, i % 2);
            let dst = c.device(1, (i + 1) % 2);
            g.add(Work::flow(src, dst, 1.0 + i as f64), []);
        }
        let t1 = ReferenceEngine::new(&c).run(&g).unwrap();
        let t2 = ReferenceEngine::new(&c).run(&g).unwrap();
        assert_eq!(t1, t2);
    }
}
