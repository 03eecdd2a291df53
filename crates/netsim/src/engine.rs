//! The discrete-event execution engine.
//!
//! Compute tasks occupy their device serially, FIFO in ready order.
//! Flows share network resources with max–min fairness, solved
//! *incrementally*: the [`FairShare`] solver keeps per-resource flow
//! counts and a resource→flow index, and a flow-set change re-solves only
//! the connected components of the flow↔resource graph it touches, each
//! once (untouched components keep their cached rates bit-for-bit). Flow
//! completions live in the event heap as `FlowDrained` entries keyed by
//! predicted drain time and invalidated lazily by a per-slot generation
//! counter when a rate changes, so advancing time never scans the active
//! flow set. Same-timestamp completions (within `REL_EPS` relative) are
//! batched into one cascade, exactly like the pre-refactor engine.
//!
//! The frozen pre-refactor engine survives as a test-only oracle (the
//! `reference` module, compiled under `cfg(test)`), and the crate's
//! `equivalence` proptests pin this engine to it.

use crate::error::SimError;
use crate::faults::{Disruptions, NicScalePeriod};
use crate::graph::{TaskGraph, TaskId, Work};
use crate::rates::{FairShare, REL_EPS};
use crate::stats::{self, SimStats};
use crate::topology::{ClusterSpec, DeviceId, HostId};
use crate::trace::{FaultStats, ResourceUsage, TaskInterval, Trace};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Executes [`TaskGraph`]s on a [`ClusterSpec`].
///
/// The engine is deterministic: identical inputs produce identical traces.
#[derive(Debug)]
pub struct Engine<'a> {
    cluster: &'a ClusterSpec,
}

/// Timed events. Flow completions are `FlowDrained` entries scheduled at
/// the flow's predicted drain time; a rate change bumps the slot's
/// generation so the superseded entry is discarded when popped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    ComputeDone(TaskId),
    /// The fixed latency of a flow elapsed; the flow starts draining bytes.
    FlowLatencyDone(TaskId),
    /// The flow in this slot drains its last byte — valid only if the
    /// slot's generation still matches the second payload.
    FlowDrained(u32, u32),
    /// An injected fault fires; the payload indexes `Run::fault_actions`.
    Fault(usize),
}

/// A scheduled state change injected by [`Disruptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultAction {
    /// The host dies: everything on it or flowing through it fails.
    HostDown(HostId),
    /// NIC degradation period `.0` (an index into `Run::nic_periods`)
    /// begins (`true`) or ends (`false`).
    NicPeriod(usize, bool),
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

/// One active (or recycled) flow slot. Bytes drain lazily: `remaining`
/// is exact as of `updated_at` and is only materialized when the rate
/// changes, not on every event.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    task: TaskId,
    remaining: f64,
    rate: f64,
    /// Simulated time at which `remaining` was last materialized.
    updated_at: f64,
    /// Bumped on every rate change and on release, so events scheduled
    /// against an older rate (or a previous occupant) are stale.
    gen: u32,
    alive: bool,
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

impl<'a> Engine<'a> {
    /// Creates an engine over the given cluster.
    pub fn new(cluster: &'a ClusterSpec) -> Self {
        Engine { cluster }
    }

    /// Runs `graph` to completion and returns the trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] if a task references a device not
    /// in the cluster, and [`SimError::Stalled`] if the run cannot make
    /// progress (impossible for graphs built through [`TaskGraph::add`],
    /// which are acyclic by construction).
    pub fn run(&self, graph: &TaskGraph) -> Result<Trace, SimError> {
        self.run_stats(graph).map(|(trace, _)| trace)
    }

    /// Like [`run`](Self::run), additionally returning the engine's
    /// performance counters for this run.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`].
    pub fn run_stats(&self, graph: &TaskGraph) -> Result<(Trace, SimStats), SimError> {
        Run::new(self.cluster, graph, &Disruptions::none())?.execute()
    }

    /// Runs `graph` under the given injected [`Disruptions`].
    ///
    /// Faults do not abort the run: a task on a crashed host (or a flow
    /// whose retries ran out) *fails*, the failure poisons every task
    /// depending on it, and the run completes with the failed set reported
    /// via [`Trace::failed_tasks`]. Retries and dropped flows are counted
    /// in [`Trace::fault_stats`]. The engine stays fully deterministic:
    /// identical graph + disruptions produce identical traces.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`].
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
        Run::new(self.cluster, graph, disruptions)?
            .execute()
            .map(|(trace, _)| trace)
    }
}

struct Run<'a> {
    cluster: &'a ClusterSpec,
    graph: &'a TaskGraph,
    /// Unmet dependency counts.
    pending_deps: Vec<usize>,
    /// Reverse edges in CSR form: task `t`'s dependents are
    /// `dependents[dependents_at[t]..dependents_at[t + 1]]`, in id order.
    dependents_at: Vec<usize>,
    dependents: Vec<TaskId>,
    intervals: Vec<TaskInterval>,
    done: Vec<bool>,
    completed: usize,
    /// Bytes each host sent / received across the network (`None`: none
    /// yet), folded into the trace's [`ResourceUsage`] at the end.
    nic_sent: Vec<Option<f64>>,
    nic_received: Vec<Option<f64>>,

    time: f64,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,

    /// Per-device: queue of ready compute tasks and whether one is running.
    device_queue: Vec<BinaryHeap<Reverse<QueuedCompute>>>,
    device_busy: Vec<bool>,
    /// Devices that may be able to start a queued compute (a task was
    /// queued or the device went idle); only these are visited by
    /// `dispatch_computes` — never the whole device array.
    dispatch_dirty: Vec<u32>,
    dispatch_marked: Vec<bool>,

    /// Flow slot arena; completed slots go on the free list and are
    /// recycled (generation counters survive reuse).
    flows: Vec<FlowSlot>,
    free_slots: Vec<u32>,
    active_flows: usize,
    solver: FairShare,
    rates_dirty: bool,
    /// Scratch: slots whose rate the last resolve changed.
    changed: Vec<u32>,
    /// Scratch: the resources of the flow being activated.
    route: Vec<usize>,

    // --- fault injection state (all neutral for a clean run) ---
    /// Scheduled state changes, indexed by `EventKind::Fault` payloads.
    fault_actions: Vec<FaultAction>,
    /// Which hosts have crashed so far.
    host_dead: Vec<bool>,
    /// The NIC degradation periods on hosts of this cluster, and which of
    /// them are in force.
    nic_periods: Vec<NicScalePeriod>,
    nic_active: Vec<bool>,
    /// The compute task currently executing on each device, if any.
    running_on: Vec<Option<TaskId>>,
    /// Per-device compute slowdown factor (1.0 = nominal).
    compute_scale: Vec<f64>,
    /// Remaining injected transmission drops per flow task.
    drops_left: BTreeMap<u32, u32>,
    /// Re-transmissions already performed per flow task.
    attempts: BTreeMap<u32, u32>,
    retry_backoff: f64,
    max_retries: u32,
    /// Tasks that failed (directly or by poisoned dependency).
    failed: Vec<bool>,
    failed_tasks: Vec<TaskId>,
    fault_stats: FaultStats,
    sim_stats: SimStats,
}

impl<'a> Run<'a> {
    fn new(
        cluster: &'a ClusterSpec,
        graph: &'a TaskGraph,
        disruptions: &Disruptions,
    ) -> Result<Self, SimError> {
        let n = graph.len();
        let mut pending_deps = vec![0usize; n];
        let mut dependents_at = vec![0usize; n + 1];
        for (id, task) in graph.iter() {
            pending_deps[id.0 as usize] = task.deps.len();
            for d in &task.deps {
                dependents_at[d.0 as usize + 1] += 1;
            }
            // Validate devices up front so errors surface before any event.
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
        for t in 0..n {
            dependents_at[t + 1] += dependents_at[t];
        }
        let mut cursor = dependents_at.clone();
        let mut dependents = vec![TaskId(0); dependents_at[n]];
        for (id, task) in graph.iter() {
            for d in &task.deps {
                let c = &mut cursor[d.0 as usize];
                dependents[*c] = id;
                *c += 1;
            }
        }

        let d = cluster.num_devices() as usize;
        let h = cluster.num_hosts() as usize;
        // Resource layout: device send, device recv, host NIC send, host
        // NIC recv, then the fabric slots of the cluster's FabricModel
        // (empty for an unbounded flat fabric).
        let capacities = cluster.resource_capacities();

        let mut compute_scale = vec![1.0f64; d];
        for &(device, factor) in &disruptions.compute_slowdown {
            if cluster.contains(device) {
                compute_scale[device.0 as usize] *= factor;
            }
        }

        let mut run = Run {
            cluster,
            graph,
            pending_deps,
            dependents_at,
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
            nic_sent: vec![None; h],
            nic_received: vec![None; h],
            time: 0.0,
            events: BinaryHeap::new(),
            next_seq: 0,
            device_queue: (0..d).map(|_| BinaryHeap::new()).collect(),
            device_busy: vec![false; d],
            dispatch_dirty: Vec::new(),
            dispatch_marked: vec![false; d],
            flows: Vec::new(),
            free_slots: Vec::new(),
            active_flows: 0,
            solver: FairShare::new(capacities),
            rates_dirty: false,
            changed: Vec::new(),
            route: Vec::new(),
            fault_actions: Vec::new(),
            host_dead: vec![false; h],
            nic_periods: Vec::new(),
            nic_active: Vec::new(),
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
            fault_stats: FaultStats::default(),
            sim_stats: SimStats::default(),
        };

        // Schedule timed fault actions before any task event so that, at
        // equal times, the fault applies first (lower sequence numbers win).
        for &(host, at) in &disruptions.host_down {
            if (host.0 as usize) < run.host_dead.len() {
                let idx = run.fault_actions.len();
                run.fault_actions.push(FaultAction::HostDown(host));
                run.push_event(at, EventKind::Fault(idx));
            }
        }
        for p in &disruptions.nic_scale {
            if (p.host.0 as usize) < run.host_dead.len() {
                let period = run.nic_periods.len();
                run.nic_periods.push(*p);
                run.nic_active.push(false);
                for (at, active) in [(p.from, true), (p.until, false)] {
                    let idx = run.fault_actions.len();
                    run.fault_actions
                        .push(FaultAction::NicPeriod(period, active));
                    run.push_event(at, EventKind::Fault(idx));
                }
            }
        }
        Ok(run)
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
    }

    /// Fails `task` at the current time: it is marked failed (poisoning
    /// every dependent) and completes instantly with a zero-length
    /// interval, so the run still terminates and reports the damage.
    fn fail_task(&mut self, task: TaskId, completions: &mut Vec<TaskId>) {
        self.intervals[task.0 as usize].start = self.time;
        self.failed[task.0 as usize] = true;
        self.failed_tasks.push(task);
        completions.push(task);
    }

    /// Adds an inter-host transfer to the per-host NIC byte totals.
    fn record_nic_bytes(&mut self, src: HostId, dst: HostId, bytes: f64) {
        *self.nic_sent[src.0 as usize].get_or_insert(0.0) += bytes;
        *self.nic_received[dst.0 as usize].get_or_insert(0.0) += bytes;
    }

    /// True if `host` has crashed.
    fn is_dead(&self, host: HostId) -> bool {
        self.host_dead[host.0 as usize]
    }

    /// Marks `task` ready at the current time: markers complete instantly
    /// (cascading), compute tasks enter their device queue, flows enter
    /// their latency phase. Under fault injection, a task whose dependency
    /// failed — or that needs a crashed host — fails instead.
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
                self.mark_dispatch(device.0 as usize);
            }
            Work::Flow { src, dst, bytes } => {
                let src_host = self.cluster.host_of(src);
                let dst_host = self.cluster.host_of(dst);
                let links = self.cluster.host(src_host).links;
                let latency = if src_host == dst_host {
                    links.intra_host_latency
                } else {
                    self.record_nic_bytes(src_host, dst_host, bytes);
                    links.inter_host_latency
                };
                self.push_event(self.time + latency, EventKind::FlowLatencyDone(task));
            }
        }
    }

    /// Moves a flow whose latency elapsed into the active (draining) set.
    fn activate_flow(&mut self, task: TaskId, completions: &mut Vec<TaskId>) {
        let Work::Flow { src, dst, bytes } = self.graph.task(task).work else {
            unreachable!("latency event for a non-flow task");
        };
        // A host crash between readiness and activation kills the flow.
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
        let mut route = std::mem::take(&mut self.route);
        route.clear();
        route.push(src.0 as usize); // device send
        route.push(d + dst.0 as usize); // device recv
        if src_host != dst_host {
            route.push(2 * d + src_host.0 as usize); // host NIC send
            route.push(2 * d + h + dst_host.0 as usize); // host NIC recv
            self.cluster
                .fabric_route(src, dst, 2 * d + 2 * h, &mut route);
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                let gen = self.flows[slot as usize].gen;
                self.flows[slot as usize] = FlowSlot {
                    task,
                    remaining: bytes,
                    rate: 0.0,
                    updated_at: self.time,
                    gen,
                    alive: true,
                };
                slot
            }
            None => {
                let slot = self.flows.len() as u32;
                self.flows.push(FlowSlot {
                    task,
                    remaining: bytes,
                    rate: 0.0,
                    updated_at: self.time,
                    gen: 0,
                    alive: true,
                });
                slot
            }
        };
        self.solver.add_flow(slot, &route);
        self.route = route;
        self.active_flows += 1;
        if self.active_flows > self.sim_stats.peak_active_flows {
            self.sim_stats.peak_active_flows = self.active_flows;
        }
        self.rates_dirty = true;
    }

    /// Removes `slot` from the active set (completion or kill). The slot's
    /// generation bump invalidates any drain event still in the heap.
    fn release_flow(&mut self, slot: u32) {
        let f = &mut self.flows[slot as usize];
        debug_assert!(f.alive, "flow released twice");
        f.alive = false;
        f.gen = f.gen.wrapping_add(1);
        self.solver.remove_flow(slot);
        self.free_slots.push(slot);
        self.active_flows -= 1;
        self.rates_dirty = true;
    }

    /// Re-solves fair shares and reschedules drain events for every flow
    /// whose rate changed, materializing its lazily-drained `remaining`.
    fn apply_rates(&mut self) {
        let mut changed = std::mem::take(&mut self.changed);
        changed.clear();
        self.solver.resolve(&mut changed);
        for &slot in &changed {
            let f = &mut self.flows[slot as usize];
            if !f.alive {
                // The solver can report a slot that was re-rated and then
                // killed within one batch; its event is already stale.
                continue;
            }
            let dt = self.time - f.updated_at;
            if dt > 0.0 && f.rate > 0.0 && f.rate.is_finite() {
                f.remaining -= f.rate * dt;
                if f.remaining < 0.0 {
                    f.remaining = 0.0;
                }
            }
            f.updated_at = self.time;
            f.rate = self.solver.rate(slot);
            f.gen = f.gen.wrapping_add(1);
            if f.rate > 0.0 {
                let due = if f.rate.is_finite() {
                    self.time + f.remaining / f.rate
                } else {
                    self.time
                };
                let gen = f.gen;
                self.push_event(due, EventKind::FlowDrained(slot, gen));
            }
            // rate == 0 (a zeroed NIC): no event; the flow waits for a
            // future rate change, or the run stalls like the old engine.
        }
        self.changed = changed;
    }

    /// The flow in `slot` drained its last byte: release it and either
    /// complete the task or spend an injected drop on a retry.
    fn finish_flow(&mut self, slot: u32, completions: &mut Vec<TaskId>) {
        let task = self.flows[slot as usize].task;
        self.flows[slot as usize].remaining = 0.0;
        self.release_flow(slot);
        if self.drops_left.get(&task.0).copied().unwrap_or(0) > 0 {
            self.handle_dropped_flow(task, completions);
        } else {
            completions.push(task);
        }
    }

    /// Marks `dev` for the next `dispatch_computes` pass.
    fn mark_dispatch(&mut self, dev: usize) {
        if !self.dispatch_marked[dev] {
            self.dispatch_marked[dev] = true;
            self.dispatch_dirty.push(dev as u32);
        }
    }

    /// Starts the next queued compute task on every marked idle device.
    fn dispatch_computes(&mut self) {
        let mut dirty = std::mem::take(&mut self.dispatch_dirty);
        for dev in dirty.drain(..) {
            let dev = dev as usize;
            self.dispatch_marked[dev] = false;
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
                // The task may have been queued earlier than now; it starts
                // executing when the device picks it up.
                self.intervals[q.task.0 as usize].start =
                    self.intervals[q.task.0 as usize].start.max(self.time);
                self.running_on[dev] = Some(q.task);
                self.push_event(self.time + seconds, EventKind::ComputeDone(q.task));
            }
        }
        // Reuse the allocation across passes.
        self.dispatch_dirty = dirty;
    }

    /// Applies a scheduled fault action at the current time.
    fn apply_fault(&mut self, action: FaultAction, completions: &mut Vec<TaskId>) {
        let d = self.cluster.num_devices() as usize;
        let h = self.cluster.num_hosts() as usize;
        match action {
            FaultAction::NicPeriod(period, active) => {
                self.nic_active[period] = active;
                let host = self.nic_periods[period].host;
                // Periods in force on one host compound, in `nic_scale`
                // order; with none left the NIC is back at full capacity.
                let scale = self
                    .nic_periods
                    .iter()
                    .zip(&self.nic_active)
                    .filter(|&(p, &on)| on && p.host == host)
                    .fold(1.0, |scale, (p, _)| scale * p.factor);
                let base = self.cluster.host(host).links.inter_host_bw
                    * self.cluster.host_nic_multiplier();
                self.solver
                    .set_capacity(2 * d + host.0 as usize, base * scale);
                self.solver
                    .set_capacity(2 * d + h + host.0 as usize, base * scale);
                self.rates_dirty = true;
            }
            FaultAction::HostDown(host) => {
                if self.host_dead[host.0 as usize] {
                    return;
                }
                self.host_dead[host.0 as usize] = true;
                // Kill active flows touching the host.
                for slot in 0..self.flows.len() as u32 {
                    if !self.flows[slot as usize].alive {
                        continue;
                    }
                    let task = self.flows[slot as usize].task;
                    let fails = match self.graph.task(task).work {
                        Work::Flow { src, dst, .. } => {
                            self.cluster.host_of(src) == host || self.cluster.host_of(dst) == host
                        }
                        _ => false,
                    };
                    if fails {
                        self.release_flow(slot);
                        self.fail_task(task, completions);
                    }
                }
                // Kill running and queued computes on the host's devices.
                let devices: Vec<DeviceId> = self.cluster.devices_on(host).collect();
                for dev in devices {
                    let dev = dev.0 as usize;
                    if let Some(task) = self.running_on[dev].take() {
                        self.fail_task(task, completions);
                    }
                    // Leave the device marked busy so nothing dispatches.
                    self.device_busy[dev] = true;
                    while let Some(Reverse(q)) = self.device_queue[dev].pop() {
                        self.fail_task(q.task, completions);
                    }
                }
            }
        }
    }

    fn complete(&mut self, task: TaskId, newly_ready: &mut Vec<TaskId>) {
        debug_assert!(!self.done[task.0 as usize], "task completed twice");
        self.done[task.0 as usize] = true;
        self.completed += 1;
        self.intervals[task.0 as usize].finish = self.time;
        let t = task.0 as usize;
        for i in self.dependents_at[t]..self.dependents_at[t + 1] {
            let dep = self.dependents[i];
            let c = &mut self.pending_deps[dep.0 as usize];
            *c -= 1;
            if *c == 0 {
                newly_ready.push(dep);
            }
        }
    }

    fn execute(mut self) -> Result<(Trace, SimStats), SimError> {
        // Seed: tasks with no dependencies are ready at t=0.
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

        let mut ready: Vec<TaskId> = Vec::new();
        loop {
            // Drain the completion cascade (markers and zero-byte flows
            // complete instantly and may unlock more instant tasks).
            while let Some(task) = completions.pop() {
                self.complete(task, &mut ready);
                for r in ready.drain(..) {
                    self.make_ready(r, &mut completions);
                }
            }
            self.dispatch_computes();
            if self.rates_dirty {
                self.rates_dirty = false;
                self.apply_rates();
            }

            if self.completed == self.graph.len() {
                break;
            }

            // Next event time: the heap is the single source of truth —
            // flow completions are FlowDrained entries, not a scan.
            let Some(&Reverse(head)) = self.events.peek() else {
                return Err(SimError::Stalled {
                    remaining: self.graph.len() - self.completed,
                });
            };
            let next = head.time;
            let eps = REL_EPS * next.max(1e-12);
            self.time = next;

            // Pop the batch of (near-)simultaneous events.
            while let Some(Reverse(e)) = self.events.peek().copied() {
                if e.time > self.time + eps {
                    break;
                }
                self.events.pop();
                match e.kind {
                    EventKind::ComputeDone(task) => {
                        // Skip tasks already failed by a host crash.
                        if self.done[task.0 as usize] {
                            continue;
                        }
                        self.sim_stats.events_processed += 1;
                        let device = self
                            .graph
                            .task(task)
                            .work
                            .compute_device()
                            .expect("compute event for non-compute task");
                        self.device_busy[device.0 as usize] = false;
                        self.running_on[device.0 as usize] = None;
                        self.mark_dispatch(device.0 as usize);
                        completions.push(task);
                    }
                    EventKind::FlowLatencyDone(task) => {
                        self.sim_stats.events_processed += 1;
                        self.activate_flow(task, &mut completions);
                    }
                    EventKind::FlowDrained(slot, gen) => {
                        let f = &self.flows[slot as usize];
                        if !f.alive || f.gen != gen {
                            self.sim_stats.events_stale += 1;
                            continue;
                        }
                        self.sim_stats.events_processed += 1;
                        self.finish_flow(slot, &mut completions);
                    }
                    EventKind::Fault(idx) => {
                        self.sim_stats.events_processed += 1;
                        let action = self.fault_actions[idx];
                        self.apply_fault(action, &mut completions);
                    }
                }
            }
        }

        self.sim_stats.rate_recomputes = self.solver.stats.recomputes;
        self.sim_stats.flows_resolved = self.solver.stats.flows_resolved;
        self.sim_stats.frontier_size = self.solver.stats.frontier_peak;
        stats::record(&self.sim_stats);

        self.failed_tasks.sort_unstable();
        self.failed_tasks.dedup();
        Ok((
            Trace::faulted(
                self.intervals,
                ResourceUsage::from_per_host(&self.nic_sent, &self.nic_received),
                self.fault_stats,
                self.failed_tasks,
            ),
            self.sim_stats,
        ))
    }

    /// The transmission that just drained was an injected drop: retry with
    /// exponential backoff, or fail the flow once the budget is spent.
    fn handle_dropped_flow(&mut self, task: TaskId, completions: &mut Vec<TaskId>) {
        let attempts = self.attempts.get(&task.0).copied().unwrap_or(0);
        if attempts >= self.max_retries {
            self.drops_left.remove(&task.0);
            self.fault_stats.dropped_flows += 1;
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
        self.fault_stats.retries += 1;
        // The re-transmission re-sends every byte across the NICs.
        if let Work::Flow { src, dst, bytes } = self.graph.task(task).work {
            let src_host = self.cluster.host_of(src);
            let dst_host = self.cluster.host_of(dst);
            if src_host != dst_host {
                self.record_nic_bytes(src_host, dst_host, bytes);
            }
        }
        let backoff = self.retry_backoff * f64::powi(2.0, attempts as i32);
        self.push_event(self.time + backoff, EventKind::FlowLatencyDone(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{HostSpec, LinkParams};

    /// Link parameters with zero latency for exact arithmetic in tests.
    fn exact_links(intra: f64, inter: f64) -> LinkParams {
        LinkParams::new(intra, inter).with_latencies(0.0, 0.0)
    }

    fn two_hosts() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 2, exact_links(10.0, 1.0))
    }

    #[test]
    fn single_flow_uses_full_bandwidth() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 5.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn intra_host_flow_uses_fast_link() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(0, 1), 5.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_nic_fairly() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        // Both flows leave host 0: they share its NIC send capacity (1 B/s).
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        g.add(Work::flow(c.device(0, 1), c.device(1, 1), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 4.0).abs() < 1e-9, "got {}", t.makespan());
    }

    #[test]
    fn disjoint_host_pairs_do_not_interfere() {
        let c = ClusterSpec::homogeneous(4, 1, exact_links(10.0, 1.0));
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 3.0), []);
        g.add(Work::flow(c.device(2, 0), c.device(3, 0), 3.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn full_duplex_send_and_receive_concurrently() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
        g.add(Work::flow(c.device(1, 1), c.device(0, 1), 4.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        // Opposite directions: both at full rate.
        assert!((t.makespan() - 4.0).abs() < 1e-9, "got {}", t.makespan());
    }

    #[test]
    fn max_min_fairness_releases_bandwidth() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        // Flow A: 2 bytes, flow B: 6 bytes, same NIC. Shared at 0.5 B/s
        // until A finishes at t=4 (B has 4 left), then B runs at 1 B/s and
        // finishes at t=8.
        let a = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        let b = g.add(Work::flow(c.device(0, 1), c.device(1, 1), 6.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(a).finish - 4.0).abs() < 1e-9);
        assert!((t.interval(b).finish - 8.0).abs() < 1e-9);
    }

    #[test]
    fn receiver_nic_is_a_bottleneck_too() {
        let c = ClusterSpec::homogeneous(3, 1, exact_links(10.0, 1.0));
        let mut g = TaskGraph::new();
        // Two different senders into the same receiving host: its NIC recv
        // capacity (1 B/s) is shared.
        g.add(Work::flow(c.device(0, 0), c.device(2, 0), 2.0), []);
        g.add(Work::flow(c.device(1, 0), c.device(2, 0), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 4.0).abs() < 1e-9, "got {}", t.makespan());
    }

    #[test]
    fn compute_tasks_serialize_on_a_device() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let d = c.device(0, 0);
        g.add(Work::compute(d, 1.0), []);
        g.add(Work::compute(d, 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn compute_tasks_parallel_on_distinct_devices() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::compute(c.device(0, 0), 2.0), []);
        g.add(Work::compute(c.device(0, 1), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flops_convert_via_device_rate() {
        let c = two_hosts().with_device_flops(4.0);
        let mut g = TaskGraph::new();
        g.add(Work::compute_flops(c.device(0, 0), 8.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_are_honored() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let a = g.add(Work::compute(c.device(0, 0), 1.0), []);
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 1.0), [a]);
        let b = g.add(Work::compute(c.device(1, 0), 1.0), [f]);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(a).finish - 1.0).abs() < 1e-9);
        assert!((t.interval(f).start - 1.0).abs() < 1e-9);
        assert!((t.interval(f).finish - 2.0).abs() < 1e-9);
        assert!((t.interval(b).finish - 3.0).abs() < 1e-9);
        assert!((t.makespan() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_of_compute_and_flow() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        // A flow and an unrelated compute proceed concurrently.
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 3.0), []);
        g.add(Work::compute(c.device(0, 0), 3.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn markers_are_instant() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let a = g.add(Work::compute(c.device(0, 0), 1.5), []);
        let m = g.add(Work::Marker, [a]);
        let b = g.add(Work::compute(c.device(0, 1), 1.0), [m]);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(m).finish - 1.5).abs() < 1e-9);
        assert!((t.interval(b).finish - 2.5).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_costs_only_latency() {
        let c = ClusterSpec::homogeneous(2, 1, LinkParams::new(10.0, 1.0).with_latencies(0.0, 0.5));
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 0.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn latency_adds_to_transfer_time() {
        let c =
            ClusterSpec::homogeneous(2, 1, LinkParams::new(10.0, 1.0).with_latencies(0.0, 0.25));
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 1.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn unknown_device_is_reported() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::compute(DeviceId(99), 1.0), []);
        let err = Engine::new(&c).run(&g).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownDevice {
                task: TaskId(0),
                device: DeviceId(99)
            }
        );
    }

    #[test]
    fn empty_graph_has_zero_makespan() {
        let c = two_hosts();
        let t = Engine::new(&c).run(&TaskGraph::new()).unwrap();
        assert_eq!(t.makespan(), 0.0);
    }

    #[test]
    fn usage_tracks_cross_host_bytes_only() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 7.0), []);
        g.add(Work::flow(c.device(0, 0), c.device(0, 1), 100.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert_eq!(t.usage().total_cross_host_bytes(), 7.0);
        assert_eq!(t.usage().sent_by(crate::HostId(0)), 7.0);
        assert_eq!(t.usage().received_by(crate::HostId(1)), 7.0);
    }

    #[test]
    fn chain_of_chunked_flows_pipelines() {
        // A 3-device line across 3 hosts, message split in K chunks:
        // classic store-and-forward pipelining. Total bytes 8, K = 4 chunks
        // of 2 bytes; NIC 1 B/s. Expected: first chunk arrives at hop 2 at
        // t=4, last chunk finishes at t = 8 + 2 = 10 (= t + t/K * A with
        // t=8, A=1 extra hop).
        let c = ClusterSpec::homogeneous(3, 1, exact_links(100.0, 1.0));
        let mut g = TaskGraph::new();
        let (d0, d1, d2) = (c.device(0, 0), c.device(1, 0), c.device(2, 0));
        let k = 4;
        let chunk = 2.0;
        let mut prev_hop1: Option<TaskId> = None;
        let mut prev_hop2: Option<TaskId> = None;
        for _ in 0..k {
            let h1 = g.add(Work::flow(d0, d1, chunk), prev_hop1.iter().copied());
            let deps: Vec<TaskId> = [Some(h1), prev_hop2].into_iter().flatten().collect();
            let h2 = g.add(Work::flow(d1, d2, chunk), deps);
            prev_hop1 = Some(h1);
            prev_hop2 = Some(h2);
        }
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 10.0).abs() < 1e-6, "got {}", t.makespan());
    }

    #[test]
    fn heterogeneous_nic_speeds_are_respected() {
        // Host 1 has a 4x faster NIC than host 2; identical flows out of
        // host 0 finish 4x apart (each constrained by its receiver NIC
        // after the shared sender NIC frees up)... simpler: two senders.
        let links_fast = LinkParams::new(100.0, 4.0).with_latencies(0.0, 0.0);
        let links_slow = LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0);
        let c = ClusterSpec::new(vec![
            HostSpec {
                devices: 1,
                links: links_fast,
                device_flops: 1e12,
            },
            HostSpec {
                devices: 1,
                links: links_slow,
                device_flops: 1e12,
            },
            HostSpec {
                devices: 1,
                links: links_fast,
                device_flops: 1e12,
            },
        ]);
        let mut g = TaskGraph::new();
        // Fast host 0 -> fast host 2: 4 B/s. Slow host 1 -> fast host 2:
        // 1 B/s (its own NIC limits).
        let fast = g.add(Work::flow(c.device(0, 0), c.device(2, 0), 8.0), []);
        let slow = g.add(Work::flow(c.device(1, 0), c.device(2, 0), 8.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        // Receiver NIC is 4 B/s total: max–min gives the slow flow its
        // full 1 B/s and the fast flow the other 3 B/s (not a uniform
        // 2 B/s split), so the fast flow finishes at 8/3 s.
        assert!(
            (t.interval(slow).finish - 8.0).abs() < 1e-9,
            "slow NIC limits"
        );
        assert!(
            (t.interval(fast).finish - 8.0 / 3.0).abs() < 1e-9,
            "fast flow gets the slow one's unused share: {:?}",
            t.interval(fast)
        );
    }

    #[test]
    fn fabric_capacity_caps_aggregate_traffic() {
        // Two flows on disjoint host pairs (1 B/s NICs): full bisection
        // finishes in 3 s; a 1.5 B/s oversubscribed core shares 0.75 B/s
        // each, finishing in 4 s.
        let full = ClusterSpec::homogeneous(4, 1, exact_links(10.0, 1.0));
        let capped = full.clone().with_fabric_capacity(1.5);
        let mut g = TaskGraph::new();
        g.add(Work::flow(full.device(0, 0), full.device(1, 0), 3.0), []);
        g.add(Work::flow(full.device(2, 0), full.device(3, 0), 3.0), []);
        let t_full = Engine::new(&full).run(&g).unwrap();
        let t_capped = Engine::new(&capped).run(&g).unwrap();
        assert!((t_full.makespan() - 3.0).abs() < 1e-9);
        assert!(
            (t_capped.makespan() - 4.0).abs() < 1e-9,
            "got {}",
            t_capped.makespan()
        );
    }

    #[test]
    fn fabric_capacity_ignores_intra_host_flows() {
        let c = ClusterSpec::homogeneous(1, 2, exact_links(10.0, 1.0)).with_fabric_capacity(0.5);
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(0, 1), 5.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 0.5).abs() < 1e-9, "NVLink unaffected");
    }

    #[test]
    fn rail_fabric_gives_each_rail_its_own_nic() {
        // 2 hosts × 2 devices, 2 rails at 1 B/s each. Two same-rail flows
        // on different rails run concurrently at full NIC speed — on the
        // flat fabric they'd share the single 1 B/s host NIC.
        let flat = ClusterSpec::homogeneous(2, 2, exact_links(10.0, 1.0));
        let rails = flat.clone().with_fabric(crate::FabricModel::RailOptimized {
            rails: 2,
            spine_capacity: 1.0,
        });
        let mut g = TaskGraph::new();
        g.add(Work::flow(flat.device(0, 0), flat.device(1, 0), 4.0), []);
        g.add(Work::flow(flat.device(0, 1), flat.device(1, 1), 4.0), []);
        let t_flat = Engine::new(&flat).run(&g).unwrap();
        let t_rails = Engine::new(&rails).run(&g).unwrap();
        assert!(
            (t_flat.makespan() - 8.0).abs() < 1e-9,
            "{}",
            t_flat.makespan()
        );
        assert!(
            (t_rails.makespan() - 4.0).abs() < 1e-9,
            "{}",
            t_rails.makespan()
        );
    }

    #[test]
    fn rail_fabric_charges_cross_rail_flows_on_the_spine() {
        // A cross-rail flow (local 0 -> local 1) shares the 0.5 B/s spine.
        let c = ClusterSpec::homogeneous(2, 2, exact_links(10.0, 1.0)).with_fabric(
            crate::FabricModel::RailOptimized {
                rails: 2,
                spine_capacity: 0.5,
            },
        );
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 1), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 4.0).abs() < 1e-9, "{}", t.makespan());
    }

    #[test]
    fn fat_tree_oversubscription_throttles_cross_pod_flows_only() {
        // 4 hosts in pods of 2, 1 B/s NICs, oversub 4 -> each pod uplink is
        // 2/4 = 0.5 B/s. Intra-pod flow: full NIC. Cross-pod flow: 0.5 B/s.
        let c = ClusterSpec::homogeneous(4, 1, exact_links(10.0, 1.0)).with_fabric(
            crate::FabricModel::FatTree {
                pod_hosts: 2,
                oversubscription: 4.0,
            },
        );
        let mut g = TaskGraph::new();
        let intra = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(intra).finish - 2.0).abs() < 1e-9);
        let mut g = TaskGraph::new();
        let cross = g.add(Work::flow(c.device(0, 0), c.device(2, 0), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(cross).finish - 4.0).abs() < 1e-9);
    }

    #[test]
    fn torus_transit_traffic_congests_shared_edges() {
        // 1×4 torus ring, 1 B/s links. h0->h2 routes east over h0's and
        // h1's east edges (2 hops each way tie -> east); h1->h2 shares h1's
        // east edge, so both flows halve on it.
        let c = ClusterSpec::homogeneous(4, 1, exact_links(10.0, 1.0)).with_fabric(
            crate::FabricModel::Torus2D {
                rows: 1,
                cols: 4,
                link_capacity: 1.0,
            },
        );
        let mut g = TaskGraph::new();
        let far = g.add(Work::flow(c.device(0, 0), c.device(2, 0), 2.0), []);
        let near = g.add(Work::flow(c.device(1, 0), c.device(2, 0), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        // Both charge h1's east edge: 0.5 B/s each -> 4 s.
        assert!((t.interval(far).finish - 4.0).abs() < 1e-9);
        assert!((t.interval(near).finish - 4.0).abs() < 1e-9);
        // Alone, the far flow still runs at 1 B/s despite two hops.
        let mut g = TaskGraph::new();
        let solo = g.add(Work::flow(c.device(0, 0), c.device(2, 0), 2.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(solo).finish - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        for i in 0..8 {
            let src = c.device(0, i % 2);
            let dst = c.device(1, (i + 1) % 2);
            g.add(Work::flow(src, dst, 1.0 + i as f64), []);
        }
        let t1 = Engine::new(&c).run(&g).unwrap();
        let t2 = Engine::new(&c).run(&g).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn clean_run_has_clean_fault_stats() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 5.0), []);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!(t.fault_stats().is_clean());
        assert!(t.failed_tasks().is_empty());
    }

    #[test]
    fn nic_degradation_slows_a_flow_mid_transfer() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        // 8 bytes at 1 B/s; the NIC runs at 25% during [2, 6]: 2 bytes by
        // t=2, 1 byte over [2, 6], remaining 5 bytes after recovery → 11 s.
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 8.0), []);
        let mut d = Disruptions::none();
        d.nic_scale.push(crate::NicScalePeriod {
            host: crate::HostId(0),
            factor: 0.25,
            from: 2.0,
            until: 6.0,
        });
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert!((t.makespan() - 11.0).abs() < 1e-9, "got {}", t.makespan());
        assert!(t.failed_tasks().is_empty());
    }

    #[test]
    fn overlapping_nic_degradations_compound() {
        // 4 bytes at 1 B/s out of host 0. [0, 10] × 0.5 alone: 8 s. With
        // [1, 2] × 0.5 on top the NIC runs at 0.25 over [1, 2]: 0.5 byte by
        // t=1, 0.25 over [1, 2], the last 3.25 at 0.5 B/s → 8.5 s. Were the
        // NIC restored when the short period ends, it would read 5 s:
        // faster than with the long period alone.
        let c = ClusterSpec::homogeneous(2, 1, exact_links(10.0, 1.0));
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
        let period = |factor, from, until| crate::NicScalePeriod {
            host: crate::HostId(0),
            factor,
            from,
            until,
        };
        let mut d = Disruptions::none();
        d.nic_scale.push(period(0.5, 0.0, 10.0));
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert!((t.makespan() - 8.0).abs() < 1e-9, "got {}", t.makespan());
        d.nic_scale.push(period(0.5, 1.0, 2.0));
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert!((t.makespan() - 8.5).abs() < 1e-9, "got {}", t.makespan());
    }

    #[test]
    fn straggler_slows_compute_on_one_device() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let slow = g.add(Work::compute(c.device(0, 0), 1.0), []);
        let fast = g.add(Work::compute(c.device(0, 1), 1.0), []);
        let mut d = Disruptions::none();
        d.compute_slowdown.push((c.device(0, 0), 3.0));
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert!((t.interval(slow).finish - 3.0).abs() < 1e-9);
        assert!((t.interval(fast).finish - 1.0).abs() < 1e-9);
    }

    #[test]
    fn host_crash_fails_tasks_and_poisons_dependents() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        // A long flow out of host 0, a dependent compute on host 1, and an
        // unrelated compute on host 1 that must survive.
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 10.0), []);
        let dep = g.add(Work::compute(c.device(1, 0), 1.0), [f]);
        let ok = g.add(Work::compute(c.device(1, 1), 2.0), []);
        let mut d = Disruptions::none();
        d.host_down.push((crate::HostId(0), 3.0));
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert_eq!(t.failed_tasks(), &[f, dep]);
        assert!((t.interval(f).finish - 3.0).abs() < 1e-9, "dies at crash");
        assert!((t.interval(ok).finish - 2.0).abs() < 1e-9, "survivor runs");
    }

    #[test]
    fn host_crash_kills_running_compute() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let doomed = g.add(Work::compute(c.device(0, 0), 5.0), []);
        let mut d = Disruptions::none();
        d.host_down.push((crate::HostId(0), 1.0));
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert_eq!(t.failed_tasks(), &[doomed]);
        assert!((t.interval(doomed).finish - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tasks_arriving_after_a_crash_fail_immediately() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let a = g.add(Work::compute(c.device(1, 0), 2.0), []);
        let late = g.add(Work::compute(c.device(0, 0), 1.0), [a]);
        let mut d = Disruptions::none();
        d.host_down.push((crate::HostId(0), 1.0));
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert_eq!(t.failed_tasks(), &[late]);
        assert!((t.interval(late).start - 2.0).abs() < 1e-9);
        assert!((t.interval(late).finish - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flow_drops_retry_with_backoff() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        // 2 bytes at 1 B/s, dropped twice: transfers at [0,2], [2+b,4+b],
        // [4+3b, 6+3b] with b = 1 s backoff doubling per attempt.
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        let mut d = Disruptions::none();
        d.flow_drops.insert(f.0, 2);
        d.retry_backoff = 1.0;
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert!((t.makespan() - 9.0).abs() < 1e-9, "got {}", t.makespan());
        assert_eq!(t.fault_stats().retries, 2);
        assert!(t.failed_tasks().is_empty());
        // Every transmission re-sends the bytes across the NIC.
        assert_eq!(t.usage().total_cross_host_bytes(), 6.0);
    }

    #[test]
    fn drops_beyond_the_retry_budget_fail_the_flow() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        let dep = g.add(Work::compute(c.device(1, 0), 1.0), [f]);
        let mut d = Disruptions::none();
        d.flow_drops.insert(f.0, 5);
        d.max_retries = 2;
        d.retry_backoff = 0.5;
        let t = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert_eq!(t.failed_tasks(), &[f, dep]);
        assert_eq!(t.fault_stats().retries, 2);
        assert_eq!(t.fault_stats().dropped_flows, 1);
    }

    #[test]
    fn disrupted_runs_are_deterministic() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let mut prev = None;
        for i in 0..8 {
            let src = c.device(0, i % 2);
            let dst = c.device(1, (i + 1) % 2);
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(g.add(Work::flow(src, dst, 1.0 + i as f64), deps));
        }
        let mut d = Disruptions::none();
        d.nic_scale.push(crate::NicScalePeriod {
            host: crate::HostId(0),
            factor: 0.5,
            from: 1.0,
            until: 4.0,
        });
        d.flow_drops.insert(2, 1);
        d.host_down.push((crate::HostId(1), 20.0));
        let t1 = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        let t2 = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn empty_disruptions_match_a_plain_run() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 3.0), []);
        g.add(Work::compute(c.device(0, 0), 1.0), []);
        let plain = Engine::new(&c).run(&g).unwrap();
        let faulted = Engine::new(&c)
            .run_with_disruptions(&g, &Disruptions::none())
            .unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    #[should_panic(expected = "invalid disruptions")]
    fn invalid_disruptions_panic() {
        let c = two_hosts();
        let g = TaskGraph::new();
        let mut d = Disruptions::none();
        d.host_down.push((crate::HostId(0), f64::NAN));
        let _ = Engine::new(&c).run_with_disruptions(&g, &d);
    }

    // --- stats tests (new with the incremental engine) ---

    #[test]
    fn run_stats_counts_events_and_recomputes() {
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let a = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 2.0), []);
        g.add(Work::flow(c.device(0, 1), c.device(1, 1), 6.0), [a]);
        g.add(Work::compute(c.device(0, 0), 1.0), []);
        let (t, s) = Engine::new(&c).run_stats(&g).unwrap();
        assert!(t.makespan() > 0.0);
        // 2 latency events + 2 drains + 1 compute.
        assert_eq!(s.events_processed, 5);
        assert!(s.rate_recomputes >= 2, "{s:?}");
        assert!(s.flows_resolved >= 2);
        assert_eq!(s.peak_active_flows, 1, "flows are sequential here");
        assert!(s.frontier_size >= 1);
        // Cumulative process-wide counters absorbed this run.
        let total = crate::stats::cumulative();
        assert!(total.events_processed >= s.events_processed);
    }

    #[test]
    fn stale_drain_events_are_discarded_not_processed() {
        // Flow B starts alone at 1 B/s (drain predicted at t=4); at t=1 a
        // compute finishes and unlocks flow A on the same NIC, halving B's
        // rate. B's superseded t=4 event pops before its real t=7 finish
        // and must be discarded as stale, not processed.
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let b = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
        let w = g.add(Work::compute(c.device(0, 1), 1.0), []);
        let a = g.add(Work::flow(c.device(0, 1), c.device(1, 1), 4.0), [w]);
        let (t, s) = Engine::new(&c).run_stats(&g).unwrap();
        assert!((t.interval(b).finish - 7.0).abs() < 1e-9, "{t:?}");
        // A: 2 bytes by t=5 at 0.5 B/s... it speeds back up to 1 B/s when
        // B ends at t=7 (3 bytes drained), finishing its last byte at t=8.
        assert!((t.interval(a).finish - 8.0).abs() < 1e-9, "{t:?}");
        assert!(s.events_stale >= 1, "{s:?}");
        assert_eq!(s.peak_active_flows, 2);
    }

    #[test]
    fn recycled_flow_slots_do_not_resurrect_old_events() {
        // Many short sequential flows force slot reuse; generations must
        // keep a recycled slot's stale events from completing the new
        // occupant early.
        let c = two_hosts();
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for i in 0..16 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(g.add(
                Work::flow(c.device(0, i % 2), c.device(1, i % 2), 1.0),
                deps,
            ));
        }
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.makespan() - 16.0).abs() < 1e-9, "got {}", t.makespan());
    }
}
