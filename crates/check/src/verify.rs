//! Plan and schedule verifier: proves static invariants of a resharding
//! plan (coverage, byte conservation, sender legality, ring
//! well-formedness, topology sanity) and of a pipeline schedule (operation
//! shape, ordering, cross-stage deadlock freedom) without executing
//! anything.
//!
//! The plan entry, [`Assignment`], is defined here and re-exported as
//! `crossmesh_core::Assignment`, so the verifier reads the planner's own
//! entries. It carries no validity promise: `core::Plan::new` panics on
//! malformed input, which is the right contract for planner output, while
//! the CLI `check` subcommand feeds a list deserialized from a file
//! straight into [`verify_plan`].

use crate::{record_run, Diagnostic, Rule, TileDiff};
use crossmesh_collectives::Strategy;
use crossmesh_mesh::UnitTask;
use crossmesh_netsim::{ClusterSpec, DeviceId, HostId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One scheduled unit task: which replica sends unit `unit`, and with
/// what strategy. Nothing here promises the entry is valid; that is what
/// [`verify_plan`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Assignment {
    /// Index of the unit task this entry schedules.
    pub unit: usize,
    /// The chosen sender device (one of the unit task's replicas).
    pub sender: DeviceId,
    /// Host owning `sender`.
    pub sender_host: HostId,
    /// Communication strategy the unit is lowered with.
    pub strategy: Strategy,
}

/// Verifies a plan against its task: every rule in the `plan.*` catalogue.
///
/// * `units`, `shape`, `elem_bytes` describe the resharding task;
/// * `assignments` is the plan, in schedule order;
/// * `cluster`, when given, enables the `plan.capacity.*` topology rules;
/// * `excluded` is the sender-exclusion predicate (crashed hosts / failed
///   devices); pass `|_, _| false` when nothing is excluded.
///
/// Returns every finding, order-deterministic: coverage rules first (by
/// unit index), then per-assignment rules in plan order. An empty vector
/// means the plan is safe to lower and execute.
pub fn verify_plan(
    units: &[UnitTask],
    shape: &[u64],
    elem_bytes: u64,
    assignments: &[Assignment],
    cluster: Option<&ClusterSpec>,
    excluded: &dyn Fn(DeviceId, HostId) -> bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Coverage: each unit scheduled exactly once.
    let mut times_assigned = vec![0usize; units.len()];
    for (pos, a) in assignments.iter().enumerate() {
        match times_assigned.get_mut(a.unit) {
            Some(n) => *n += 1,
            None => diags.push(Diagnostic::error(
                Rule::CoverageUnknownUnit,
                format!("assignment {pos}"),
                format!(
                    "references unit {} but the task has only {} units",
                    a.unit,
                    units.len()
                ),
            )),
        }
    }
    for (u, &n) in times_assigned.iter().enumerate() {
        if n == 0 {
            diags.push(Diagnostic::error(
                Rule::CoverageMissing,
                format!("unit {u}"),
                format!(
                    "never scheduled: slice {} would not reach its {} receiver(s)",
                    units[u].slice,
                    units[u].receivers.len()
                ),
            ));
        } else if n > 1 {
            diags.push(Diagnostic::error(
                Rule::CoverageDuplicate,
                format!("unit {u}"),
                format!("scheduled {n} times: its destination tiles would be written {n} times"),
            ));
        }
    }

    // Byte conservation per unit, and destination write-once across units.
    // Only units actually scheduled contribute destination writes; a unit
    // scheduled twice is already reported above, so the overlap scan uses
    // each unit at most once.
    for (u, unit) in units.iter().enumerate() {
        let expect = unit.slice.volume() * elem_bytes;
        if unit.bytes != expect {
            diags.push(Diagnostic::error(
                Rule::CoverageBytes,
                format!("unit {u}"),
                format!(
                    "claims {} bytes but slice {} holds {} elements x {} bytes = {}",
                    unit.bytes,
                    unit.slice,
                    unit.slice.volume(),
                    elem_bytes,
                    expect
                ),
            ));
        }
    }
    diags.extend(destination_overlaps(units, shape, &times_assigned));

    // Per-assignment rules, in plan order.
    for (pos, a) in assignments.iter().enumerate() {
        let Some(unit) = units.get(a.unit) else {
            continue; // reported as CoverageUnknownUnit above
        };
        let loc = format!("assignment {pos} (unit {})", a.unit);
        if !unit.senders.contains(&(a.sender, a.sender_host)) {
            diags.push(Diagnostic::error(
                Rule::SenderNotReplica,
                loc.clone(),
                format!(
                    "sender {} on {} does not hold a replica of slice {}",
                    a.sender, a.sender_host, unit.slice
                ),
            ));
        }
        if excluded(a.sender, a.sender_host) {
            diags.push(Diagnostic::error(
                Rule::SenderExcluded,
                loc.clone(),
                format!(
                    "sender {} on {} is excluded (crashed host or failed device)",
                    a.sender, a.sender_host
                ),
            ));
        }
        if let Some(ring) = ring_spec(unit, a) {
            let declared = match a.strategy {
                Strategy::Broadcast { chunks } => chunks,
                _ => ring.chunks,
            };
            diags.extend(verify_ring(unit, a.unit, &ring, a.sender_host, declared));
        }
        if let Some(c) = cluster {
            diags.extend(capacity_rules(unit, a, pos, c));
        }
    }
    if let Some(c) = cluster {
        diags.extend(bandwidth_rules(c));
        if c.fabric().is_unbounded() {
            diags.push(Diagnostic::warning(
                Rule::CapacityUnbounded,
                "cluster fabric".to_string(),
                format!(
                    "fabric {} has unbounded bisection capacity: fabric-contention checks are vacuously true (set an explicit FabricModel to bound them)",
                    c.fabric()
                ),
            ));
        }
    }

    record_run("check.verify", &diags);
    diags
}

/// One expected all-to-all delivery: `bytes` of one expert shard from
/// `src_device` to `dst_device`. The expected pair set is the routing
/// matrix of an MoE dispatch/combine; [`verify_a2a`] proves a plan
/// realizes it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct A2aPairView {
    /// The device the shard originates on.
    pub src_device: DeviceId,
    /// Host owning `src_device`.
    pub src_host: HostId,
    /// The expert device the shard must land on.
    pub dst_device: DeviceId,
    /// Host owning `dst_device`.
    pub dst_host: HostId,
    /// Shard size in bytes.
    pub bytes: u64,
}

/// Verifies an all-to-all plan against its expected pair set (the
/// `plan.a2a.*` rules):
///
/// * every expected (src → dst) shard is delivered by exactly one
///   scheduled unit task, with exactly its expected bytes;
/// * no delivery happens outside the expected pair set;
/// * when `cluster` models a rail-optimized fabric, every
///   [`Strategy::MultiRail`] assignment's greedy spray keeps each
///   *physical* rail within its fair share plus one chunk (declaring more
///   logical rails than the fabric has folds several logical rails onto
///   one NIC and fires this rule).
///
/// Run [`verify_plan`] first for the generic coverage/sender rules; this
/// pass adds only the all-to-all-specific findings.
pub fn verify_a2a(
    pairs: &[A2aPairView],
    units: &[UnitTask],
    assignments: &[Assignment],
    cluster: Option<&ClusterSpec>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Deliveries the plan performs: (src, dst) -> (times, bytes).
    let mut delivered: BTreeMap<(DeviceId, DeviceId), (usize, u64)> = BTreeMap::new();
    for a in assignments {
        let Some(unit) = units.get(a.unit) else {
            continue; // verify_plan reports the unknown unit
        };
        for r in &unit.receivers {
            let e = delivered.entry((a.sender, r.device)).or_insert((0, 0));
            e.0 += 1;
            e.1 += unit.bytes;
        }
    }

    let mut expected: BTreeMap<(DeviceId, DeviceId), u64> = BTreeMap::new();
    for p in pairs {
        *expected.entry((p.src_device, p.dst_device)).or_insert(0) += p.bytes;
    }

    for (&(src, dst), &want) in &expected {
        match delivered.get(&(src, dst)) {
            None => diags.push(Diagnostic::error(
                Rule::A2aMissingPair,
                format!("pair {src}->{dst}"),
                format!("expert shard of {want} bytes is never delivered"),
            )),
            Some(&(times, got)) => {
                if times > 1 {
                    diags.push(Diagnostic::error(
                        Rule::A2aDuplicatePair,
                        format!("pair {src}->{dst}"),
                        format!("shard delivered by {times} unit tasks: destination would be written {times} times"),
                    ));
                }
                if got != want {
                    diags.push(Diagnostic::error(
                        Rule::A2aBytes,
                        format!("pair {src}->{dst}"),
                        format!("delivers {got} bytes but the routing expects {want}"),
                    ));
                }
            }
        }
    }
    for (&(src, dst), &(_, got)) in &delivered {
        if !expected.contains_key(&(src, dst)) {
            diags.push(Diagnostic::error(
                Rule::A2aDuplicatePair,
                format!("pair {src}->{dst}"),
                format!("delivers {got} bytes for a pair the routing never produced"),
            ));
        }
    }

    // Rail capacity: fold each multi-rail spray's logical rails onto the
    // fabric's physical rails and bound every physical rail by the fair
    // share plus one chunk (the greedy's own invariant on matching rails).
    if let Some(c) = cluster {
        if let Some(fabric_rails) = c.fabric().rails() {
            let fr = fabric_rails.max(1) as usize;
            for (pos, a) in assignments.iter().enumerate() {
                let Some(unit) = units.get(a.unit) else {
                    continue;
                };
                let Strategy::MultiRail { rails, chunks } = a.strategy else {
                    continue;
                };
                let spray =
                    crossmesh_collectives::multi_rail_spray(unit, a.sender_host, rails, chunks);
                let mut physical = vec![0.0f64; fr];
                for (l, &b) in spray.rail_bytes.iter().enumerate() {
                    physical[l % fr] += b;
                }
                let total: f64 = physical.iter().sum();
                let cap = total / fr as f64 + spray.max_chunk_bytes + 1e-9;
                for (p, &b) in physical.iter().enumerate() {
                    if b > cap {
                        diags.push(Diagnostic::error(
                            Rule::A2aRailCapacity,
                            format!("assignment {pos} (unit {}) rail {p}", a.unit),
                            format!(
                                "spray puts {b:.0} bytes on physical rail {p} but its fair share of {total:.0} bytes over {fr} rails (plus one {:.0}-byte chunk) is {cap:.0}: strategy declares {rails} logical rails on a {fr}-rail fabric",
                                spray.max_chunk_bytes
                            ),
                        ));
                    }
                }
            }
        }
    }

    record_run("check.a2a", &diags);
    diags
}

/// Finds destination tiles written by more than one scheduled unit task:
/// for each destination device, every pair of unit slices from distinct
/// units must be disjoint. Reports the overlap region as a [`TileDiff`].
fn destination_overlaps(
    units: &[UnitTask],
    shape: &[u64],
    times_assigned: &[usize],
) -> Vec<Diagnostic> {
    let mut per_device: BTreeMap<DeviceId, Vec<usize>> = BTreeMap::new();
    for (u, unit) in units.iter().enumerate() {
        if times_assigned.get(u).copied().unwrap_or(0) == 0 {
            continue;
        }
        for r in &unit.receivers {
            per_device.entry(r.device).or_default().push(u);
        }
    }
    let mut diags = Vec::new();
    for (device, received) in per_device {
        for (i, &ua) in received.iter().enumerate() {
            for &ub in &received[i + 1..] {
                if let Some(overlap) = units[ua].slice.intersect(&units[ub].slice) {
                    if overlap.is_empty() {
                        continue;
                    }
                    let first: Vec<u64> = (0..overlap.rank())
                        .map(|d| overlap.range(d).start)
                        .collect();
                    let linear = linear_index(shape, &first);
                    let diff = TileDiff {
                        device,
                        tile: overlap.clone(),
                        offset: 0,
                        linear_index: linear,
                        expected: None,
                        actual: None,
                    };
                    diags.push(
                        Diagnostic::error(
                            Rule::CoverageOverlap,
                            format!("device {device}"),
                            format!(
                                "units {ua} and {ub} both write {overlap} (first element: linear {linear})"
                            ),
                        )
                        .with_diff(diff),
                    );
                }
            }
        }
    }
    diags
}

fn linear_index(shape: &[u64], idx: &[u64]) -> u64 {
    let mut lin = 0u64;
    for (i, &n) in shape.iter().enumerate() {
        lin = lin * n + idx.get(i).copied().unwrap_or(0);
    }
    lin
}

/// An explicit broadcast ring: the hop sequence (sender first) and the
/// chunk count `K` the slice is cut into. [`ring_spec`] derives the
/// canonical ring the lowering would build; [`verify_ring`] checks any ring
/// (canonical or tampered) against the well-formedness rules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingSpec {
    /// Devices in ring order: `hops[0]` is the sender, each element
    /// forwards chunks to the next.
    pub hops: Vec<(DeviceId, HostId)>,
    /// Number of pipeline chunks (`K` in `T^bc = t + A·t/K`).
    pub chunks: u32,
}

/// The canonical ring for a broadcast-lowered assignment: sender first,
/// receivers sorted host-contiguously starting with the sender's host, and
/// the effective chunk count clamped exactly as the lowering clamps it.
/// Returns `None` for non-ring strategies.
pub fn ring_spec(unit: &UnitTask, a: &Assignment) -> Option<RingSpec> {
    let chunks = match a.strategy {
        Strategy::Broadcast { chunks } => chunks,
        _ => return None,
    };
    let mut ordered: Vec<(DeviceId, HostId)> =
        unit.receivers.iter().map(|r| (r.device, r.host)).collect();
    ordered.sort_by_key(|&(d, h)| (h != a.sender_host, h, d));
    let mut hops = Vec::with_capacity(ordered.len() + 1);
    hops.push((a.sender, a.sender_host));
    hops.extend(ordered);
    Some(RingSpec {
        hops,
        chunks: effective_chunks(chunks, unit.bytes),
    })
}

/// The chunk count the lowering actually uses: at least 1, and no more
/// chunks than bytes (mirrors `crossmesh-collectives`' clamp).
pub fn effective_chunks(chunks: u32, bytes: u64) -> u32 {
    chunks.max(1).min((bytes as f64).max(1.0) as u32).max(1)
}

/// Checks one broadcast ring for well-formedness: no self-loop hops, no
/// revisited device (acyclic until the closing wrap), canonical
/// host-contiguous order, and a chunk count matching the closed-form `K`
/// for the strategy's declared `chunks` (`T^bc = t + A·t/K`).
pub fn verify_ring(
    unit: &UnitTask,
    unit_index: usize,
    ring: &RingSpec,
    sender_host: HostId,
    declared_chunks: u32,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let loc = format!("unit {unit_index} ring");

    for w in ring.hops.windows(2) {
        if w[0].0 == w[1].0 {
            diags.push(Diagnostic::error(
                Rule::RingSelfLoop,
                loc.clone(),
                format!("hop {} -> {} sends a chunk to itself", w[0].0, w[1].0),
            ));
        }
    }
    let mut seen: BTreeMap<DeviceId, usize> = BTreeMap::new();
    for (i, &(d, _)) in ring.hops.iter().enumerate() {
        if let Some(&prev) = seen.get(&d) {
            // A consecutive repeat is already a self-loop; only report a
            // cycle for a genuine revisit.
            if i != prev + 1 {
                diags.push(Diagnostic::error(
                    Rule::RingCycle,
                    loc.clone(),
                    format!("device {d} appears at positions {prev} and {i}: the ring has a cycle"),
                ));
            }
        } else {
            seen.insert(d, i);
        }
    }

    // Order: after the sender, receivers must be sorted by the canonical
    // key (sender-host receivers first, then host-ascending,
    // device-ascending within a host) so hosts are visited consecutively.
    let keys: Vec<(bool, HostId, DeviceId)> = ring.hops[1..]
        .iter()
        .map(|&(d, h)| (h != sender_host, h, d))
        .collect();
    if let Some(i) = keys.windows(2).position(|w| w[0] > w[1]) {
        diags.push(Diagnostic::error(
            Rule::RingOrder,
            loc.clone(),
            format!(
                "hops {} and {} are out of canonical order ({} on {} before {} on {}): hosts are not visited consecutively",
                i + 1,
                i + 2,
                ring.hops[i + 1].0,
                ring.hops[i + 1].1,
                ring.hops[i + 2].0,
                ring.hops[i + 2].1,
            ),
        ));
    }

    let k = effective_chunks(declared_chunks, unit.bytes);
    if ring.chunks != k {
        diags.push(Diagnostic::error(
            Rule::RingChunks,
            loc,
            format!(
                "ring cuts {} chunk(s) but the strategy's K for {} declared chunk(s) over {} bytes is {}",
                ring.chunks, declared_chunks, unit.bytes, k
            ),
        ));
    }
    diags
}

/// Topology sanity for one assignment: every involved device must exist in
/// the cluster, claimed hosts must match the topology, and the link
/// parameters must be usable.
fn capacity_rules(
    unit: &UnitTask,
    a: &Assignment,
    pos: usize,
    cluster: &ClusterSpec,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let loc = format!("assignment {pos} (unit {})", a.unit);
    if !cluster.contains(a.sender) {
        diags.push(Diagnostic::error(
            Rule::CapacityUnknownDevice,
            loc.clone(),
            format!("sender {} is not in the cluster", a.sender),
        ));
    } else if cluster.host_of(a.sender) != a.sender_host {
        diags.push(Diagnostic::error(
            Rule::CapacityHostMismatch,
            loc.clone(),
            format!(
                "assignment claims sender {} lives on {} but the cluster places it on {}",
                a.sender,
                a.sender_host,
                cluster.host_of(a.sender)
            ),
        ));
    }
    for r in &unit.receivers {
        if !cluster.contains(r.device) {
            diags.push(Diagnostic::error(
                Rule::CapacityUnknownDevice,
                loc.clone(),
                format!("receiver {} is not in the cluster", r.device),
            ));
        } else if cluster.host_of(r.device) != r.host {
            diags.push(Diagnostic::error(
                Rule::CapacityHostMismatch,
                loc.clone(),
                format!(
                    "unit lists receiver {} on {} but the cluster places it on {}",
                    r.device,
                    r.host,
                    cluster.host_of(r.device)
                ),
            ));
        }
    }
    diags
}

/// Checks every host's link parameters for usable bandwidths. Constructed
/// [`crossmesh_netsim::LinkParams`] enforce this, but specs deserialized
/// from a file bypass the constructor.
fn bandwidth_rules(cluster: &ClusterSpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for h in 0..cluster.num_hosts() {
        let links = cluster.host(HostId(h)).links;
        for (name, bw) in [
            ("intra-host", links.intra_host_bw),
            ("inter-host", links.inter_host_bw),
        ] {
            if !(bw.is_finite() && bw > 0.0) {
                diags.push(Diagnostic::error(
                    Rule::CapacityBandwidth,
                    format!("host h{h}"),
                    format!("{name} bandwidth {bw} is not a positive finite number"),
                ));
            }
        }
    }
    diags
}

/// One pipeline operation on one stage, as the schedule verifier sees it.
/// Mirrors `crossmesh-pipeline`'s `Op` (microbatch index per variant); the
/// pipeline crate sits above this one, so callers map their op type into
/// this view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleOp {
    /// Forward pass of one microbatch.
    Forward(u32),
    /// Activation-gradient backward half of one microbatch.
    BackwardAct(u32),
    /// Weight-gradient backward half of one microbatch.
    BackwardWeight(u32),
}

impl ScheduleOp {
    /// The microbatch index the op operates on.
    pub fn microbatch(self) -> u32 {
        match self {
            ScheduleOp::Forward(m) | ScheduleOp::BackwardAct(m) | ScheduleOp::BackwardWeight(m) => {
                m
            }
        }
    }

    fn short(self) -> String {
        match self {
            ScheduleOp::Forward(m) => format!("F{m}"),
            ScheduleOp::BackwardAct(m) => format!("B{m}"),
            ScheduleOp::BackwardWeight(m) => format!("W{m}"),
        }
    }
}

/// Verifies a pipeline schedule: per-stage operation shape, forward /
/// backward ordering, backward weight-delay ordering, and cross-stage
/// hazard freedom (no read-before-arrival) via a dependency-graph
/// topological check that reports deadlock cycles with a minimal witness.
///
/// `per_stage[s]` is stage `s`'s operation sequence; `num_microbatches` is
/// `M`. Forward activations flow stage `s-1 -> s`, activation gradients
/// flow `s+1 -> s`; within a stage, operations run strictly in sequence.
pub fn verify_schedule(per_stage: &[Vec<ScheduleOp>], num_microbatches: u32) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let m = num_microbatches;
    let training = per_stage
        .iter()
        .any(|ops| ops.iter().any(|o| !matches!(o, ScheduleOp::Forward(_))));

    for (s, ops) in per_stage.iter().enumerate() {
        let loc = format!("stage {s}");
        let mut fwd = Vec::new();
        let mut bact = Vec::new();
        let mut bw = Vec::new();
        for op in ops {
            match op {
                ScheduleOp::Forward(i) => fwd.push(*i),
                ScheduleOp::BackwardAct(i) => bact.push(*i),
                ScheduleOp::BackwardWeight(i) => bw.push(*i),
            }
        }
        let want_b = if training { m as usize } else { 0 };
        if fwd.len() != m as usize || bact.len() != want_b || bw.len() != want_b {
            diags.push(Diagnostic::error(
                Rule::ScheduleShape,
                loc.clone(),
                format!(
                    "expected {m} forward / {want_b} backward-act / {want_b} backward-weight ops, found {}/{}/{}",
                    fwd.len(),
                    bact.len(),
                    bw.len()
                ),
            ));
        }
        for (kind, seq) in [("forward", &fwd), ("backward-act", &bact)] {
            if let Some(i) = seq.windows(2).position(|w| w[0] >= w[1]) {
                diags.push(Diagnostic::error(
                    Rule::ScheduleForwardOrder,
                    loc.clone(),
                    format!(
                        "{kind} microbatch {} runs before microbatch {}: not in ascending order",
                        seq[i + 1],
                        seq[i]
                    ),
                ));
            }
        }
        if let Some(i) = bw.windows(2).position(|w| w[0] >= w[1]) {
            diags.push(Diagnostic::error(
                Rule::ScheduleWeightOrder,
                loc.clone(),
                format!(
                    "backward-weight microbatch {} overtakes microbatch {}",
                    bw[i + 1],
                    bw[i]
                ),
            ));
        }
        // Per-microbatch causal order within the stage: F < B < W.
        let pos_of = |target: ScheduleOp| ops.iter().position(|o| *o == target);
        for mb in 0..m {
            let f = pos_of(ScheduleOp::Forward(mb));
            let b = pos_of(ScheduleOp::BackwardAct(mb));
            let w = pos_of(ScheduleOp::BackwardWeight(mb));
            if let (Some(f), Some(b)) = (f, b) {
                if b < f {
                    diags.push(Diagnostic::error(
                        Rule::ScheduleMicrobatchOrder,
                        loc.clone(),
                        format!("backward-act of microbatch {mb} runs before its forward"),
                    ));
                }
            }
            if let (Some(b), Some(w)) = (b, w) {
                if w < b {
                    diags.push(Diagnostic::error(
                        Rule::ScheduleWeightOrder,
                        loc.clone(),
                        format!(
                            "backward-weight of microbatch {mb} runs before its activation half"
                        ),
                    ));
                }
            }
        }
    }

    diags.extend(schedule_deadlocks(per_stage));
    record_run("check.schedule", &diags);
    diags
}

/// Builds the cross-stage waits-for graph and looks for a cycle. Nodes are
/// `(stage, op-position)`; edges run from each op to its prerequisite: the
/// previous op on the same stage, the same microbatch's forward on the
/// previous stage (for forwards), and the same microbatch's backward-act on
/// the next stage (for backward-acts). A cycle means no execution order
/// exists: the pipeline deadlocks.
fn schedule_deadlocks(per_stage: &[Vec<ScheduleOp>]) -> Vec<Diagnostic> {
    let stages = per_stage.len();
    // Node id for (stage, index).
    let offset: Vec<usize> = per_stage
        .iter()
        .scan(0usize, |acc, ops| {
            let o = *acc;
            *acc += ops.len();
            Some(o)
        })
        .collect();
    let total: usize = per_stage.iter().map(Vec::len).sum();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); total];
    let find = |s: usize, target: ScheduleOp| -> Option<usize> {
        per_stage[s]
            .iter()
            .position(|o| *o == target)
            .map(|i| offset[s] + i)
    };
    for (s, ops) in per_stage.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            let node = offset[s] + i;
            if i > 0 {
                preds[node].push(node - 1);
            }
            match *op {
                ScheduleOp::Forward(mb) if s > 0 => {
                    if let Some(p) = find(s - 1, ScheduleOp::Forward(mb)) {
                        preds[node].push(p);
                    }
                }
                ScheduleOp::BackwardAct(mb) if s + 1 < stages => {
                    if let Some(p) = find(s + 1, ScheduleOp::BackwardAct(mb)) {
                        preds[node].push(p);
                    }
                }
                _ => {}
            }
        }
    }

    // Iterative three-color DFS; on a back edge, the stack slice from the
    // back-edge target onward is a simple (hence minimal-witness) cycle.
    let mut color = vec![0u8; total]; // 0 white, 1 gray, 2 black
    let mut cycle: Option<Vec<usize>> = None;
    'roots: for root in 0..total {
        if color[root] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = 1;
        while let Some(top) = stack.last_mut() {
            let node = top.0;
            if top.1 < preds[node].len() {
                let p = preds[node][top.1];
                top.1 += 1;
                match color[p] {
                    0 => {
                        color[p] = 1;
                        stack.push((p, 0));
                    }
                    1 => {
                        let start = stack.iter().position(|&(n, _)| n == p).unwrap_or(0);
                        let mut nodes: Vec<usize> =
                            stack[start..].iter().map(|&(n, _)| n).collect();
                        nodes.push(p);
                        cycle = Some(nodes);
                        break 'roots;
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }

    let Some(nodes) = cycle else {
        return Vec::new();
    };
    let name = |node: usize| -> String {
        let s = offset.partition_point(|&o| o <= node) - 1;
        let op = per_stage[s][node - offset[s]];
        format!("s{s}:{}", op.short())
    };
    // The DFS walks predecessor edges, so the stack order is
    // waiter -> prerequisite; reverse it to read as "waits for".
    let witness: Vec<String> = nodes.iter().rev().map(|&n| name(n)).collect();
    vec![Diagnostic::error(
        Rule::ScheduleDeadlock,
        "schedule".to_string(),
        format!(
            "cross-stage dependency cycle (each op waits for the next): {}",
            witness.join(" -> ")
        ),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use crossmesh_mesh::{Receiver, Tile};

    fn unit(
        index: usize,
        slice: Tile,
        senders: &[(u32, u32)],
        receivers: &[(u32, u32)],
    ) -> UnitTask {
        UnitTask {
            index,
            bytes: slice.volume() * 4,
            slice,
            senders: senders
                .iter()
                .map(|&(d, h)| (DeviceId(d), HostId(h)))
                .collect(),
            receivers: receivers
                .iter()
                .map(|&(d, h)| Receiver {
                    device: DeviceId(d),
                    host: HostId(h),
                })
                .collect(),
        }
    }

    fn view(unit: usize, sender: u32, host: u32) -> Assignment {
        Assignment {
            unit,
            sender: DeviceId(sender),
            sender_host: HostId(host),
            strategy: Strategy::SendRecv,
        }
    }

    fn no_exclusions() -> impl Fn(DeviceId, HostId) -> bool {
        |_, _| false
    }

    #[test]
    fn clean_plan_yields_no_diagnostics() {
        let units = vec![
            unit(0, Tile::new([0..4, 0..2]), &[(0, 0)], &[(4, 1)]),
            unit(1, Tile::new([0..4, 2..4]), &[(1, 0)], &[(4, 1)]),
        ];
        let plan = vec![view(0, 0, 0), view(1, 1, 0)];
        let diags = verify_plan(&units, &[4, 4], 4, &plan, None, &no_exclusions());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dropped_and_duplicated_flows_are_caught() {
        let units = vec![
            unit(0, Tile::new([0..4, 0..2]), &[(0, 0)], &[(4, 1)]),
            unit(1, Tile::new([0..4, 2..4]), &[(1, 0)], &[(4, 1)]),
        ];
        let dropped = vec![view(0, 0, 0)];
        let diags = verify_plan(&units, &[4, 4], 4, &dropped, None, &no_exclusions());
        assert!(diags.iter().any(|d| d.rule == Rule::CoverageMissing));

        let duplicated = vec![view(0, 0, 0), view(1, 1, 0), view(1, 1, 0)];
        let diags = verify_plan(&units, &[4, 4], 4, &duplicated, None, &no_exclusions());
        assert!(diags.iter().any(|d| d.rule == Rule::CoverageDuplicate));

        let unknown = vec![view(0, 0, 0), view(7, 1, 0)];
        let diags = verify_plan(&units, &[4, 4], 4, &unknown, None, &no_exclusions());
        assert!(diags.iter().any(|d| d.rule == Rule::CoverageUnknownUnit));
        assert!(diags.iter().any(|d| d.rule == Rule::CoverageMissing));
    }

    #[test]
    fn overlapping_destinations_carry_a_tile_diff() {
        // Units 0 and 1 both deliver column 1 to device 4.
        let units = vec![
            unit(0, Tile::new([0..4, 0..2]), &[(0, 0)], &[(4, 1)]),
            unit(1, Tile::new([0..4, 1..4]), &[(1, 0)], &[(4, 1)]),
        ];
        let plan = vec![view(0, 0, 0), view(1, 1, 0)];
        let diags = verify_plan(&units, &[4, 4], 4, &plan, None, &no_exclusions());
        let overlap = diags
            .iter()
            .find(|d| d.rule == Rule::CoverageOverlap)
            .expect("overlap reported");
        let diff = overlap.diff.as_ref().expect("diff attached");
        assert_eq!(diff.device, DeviceId(4));
        assert_eq!(diff.tile, Tile::new([0..4, 1..2]));
        assert_eq!(diff.linear_index, 1);
    }

    #[test]
    fn sender_rules_fire() {
        let units = vec![unit(
            0,
            Tile::new([0..4, 0..4]),
            &[(0, 0), (1, 0)],
            &[(4, 1)],
        )];
        // Not a replica.
        let plan = vec![view(0, 9, 2)];
        let diags = verify_plan(&units, &[4, 4], 4, &plan, None, &no_exclusions());
        assert!(diags.iter().any(|d| d.rule == Rule::SenderNotReplica));
        // Excluded host.
        let plan = vec![view(0, 0, 0)];
        let excl = |_d: DeviceId, h: HostId| h == HostId(0);
        let diags = verify_plan(&units, &[4, 4], 4, &plan, None, &excl);
        assert!(diags.iter().any(|d| d.rule == Rule::SenderExcluded));
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn bytes_rule_fires_on_inconsistent_units() {
        let mut u = unit(0, Tile::new([0..4, 0..4]), &[(0, 0)], &[(4, 1)]);
        u.bytes += 1;
        let diags = verify_plan(&[u], &[4, 4], 4, &[view(0, 0, 0)], None, &no_exclusions());
        assert!(diags.iter().any(|d| d.rule == Rule::CoverageBytes));
    }

    #[test]
    fn canonical_rings_pass_and_tampered_rings_fail() {
        // Receivers on two hosts; sender on host 0.
        let u = unit(
            0,
            Tile::new([0..4, 0..4]),
            &[(0, 0)],
            &[(2, 0), (4, 1), (5, 1)],
        );
        let a = Assignment {
            unit: 0,
            sender: DeviceId(0),
            sender_host: HostId(0),
            strategy: Strategy::Broadcast { chunks: 4 },
        };
        let ring = ring_spec(&u, &a).expect("broadcast has a ring");
        assert_eq!(
            ring.hops.iter().map(|&(d, _)| d.0).collect::<Vec<_>>(),
            vec![0, 2, 4, 5]
        );
        assert!(verify_ring(&u, 0, &ring, HostId(0), 4).is_empty());

        // Swapped ring edge: receivers out of host-contiguous order.
        let mut swapped = ring.clone();
        swapped.hops.swap(1, 2);
        let diags = verify_ring(&u, 0, &swapped, HostId(0), 4);
        assert!(diags.iter().any(|d| d.rule == Rule::RingOrder), "{diags:?}");

        // Revisit: a device appears twice.
        let mut cyclic = ring.clone();
        cyclic.hops.push(ring.hops[1]);
        let diags = verify_ring(&u, 0, &cyclic, HostId(0), 4);
        assert!(diags.iter().any(|d| d.rule == Rule::RingCycle));

        // Self-loop: consecutive duplicate hop.
        let mut selfloop = ring.clone();
        selfloop.hops.insert(2, ring.hops[1]);
        let diags = verify_ring(&u, 0, &selfloop, HostId(0), 4);
        assert!(diags.iter().any(|d| d.rule == Rule::RingSelfLoop));

        // Wrong chunk count.
        let mut chunks = ring.clone();
        chunks.chunks = 7;
        let diags = verify_ring(&u, 0, &chunks, HostId(0), 4);
        assert!(diags.iter().any(|d| d.rule == Rule::RingChunks));
    }

    #[test]
    fn effective_chunks_clamps_like_the_lowering() {
        assert_eq!(effective_chunks(0, 100), 1);
        assert_eq!(effective_chunks(4, 100), 4);
        assert_eq!(effective_chunks(16, 3), 3);
        assert_eq!(effective_chunks(16, 0), 1);
    }

    #[test]
    fn capacity_rules_fire_against_a_cluster() {
        use crossmesh_netsim::{ClusterSpec, LinkParams};
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(100.0, 1.0));
        // Device 9 does not exist; device 0 lives on host 0, not host 1.
        let units = vec![unit(
            0,
            Tile::new([0..4, 0..4]),
            &[(9, 4), (0, 1)],
            &[(3, 1)],
        )];
        let plan = vec![view(0, 9, 4)];
        let diags = verify_plan(&units, &[4, 4], 4, &plan, Some(&c), &no_exclusions());
        assert!(diags.iter().any(|d| d.rule == Rule::CapacityUnknownDevice));
        let plan = vec![view(0, 0, 1)];
        let diags = verify_plan(&units, &[4, 4], 4, &plan, Some(&c), &no_exclusions());
        assert!(diags.iter().any(|d| d.rule == Rule::CapacityHostMismatch));
    }

    #[test]
    fn unbounded_fabric_warns_but_does_not_convict() {
        use crossmesh_netsim::{ClusterSpec, FabricModel, LinkParams};
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(100.0, 1.0));
        let units = vec![unit(0, Tile::new([0..4, 0..4]), &[(0, 0)], &[(3, 1)])];
        let plan = vec![view(0, 0, 0)];
        let diags = verify_plan(&units, &[4, 4], 4, &plan, Some(&c), &no_exclusions());
        let warn = diags
            .iter()
            .find(|d| d.rule == Rule::CapacityUnbounded)
            .expect("vacuous capacity warning");
        assert_eq!(warn.severity, Severity::Warning);
        assert!(!crate::has_errors(&diags), "{diags:?}");
        // A bounded fabric silences it.
        let bounded = ClusterSpec::homogeneous(2, 2, LinkParams::new(100.0, 1.0)).with_fabric(
            FabricModel::Flat {
                capacity: Some(8.0),
            },
        );
        let diags = verify_plan(&units, &[4, 4], 4, &plan, Some(&bounded), &no_exclusions());
        assert!(
            !diags.iter().any(|d| d.rule == Rule::CapacityUnbounded),
            "{diags:?}"
        );
    }

    /// Two senders on host 0, two expert devices on host 1; every pair
    /// ships 8 bytes. Unit `i*2+j` carries pair (sender i → expert j).
    #[allow(clippy::single_range_in_vec_init)]
    fn a2a_fixture() -> (Vec<UnitTask>, Vec<Assignment>, Vec<A2aPairView>) {
        let mut units = Vec::new();
        let mut pairs = Vec::new();
        let mut plan = Vec::new();
        for s in 0..2u32 {
            for e in 0..2u32 {
                let u = (s * 2 + e) as usize;
                let lo = u as u64 * 8;
                units.push(UnitTask {
                    index: u,
                    slice: Tile::new([lo..lo + 8]),
                    bytes: 8,
                    senders: vec![(DeviceId(s), HostId(0))],
                    receivers: vec![Receiver {
                        device: DeviceId(2 + e),
                        host: HostId(1),
                    }],
                });
                pairs.push(A2aPairView {
                    src_device: DeviceId(s),
                    src_host: HostId(0),
                    dst_device: DeviceId(2 + e),
                    dst_host: HostId(1),
                    bytes: 8,
                });
                plan.push(Assignment {
                    unit: u,
                    sender: DeviceId(s),
                    sender_host: HostId(0),
                    strategy: Strategy::SendRecv,
                });
            }
        }
        (units, plan, pairs)
    }

    #[test]
    fn a2a_rules_pass_a_faithful_plan_and_convict_mutations() {
        let (units, plan, pairs) = a2a_fixture();
        assert!(verify_a2a(&pairs, &units, &plan, None).is_empty());

        // Dropped pair.
        let dropped: Vec<_> = plan[1..].to_vec();
        let diags = verify_a2a(&pairs, &units, &dropped, None);
        assert!(
            diags.iter().any(|d| d.rule == Rule::A2aMissingPair),
            "{diags:?}"
        );

        // Duplicated pair.
        let mut duplicated = plan.clone();
        duplicated.push(plan[0]);
        let diags = verify_a2a(&pairs, &units, &duplicated, None);
        assert!(
            diags.iter().any(|d| d.rule == Rule::A2aDuplicatePair),
            "{diags:?}"
        );

        // Wrong shard size.
        let mut fat = pairs.clone();
        fat[0].bytes = 9;
        let diags = verify_a2a(&fat, &units, &plan, None);
        assert!(diags.iter().any(|d| d.rule == Rule::A2aBytes), "{diags:?}");

        // Delivery with no expected pair.
        let orphaned: Vec<_> = pairs[1..].to_vec();
        let diags = verify_a2a(&orphaned, &units, &plan, None);
        assert!(
            diags.iter().any(|d| d.rule == Rule::A2aDuplicatePair),
            "{diags:?}"
        );
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn a2a_rail_capacity_convicts_overdeclared_rails() {
        use crossmesh_netsim::{ClusterSpec, FabricModel, LinkParams};
        let c = ClusterSpec::homogeneous(2, 4, LinkParams::new(100.0, 1.0)).with_fabric(
            FabricModel::RailOptimized {
                rails: 2,
                spine_capacity: 1.0,
            },
        );
        let units = vec![UnitTask {
            index: 0,
            slice: Tile::new([0..64]),
            bytes: 64,
            senders: vec![(DeviceId(0), HostId(0))],
            receivers: vec![Receiver {
                device: DeviceId(4),
                host: HostId(1),
            }],
        }];
        let pairs = vec![A2aPairView {
            src_device: DeviceId(0),
            src_host: HostId(0),
            dst_device: DeviceId(4),
            dst_host: HostId(1),
            bytes: 64,
        }];
        let assign = |rails: u32| {
            vec![Assignment {
                unit: 0,
                sender: DeviceId(0),
                sender_host: HostId(0),
                strategy: Strategy::MultiRail { rails, chunks: 16 },
            }]
        };
        // Matching rails: greedy spray is within fair share + one chunk.
        assert!(verify_a2a(&pairs, &units, &assign(2), Some(&c)).is_empty());
        // 3 logical rails fold 2:1 onto 2 physical rails, so one NIC
        // carries ~2/3 of the bytes — past its fair share plus one chunk.
        let diags = verify_a2a(&pairs, &units, &assign(3), Some(&c));
        assert!(
            diags.iter().any(|d| d.rule == Rule::A2aRailCapacity),
            "{diags:?}"
        );
    }

    fn f(m: u32) -> ScheduleOp {
        ScheduleOp::Forward(m)
    }
    fn b(m: u32) -> ScheduleOp {
        ScheduleOp::BackwardAct(m)
    }
    fn w(m: u32) -> ScheduleOp {
        ScheduleOp::BackwardWeight(m)
    }

    #[test]
    fn a_valid_one_f_one_b_schedule_passes() {
        // Two stages, two microbatches, hand-built 1F1B.
        let s0 = vec![f(0), f(1), b(0), w(0), b(1), w(1)];
        let s1 = vec![f(0), b(0), w(0), f(1), b(1), w(1)];
        let diags = verify_schedule(&[s0, s1], 2);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn schedule_shape_and_order_rules_fire() {
        // Missing a backward-weight op.
        let s0 = vec![f(0), b(0)];
        let diags = verify_schedule(&[s0], 1);
        assert!(diags.iter().any(|d| d.rule == Rule::ScheduleShape));

        // Forwards out of order.
        let s0 = vec![f(1), f(0), b(0), w(0), b(1), w(1)];
        let diags = verify_schedule(&[s0], 2);
        assert!(diags.iter().any(|d| d.rule == Rule::ScheduleForwardOrder));

        // Weight half before activation half.
        let s0 = vec![f(0), w(0), b(0)];
        let diags = verify_schedule(&[s0], 1);
        assert!(diags.iter().any(|d| d.rule == Rule::ScheduleWeightOrder));
    }

    #[test]
    fn cross_stage_cycle_is_reported_with_a_witness() {
        // Stage 0 runs B0 before F0: s0:B0 waits s1:B0 waits (seq) s1:F0
        // waits s0:F0 waits (seq) s0:B0 — a 4-op cycle.
        let s0 = vec![b(0), w(0), f(0)];
        let s1 = vec![f(0), b(0), w(0)];
        let diags = verify_schedule(&[s0, s1], 1);
        let dl = diags
            .iter()
            .find(|d| d.rule == Rule::ScheduleDeadlock)
            .expect("deadlock reported");
        for op in ["s0:B0", "s1:B0", "s1:F0", "s0:F0"] {
            assert!(dl.explanation.contains(op), "{}", dl.explanation);
        }
    }

    #[test]
    fn inference_schedules_need_no_backwards() {
        let s0 = vec![f(0), f(1)];
        let s1 = vec![f(0), f(1)];
        let diags = verify_schedule(&[s0, s1], 2);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
