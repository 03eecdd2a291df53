//! Lowering a unit communication task onto the simulator under a strategy.

use crate::ring::ring_all_gather;
use crate::strategy::Strategy;
use crossmesh_mesh::{Receiver, UnitTask};
use crossmesh_netsim::{ClusterSpec, DeviceId, HostId, Label, TaskGraph, TaskId, Work};
use std::ops::Range;

/// Handles into the lowered communication fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredComm {
    /// Per receiver device: the task that completes when that device holds
    /// everything it needs from this unit task.
    pub receiver_done: Vec<(DeviceId, TaskId)>,
    /// Joins all receivers (and the sender's obligations).
    pub done: TaskId,
}

/// Lowers `task` into `graph` using `strategy`, with `sender` as the chosen
/// replica (one of `task.senders`) and `deps` gating the first byte.
///
/// Returns per-receiver completion handles so downstream consumers (e.g.
/// a pipeline stage's forward compute) can depend on exactly their data.
///
/// `cluster` is the topology that strategies relaying through co-hosted
/// devices draw their relays from ([`Strategy::MultiRail`] needs the
/// sender's and receivers' host peers to reach every rail NIC); without
/// one they degrade gracefully to direct chunked flows.
///
/// # Panics
///
/// Panics if `sender` is not one of the task's replica devices.
pub fn lower_unit_task_on(
    graph: &mut TaskGraph,
    task: &UnitTask,
    sender: DeviceId,
    strategy: Strategy,
    deps: &[TaskId],
    cluster: Option<&ClusterSpec>,
) -> LoweredComm {
    let sender_host = task
        .senders
        .iter()
        .find(|&&(d, _)| d == sender)
        .map(|&(_, h)| h)
        .unwrap_or_else(|| panic!("device {sender} does not hold slice {}", task.slice));

    if task.receivers.is_empty() {
        let done = graph.add(Work::Marker, deps.iter().copied());
        return LoweredComm {
            receiver_done: Vec::new(),
            done,
        };
    }

    let unit = task.index as u32;
    let bytes = task.bytes as f64;

    let receiver_done = match strategy {
        Strategy::SendRecv => {
            // P2P the whole slice to each receiver.
            task.receivers
                .iter()
                .map(|r| {
                    let f = graph.add_labeled(
                        Work::flow(sender, r.device, bytes),
                        deps.iter().copied(),
                        Label::new("sr u{} d{}->d{}", [unit, sender.0, r.device.0]),
                    );
                    (r.device, f)
                })
                .collect()
        }
        Strategy::LocalAllGather => {
            // One copy of the slice per receiver host, scattered over its
            // receiver devices, reassembled by an intra-host all-gather.
            let mut ordered: Vec<&Receiver> = task.receivers.iter().collect();
            ordered.sort_by_key(|r| r.host);
            let mut out = Vec::with_capacity(ordered.len());
            let (mut devices, mut parts, mut ready) = (Vec::new(), Vec::new(), Vec::new());
            for group in ordered.chunk_by(|a, b| a.host == b.host) {
                if let &[r] = group {
                    let f = graph.add_labeled(
                        Work::flow(sender, r.device, bytes),
                        deps.iter().copied(),
                        Label::new("la u{} copy", [unit]),
                    );
                    out.push((r.device, f));
                    continue;
                }
                devices.clear();
                devices.extend(group.iter().map(|r| r.device));
                let part = bytes / devices.len() as f64;
                ready.clear();
                ready.extend(devices.iter().map(|&d| {
                    [graph.add_labeled(
                        Work::flow(sender, d, part),
                        deps.iter().copied(),
                        Label::new("la u{} scatter", [unit]),
                    )]
                }));
                parts.clear();
                parts.resize(devices.len(), part);
                let ring = ring_all_gather(graph, &devices, &parts, &ready);
                out.extend(devices.iter().copied().zip(ring.done_per_device));
            }
            out
        }
        Strategy::GlobalAllGather => {
            // Scatter over all receivers (host-grouped order), then a
            // global ring all-gather that may cross hosts.
            let mut ordered: Vec<&Receiver> = task.receivers.iter().collect();
            ordered.sort_by_key(|r| (r.host, r.device));
            let devices: Vec<DeviceId> = ordered.iter().map(|r| r.device).collect();
            if let &[device] = devices.as_slice() {
                let f = graph.add_labeled(
                    Work::flow(sender, device, bytes),
                    deps.iter().copied(),
                    Label::new("ga u{} copy", [unit]),
                );
                vec![(device, f)]
            } else {
                let n = devices.len();
                let part = bytes / n as f64;
                let ready: Vec<[TaskId; 1]> = devices
                    .iter()
                    .map(|&d| {
                        [graph.add_labeled(
                            Work::flow(sender, d, part),
                            deps.iter().copied(),
                            Label::new("ga u{} scatter", [unit]),
                        )]
                    })
                    .collect();
                let ring = ring_all_gather(graph, &devices, &vec![part; n], &ready);
                devices.into_iter().zip(ring.done_per_device).collect()
            }
        }
        Strategy::Broadcast { chunks } => {
            lower_broadcast(graph, task, sender, sender_host, chunks, deps)
        }
        Strategy::MultiRail { rails, chunks } => lower_multi_rail(
            graph,
            task,
            sender,
            sender_host,
            rails,
            chunks,
            deps,
            cluster,
        ),
        Strategy::TreeBroadcast { chunks } => {
            lower_tree_broadcast(graph, task, sender, sender_host, chunks, deps)
        }
    };

    let done = graph.add(Work::Marker, receiver_done.iter().map(|&(_, t)| t));
    LoweredComm {
        receiver_done,
        done,
    }
}

/// Pipelined ring broadcast: the ring starts at the sender, visits any
/// receivers co-located with it, then each remaining receiver host in
/// ascending order — so the slice crosses the inter-host network exactly
/// once per receiver host.
fn lower_broadcast(
    graph: &mut TaskGraph,
    task: &UnitTask,
    sender: DeviceId,
    sender_host: HostId,
    chunks: u32,
    deps: &[TaskId],
) -> Vec<(DeviceId, TaskId)> {
    let mut ordered: Vec<&Receiver> = task.receivers.iter().collect();
    ordered.sort_by_key(|r| (r.host != sender_host, r.host, r.device));
    let ring: Vec<DeviceId> = std::iter::once(sender)
        .chain(ordered.iter().map(|r| r.device))
        .collect();
    let hops = ring.len() - 1;
    let unit = task.index as u32;
    let bytes = task.bytes as f64;
    // No point cutting more chunks than bytes; keep at least one.
    let k = chunks.max(1).min(bytes.max(1.0) as u32).max(1) as usize;
    let chunk_bytes = bytes / k as f64;

    // last_on_hop[i]: previous chunk's flow on hop i (serialises the link);
    // the per-chunk chain serialises store-and-forward.
    let mut last_on_hop: Vec<Option<TaskId>> = vec![None; hops];
    let mut last_into_receiver: Vec<TaskId> = Vec::with_capacity(hops);
    for j in 0..k {
        let mut prev_hop: Option<TaskId> = None;
        for (i, hop) in last_on_hop.iter_mut().enumerate() {
            let first = prev_hop.as_ref().map_or(deps, std::slice::from_ref);
            let f = graph.add_labeled(
                Work::flow(ring[i], ring[i + 1], chunk_bytes),
                first.iter().copied().chain(*hop),
                Label::new("bc u{} c{} h{}", [unit, j as u32, i as u32]),
            );
            *hop = Some(f);
            prev_hop = Some(f);
            if j == k - 1 {
                last_into_receiver.push(f);
            }
        }
    }
    ordered
        .iter()
        .map(|r| r.device)
        .zip(last_into_receiver)
        .collect()
}

/// RailS-style multi-rail spray: each receiver's copy of the slice is cut
/// into chunks; every chunk is assigned to the rail with the most residual
/// capacity (least accumulated bytes so far, ties to the lowest rail) and
/// routed `sender → rail relay on the sender host → rail relay on the
/// receiver host → receiver`, where the relay for rail `r` is the first
/// co-hosted device with local index ≡ r (mod rails). Intra-host relay hops
/// are skipped when an endpoint already sits on the target rail; without a
/// cluster topology no relays are known and chunks fly directly.
///
/// Per rail, chunks pipeline store-and-forward exactly like the ring
/// broadcast: hop n+1 of a chunk waits for hop n, and a link carries one
/// chunk at a time.
/// The outcome of the multi-rail greedy spray for one unit task: how many
/// bytes land on each *logical* rail, and the largest single chunk.
///
/// This is the schedule [`lower_unit_task_on`] realizes for
/// [`Strategy::MultiRail`]; `crossmesh-check` re-derives it to prove rail
/// assignments stay within per-rail capacity without lowering anything.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRailSpray {
    /// Bytes assigned to each logical rail (length = `rails`).
    pub rail_bytes: Vec<f64>,
    /// The largest chunk the spray moves, bytes.
    pub max_chunk_bytes: f64,
}

/// Computes the greedy chunk-to-rail assignment [`Strategy::MultiRail`]
/// lowers to, without building a graph: each remote receiver's copy of the
/// slice is cut into chunks and every chunk goes to the rail with the
/// least accumulated bytes (ties to the lowest rail). Co-hosted receivers
/// ride NVLink and are not sprayed.
pub fn multi_rail_spray(
    task: &UnitTask,
    sender_host: HostId,
    rails: u32,
    chunks: u32,
) -> MultiRailSpray {
    let rails = rails.max(1) as usize;
    let (k, chunk_bytes) = spray_chunks(task.bytes as f64, chunks);
    let mut rail_bytes = vec![0.0f64; rails];
    let mut max_chunk_bytes = 0.0f64;
    for r in &task.receivers {
        if r.host == sender_host {
            continue;
        }
        max_chunk_bytes = max_chunk_bytes.max(chunk_bytes);
        for _ in 0..k {
            let rail = rail_bytes
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i)
                .expect("at least one rail");
            rail_bytes[rail] += chunk_bytes;
        }
    }
    MultiRailSpray {
        rail_bytes,
        max_chunk_bytes,
    }
}

/// Chunks one receiver's copy of `bytes` is sprayed in, and their size.
fn spray_chunks(bytes: f64, chunks: u32) -> (usize, f64) {
    let k = chunks.max(1).min(bytes.max(1.0) as u32).max(1) as usize;
    (k, bytes / k as f64)
}

#[allow(clippy::too_many_arguments)]
fn lower_multi_rail(
    graph: &mut TaskGraph,
    task: &UnitTask,
    sender: DeviceId,
    sender_host: HostId,
    rails: u32,
    chunks: u32,
    deps: &[TaskId],
    cluster: Option<&ClusterSpec>,
) -> Vec<(DeviceId, TaskId)> {
    let rails = rails.max(1) as usize;
    let bytes = task.bytes as f64;
    let (k, chunk_bytes) = spray_chunks(bytes, chunks);

    // relay_for(host, rail): the first device on `host` whose local index
    // is congruent to `rail`, preferring `preferred` when it already sits
    // on that rail.
    let relay_for = |host: HostId, rail: usize, preferred: DeviceId| -> DeviceId {
        let Some(c) = cluster else { return preferred };
        if !c.contains(preferred) || c.host_of(preferred) != host {
            return preferred;
        }
        if c.local_index(preferred) as usize % rails == rail {
            return preferred;
        }
        c.devices_on(host)
            .find(|&d| c.local_index(d) as usize % rails == rail)
            .unwrap_or(preferred)
    };

    // Residual-capacity spray state, shared across this unit's receivers:
    // bytes already assigned per rail.
    let mut rail_bytes = vec![0.0f64; rails];
    let unit = task.index as u32;
    // A chunk's path has at most three hops (sender → sender-host relay →
    // receiver-host relay → receiver); last flow per (rail, hop) for link
    // serialization, reset per receiver.
    const MAX_HOPS: usize = 3;
    let mut last_on_hop: Vec<Option<TaskId>> = vec![None; rails * MAX_HOPS];
    let mut finals: Vec<TaskId> = Vec::new();
    let mut out = Vec::with_capacity(task.receivers.len());
    for r in &task.receivers {
        if r.host == sender_host {
            // Co-hosted receiver: one fast intra-host copy, no spraying.
            let f = graph.add_labeled(
                Work::flow(sender, r.device, bytes),
                deps.iter().copied(),
                Label::new("mr u{} local d{}->d{}", [unit, sender.0, r.device.0]),
            );
            out.push((r.device, f));
            continue;
        }
        last_on_hop.fill(None);
        for j in 0..k {
            let rail = rail_bytes
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i)
                .expect("at least one rail");
            rail_bytes[rail] += chunk_bytes;
            let relay_src = relay_for(sender_host, rail, sender);
            let relay_dst = relay_for(r.host, rail, r.device);
            let mut path = [sender; MAX_HOPS + 1];
            let mut len = 1;
            for d in [relay_src, relay_dst, r.device] {
                if path[len - 1] != d {
                    path[len] = d;
                    len += 1;
                }
            }
            let mut prev_hop: Option<TaskId> = None;
            for (hop, pair) in path[..len].windows(2).enumerate() {
                let first = prev_hop.as_ref().map_or(deps, std::slice::from_ref);
                let last = &mut last_on_hop[rail * MAX_HOPS + hop];
                let f = graph.add_labeled(
                    Work::flow(pair[0], pair[1], chunk_bytes),
                    first.iter().copied().chain(*last),
                    Label::new(
                        "mr u{} c{} r{} h{}",
                        [unit, j as u32, rail as u32, hop as u32],
                    ),
                );
                *last = Some(f);
                prev_hop = Some(f);
            }
            finals.push(prev_hop.expect("path has at least one hop"));
        }
        // The receiver holds its slice when every sprayed chunk landed.
        let done = graph.add(Work::Marker, finals.drain(..));
        out.push((r.device, done));
    }
    out
}

/// Pipelined binary-tree broadcast: receiver hosts form a binary tree
/// rooted at the sender; each host's first receiver device relays chunks
/// to its two child hosts and along its own intra-host chain.
fn lower_tree_broadcast(
    graph: &mut TaskGraph,
    task: &UnitTask,
    sender: DeviceId,
    sender_host: HostId,
    chunks: u32,
    deps: &[TaskId],
) -> Vec<(DeviceId, TaskId)> {
    // Receivers by host, sender-host receivers first (they hang off the
    // root directly over fast links).
    let mut ordered: Vec<&Receiver> = task.receivers.iter().collect();
    ordered.sort_by_key(|r| (r.host != sender_host, r.host, r.device));
    let devices: Vec<DeviceId> = ordered.iter().map(|r| r.device).collect();
    // Tree nodes: 0 is the sender's own host (root); remote receiver
    // hosts follow in order. nodes[i] = (device that relays for node i,
    // positions in `devices` of its intra-host chain).
    let mut nodes: Vec<(DeviceId, Range<usize>)> = vec![(sender, 0..0)];
    let mut start = 0;
    for group in ordered.chunk_by(|a, b| a.host == b.host) {
        let end = start + group.len();
        if group[0].host == sender_host {
            nodes[0].1 = start..end;
        } else {
            nodes.push((devices[start], start + 1..end));
        }
        start = end;
    }
    let n = nodes.len();
    let unit = task.index as u32;
    let bytes = task.bytes as f64;
    let k = chunks.max(1).min(bytes.max(1.0) as u32).max(1) as usize;
    let chunk_bytes = bytes / k as f64;

    let mut completions: Vec<(DeviceId, TaskId)> = Vec::with_capacity(devices.len());
    // Last flow per tree edge (indexed by its child node) and per
    // intra-host hop (indexed by the receiving device's position).
    let mut last_on_edge: Vec<Option<TaskId>> = vec![None; n];
    let mut last_intra: Vec<Option<TaskId>> = vec![None; devices.len()];
    // arrival[node]: the flow that delivered chunk `j` to the node's relay
    // (unused for the root, whose gate is the external deps). A parent's
    // index is below its child's, so the parent sets it earlier in the
    // same pass, before the child relays that chunk on.
    let mut arrival: Vec<Option<TaskId>> = vec![None; n];
    for j in 0..k {
        for (node, (rep, chain)) in nodes.iter().enumerate() {
            let relayed = arrival[node];
            let parent_arrived: &[TaskId] = match (node, j) {
                (0, 0) => deps,
                (0, _) => &[],
                _ => relayed.as_slice(),
            };
            // Relay to children in the host tree.
            for c in [2 * node + 1, 2 * node + 2] {
                if c >= n {
                    continue;
                }
                let child_rep = nodes[c].0;
                let f = graph.add_labeled(
                    Work::flow(*rep, child_rep, chunk_bytes),
                    parent_arrived.iter().copied().chain(last_on_edge[c]),
                    Label::new("tb u{} c{} {}->{}", [unit, j as u32, node as u32, c as u32]),
                );
                last_on_edge[c] = Some(f);
                arrival[c] = Some(f);
                if j == k - 1 {
                    completions.push((child_rep, f));
                }
            }
            // Intra-host chain from the rep through local receivers.
            let mut prev_dev = *rep;
            let mut prev_task: Option<TaskId> = None;
            for pos in chain.clone() {
                let dev = devices[pos];
                let first = prev_task
                    .as_ref()
                    .map_or(parent_arrived, std::slice::from_ref);
                let f = graph.add_labeled(
                    Work::flow(prev_dev, dev, chunk_bytes),
                    first.iter().copied().chain(last_intra[pos]),
                    Label::new("tb u{} c{} local", [unit, j as u32]),
                );
                last_intra[pos] = Some(f);
                prev_dev = dev;
                prev_task = Some(f);
                if j == k - 1 {
                    completions.push((dev, f));
                }
            }
        }
    }
    completions
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crossmesh_mesh::{Receiver, Tile};
    use crossmesh_netsim::{ClusterSpec, Engine, LinkParams};

    /// Builds a unit task: sender(s) on host 0, `a` receiver hosts x `b`
    /// receiver devices starting at host 1.
    fn multicast_task(cluster: &ClusterSpec, volume: u64, a: u32, b: u32) -> UnitTask {
        let receivers = (1..=a)
            .flat_map(|h| (0..b).map(move |l| (h, l)))
            .map(|(h, l)| Receiver {
                device: cluster.device(h, l),
                host: HostId(h),
            })
            .collect();
        UnitTask {
            index: 0,
            slice: Tile::new([0..volume]),
            bytes: volume,
            senders: vec![(cluster.device(0, 0), HostId(0))],
            receivers,
        }
    }

    /// Lowers `task` without a cluster topology.
    fn lower(
        graph: &mut TaskGraph,
        task: &UnitTask,
        sender: DeviceId,
        strategy: Strategy,
        deps: &[TaskId],
    ) -> LoweredComm {
        lower_unit_task_on(graph, task, sender, strategy, deps, None)
    }

    fn run(cluster: &ClusterSpec, task: &UnitTask, strategy: Strategy) -> f64 {
        let mut g = TaskGraph::new();
        let lowered = lower(&mut g, task, task.senders[0].0, strategy, &[]);
        let t = Engine::new(cluster).run(&g).unwrap();
        t.interval(lowered.done).finish
    }

    fn cluster(hosts: u32, devs: u32) -> ClusterSpec {
        // NVLink 100 B/s, NIC 1 B/s, zero latency: t = bytes seconds.
        ClusterSpec::homogeneous(
            hosts,
            devs,
            LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
        )
    }

    #[test]
    fn send_recv_latency_is_a_times_b_times_t() {
        // 2 hosts x 2 devices receiving 10 bytes each through one NIC:
        // T = A*B*t = 4 * 10 = 40 s.
        let c = cluster(3, 2);
        let task = multicast_task(&c, 10, 2, 2);
        let d = run(&c, &task, Strategy::SendRecv);
        assert!((d - 40.0).abs() < 1e-6, "got {d}");
    }

    #[test]
    fn local_allgather_latency_is_a_times_t() {
        // Each of the A=2 hosts receives one copy (t each through the
        // sender NIC) then gathers intra-host (fast): T ≈ A*t = 20.
        let c = cluster(3, 2);
        let task = multicast_task(&c, 10, 2, 2);
        let d = run(&c, &task, Strategy::LocalAllGather);
        assert!((d - 20.0).abs() < 0.3, "got {d}");
    }

    #[test]
    fn global_allgather_latency_is_2t() {
        // Scatter t + global all-gather ≈ t: T ≈ 2t = 20 (A=2, B=2).
        let c = cluster(3, 2);
        let task = multicast_task(&c, 12, 2, 2);
        let d = run(&c, &task, Strategy::GlobalAllGather);
        let t_unit = 12.0;
        assert!(
            d > 1.5 * t_unit && d < 2.3 * t_unit,
            "expected about 2t = {}, got {d}",
            2.0 * t_unit
        );
    }

    #[test]
    fn broadcast_latency_approaches_t() {
        // T = t * (1 + A/K): with K=32 and A=3 receiver hosts, ~1.1*t.
        let c = cluster(4, 2);
        let task = multicast_task(&c, 32, 3, 2);
        let d = run(&c, &task, Strategy::Broadcast { chunks: 32 });
        let t_unit = 32.0;
        assert!(d < 1.2 * t_unit, "expected close to t = {t_unit}, got {d}");
        assert!(d >= t_unit - 1e-6, "cannot beat the bandwidth bound");
    }

    #[test]
    fn broadcast_matches_closed_form() {
        // Exactly T = t + A*t/K for a line of single-device hosts.
        let c = cluster(4, 1);
        let task = multicast_task(&c, 60, 3, 1);
        let k = 6;
        let d = run(&c, &task, Strategy::Broadcast { chunks: k });
        let t_unit = 60.0;
        // Ring hops: sender -> h1 -> h2 -> h3; 2 extra inter-host hops
        // after the first, each pipelined: T = t * (1 + (hops-1)/K).
        let expect = t_unit * (1.0 + 2.0 / k as f64);
        assert!((d - expect).abs() < 1e-6, "expected {expect}, got {d}");
    }

    #[test]
    fn tree_broadcast_covers_all_receivers() {
        let c = cluster(4, 2);
        let task = multicast_task(&c, 32, 3, 2);
        let mut g = TaskGraph::new();
        let lowered = lower(
            &mut g,
            &task,
            task.senders[0].0,
            Strategy::TreeBroadcast { chunks: 8 },
            &[],
        );
        assert_eq!(lowered.receiver_done.len(), task.receivers.len());
        let t = Engine::new(&c).run(&g).unwrap();
        assert!(t.interval(lowered.done).finish > 0.0);
    }

    /// The chunk a tree-broadcast flow carries, read off its label
    /// (`tb u{unit} c{chunk} ...`).
    fn tree_chunk(g: &TaskGraph, id: TaskId) -> u32 {
        let label = g
            .task(id)
            .label
            .expect("tree flows are labeled")
            .to_string();
        let chunk = label.split(' ').nth(2).expect("tb u c ...");
        chunk[1..].parse().expect("chunk number")
    }

    #[test]
    fn tree_relays_forward_a_chunk_only_after_it_arrived() {
        let c = cluster(8, 2);
        let task = multicast_task(&c, 64, 7, 2);
        let sender = task.senders[0].0;
        let mut g = TaskGraph::new();
        lower(
            &mut g,
            &task,
            sender,
            Strategy::TreeBroadcast { chunks: 8 },
            &[],
        );
        let trace = Engine::new(&c).run(&g).unwrap();
        let flows: Vec<(TaskId, DeviceId, DeviceId, u32)> = g
            .iter()
            .filter_map(|(id, t)| match t.work {
                Work::Flow { src, dst, .. } => Some((id, src, dst, tree_chunk(&g, id))),
                _ => None,
            })
            .collect();
        let mut relays = 0;
        for &(relay, src, _, chunk) in flows.iter().filter(|f| f.1 != sender) {
            let delivered = flows
                .iter()
                .find(|&&(_, _, dst, j)| dst == src && j == chunk)
                .expect("a relay received the chunk it forwards");
            assert!(
                trace.interval(relay).start >= trace.interval(delivered.0).finish,
                "{} starts before {} delivered its chunk",
                g.task(relay).label.unwrap(),
                g.task(delivered.0).label.unwrap(),
            );
            relays += 1;
        }
        assert!(relays > 0);
    }

    #[test]
    fn tree_makespan_grows_with_each_tree_level() {
        // Root plus `hosts` receiver hosts form a binary heap of depth
        // floor(log2(hosts + 1)); every new level adds a relay stage.
        let c = cluster(10, 2);
        let depth = |hosts: u32| (hosts + 1).ilog2();
        let mut prev: Option<(u32, f64)> = None;
        for hosts in 1..=9 {
            let task = multicast_task(&c, 64, hosts, 2);
            let t = run(&c, &task, Strategy::TreeBroadcast { chunks: 8 });
            if let Some((h, before)) = prev {
                assert!(t >= before, "{hosts} hosts: {t} < {before} at {h} hosts");
                if depth(hosts) > depth(h) {
                    assert!(t > before, "a new tree level at {hosts} hosts took no time");
                }
            }
            prev = Some((hosts, t));
        }
    }

    #[test]
    fn ring_beats_tree_for_large_messages() {
        // Tree root sends every chunk twice: ~2t vs the ring's ~t.
        let c = cluster(5, 2);
        let task = multicast_task(&c, 64, 4, 2);
        let ring = run(&c, &task, Strategy::Broadcast { chunks: 32 });
        let tree = run(&c, &task, Strategy::TreeBroadcast { chunks: 32 });
        assert!(
            tree > 1.5 * ring,
            "tree {tree} should pay ~2x bandwidth vs ring {ring}"
        );
        // But the tree still beats naive send/recv.
        let sr = run(&c, &task, Strategy::SendRecv);
        assert!(tree < sr);
    }

    #[test]
    fn intra_host_receivers_use_fast_links() {
        // Receivers on the sender's own host: broadcast never touches the
        // NIC.
        let c = cluster(1, 4);
        let task = UnitTask {
            index: 0,
            slice: Tile::new([0..100]),
            bytes: 100,
            senders: vec![(c.device(0, 0), HostId(0))],
            receivers: (1..4)
                .map(|l| Receiver {
                    device: c.device(0, l),
                    host: HostId(0),
                })
                .collect(),
        };
        let d = run(&c, &task, Strategy::broadcast());
        assert!(d < 2.0, "intra-host broadcast should be fast, got {d}");
    }

    #[test]
    fn receiver_completions_are_ordered_along_the_ring() {
        let c = cluster(4, 1);
        let task = multicast_task(&c, 30, 3, 1);
        let mut g = TaskGraph::new();
        let lowered = lower(
            &mut g,
            &task,
            task.senders[0].0,
            Strategy::Broadcast { chunks: 10 },
            &[],
        );
        let t = Engine::new(&c).run(&g).unwrap();
        let finishes: Vec<f64> = lowered
            .receiver_done
            .iter()
            .map(|&(_, id)| t.interval(id).finish)
            .collect();
        assert!(finishes.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    #[test]
    #[should_panic(expected = "does not hold slice")]
    fn wrong_sender_panics() {
        let c = cluster(2, 2);
        let task = multicast_task(&c, 10, 1, 2);
        let mut g = TaskGraph::new();
        lower(&mut g, &task, c.device(1, 0), Strategy::SendRecv, &[]);
    }

    #[test]
    fn deps_gate_the_first_byte() {
        let c = cluster(2, 1);
        let task = multicast_task(&c, 10, 1, 1);
        let mut g = TaskGraph::new();
        let gate = g.add(Work::compute(c.device(0, 0), 5.0), []);
        let lowered = lower(
            &mut g,
            &task,
            task.senders[0].0,
            Strategy::broadcast(),
            &[gate],
        );
        let t = Engine::new(&c).run(&g).unwrap();
        assert!(t.interval(lowered.done).finish >= 15.0 - 1e-6);
    }

    #[test]
    fn tiny_messages_do_not_over_chunk() {
        let c = cluster(2, 1);
        let task = multicast_task(&c, 3, 1, 1);
        let mut g = TaskGraph::new();
        lower(
            &mut g,
            &task,
            task.senders[0].0,
            Strategy::Broadcast { chunks: 64 },
            &[],
        );
        // 3-byte slice: at most 3 chunks (plus the join marker).
        assert!(g.len() <= 4, "graph has {} tasks", g.len());
    }

    #[test]
    fn multi_rail_spray_uses_every_rail_nic() {
        // 2 hosts × 2 devices, 2 rails at 1 B/s each: spraying 40 bytes
        // drains both rails concurrently (~20 s) where the single-path
        // send/recv takes 40 s.
        use crossmesh_netsim::FabricModel;
        let c = cluster(2, 2).with_fabric(FabricModel::RailOptimized {
            rails: 2,
            spine_capacity: 1.0,
        });
        let task = multicast_task(&c, 40, 1, 1);
        let sr = run(&c, &task, Strategy::SendRecv);
        assert!((sr - 40.0).abs() < 1e-6, "got {sr}");
        let mut g = TaskGraph::new();
        let lowered = lower_unit_task_on(
            &mut g,
            &task,
            task.senders[0].0,
            Strategy::MultiRail {
                rails: 2,
                chunks: 8,
            },
            &[],
            Some(&c),
        );
        assert_eq!(lowered.receiver_done.len(), 1);
        let t = Engine::new(&c).run(&g).unwrap();
        let mr = t.interval(lowered.done).finish;
        assert!(mr < 22.0, "multi-rail should halve the transfer, got {mr}");
        assert!(mr >= 20.0 - 1e-6, "cannot beat the two-rail bound: {mr}");
    }

    #[test]
    fn multi_rail_spray_balances_rails_within_one_chunk() {
        let c = cluster(3, 4);
        // Two remote receivers take the 130-byte slice in 5 chunks each:
        // 10 chunks cannot split evenly over 4 rails.
        let task = UnitTask {
            index: 0,
            slice: Tile::new([0..130]),
            bytes: 130,
            senders: vec![(c.device(0, 0), HostId(0))],
            receivers: vec![
                Receiver {
                    device: c.device(1, 0),
                    host: HostId(1),
                },
                Receiver {
                    device: c.device(2, 0),
                    host: HostId(2),
                },
            ],
        };
        let spray = multi_rail_spray(&task, HostId(0), 4, 5);
        assert_eq!(spray.rail_bytes.len(), 4);
        let total: f64 = spray.rail_bytes.iter().sum();
        assert!((total - 260.0).abs() < 1e-9, "got {total}");
        let max = spray.rail_bytes.iter().cloned().fold(0.0, f64::max);
        let min = spray
            .rail_bytes
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max > min, "rails {:?} split evenly", spray.rail_bytes);
        assert!(
            max - min <= spray.max_chunk_bytes + 1e-9,
            "rails {:?} diverge beyond one chunk ({})",
            spray.rail_bytes,
            spray.max_chunk_bytes
        );
        // Co-hosted receivers are excluded from the spray.
        let local = multi_rail_spray(&task, HostId(1), 4, 5);
        assert!((local.rail_bytes.iter().sum::<f64>() - 130.0).abs() < 1e-9);
    }

    #[test]
    fn multi_rail_without_topology_degrades_to_chunked_direct_flows() {
        // No cluster given: no relays are known, chunks fly sender ->
        // receiver and share the one NIC like send/recv.
        let c = cluster(2, 2);
        let task = multicast_task(&c, 40, 1, 1);
        let d = run(
            &c,
            &task,
            Strategy::MultiRail {
                rails: 2,
                chunks: 8,
            },
        );
        assert!((d - 40.0).abs() < 1e-6, "got {d}");
    }

    #[test]
    fn multi_rail_copies_co_hosted_receivers_over_nvlink() {
        use crossmesh_netsim::FabricModel;
        let c = cluster(1, 4).with_fabric(FabricModel::RailOptimized {
            rails: 2,
            spine_capacity: 1.0,
        });
        let task = UnitTask {
            index: 0,
            slice: Tile::new([0..100]),
            bytes: 100,
            senders: vec![(c.device(0, 0), HostId(0))],
            receivers: (1..4)
                .map(|l| Receiver {
                    device: c.device(0, l),
                    host: HostId(0),
                })
                .collect(),
        };
        let mut g = TaskGraph::new();
        let lowered = lower_unit_task_on(
            &mut g,
            &task,
            task.senders[0].0,
            Strategy::multi_rail(2),
            &[],
            Some(&c),
        );
        assert_eq!(lowered.receiver_done.len(), 3);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!(
            t.interval(lowered.done).finish < 4.0,
            "NVLink copies only, got {}",
            t.interval(lowered.done).finish
        );
    }
}
