//! Ring collectives lowered onto the simulator.

use crossmesh_netsim::{DeviceId, Label, TaskGraph, TaskId, Work};

/// The completion handles of a ring collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingResult {
    /// One task id per participant, completing when that participant holds
    /// its full result.
    pub done_per_device: Vec<TaskId>,
    /// Joins all participants.
    pub done: TaskId,
}

/// Lowers a ring all-gather over `participants` into `graph`.
///
/// Participant `i` initially holds part `i` of `part_bytes[i]` bytes, ready
/// once the tasks in `part_ready[i]` complete; after `N−1` steps every
/// participant holds all parts. Step `s` has participant `i` forwarding the
/// part it received in step `s−1` to participant `(i+1) mod N`.
///
/// # Example
///
/// ```
/// use crossmesh_collectives::ring_all_gather;
/// use crossmesh_netsim::{ClusterSpec, Engine, LinkParams, TaskGraph};
///
/// # fn main() -> Result<(), crossmesh_netsim::SimError> {
/// let cluster = ClusterSpec::homogeneous(1, 4, LinkParams::new(100e9, 1.25e9));
/// let devices: Vec<_> = (0..4).map(|i| cluster.device(0, i)).collect();
/// let mut graph = TaskGraph::new();
/// let result = ring_all_gather(&mut graph, &devices, &[2.5e8; 4], &vec![vec![]; 4]);
/// let trace = Engine::new(&cluster).run(&graph)?;
/// // (N-1)/N of 1 GB over 100 GB/s NVLink: ~7.5 ms.
/// assert!(trace.interval(result.done).finish < 0.01);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if the three slices have different lengths or are empty, or if a
/// participant repeats.
pub fn ring_all_gather<R: AsRef<[TaskId]>>(
    graph: &mut TaskGraph,
    participants: &[DeviceId],
    part_bytes: &[f64],
    part_ready: &[R],
) -> RingResult {
    let n = participants.len();
    assert!(n > 0, "ring needs at least one participant");
    assert_eq!(part_bytes.len(), n, "one part size per participant");
    assert_eq!(part_ready.len(), n, "one ready set per participant");
    {
        let mut sorted = participants.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "ring participants must be distinct");
    }
    let ready = |i: usize| part_ready[i].as_ref().iter().copied();

    if n == 1 {
        let done = graph.add(Work::Marker, ready(0));
        return RingResult {
            done_per_device: vec![done],
            done,
        };
    }

    // sent[s * n + i]: the flow participant i sends at step s.
    let mut sent: Vec<TaskId> = Vec::with_capacity((n - 1) * n);
    for s in 0..n - 1 {
        for i in 0..n {
            let next = (i + 1) % n;
            // The part i sends at step s is part (i - s) mod n.
            let part = (i + n - s % n) % n;
            let work = Work::flow(participants[i], participants[next], part_bytes[part]);
            let label = Label::new(
                "ag[s{}] d{}->d{}",
                [s as u32, participants[i].0, participants[next].0],
            );
            let flow = if s == 0 {
                graph.add_labeled(work, ready(i), label)
            } else {
                // It received this part from its predecessor last step,
                // and sends in lockstep with its own previous send.
                let pred = (i + n - 1) % n;
                let last = (s - 1) * n;
                graph.add_labeled(work, [sent[last + pred], sent[last + i]], label)
            };
            sent.push(flow);
        }
    }

    // Participant i receives every step's flow from its predecessor.
    let done_per_device: Vec<TaskId> = (0..n)
        .map(|i| {
            let pred = (i + n - 1) % n;
            let received = (0..n - 1).map(|s| sent[s * n + pred]);
            graph.add(Work::Marker, received.chain(ready(i)))
        })
        .collect();
    let done = graph.add(Work::Marker, done_per_device.iter().copied());
    RingResult {
        done_per_device,
        done,
    }
}

/// Lowers a ring all-reduce of `total_bytes` over `participants`:
/// a reduce-scatter followed by an all-gather, `2(N−1)` steps of
/// `total_bytes / N` each.
///
/// # Panics
///
/// Panics if `participants` is empty or repeats, or if `ready` length
/// differs from the participant count.
pub fn ring_all_reduce<R: AsRef<[TaskId]>>(
    graph: &mut TaskGraph,
    participants: &[DeviceId],
    total_bytes: f64,
    ready: &[R],
) -> RingResult {
    let n = participants.len();
    assert!(n > 0, "ring needs at least one participant");
    assert_eq!(ready.len(), n, "one ready set per participant");
    if n == 1 {
        let done = graph.add(Work::Marker, ready[0].as_ref().iter().copied());
        return RingResult {
            done_per_device: vec![done],
            done,
        };
    }
    let chunk = total_bytes / n as f64;
    // Reduce-scatter: N-1 rounds of neighbour exchanges; sent[s * n + i]
    // is the flow participant i sends in round s.
    let mut sent: Vec<TaskId> = Vec::with_capacity((n - 1) * n);
    for s in 0..n - 1 {
        for i in 0..n {
            let next = (i + 1) % n;
            let work = Work::flow(participants[i], participants[next], chunk);
            let label = Label::new("rs[s{}]", [s as u32]);
            let flow = if s == 0 {
                graph.add_labeled(work, ready[i].as_ref().iter().copied(), label)
            } else {
                let pred = (i + n - 1) % n;
                let last = (s - 1) * n;
                graph.add_labeled(work, [sent[last + pred], sent[last + i]], label)
            };
            sent.push(flow);
        }
    }
    // All-gather phase on the reduced chunks.
    let prev = &sent[(n - 2) * n..];
    let part_ready: Vec<[TaskId; 2]> = (0..n).map(|i| [prev[(i + n - 1) % n], prev[i]]).collect();
    ring_all_gather(graph, participants, &vec![chunk; n], &part_ready)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, Engine, LinkParams};

    fn links(intra: f64, inter: f64) -> LinkParams {
        LinkParams::new(intra, inter).with_latencies(0.0, 0.0)
    }

    #[test]
    fn intra_host_all_gather_takes_n_minus_1_steps() {
        // 4 devices on one host, parts of 1 byte, 10 B/s NVLink:
        // 3 steps x (1/10)s = 0.3 s.
        let c = ClusterSpec::homogeneous(1, 4, links(10.0, 1.0));
        let mut g = TaskGraph::new();
        let devs: Vec<_> = (0..4).map(|i| c.device(0, i)).collect();
        let r = ring_all_gather(&mut g, &devs, &[1.0; 4], &vec![vec![]; 4]);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(r.done).finish - 0.3).abs() < 1e-9);
    }

    #[test]
    fn cross_host_all_gather_is_nic_bound() {
        // 2 hosts x 1 device: 1 step, each device sends its part across.
        let c = ClusterSpec::homogeneous(2, 1, links(10.0, 1.0));
        let mut g = TaskGraph::new();
        let devs = vec![c.device(0, 0), c.device(1, 0)];
        let r = ring_all_gather(&mut g, &devs, &[2.0, 2.0], &vec![vec![]; 2]);
        let t = Engine::new(&c).run(&g).unwrap();
        // Both directions concurrent (full duplex): 2 bytes at 1 B/s.
        assert!((t.interval(r.done).finish - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_participant_is_instant() {
        let c = ClusterSpec::homogeneous(1, 1, links(10.0, 1.0));
        let mut g = TaskGraph::new();
        let r = ring_all_gather(&mut g, &[c.device(0, 0)], &[5.0], &[vec![]]);
        let t = Engine::new(&c).run(&g).unwrap();
        assert_eq!(t.interval(r.done).finish, 0.0);
    }

    #[test]
    fn all_gather_total_time_approaches_bandwidth_bound() {
        // Ring all-gather of D bytes over n intra-host devices moves
        // (n-1)/n * D per device: time = (n-1)/n * D / bw.
        let c = ClusterSpec::homogeneous(1, 8, links(100.0, 1.0));
        let mut g = TaskGraph::new();
        let devs: Vec<_> = (0..8).map(|i| c.device(0, i)).collect();
        let d_total = 80.0;
        let part = d_total / 8.0;
        let r = ring_all_gather(&mut g, &devs, &[part; 8], &vec![vec![]; 8]);
        let t = Engine::new(&c).run(&g).unwrap();
        let expect = (7.0 / 8.0) * d_total / 100.0;
        assert!((t.interval(r.done).finish - expect).abs() < 1e-9);
    }

    #[test]
    fn all_reduce_takes_two_phases() {
        // 4 intra-host devices, 8 bytes total: 2*(4-1)=6 steps of 2 bytes
        // at 10 B/s = 1.2 s.
        let c = ClusterSpec::homogeneous(1, 4, links(10.0, 1.0));
        let mut g = TaskGraph::new();
        let devs: Vec<_> = (0..4).map(|i| c.device(0, i)).collect();
        let r = ring_all_reduce(&mut g, &devs, 8.0, &vec![vec![]; 4]);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!((t.interval(r.done).finish - 1.2).abs() < 1e-9);
    }

    #[test]
    fn ready_dependencies_delay_the_ring() {
        let c = ClusterSpec::homogeneous(1, 2, links(10.0, 1.0));
        let mut g = TaskGraph::new();
        let devs = vec![c.device(0, 0), c.device(0, 1)];
        let gate = g.add(Work::compute(devs[0], 1.0), []);
        let r = ring_all_gather(&mut g, &devs, &[1.0, 1.0], &[vec![gate], vec![]]);
        let t = Engine::new(&c).run(&g).unwrap();
        assert!(t.interval(r.done).finish >= 1.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_participants_panic() {
        let c = ClusterSpec::homogeneous(1, 2, links(10.0, 1.0));
        let mut g = TaskGraph::new();
        let d = c.device(0, 0);
        ring_all_gather(&mut g, &[d, d], &[1.0, 1.0], &vec![vec![]; 2]);
    }
}
