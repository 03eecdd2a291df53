//! Closed-form latency estimates (paper §3.1).
//!
//! The planner in `crossmesh-core` needs cheap duration estimates `T_i` for
//! unit communication tasks to balance loads and order schedules; these
//! mirror the paper's analytic expressions rather than running the
//! simulator.

use crate::strategy::Strategy;
use crossmesh_mesh::UnitTask;
use crossmesh_netsim::{ClusterSpec, HostId};
use serde::{Deserialize, Serialize};

/// Bandwidth/latency parameters for the closed-form estimates, assuming a
/// homogeneous cluster (the paper's setting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Inter-host (NIC) bandwidth, bytes/s.
    pub inter_bw: f64,
    /// Intra-host (NVLink-class) bandwidth, bytes/s.
    pub intra_bw: f64,
    /// Fixed latency of an inter-host flow, seconds.
    pub inter_latency: f64,
    /// Fixed latency of an intra-host flow, seconds.
    pub intra_latency: f64,
}

impl Default for CostParams {
    /// The paper's evaluation cluster class: NVLink-class 100 GB/s
    /// intra-host, 10 Gbps (1.25 GB/s) inter-host.
    fn default() -> Self {
        CostParams {
            inter_bw: 1.25e9,
            intra_bw: 100e9,
            inter_latency: 25e-6,
            intra_latency: 5e-6,
        }
    }
}

impl CostParams {
    /// Extracts parameters from a cluster (uses host 0; the workspace's
    /// evaluation clusters are homogeneous).
    pub fn from_cluster(cluster: &ClusterSpec) -> Self {
        let links = cluster.host(HostId(0)).links;
        CostParams {
            inter_bw: links.inter_host_bw,
            intra_bw: links.intra_host_bw,
            inter_latency: links.inter_host_latency,
            intra_latency: links.intra_host_latency,
        }
    }
}

/// Estimates the completion time of one unit task executed in isolation by
/// `sender_host` under `strategy`.
///
/// `A` below is the number of receiver hosts other than the sender's, `t`
/// the time for the slice to cross one inter-host link.
pub fn estimate_unit_task(
    params: &CostParams,
    task: &UnitTask,
    sender_host: HostId,
    strategy: Strategy,
) -> f64 {
    let bytes = task.bytes as f64;
    let t_inter = bytes / params.inter_bw;
    let remote_hosts = task
        .receiver_hosts()
        .into_iter()
        .filter(|&h| h != sender_host)
        .count() as f64;

    match strategy {
        Strategy::SendRecv => {
            // Each receiver gets the whole slice; remote ones share the
            // sender NIC, local ones the NVLink.
            let (inter, intra) = split_by_host(task, sender_host);
            inter / params.inter_bw + intra / params.intra_bw + params.inter_latency
        }
        Strategy::LocalAllGather => {
            // One slice copy per remote host through the sender NIC, then
            // the slowest intra-host reassembly.
            let mut worst_gather = 0.0f64;
            for h in task.receiver_hosts() {
                let b_h = task.receivers.iter().filter(|r| r.host == h).count() as f64;
                if b_h > 1.0 {
                    let gather = (b_h - 1.0) / b_h * bytes / params.intra_bw;
                    worst_gather = worst_gather.max(gather);
                }
            }
            remote_hosts * t_inter + worst_gather + params.inter_latency
        }
        Strategy::GlobalAllGather => {
            if remote_hosts == 0.0 {
                // Purely intra-host: scatter + gather over NVLink.
                2.0 * bytes / params.intra_bw + params.intra_latency
            } else {
                // Scatter ~t + host-crossing ring all-gather ~t.
                2.0 * t_inter + params.inter_latency
            }
        }
        Strategy::Broadcast { chunks } => {
            // A chunked chain of hops completes in (slowest hop) plus one
            // chunk-time per additional hop: with `A` inter-host hops the
            // first inter-host hop is the bottleneck `t` and each further
            // inter-host hop adds `t/K` of pipeline fill (intra-host hops
            // add a negligible `t_intra/K`).
            let k = chunks.max(1) as f64;
            if remote_hosts == 0.0 {
                let hops = task.receivers.len() as f64;
                bytes / params.intra_bw * (1.0 + (hops - 1.0).max(0.0) / k) + params.intra_latency
            } else {
                t_inter * (1.0 + (remote_hosts - 1.0) / k) + params.inter_latency
            }
        }
        Strategy::MultiRail { rails, chunks } => {
            // The sprayed bytes drain over `rails` parallel NICs; each
            // remote receiver adds its copy of the slice to the spray pool. The
            // two relay hops ride the fast intra-host links, pipelined per
            // chunk, so they contribute a bandwidth term of `2·b/intra` at
            // chunk granularity plus the pipeline fill.
            let r = rails.max(1) as f64;
            let k = chunks.max(1) as f64;
            let (inter, intra) = split_by_host(task, sender_host);
            let relay_fill = 2.0 * (inter / k.max(1.0)) / params.intra_bw;
            inter / (r * params.inter_bw)
                + intra / params.intra_bw
                + relay_fill
                + params.inter_latency
        }
        Strategy::TreeBroadcast { chunks } => {
            // Inner tree nodes forward each chunk to two children, so the
            // bandwidth term doubles once there is more than one remote
            // host; the pipeline-fill term scales with the tree depth.
            let k = chunks.max(1) as f64;
            if remote_hosts == 0.0 {
                let hops = task.receivers.len() as f64;
                bytes / params.intra_bw * (1.0 + (hops - 1.0).max(0.0) / k) + params.intra_latency
            } else {
                let fanout = remote_hosts.min(2.0);
                let depth = (remote_hosts + 1.0).log2().ceil();
                fanout * t_inter * (1.0 + (depth - 1.0).max(0.0) / k) + params.inter_latency
            }
        }
    }
}

/// Bytes `task` sends to receivers off and on `sender_host`, summed in
/// receiver order: every receiver takes the whole slice.
fn split_by_host(task: &UnitTask, sender_host: HostId) -> (f64, f64) {
    let (mut inter, mut intra) = (0.0, 0.0);
    for r in &task.receivers {
        if r.host == sender_host {
            intra += task.bytes as f64;
        } else {
            inter += task.bytes as f64;
        }
    }
    (inter, intra)
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crossmesh_mesh::{Receiver, Tile};
    use crossmesh_netsim::DeviceId;

    fn params() -> CostParams {
        CostParams {
            inter_bw: 1.0,
            intra_bw: 100.0,
            inter_latency: 0.0,
            intra_latency: 0.0,
        }
    }

    fn task(bytes: u64, hosts: u32, per_host: u32) -> UnitTask {
        UnitTask {
            index: 0,
            slice: Tile::new([0..bytes]),
            bytes,
            senders: vec![(DeviceId(0), HostId(0))],
            receivers: (1..=hosts)
                .flat_map(|h| (0..per_host).map(move |l| (h, l)))
                .map(|(h, l)| Receiver {
                    device: DeviceId(h * 8 + l),
                    host: HostId(h),
                })
                .collect(),
        }
    }

    #[test]
    fn paper_ordering_of_strategies() {
        // T^sr = ABt  >  T^srla = At  >  T^srga = 2t  >  T^bc ≈ t.
        let p = params();
        let t = task(100, 4, 2);
        let sr = estimate_unit_task(&p, &t, HostId(0), Strategy::SendRecv);
        let la = estimate_unit_task(&p, &t, HostId(0), Strategy::LocalAllGather);
        let ga = estimate_unit_task(&p, &t, HostId(0), Strategy::GlobalAllGather);
        let bc = estimate_unit_task(&p, &t, HostId(0), Strategy::Broadcast { chunks: 100 });
        assert!(sr > la && la > ga && ga > bc, "{sr} {la} {ga} {bc}");
        assert!((sr - 800.0).abs() < 1.0, "ABt = 8*100");
        assert!((la - 400.5).abs() < 1.0, "At + gather");
        assert!((ga - 200.0).abs() < 1.0, "2t");
        assert!((bc - 103.0).abs() < 1.0, "t(1 + (A-1)/K)");
    }

    #[test]
    fn broadcast_to_local_receivers_avoids_nic() {
        let p = params();
        let mut t = task(100, 1, 4);
        for r in &mut t.receivers {
            r.host = HostId(0);
        }
        let bc = estimate_unit_task(&p, &t, HostId(0), Strategy::broadcast());
        assert!(bc < 2.0, "intra-host broadcast should be ~1s, got {bc}");
    }

    #[test]
    fn multi_rail_divides_the_inter_host_term_by_rails() {
        let p = params();
        let t = task(100, 1, 1);
        let sr = estimate_unit_task(&p, &t, HostId(0), Strategy::SendRecv);
        let mr = estimate_unit_task(&p, &t, HostId(0), Strategy::multi_rail(4));
        assert!((sr - 100.0).abs() < 1.0, "got {sr}");
        assert!(
            mr < sr / 3.0,
            "4 rails should near-quarter it: {mr} vs {sr}"
        );
        assert!(mr >= 25.0 - 1e-9, "cannot beat the 4-rail bound: {mr}");
    }

    #[test]
    fn from_cluster_reads_link_params() {
        let c = ClusterSpec::homogeneous(2, 2, crossmesh_netsim::LinkParams::new(100e9, 1.25e9));
        let p = CostParams::from_cluster(&c);
        assert_eq!(p.inter_bw, 1.25e9);
        assert_eq!(p.intra_bw, 100e9);
    }
}
