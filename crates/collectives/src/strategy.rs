//! The strategy taxonomy of §3.1.

use crossmesh_mesh::UnitTask;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default number of chunks for the pipelined ring broadcast. The paper
/// uses `K ≈ 100`; the overhead term is `A/K` so anything ≫ the host count
/// is near-optimal.
pub const DEFAULT_BROADCAST_CHUNKS: u32 = 64;

/// How a single unit communication task is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// The chosen sender P2Ps the whole slice to each receiver.
    /// Latency grows with the number of receiving *devices* (`A·B·t`).
    SendRecv,
    /// Each receiver host gets one copy of the slice, scattered over its
    /// receiver devices, which then re-assemble it with an intra-host ring
    /// all-gather. Latency grows with the number of receiving *hosts*
    /// (`A·t`). This is the Megatron-LM-style offload.
    LocalAllGather,
    /// The slice is scattered over *all* receiver devices, which then run a
    /// global ring all-gather (crossing hosts). Idealised latency `2·t`.
    /// This is the Alpa baseline in the paper's benchmarks.
    GlobalAllGather,
    /// Pipelined ring broadcast: the slice is cut into `chunks` pieces that
    /// stream along a ring from the sender through every receiver, hosts
    /// visited consecutively. Latency `t·(1 + A/K)` — optimal as `K` grows.
    Broadcast {
        /// Number of pipeline chunks (`K`).
        chunks: u32,
    },
    /// RailS-style multi-rail spray for rail-optimized fabrics: the sender
    /// splits the slice into `chunks` pieces and sprays them across the
    /// host's `rails` NICs, relaying each chunk over NVLink to the
    /// co-hosted device on the target rail, crossing on that rail, and
    /// relaying again to the receiver. All rails drain in parallel, so the
    /// inter-host term shrinks to `t/rails` — the per-sender load balancing
    /// that makes skewed MoE all-to-alls rail-limited instead of
    /// NIC-limited. Chunks are assigned to rails by greatest residual
    /// capacity (equivalently, least accumulated bytes; ties to the lowest
    /// rail), so skewed chunk tails still balance.
    MultiRail {
        /// Number of rail planes sprayed over.
        rails: u32,
        /// Number of spray chunks (≥ `rails` for full utilization).
        chunks: u32,
    },
    /// Pipelined *binary-tree* broadcast over receiver hosts: lower hop
    /// depth (`log₂ A`) but each inner node sends every chunk twice, so
    /// the bandwidth term doubles (`≈ 2t` for large messages). The classic
    /// latency-optimized alternative from the collectives literature; the
    /// paper's bandwidth-bound regime favours the ring, which this
    /// strategy exists to demonstrate.
    TreeBroadcast {
        /// Number of pipeline chunks (`K`).
        chunks: u32,
    },
}

impl Strategy {
    /// The paper's broadcast strategy with the default chunk count.
    pub fn broadcast() -> Self {
        Strategy::Broadcast {
            chunks: DEFAULT_BROADCAST_CHUNKS,
        }
    }

    /// A multi-rail spray over `rails` rails with one chunk wave per rail
    /// by default (4 chunks per rail).
    pub fn multi_rail(rails: u32) -> Self {
        Strategy::MultiRail {
            rails,
            chunks: rails.max(1) * 4,
        }
    }

    /// A short identifier used in labels and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::SendRecv => "send_recv",
            Strategy::LocalAllGather => "local_allgather",
            Strategy::GlobalAllGather => "global_allgather",
            Strategy::Broadcast { .. } => "broadcast",
            Strategy::MultiRail { .. } => "multi_rail",
            Strategy::TreeBroadcast { .. } => "tree_broadcast",
        }
    }
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::broadcast()
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Broadcast { chunks } => write!(f, "broadcast(K={chunks})"),
            Strategy::MultiRail { rails, chunks } => {
                write!(f, "multi_rail(rails={rails}, K={chunks})")
            }
            Strategy::TreeBroadcast { chunks } => write!(f, "tree_broadcast(K={chunks})"),
            other => f.write_str(other.label()),
        }
    }
}

/// The strategy the Alpa baseline would effectively use for `task`.
///
/// Alpa's all-gather path requires the slice to split evenly over the
/// receiver devices; on uneven partitions it falls back to plain
/// send/recv. The paper's Figure 5 shows this as the sudden slowdown at 3
/// GPUs / 3 nodes.
pub fn alpa_effective_strategy(task: &UnitTask) -> Strategy {
    let n = task.receivers.len() as u64;
    if n > 1 && task.slice.volume().is_multiple_of(n) {
        Strategy::GlobalAllGather
    } else {
        // Single receiver, or an uneven partition Alpa cannot all-gather.
        Strategy::SendRecv
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crossmesh_mesh::Tile;
    use crossmesh_mesh::{Receiver, UnitTask};
    use crossmesh_netsim::{DeviceId, HostId};

    fn task(volume: u64, receivers: usize) -> UnitTask {
        UnitTask {
            index: 0,
            slice: Tile::new([0..volume]),
            bytes: volume,
            senders: vec![(DeviceId(0), HostId(0))],
            receivers: (0..receivers)
                .map(|i| Receiver {
                    device: DeviceId(10 + i as u32),
                    host: HostId(1),
                })
                .collect(),
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Strategy::SendRecv.to_string(), "send_recv");
        assert_eq!(Strategy::broadcast().to_string(), "broadcast(K=64)");
        assert_eq!(Strategy::default(), Strategy::broadcast());
        assert_eq!(
            Strategy::multi_rail(4).to_string(),
            "multi_rail(rails=4, K=16)"
        );
        assert_eq!(Strategy::multi_rail(4).label(), "multi_rail");
    }

    #[test]
    fn alpa_uses_allgather_on_even_partitions() {
        assert_eq!(
            alpa_effective_strategy(&task(12, 4)),
            Strategy::GlobalAllGather
        );
    }

    #[test]
    fn alpa_falls_back_on_uneven_partitions() {
        assert_eq!(alpa_effective_strategy(&task(10, 3)), Strategy::SendRecv);
    }

    #[test]
    fn alpa_single_receiver_is_p2p() {
        assert_eq!(alpa_effective_strategy(&task(10, 1)), Strategy::SendRecv);
    }
}
