//! Decomposition of a cross-mesh resharding task into unit communication
//! tasks (paper §2.2).

use crate::device_mesh::DeviceMesh;
use crate::error::MeshError;
use crate::layout::Layout;
use crate::spec::ShardingSpec;
use crate::tile::Tile;
use crossmesh_netsim::{DeviceId, HostId};
use serde::{Deserialize, Serialize};

/// A destination device of a unit task; it takes the unit's whole slice.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Receiver {
    /// The receiving device.
    pub device: DeviceId,
    /// Host owning `device`.
    pub host: HostId,
}

/// One *unit communication task*: a data slice `DS_i` that must travel
/// from its replica set `N_i` on the source mesh to the receiver set `M_i`
/// on the destination mesh, each receiver taking all of it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitTask {
    /// Position within the resharding task's deterministic slice order.
    pub index: usize,
    /// A unique source slice's intersection with a unique destination one.
    pub slice: Tile,
    /// Size of the slice in bytes.
    pub bytes: u64,
    /// Devices on the source mesh holding a replica of the slice
    /// (`N_i`), with their hosts; row-major mesh order.
    pub senders: Vec<(DeviceId, HostId)>,
    /// Devices on the destination mesh taking the slice (`M_i`);
    /// row-major mesh order.
    pub receivers: Vec<Receiver>,
}

impl UnitTask {
    /// Distinct hosts holding a replica, ascending.
    pub fn sender_hosts(&self) -> Vec<HostId> {
        distinct_ascending(self.senders.iter().map(|&(_, h)| h))
    }

    /// Distinct hosts receiving the slice, ascending.
    pub fn receiver_hosts(&self) -> Vec<HostId> {
        distinct_ascending(self.receivers.iter().map(|r| r.host))
    }
}

/// The distinct hosts of `hosts`, ascending, in one allocation.
fn distinct_ascending(hosts: impl Iterator<Item = HostId>) -> Vec<HostId> {
    let mut hosts: Vec<HostId> = hosts.collect();
    hosts.sort_unstable();
    hosts.dedup();
    hosts
}

/// Decomposes the cross-mesh resharding of a tensor with `shape` and
/// `elem_bytes`-byte elements, from `src_spec` on `src_mesh` to `dst_spec`
/// on `dst_mesh`, into unit communication tasks.
///
/// One task is produced per non-empty intersection of a unique source slice
/// and a unique destination slice: the granularity the paper's evaluation
/// counts (Table 2 case 4 "has 64 unit communication tasks": 8 source × 8
/// destination shards). Its senders are the replicas of the source slice
/// and its receivers the replicas of the destination slice, each taking the
/// whole intersection.
///
/// # Errors
///
/// Returns [`MeshError::OverlappingMeshes`] if the meshes share a device,
/// or any layout error from [`Layout::new`].
pub fn unit_tasks(
    src_mesh: &DeviceMesh,
    src_spec: &ShardingSpec,
    dst_mesh: &DeviceMesh,
    dst_spec: &ShardingSpec,
    shape: &[u64],
    elem_bytes: u64,
) -> Result<Vec<UnitTask>, MeshError> {
    if !src_mesh.is_disjoint(dst_mesh) {
        return Err(MeshError::OverlappingMeshes);
    }
    let src_layout = Layout::new(src_mesh, src_spec, shape)?;
    let dst_layout = Layout::new(dst_mesh, dst_spec, shape)?;

    let mut tasks = Vec::new();
    for (slice, replicas) in src_layout.unique_slices() {
        let senders: Vec<(DeviceId, HostId)> = replicas
            .iter()
            .map(|&c| (src_mesh.device(c), src_mesh.host(c)))
            .collect();
        for (dst_slice, dst_replicas) in dst_layout.unique_slices() {
            let Some(inter) = slice.intersect(&dst_slice) else {
                continue;
            };
            let receivers = dst_replicas
                .iter()
                .map(|&c| Receiver {
                    device: dst_mesh.device(c),
                    host: dst_mesh.host(c),
                })
                .collect();
            tasks.push(UnitTask {
                index: tasks.len(),
                bytes: inter.volume() * elem_bytes,
                slice: inter,
                senders: senders.clone(),
                receivers,
            });
        }
    }
    Ok(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    /// Figure 2's setting: two 2x2 meshes over four 2-GPU hosts.
    fn meshes() -> (DeviceMesh, DeviceMesh, ClusterSpec) {
        let c = ClusterSpec::homogeneous(4, 2, LinkParams::new(10e9, 1e9));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 2), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 2), "B").unwrap();
        (a, b, c)
    }

    fn spec(s: &str) -> ShardingSpec {
        s.parse().unwrap()
    }

    #[test]
    fn figure2_task1_s01r_to_s0r() {
        // 4 unit tasks (one per source row); the first row is needed by
        // both devices of the destination's first mesh row.
        let (a, b, _) = meshes();
        let tasks = unit_tasks(&a, &spec("S01R"), &b, &spec("S0R"), &[4, 4], 1).unwrap();
        assert_eq!(tasks.len(), 4);
        let t0 = &tasks[0];
        assert_eq!(t0.slice, Tile::new([0..1, 0..4]));
        assert_eq!(t0.bytes, 4);
        assert_eq!(t0.senders.len(), 1, "S^{{01}} has no replicas");
        assert_eq!(t0.receivers.len(), 2);
    }

    #[test]
    fn figure2_task2_s0r_to_s0s1() {
        // At tile granularity: 2 unique source half-tensors x 2 destination
        // quarters each = 4 unit tasks, one receiver each, 2 sender
        // replicas each.
        let (a, b, _) = meshes();
        let tasks = unit_tasks(&b, &spec("S0R"), &a, &spec("S0S1"), &[4, 4], 1).unwrap();
        assert_eq!(tasks.len(), 4);
        let t0 = &tasks[0];
        assert_eq!(t0.slice, Tile::new([0..2, 0..2]));
        assert_eq!(t0.senders.len(), 2, "S^0 R replicates along axis 1");
        assert_eq!(t0.receivers.len(), 1);
    }

    #[test]
    fn case4_like_decomposition_yields_64_tasks() {
        // Table 2 case 4: RS^{01}R -> S^{01}RR on (2,4) meshes; the paper
        // reports 64 unit communication tasks (8 source x 8 destination
        // shards).
        let c = ClusterSpec::homogeneous(4, 4, LinkParams::new(10e9, 1e9));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 4), "B").unwrap();
        let tasks = unit_tasks(&a, &spec("RS01R"), &b, &spec("S01RR"), &[64, 64, 8], 1).unwrap();
        assert_eq!(tasks.len(), 64);
    }

    #[test]
    fn replicated_to_replicated_is_one_multicast() {
        let (a, b, _) = meshes();
        let tasks = unit_tasks(&a, &spec("RR"), &b, &spec("RR"), &[4, 4], 2).unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].senders.len(), 4);
        assert_eq!(tasks[0].receivers.len(), 4);
        assert_eq!(tasks[0].bytes, 32);
    }

    #[test]
    fn overlapping_meshes_rejected() {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(10e9, 1e9));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 2), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 1, (1, 2), "B").unwrap();
        let err = unit_tasks(&a, &spec("RR"), &b, &spec("RR"), &[4, 4], 1).unwrap_err();
        assert_eq!(err, MeshError::OverlappingMeshes);
    }

    #[test]
    fn every_destination_tile_is_fully_covered() {
        // Union of received slices must exactly cover each dst tile.
        let (a, b, _) = meshes();
        for (sa, sb) in [
            ("S0R", "RS1"),
            ("S01R", "S0S1"),
            ("RS0", "S1R"),
            ("RR", "S01R"),
            ("S0S1", "S1S0"),
        ] {
            let tasks = unit_tasks(&a, &spec(sa), &b, &spec(sb), &[8, 8], 1).unwrap();
            let dst_layout = Layout::new(&b, &spec(sb), &[8, 8]).unwrap();
            for coord in b.coords() {
                let dev = b.device(coord);
                let tile = dst_layout.tile_at(coord);
                if tile.is_empty() {
                    continue;
                }
                let got: u64 = tasks
                    .iter()
                    .flat_map(|t| {
                        t.receivers
                            .iter()
                            .map(move |r| (r.device, t.slice.volume()))
                    })
                    .filter(|&(d, _)| d == dev)
                    .map(|(_, v)| v)
                    .sum();
                assert_eq!(
                    got,
                    tile.volume(),
                    "device {dev} not exactly covered for {sa}->{sb}"
                );
            }
        }
    }

    #[test]
    fn total_bytes_equal_tensor_size() {
        // Lower bound of §2.2: the unique slices partition the tensor.
        let (a, b, _) = meshes();
        let tasks = unit_tasks(&a, &spec("S0S1"), &b, &spec("RS0"), &[16, 8], 4).unwrap();
        let total: u64 = tasks.iter().map(|t| t.bytes).sum();
        assert_eq!(total, 16 * 8 * 4);
    }

    #[test]
    fn host_helpers() {
        let (a, b, _) = meshes();
        let tasks = unit_tasks(&a, &spec("RR"), &b, &spec("RR"), &[4, 4], 1).unwrap();
        let t = &tasks[0];
        assert_eq!(t.sender_hosts(), vec![HostId(0), HostId(1)]);
        assert_eq!(t.receiver_hosts(), vec![HostId(2), HostId(3)]);
    }

    #[test]
    fn host_helpers_match_the_tree_built_sets() {
        use std::collections::BTreeSet;
        let c = ClusterSpec::homogeneous(6, 4, LinkParams::new(10e9, 1e9));
        // A source mesh whose rows sit on hosts 1 then 0, so replicated
        // slices list their senders out of host order.
        let reversed = {
            let fwd = DeviceMesh::from_cluster(&c, 0, (2, 4), "fwd").unwrap();
            let (top, bottom) = fwd.devices().split_at(4);
            let devices = [bottom, top].concat();
            let hosts = [[HostId(1); 4], [HostId(0); 4]].concat();
            DeviceMesh::new("rev", (2, 4), devices, hosts).unwrap()
        };
        let sources = [
            DeviceMesh::from_cluster(&c, 0, (2, 4), "A").unwrap(),
            DeviceMesh::from_cluster(&c, 0, (1, 3), "A").unwrap(),
            reversed,
        ];
        let destinations = [
            DeviceMesh::from_cluster(&c, 2, (2, 4), "B").unwrap(),
            DeviceMesh::from_cluster(&c, 2, (4, 2), "B").unwrap(),
        ];
        let specs = ["RRR", "S0RR", "RS1R", "S01RR", "RS0S1", "S1RS0", "RRS01"];
        let mut unsorted_senders = 0;
        for (a, b) in sources
            .iter()
            .flat_map(|a| destinations.iter().map(move |b| (a, b)))
        {
            for (sa, sb) in specs
                .iter()
                .flat_map(|sa| specs.iter().map(move |sb| (sa, sb)))
            {
                let tasks = unit_tasks(a, &spec(sa), b, &spec(sb), &[8, 12, 8], 1).unwrap();
                for t in &tasks {
                    let senders: BTreeSet<HostId> = t.senders.iter().map(|&(_, h)| h).collect();
                    let receivers: BTreeSet<HostId> = t.receivers.iter().map(|r| r.host).collect();
                    assert!(t.sender_hosts().into_iter().eq(senders));
                    assert!(t.receiver_hosts().into_iter().eq(receivers));
                    unsorted_senders +=
                        usize::from(!t.senders.windows(2).all(|w| w[0].1 <= w[1].1));
                }
            }
        }
        assert!(
            unsorted_senders > 0,
            "the sweep must cover unsorted senders"
        );
    }

    #[test]
    fn uneven_shapes_produce_consistent_tasks() {
        let (a, b, _) = meshes();
        // 5 rows over 4 source shards ([0,2),[2,4),[4,5), one empty) and 2
        // destination shards ([0,3),[3,5)): 4 non-empty intersections.
        let tasks = unit_tasks(&a, &spec("S01R"), &b, &spec("S0R"), &[5, 3], 1).unwrap();
        assert_eq!(tasks.len(), 4);
        let total: u64 = tasks.iter().map(|t| t.bytes).sum();
        assert_eq!(total, 15);
    }
}
