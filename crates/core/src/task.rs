//! The full cross-mesh resharding problem instance.

use crate::exclusions::{RepairError, SenderExclusions};
use crossmesh_mesh::{unit_tasks, DeviceMesh, MeshError, ShardingSpec, UnitTask};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One cross-mesh resharding task: send a tensor sharded as `src_spec` on
/// `src_mesh` so it appears as `dst_spec` on `dst_mesh`.
///
/// Construction eagerly decomposes the task into unit communication tasks;
/// planners and schedules operate on that decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReshardingTask {
    src_mesh: DeviceMesh,
    src_spec: ShardingSpec,
    dst_mesh: DeviceMesh,
    dst_spec: ShardingSpec,
    shape: Vec<u64>,
    elem_bytes: u64,
    units: Vec<UnitTask>,
}

impl ReshardingTask {
    /// Builds the task and its unit-task decomposition.
    ///
    /// # Errors
    ///
    /// Propagates [`MeshError`]s: overlapping meshes, rank mismatches, or
    /// empty tensors.
    pub fn new(
        src_mesh: DeviceMesh,
        src_spec: ShardingSpec,
        dst_mesh: DeviceMesh,
        dst_spec: ShardingSpec,
        shape: &[u64],
        elem_bytes: u64,
    ) -> Result<Self, MeshError> {
        let units = unit_tasks(
            &src_mesh, &src_spec, &dst_mesh, &dst_spec, shape, elem_bytes,
        )?;
        Ok(ReshardingTask {
            src_mesh,
            src_spec,
            dst_mesh,
            dst_spec,
            shape: shape.to_vec(),
            elem_bytes,
            units,
        })
    }

    /// Builds a task from an explicit unit-task list instead of a
    /// mesh/spec decomposition.
    ///
    /// This is the entry point for traffic patterns that are not tensor
    /// reshardings — e.g. MoE all-to-all dispatch, where each unit is one
    /// (source device → expert device) flow over a virtual token-byte
    /// space. The meshes and specs are descriptive only (display and
    /// cache keys); planners, plans, the plan cache, and the static
    /// verifier all operate on the units exactly as they do for
    /// decomposed tasks.
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty, a unit's index differs from its
    /// position, a unit has no sender or no receiver, or a unit's byte
    /// count disagrees with `slice.volume() * elem_bytes`.
    pub fn from_units(
        src_mesh: DeviceMesh,
        src_spec: ShardingSpec,
        dst_mesh: DeviceMesh,
        dst_spec: ShardingSpec,
        shape: &[u64],
        elem_bytes: u64,
        units: Vec<UnitTask>,
    ) -> Self {
        assert!(!units.is_empty(), "a task needs at least one unit task");
        for (i, unit) in units.iter().enumerate() {
            assert_eq!(unit.index, i, "unit index {} at position {i}", unit.index);
            assert!(!unit.senders.is_empty(), "unit {i} has no sender");
            assert!(!unit.receivers.is_empty(), "unit {i} has no receiver");
            assert_eq!(
                unit.bytes,
                unit.slice.volume() * elem_bytes,
                "unit {i} bytes disagree with its slice volume"
            );
        }
        ReshardingTask {
            src_mesh,
            src_spec,
            dst_mesh,
            dst_spec,
            shape: shape.to_vec(),
            elem_bytes,
            units,
        }
    }

    /// The unit communication tasks, in deterministic slice order.
    pub fn units(&self) -> &[UnitTask] {
        &self.units
    }

    /// Source mesh.
    pub fn src_mesh(&self) -> &DeviceMesh {
        &self.src_mesh
    }

    /// Destination mesh.
    pub fn dst_mesh(&self) -> &DeviceMesh {
        &self.dst_mesh
    }

    /// Source sharding spec.
    pub fn src_spec(&self) -> &ShardingSpec {
        &self.src_spec
    }

    /// Destination sharding spec.
    pub fn dst_spec(&self) -> &ShardingSpec {
        &self.dst_spec
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[u64] {
        &self.shape
    }

    /// Bytes per tensor element.
    pub fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Total unique bytes that must cross between the meshes — the §2.2
    /// lower bound (the tensor size).
    pub fn total_bytes(&self) -> u64 {
        self.units.iter().map(|u| u.bytes).sum()
    }

    /// A content signature of the task for plan-cache keys: two tasks with
    /// the same signature describe the same planning problem.
    ///
    /// Hashes the sharding specs, meshes, tensor shape, element size, and
    /// every unit task's replica/receiver structure — everything a planner
    /// reads. Senders removed by [`excluding`](ReshardingTask::excluding)
    /// change the signature, so a filtered task never aliases its parent.
    pub fn cache_signature(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.src_mesh.to_string().hash(&mut h);
        self.src_spec.to_string().hash(&mut h);
        self.dst_mesh.to_string().hash(&mut h);
        self.dst_spec.to_string().hash(&mut h);
        self.shape.hash(&mut h);
        self.elem_bytes.hash(&mut h);
        self.units.len().hash(&mut h);
        for unit in &self.units {
            unit.index.hash(&mut h);
            unit.bytes.hash(&mut h);
            unit.senders.hash(&mut h);
            for r in &unit.receivers {
                (r.device, r.host).hash(&mut h);
            }
        }
        h.finish()
    }

    /// The same task with the excluded senders removed from every unit
    /// task's replica set `N_i` — the planning input after failures.
    ///
    /// # Errors
    ///
    /// [`RepairError::DataLoss`] if some unit task loses its last replica
    /// holder: the slice no longer exists anywhere on the source mesh.
    pub fn excluding(&self, exclusions: &SenderExclusions) -> Result<ReshardingTask, RepairError> {
        let mut filtered = self.clone();
        if exclusions.is_empty() {
            return Ok(filtered);
        }
        for unit in &mut filtered.units {
            unit.senders.retain(|&(_, h)| !exclusions.excludes(h));
            if unit.senders.is_empty() {
                return Err(RepairError::DataLoss { unit: unit.index });
            }
        }
        Ok(filtered)
    }
}

impl fmt::Display for ReshardingTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} -> {} @ {} ({} units)",
            self.src_spec,
            self.src_mesh,
            self.dst_spec,
            self.dst_mesh,
            self.units.len()
        )
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    fn setup() -> (ClusterSpec, DeviceMesh, DeviceMesh) {
        let c = ClusterSpec::homogeneous(4, 4, LinkParams::new(100e9, 1.25e9));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 4), "B").unwrap();
        (c, a, b)
    }

    #[test]
    fn construction_decomposes() {
        let (_, a, b) = setup();
        let t = ReshardingTask::new(
            a,
            "S0RR".parse().unwrap(),
            b,
            "S0RR".parse().unwrap(),
            &[64, 64, 64],
            4,
        )
        .unwrap();
        assert_eq!(t.units().len(), 2);
        assert_eq!(t.total_bytes(), 64 * 64 * 64 * 4);
        assert!(t.to_string().contains("2 units"));
    }

    #[test]
    fn excluding_filters_replica_sets() {
        let (_, a, b) = setup();
        // RS1R: each slice replicated across both sender-mesh rows
        // (hosts 0 and 1), so excluding one host leaves a replica.
        let t = ReshardingTask::new(
            a,
            "RS1R".parse().unwrap(),
            b,
            "S0RR".parse().unwrap(),
            &[8, 8, 8],
            1,
        )
        .unwrap();
        let e = SenderExclusions::for_hosts([crossmesh_netsim::HostId(0)]);
        let filtered = t.excluding(&e).unwrap();
        for unit in filtered.units() {
            assert!(!unit.senders.is_empty());
            assert!(unit
                .senders
                .iter()
                .all(|&(_, h)| h != crossmesh_netsim::HostId(0)));
        }
        // The unfiltered task is untouched.
        assert!(t.units().iter().any(|u| u
            .senders
            .iter()
            .any(|&(_, h)| h == crossmesh_netsim::HostId(0))));
    }

    #[test]
    fn excluding_every_replica_is_data_loss() {
        let (_, a, b) = setup();
        // S0RR: each slice lives on exactly one sender host.
        let t = ReshardingTask::new(
            a,
            "S0RR".parse().unwrap(),
            b,
            "S0RR".parse().unwrap(),
            &[8, 8, 8],
            1,
        )
        .unwrap();
        let e = SenderExclusions::for_hosts([crossmesh_netsim::HostId(0)]);
        let err = t.excluding(&e).unwrap_err();
        assert!(matches!(err, RepairError::DataLoss { .. }));
    }

    #[test]
    fn from_units_carries_synthetic_traffic() {
        use crossmesh_mesh::{Receiver, Tile};
        let (c, a, b) = setup();
        let units = vec![crossmesh_mesh::UnitTask {
            index: 0,
            slice: Tile::new(vec![0..64]),
            bytes: 64,
            senders: vec![(c.device(0, 0), crossmesh_netsim::HostId(0))],
            receivers: vec![Receiver {
                device: c.device(2, 0),
                host: crossmesh_netsim::HostId(2),
            }],
        }];
        let t = ReshardingTask::from_units(
            a,
            "S0".parse().unwrap(),
            b,
            "S0".parse().unwrap(),
            &[64],
            1,
            units,
        );
        assert_eq!(t.units().len(), 1);
        assert_eq!(t.total_bytes(), 64);
        assert_ne!(t.cache_signature(), 0);
    }

    #[test]
    #[should_panic(expected = "bytes disagree")]
    fn from_units_rejects_inconsistent_bytes() {
        use crossmesh_mesh::{Receiver, Tile};
        let (c, a, b) = setup();
        let units = vec![crossmesh_mesh::UnitTask {
            index: 0,
            slice: Tile::new(vec![0..64]),
            bytes: 7,
            senders: vec![(c.device(0, 0), crossmesh_netsim::HostId(0))],
            receivers: vec![Receiver {
                device: c.device(2, 0),
                host: crossmesh_netsim::HostId(2),
            }],
        }];
        let _ = ReshardingTask::from_units(
            a,
            "S0".parse().unwrap(),
            b,
            "S0".parse().unwrap(),
            &[64],
            1,
            units,
        );
    }

    #[test]
    fn overlap_rejected() {
        let (c, a, _) = setup();
        let overlapping = DeviceMesh::from_cluster(&c, 1, (2, 4), "B").unwrap();
        let err = ReshardingTask::new(
            a,
            "RRR".parse().unwrap(),
            overlapping,
            "RRR".parse().unwrap(),
            &[8, 8, 8],
            4,
        )
        .unwrap_err();
        assert_eq!(err, MeshError::OverlappingMeshes);
    }
}
