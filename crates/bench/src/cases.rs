//! Table 2: the nine multi-device-to-multi-device microbenchmark cases.

use crossmesh_core::ReshardingTask;
use crossmesh_mesh::{DeviceMesh, MeshError};
use crossmesh_models::presets;
use crossmesh_models::Precision;
use crossmesh_netsim::ClusterSpec;
use serde::{Deserialize, Serialize};

/// The tensor shape of §5.1.2 (padded as needed by uneven cases).
pub const TENSOR_SHAPE: [u64; 3] = [1024, 1024, 512];

/// Bytes per element (fp32).
pub const ELEM_BYTES: u64 = 4;

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Case {
    /// Case name as in the paper ("case1" … "case9").
    pub name: &'static str,
    /// Sender sharding spec.
    pub send_spec: &'static str,
    /// Receiver sharding spec.
    pub recv_spec: &'static str,
    /// Sender mesh shape (hosts, devices per host).
    pub send_mesh: (usize, usize),
    /// Receiver mesh shape.
    pub recv_mesh: (usize, usize),
}

/// Table 2 verbatim. (Case 5's receiver spec is printed `S_0RR` in the
/// paper — a typeset variant of `S^0RR`.)
pub const TABLE2: [Case; 9] = [
    Case {
        name: "case1",
        send_spec: "S0RR",
        recv_spec: "S0RR",
        send_mesh: (2, 4),
        recv_mesh: (2, 4),
    },
    Case {
        name: "case2",
        send_spec: "RRR",
        recv_spec: "S0RR",
        send_mesh: (2, 4),
        recv_mesh: (2, 4),
    },
    Case {
        name: "case3",
        send_spec: "RS0R",
        recv_spec: "S0RR",
        send_mesh: (2, 4),
        recv_mesh: (2, 4),
    },
    Case {
        name: "case4",
        send_spec: "RS01R",
        recv_spec: "S01RR",
        send_mesh: (2, 4),
        recv_mesh: (2, 4),
    },
    Case {
        name: "case5",
        send_spec: "S1RR",
        recv_spec: "S0RR",
        send_mesh: (2, 4),
        recv_mesh: (2, 4),
    },
    Case {
        name: "case6",
        send_spec: "S0RR",
        recv_spec: "S0RR",
        send_mesh: (2, 4),
        recv_mesh: (3, 4),
    },
    Case {
        name: "case7",
        send_spec: "S1RR",
        recv_spec: "RRR",
        send_mesh: (1, 4),
        recv_mesh: (2, 4),
    },
    Case {
        name: "case8",
        send_spec: "RRR",
        recv_spec: "RRR",
        send_mesh: (2, 3),
        recv_mesh: (3, 2),
    },
    Case {
        name: "case9",
        send_spec: "RS0R",
        recv_spec: "RRS0",
        send_mesh: (2, 4),
        recv_mesh: (2, 4),
    },
];

impl Case {
    /// Builds this case: a p3-class cluster with the sender hosts
    /// first and the receiver hosts after, and the resharding task between
    /// the two meshes.
    ///
    /// # Errors
    ///
    /// Propagates mesh/layout errors (none occur for the Table 2 rows).
    pub fn build(&self) -> Result<(ClusterSpec, ReshardingTask), MeshError> {
        let hosts = (self.send_mesh.0 + self.recv_mesh.0) as u32;
        let cluster = presets::aws_p3_8xlarge(hosts, Precision::Fp32);
        let src = DeviceMesh::from_cluster(&cluster, 0, self.send_mesh, "send")?;
        let dst = DeviceMesh::from_cluster(&cluster, self.send_mesh.0, self.recv_mesh, "recv")?;
        let task = ReshardingTask::new(
            src,
            self.send_spec.parse()?,
            dst,
            self.recv_spec.parse()?,
            &TENSOR_SHAPE,
            ELEM_BYTES,
        )?;
        Ok((cluster, task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_build() {
        for case in TABLE2 {
            let (cluster, task) = case.build().unwrap_or_else(|e| {
                panic!("{} failed to build: {e}", case.name);
            });
            assert!(!task.units().is_empty(), "{} has no unit tasks", case.name);
            assert!(cluster.num_hosts() >= 3, "{}", case.name);
            // Unique slices cover the tensor exactly.
            let total: u64 = task.units().iter().map(|u| u.bytes).sum();
            assert_eq!(
                total,
                TENSOR_SHAPE.iter().product::<u64>() * ELEM_BYTES,
                "{} does not conserve bytes",
                case.name
            );
        }
    }

    #[test]
    fn case4_has_64_unit_tasks() {
        let (_, task) = TABLE2[3].build().unwrap();
        assert_eq!(task.units().len(), 64);
    }

    #[test]
    fn case8_is_a_single_multicast() {
        let (_, task) = TABLE2[7].build().unwrap();
        assert_eq!(task.units().len(), 1, "RRR -> RRR is one broadcast");
        assert_eq!(task.units()[0].receivers.len(), 6);
    }
}
