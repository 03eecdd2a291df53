//! Pipeline stage graphs: stages on meshes, connected by cross-mesh
//! resharding edges.

use crossmesh_core::ReshardingTask;
use crossmesh_mesh::{DeviceMesh, MeshError, ShardingSpec};

/// One pipeline stage: a subgraph of the model placed on a device mesh.
///
/// Costs are per microbatch and per device (stages run SPMD over their
/// mesh, so every device performs the same amount of work).
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name, used in labels.
    pub name: String,
    /// The mesh this stage runs on.
    pub mesh: DeviceMesh,
    /// Forward compute time per microbatch, seconds.
    pub forward_seconds: f64,
    /// Activation-gradient backward compute time per microbatch, seconds.
    pub backward_act_seconds: f64,
    /// Weight-gradient backward compute time per microbatch, seconds.
    pub backward_weight_seconds: f64,
    /// Bytes of activations each device must keep per in-flight microbatch.
    pub activation_bytes: f64,
    /// Bytes of parameters + optimizer state per device (for memory
    /// reports).
    pub weight_bytes: f64,
    /// End-of-iteration gradient synchronization across the stage's
    /// data-parallel groups, if any.
    pub grad_sync: Option<GradSync>,
    /// Activation rematerialization: when `Some(keep_bytes)`, the stage
    /// stashes only `keep_bytes` per in-flight microbatch (typically its
    /// input boundary tensor) and recomputes the rest during the backward
    /// pass, which therefore costs an extra forward (§5.2: stages under
    /// memory pressure "use less rematerialization and are slightly
    /// faster" when pressure drops).
    pub remat_keep_bytes: Option<f64>,
}

/// End-of-iteration gradient all-reduce configuration for one stage: the
/// data-parallel axis of the stage mesh and the gradient bytes each device
/// contributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradSync {
    /// Mesh axis along which weights are replicated (the dp axis); devices
    /// varying along this axis (all other coordinates fixed) form one
    /// all-reduce group.
    pub axis: usize,
    /// Gradient bytes per device.
    pub bytes: f64,
}

impl Stage {
    /// A stage with the given name, mesh, and per-microbatch compute times;
    /// backward defaults to 2× forward, split evenly between the
    /// activation and weight halves, and memory fields default to zero.
    pub fn new(name: impl Into<String>, mesh: DeviceMesh, forward_seconds: f64) -> Self {
        Stage {
            name: name.into(),
            mesh,
            forward_seconds,
            backward_act_seconds: forward_seconds,
            backward_weight_seconds: forward_seconds,
            activation_bytes: 0.0,
            weight_bytes: 0.0,
            grad_sync: None,
            remat_keep_bytes: None,
        }
    }

    /// Returns a copy with the backward halves replaced.
    #[must_use]
    pub fn with_backward(mut self, act_seconds: f64, weight_seconds: f64) -> Self {
        self.backward_act_seconds = act_seconds;
        self.backward_weight_seconds = weight_seconds;
        self
    }

    /// Returns a copy with the memory footprint replaced.
    #[must_use]
    pub fn with_memory(mut self, activation_bytes: f64, weight_bytes: f64) -> Self {
        self.activation_bytes = activation_bytes;
        self.weight_bytes = weight_bytes;
        self
    }

    /// Returns a copy with an end-of-iteration gradient all-reduce over
    /// the groups formed along mesh `axis`, `bytes` per device.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is not 0 or 1.
    #[must_use]
    pub fn with_grad_sync(mut self, axis: usize, bytes: f64) -> Self {
        assert!(axis < 2, "mesh axis must be 0 or 1");
        self.grad_sync = Some(GradSync { axis, bytes });
        self
    }

    /// Returns a copy with activation rematerialization enabled: only
    /// `keep_bytes` per in-flight microbatch are stashed and the
    /// activation-gradient backward additionally pays one forward
    /// recomputation.
    #[must_use]
    pub fn with_remat(mut self, keep_bytes: f64) -> Self {
        self.remat_keep_bytes = Some(keep_bytes);
        self
    }

    /// Effective activation bytes stored per in-flight microbatch.
    pub fn stored_activation_bytes(&self) -> f64 {
        self.remat_keep_bytes.unwrap_or(self.activation_bytes)
    }

    /// Effective activation-gradient backward time (includes the forward
    /// recomputation when rematerializing).
    pub fn effective_backward_act_seconds(&self) -> f64 {
        if self.remat_keep_bytes.is_some() {
            self.backward_act_seconds + self.forward_seconds
        } else {
            self.backward_act_seconds
        }
    }

    /// The gradient-synchronization groups of this stage: for each
    /// coordinate along the non-dp axis, the devices spanning the dp axis.
    /// Empty when the stage has no gradient sync or the dp axis is trivial.
    pub fn grad_sync_groups(&self) -> Vec<Vec<crossmesh_netsim::DeviceId>> {
        let Some(sync) = self.grad_sync else {
            return Vec::new();
        };
        if self.mesh.axis_size(sync.axis) <= 1 {
            return Vec::new();
        }
        let (rows, cols) = self.mesh.shape();
        use crossmesh_mesh::MeshCoord;
        match sync.axis {
            0 => (0..cols)
                .map(|col| {
                    (0..rows)
                        .map(|row| self.mesh.device(MeshCoord { row, col }))
                        .collect()
                })
                .collect(),
            _ => (0..rows)
                .map(|row| {
                    (0..cols)
                        .map(|col| self.mesh.device(MeshCoord { row, col }))
                        .collect()
                })
                .collect(),
        }
    }
}

/// The tensor carried by a cross-stage edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTensor {
    /// Logical tensor shape.
    pub shape: Vec<u64>,
    /// Bytes per element (2 for fp16, 4 for fp32).
    pub elem_bytes: u64,
    /// Sharding of the tensor on the producer stage's mesh.
    pub src_spec: ShardingSpec,
    /// Required sharding on the consumer stage's mesh.
    pub dst_spec: ShardingSpec,
}

/// A directed cross-stage tensor edge with its forward (activation) and
/// backward (gradient) resharding tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEdge {
    /// Producing stage index.
    pub from: usize,
    /// Consuming stage index (may skip stages — e.g. U-Net skip
    /// connections).
    pub to: usize,
    /// Forward resharding: activation from `from`'s mesh to `to`'s mesh.
    pub forward: ReshardingTask,
    /// Backward resharding: gradient from `to`'s mesh back to `from`'s.
    pub backward: ReshardingTask,
}

/// A pipeline-parallel job: stages, cross-stage edges, and the microbatch
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct StageGraph {
    stages: Vec<Stage>,
    edges: Vec<CommEdge>,
    num_microbatches: usize,
}

impl StageGraph {
    /// Creates an empty graph executing `num_microbatches` microbatches per
    /// iteration.
    ///
    /// # Panics
    ///
    /// Panics if `num_microbatches` is zero.
    pub fn new(num_microbatches: usize) -> Self {
        assert!(num_microbatches > 0, "need at least one microbatch");
        StageGraph {
            stages: Vec::new(),
            edges: Vec::new(),
            num_microbatches,
        }
    }

    /// Appends a stage and returns its index.
    pub fn add_stage(&mut self, stage: Stage) -> usize {
        self.stages.push(stage);
        self.stages.len() - 1
    }

    /// Connects stage `from` to stage `to` (`from < to`) with `tensor`,
    /// building both the forward activation resharding and the reverse
    /// gradient resharding. Returns the edge index.
    ///
    /// # Errors
    ///
    /// Propagates layout errors; in particular the stage meshes must be
    /// disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to` or either index is out of range.
    pub fn connect(
        &mut self,
        from: usize,
        to: usize,
        tensor: EdgeTensor,
    ) -> Result<usize, MeshError> {
        assert!(from < to, "edges must go forward in the pipeline");
        assert!(to < self.stages.len(), "stage index {to} out of range");
        let src_mesh = self.stages[from].mesh.clone();
        let dst_mesh = self.stages[to].mesh.clone();
        let forward = ReshardingTask::new(
            src_mesh.clone(),
            tensor.src_spec.clone(),
            dst_mesh.clone(),
            tensor.dst_spec.clone(),
            &tensor.shape,
            tensor.elem_bytes,
        )?;
        // The gradient has the activation's shape and mirrored sharding.
        let backward = ReshardingTask::new(
            dst_mesh,
            tensor.dst_spec,
            src_mesh,
            tensor.src_spec,
            &tensor.shape,
            tensor.elem_bytes,
        )?;
        self.edges.push(CommEdge {
            from,
            to,
            forward,
            backward,
        });
        Ok(self.edges.len() - 1)
    }

    /// The stages, in pipeline order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// All cross-stage edges.
    pub fn edges(&self) -> &[CommEdge] {
        &self.edges
    }

    /// Edges consumed by stage `s` (its forward inputs).
    pub fn in_edges(&self, s: usize) -> impl Iterator<Item = (usize, &CommEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.to == s)
    }

    /// Edges produced by stage `s` (whose gradients flow back into `s`).
    pub fn out_edges(&self, s: usize) -> impl Iterator<Item = (usize, &CommEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.from == s)
    }

    /// Number of microbatches per iteration.
    pub fn num_microbatches(&self) -> usize {
        self.num_microbatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    fn meshes() -> (DeviceMesh, DeviceMesh) {
        let c = ClusterSpec::homogeneous(2, 4, LinkParams::new(100e9, 1.25e9));
        (
            DeviceMesh::from_cluster(&c, 0, (1, 4), "s0").unwrap(),
            DeviceMesh::from_cluster(&c, 1, (1, 4), "s1").unwrap(),
        )
    }

    fn tensor() -> EdgeTensor {
        EdgeTensor {
            shape: vec![8, 1024, 1024],
            elem_bytes: 2,
            src_spec: "S0RR".parse().unwrap(),
            dst_spec: "S0RR".parse().unwrap(),
        }
    }

    #[test]
    fn connect_builds_both_directions() {
        let (m0, m1) = meshes();
        let mut g = StageGraph::new(4);
        let a = g.add_stage(Stage::new("a", m0, 1.0));
        let b = g.add_stage(Stage::new("b", m1, 1.0));
        let e = g.connect(a, b, tensor()).unwrap();
        let edge = &g.edges()[e];
        assert_eq!(edge.forward.src_mesh().name(), "s0");
        assert_eq!(edge.forward.dst_mesh().name(), "s1");
        assert_eq!(edge.backward.src_mesh().name(), "s1");
        assert_eq!(edge.backward.dst_mesh().name(), "s0");
        assert_eq!(edge.forward.total_bytes(), edge.backward.total_bytes());
    }

    #[test]
    fn skip_connections_are_allowed() {
        let c = ClusterSpec::homogeneous(3, 4, LinkParams::new(100e9, 1.25e9));
        let mut g = StageGraph::new(4);
        let s: Vec<usize> = (0..3)
            .map(|i| {
                let m = DeviceMesh::from_cluster(&c, i, (1, 4), format!("s{i}")).unwrap();
                g.add_stage(Stage::new(format!("s{i}"), m, 1.0))
            })
            .collect();
        g.connect(s[0], s[1], tensor()).unwrap();
        g.connect(s[1], s[2], tensor()).unwrap();
        g.connect(s[0], s[2], tensor()).unwrap(); // skip
        assert_eq!(g.in_edges(2).count(), 2);
        assert_eq!(g.out_edges(0).count(), 2);
    }

    #[test]
    #[should_panic(expected = "forward in the pipeline")]
    fn backward_edge_panics() {
        let (m0, m1) = meshes();
        let mut g = StageGraph::new(2);
        let a = g.add_stage(Stage::new("a", m0, 1.0));
        let b = g.add_stage(Stage::new("b", m1, 1.0));
        let _ = g.connect(b, a, tensor());
    }

    #[test]
    fn stage_builders() {
        let (m0, _) = meshes();
        let s = Stage::new("x", m0, 2.0)
            .with_backward(1.5, 0.5)
            .with_memory(10.0, 100.0);
        assert_eq!(s.backward_act_seconds, 1.5);
        assert_eq!(s.backward_weight_seconds, 0.5);
        assert_eq!(s.activation_bytes, 10.0);
    }
}
