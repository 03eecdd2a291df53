//! Operator chains and FLOP-balanced pipeline partitioning.
//!
//! The paper balances pipeline stages "with respect to FLOPs" (§5.2): the
//! model is a chain of operators, and inter-op parallelism must cut it
//! into `pp` contiguous stages whose heaviest stage is as light as
//! possible (the heaviest stage paces the whole pipeline). This module
//! provides the chain representation ([`OpNode`], [`OpChain`]), the exact
//! dynamic-programming partitioner ([`partition_balanced`] — the classic
//! linear-partition problem), and lowering of a partitioned chain into a
//! simulatable [`StageGraph`].

use crate::job::{ModelJob, Precision};
use crossmesh_autoshard::{search, AutoShardProblem};
use crossmesh_core::CostParams;
use crossmesh_mesh::{DeviceMesh, MeshError, ShardingSpec};
use crossmesh_netsim::ClusterSpec;
use crossmesh_pipeline::{EdgeTensor, Stage, StageGraph};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One operator of a linear model graph, with per-microbatch costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpNode {
    /// Operator name.
    pub name: String,
    /// Forward FLOPs per microbatch.
    pub forward_flops: f64,
    /// Parameter count.
    pub params: u64,
    /// Shape of the output activation per microbatch.
    pub output_shape: Vec<u64>,
}

impl OpNode {
    /// Creates an operator node.
    pub fn new(
        name: impl Into<String>,
        forward_flops: f64,
        params: u64,
        output_shape: Vec<u64>,
    ) -> Self {
        OpNode {
            name: name.into(),
            forward_flops,
            params,
            output_shape,
        }
    }
}

/// Splits `ops` into `pp` contiguous, non-empty stages minimizing the
/// maximum per-stage forward FLOPs (exact, via dynamic programming over
/// prefix sums — `O(n²·pp)`).
///
/// # Example
///
/// ```
/// use crossmesh_models::partition::{partition_balanced, OpNode};
///
/// let ops: Vec<OpNode> = [8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0]
///     .iter()
///     .map(|&f| OpNode::new("op", f, 0, vec![4]))
///     .collect();
/// // The heavy head op stands alone: max(8, 10) beats max(12, 6).
/// assert_eq!(partition_balanced(&ops, 2), vec![0..1, 1..7]);
/// ```
///
/// # Panics
///
/// Panics if `pp` is zero or exceeds the operator count.
pub fn partition_balanced(ops: &[OpNode], pp: usize) -> Vec<Range<usize>> {
    let n = ops.len();
    assert!(pp > 0, "need at least one stage");
    assert!(pp <= n, "cannot cut {n} ops into {pp} non-empty stages");
    let mut prefix = vec![0.0f64; n + 1];
    for (i, op) in ops.iter().enumerate() {
        prefix[i + 1] = prefix[i] + op.forward_flops;
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a]; // ops[a..b]

    // dp[k][i]: minimal max-stage-cost splitting ops[0..i] into k stages.
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; n + 1]; pp + 1];
    let mut cut = vec![vec![0usize; n + 1]; pp + 1];
    dp[0][0] = 0.0;
    for k in 1..=pp {
        for i in k..=n {
            for j in k - 1..i {
                let cost = dp[k - 1][j].max(seg(j, i));
                if cost < dp[k][i] {
                    dp[k][i] = cost;
                    cut[k][i] = j;
                }
            }
        }
    }
    // Recover the cut points.
    let mut bounds = vec![n];
    let mut i = n;
    for k in (1..=pp).rev() {
        i = cut[k][i];
        bounds.push(i);
    }
    bounds.reverse();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// How boundary tensors pick their sharding specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BoundarySharding {
    /// Use the same fixed spec on both sides of every boundary.
    Fixed(ShardingSpec),
    /// Search the spec pair per boundary with `crossmesh-autoshard` (the
    /// paper's "(auto, auto, pp)" style).
    Auto,
}

/// A linear model as an operator chain plus execution parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpChain {
    /// The operators in execution order.
    pub ops: Vec<OpNode>,
    /// Microbatches per iteration.
    pub num_microbatches: usize,
    /// Bytes per activation element.
    pub elem_bytes: u64,
    /// Training precision (fixes the device compute rate and training
    /// state size).
    pub precision: Precision,
}

impl OpChain {
    /// Total forward FLOPs per microbatch.
    pub fn total_forward_flops(&self) -> f64 {
        self.ops.iter().map(|o| o.forward_flops).sum()
    }

    /// Partitions the chain into `pp` FLOP-balanced stages, places stage
    /// `i` on host `i` of `cluster` (all its devices, a `(1, d)` mesh),
    /// chooses boundary specs per `sharding`, and returns a simulatable
    /// job.
    ///
    /// # Errors
    ///
    /// Propagates mesh errors when the cluster has fewer hosts than
    /// stages, plus any autoshard failure.
    ///
    /// # Panics
    ///
    /// Panics if `pp` is zero or exceeds the op count.
    pub fn build(
        &self,
        cluster: &ClusterSpec,
        pp: usize,
        sharding: &BoundarySharding,
        params: &CostParams,
    ) -> Result<ModelJob, MeshError> {
        let ranges = partition_balanced(&self.ops, pp);
        let rate = self.precision.effective_device_flops();
        let state = self.precision.train_state_bytes_per_param();

        let mut graph = StageGraph::new(self.num_microbatches);
        let mut meshes = Vec::with_capacity(pp);
        let mut stage_ids = Vec::with_capacity(pp);
        let mut num_devices = 0usize;
        for (i, range) in ranges.iter().enumerate() {
            let devices = cluster.host(crossmesh_netsim::HostId(i as u32)).devices as usize;
            num_devices += devices;
            let mesh = DeviceMesh::from_cluster(cluster, i, (1, devices), format!("stage{i}"))?;
            let flops: f64 = self.ops[range.clone()]
                .iter()
                .map(|o| o.forward_flops)
                .sum();
            let stage_params: u64 = self.ops[range.clone()].iter().map(|o| o.params).sum();
            let fwd = flops / devices as f64 / rate;
            let last_out = &self.ops[range.end - 1].output_shape;
            let act_bytes =
                (last_out.iter().product::<u64>() * self.elem_bytes) as f64 / devices as f64;
            let stage = Stage::new(format!("stage{i}"), mesh.clone(), fwd)
                .with_backward(fwd, fwd)
                .with_memory(act_bytes, state * stage_params as f64 / devices as f64);
            stage_ids.push(graph.add_stage(stage));
            meshes.push(mesh);
        }

        for i in 0..pp - 1 {
            let shape = self.ops[ranges[i].end - 1].output_shape.clone();
            let (src_spec, dst_spec) = match sharding {
                BoundarySharding::Fixed(spec) => (spec.clone(), spec.clone()),
                BoundarySharding::Auto => {
                    let best = search(
                        &AutoShardProblem::new(
                            meshes[i].clone(),
                            meshes[i + 1].clone(),
                            shape.clone(),
                            self.elem_bytes,
                        ),
                        params,
                    )?;
                    (best.src_spec, best.dst_spec)
                }
            };
            graph.connect(
                stage_ids[i],
                stage_ids[i + 1],
                EdgeTensor {
                    shape,
                    elem_bytes: self.elem_bytes,
                    src_spec,
                    dst_spec,
                },
            )?;
        }

        Ok(ModelJob {
            total_flops: 3.0 * self.total_forward_flops() * self.num_microbatches as f64,
            graph,
            num_devices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{aws_p3_8xlarge, p3_cost_params};
    use crossmesh_core::{EnsemblePlanner, PlannerConfig};
    use crossmesh_pipeline::{simulate, PipelineConfig};

    fn op(flops: f64) -> OpNode {
        OpNode::new("op", flops, 1000, vec![8, 16])
    }

    /// Brute-force optimum for cross-checking the DP.
    fn brute_force(ops: &[OpNode], pp: usize) -> f64 {
        fn go(ops: &[OpNode], pp: usize) -> f64 {
            if pp == 1 {
                return ops.iter().map(|o| o.forward_flops).sum();
            }
            (1..=ops.len() - pp + 1)
                .map(|cut| {
                    let head: f64 = ops[..cut].iter().map(|o| o.forward_flops).sum();
                    head.max(go(&ops[cut..], pp - 1))
                })
                .fold(f64::INFINITY, f64::min)
        }
        go(ops, pp)
    }

    fn cost(ops: &[OpNode], ranges: &[Range<usize>]) -> f64 {
        ranges
            .iter()
            .map(|r| ops[r.clone()].iter().map(|o| o.forward_flops).sum::<f64>())
            .fold(0.0, f64::max)
    }

    #[test]
    fn dp_matches_brute_force() {
        let shapes: &[&[f64]] = &[
            &[1.0, 1.0, 1.0, 1.0],
            &[5.0, 1.0, 1.0, 1.0, 1.0],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            &[9.0, 1.0, 9.0, 1.0, 9.0],
            &[0.5, 0.5, 8.0, 0.5, 0.5],
        ];
        for flops in shapes {
            let ops: Vec<OpNode> = flops.iter().map(|&f| op(f)).collect();
            for pp in 1..=3.min(ops.len()) {
                let ranges = partition_balanced(&ops, pp);
                assert_eq!(ranges.len(), pp);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, ops.len());
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "stages must be contiguous");
                }
                let got = cost(&ops, &ranges);
                let want = brute_force(&ops, pp);
                assert!(
                    (got - want).abs() < 1e-9,
                    "{flops:?} pp={pp}: dp {got} vs brute {want}"
                );
            }
        }
    }

    #[test]
    fn uniform_chain_splits_evenly() {
        let ops: Vec<OpNode> = (0..8).map(|_| op(1.0)).collect();
        let ranges = partition_balanced(&ops, 2);
        assert_eq!(ranges, vec![0..4, 4..8]);
    }

    #[test]
    fn heavy_head_takes_a_short_stage() {
        // A U-Net-like decreasing cost profile: the cut is NOT at the
        // midpoint by op count.
        let flops = [8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0];
        let ops: Vec<OpNode> = flops.iter().map(|&f| op(f)).collect();
        let ranges = partition_balanced(&ops, 2);
        // max(8, 10) = 10 beats max(12, 6) = 12: the 8-FLOP op stands alone.
        assert_eq!(ranges[0], 0..1, "heavy op gets its own short stage");
    }

    #[test]
    #[should_panic(expected = "non-empty stages")]
    fn too_many_stages_panics() {
        partition_balanced(&[op(1.0)], 2);
    }

    #[test]
    fn chain_builds_and_simulates() {
        let cluster = aws_p3_8xlarge(2, Precision::Fp16);
        let chain = OpChain {
            ops: (0..8)
                .map(|i| OpNode::new(format!("layer{i}"), 1e12, 1_000_000, vec![16, 64, 64]))
                .collect(),
            num_microbatches: 4,
            elem_bytes: 2,
            precision: Precision::Fp16,
        };
        let job = chain
            .build(
                &cluster,
                2,
                &BoundarySharding::Fixed("S1RR".parse().unwrap()),
                &p3_cost_params(),
            )
            .unwrap();
        assert_eq!(job.graph.stages().len(), 2);
        assert_eq!(job.num_devices, 8);
        let planner = EnsemblePlanner::new(PlannerConfig::new(p3_cost_params()));
        let r = simulate(&job.graph, &cluster, &planner, &PipelineConfig::ours()).unwrap();
        assert!(r.iteration_seconds > 0.0);
    }

    #[test]
    fn auto_boundaries_beat_or_match_replication() {
        let cluster = aws_p3_8xlarge(2, Precision::Fp16);
        let chain = OpChain {
            ops: (0..4)
                .map(|i| OpNode::new(format!("layer{i}"), 1e12, 1_000, vec![16, 64, 64]))
                .collect(),
            num_microbatches: 4,
            elem_bytes: 2,
            precision: Precision::Fp16,
        };
        let planner = EnsemblePlanner::new(PlannerConfig::new(p3_cost_params()));
        let run = |sharding: &BoundarySharding| {
            let job = chain
                .build(&cluster, 2, sharding, &p3_cost_params())
                .unwrap();
            simulate(&job.graph, &cluster, &planner, &PipelineConfig::ours())
                .unwrap()
                .iteration_seconds
        };
        let auto = run(&BoundarySharding::Auto);
        let replicated = run(&BoundarySharding::Fixed(ShardingSpec::replicated(3)));
        assert!(auto <= replicated * 1.01, "auto {auto} vs RRR {replicated}");
    }
}
