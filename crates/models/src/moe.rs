//! GPT-MoE cost model: a GPT trunk whose FFN layers are Mixture-of-Experts.
//!
//! Every transformer layer's dense FFN is replaced by `experts_per_layer`
//! expert FFNs behind a top-k gate, which adds two all-to-alls per layer
//! (dispatch and combine). The model derives the per-step all-to-all
//! traffic from the batch geometry and bridges to
//! [`crossmesh_moe::RoutingConfig`] so benchmarks draw the same seeded,
//! skewed routing matrices the data plane executes.
//!
//! It also defines the MoE all-to-all experiment that `crossmesh moe` runs
//! one cell of and the `moe` sweep of `BENCH_paper.json` runs in full: the
//! fabric table ([`FABRICS`], [`a2a_cluster`]), the strategy table
//! ([`A2A_STRATEGIES`], [`a2a_strategy`]) and the token/expert mesh split
//! ([`GptMoeConfig::a2a`]).

use crate::gpt::GptConfig;
use crossmesh_core::{CostParams, Strategy};
use crossmesh_mesh::DeviceMesh;
use crossmesh_moe::{A2aDirection, A2aTask, RoutingConfig};
use crossmesh_netsim::{ClusterSpec, FabricModel, LinkParams};
use serde::{Deserialize, Serialize};

/// The fabric models of the all-to-all experiment, by the names
/// [`a2a_cluster`] takes, in sweep order.
pub const FABRICS: [&str; 4] = ["rails", "flat", "fat-tree", "torus"];

/// The all-to-all strategies of the experiment, by the names
/// [`a2a_strategy`] takes, in sweep order.
pub const A2A_STRATEGIES: [&str; 3] = ["multi_rail", "send_recv", "broadcast"];

/// The experiment's cluster: `hosts` hosts of `gpus` devices (and, on the
/// rail fabric, `gpus` rails) with `params`' links, wired by the fabric
/// named `fabric` (one of [`FABRICS`]).
///
/// # Errors
///
/// A message naming an unknown fabric, a host count that does not split
/// into equal non-empty token and expert halves, or hosts without devices.
pub fn a2a_cluster(
    fabric: &str,
    hosts: u32,
    gpus: u32,
    params: &CostParams,
) -> Result<ClusterSpec, String> {
    if hosts == 0 || !hosts.is_multiple_of(2) {
        return Err(format!(
            "{hosts} hosts do not split into token and expert halves: \
             the all-to-all needs a positive even host count"
        ));
    }
    if gpus == 0 {
        return Err("the all-to-all needs at least one device per host".into());
    }
    let nic = params.inter_bw;
    let fabric = match fabric {
        "rails" => FabricModel::RailOptimized {
            rails: gpus,
            spine_capacity: nic,
        },
        "flat" => FabricModel::Flat {
            capacity: Some(f64::from(hosts) * nic / 2.0),
        },
        "fat-tree" => FabricModel::FatTree {
            pod_hosts: hosts / 2,
            oversubscription: 4.0,
        },
        "torus" => FabricModel::Torus2D {
            rows: 2,
            cols: hosts / 2,
            link_capacity: nic,
        },
        other => return Err(format!("unknown fabric {other:?}")),
    };
    Ok(ClusterSpec::homogeneous(
        hosts,
        gpus,
        LinkParams::new(params.intra_bw, nic)
            .with_latencies(params.intra_latency, params.inter_latency),
    )
    .with_fabric(fabric))
}

/// The strategy named `name` (one of [`A2A_STRATEGIES`]) on hosts with
/// `rails` rails.
///
/// # Errors
///
/// A message naming an unknown strategy.
pub fn a2a_strategy(name: &str, rails: u32) -> Result<Strategy, String> {
    Ok(match name {
        // One chunk per rail: the a2a's per-pair parallelism already
        // fills the fabric; finer chunking only multiplies hop latency.
        "multi_rail" => Strategy::MultiRail {
            rails,
            chunks: rails,
        },
        "send_recv" => Strategy::SendRecv,
        "broadcast" => Strategy::broadcast(),
        other => return Err(format!("unknown strategy {other:?}")),
    })
}

/// A GPT trunk with MoE FFN layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GptMoeConfig {
    /// The dense trunk (attention, batch geometry, parallel degrees).
    pub base: GptConfig,
    /// Experts per MoE layer.
    pub experts_per_layer: usize,
    /// Experts each token is routed to.
    pub top_k: u32,
    /// Per-expert capacity as a multiple of the mean expert load.
    pub capacity_factor: f64,
    /// Zipf exponent of the gate's expert popularity (0 = balanced).
    pub skew: f64,
    /// Seed for the routing draw.
    pub seed: u64,
}

impl GptMoeConfig {
    /// A 16-expert top-2 MoE over the Table 3 "GPT case1" trunk — the
    /// GShard-style default (capacity factor 1.25, mildly skewed gate).
    pub fn case1() -> Self {
        GptMoeConfig {
            base: GptConfig::case1(),
            experts_per_layer: 16,
            top_k: 2,
            capacity_factor: 1.25,
            skew: 1.0,
            seed: 0,
        }
    }

    /// Returns a copy with the gate skew replaced.
    #[must_use]
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }

    /// Returns a copy with the routing seed replaced.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parameter count: the dense trunk plus the extra expert FFNs. Each
    /// expert FFN holds `8 H²` weights (two `H × 4H` matmuls); one of the
    /// `experts_per_layer` replaces the trunk's own FFN.
    pub fn num_params(&self) -> u64 {
        let h = self.base.hidden;
        let extra_ffns = self.experts_per_layer.saturating_sub(1) as u64;
        self.base.num_params() + self.base.num_layers as u64 * extra_ffns * 8 * h * h
    }

    /// Tokens resident on one device per microbatch: the microbatch's
    /// sequences × sequence length, split over the `dp × op` devices of a
    /// stage.
    pub fn tokens_per_device(&self) -> u64 {
        let p = &self.base.parallel;
        let tokens = self.base.microbatch_size() * self.base.seq_len;
        (tokens / (p.dp * p.op).max(1) as u64).max(1)
    }

    /// Wire bytes of one token (its hidden vector).
    pub fn token_bytes(&self) -> u64 {
        self.base.hidden * self.base.precision.elem_bytes()
    }

    /// The seeded routing draw for one MoE layer's dispatch.
    pub fn routing(&self) -> RoutingConfig {
        RoutingConfig {
            tokens_per_device: self.tokens_per_device(),
            token_bytes: self.token_bytes(),
            top_k: self.top_k,
            capacity_factor: self.capacity_factor,
            skew: self.skew,
            seed: self.seed,
        }
    }

    /// The all-to-all of one MoE layer on `cluster`, with `tokens_per_device`
    /// tokens per device drawn through this gate: token devices fill the
    /// first half of the hosts, expert devices the second.
    ///
    /// # Errors
    ///
    /// A message if `tokens_per_device` is zero or its payload (senders ×
    /// tokens × `top_k` × token bytes) overflows `u64`, a mesh error if the
    /// cluster has fewer than two hosts.
    pub fn a2a(
        &self,
        cluster: &ClusterSpec,
        direction: A2aDirection,
        tokens_per_device: u64,
    ) -> Result<A2aTask, Box<dyn std::error::Error>> {
        if tokens_per_device == 0 {
            return Err("the all-to-all needs at least one token per device".into());
        }
        let half = (cluster.num_hosts() / 2) as usize;
        let per = (cluster.num_devices() / cluster.num_hosts()) as usize;
        let tokens = DeviceMesh::from_cluster(cluster, 0, (half, per), "moe-tokens")?;
        let experts = DeviceMesh::from_cluster(cluster, half, (half, per), "moe-experts")?;
        let routing = RoutingConfig {
            tokens_per_device,
            ..self.routing()
        };
        let payload = ((half * per) as u64)
            .checked_mul(tokens_per_device)
            .and_then(|n| n.checked_mul(u64::from(routing.top_k)))
            .and_then(|n| n.checked_mul(routing.token_bytes));
        if payload.is_none() {
            return Err(format!(
                "{tokens_per_device} tokens per device overflow the all-to-all's byte count"
            )
            .into());
        }
        let bytes = routing.bytes_matrix(half * per, half * per);
        Ok(match direction {
            A2aDirection::Dispatch => A2aTask::dispatch(&tokens, &experts, &bytes),
            A2aDirection::Combine => A2aTask::combine(&tokens, &experts, &bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moe_has_more_params_than_dense() {
        let moe = GptMoeConfig::case1();
        assert!(moe.num_params() > moe.base.num_params());
        // 16 experts × 8H² × 32 layers adds ~25B params over the 2.6B trunk.
        assert!(moe.num_params() as f64 / 1e9 > 20.0);
    }

    #[test]
    fn routing_mirrors_the_batch_geometry() {
        let moe = GptMoeConfig::case1().with_skew(1.5).with_seed(9);
        let r = moe.routing();
        // case1: mb 32 sequences × 1024 tokens over dp·op = 4 devices.
        assert_eq!(r.tokens_per_device, 32 * 1024 / 4);
        assert_eq!(r.token_bytes, 2560 * 2);
        assert_eq!(r.top_k, 2);
        assert_eq!(r.skew, 1.5);
        assert_eq!(r.seed, 9);
    }

    #[test]
    fn a2a_refuses_a_payload_that_overflows_u64() {
        let cluster = a2a_cluster("rails", 2, 1, &CostParams::default()).unwrap();
        let moe = GptMoeConfig::case1();
        // One sender, top-2, 5120-byte tokens: u64::MAX / 10240 tokens fit,
        // one more does not.
        let fits = u64::MAX / (2 * moe.token_bytes());
        let err = moe
            .a2a(&cluster, A2aDirection::Dispatch, fits + 1)
            .unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }
}
