//! All-to-all tasks: a routing matrix lowered to per-pair unit tasks.
//!
//! The trick that lets MoE traffic ride the whole existing stack is a
//! *destination-major byte space*: concatenate every expert device's
//! inbound shards into one virtual 1-D tensor (element width 1). Expert
//! `j` owns the contiguous region `[off_j, off_j + recv_j)`; within it,
//! source `s`'s shard sits at the prefix of sources before `s`. Each
//! (source → expert) pair with nonzero payload becomes one single-sender,
//! single-receiver [`UnitTask`] whose slice *is* the shard, so:
//!
//! * every planner schedules the pairs like any resharding task, and the
//!   simulator contends them over the fabric;
//! * the generic coverage rules already prove "every shard delivered",
//!   because the units exactly tile `[0, total)`;
//! * the data plane reuses `crossmesh-core`'s destination buffers — each
//!   expert's region is one contiguous tile.

use crossmesh_check::verify::{verify_a2a, A2aPairView};
use crossmesh_check::Diagnostic;
use crossmesh_collectives::{multi_rail_spray, Strategy};
use crossmesh_core::{Plan, ReshardingTask};
use crossmesh_mesh::{DeviceMesh, Receiver, ShardingSpec, Tile, UnitTask};
use crossmesh_netsim::{ClusterSpec, DeviceId};
use serde::{Deserialize, Serialize};

/// Which half of the MoE layer the all-to-all implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum A2aDirection {
    /// Tokens travel to their routed experts.
    Dispatch,
    /// Processed tokens travel back to their source devices.
    Combine,
}

impl std::fmt::Display for A2aDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            A2aDirection::Dispatch => write!(f, "dispatch"),
            A2aDirection::Combine => write!(f, "combine"),
        }
    }
}

/// An MoE all-to-all lowered onto the planner stack: the carrying
/// [`ReshardingTask`], the expected pair set for the `plan.a2a.*` rules,
/// and the destination regions for the data plane.
#[derive(Debug, Clone)]
pub struct A2aTask {
    direction: A2aDirection,
    task: ReshardingTask,
    pairs: Vec<A2aPairView>,
    destination_tiles: Vec<(DeviceId, Tile)>,
    total_bytes: u64,
}

impl A2aTask {
    /// The dispatch all-to-all: `bytes[s][e]` flows from device `s` of
    /// `tokens_mesh` to expert device `e` of `expert_mesh`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape disagrees with the meshes or every
    /// entry is zero.
    pub fn dispatch(
        tokens_mesh: &DeviceMesh,
        expert_mesh: &DeviceMesh,
        bytes: &[Vec<u64>],
    ) -> Self {
        Self::build(A2aDirection::Dispatch, tokens_mesh, expert_mesh, bytes)
    }

    /// The combine all-to-all: the transpose of `dispatch_bytes` flows
    /// from the experts back to the token devices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape disagrees with the meshes or every
    /// entry is zero.
    pub fn combine(
        tokens_mesh: &DeviceMesh,
        expert_mesh: &DeviceMesh,
        dispatch_bytes: &[Vec<u64>],
    ) -> Self {
        let experts = expert_mesh.devices().len();
        let sources = tokens_mesh.devices().len();
        let transposed: Vec<Vec<u64>> = (0..experts)
            .map(|e| (0..sources).map(|s| dispatch_bytes[s][e]).collect())
            .collect();
        Self::build(A2aDirection::Combine, expert_mesh, tokens_mesh, &transposed)
    }

    // Rank-1 tiles over the virtual byte space are the design here.
    #[allow(clippy::single_range_in_vec_init)]
    fn build(
        direction: A2aDirection,
        src_mesh: &DeviceMesh,
        dst_mesh: &DeviceMesh,
        bytes: &[Vec<u64>],
    ) -> Self {
        let sources = src_mesh.devices().len();
        let dests = dst_mesh.devices().len();
        assert_eq!(bytes.len(), sources, "one matrix row per source device");
        for (s, row) in bytes.iter().enumerate() {
            assert_eq!(
                row.len(),
                dests,
                "row {s} must have one entry per destination"
            );
        }

        // Destination-major offsets: dst j owns [off[j], off[j + 1]).
        let mut off = vec![0u64; dests + 1];
        for j in 0..dests {
            let recv: u64 = (0..sources).map(|s| bytes[s][j]).sum();
            off[j + 1] = off[j] + recv;
        }
        let total = off[dests];
        assert!(total > 0, "an all-to-all needs at least one nonzero shard");

        let host_of = |mesh: &DeviceMesh, d: DeviceId| {
            mesh.host_of_device(d).expect("device is in its own mesh")
        };
        let mut units = Vec::new();
        let mut pairs = Vec::new();
        for j in 0..dests {
            let dst = dst_mesh.devices()[j];
            let dst_host = host_of(dst_mesh, dst);
            let mut cursor = off[j];
            for (s, row) in bytes.iter().enumerate() {
                let b = row[j];
                if b == 0 {
                    continue;
                }
                let src = src_mesh.devices()[s];
                let src_host = host_of(src_mesh, src);
                units.push(UnitTask {
                    index: units.len(),
                    slice: Tile::new([cursor..cursor + b]),
                    bytes: b,
                    senders: vec![(src, src_host)],
                    receivers: vec![Receiver {
                        device: dst,
                        host: dst_host,
                    }],
                });
                pairs.push(A2aPairView {
                    src_device: src,
                    src_host,
                    dst_device: dst,
                    dst_host,
                    bytes: b,
                });
                cursor += b;
            }
        }
        let destination_tiles = (0..dests)
            .filter(|&j| off[j + 1] > off[j])
            .map(|j| (dst_mesh.devices()[j], Tile::new([off[j]..off[j + 1]])))
            .collect();
        let task = ReshardingTask::from_units(
            src_mesh.clone(),
            ShardingSpec::replicated(1),
            dst_mesh.clone(),
            ShardingSpec::replicated(1),
            &[total],
            1,
            units,
        );
        A2aTask {
            direction,
            task,
            pairs,
            destination_tiles,
            total_bytes: total,
        }
    }

    /// Dispatch or combine.
    pub fn direction(&self) -> A2aDirection {
        self.direction
    }

    /// The carrying resharding task — hand this to any planner.
    pub fn task(&self) -> &ReshardingTask {
        &self.task
    }

    /// The expected pair set for `crossmesh-check`'s `plan.a2a.*` rules.
    pub fn pairs(&self) -> &[A2aPairView] {
        &self.pairs
    }

    /// Each receiving device's contiguous region of the virtual byte
    /// space (devices with no inbound shard are omitted).
    pub fn destination_tiles(&self) -> &[(DeviceId, Tile)] {
        &self.destination_tiles
    }

    /// Total wire payload in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Statically verifies `plan` as this all-to-all on `cluster`: the
    /// generic `plan.*` rules ([`Plan::verify`]) followed by the
    /// `plan.a2a.*` rules. An empty vector means the plan delivers every
    /// expert shard exactly once within capacity.
    pub fn verify(&self, plan: &Plan<'_>, cluster: &ClusterSpec) -> Vec<Diagnostic> {
        let mut diags = plan.verify(Some(cluster), &|_, _| false);
        diags.extend(verify_a2a(
            &self.pairs,
            self.task.units(),
            plan.assignments(),
            Some(cluster),
        ));
        diags
    }

    /// Per-rail byte totals for `plan`'s [`Strategy::MultiRail`]
    /// assignments, re-deriving the same greedy chunk-to-rail spray the
    /// lowering uses. The result's length is the widest rail count any
    /// assignment sprays over; an empty vector means no unit task used
    /// multi-rail (co-hosted receivers ride NVLink and contribute no
    /// rail bytes). Observability callers turn this into `moe.rail.*`
    /// utilization metrics without lowering a task graph.
    pub fn rail_utilization(&self, plan: &Plan<'_>) -> Vec<f64> {
        let units = self.task.units();
        let mut totals: Vec<f64> = Vec::new();
        for a in plan.assignments() {
            if let Strategy::MultiRail { rails, chunks } = a.strategy {
                let spray = multi_rail_spray(&units[a.unit], a.sender_host, rails, chunks);
                if spray.rail_bytes.len() > totals.len() {
                    totals.resize(spray.rail_bytes.len(), 0.0);
                }
                for (t, b) in totals.iter_mut().zip(&spray.rail_bytes) {
                    *t += *b;
                }
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    fn meshes() -> (ClusterSpec, DeviceMesh, DeviceMesh) {
        let c = ClusterSpec::homogeneous(4, 2, LinkParams::new(100.0, 1.0));
        let tokens = DeviceMesh::from_cluster(&c, 0, (2, 2), "tokens").unwrap();
        let experts = DeviceMesh::from_cluster(&c, 2, (2, 2), "experts").unwrap();
        (c, tokens, experts)
    }

    #[test]
    fn dispatch_units_tile_the_byte_space() {
        let (_c, tokens, experts) = meshes();
        let bytes = vec![
            vec![10, 0, 3, 1],
            vec![0, 0, 0, 7],
            vec![2, 5, 0, 0],
            vec![1, 1, 1, 1],
        ];
        let a2a = A2aTask::dispatch(&tokens, &experts, &bytes);
        assert_eq!(a2a.total_bytes(), 32);
        assert_eq!(a2a.pairs().len(), 10); // nonzero entries
        assert_eq!(a2a.task().units().len(), 10);
        // Units exactly tile [0, total) with no gaps or overlaps.
        let mut covered = [false; 32];
        for u in a2a.task().units() {
            let r = u.slice.range(0);
            for i in r.start..r.end {
                assert!(!covered[i as usize], "byte {i} covered twice");
                covered[i as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "gap in the byte space");
        // Destination tiles are contiguous and ordered.
        let sizes: Vec<u64> = a2a
            .destination_tiles()
            .iter()
            .map(|(_, t)| t.volume())
            .collect();
        assert_eq!(sizes, vec![13, 6, 4, 9]);
    }

    #[test]
    fn combine_transposes_dispatch() {
        let (_c, tokens, experts) = meshes();
        let bytes = vec![
            vec![4, 0, 0, 0],
            vec![0, 3, 0, 0],
            vec![0, 0, 2, 0],
            vec![0, 0, 0, 1],
        ];
        let back = A2aTask::combine(&tokens, &experts, &bytes);
        assert_eq!(back.direction(), A2aDirection::Combine);
        assert_eq!(back.total_bytes(), 10);
        for p in back.pairs() {
            // Diagonal routing: expert i sends back to token device i.
            let s = experts
                .devices()
                .iter()
                .position(|&d| d == p.src_device)
                .unwrap();
            let d = tokens
                .devices()
                .iter()
                .position(|&d| d == p.dst_device)
                .unwrap();
            assert_eq!(s, d);
            assert_eq!(p.bytes, bytes[d][s]);
        }
    }

    #[test]
    fn rail_utilization_accounts_every_remote_byte() {
        use crossmesh_core::{NaivePlanner, Planner, PlannerConfig, Strategy, StrategyChoice};
        let (_c, tokens, experts) = meshes();
        let bytes = vec![
            vec![10, 0, 3, 1],
            vec![0, 0, 0, 7],
            vec![2, 5, 0, 0],
            vec![1, 1, 1, 1],
        ];
        let a2a = A2aTask::dispatch(&tokens, &experts, &bytes);

        // Token and expert meshes live on disjoint hosts, so every pair is
        // remote and every sprayed byte must land on some rail.
        let rails = 3u32;
        let config =
            PlannerConfig::default().with_strategy(StrategyChoice::Fixed(Strategy::MultiRail {
                rails,
                chunks: 4,
            }));
        let plan = NaivePlanner::new(config).plan(a2a.task());
        let util = a2a.rail_utilization(&plan);
        assert_eq!(util.len(), rails as usize);
        let total: f64 = util.iter().sum();
        assert!(
            (total - a2a.total_bytes() as f64).abs() < 1e-9,
            "rails carry {total} bytes, expected {}",
            a2a.total_bytes()
        );
        assert!(util.iter().all(|&b| b > 0.0), "a rail sat idle: {util:?}");

        // A non-multi-rail plan has no rail traffic to report.
        let broadcast = NaivePlanner::new(PlannerConfig::default()).plan(a2a.task());
        assert!(a2a.rail_utilization(&broadcast).is_empty());
    }

    #[test]
    #[should_panic(expected = "nonzero shard")]
    fn empty_matrix_is_rejected() {
        let (_c, tokens, experts) = meshes();
        let bytes = vec![vec![0u64; 4]; 4];
        let _ = A2aTask::dispatch(&tokens, &experts, &bytes);
    }
}
