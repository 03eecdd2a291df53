//! Property-based tests over the whole stack: random sharding specs,
//! tensor shapes, and mesh shapes must uphold the core invariants.

use crossmesh::core::{
    EnsemblePlanner, LoadBalancePlanner, NaivePlanner, Planner, PlannerConfig, ReshardingTask,
};
use crossmesh::mesh::{DeviceMesh, DimSharding, Layout, ShardingSpec};
use crossmesh::netsim::{ClusterSpec, LinkParams};
use proptest::prelude::*;

/// A random valid sharding spec of the given rank: each of the two mesh
/// axes is assigned to at most one tensor dimension.
fn spec_strategy(rank: usize) -> impl Strategy<Value = ShardingSpec> {
    // For each axis: Some(dim) it shards, or None. `swap` orders the axes
    // when both land on the same dimension.
    (
        prop::option::of(0..rank),
        prop::option::of(0..rank),
        any::<bool>(),
    )
        .prop_map(move |(a0, a1, swap)| {
            let mut dims = vec![DimSharding::Replicated; rank];
            match (a0, a1) {
                (Some(d0), Some(d1)) if d0 == d1 => {
                    let axes = if swap { vec![0, 1] } else { vec![1, 0] };
                    dims[d0] = DimSharding::Sharded(axes);
                }
                (a0, a1) => {
                    if let Some(d) = a0 {
                        dims[d] = DimSharding::Sharded(vec![0]);
                    }
                    if let Some(d) = a1 {
                        dims[d] = DimSharding::Sharded(vec![1]);
                    }
                }
            }
            ShardingSpec::new(dims).expect("construction is valid by design")
        })
}

/// Random problem: disjoint meshes on a shared cluster, two specs, a shape.
#[derive(Debug, Clone)]
struct Problem {
    src_shape: (usize, usize),
    dst_shape: (usize, usize),
    src_spec: ShardingSpec,
    dst_spec: ShardingSpec,
    tensor: Vec<u64>,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (1usize..=3)
        .prop_flat_map(|rank| {
            (
                (1usize..=2, 1usize..=4),
                (1usize..=2, 1usize..=4),
                spec_strategy(rank),
                spec_strategy(rank),
                prop::collection::vec(1u64..=12, rank),
            )
        })
        .prop_map(
            |(src_shape, dst_shape, src_spec, dst_spec, tensor)| Problem {
                src_shape,
                dst_shape,
                src_spec,
                dst_spec,
                tensor,
            },
        )
}

fn build(p: &Problem) -> (ClusterSpec, ReshardingTask) {
    let hosts = (p.src_shape.0 + p.dst_shape.0) as u32;
    let cluster = ClusterSpec::homogeneous(
        hosts,
        4,
        LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
    );
    let src = DeviceMesh::from_cluster(&cluster, 0, p.src_shape, "src").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, p.src_shape.0, p.dst_shape, "dst").unwrap();
    let task = ReshardingTask::new(
        src,
        p.src_spec.clone(),
        dst,
        p.dst_spec.clone(),
        &p.tensor,
        1,
    )
    .unwrap();
    (cluster, task)
}

fn config() -> PlannerConfig {
    PlannerConfig::new(crossmesh::core::CostParams {
        inter_bw: 1.0,
        intra_bw: 100.0,
        inter_latency: 0.0,
        intra_latency: 0.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Specs round-trip through their string form.
    #[test]
    fn spec_string_roundtrip(spec in spec_strategy(3)) {
        let text = spec.to_string();
        let back: ShardingSpec = text.parse().unwrap();
        prop_assert_eq!(back, spec);
    }

    /// The unique slices of any layout tile the tensor exactly.
    #[test]
    fn unique_slices_partition_the_tensor(p in problem_strategy()) {
        let (cluster, _) = build(&p);
        let mesh = DeviceMesh::from_cluster(&cluster, 0, p.src_shape, "m").unwrap();
        let layout = Layout::new(&mesh, &p.src_spec, &p.tensor).unwrap();
        let total: u64 = layout.unique_slices().iter().map(|(t, _)| t.volume()).sum();
        prop_assert_eq!(total, p.tensor.iter().product::<u64>());
        // Slices are pairwise disjoint.
        let slices = layout.unique_slices();
        for i in 0..slices.len() {
            for j in i + 1..slices.len() {
                prop_assert!(slices[i].0.intersect(&slices[j].0).is_none());
            }
        }
    }

    /// Unit tasks conserve bytes and cover every destination tile exactly.
    #[test]
    fn unit_tasks_cover_destinations(p in problem_strategy()) {
        let (cluster, task) = build(&p);
        let tensor_bytes: u64 = p.tensor.iter().product();
        let total: u64 = task.units().iter().map(|u| u.bytes).sum();
        prop_assert_eq!(total, tensor_bytes);

        let dst = DeviceMesh::from_cluster(&cluster, p.src_shape.0, p.dst_shape, "dst").unwrap();
        let layout = Layout::new(&dst, &p.dst_spec, &p.tensor).unwrap();
        for coord in dst.coords() {
            let dev = dst.device(coord);
            let tile = layout.tile_at(coord);
            if tile.is_empty() {
                continue;
            }
            let got: u64 = task
                .units()
                .iter()
                .flat_map(|u| u.receivers.iter().map(move |r| (r.device, u.slice.volume())))
                .filter(|&(d, _)| d == dev)
                .map(|(_, v)| v)
                .sum();
            prop_assert_eq!(got, tile.volume(), "device {} under-covered", dev);
        }
    }

    /// Every planner yields a valid plan whose simulation respects the
    /// bandwidth lower bound and beats nothing it cannot beat.
    #[test]
    fn plans_are_valid_and_bounded(p in problem_strategy()) {
        let (cluster, task) = build(&p);
        for planner in [
            Box::new(NaivePlanner::new(config())) as Box<dyn Planner>,
            Box::new(LoadBalancePlanner::new(config())),
            Box::new(EnsemblePlanner::new(config())),
        ] {
            let plan = planner.plan(&task);
            prop_assert_eq!(plan.assignments().len(), task.units().len());
            let report = plan.execute(&cluster).unwrap();
            prop_assert!(report.simulated_seconds + 1e-9 >= plan.lower_bound());
            // Serial upper bound: everything through one NIC.
            let serial = task.total_bytes() as f64 * 3.0 + 1.0;
            prop_assert!(report.simulated_seconds <= serial);
        }
    }

    /// The ensemble's estimate never exceeds the naive baseline's.
    #[test]
    fn ensemble_estimate_dominates_naive(p in problem_strategy()) {
        let (_, task) = build(&p);
        let ours = EnsemblePlanner::new(config()).plan(&task).estimate();
        let naive = NaivePlanner::new(config()).plan(&task).estimate();
        prop_assert!(ours <= naive + 1e-9, "ours {} vs naive {}", ours, naive);
    }

    /// The data plane verifies that every plan moves exactly the right
    /// elements: full destination coverage, correct values, no conflicts.
    #[test]
    fn plans_move_the_right_data(p in problem_strategy()) {
        let (_, task) = build(&p);
        for planner in [
            Box::new(NaivePlanner::new(config())) as Box<dyn Planner>,
            Box::new(EnsemblePlanner::new(config())),
        ] {
            let plan = planner.plan(&task);
            let report = crossmesh::core::dataplane::execute_and_verify(&plan)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", planner.name())))?;
            prop_assert!(report.delivered_bytes >= task.total_bytes());
        }
    }
}
