//! Cross-backend equivalence: the threaded runtime must agree with the
//! in-process data plane on *placement* and with the task graph on
//! *ordering*, for random resharding problems.
//!
//! Two properties:
//!
//! * [`threaded_dataflow_matches_dataplane`] — executing a plan with real
//!   payloads across threads ([`runtime::execute_plan`]) delivers exactly
//!   the destination bytes the sequential data plane
//!   (`core::dataplane::execute_and_verify`) produces;
//! * [`threaded_trace_respects_dependencies`] — executing the lowered task
//!   graph on the threaded [`Backend`] yields a trace whose happens-before
//!   edges follow the graph's dependencies, with the same cross-host byte
//!   accounting as the simulator.
//! * [`a2a_threaded_matches_reference`] — the MoE all-to-all data plane
//!   delivers byte-identical expert shards whether run sequentially or on
//!   a worker pool of any width, with or without a seeded fault schedule.
//! * [`engine_is_lane_count_invariant`] — the delivery engine all of the
//!   above are adapters of, driven directly: one inline lane and `n`
//!   sender threads produce the identical report for random plans and
//!   random all-to-all tasks, with or without a seeded drop roll.
//!
//! Case counts are modest: every case spawns real OS threads.

use crossmesh::core::dataplane::{deliver, Delivery, DropRoll};
use crossmesh::core::{EnsemblePlanner, NaivePlanner, Planner, PlannerConfig, ReshardingTask};
use crossmesh::faults::{FaultEvent, FaultSchedule};
use crossmesh::mesh::{DeviceMesh, DimSharding, Layout, ShardingSpec, Tile};
use crossmesh::moe::{execute, A2aTask, RoutingConfig};
use crossmesh::netsim::{Backend, ClusterSpec, DeviceId, LinkParams, SimBackend, TaskGraph};
use crossmesh::runtime::{execute_plan, ThreadedBackend};
use proptest::prelude::*;

/// A random valid sharding spec of the given rank (mirrors
/// `tests/properties.rs`).
fn spec_strategy(rank: usize) -> impl Strategy<Value = ShardingSpec> {
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

/// A small random all-to-all dispatch between two equal meshes.
fn a2a_case(
    hosts_per_side: u32,
    devices: u32,
    tokens: u64,
    token_bytes: u64,
    skew: f64,
    seed: u64,
) -> A2aTask {
    let cluster = ClusterSpec::homogeneous(
        2 * hosts_per_side,
        devices,
        LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
    );
    let shape = (hosts_per_side as usize, devices as usize);
    let tokens_mesh = DeviceMesh::from_cluster(&cluster, 0, shape, "tokens").unwrap();
    let experts_mesh = DeviceMesh::from_cluster(&cluster, shape.0, shape, "experts").unwrap();
    let routing = RoutingConfig {
        tokens_per_device: tokens,
        token_bytes,
        skew,
        seed,
        ..RoutingConfig::default()
    };
    let n = shape.0 * shape.1;
    A2aTask::dispatch(&tokens_mesh, &experts_mesh, &routing.bytes_matrix(n, n))
}

/// Runs `deliveries` on the engine as one inline lane and dealt
/// round-robin over `n` sender threads, clean and under a seeded drop
/// roll, and demands the identical outcome.
fn assert_lane_count_invariant(
    shape: &[u64],
    elem_bytes: usize,
    destinations: &[(DeviceId, Tile)],
    deliveries: &[Delivery<'_>],
    n: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let dealt = |n: usize| -> Vec<Vec<Delivery<'_>>> {
        (0..n)
            .map(|w| deliveries.iter().skip(w).step_by(n).copied().collect())
            .collect()
    };
    let drops = DropRoll {
        seed,
        prob: 0.2,
        max_retries: 16,
    };
    for drops in [None, Some(drops)] {
        let run = |n| {
            deliver(
                shape,
                elem_bytes,
                destinations.iter().cloned(),
                &dealt(n),
                drops,
            )
        };
        let oracle = run(1);
        prop_assert!(oracle.is_ok(), "oracle failed: {:?}", oracle.err());
        prop_assert_eq!(run(n), oracle, "{} lanes diverged (drops: {:?})", n, drops);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The shared delivery engine, driven directly: lane count and drop
    /// rolls never change the report, for plans (senders hold layout
    /// tiles) and for all-to-all tasks (shards materialized from truth).
    #[test]
    fn engine_is_lane_count_invariant(
        p in problem_strategy(),
        lanes in 2usize..=5,
        hosts_per_side in 1u32..=2,
        devices in 1u32..=3,
        tokens in 1u64..=24,
        skew in 0.0f64..2.5,
        seed in 0u64..1024,
    ) {
        let (_, task) = build(&p);
        let plan = EnsemblePlanner::new(config()).plan(&task);
        let src = Layout::new(task.src_mesh(), task.src_spec(), task.shape()).unwrap();
        let dst = Layout::new(task.dst_mesh(), task.dst_spec(), task.shape()).unwrap();
        let tile_of = |mesh: &DeviceMesh, layout: &Layout, device: DeviceId| {
            let coord = mesh.coords().find(|&c| mesh.device(c) == device).unwrap();
            layout.tile_at(coord).clone()
        };
        let holders: Vec<Tile> = plan
            .assignments()
            .iter()
            .map(|a| tile_of(task.src_mesh(), &src, a.sender))
            .collect();
        let deliveries: Vec<Delivery<'_>> = plan
            .assignments()
            .iter()
            .zip(&holders)
            .map(|(a, tile)| Delivery {
                unit: &task.units()[a.unit],
                holder: Some((a.sender, tile)),
            })
            .collect();
        let destinations: Vec<(DeviceId, Tile)> = task
            .dst_mesh()
            .coords()
            .map(|c| (task.dst_mesh().device(c), dst.tile_at(c).clone()))
            .collect();
        assert_lane_count_invariant(task.shape(), 1, &destinations, &deliveries, lanes, seed)?;

        let a2a = a2a_case(hosts_per_side, devices, tokens, 3, skew, seed);
        let shards: Vec<Delivery<'_>> = a2a
            .task()
            .units()
            .iter()
            .map(|unit| Delivery { unit, holder: None })
            .collect();
        assert_lane_count_invariant(
            a2a.task().shape(),
            1,
            a2a.destination_tiles(),
            &shards,
            lanes,
            seed,
        )?;
    }

    /// Threaded plan execution delivers destination bytes identical to the
    /// sequential data plane, for every planner.
    #[test]
    fn threaded_dataflow_matches_dataplane(p in problem_strategy()) {
        let (_, task) = build(&p);
        for planner in [
            Box::new(NaivePlanner::new(config())) as Box<dyn Planner>,
            Box::new(EnsemblePlanner::new(config())),
        ] {
            let plan = planner.plan(&task);
            let sequential = crossmesh::core::dataplane::execute_and_verify(&plan)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", planner.name())))?;
            let threaded = execute_plan(&plan)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", planner.name())))?;
            // Same logical payload volume and byte-identical destinations.
            prop_assert_eq!(threaded.delivered_bytes, sequential.delivered_bytes);
            prop_assert_eq!(&threaded.destination, &sequential.destination);
        }
    }

    /// The threaded backend's trace honours every dependency edge of the
    /// lowered graph on one wall clock, and accounts cross-host bytes
    /// exactly like the simulator.
    #[test]
    fn threaded_trace_respects_dependencies(p in problem_strategy()) {
        let (cluster, task) = build(&p);
        let plan = EnsemblePlanner::new(config()).plan(&task);
        let mut graph = TaskGraph::new();
        let lowered = plan.lower_on(&mut graph, &[], None);

        let sim_trace = SimBackend.execute(&cluster, &graph).unwrap();
        let trace = ThreadedBackend::threads().execute(&cluster, &graph).unwrap();
        for (id, t) in graph.iter() {
            let iv = trace.interval(id);
            prop_assert!(iv.finish >= iv.start, "task {} runs backwards", id);
            for dep in t.deps {
                prop_assert!(
                    trace.interval(*dep).finish <= iv.start,
                    "dependency {} of {} finished after it started",
                    dep,
                    id
                );
            }
        }
        prop_assert!(trace.interval(lowered.done).finish <= trace.makespan() + 1e-12);
        if !graph.is_empty() {
            prop_assert!(trace.makespan() >= 0.0);
        }
        // Byte accounting is derived from the graph, so both backends must
        // agree to the bit.
        prop_assert_eq!(
            trace.usage().total_cross_host_bytes(),
            sim_trace.usage().total_cross_host_bytes()
        );
    }

    /// The MoE all-to-all data plane is pool-width invariant: every expert
    /// shard arrives byte-identically at pool widths 1 and 4, both clean
    /// and under a seeded flow-drop fault schedule (drops are rolled per
    /// unit task, so retries cannot depend on worker interleaving).
    #[test]
    fn a2a_threaded_matches_reference(
        hosts_per_side in 1u32..=2,
        devices in 1u32..=3,
        tokens in 1u64..=24,
        token_bytes in 1u64..=8,
        skew in 0.0f64..2.5,
        seed in 0u64..1024,
    ) {
        let a2a = a2a_case(hosts_per_side, devices, tokens, token_bytes, skew, seed);

        let reference = execute(&a2a, 1, &FaultSchedule::default())
            .map_err(|e| TestCaseError::fail(format!("reference: {e}")))?;
        prop_assert_eq!(reference.delivered_bytes, a2a.total_bytes());
        let faults = FaultSchedule::new(seed)
            .with_event(FaultEvent::FlowDrop { prob: 0.2 })
            .with_retry_policy(6, 1e-3);
        for pool in [1usize, 4] {
            let clean = execute(&a2a, pool, &FaultSchedule::default())
                .map_err(|e| TestCaseError::fail(format!("pool {pool}: {e}")))?;
            prop_assert_eq!(&clean, &reference, "pool {} diverged", pool);
            let faulty = execute(&a2a, pool, &faults)
                .map_err(|e| TestCaseError::fail(format!("pool {pool} faults: {e}")))?;
            prop_assert_eq!(&faulty, &reference, "pool {} with faults diverged", pool);
        }
    }
}

/// The same equality on the benchmark's throughput case — `RS0R → S0RR`
/// between (2, 4) meshes, `128×128×64` fp32, 4 MB — where a piece is 64
/// runs of 16 KB at its destination and a destination tile is one 2 MB run
/// of the tensor, so ground truth is generated and compared in many chunks.
#[test]
fn threaded_dataflow_matches_dataplane_on_a_4mb_tensor() {
    let cluster = ClusterSpec::homogeneous(4, 4, LinkParams::new(100.0, 1.0));
    let src = DeviceMesh::from_cluster(&cluster, 0, (2, 4), "src").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, 2, (2, 4), "dst").unwrap();
    let (from, to) = ("RS0R".parse().unwrap(), "S0RR".parse().unwrap());
    let task = ReshardingTask::new(src, from, dst, to, &[128, 128, 64], 4).unwrap();
    let plan = EnsemblePlanner::new(config()).plan(&task);
    let sequential = crossmesh::core::dataplane::execute_and_verify(&plan).unwrap();
    let threaded = execute_plan(&plan).unwrap();
    assert_eq!(threaded, sequential);
    assert_eq!(sequential.delivered_bytes, 4 * task.total_bytes());
    let last = task.dst_mesh().coords().last().unwrap();
    let tile = &sequential.destination[&task.dst_mesh().device(last).0];
    assert_eq!(tile.data.len(), 2 << 20);
    // Row 64 of dimension 0 starts the second half of the tensor.
    assert_eq!(tile.element(0), 64 * 128 * 64);
    assert_eq!(tile.element(tile.data.len() / 4 - 1), 128 * 128 * 64 - 1);
}
