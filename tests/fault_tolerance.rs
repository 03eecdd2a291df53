//! Fault-tolerance properties over the whole stack: fault injection is
//! deterministic on the simulator, and sender-crash recovery via
//! [`Plan::repair`] stays byte-exact on both data planes.
//!
//! Test names end in `_sim` / `_threads` so CI can run the two backend
//! families separately (`cargo test --test fault_tolerance -- sim`).

use crossmesh::core::{
    dataplane, EnsemblePlanner, NaivePlanner, Planner, PlannerConfig, ReshardingTask,
    SenderExclusions,
};
use crossmesh::faults::{BackendKind, FaultEvent, FaultSchedule};
use crossmesh::mesh::{DeviceMesh, DimSharding, ShardingSpec};
use crossmesh::netsim::{ClusterSpec, HostId, LinkParams, TaskGraph, Work};
use proptest::prelude::*;
use std::collections::BTreeSet;

const HOSTS: u32 = 3;
const DEVICES_PER_HOST: u32 = 2;

fn sim_cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(
        HOSTS,
        DEVICES_PER_HOST,
        LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
    )
}

/// One node of a random task graph, devices addressed flat in
/// `0..HOSTS * DEVICES_PER_HOST`.
#[derive(Debug, Clone)]
enum Node {
    Flow { src: u32, dst: u32, bytes: f64 },
    Compute { dev: u32, secs: f64 },
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let devices = HOSTS * DEVICES_PER_HOST;
    prop_oneof![
        (0..devices, 1..devices, 0.5f64..16.0).prop_map(move |(src, off, bytes)| Node::Flow {
            src,
            dst: (src + off) % devices,
            bytes,
        }),
        (0..devices, 0.01f64..1.0).prop_map(|(dev, secs)| Node::Compute { dev, secs }),
    ]
}

/// Random DAG: each node depends on up to two earlier nodes (the raw
/// `u64`s pick which, modulo the node's index).
fn graph_strategy() -> impl Strategy<Value = Vec<(Node, Vec<u64>)>> {
    prop::collection::vec(
        (node_strategy(), prop::collection::vec(any::<u64>(), 0..=2)),
        1..12,
    )
}

fn build_graph(c: &ClusterSpec, nodes: &[(Node, Vec<u64>)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut ids = Vec::new();
    for (i, (node, deps)) in nodes.iter().enumerate() {
        let dev = |flat: u32| c.device(flat / DEVICES_PER_HOST, flat % DEVICES_PER_HOST);
        let work = match *node {
            Node::Flow { src, dst, bytes } => Work::flow(dev(src), dev(dst), bytes),
            Node::Compute { dev: d, secs } => Work::compute(dev(d), secs),
        };
        let deps: BTreeSet<_> = if i == 0 {
            BTreeSet::new()
        } else {
            deps.iter().map(|d| ids[(d % i as u64) as usize]).collect()
        };
        ids.push(g.add(work, deps));
    }
    g
}

fn event_strategy() -> impl Strategy<Value = FaultEvent> {
    let devices = HOSTS * DEVICES_PER_HOST;
    prop_oneof![
        (0..HOSTS, 0.0f64..2.0).prop_map(|(host, at)| FaultEvent::HostCrash { host, at }),
        (0..HOSTS, 0.05f64..1.0, 0.0f64..1.0, 1.0f64..5.0).prop_map(
            |(host, factor, from, until)| FaultEvent::LinkDegrade {
                host,
                factor,
                from,
                until
            }
        ),
        (0..devices, 1.0f64..4.0)
            .prop_map(|(device, slowdown)| FaultEvent::Straggler { device, slowdown }),
        (0.0f64..0.9).prop_map(|prob| FaultEvent::FlowDrop { prob }),
    ]
}

fn schedule_strategy() -> impl Strategy<Value = FaultSchedule> {
    (any::<u64>(), prop::collection::vec(event_strategy(), 0..4)).prop_map(|(seed, events)| {
        events
            .into_iter()
            .fold(FaultSchedule::new(seed), |s, e| s.with_event(e))
    })
}

/// A sharding spec whose host axis (mesh axis 0) is unused, so every
/// slice is replicated across all source hosts — the recoverable regime.
fn replicated_spec_strategy(rank: usize) -> impl Strategy<Value = ShardingSpec> {
    prop::option::of(0..rank).prop_map(move |sharded| {
        let mut dims = vec![DimSharding::Replicated; rank];
        if let Some(d) = sharded {
            dims[d] = DimSharding::Sharded(vec![1]);
        }
        ShardingSpec::new(dims).expect("construction is valid by design")
    })
}

/// Any valid spec for the destination side.
fn dst_spec_strategy(rank: usize) -> impl Strategy<Value = ShardingSpec> {
    (prop::option::of(0..rank), prop::option::of(0..rank)).prop_map(move |(a0, a1)| {
        let mut dims = vec![DimSharding::Replicated; rank];
        if let (Some(d0), Some(d1)) = (a0, a1) {
            if d0 == d1 {
                dims[d0] = DimSharding::Sharded(vec![0, 1]);
                return ShardingSpec::new(dims).expect("valid");
            }
        }
        if let Some(d) = a0 {
            dims[d] = DimSharding::Sharded(vec![0]);
        }
        if let Some(d) = a1 {
            dims[d] = DimSharding::Sharded(vec![1]);
        }
        ShardingSpec::new(dims).expect("valid")
    })
}

/// Random recoverable problem: the source mesh spans two hosts with every
/// slice held on both, so crashing one sender host leaves a replica.
#[derive(Debug, Clone)]
struct Recoverable {
    src_cols: usize,
    dst_shape: (usize, usize),
    src_spec: ShardingSpec,
    dst_spec: ShardingSpec,
    tensor: Vec<u64>,
}

fn recoverable_strategy() -> impl Strategy<Value = Recoverable> {
    (1usize..=3)
        .prop_flat_map(|rank| {
            (
                1usize..=3,
                (1usize..=2, 1usize..=4),
                replicated_spec_strategy(rank),
                dst_spec_strategy(rank),
                prop::collection::vec(1u64..=12, rank),
            )
        })
        .prop_map(
            |(src_cols, dst_shape, src_spec, dst_spec, tensor)| Recoverable {
                src_cols,
                dst_shape,
                src_spec,
                dst_spec,
                tensor,
            },
        )
}

fn build_recoverable(p: &Recoverable) -> (ClusterSpec, ReshardingTask) {
    let hosts = (2 + p.dst_shape.0) as u32;
    let cluster = ClusterSpec::homogeneous(
        hosts,
        4,
        LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
    );
    let src = DeviceMesh::from_cluster(&cluster, 0, (2, p.src_cols), "src").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, 2, p.dst_shape, "dst").unwrap();
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

/// Repairs around a crash of source host 0 and checks no excluded sender
/// survives in the patched plan.
fn repaired_plan<'t>(
    task: &'t ReshardingTask,
    planner: &dyn Planner,
) -> Result<crossmesh::core::Plan<'t>, TestCaseError> {
    let plan = planner.plan(task);
    let exclusions = SenderExclusions::for_hosts([HostId(0)]);
    let repaired = plan
        .repair(&exclusions)
        .map_err(|e| TestCaseError::fail(format!("{}: {e}", planner.name())))?;
    for a in repaired.assignments() {
        prop_assert!(
            a.sender_host != HostId(0),
            "excluded sender survived repair"
        );
    }
    Ok(repaired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same seed and schedule replay to an identical trace — the
    /// determinism guarantee that makes fault scenarios debuggable.
    #[test]
    fn same_seed_and_schedule_replay_identically_sim(
        nodes in graph_strategy(),
        schedule in schedule_strategy(),
    ) {
        let c = sim_cluster();
        let g = build_graph(&c, &nodes);
        let first = BackendKind::Sim.execute_with_faults(&c, &g, &schedule).unwrap();
        let second = BackendKind::Sim.execute_with_faults(&c, &g, &schedule).unwrap();
        prop_assert_eq!(first, second);
    }

    /// With every slice replicated across both source hosts, crashing one
    /// sender host is always recoverable, and the repaired plan still
    /// delivers every destination tile byte-exactly (sequential data
    /// plane).
    #[test]
    fn crashed_sender_repair_is_byte_exact_sim(p in recoverable_strategy()) {
        let (_, task) = build_recoverable(&p);
        for planner in [
            Box::new(NaivePlanner::new(config())) as Box<dyn Planner>,
            Box::new(EnsemblePlanner::new(config())),
        ] {
            let repaired = repaired_plan(&task, &*planner)?;
            let report = dataplane::execute_and_verify(&repaired)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", planner.name())))?;
            prop_assert!(report.delivered_bytes >= task.total_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same repaired plans stay byte-exact on the threaded runtime
    /// data plane (real payloads over channels).
    #[test]
    fn crashed_sender_repair_is_byte_exact_threads(p in recoverable_strategy()) {
        let (_, task) = build_recoverable(&p);
        let repaired = repaired_plan(&task, &EnsemblePlanner::new(config()))?;
        let report = crossmesh::runtime::execute_plan(&repaired)
            .map_err(|e| TestCaseError::fail(format!("threaded: {e}")))?;
        prop_assert!(report.delivered_bytes >= task.total_bytes());
    }
}

/// Crashing the only holder of a slice is data loss, not a bad plan.
#[test]
fn losing_every_replica_is_data_loss_sim() {
    let cluster = sim_cluster_for_loss();
    let src = DeviceMesh::from_cluster(&cluster, 0, (2, 4), "src").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, 2, (2, 4), "dst").unwrap();
    let spec: ShardingSpec = "S0RR".parse().unwrap();
    let task = ReshardingTask::new(src, spec.clone(), dst, spec, &[8, 8, 8], 1).unwrap();
    let plan = EnsemblePlanner::new(config()).plan(&task);
    let err = plan
        .repair(&SenderExclusions::for_hosts([HostId(0)]))
        .unwrap_err();
    assert!(err.to_string().contains("data loss"), "got: {err}");
}

fn sim_cluster_for_loss() -> ClusterSpec {
    ClusterSpec::homogeneous(4, 4, LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0))
}
