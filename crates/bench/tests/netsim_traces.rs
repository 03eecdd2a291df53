//! Pins every interval of five simulator runs, not only their makespans.
//!
//! `BENCH_paper.json` pins makespans and work counters, and the engine's
//! equivalence proptests allow a relative error of 1e-9 against the frozen
//! reference, so an interior interval could move without either noticing.
//! Each run here is folded into one FNV-1a hash over the bits of every
//! interval's `start` and `finish`, the failed set and the per-host NIC
//! bytes. A change to the engine that keeps these hashes is bit-identical
//! on these graphs; one that moves a hash on purpose says so and updates it.

use crossmesh_bench::cases::TABLE2;
use crossmesh_bench::netsim::{build_workload, Workload};
use crossmesh_core::{
    EnsemblePlanner, LoadBalancePlanner, Planner, PlannerConfig, Strategy, StrategyChoice,
};
use crossmesh_mesh::DeviceMesh;
use crossmesh_models::moe::GptMoeConfig;
use crossmesh_models::presets;
use crossmesh_moe::{A2aTask, RoutingConfig};
use crossmesh_netsim::{
    ClusterSpec, Disruptions, Engine, FabricModel, HostId, LinkParams, NicScalePeriod, TaskGraph,
    Trace, Work,
};

/// FNV-1a over the trace's exact bits: intervals in task order, then the
/// failed set, then bytes sent and received per host.
fn trace_hash(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for iv in trace.intervals() {
        eat(iv.start.to_bits());
        eat(iv.finish.to_bits());
    }
    eat(trace.failed_tasks().len() as u64);
    for t in trace.failed_tasks() {
        eat(u64::from(t.0));
    }
    for per_host in [&trace.usage().host_sent, &trace.usage().host_received] {
        eat(per_host.len() as u64);
        for (&host, bytes) in per_host {
            eat(u64::from(host));
            eat(bytes.to_bits());
        }
    }
    h
}

/// The `netsim_work` iteration graph at `hosts` hosts, on its cluster.
fn gpt_iteration(hosts: u32) -> (ClusterSpec, TaskGraph) {
    let cluster = ClusterSpec::homogeneous(
        hosts,
        1,
        LinkParams::new(100e9, 10e9).with_latencies(1e-6, 5e-6),
    );
    let graph = build_workload(Workload {
        hosts,
        stages: 8,
        microbatches: 4,
        ring_group: 8,
    });
    (cluster, graph)
}

fn run(cluster: &ClusterSpec, graph: &TaskGraph) -> Trace {
    Engine::new(cluster)
        .run(graph)
        .expect("the graph simulates")
}

#[test]
fn gpt_iteration_at_64_hosts() {
    let (cluster, graph) = gpt_iteration(64);
    assert_eq!(trace_hash(&run(&cluster, &graph)), 0x8271_630c_ac4d_90c8);
}

#[test]
fn gpt_iteration_at_256_hosts() {
    let (cluster, graph) = gpt_iteration(256);
    assert_eq!(trace_hash(&run(&cluster, &graph)), 0xd4a6_64ce_7b42_1e23);
}

#[test]
fn table2_case4_lowered_plan() {
    let (cluster, task) = TABLE2[3].build().expect("case 4 builds");
    let plan = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params())).plan(&task);
    let mut graph = TaskGraph::new();
    plan.lower_on(&mut graph, &[], Some(&cluster));
    assert_eq!(trace_hash(&run(&cluster, &graph)), 0xb326_599e_3674_9511);
}

#[test]
fn moe_dispatch_of_the_benchmark() {
    // 4 token hosts to 4 expert hosts of 4 devices on a 4-rail fabric,
    // with the seeded gate draw, planned as a 4-rail, 4-chunk spray.
    let cluster = ClusterSpec::homogeneous(
        8,
        4,
        LinkParams::new(100e9, 1.25e9).with_latencies(5e-6, 25e-6),
    )
    .with_fabric(FabricModel::RailOptimized {
        rails: 4,
        spine_capacity: 1.25e9,
    });
    let tokens = DeviceMesh::from_cluster(&cluster, 0, (4, 4), "moe-tokens").unwrap();
    let experts = DeviceMesh::from_cluster(&cluster, 4, (4, 4), "moe-experts").unwrap();
    let routing = RoutingConfig {
        tokens_per_device: 32,
        token_bytes: 32,
        ..GptMoeConfig::case1().with_seed(17).routing()
    };
    let a2a = A2aTask::dispatch(&tokens, &experts, &routing.bytes_matrix(16, 16));
    let planner = LoadBalancePlanner::new(PlannerConfig::default().with_strategy(
        StrategyChoice::Fixed(Strategy::MultiRail {
            rails: 4,
            chunks: 4,
        }),
    ));
    let mut graph = TaskGraph::new();
    planner
        .plan(a2a.task())
        .lower_on(&mut graph, &[], Some(&cluster));
    assert_eq!(trace_hash(&run(&cluster, &graph)), 0x614f_dd07_c488_9824);
}

#[test]
fn gpt_iteration_under_disruptions() {
    // The 64-host iteration with a last-stage host crashing half way
    // through, a dropped flow in the middle of the graph, and another
    // late-stage host's NIC at half speed over the middle half of the clean
    // run. (The early stages are idle by then: their rings finish first.)
    let (cluster, graph) = gpt_iteration(64);
    let makespan = run(&cluster, &graph).makespan();
    let dropped = graph
        .iter()
        .skip(graph.len() / 2)
        .find(|(_, t)| matches!(t.work, Work::Flow { .. }))
        .map(|(id, _)| id)
        .expect("the graph has flows");
    let mut d = Disruptions::none();
    d.host_down.push((HostId(60), 0.5 * makespan));
    d.flow_drops.insert(dropped.0, 1);
    d.nic_scale.push(NicScalePeriod {
        host: HostId(52),
        factor: 0.5,
        from: 0.25 * makespan,
        until: 0.75 * makespan,
    });
    let trace = Engine::new(&cluster)
        .run_with_disruptions(&graph, &d)
        .expect("the graph simulates");
    assert!(!trace.failed_tasks().is_empty(), "the crash fails tasks");
    assert_eq!(trace.fault_stats().retries, 1, "the drop is retried");
    assert_eq!(trace_hash(&trace), 0xda5b_c4d6_eae0_cbef);
}
