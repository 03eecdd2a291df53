//! Anatomy of a single unit communication task: how the four §3.1
//! strategies behave as the receiver set grows, and how the broadcast
//! chunk count `K` trades pipeline fill against task-graph size.
//!
//! Reproduces the analytic table of §3.1 (`ABt`, `At`, `2t`, `t(1+A/K)`)
//! by measurement, on a 1 GB slice and a 5-host cluster.
//!
//! Run with: `cargo run --release --example strategy_anatomy`

use crossmesh::collectives::{estimate_unit_task, lower_unit_task_on, Strategy};
use crossmesh::mesh::{unit_tasks, DeviceMesh, ShardingSpec};
use crossmesh::models::{presets, Precision};
use crossmesh::netsim::{Engine, TaskGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = presets::aws_p3_8xlarge(5, Precision::Fp32);
    let src = DeviceMesh::from_cluster(&cluster, 0, (1, 1), "src")?;
    let dst = DeviceMesh::from_cluster(&cluster, 1, (4, 2), "dst")?;
    // One fully replicated 1 GB tensor -> one unit task to A=4 hosts x B=2.
    let tasks = unit_tasks(
        &src,
        &ShardingSpec::replicated(3),
        &dst,
        &ShardingSpec::replicated(3),
        &[1024, 1024, 256],
        4,
    )?;
    let unit = &tasks[0];
    let params = presets::p3_cost_params();
    let t = unit.bytes as f64 / params.inter_bw;
    println!(
        "unit task: {} MB to {} receivers on {} hosts; t = {:.3}s\n",
        unit.bytes / (1 << 20),
        unit.receivers.len(),
        unit.receiver_hosts().len(),
        t
    );

    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>8}",
        "strategy", "simulated", "estimate", "vs t", "flows"
    );
    for strategy in [
        Strategy::SendRecv,
        Strategy::LocalAllGather,
        Strategy::GlobalAllGather,
        Strategy::broadcast(),
    ] {
        let (sim, flows) = run_one(&cluster, unit, strategy);
        let est = estimate_unit_task(&params, unit, unit.senders[0].1, strategy);
        println!(
            "{:<22} {:>9.3}s {:>9.3}s {:>7.2}x {:>8}",
            strategy.to_string(),
            sim,
            est,
            sim / t,
            flows
        );
    }

    println!("\nbroadcast chunk-count sweep (the paper picks K ~ 100):");
    println!(
        "{:<8} {:>10} {:>8} {:>8}",
        "K", "simulated", "vs t", "flows"
    );
    for k in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
        let (sim, flows) = run_one(&cluster, unit, Strategy::Broadcast { chunks: k });
        println!("{:<8} {:>9.3}s {:>7.3}x {:>8}", k, sim, sim / t, flows);
    }
    Ok(())
}

fn run_one(
    cluster: &crossmesh::netsim::ClusterSpec,
    unit: &crossmesh::mesh::UnitTask,
    strategy: Strategy,
) -> (f64, usize) {
    let mut graph = TaskGraph::new();
    let lowered = lower_unit_task_on(&mut graph, unit, unit.senders[0].0, strategy, &[], None);
    let trace = Engine::new(cluster).run(&graph).expect("simulates");
    (trace.interval(lowered.done).finish, graph.len())
}
