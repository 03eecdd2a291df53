//! MoE all-to-all strategy sweep: multi-rail spraying vs pairwise
//! send/recv vs broadcast ring, across fabric models and gate skews.
//!
//! Not a paper figure — the paper's collectives are resharding-shaped;
//! this extension measures the *data-dependent* all-to-all of an MoE
//! layer (see `crossmesh-moe`) on the typed multi-tier fabrics of
//! `crossmesh-netsim`. The reproduction target is the RailS shape: on a
//! rail-optimized fabric, spraying each expert shard across all rails
//! beats both baselines, and the margin grows with gate skew because a
//! hot expert's inbound burst is exactly what the spray spreads out.
//!
//! Every swept plan must pass the static verifier (`plan.*` rules) *and*
//! the all-to-all rules (`plan.a2a.*`) with zero convictions — the sweep
//! doubles as an end-to-end proof that the MoE path is check-clean.

use crate::table_fmt;
use crossmesh_core::{LoadBalancePlanner, Planner, PlannerConfig, Strategy, StrategyChoice};
use crossmesh_mesh::DeviceMesh;
use crossmesh_models::moe::GptMoeConfig;
use crossmesh_moe::{A2aTask, RoutingConfig};
use crossmesh_netsim::{ClusterSpec, FabricModel, LinkParams};
use serde::{Deserialize, Serialize};

/// Hosts in the swept cluster (half tokens, half experts).
const HOSTS: u32 = 8;
/// Devices (and rails, on the rail fabric) per host.
const DEVICES_PER_HOST: u32 = 4;
/// Gate skews swept (Zipf exponents).
pub const SKEWS: [f64; 3] = [0.0, 1.0, 2.0];

/// One measured (topology, skew, strategy) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Fabric model name.
    pub topology: &'static str,
    /// Gate skew (Zipf exponent of expert popularity).
    pub skew: f64,
    /// Strategy label.
    pub strategy: &'static str,
    /// Simulated all-to-all completion time, seconds.
    pub makespan_seconds: f64,
    /// Bytes that crossed host boundaries.
    pub cross_host_bytes: u64,
    /// Error-severity diagnostics from `verify_plan` + `verify_a2a`
    /// (must be zero).
    pub convictions: usize,
}

/// Speedup of multi-rail over each baseline on the rail fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RailSpeedup {
    /// Gate skew.
    pub skew: f64,
    /// `send_recv / multi_rail` makespan ratio.
    pub vs_send_recv: f64,
    /// `broadcast / multi_rail` makespan ratio.
    pub vs_broadcast: f64,
}

/// The whole sweep. Simulated time only, so it carries no host
/// description: the full sweep is the `moe` section of `BENCH_paper.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Every measured cell.
    pub rows: Vec<Row>,
    /// Multi-rail's margin on the rail-optimized fabric, per skew.
    pub rail_speedups: Vec<RailSpeedup>,
}

/// The swept fabric models over the common host/NIC geometry.
fn topologies() -> Vec<(&'static str, FabricModel)> {
    let nic = 1.25e9;
    vec![
        (
            "rails",
            FabricModel::RailOptimized {
                rails: DEVICES_PER_HOST,
                spine_capacity: nic,
            },
        ),
        (
            "flat",
            FabricModel::Flat {
                capacity: Some(f64::from(HOSTS) * nic / 2.0),
            },
        ),
        (
            "fat-tree",
            FabricModel::FatTree {
                pod_hosts: HOSTS / 2,
                oversubscription: 4.0,
            },
        ),
        (
            "torus",
            FabricModel::Torus2D {
                rows: 2,
                cols: HOSTS / 2,
                link_capacity: nic,
            },
        ),
    ]
}

/// The swept strategies.
fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        // One chunk per rail: an a2a already has per-pair parallelism, so
        // extra chunking only multiplies per-hop latency.
        (
            "multi_rail",
            Strategy::MultiRail {
                rails: DEVICES_PER_HOST,
                chunks: DEVICES_PER_HOST,
            },
        ),
        ("send_recv", Strategy::SendRecv),
        ("broadcast", Strategy::broadcast()),
    ]
}

/// The cluster for one fabric model.
fn cluster(fabric: FabricModel) -> ClusterSpec {
    ClusterSpec::homogeneous(
        HOSTS,
        DEVICES_PER_HOST,
        LinkParams::new(100e9, 1.25e9).with_latencies(5e-6, 25e-6),
    )
    .with_fabric(fabric)
}

/// The seeded routing draw at one skew: the GPT-MoE case-1 gate geometry
/// scaled down so a sweep cell simulates in milliseconds.
fn routing(skew: f64, smoke: bool) -> RoutingConfig {
    let model = GptMoeConfig::case1().with_skew(skew).with_seed(17);
    RoutingConfig {
        tokens_per_device: if smoke { 64 } else { 256 },
        ..model.routing()
    }
}

/// Builds the dispatch all-to-all for one skew on `cluster`.
fn dispatch(c: &ClusterSpec, skew: f64, smoke: bool) -> A2aTask {
    let half = (HOSTS / 2) as usize;
    let per = DEVICES_PER_HOST as usize;
    let tokens = DeviceMesh::from_cluster(c, 0, (half, per), "moe-tokens").expect("mesh fits");
    let experts = DeviceMesh::from_cluster(c, half, (half, per), "moe-experts").expect("mesh fits");
    let senders = half * per;
    let bytes = routing(skew, smoke).bytes_matrix(senders, senders);
    A2aTask::dispatch(&tokens, &experts, &bytes)
}

/// Measures one cell: plan with the fixed strategy, verify (generic +
/// a2a rules), simulate.
///
/// # Panics
///
/// Panics if the simulation itself fails (harness bug) — verifier
/// convictions are *reported*, not panicked, so the JSON shows them.
pub fn measure(c: &ClusterSpec, a2a: &A2aTask, strategy: Strategy) -> (f64, u64, usize) {
    let planner = LoadBalancePlanner::new(
        PlannerConfig::default().with_strategy(StrategyChoice::Fixed(strategy)),
    );
    let plan = planner.plan(a2a.task());
    let mut diags = plan.verify(Some(c), &|_, _| false);
    let views: Vec<_> = plan
        .assignments()
        .iter()
        .map(crossmesh_core::Assignment::as_view)
        .collect();
    diags.extend(crossmesh_check::verify::verify_a2a(
        a2a.pairs(),
        a2a.task().units(),
        a2a.task().elem_bytes(),
        &views,
        Some(c),
    ));
    let convictions = diags
        .iter()
        .filter(|d| d.severity == crossmesh_check::Severity::Error)
        .count();
    let report = plan.execute(c).expect("simulation succeeds");
    (
        report.simulated_seconds,
        report.cross_host_bytes as u64,
        convictions,
    )
}

/// Runs the sweep. `smoke` trims it to the rail fabric at one skew with a
/// smaller routing draw for the module test.
pub fn run(smoke: bool) -> Report {
    let topos = topologies();
    let topos = if smoke { &topos[..1] } else { &topos[..] };
    let skews: &[f64] = if smoke { &SKEWS[1..2] } else { &SKEWS };

    let mut rows = Vec::new();
    for (topo_name, fabric) in topos {
        let c = cluster(*fabric);
        for &skew in skews {
            let a2a = dispatch(&c, skew, smoke);
            for (strat_name, strategy) in strategies() {
                let (makespan, cross, convictions) = measure(&c, &a2a, strategy);
                rows.push(Row {
                    topology: topo_name,
                    skew,
                    strategy: strat_name,
                    makespan_seconds: makespan,
                    cross_host_bytes: cross,
                    convictions,
                });
            }
        }
    }

    let cell = |topo: &str, skew: f64, strat: &str| {
        rows.iter()
            .find(|r| r.topology == topo && r.skew == skew && r.strategy == strat)
            .map(|r| r.makespan_seconds)
    };
    let rail_speedups = skews
        .iter()
        .filter_map(|&skew| {
            let mr = cell("rails", skew, "multi_rail")?;
            Some(RailSpeedup {
                skew,
                vs_send_recv: cell("rails", skew, "send_recv")? / mr,
                vs_broadcast: cell("rails", skew, "broadcast")? / mr,
            })
        })
        .collect();

    Report {
        rows,
        rail_speedups,
    }
}

/// Renders the sweep and the rail-speedup summary.
pub fn render(report: &Report) -> String {
    let mut table = vec![vec![
        "topology".to_string(),
        "skew".to_string(),
        "strategy".to_string(),
        "makespan".to_string(),
        "cross-host".to_string(),
        "convictions".to_string(),
    ]];
    for r in &report.rows {
        table.push(vec![
            r.topology.to_string(),
            format!("{:.1}", r.skew),
            r.strategy.to_string(),
            table_fmt::secs(r.makespan_seconds),
            format!("{:.1} MB", r.cross_host_bytes as f64 / 1e6),
            r.convictions.to_string(),
        ]);
    }
    let mut out = format!(
        "MoE all-to-all — strategy × fabric × gate skew\n{}",
        table_fmt::render(&table)
    );
    if !report.rail_speedups.is_empty() {
        let mut summary = vec![vec![
            "skew".to_string(),
            "vs send_recv".to_string(),
            "vs broadcast".to_string(),
        ]];
        for s in &report.rail_speedups {
            summary.push(vec![
                format!("{:.1}", s.skew),
                table_fmt::speedup(s.vs_send_recv),
                table_fmt::speedup(s.vs_broadcast),
            ]);
        }
        out.push_str(&format!(
            "\nMulti-rail speedup on the rail-optimized fabric\n{}",
            table_fmt::render(&summary)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_check_clean_and_rails_win() {
        let report = run(true);
        assert!(!report.rows.is_empty());
        for r in &report.rows {
            assert_eq!(
                r.convictions, 0,
                "{}/{}/{}: verifier convicted the plan",
                r.topology, r.skew, r.strategy
            );
            assert!(r.makespan_seconds > 0.0 && r.makespan_seconds.is_finite());
        }
        for s in &report.rail_speedups {
            assert!(
                s.vs_send_recv > 1.0 && s.vs_broadcast > 1.0,
                "multi-rail must win on rails at skew {}: {s:?}",
                s.skew
            );
        }
        assert!(render(&report).contains("multi_rail"));
    }
}
