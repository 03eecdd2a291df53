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
use crossmesh_models::moe::{a2a_cluster, a2a_strategy, GptMoeConfig, A2A_STRATEGIES, FABRICS};
use crossmesh_moe::{A2aDirection, A2aTask};
use crossmesh_netsim::ClusterSpec;
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

/// The dispatch all-to-all at one skew on `cluster`: the GPT-MoE case-1
/// gate geometry scaled down so a sweep cell simulates in milliseconds.
fn dispatch(c: &ClusterSpec, skew: f64, smoke: bool) -> A2aTask {
    let tokens_per_device = if smoke { 64 } else { 256 };
    GptMoeConfig::case1()
        .with_skew(skew)
        .with_seed(17)
        .a2a(c, A2aDirection::Dispatch, tokens_per_device)
        .expect("mesh fits")
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
    let convictions = a2a
        .verify(&plan, c)
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
    let topos: &[&str] = if smoke { &FABRICS[..1] } else { &FABRICS };
    let skews: &[f64] = if smoke { &SKEWS[1..2] } else { &SKEWS };
    let params = PlannerConfig::default().params;

    let mut rows = Vec::new();
    for &topo_name in topos {
        let c = a2a_cluster(topo_name, HOSTS, DEVICES_PER_HOST, &params).expect("a swept fabric");
        for &skew in skews {
            let a2a = dispatch(&c, skew, smoke);
            for strat_name in A2A_STRATEGIES {
                let strategy =
                    a2a_strategy(strat_name, DEVICES_PER_HOST).expect("a swept strategy");
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
