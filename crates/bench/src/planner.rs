//! Planner work: what one `plan()` call costs, counted instead of timed.
//!
//! Not a paper figure — this measures the planner engine itself. Each case
//! reshards a fully replicated source (`RRR`, so every unit task has the
//! full sender candidate set and load balancing is non-trivial) onto a
//! `S01RR` destination mesh whose size sets the unit count. [`work`] plans
//! every (case, planner) pair once on a 1-thread pool and records the
//! estimate next to the planners' deterministic work counters
//! (`planner.greedy.visits`, `planner.dfs.nodes`) — the `planner_work`
//! section of `BENCH_paper.json`, pinned exactly, so a change that makes a
//! planner do more work convicts on any host. What a plan costs in
//! milliseconds is `benchmark/`'s `planner.{ensemble,dfs,greedy}_ms`.

use crate::table_fmt;
use crossmesh_core::{
    DeviceMesh, DfsPlanner, EnsemblePlanner, Planner, PlannerConfig, RandomizedGreedyPlanner,
    ReshardingTask,
};
use crossmesh_models::presets;
use crossmesh_netsim::{ClusterSpec, LinkParams};
use crossmesh_obs as obs;
use serde::{Deserialize, Serialize};

/// Unit-task counts of the cases (destination mesh `hosts × devices`
/// products).
pub const UNIT_COUNTS: [usize; 4] = [8, 20, 64, 256];

/// DFS node budget: large enough to exercise the branch fan-out, small
/// enough that the 256-unit case stays sub-second.
const DFS_BUDGET: usize = 5_000;

/// Greedy restarts: enough independent seeds to occupy an 8-wide pool.
const GREEDY_RESTARTS: usize = 8;

/// One (case, planner) point of [`work`]: what one `plan()` call on a
/// 1-thread pool returns and how much work it took. No timing, so every
/// field repeats exactly on any host and build profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkRow {
    /// Unit tasks in the resharding case.
    pub units: usize,
    /// Planner name ("dfs", "greedy", "ensemble").
    pub planner: String,
    /// The plan's estimated makespan.
    pub estimate: f64,
    /// `planner.greedy.visits` for the call.
    pub greedy_visits: u64,
    /// `planner.dfs.nodes` for the call.
    pub dfs_nodes: u64,
}

/// Builds the `units`-unit benchmark case: `RRR` on a 2-host source mesh,
/// `S01RR` on a destination mesh sized so `hosts × devices == units`.
///
/// # Panics
///
/// Panics if `units` is not one of [`UNIT_COUNTS`] (harness bug).
pub fn case(units: usize) -> (ClusterSpec, ReshardingTask) {
    // (dst hosts, dst devices per host); source always spans 2 hosts.
    let (h, d): (usize, usize) = match units {
        8 => (2, 4),
        20 => (4, 5),
        64 => (8, 8),
        256 => (16, 16),
        _ => panic!("unknown case size {units}"),
    };
    let cluster = ClusterSpec::homogeneous((h + 2) as u32, d as u32, LinkParams::new(100.0, 1.0));
    let src = DeviceMesh::from_cluster(&cluster, 0, (2, d), "A").expect("src mesh fits");
    let dst = DeviceMesh::from_cluster(&cluster, 2, (h, d), "B").expect("dst mesh fits");
    let task = ReshardingTask::new(
        src,
        "RRR".parse().expect("valid spec"),
        dst,
        "S01RR".parse().expect("valid spec"),
        &[1024, 64, 64],
        4,
    )
    .expect("case builds");
    (cluster, task)
}

fn planner_config() -> PlannerConfig {
    PlannerConfig::new(presets::p3_cost_params())
}

/// The three planners, bench-tuned (fixed DFS budget, 8 greedy restarts)
/// so the workload per case is identical at every pool width.
pub fn planners() -> Vec<(String, Box<dyn Planner>)> {
    let config = planner_config();
    vec![
        (
            "dfs".to_string(),
            Box::new(DfsPlanner::new(config).with_node_budget(DFS_BUDGET)) as Box<dyn Planner>,
        ),
        (
            "greedy".to_string(),
            Box::new(RandomizedGreedyPlanner::new(config).with_restarts(GREEDY_RESTARTS)),
        ),
        (
            "ensemble".to_string(),
            Box::new(EnsemblePlanner::new(config).with_greedy(
                RandomizedGreedyPlanner::new(planner_config()).with_restarts(GREEDY_RESTARTS),
            )),
        ),
    ]
}

/// One untimed `plan()` call under `pool`, bracketed by reads of the
/// process-wide work counters: (estimate, greedy visits, DFS nodes). Exact
/// only while no other thread of the process is planning.
fn counted(
    pool: &rayon::ThreadPool,
    planner: &dyn Planner,
    task: &ReshardingTask,
) -> (f64, u64, u64) {
    let greedy_visits = obs::metrics().counter("planner.greedy.visits");
    let dfs_nodes = obs::metrics().counter("planner.dfs.nodes");
    let (visits_before, nodes_before) = (greedy_visits.get(), dfs_nodes.get());
    let estimate = pool.install(|| planner.plan(task).estimate());
    (
        estimate,
        greedy_visits.get() - visits_before,
        dfs_nodes.get() - nodes_before,
    )
}

/// Every (case, planner) pair planned once on a 1-thread pool (on wider
/// pools thread timing decides which branches DFS's opportunistic skip
/// drops, so its node count — never the plan — varies run to run).
pub fn work() -> Vec<WorkRow> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    let mut rows = Vec::new();
    for units in UNIT_COUNTS {
        let (_cluster, task) = case(units);
        for (name, planner) in planners() {
            let (estimate, greedy_visits, dfs_nodes) = counted(&pool, planner.as_ref(), &task);
            rows.push(WorkRow {
                units,
                planner: name,
                estimate,
                greedy_visits,
                dfs_nodes,
            });
        }
    }
    rows
}

/// Renders [`work`] as a table.
pub fn render_work(rows: &[WorkRow]) -> String {
    let mut table = vec![vec![
        "units".to_string(),
        "planner".to_string(),
        "estimate".to_string(),
        "greedy visits".to_string(),
        "dfs nodes".to_string(),
    ]];
    for row in rows {
        table.push(vec![
            row.units.to_string(),
            row.planner.clone(),
            table_fmt::secs(row.estimate),
            row.greedy_visits.to_string(),
            row.dfs_nodes.to_string(),
        ]);
    }
    format!(
        "Planner work — one plan() call on a 1-thread pool\n{}",
        table_fmt::render(&table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_size_builds_with_the_advertised_unit_count() {
        for units in UNIT_COUNTS {
            let (_c, task) = case(units);
            assert_eq!(task.units().len(), units);
        }
    }
}
