//! Degradation sweep: resharding throughput vs injected fault rate.
//!
//! Not a paper figure — this is the evaluation of the fault-tolerance
//! extension. The Table 2 `case2` microbenchmark (fully replicated source,
//! so every failure is recoverable) runs under increasing flow-drop rates
//! and under a sender-host crash, through
//! [`execute_with_repair`]: retries absorb transient drops, and the crash
//! triggers failover onto the surviving replica host. Naive-with-repair
//! vs Ensemble-with-repair shows that load balancing keeps paying off
//! under degradation.

use crate::cases::TABLE2;
use crate::table_fmt;
use crossmesh_core::{EnsemblePlanner, NaivePlanner, Planner, PlannerConfig};
use crossmesh_faults::{execute_with_repair, BackendKind, FaultEvent, FaultSchedule};
use crossmesh_models::presets;
use serde::{Deserialize, Serialize};

/// Per-attempt flow-drop probabilities swept by [`run`].
pub const DROP_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// One row of the degradation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Injected scenario ("drop 10%", "crash h0").
    pub scenario: String,
    /// End-to-end seconds, naive planner + repair.
    pub naive_seconds: f64,
    /// End-to-end seconds, ensemble planner + repair.
    pub ours_seconds: f64,
    /// Flow retries absorbed by the ensemble run.
    pub ours_retries: u64,
    /// Unit tasks failed over by the ensemble run.
    pub ours_failovers: usize,
}

fn planner_config() -> PlannerConfig {
    PlannerConfig::new(presets::p3_cost_params())
}

/// The schedule for one sweep point: a generous retry budget so transient
/// drops degrade throughput instead of killing the run.
pub fn drop_schedule(rate: f64) -> FaultSchedule {
    let mut s = FaultSchedule::new(7).with_retry_policy(12, 1e-3);
    if rate > 0.0 {
        s = s.with_event(FaultEvent::FlowDrop { prob: rate });
    }
    s
}

/// The sender-host-crash scenario.
pub fn crash_schedule() -> FaultSchedule {
    FaultSchedule::new(7).with_event(FaultEvent::HostCrash { host: 0, at: 0.0 })
}

/// Runs `case2` under `schedule` with `planner` + repair. Returns the
/// end-to-end seconds a user observes (the degraded makespan when faults
/// bit, the plain makespan otherwise), the flow retries absorbed and the
/// unit tasks failed over.
///
/// # Panics
///
/// Panics if the scenario is unrecoverable (harness bug — `case2` has a
/// fully replicated source).
pub fn measure(planner: &dyn Planner, schedule: &FaultSchedule) -> (f64, u64, usize) {
    let case = &TABLE2[1];
    let (cluster, task) = case.build().expect("case2 builds");
    let plan = planner.plan(&task);
    let r = execute_with_repair(&plan, &cluster, BackendKind::Sim, schedule, None)
        .expect("scenario is recoverable");
    let seconds = r
        .degraded_makespan
        .unwrap_or(r.run.report().simulated_seconds);
    (seconds, r.retries, r.failovers)
}

/// Regenerates the degradation sweep.
pub fn run() -> Vec<Row> {
    let naive = NaivePlanner::new(planner_config());
    let ours = EnsemblePlanner::new(planner_config());
    let scenarios = DROP_RATES
        .iter()
        .map(|&rate| (format!("drop {:.0}%", rate * 100.0), drop_schedule(rate)))
        .chain([("crash h0".to_string(), crash_schedule())]);
    scenarios
        .map(|(scenario, schedule)| {
            let (naive_seconds, _, _) = measure(&naive, &schedule);
            let (ours_seconds, ours_retries, ours_failovers) = measure(&ours, &schedule);
            Row {
                scenario,
                naive_seconds,
                ours_seconds,
                ours_retries,
                ours_failovers,
            }
        })
        .collect()
}

/// Renders the sweep table.
pub fn render(rows: &[Row]) -> String {
    let mut table = vec![vec![
        "scenario".to_string(),
        "naive+repair".to_string(),
        "ours+repair".to_string(),
        "vs naive".to_string(),
        "retries".to_string(),
        "failovers".to_string(),
    ]];
    for row in rows {
        table.push(vec![
            row.scenario.clone(),
            table_fmt::secs(row.naive_seconds),
            table_fmt::secs(row.ours_seconds),
            table_fmt::speedup(row.naive_seconds / row.ours_seconds),
            row.ours_retries.to_string(),
            row.ours_failovers.to_string(),
        ]);
    }
    format!(
        "Fault degradation — case2 resharding under injected faults (sender failover + retry)\n{}",
        table_fmt::render(&table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::committed;

    #[test]
    fn degradation_sweep_shapes_hold() {
        let rows: Vec<Row> = committed("faults");
        assert_eq!(rows.len(), DROP_RATES.len() + 1);

        // Load balancing keeps winning (or tying) across the drop sweep.
        // (The crash row is exempt: failover patches the plan around the
        // dead host, which can undo the balanced sender assignment.)
        for r in &rows[..DROP_RATES.len()] {
            assert!(
                r.ours_seconds <= r.naive_seconds * 1.05,
                "{}: ours {} vs naive {}",
                r.scenario,
                r.ours_seconds,
                r.naive_seconds
            );
        }

        // More drops -> more retries -> slower, monotonically across the
        // sweep endpoints.
        let clean = &rows[0];
        let worst = &rows[DROP_RATES.len() - 1];
        assert_eq!(clean.ours_retries, 0);
        assert!(worst.ours_retries > 0, "40% drops must cause retries");
        assert!(
            worst.ours_seconds > clean.ours_seconds,
            "worst {} vs clean {}",
            worst.ours_seconds,
            clean.ours_seconds
        );

        // The crash row failed over and still delivered.
        let crash = rows.last().unwrap();
        assert!(crash.ours_failovers > 0, "crash must force failover");
        assert!(crash.ours_seconds.is_finite() && crash.ours_seconds > 0.0);
    }
}
