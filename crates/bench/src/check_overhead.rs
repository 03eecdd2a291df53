//! Static-verifier overhead sweep: wall-clock per `verify_plan` call
//! across plan sizes, next to the planning time it guards.
//!
//! Not a paper figure — this measures `crossmesh-check` itself, answering
//! "what does verify-before-execute cost?" The verifier runs on every
//! `Plan::execute*` call and every plan-cache hit, so its cost must stay
//! small against planning: tens of microseconds against the ensemble's
//! 0.3–5 ms, a few percent since the greedy planner moved onto the shared
//! host table (it was under one percent of a planner 20–35× dearer).
//! Cases reuse the planner sweep's problems (8 / 64 / 256 unit tasks)
//! with the ensemble planner's output.

use crate::hostenv::HostEnv;
use crate::planner::case;
use crossmesh_core::{EnsemblePlanner, Plan, PlannerConfig};
use crossmesh_models::presets;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Unit-task counts swept by the full run.
pub const UNIT_COUNTS: [usize; 3] = [8, 64, 256];

/// One timed case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Unit tasks in the resharding case.
    pub units: usize,
    /// Assignments in the verified plan (== `units`).
    pub assignments: usize,
    /// Best-of-N wall-clock microseconds for one `verify` call (coverage,
    /// sender, ring, and capacity rules against the case's cluster).
    pub verify_micros: f64,
    /// Wall-clock milliseconds for the one `plan()` call that produced the
    /// verified plan — the cost the verifier is amortized against.
    pub plan_millis: f64,
    /// `verify` cost as a fraction of planning cost.
    pub overhead_ratio: f64,
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The measuring host (parallelism, env overrides, build profile).
    pub env: HostEnv,
    /// The per-size rows.
    pub rows: Vec<Row>,
}

/// Times `f` as the best (minimum) of `reps` runs, in seconds.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Runs the sweep. `smoke` trims it to the 8-unit case with a single rep
/// for the module test; the full sweep is best-of-20 over all sizes.
///
/// # Panics
///
/// Panics if any swept plan fails verification — the soundness property
/// `tests/plan_verifier.rs` proves must also hold here.
pub fn run(smoke: bool) -> Report {
    let unit_counts: &[usize] = if smoke {
        &UNIT_COUNTS[..1]
    } else {
        &UNIT_COUNTS
    };
    let reps = if smoke { 1 } else { 20 };
    let planner = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()));

    let mut rows = Vec::new();
    for &units in unit_counts {
        let (cluster, task) = case(units);
        let t0 = Instant::now();
        let plan: Plan<'_> = crossmesh_core::Planner::plan(&planner, &task);
        let plan_millis = t0.elapsed().as_secs_f64() * 1e3;

        let verify_secs = best_of(reps, || {
            let diags = plan.verify(Some(&cluster), &|_, _| false);
            assert!(
                !crossmesh_check::has_errors(&diags),
                "{units}u case failed verify: {diags:?}"
            );
        });
        let verify_micros = verify_secs * 1e6;
        rows.push(Row {
            units,
            assignments: plan.assignments().len(),
            verify_micros,
            plan_millis,
            overhead_ratio: verify_secs / (plan_millis / 1e3).max(f64::MIN_POSITIVE),
        });
    }
    Report {
        env: HostEnv::detect(),
        rows,
    }
}

/// Renders the sweep table.
pub fn render(report: &Report) -> String {
    let mut table = vec![vec![
        "units".to_string(),
        "verify (µs)".to_string(),
        "plan (ms)".to_string(),
        "overhead".to_string(),
    ]];
    for row in &report.rows {
        table.push(vec![
            row.units.to_string(),
            format!("{:.1}", row.verify_micros),
            format!("{:.3}", row.plan_millis),
            format!("{:.3}%", row.overhead_ratio * 100.0),
        ]);
    }
    format!(
        "Static verifier overhead — verify_plan vs the planning it guards\n{}",
        crate::table_fmt::render(&table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_verifies_and_reports() {
        let report = run(true);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.units, 8);
        assert_eq!(row.assignments, 8);
        assert!(row.verify_micros >= 0.0 && row.verify_micros.is_finite());
        assert!(render(&report).contains("verify"));
    }
}
