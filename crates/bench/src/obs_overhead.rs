//! Observability overhead microbench: wall-clock per `plan()` with no
//! collector installed vs. with a [`CountingCollector`] swallowing every
//! span and event.
//!
//! Not a paper figure — this guards crossmesh-obs's "zero overhead when
//! disabled" claim (disabled is a relaxed atomic load per site) and bounds
//! the enabled cost. It also re-checks the determinism contract from the
//! observability side: the planner's estimate must be byte-identical with
//! and without a collector watching.

use crate::hostenv::HostEnv;
use crate::planner;
use crossmesh_core::{EnsemblePlanner, Planner, PlannerConfig};
use crossmesh_models::presets;
use crossmesh_obs::{self as obs, CountingCollector};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The overhead measurement: one (units, iters) cell, both sides timed on
/// the same task and planner instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The measuring host (parallelism, env overrides, build profile).
    pub env: HostEnv,
    /// Unit tasks in the planning case (a [`planner::case`] size).
    pub units: usize,
    /// Timed `plan()` calls per side.
    pub iters: usize,
    /// Best-round mean milliseconds per plan with no collector installed.
    pub disabled_ms: f64,
    /// Best-round mean milliseconds per plan with a counting collector
    /// installed.
    pub enabled_ms: f64,
    /// `(enabled / disabled - 1) * 100`. Reported, not bounded: a plan
    /// costs about a millisecond, and run-to-run spread on a shared host
    /// is larger than the effect.
    pub overhead_pct: f64,
    /// Spans + events the collector saw across the enabled side.
    pub observed: u64,
    /// Best-round mean milliseconds per plan with a
    /// [`obs::FlightRecorder`] installed — the always-on black-box
    /// configuration the serve daemon runs with.
    pub recorder_ms: f64,
    /// `(recorder / disabled - 1) * 100`: the price of keeping the
    /// flight recorder armed. Reported, not bounded, for the same reason;
    /// what is exact — and pinned by `tests/observer_work.rs` — is the
    /// work behind it: 3 collector events and 6 retained records per plan.
    pub recorder_overhead_pct: f64,
    /// Spans + events + metric deltas the recorder retained (post-drop).
    pub recorder_records: u64,
    /// Whether the estimate was byte-identical across all sides — the
    /// observer-passivity half of the determinism contract.
    pub identical_estimates: bool,
}

/// Runs the measurement. `smoke` trims it (8 units, 3 rounds of 3) for
/// the module test; the full run uses the 20-unit case over 12 rounds of
/// 5 plans per arm.
///
/// The three arms (no collector, counting collector, flight recorder)
/// are *interleaved round-robin* and each arm's time is the **minimum of
/// its per-round means**: scheduler noise on a shared host only ever
/// adds time, so the fastest round is the least contaminated estimate of
/// the true cost, and interleaving gives every arm the same shot at the
/// quiet windows. A block-per-arm layout was measured to swing ±40% run
/// to run on an oversubscribed container; this layout still swings by
/// several percent of a one-millisecond plan, so the percentages are a
/// record, not a budget.
///
/// Takes the global collector test lock for the duration, since it
/// installs a process-wide collector for two of the arms.
pub fn run(smoke: bool) -> Report {
    let _guard = obs::collect::test_lock();
    let units = if smoke { 8 } else { 20 };
    let rounds = if smoke { 3 } else { 12 };
    let per_round = if smoke { 3 } else { 5 };
    let (_cluster, task) = planner::case(units);
    let plnr = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()));

    // Warm-up plans so lazy statics and allocator state don't bias the
    // first round.
    let warmup = plnr.plan(&task).estimate();
    let _ = plnr.plan(&task).estimate();

    let counting = Arc::new(CountingCollector::new());
    let recorder = Arc::new(obs::FlightRecorder::new());
    let mut disabled_est = warmup;
    let mut enabled_est = warmup;
    let mut recorder_est = warmup;
    let mut round_ms = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..rounds {
        for (arm, times) in round_ms.iter_mut().enumerate() {
            let installed = match arm {
                1 => Some(obs::install(counting.clone())),
                // The bounded flight recorder: exactly what a serve daemon
                // keeps armed in production for dump-on-trigger debugging.
                2 => Some(obs::install(recorder.clone())),
                _ => None,
            };
            let est = match arm {
                1 => &mut enabled_est,
                2 => &mut recorder_est,
                _ => &mut disabled_est,
            };
            let t0 = Instant::now();
            for _ in 0..per_round {
                *est = plnr.plan(&task).estimate();
            }
            times.push(t0.elapsed().as_secs_f64() * 1e3 / per_round as f64);
            drop(installed);
        }
    }
    let best = |times: &[f64]| times.iter().copied().fold(f64::MAX, f64::min);
    let disabled_ms = best(&round_ms[0]);
    let enabled_ms = best(&round_ms[1]);
    let recorder_ms = best(&round_ms[2]);

    Report {
        env: HostEnv::detect(),
        units,
        iters: rounds * per_round,
        disabled_ms,
        enabled_ms,
        overhead_pct: (enabled_ms / disabled_ms - 1.0) * 100.0,
        observed: counting.total(),
        recorder_ms,
        recorder_overhead_pct: (recorder_ms / disabled_ms - 1.0) * 100.0,
        recorder_records: recorder.recorded(),
        identical_estimates: disabled_est.to_bits() == enabled_est.to_bits()
            && disabled_est.to_bits() == recorder_est.to_bits()
            && disabled_est.to_bits() == warmup.to_bits(),
    }
}

/// Renders the measurement as a one-cell summary.
pub fn render(r: &Report) -> String {
    format!(
        "Obs overhead — {}-unit ensemble, {} plans/side: disabled {:.3} ms, \
         enabled {:.3} ms ({:+.1}%), recorder {:.3} ms ({:+.1}%, {} records), \
         {} spans+events observed, estimates {}\n",
        r.units,
        r.iters,
        r.disabled_ms,
        r.enabled_ms,
        r.overhead_pct,
        r.recorder_ms,
        r.recorder_overhead_pct,
        r.recorder_records,
        r.observed,
        if r.identical_estimates {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_observes_work_and_stays_deterministic() {
        let r = run(true);
        assert!(r.disabled_ms > 0.0 && r.enabled_ms > 0.0);
        // At least, not exactly, 3 and 6 per plan here: the collector is
        // process-wide and sibling tests plan concurrently. The exact pin
        // lives in `tests/observer_work.rs`, alone in its process.
        assert!(
            r.observed >= 3 * r.iters as u64,
            "the enabled side must reach the collector; saw {}",
            r.observed
        );
        assert!(r.recorder_ms > 0.0);
        assert!(
            r.recorder_records >= 6 * r.iters as u64,
            "the recorder arm must retain records; saw {}",
            r.recorder_records
        );
        assert!(
            r.identical_estimates,
            "installing a collector changed the plan estimate"
        );
        assert!(render(&r).contains("byte-identical"));
    }
}
