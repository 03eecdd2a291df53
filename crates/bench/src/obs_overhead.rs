//! Observer work: how many records the collectors handle per `plan()`,
//! counted instead of timed.
//!
//! Not a paper figure — this pins what crossmesh-obs does when something is
//! watching: one ensemble plan hands a [`CountingCollector`] 3 spans and
//! events and leaves 6 records in a [`obs::FlightRecorder`] (the always-on
//! black-box configuration the serve daemon runs with). It also re-checks
//! the determinism contract from the observability side: the planner's
//! estimate must be byte-identical with and without a collector watching.
//! What watching costs in time is `benchmark/`'s `trace.overhead_frac`.

use crate::planner;
use crossmesh_core::{EnsemblePlanner, Planner, PlannerConfig};
use crossmesh_models::presets;
use crossmesh_obs::{self as obs, CountingCollector};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What the observers saw of one ensemble `plan()` on the 20-unit
/// [`planner::case`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanWork {
    /// Spans + events a counting collector was handed.
    pub collector_events: u64,
    /// Spans + events + metric deltas the flight recorder retained.
    pub recorder_records: u64,
    /// Whether the estimate was byte-identical with no collector, the
    /// counting collector and the recorder installed — the
    /// observer-passivity half of the determinism contract.
    pub identical_estimates: bool,
}

/// Plans the case once unobserved, once under each observer.
///
/// Installs process-wide collectors (under the global collector test
/// lock): the counts are exact only while nothing else in the process is
/// planning.
pub fn work() -> PlanWork {
    let _guard = obs::collect::test_lock();
    let (_cluster, task) = planner::case(20);
    let plnr = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()));
    let unobserved = plnr.plan(&task).estimate();

    let counting = Arc::new(CountingCollector::new());
    let installed = obs::install(counting.clone());
    let counted = plnr.plan(&task).estimate();
    drop(installed);

    let recorder = Arc::new(obs::FlightRecorder::new());
    let installed = obs::install(recorder.clone());
    let recorded = plnr.plan(&task).estimate();
    drop(installed);

    PlanWork {
        collector_events: counting.total(),
        recorder_records: recorder.recorded(),
        identical_estimates: unobserved.to_bits() == counted.to_bits()
            && unobserved.to_bits() == recorded.to_bits(),
    }
}

/// Renders the counts as a one-line summary.
pub fn render(w: &PlanWork) -> String {
    format!(
        "Observer work — one 20-unit ensemble plan: {} spans+events to a collector, \
         {} flight-recorder records, estimates {}\n",
        w.collector_events,
        w.recorder_records,
        if w.identical_estimates {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    )
}
