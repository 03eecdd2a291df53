//! Race-detector work: how many happens-before seam events one armed MoE
//! all-to-all emits, counted instead of timed.
//!
//! Not a paper figure — this pins what crossmesh-hb does when the FastTrack
//! detector is installed on the real concurrent workload, and that arming it
//! leaves the dataplane's output byte-identical to the sequential
//! reference. Disarmed, a seam site is one relaxed atomic load. Conviction
//! of every seeded defect class and silence on clean code are
//! `tests/race_detector.rs`.

use crossmesh_check::race::RaceDetector;
use crossmesh_faults::FaultSchedule;
use crossmesh_hb as hb;
use crossmesh_mesh::DeviceMesh;
use crossmesh_moe::{execute, A2aTask, RoutingConfig};
use crossmesh_netsim::{ClusterSpec, LinkParams};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Lanes of the all-to-all, and threads of the pool they run on.
const LANES: usize = 4;

/// What the detector saw of one armed all-to-all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeamWork {
    /// Seam events the detector processed: 64 at this pool width, whatever
    /// the interleaving (16 shards × lock acquire, buffer write, lock
    /// release; 4 lane tasks × fork and join edge, each released and
    /// acquired).
    pub events: u64,
    /// Race findings on the armed run — the dataplane is clean, so zero.
    pub findings: usize,
    /// Whether the disarmed and the armed all-to-all both stayed
    /// byte-identical to the sequential reference.
    pub identical_outputs: bool,
}

/// The workload: a skewed 4-host MoE dispatch.
fn workload() -> A2aTask {
    let c = ClusterSpec::homogeneous(4, 2, LinkParams::new(100.0, 1.0));
    let tokens = DeviceMesh::from_cluster(&c, 0, (2, 2), "tokens").expect("tokens mesh");
    let experts = DeviceMesh::from_cluster(&c, 2, (2, 2), "experts").expect("experts mesh");
    let cfg = RoutingConfig {
        tokens_per_device: 64,
        token_bytes: 256,
        skew: 1.5,
        seed: 11,
        ..RoutingConfig::default()
    };
    A2aTask::dispatch(&tokens, &experts, &cfg.bytes_matrix(4, 4))
}

/// Runs the all-to-all once disarmed, once armed.
///
/// The armed run holds the seam's test lock, since the seam is
/// process-wide: the count is exact only while nothing else in the process
/// uses the instrumented pool.
pub fn work() -> SeamWork {
    let a2a = workload();
    let clean = FaultSchedule::default();
    let reference = execute(&a2a, 1, &clean).expect("reference executes");
    // A pool of the workload's own width, whatever the host has: a
    // one-thread pool runs lanes inline and emits no fork/join edges.
    let workers = rayon::ThreadPoolBuilder::new()
        .num_threads(LANES)
        .build()
        .expect("pool builds");
    let run = || workers.install(|| execute(&a2a, LANES, &clean));

    let disarmed = run().expect("disarmed run executes");

    let detector = Arc::new(RaceDetector::new());
    let serial = hb::test_lock();
    let installed = hb::install(detector.clone());
    let armed = run().expect("armed run executes");
    drop(installed);
    drop(serial);

    SeamWork {
        events: detector.events(),
        findings: detector.drain_diagnostics().len(),
        identical_outputs: disarmed == reference && armed == reference,
    }
}

/// Renders the counts as a one-line summary.
pub fn render(w: &SeamWork) -> String {
    format!(
        "Race-detector work — one armed {LANES}-lane MoE all-to-all: {} seam events, {} findings, outputs {}\n",
        w.events,
        w.findings,
        if w.identical_outputs {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    )
}
