//! Race-detector overhead microbench: wall-clock of the MoE all-to-all
//! dataplane with the happens-before seam disarmed vs. armed with the
//! FastTrack engine, plus the conviction/cleanliness statistics the
//! acceptance criteria pin.
//!
//! Not a paper figure — this guards crossmesh-hb's "zero cost disarmed"
//! claim (disarmed is one relaxed atomic load per site, measured here
//! directly as `disarmed_site_ns`) and reports the armed tax on the real
//! concurrent workload — a record, not a bound: the two arms differ by
//! less than this host's run-to-run spread, so what is pinned
//! (`tests/observer_work.rs`) is the detector's exact event count. The same run re-checks the detector's two
//! ends: the clean suite and the armed workload must produce zero
//! findings, and every seeded defect class must convict on every seed.

use crate::hostenv::HostEnv;
use crossmesh_check::race::{run_clean, run_defect, Defect, RaceDetector};
use crossmesh_hb as hb;
use crossmesh_mesh::DeviceMesh;
use crossmesh_moe::{execute_reference, execute_threaded, A2aTask, RoutingConfig};
use crossmesh_netsim::{ClusterSpec, LinkParams};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The overhead measurement plus the detector's accuracy statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The measuring host (parallelism, env overrides, build profile).
    pub env: HostEnv,
    /// Lanes of the timed all-to-all workload, and threads of the pool
    /// they run on.
    pub pool: usize,
    /// Timed `execute_threaded` calls per arm.
    pub iters: usize,
    /// Nanoseconds per disarmed seam call, measured on a tight loop of
    /// `hb::read` — the whole cost of shipping the instrumentation: one
    /// relaxed atomic load and an untaken branch.
    pub disarmed_site_ns: f64,
    /// Best-round mean milliseconds per all-to-all with the seam off.
    pub disarmed_ms: f64,
    /// Best-round mean milliseconds with the FastTrack detector
    /// installed and every edge flowing through the vector-clock engine.
    pub armed_ms: f64,
    /// `(armed / disarmed - 1) * 100`. Reported, not bounded.
    pub armed_overhead_pct: f64,
    /// Seam events the detector processed across the armed rounds: 64 per
    /// all-to-all at this pool width, whatever the interleaving (16 shards
    /// × lock acquire, buffer write, lock release; 4 lane tasks × fork and
    /// join edge, each released and acquired).
    pub events: u64,
    /// Race findings across the armed workload rounds *and* a clean-suite
    /// sample at pool widths 1, 4, and 8 — must be zero.
    pub clean_findings: usize,
    /// Whether every armed all-to-all stayed byte-identical to the
    /// sequential reference.
    pub identical_outputs: bool,
    /// Seeded defect classes swept ([`Defect::all`]).
    pub defect_classes: usize,
    /// Perturbation seeds per defect class.
    pub seeds_per_class: usize,
    /// Fraction of (defect, seed) runs convicted under the defect's
    /// expected rule — the module test pins this at 1.0.
    pub convicted_fraction: f64,
}

/// The timed workload: a skewed 4-host MoE dispatch big enough that the
/// memcpy work dominates the per-piece edge events.
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

/// Runs the measurement. `smoke` trims it (3 rounds of 2, 4 seeds per
/// defect class) for the module test; the full run uses 10 rounds of 4 with the
/// acceptance-grade 32-seed sweep.
///
/// The two arms are *interleaved round-robin* and each arm's time is the
/// minimum of its per-round means, the same layout `obs_overhead` uses:
/// scheduler noise only ever adds time, so the fastest round is the
/// least contaminated estimate, and interleaving gives both arms the
/// same shot at the quiet windows. Armed rounds serialize on the seam's
/// test lock; the disarmed rounds deliberately do not arm anything, so
/// their seam cost is exactly the shipped fast path.
pub fn run(smoke: bool) -> Report {
    let pool = 4;
    let rounds = if smoke { 3 } else { 10 };
    let per_round = if smoke { 2 } else { 4 };
    let seeds_per_class = if smoke { 4 } else { 32 };
    let a2a = workload();
    let reference = execute_reference(&a2a).expect("reference executes");
    // A pool of the workload's own width, whatever the host has: a
    // one-thread pool runs lanes inline and emits no fork/join edges.
    let workers = rayon::ThreadPoolBuilder::new()
        .num_threads(pool)
        .build()
        .expect("pool builds");
    let execute = || workers.install(|| execute_threaded(&a2a, pool));

    // Warm-up so allocator state and lazy statics don't bias round one.
    let _ = execute().expect("warm-up executes");

    // The disarmed per-site cost, measured directly: the claim is "one
    // relaxed load", and this number is the evidence.
    let site_iters: u64 = if smoke { 200_000 } else { 2_000_000 };
    let probe = hb::fresh_id();
    let t0 = Instant::now();
    for i in 0..site_iters {
        hb::read(black_box(probe ^ (i & 1)));
    }
    let disarmed_site_ns = t0.elapsed().as_secs_f64() * 1e9 / site_iters as f64;

    let detector = Arc::new(RaceDetector::new());
    let mut identical_outputs = true;
    let mut round_ms = [Vec::new(), Vec::new()];
    for _ in 0..rounds {
        for (arm, times) in round_ms.iter_mut().enumerate() {
            // Armed sections share the process-global seam: hold the
            // test lock so a concurrently running `#[test]` cannot
            // interleave its own armed section with ours.
            let serial = (arm == 1).then(hb::test_lock);
            let installed = (arm == 1).then(|| hb::install(detector.clone()));
            let t0 = Instant::now();
            for _ in 0..per_round {
                let out = execute().expect("timed run executes");
                identical_outputs &= out == reference;
            }
            times.push(t0.elapsed().as_secs_f64() * 1e3 / per_round as f64);
            drop(installed);
            drop(serial);
        }
    }
    let best = |times: &[f64]| times.iter().copied().fold(f64::MAX, f64::min);
    let disarmed_ms = best(&round_ms[0]);
    let armed_ms = best(&round_ms[1]);

    let events = detector.events();
    let mut clean_findings = detector.drain_diagnostics().len();
    // Clean-suite sample at the acceptance widths.
    for width in [1usize, 4, 8] {
        for seed in 0..seeds_per_class as u64 {
            clean_findings += run_clean(width, seed).len();
        }
    }

    // The conviction sweep: every defect class, every seed, must convict
    // under its expected rule.
    let mut convicted = 0usize;
    let mut total = 0usize;
    for defect in Defect::all() {
        for seed in 0..seeds_per_class as u64 {
            total += 1;
            let diags = run_defect(defect, seed);
            if diags
                .iter()
                .any(|d| defect.expected_rules().contains(&d.rule))
            {
                convicted += 1;
            }
        }
    }

    Report {
        env: HostEnv::detect(),
        pool,
        iters: rounds * per_round,
        disarmed_site_ns,
        disarmed_ms,
        armed_ms,
        armed_overhead_pct: (armed_ms / disarmed_ms - 1.0) * 100.0,
        events,
        clean_findings,
        identical_outputs,
        defect_classes: Defect::all().len(),
        seeds_per_class,
        convicted_fraction: convicted as f64 / total as f64,
    }
}

/// Renders the measurement as a one-cell summary.
pub fn render(r: &Report) -> String {
    format!(
        "Race-detector overhead — MoE all-to-all, pool {}, {} runs/arm: \
         disarmed {:.3} ms ({:.2} ns/site), armed {:.3} ms ({:+.1}%), \
         {} events, {} findings on clean code, outputs {}; \
         defect sweep {}x{} seeds convicted {:.0}%\n",
        r.pool,
        r.iters,
        r.disarmed_ms,
        r.disarmed_site_ns,
        r.armed_ms,
        r.armed_overhead_pct,
        r.events,
        r.clean_findings,
        if r.identical_outputs {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        r.defect_classes,
        r.seeds_per_class,
        r.convicted_fraction * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_convicts_every_defect_and_stays_clean() {
        let r = run(true);
        assert!(r.disarmed_ms > 0.0 && r.armed_ms > 0.0);
        assert!(r.disarmed_site_ns > 0.0);
        // At least, not exactly, 64 per all-to-all here: the seam is
        // process-wide and sibling tests use the instrumented pool
        // concurrently. `tests/observer_work.rs` pins the exact count.
        assert!(
            r.events >= 64 * r.iters as u64,
            "the armed arm must reach the detector; saw {}",
            r.events
        );
        assert_eq!(r.clean_findings, 0, "clean code must stay silent");
        assert!(r.identical_outputs, "arming changed the dataplane output");
        assert_eq!(
            r.convicted_fraction, 1.0,
            "every (defect, seed) run must convict"
        );
        assert!(render(&r).contains("byte-identical"));
    }
}
