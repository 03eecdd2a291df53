//! End-to-end properties of the happens-before race detector
//! (`check::race`) and the seeded schedule fuzzer (`check::schedules`):
//!
//! * the clean concurrent suite stays silent at pool widths 1, 4, and 8
//!   for arbitrary perturbation seeds — no false positives;
//! * every seeded defect class convicts under its expected `race.*` rule
//!   on *every* seed of a 32-seed sweep — no false negatives, because the
//!   detector keys on the absence of happens-before edges, not on the
//!   interleaving the schedule happened to produce;
//! * the real concurrent core — the threaded runtime backend and the
//!   delivery engine under both its adapters (`runtime::execute_plan`, the
//!   MoE all-to-all) — runs race-clean under perturbation while its
//!   byte-identical equivalence oracles keep passing.
//!
//! Case counts are modest: every case spawns real OS threads and the
//! armed sections serialize on the seam's test lock.

use crossmesh::check::race::{run_armed, run_clean, run_defect, Defect, RaceDetector};
use crossmesh::check::schedules::sweep;
use crossmesh::core::{dataplane, NaivePlanner, Planner, PlannerConfig, TaskSpec};
use crossmesh::faults::FaultSchedule;
use crossmesh::hb;
use crossmesh::mesh::DeviceMesh;
use crossmesh::moe::{execute, A2aTask, RoutingConfig};
use crossmesh::netsim::{Backend, ClusterSpec, LinkParams, TaskGraph, Work};
use crossmesh::runtime::{execute_plan, ThreadedBackend};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Properly synchronized pool workloads must be silent at every
    /// width, whatever the perturbation seed.
    #[test]
    fn clean_suite_is_silent_at_every_width(seed in 0u64..1024) {
        for width in [1usize, 4, 8] {
            let diags = run_clean(width, seed);
            prop_assert!(diags.is_empty(), "width {width} seed {seed}: {diags:?}");
        }
    }

    /// A defect must convict whatever the seed — spot-check random seeds
    /// beyond the dense sweep below.
    #[test]
    fn defects_convict_on_arbitrary_seeds(seed in 0u64..4096, which in 0usize..3) {
        let defect = Defect::all()[which];
        let diags = run_defect(defect, seed);
        prop_assert!(
            diags.iter().any(|d| defect.expected_rules().contains(&d.rule)),
            "defect {} seed {seed}: {diags:?}",
            defect.name()
        );
    }
}

/// The acceptance sweep: three defect classes, 32 seeds each, 100%
/// conviction under the matching rule.
#[test]
fn every_defect_convicts_across_a_32_seed_sweep() {
    for defect in Defect::all() {
        let report = sweep(0, 32, |seed| (run_defect(defect, seed), None));
        let matching = report
            .outcomes
            .iter()
            .filter(|o| {
                o.diagnostics
                    .iter()
                    .any(|d| defect.expected_rules().contains(&d.rule))
            })
            .count();
        assert_eq!(
            matching,
            32,
            "defect {} convicted {matching}/32 seeds",
            defect.name()
        );
        assert!(report.oracle_failures().is_empty());
    }
}

/// The threaded runtime backend, fully armed and perturbed: a
/// cross-host diamond of computes and flows must complete with zero
/// race findings — every dispatch, ack decrement, and frame delivery is
/// covered by a declared edge.
#[test]
fn threaded_backend_is_race_clean_under_perturbation() {
    let cluster = ClusterSpec::homogeneous(2, 2, LinkParams::new(100e9, 10e9));
    let backends = [
        (ThreadedBackend::threads(), 0u64),
        (ThreadedBackend::threads(), 3),
        (ThreadedBackend::threads(), 11),
        (ThreadedBackend::tcp(), 5),
    ];
    for (backend, seed) in backends {
        let _serial = hb::test_lock();
        let detector = Arc::new(RaceDetector::new());
        let _armed = hb::install(detector.clone());
        let _fuzzing = hb::fuzz(seed);

        let mut g = TaskGraph::new();
        let a = g.add(Work::compute(cluster.device(0, 0), 1e-4), []);
        let b = g.add(Work::compute(cluster.device(1, 0), 1e-4), []);
        let f1 = g.add(
            Work::flow(cluster.device(0, 0), cluster.device(1, 1), (1 << 16) as f64),
            [a],
        );
        let f2 = g.add(
            Work::flow(cluster.device(1, 0), cluster.device(0, 1), (1 << 16) as f64),
            [b],
        );
        let join = g.add(Work::Marker, [f1, f2]);
        let c = g.add(Work::compute(cluster.device(0, 1), 1e-4), [join]);
        let trace = backend.execute(&cluster, &g).expect("armed run completes");
        assert!(trace.makespan() > 0.0);
        assert!(g.len() == 6 && c.0 == 5);

        assert!(detector.events() > 0, "the runtime emitted edges");
        let diags = detector.drain_diagnostics();
        assert!(diags.is_empty(), "seed {seed}: {diags:?}");
    }
}

/// The MoE all-to-all dataplane, armed and perturbed: byte-identical to
/// the sequential reference at pool width 4, with zero race findings on
/// the declared destination-buffer access points.
#[test]
fn moe_dataplane_is_race_clean_and_byte_identical() {
    let c = ClusterSpec::homogeneous(4, 2, LinkParams::new(100.0, 1.0));
    let tokens = DeviceMesh::from_cluster(&c, 0, (2, 2), "tokens").expect("tokens mesh");
    let experts = DeviceMesh::from_cluster(&c, 2, (2, 2), "experts").expect("experts mesh");
    let cfg = RoutingConfig {
        tokens_per_device: 16,
        token_bytes: 3,
        skew: 1.5,
        seed: 11,
        ..RoutingConfig::default()
    };
    let a2a = A2aTask::dispatch(&tokens, &experts, &cfg.bytes_matrix(4, 4));
    let clean = FaultSchedule::default();
    let reference = execute(&a2a, 1, &clean).expect("reference executes");

    for seed in [0u64, 7] {
        let diags = run_armed(seed, || {
            let threaded = execute(&a2a, 4, &clean).expect("threaded executes");
            assert_eq!(threaded, reference, "seed {seed}: byte oracle diverged");
        });
        assert!(diags.is_empty(), "seed {seed}: {diags:?}");
    }
}

/// `runtime::execute_plan` carries the delivery engine's seam: with 1, 4
/// and 8 sending devices (one sender thread each, width 1 runs inline) it
/// is byte-identical to the sequential data plane with zero race findings.
#[test]
fn plan_dataflow_is_race_clean_at_every_width() {
    for width in [1usize, 4, 8] {
        let (task, _) = TaskSpec {
            src_spec: "S1R".into(),
            dst_spec: "RS1".into(),
            src_mesh: format!("1x{width}"),
            dst_mesh: "1x2".into(),
            shape: "16x8".into(),
            elem_bytes: 2,
            inter_bw: 1.0,
            intra_bw: 100.0,
            inter_latency: 0.0,
            intra_latency: 0.0,
        }
        .build()
        .expect("task builds");
        let plan = NaivePlanner::new(PlannerConfig::default()).plan(&task);
        let senders: std::collections::BTreeSet<_> =
            plan.assignments().iter().map(|a| a.sender).collect();
        assert_eq!(senders.len(), width, "one sender lane per source device");
        let oracle = dataplane::execute_and_verify(&plan).expect("oracle executes");
        for seed in [0u64, 5, 13] {
            let diags = run_armed(seed, || {
                let threaded = execute_plan(&plan).expect("armed run executes");
                assert_eq!(
                    threaded, oracle,
                    "width {width} seed {seed}: oracle diverged"
                );
            });
            assert!(diags.is_empty(), "width {width} seed {seed}: {diags:?}");
        }
    }
}
