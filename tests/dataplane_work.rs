//! Pins the delivery engine's deterministic work: how many contiguous runs
//! it copies, how many bytes they hold, and that it starts no thread.
//!
//! `dataplane.copy_runs` and `dataplane.copied_bytes` live in the
//! process-wide metrics registry and the thread count is the process's, so
//! this file holds exactly one test: nothing else delivers or spawns while
//! it reads them.

use crossmesh::core::{dataplane, EnsemblePlanner, Planner, PlannerConfig, ReshardingTask};
use crossmesh::faults::FaultSchedule;
use crossmesh::mesh::DeviceMesh;
use crossmesh::models::moe::GptMoeConfig;
use crossmesh::models::{presets, Precision};
use crossmesh::moe::{execute, A2aTask, RoutingConfig};
use crossmesh::netsim::{ClusterSpec, FabricModel, LinkParams};
use crossmesh::runtime;
use std::sync::atomic::{AtomicBool, Ordering};

/// `RS0R → S0RR` between two (2, 4) meshes, fp32: the benchmark's
/// real-bytes case and, at `128×128×64`, its 4 MB throughput case.
fn reshard(shape: &[u64]) -> ReshardingTask {
    let cluster = presets::aws_p3_8xlarge(4, Precision::Fp32);
    let src = DeviceMesh::from_cluster(&cluster, 0, (2, 4), "send").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, 2, (2, 4), "recv").unwrap();
    let (from, to) = ("RS0R".parse().unwrap(), "S0RR".parse().unwrap());
    ReshardingTask::new(src, from, dst, to, shape, 4).unwrap()
}

/// The benchmark's MoE dispatch: 16 token devices to 16 expert devices.
fn dispatch() -> A2aTask {
    let cluster = ClusterSpec::homogeneous(
        8,
        4,
        LinkParams::new(100e9, 1.25e9).with_latencies(5e-6, 25e-6),
    )
    .with_fabric(FabricModel::RailOptimized {
        rails: 4,
        spine_capacity: 1.25e9,
    });
    let tokens = DeviceMesh::from_cluster(&cluster, 0, (4, 4), "moe-tokens").unwrap();
    let experts = DeviceMesh::from_cluster(&cluster, 4, (4, 4), "moe-experts").unwrap();
    let routing = RoutingConfig {
        tokens_per_device: 32,
        token_bytes: 32,
        ..GptMoeConfig::case1().with_seed(17).routing()
    };
    A2aTask::dispatch(&tokens, &experts, &routing.bytes_matrix(16, 16))
}

fn threads_alive() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Ends the sampler when dropped, so a failed assertion below unwinds
/// instead of leaving the scope waiting for it.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn copies_are_pinned_and_no_thread_is_started() {
    let registry = crossmesh::obs::metrics();
    let (runs, bytes) = (
        registry.counter("dataplane.copy_runs"),
        registry.counter("dataplane.copied_bytes"),
    );
    let planner = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()));
    let (small, big, a2a) = (reshard(&[16, 16, 16]), reshard(&[128, 128, 64]), dispatch());
    let (small, big) = (planner.plan(&small), planner.plan(&big));
    let shards = a2a.pairs().len() as u64;
    let clean = FaultSchedule::default();

    // (what runs, copy_runs, copied_bytes), each on one lane and on several.
    // A destination tile takes a unit's slice as one run per index of its
    // outermost dimension (16 deliveries of 8, then of 64, runs); an expert
    // shard is rank 1, so one run whatever its size.
    type Run<'a> = Box<dyn Fn() -> u64 + 'a>;
    let cases: Vec<(&str, [Run<'_>; 2], u64, u64)> = vec![
        (
            "16x16x16",
            [
                Box::new(|| {
                    dataplane::execute_and_verify(&small)
                        .unwrap()
                        .delivered_bytes
                }),
                Box::new(|| runtime::execute_plan(&small).unwrap().delivered_bytes),
            ],
            128,
            65_536,
        ),
        (
            "moe dispatch",
            [
                Box::new(|| execute(&a2a, 1, &clean).unwrap().delivered_bytes),
                Box::new(|| execute(&a2a, 4, &clean).unwrap().delivered_bytes),
            ],
            shards,
            a2a.total_bytes(),
        ),
        (
            "128x128x64",
            [
                Box::new(|| dataplane::execute_and_verify(&big).unwrap().delivered_bytes),
                Box::new(|| runtime::execute_plan(&big).unwrap().delivered_bytes),
            ],
            1024,
            16_777_216,
        ),
    ];
    assert_eq!((shards, a2a.total_bytes()), (256, 32_768));

    let pools = [1, 4].map(|threads| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
        (threads, pool.build().unwrap())
    });
    // Warm up: every pool has delivered on several lanes once.
    for (_, pool) in &pools {
        pool.install(|| cases[0].1[1]());
    }

    // From here on the process may not grow a thread: a sampler (itself
    // counted in the baseline) watches the task list while the engine runs.
    let stop = AtomicBool::new(false);
    let (baseline, peak, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut peak, mut samples) = (0, 0u64);
            while !stop.load(Ordering::SeqCst) {
                peak = peak.max(threads_alive());
                samples += 1;
                std::thread::yield_now();
            }
            (peak, samples)
        });
        let stopper = Stop(&stop);
        let baseline = threads_alive();
        for (threads, pool) in &pools {
            for (name, lanes, copy_runs, copied_bytes) in &cases {
                for (run, how) in lanes.iter().zip(["one lane", "several lanes"]) {
                    let before = (runs.get(), bytes.get());
                    let delivered = pool.install(run);
                    let what = format!("{name}, {how}, {threads} threads");
                    assert_eq!(runs.get() - before.0, *copy_runs, "copy_runs: {what}");
                    assert_eq!(
                        bytes.get() - before.1,
                        *copied_bytes,
                        "copied_bytes: {what}"
                    );
                    assert_eq!(
                        delivered, *copied_bytes,
                        "every byte is copied once: {what}"
                    );
                }
            }
        }
        drop(stopper);
        let (peak, samples) = sampler.join().unwrap();
        (baseline, peak, samples)
    });
    assert!(samples > 0, "the sampler never ran");
    assert_eq!(peak, baseline, "threads alive during the deliveries");
}
