//! Property-based tests of the discrete-event engine on random DAGs.

use crossmesh_netsim::{ClusterSpec, Engine, LinkParams, TaskGraph, TaskId, Work};
use proptest::prelude::*;

const INTRA_BW: f64 = 50.0;
const INTER_BW: f64 = 2.0;

fn cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(
        3,
        2,
        LinkParams::new(INTRA_BW, INTER_BW).with_latencies(0.0, 0.0),
    )
    .with_device_flops(10.0)
}

/// One random task: its work and a dependency bitmask over earlier tasks.
#[derive(Debug, Clone)]
enum RandWork {
    Compute { device: u32, seconds: f64 },
    Flops { device: u32, flops: f64 },
    Flow { src: u32, dst: u32, bytes: f64 },
    Marker,
}

fn work_strategy() -> impl Strategy<Value = RandWork> {
    prop_oneof![
        (0u32..6, 0.0f64..3.0).prop_map(|(device, seconds)| RandWork::Compute { device, seconds }),
        (0u32..6, 0.0f64..20.0).prop_map(|(device, flops)| RandWork::Flops { device, flops }),
        (0u32..6, 0u32..5, 0.0f64..10.0).prop_map(|(src, d, bytes)| RandWork::Flow {
            src,
            // Avoid self-flows by skipping over src.
            dst: if d >= src { d + 1 } else { d },
            bytes,
        }),
        Just(RandWork::Marker),
    ]
}

fn graph_strategy() -> impl Strategy<Value = Vec<(RandWork, u64)>> {
    prop::collection::vec((work_strategy(), any::<u64>()), 1..40)
}

fn build(tasks: &[(RandWork, u64)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    for (i, (work, mask)) in tasks.iter().enumerate() {
        let deps: Vec<TaskId> = (0..i)
            .filter(|j| mask & (1 << (j % 64)) != 0)
            .map(|j| TaskId(j as u32))
            .collect();
        let w = match *work {
            RandWork::Compute { device, seconds } => Work::compute(device.into(), seconds),
            RandWork::Flops { device, flops } => Work::compute_flops(device.into(), flops),
            RandWork::Flow { src, dst, bytes } => Work::flow(src.into(), dst.into(), bytes),
            RandWork::Marker => Work::Marker,
        };
        g.add(w, deps);
    }
    g
}

/// A safe serial upper bound: every task executed one after another at the
/// slowest applicable rate.
fn serial_bound(c: &ClusterSpec, tasks: &[(RandWork, u64)]) -> f64 {
    tasks
        .iter()
        .map(|(w, _)| match *w {
            RandWork::Compute { seconds, .. } => seconds,
            RandWork::Flops { flops, .. } => flops / 10.0,
            RandWork::Flow { src, dst, bytes } => {
                let bw = if c.same_host(src.into(), dst.into()) {
                    INTRA_BW
                } else {
                    INTER_BW
                };
                bytes / bw
            }
            RandWork::Marker => 0.0,
        })
        .sum::<f64>()
        + 1e-6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every random DAG completes, deterministically, within its serial
    /// bound, and no task finishes before its dependencies.
    #[test]
    fn random_dags_complete_consistently(tasks in graph_strategy()) {
        let c = cluster();
        let g = build(&tasks);
        let t1 = Engine::new(&c).run(&g).unwrap();
        let t2 = Engine::new(&c).run(&g).unwrap();
        prop_assert_eq!(&t1, &t2, "engine must be deterministic");

        prop_assert!(t1.makespan() <= serial_bound(&c, &tasks));
        for (id, task) in g.iter() {
            let iv = t1.interval(id);
            prop_assert!(iv.finish >= iv.start - 1e-9);
            for d in task.deps {
                prop_assert!(
                    t1.interval(*d).finish <= iv.start + 1e-9,
                    "task {} started before dep {} finished", id, d
                );
            }
        }
    }

    /// The makespan is at least the longest single task and at least each
    /// device's total compute load.
    #[test]
    fn makespan_respects_lower_bounds(tasks in graph_strategy()) {
        let c = cluster();
        let g = build(&tasks);
        let trace = Engine::new(&c).run(&g).unwrap();
        let mut device_load = [0.0f64; 6];
        for (w, _) in &tasks {
            let (dur, dev) = match *w {
                RandWork::Compute { device, seconds } => (seconds, Some(device)),
                RandWork::Flops { device, flops } => (flops / 10.0, Some(device)),
                RandWork::Flow { src, dst, bytes } => {
                    let bw = if c.same_host(src.into(), dst.into()) { INTRA_BW } else { INTER_BW };
                    (bytes / bw, None)
                }
                RandWork::Marker => (0.0, None),
            };
            prop_assert!(trace.makespan() + 1e-9 >= dur);
            if let Some(d) = dev {
                device_load[d as usize] += dur;
            }
        }
        for load in device_load {
            prop_assert!(trace.makespan() + 1e-6 >= load);
        }
    }

    /// NIC accounting equals the sum of inter-host flow bytes.
    #[test]
    fn usage_matches_flow_bytes(tasks in graph_strategy()) {
        let c = cluster();
        let g = build(&tasks);
        let trace = Engine::new(&c).run(&g).unwrap();
        let expected: f64 = tasks
            .iter()
            .map(|(w, _)| match *w {
                RandWork::Flow { src, dst, bytes } if !c.same_host(src.into(), dst.into()) => bytes,
                _ => 0.0,
            })
            .sum();
        prop_assert!((trace.usage().total_cross_host_bytes() - expected).abs() < 1e-6);
    }
}
