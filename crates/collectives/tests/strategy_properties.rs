//! Property-based tests: every strategy's lowering delivers the data.
#![allow(clippy::single_range_in_vec_init)]

use crossmesh_collectives::{estimate_unit_task, lower_unit_task_on, CostParams, Strategy as Comm};
use crossmesh_mesh::{Receiver, Tile, UnitTask};
use crossmesh_netsim::{ClusterSpec, DeviceId, Engine, LinkParams, TaskGraph, Work};
use proptest::prelude::*;
use std::collections::BTreeMap;

const INTRA_BW: f64 = 100.0;
const INTER_BW: f64 = 1.0;

fn cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(
        5,
        4,
        LinkParams::new(INTRA_BW, INTER_BW).with_latencies(0.0, 0.0),
    )
}

/// A random unit task: senders on hosts 0..2, receivers on hosts 2..5,
/// each receiver taking the whole 1-D slice.
fn unit_task_strategy() -> impl Strategy<Value = UnitTask> {
    (
        8u64..200,                                   // slice volume
        prop::collection::btree_set(0u32..8, 1..4),  // sender devices (hosts 0-1)
        prop::collection::btree_set(8u32..20, 1..8), // receiver devices (hosts 2-4)
    )
        .prop_map(|(volume, senders, receivers)| {
            let c = cluster();
            UnitTask {
                index: 0,
                slice: Tile::new([0..volume]),
                bytes: volume,
                senders: senders
                    .into_iter()
                    .map(|d| (DeviceId(d), c.host_of(DeviceId(d))))
                    .collect(),
                receivers: receivers
                    .into_iter()
                    .map(|d| Receiver {
                        device: DeviceId(d),
                        host: c.host_of(DeviceId(d)),
                    })
                    .collect(),
            }
        })
}

fn all_strategies() -> [Comm; 5] {
    [
        Comm::SendRecv,
        Comm::LocalAllGather,
        Comm::GlobalAllGather,
        Comm::Broadcast { chunks: 16 },
        Comm::TreeBroadcast { chunks: 16 },
    ]
}

/// Bytes flowing *into* each device across the lowered fragment.
fn inbound_bytes(graph: &TaskGraph) -> BTreeMap<DeviceId, f64> {
    let mut m = BTreeMap::new();
    for (_, task) in graph.iter() {
        if let Work::Flow { dst, bytes, .. } = task.work {
            *m.entry(dst).or_insert(0.0) += bytes;
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strategy completes and every receiver is fed at least the
    /// slice's bytes.
    #[test]
    fn lowering_delivers_enough_bytes(task in unit_task_strategy()) {
        let c = cluster();
        for strategy in all_strategies() {
            let mut graph = TaskGraph::new();
            let lowered = lower_unit_task_on(&mut graph, &task, task.senders[0].0, strategy, &[], None);
            let trace = Engine::new(&c).run(&graph).unwrap();
            prop_assert!(trace.makespan() > 0.0);
            prop_assert_eq!(lowered.receiver_done.len(), task.receivers.len());

            let inbound = inbound_bytes(&graph);
            let needed = task.bytes as f64;
            for r in &task.receivers {
                let got = inbound.get(&r.device).copied().unwrap_or(0.0);
                prop_assert!(
                    got + 1e-6 >= needed,
                    "{strategy}: device {} got {got} of {needed}",
                    r.device
                );
            }
        }
    }

    /// Receiver completion markers never finish after the joint `done`.
    #[test]
    fn per_receiver_completions_bound_done(task in unit_task_strategy()) {
        let c = cluster();
        for strategy in all_strategies() {
            let mut graph = TaskGraph::new();
            let lowered = lower_unit_task_on(&mut graph, &task, task.senders[0].0, strategy, &[], None);
            let trace = Engine::new(&c).run(&graph).unwrap();
            let done = trace.interval(lowered.done).finish;
            for &(_, t) in &lowered.receiver_done {
                prop_assert!(trace.interval(t).finish <= done + 1e-9);
            }
        }
    }

    /// The closed-form estimate stays within a factor of 2 of simulation
    /// for any single unit task in isolation.
    #[test]
    fn estimates_track_isolated_simulation(task in unit_task_strategy()) {
        let c = cluster();
        let params = CostParams {
            inter_bw: INTER_BW,
            intra_bw: INTRA_BW,
            inter_latency: 0.0,
            intra_latency: 0.0,
        };
        for strategy in all_strategies() {
            // The tree estimate is a coarser bound; hold it to 3x.
            let slack = if matches!(strategy, Comm::TreeBroadcast { .. }) {
                3.0
            } else {
                2.0
            };
            let mut graph = TaskGraph::new();
            let lowered = lower_unit_task_on(&mut graph, &task, task.senders[0].0, strategy, &[], None);
            let trace = Engine::new(&c).run(&graph).unwrap();
            let sim = trace.interval(lowered.done).finish;
            let est = estimate_unit_task(&params, &task, task.senders[0].1, strategy);
            prop_assert!(
                est <= sim * slack + 1e-6 && sim <= est * slack + 1e-6,
                "{strategy}: est {est} vs sim {sim}"
            );
        }
    }

    /// Broadcast beats or matches every other strategy on multicast
    /// tasks.
    #[test]
    fn broadcast_is_optimal_for_full_multicast(task in unit_task_strategy()) {
        let c = cluster();
        let run = |s: Comm| {
            let mut graph = TaskGraph::new();
            let lowered = lower_unit_task_on(&mut graph, &task, task.senders[0].0, s, &[], None);
            Engine::new(&c).run(&graph).unwrap().interval(lowered.done).finish
        };
        let bc = run(Comm::Broadcast { chunks: 64 });
        for s in [
            Comm::SendRecv,
            Comm::LocalAllGather,
            Comm::GlobalAllGather,
            Comm::TreeBroadcast { chunks: 64 },
        ] {
            prop_assert!(bc <= run(s) * 1.05, "broadcast {bc} lost to {s}");
        }
    }
}
