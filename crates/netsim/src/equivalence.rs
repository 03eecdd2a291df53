//! The incremental engine against the frozen pre-refactor reference.
//!
//! [`ReferenceEngine`] is a verbatim copy of the engine before the
//! incremental fair-share/indexed-event rewrite. These properties pin the
//! rewrite to it: on random clusters (all fabric models), random DAGs, and
//! random disruptions, both engines must produce the same intervals to
//! within `1e-9` relative — the only licensed divergence is final-ulp
//! rounding, because the old engine summed progressive-filling deltas
//! across *all* connected components in one global pass while the new one
//! solves each component in isolation. Both this module and the reference
//! are compiled only under `cfg(test)`: the oracle is not part of the
//! production build.

use crate::reference::ReferenceEngine;
use crate::{
    ClusterSpec, Disruptions, Engine, FabricModel, HostId, LinkParams, NicScalePeriod, TaskGraph,
    TaskId, Trace, Work,
};
use proptest::prelude::*;

const INTRA_BW: f64 = 40.0;
const INTER_BW: f64 = 2.0;

#[derive(Debug, Clone, Copy)]
struct RandCluster {
    hosts: u32,
    dph: u32,
    fabric: u8,
}

fn cluster_strategy() -> impl Strategy<Value = RandCluster> {
    (2u32..=5, 1u32..=3, 0u8..=4).prop_map(|(hosts, dph, fabric)| RandCluster {
        hosts,
        dph,
        fabric,
    })
}

fn build_cluster(rc: RandCluster) -> ClusterSpec {
    let base = ClusterSpec::homogeneous(
        rc.hosts,
        rc.dph,
        LinkParams::new(INTRA_BW, INTER_BW).with_latencies(0.0, 0.001),
    )
    .with_device_flops(10.0);
    match rc.fabric {
        0 => base,
        1 => base.with_fabric_capacity(INTER_BW * f64::from(rc.hosts) * 0.6),
        2 => base.with_fabric(FabricModel::FatTree {
            pod_hosts: 2,
            oversubscription: 2.0,
        }),
        3 => base.with_fabric(FabricModel::Torus2D {
            rows: 1,
            cols: rc.hosts,
            link_capacity: INTER_BW,
        }),
        _ => base.with_fabric(FabricModel::RailOptimized {
            rails: rc.dph,
            spine_capacity: INTER_BW,
        }),
    }
}

#[derive(Debug, Clone)]
enum RandWork {
    Compute { device: u32, seconds: f64 },
    Flow { src: u32, dst: u32, bytes: f64 },
    Marker,
}

fn work_strategy() -> impl Strategy<Value = RandWork> {
    prop_oneof![
        (0u32..64, 0.0f64..2.0).prop_map(|(device, seconds)| RandWork::Compute { device, seconds }),
        (0u32..64, 0u32..64, 0.0f64..12.0).prop_map(|(src, dst, bytes)| RandWork::Flow {
            src,
            dst,
            bytes
        }),
        Just(RandWork::Marker),
    ]
}

fn graph_strategy() -> impl Strategy<Value = Vec<(RandWork, u64)>> {
    prop::collection::vec((work_strategy(), any::<u64>()), 1..32)
}

/// Materializes random work on a concrete cluster, mapping device indices
/// into range and skipping self-flows.
fn build_graph(c: &ClusterSpec, tasks: &[(RandWork, u64)]) -> TaskGraph {
    let n = c.num_devices();
    let mut g = TaskGraph::new();
    for (i, (work, mask)) in tasks.iter().enumerate() {
        let deps: Vec<TaskId> = (0..i)
            .filter(|j| mask & (1 << (j % 64)) != 0)
            .map(|j| TaskId(j as u32))
            .collect();
        let w = match *work {
            RandWork::Compute { device, seconds } => Work::compute((device % n).into(), seconds),
            RandWork::Flow { src, dst, bytes } => {
                let src = src % n;
                let mut dst = dst % n;
                if dst == src {
                    dst = (dst + 1) % n;
                }
                Work::flow(src.into(), dst.into(), bytes)
            }
            RandWork::Marker => Work::Marker,
        };
        g.add(w, deps);
    }
    g
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn assert_traces_match(reference: &Trace, new: &Trace, n: u32) -> Result<(), TestCaseError> {
    prop_assert!(
        close(reference.makespan(), new.makespan()),
        "makespan: reference {} vs incremental {}",
        reference.makespan(),
        new.makespan()
    );
    for i in 0..n {
        let r = reference.interval(TaskId(i));
        let e = new.interval(TaskId(i));
        prop_assert!(
            close(r.start, e.start) && close(r.finish, e.finish),
            "task {i}: reference {r:?} vs incremental {e:?}"
        );
    }
    prop_assert_eq!(
        reference.usage(),
        new.usage(),
        "byte accounting must be exact"
    );
    prop_assert_eq!(reference.failed_tasks(), new.failed_tasks());
    Ok(())
}

fn disruptions_strategy() -> impl Strategy<Value = (bool, f64, f64, f64, bool, f64)> {
    (
        any::<bool>(),
        0.25f64..1.0,
        0.5f64..2.0,
        0.5f64..3.0,
        any::<bool>(),
        1.0f64..5.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental exact engine reproduces the frozen reference on
    /// random clusters, fabrics, and DAGs.
    #[test]
    fn incremental_engine_matches_reference(rc in cluster_strategy(), tasks in graph_strategy()) {
        let c = build_cluster(rc);
        let g = build_graph(&c, &tasks);
        let reference = ReferenceEngine::new(&c).run(&g).unwrap();
        let incremental = Engine::new(&c).run(&g).unwrap();
        assert_traces_match(&reference, &incremental, g.len() as u32)?;
    }

    /// Same equivalence under injected faults: NIC degradation windows,
    /// host crashes, and flow drops with retries.
    #[test]
    fn engines_match_under_disruptions(
        rc in cluster_strategy(),
        tasks in graph_strategy(),
        (scale_nic, factor, from, span, crash, crash_at) in disruptions_strategy(),
    ) {
        let c = build_cluster(rc);
        let g = build_graph(&c, &tasks);
        let mut d = Disruptions::none();
        if scale_nic {
            d.nic_scale.push(NicScalePeriod {
                host: HostId(0),
                factor,
                from,
                until: from + span,
            });
        }
        if crash {
            d.host_down.push((HostId(rc.hosts - 1), crash_at));
        }
        d.flow_drops.insert(0, 1);
        d.retry_backoff = 0.25;
        let reference = ReferenceEngine::new(&c).run_with_disruptions(&g, &d).unwrap();
        let incremental = Engine::new(&c).run_with_disruptions(&g, &d).unwrap();
        assert_traces_match(&reference, &incremental, g.len() as u32)?;
    }

    /// The incremental engine is bit-deterministic.
    #[test]
    fn incremental_engine_is_bit_deterministic(rc in cluster_strategy(), tasks in graph_strategy()) {
        let c = build_cluster(rc);
        let g = build_graph(&c, &tasks);
        let e = Engine::new(&c);
        prop_assert_eq!(e.run(&g).unwrap(), e.run(&g).unwrap());
    }
}

/// Single-component contention (every flow through one NIC) must be
/// *bit-identical* to the reference: the component solve uses the same
/// arithmetic in the same order as the reference's global pass.
#[test]
fn single_bottleneck_is_bit_identical_to_reference() {
    let c = ClusterSpec::homogeneous(2, 4, LinkParams::new(33.0, 1.7).with_latencies(0.0, 0.0));
    let mut g = TaskGraph::new();
    for i in 0..4 {
        g.add(
            Work::flow(c.device(0, i), c.device(1, i), 1.0 + f64::from(i) * 0.7),
            [],
        );
    }
    let reference = ReferenceEngine::new(&c).run(&g).unwrap();
    let incremental = Engine::new(&c).run(&g).unwrap();
    for i in 0..g.len() as u32 {
        assert_eq!(
            reference.interval(TaskId(i)).finish.to_bits(),
            incremental.interval(TaskId(i)).finish.to_bits(),
            "task {i}"
        );
    }
}
