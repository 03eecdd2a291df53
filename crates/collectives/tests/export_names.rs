//! The names every lowering gives its tasks, as the unified timeline
//! export renders them: a renamed chunk, hop or marker shows up here
//! before it reaches a trace someone is reading.

use crossmesh_collectives::{
    alpa_effective_strategy, lower_unit_task_on, ring_all_gather, ring_all_reduce, Strategy,
};
use crossmesh_mesh::{Receiver, Tile, UnitTask};
use crossmesh_netsim::{ClusterSpec, Engine, FabricModel, HostId, LinkParams, TaskGraph};

/// The event names the timeline export renders for `graph`, in document
/// order, counter samples excluded.
fn event_names(c: &ClusterSpec, graph: &TaskGraph) -> Vec<String> {
    let trace = Engine::new(c).run(graph).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&trace.export(graph, c).render()).unwrap();
    doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"] != "M" && e["ph"] != "C")
        .map(|e| e["name"].as_str().unwrap().to_string())
        .collect()
}

/// Two hosts of two devices on two rails.
fn rails() -> ClusterSpec {
    ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0)).with_fabric(
        FabricModel::RailOptimized {
            rails: 2,
            spine_capacity: 1.0,
        },
    )
}

/// Unit 3, a 12-byte slice that d0 sends to its host peer d1 and to
/// both devices of host 1.
#[allow(clippy::single_range_in_vec_init)]
fn unit(c: &ClusterSpec) -> UnitTask {
    UnitTask {
        index: 3,
        slice: Tile::new([0..12]),
        bytes: 12,
        senders: vec![(c.device(0, 0), HostId(0))],
        receivers: [(0, 1), (1, 0), (1, 1)]
            .into_iter()
            .map(|(h, l)| Receiver {
                device: c.device(h, l),
                host: HostId(h),
            })
            .collect(),
    }
}

#[test]
fn every_lowering_exports_the_names_it_always_has() {
    let c = rails();
    let unit = unit(&c);
    let names = |strategy: Strategy| {
        let mut g = TaskGraph::new();
        lower_unit_task_on(&mut g, &unit, c.device(0, 0), strategy, &[], Some(&c));
        event_names(&c, &g)
    };
    // The seven CLI strategies; `alpa` resolves per unit.
    let cases = [
        ("send_recv", Strategy::SendRecv),
        ("local_allgather", Strategy::LocalAllGather),
        ("global_allgather", Strategy::GlobalAllGather),
        ("broadcast", Strategy::Broadcast { chunks: 2 }),
        ("tree_broadcast", Strategy::TreeBroadcast { chunks: 2 }),
        (
            "multi_rail",
            Strategy::MultiRail {
                rails: 2,
                chunks: 2,
            },
        ),
        ("alpa", alpa_effective_strategy(&unit)),
    ];
    let ga: &[&str] = &[
        "ga u3 scatter",
        "ga u3 scatter",
        "ga u3 scatter",
        "ag[s0] d1->d2",
        "ag[s0] d2->d3",
        "ag[s0] d3->d1",
        "ag[s1] d1->d2",
        "ag[s1] d2->d3",
        "ag[s1] d3->d1",
        "marker t9",
        "marker t10",
        "marker t11",
        "marker t12",
        "marker t13",
    ];
    let want: [&[&str]; 7] = [
        &["sr u3 d0->d1", "sr u3 d0->d2", "sr u3 d0->d3", "marker t3"],
        &[
            "la u3 copy",
            "la u3 scatter",
            "la u3 scatter",
            "ag[s0] d2->d3",
            "ag[s0] d3->d2",
            "marker t5",
            "marker t6",
            "marker t7",
            "marker t8",
        ],
        ga,
        &[
            "bc u3 c0 h0",
            "bc u3 c0 h1",
            "bc u3 c0 h2",
            "bc u3 c1 h0",
            "bc u3 c1 h1",
            "bc u3 c1 h2",
            "marker t6",
        ],
        &[
            "tb u3 c0 0->1",
            "tb u3 c0 local",
            "tb u3 c0 local",
            "tb u3 c1 0->1",
            "tb u3 c1 local",
            "tb u3 c1 local",
            "marker t6",
        ],
        &[
            "mr u3 local d0->d1",
            "mr u3 c0 r0 h0",
            "mr u3 c1 r1 h0",
            "mr u3 c1 r1 h1",
            "mr u3 c1 r1 h2",
            "mr u3 c0 r0 h0",
            "mr u3 c0 r0 h1",
            "mr u3 c1 r1 h0",
            "mr u3 c1 r1 h1",
            "marker t5",
            "marker t10",
            "marker t11",
        ],
        ga,
    ];
    for ((cli, strategy), want) in cases.into_iter().zip(want) {
        assert_eq!(names(strategy), want, "{cli}");
    }
}

#[test]
fn a_lone_global_all_gather_receiver_gets_a_named_copy() {
    let c = rails();
    let mut unit = unit(&c);
    unit.receivers.truncate(1);
    let mut g = TaskGraph::new();
    lower_unit_task_on(
        &mut g,
        &unit,
        c.device(0, 0),
        Strategy::GlobalAllGather,
        &[],
        None,
    );
    assert_eq!(event_names(&c, &g), ["ga u3 copy", "marker t1"]);
}

#[test]
fn ring_lowerings_export_the_names_they_always_have() {
    let c = rails();
    let (d0, d1, d2) = (c.device(0, 0), c.device(0, 1), c.device(1, 0));

    let mut g = TaskGraph::new();
    ring_all_gather(&mut g, &[d0, d1, d2], &[1.0; 3], &vec![vec![]; 3]);
    assert_eq!(
        event_names(&c, &g),
        [
            "ag[s0] d0->d1",
            "ag[s0] d1->d2",
            "ag[s0] d2->d0",
            "ag[s1] d0->d1",
            "ag[s1] d1->d2",
            "ag[s1] d2->d0",
            "marker t6",
            "marker t7",
            "marker t8",
            "marker t9",
        ]
    );

    let mut g = TaskGraph::new();
    ring_all_reduce(&mut g, &[d0, d2], 4.0, &vec![vec![]; 2]);
    assert_eq!(
        event_names(&c, &g),
        [
            "rs[s0]",
            "rs[s0]",
            "ag[s0] d0->d2",
            "ag[s0] d2->d0",
            "marker t4",
            "marker t5",
            "marker t6",
        ]
    );
}
