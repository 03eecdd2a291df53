//! Serde round-trip tests for the public data types: configurations and
//! results must survive JSON serialization unchanged (they feed the CLI's
//! `--json` output and the bench harness dumps).

use crossmesh::core::{Assignment, CostParams, ExecutionReport, Strategy};
use crossmesh::mesh::{DeviceMesh, ShardingSpec, Tile, UnitTask};
use crossmesh::models::gpt::GptConfig;
use crossmesh::models::utransformer::UTransformerConfig;
use crossmesh::netsim::{ClusterSpec, Label, LinkParams, TaskGraph, Work};
use crossmesh::pipeline::{CommMode, PipelineConfig, ScheduleKind, WeightDelay};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn sharding_specs_roundtrip() {
    for text in ["S0RR", "RS01", "RRR", "S1S0"] {
        let spec: ShardingSpec = text.parse().unwrap();
        assert_eq!(roundtrip(&spec), spec);
    }
}

#[test]
fn tiles_and_unit_tasks_roundtrip() {
    let c = ClusterSpec::homogeneous(4, 2, LinkParams::new(10e9, 1e9));
    let a = DeviceMesh::from_cluster(&c, 0, (2, 2), "A").unwrap();
    let b = DeviceMesh::from_cluster(&c, 2, (2, 2), "B").unwrap();
    let tile = Tile::new([0..4, 2..8]);
    assert_eq!(roundtrip(&tile), tile);
    let tasks = crossmesh::mesh::unit_tasks(
        &a,
        &"S0R".parse().unwrap(),
        &b,
        &"RS1".parse().unwrap(),
        &[8, 8],
        4,
    )
    .unwrap();
    let back: Vec<UnitTask> = roundtrip(&tasks);
    assert_eq!(back, tasks);
}

#[test]
fn cluster_and_graph_roundtrip() {
    let c = ClusterSpec::homogeneous(3, 4, LinkParams::new(100e9, 1.25e9))
        .with_device_flops(50e12)
        .with_fabric_capacity(5e9);
    let back = roundtrip(&c);
    assert_eq!(back, c);

    let mut g = TaskGraph::new();
    let t = g.add(Work::compute(c.device(0, 0), 1.0), []);
    g.add_labeled(
        Work::flow(c.device(0, 0), c.device(1, 0), 64.0),
        [t],
        Label::new("payload", []),
    );
    assert_eq!(roundtrip(&g), g);
}

#[test]
fn planner_outputs_roundtrip() {
    let a = Assignment {
        unit: 3,
        sender: crossmesh::netsim::DeviceId(7),
        sender_host: crossmesh::netsim::HostId(1),
        strategy: Strategy::Broadcast { chunks: 64 },
    };
    assert_eq!(roundtrip(&a), a);
    let r = ExecutionReport {
        simulated_seconds: 1.5,
        cross_host_bytes: 1e9,
        tasks_lowered: 42,
    };
    assert_eq!(roundtrip(&r), r);
    let p = CostParams::default();
    assert_eq!(roundtrip(&p), p);
}

#[test]
fn pipeline_and_model_configs_roundtrip() {
    let pc = PipelineConfig {
        schedule: ScheduleKind::Eager1F1B,
        comm: CommMode::Overlapped,
        weight_delay: WeightDelay::Fixed(2),
    };
    assert_eq!(roundtrip(&pc), pc);
    let gpt = GptConfig::case1();
    assert_eq!(roundtrip(&gpt), gpt);
    let ut = UTransformerConfig::case1();
    assert_eq!(roundtrip(&ut), ut);
}
