//! Property-based tests of tiles, layouts, and the unit-task
//! decomposition.

use crossmesh_mesh::{unit_tasks, DeviceMesh, DimSharding, Layout, ShardingSpec, Tile};
use crossmesh_netsim::{ClusterSpec, LinkParams};
use proptest::prelude::*;

fn spec_strategy(rank: usize) -> impl Strategy<Value = ShardingSpec> {
    (
        prop::option::of(0..rank),
        prop::option::of(0..rank),
        any::<bool>(),
    )
        .prop_map(move |(a0, a1, swap)| {
            let mut dims = vec![DimSharding::Replicated; rank];
            match (a0, a1) {
                (Some(d0), Some(d1)) if d0 == d1 => {
                    dims[d0] = DimSharding::Sharded(if swap { vec![0, 1] } else { vec![1, 0] });
                }
                (a0, a1) => {
                    if let Some(d) = a0 {
                        dims[d] = DimSharding::Sharded(vec![0]);
                    }
                    if let Some(d) = a1 {
                        dims[d] = DimSharding::Sharded(vec![1]);
                    }
                }
            }
            ShardingSpec::new(dims).expect("valid by construction")
        })
}

fn tile_strategy() -> impl Strategy<Value = Tile> {
    prop::collection::vec((0u64..10, 0u64..10), 1..4)
        .prop_map(|bounds| Tile::new(bounds.into_iter().map(|(a, b)| a.min(b)..a.max(b))))
}

fn mesh(cluster: &ClusterSpec, offset: usize, shape: (usize, usize)) -> DeviceMesh {
    DeviceMesh::from_cluster(cluster, offset, shape, "m").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tile intersection is commutative and contained in both operands.
    #[test]
    fn tile_intersection_algebra(a in tile_strategy(), b in tile_strategy()) {
        prop_assume!(a.rank() == b.rank());
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(&ab, &ba);
        if let Some(i) = ab {
            prop_assert!(a.contains(&i) && b.contains(&i));
            prop_assert!(i.volume() <= a.volume().min(b.volume()));
        }
    }

    /// `contains` is reflexive and consistent with intersection.
    #[test]
    fn tile_containment(a in tile_strategy(), b in tile_strategy()) {
        prop_assume!(a.rank() == b.rank());
        prop_assert!(a.contains(&a));
        if !b.is_empty() && a.contains(&b) {
            prop_assert_eq!(a.intersect(&b), Some(b));
        }
    }

    /// Every device's tile is inside the tensor, and per-coordinate tiles
    /// agree with the unique-slice grouping.
    #[test]
    fn layout_tiles_are_consistent(
        spec in spec_strategy(2),
        shape in prop::collection::vec(1u64..16, 2),
        m1 in 1usize..=3,
        m2 in 1usize..=4,
    ) {
        let cluster = ClusterSpec::homogeneous(3, 4, LinkParams::new(1.0, 1.0));
        let mesh = mesh(&cluster, 0, (m1, m2));
        let layout = Layout::new(&mesh, &spec, &shape).unwrap();
        let full = Tile::full(&shape);
        for coord in mesh.coords() {
            prop_assert!(full.contains(layout.tile_at(coord)));
        }
        let from_groups: usize = layout.unique_slices().iter().map(|(_, c)| c.len()).sum();
        let non_empty = mesh.coords().filter(|&c| !layout.tile_at(c).is_empty()).count();
        prop_assert_eq!(from_groups, non_empty);
    }

    /// Unit tasks conserve bytes, and every destination device receives
    /// exactly its tile's volume.
    #[test]
    fn unit_tasks_conserve_bytes_and_coverage(
        src_spec in spec_strategy(2),
        dst_spec in spec_strategy(2),
        shape in prop::collection::vec(1u64..16, 2),
    ) {
        let cluster = ClusterSpec::homogeneous(4, 4, LinkParams::new(1.0, 1.0));
        let src = mesh(&cluster, 0, (2, 4));
        let dst = mesh(&cluster, 2, (2, 4));
        let tasks = unit_tasks(&src, &src_spec, &dst, &dst_spec, &shape, 1).unwrap();
        let volume: u64 = shape.iter().product();
        prop_assert_eq!(tasks.iter().map(|u| u.bytes).sum::<u64>(), volume);
        let mut received = std::collections::BTreeMap::new();
        for t in &tasks {
            for r in &t.receivers {
                *received.entry(r.device).or_insert(0) += t.slice.volume();
            }
        }
        let dst_layout = Layout::new(&dst, &dst_spec, &shape).unwrap();
        let want: std::collections::BTreeMap<_, u64> = dst
            .coords()
            .filter(|&c| !dst_layout.tile_at(c).is_empty())
            .map(|c| (dst.device(c), dst_layout.tile_at(c).volume()))
            .collect();
        prop_assert_eq!(received, want);
    }

    /// Sender replica sets are never empty and all senders hold the slice.
    #[test]
    fn unit_tasks_have_valid_senders(
        src_spec in spec_strategy(3),
        dst_spec in spec_strategy(3),
        shape in prop::collection::vec(1u64..10, 3),
    ) {
        let cluster = ClusterSpec::homogeneous(4, 4, LinkParams::new(1.0, 1.0));
        let src = mesh(&cluster, 0, (2, 4));
        let dst = mesh(&cluster, 2, (2, 4));
        let src_layout = Layout::new(&src, &src_spec, &shape).unwrap();
        let tasks = unit_tasks(&src, &src_spec, &dst, &dst_spec, &shape, 1).unwrap();
        for t in &tasks {
            prop_assert!(!t.senders.is_empty());
            prop_assert!(!t.receivers.is_empty());
            for &(dev, _) in &t.senders {
                // The sender's layout tile must contain the slice.
                let coord = src.coords().find(|&c| src.device(c) == dev).unwrap();
                prop_assert!(src_layout.tile_at(coord).contains(&t.slice));
            }
        }
    }
}
