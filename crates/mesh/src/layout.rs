//! Distributed tensor layouts: which tile each mesh coordinate holds.

use crate::device_mesh::{DeviceMesh, MeshCoord};
use crate::error::MeshError;
use crate::spec::{DimSharding, ShardingSpec};
use crate::tile::Tile;
use std::collections::BTreeMap;

/// The concrete layout of a tensor over a mesh: one [`Tile`] per mesh
/// coordinate, derived from a [`ShardingSpec`].
///
/// Uneven divisions are handled by ceiling-sized tiles: shard `k` of a
/// dimension of size `n` split `s` ways covers
/// `[min(k·⌈n/s⌉, n), min((k+1)·⌈n/s⌉, n))`; trailing shards may be smaller
/// or empty. (The paper notes Alpa cannot handle uneven partitions while
/// its broadcast approach handles "tiling, padding, and pipelining".)
///
/// # Example
///
/// ```
/// use crossmesh_mesh::{DeviceMesh, Layout, MeshCoord, Tile};
/// use crossmesh_netsim::{ClusterSpec, LinkParams};
///
/// # fn main() -> Result<(), crossmesh_mesh::MeshError> {
/// let cluster = ClusterSpec::homogeneous(2, 2, LinkParams::new(100e9, 1.25e9));
/// let mesh = DeviceMesh::from_cluster(&cluster, 0, (2, 2), "m")?;
/// // S^0 R: rows split over the host axis, replicated over the other.
/// let layout = Layout::new(&mesh, &"S0R".parse()?, &[4, 4])?;
/// assert_eq!(layout.tile_at(MeshCoord { row: 0, col: 1 }), &Tile::new([0..2, 0..4]));
/// assert_eq!(layout.unique_slices().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    shape: Vec<u64>,
    mesh_shape: (usize, usize),
    /// Row-major per-coordinate tiles.
    tiles: Vec<Tile>,
}

impl Layout {
    /// Computes the layout of a tensor with `shape` laid out on `mesh`
    /// under `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::RankMismatch`] if the spec rank differs from
    /// the tensor rank and [`MeshError::EmptyTensor`] if any dimension is
    /// zero.
    pub fn new(mesh: &DeviceMesh, spec: &ShardingSpec, shape: &[u64]) -> Result<Self, MeshError> {
        if spec.rank() != shape.len() {
            return Err(MeshError::RankMismatch {
                spec: spec.rank(),
                tensor: shape.len(),
            });
        }
        if shape.contains(&0) {
            return Err(MeshError::EmptyTensor);
        }
        let mut tiles = Vec::with_capacity(mesh.num_devices());
        for coord in mesh.coords() {
            tiles.push(tile_for(mesh, spec, shape, coord));
        }
        Ok(Layout {
            shape: shape.to_vec(),
            mesh_shape: mesh.shape(),
            tiles,
        })
    }

    /// The tensor shape this layout distributes.
    pub fn shape(&self) -> &[u64] {
        &self.shape
    }

    /// The tile held by the device at `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is out of the mesh.
    pub fn tile_at(&self, coord: MeshCoord) -> &Tile {
        assert!(
            coord.row < self.mesh_shape.0 && coord.col < self.mesh_shape.1,
            "coordinate out of mesh"
        );
        &self.tiles[coord.row * self.mesh_shape.1 + coord.col]
    }

    /// Iterates `(coord, tile)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (MeshCoord, &Tile)> {
        let (m1, m2) = self.mesh_shape;
        (0..m1)
            .flat_map(move |row| (0..m2).map(move |col| MeshCoord { row, col }))
            .zip(self.tiles.iter())
    }

    /// Groups coordinates by the tile they hold, dropping empty tiles.
    /// Each entry is a *unique data slice* in the paper's sense: the tile
    /// plus the set of replica coordinates holding it.
    ///
    /// The result is deterministic: slices ascend by tile bounds and
    /// replica lists are in row-major coordinate order.
    pub fn unique_slices(&self) -> Vec<(Tile, Vec<MeshCoord>)> {
        let mut groups: BTreeMap<&Tile, Vec<MeshCoord>> = BTreeMap::new();
        for (coord, tile) in self.iter() {
            if !tile.is_empty() {
                groups.entry(tile).or_default().push(coord);
            }
        }
        groups
            .into_iter()
            .map(|(t, coords)| (t.clone(), coords))
            .collect()
    }
}

fn tile_for(mesh: &DeviceMesh, spec: &ShardingSpec, shape: &[u64], coord: MeshCoord) -> Tile {
    let coord_along = |axis: usize| -> usize {
        match axis {
            0 => coord.row,
            1 => coord.col,
            _ => unreachable!("spec validation rejects axes > 1"),
        }
    };
    let mut bounds = Vec::with_capacity(shape.len());
    for (dim, n) in spec.iter().zip(shape.iter().copied()) {
        match dim {
            DimSharding::Replicated => bounds.push(0..n),
            DimSharding::Sharded(axes) => {
                let mut shards = 1usize;
                let mut index = 0usize;
                for &a in axes {
                    shards *= mesh.axis_size(a);
                    index = index * mesh.axis_size(a) + coord_along(a);
                }
                let chunk = n.div_ceil(shards as u64);
                let start = (index as u64 * chunk).min(n);
                let end = (start + chunk).min(n);
                bounds.push(start..end);
            }
        }
    }
    Tile::new(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    fn mesh_2x2() -> DeviceMesh {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(10e9, 1e9));
        DeviceMesh::from_cluster(&c, 0, (2, 2), "m").unwrap()
    }

    fn at(row: usize, col: usize) -> MeshCoord {
        MeshCoord { row, col }
    }

    #[test]
    fn figure2_spec1_s01_r() {
        // 4x4 matrix, S^{01}R on a 2x2 mesh: each device one distinct row.
        let m = mesh_2x2();
        let l = Layout::new(&m, &"S01R".parse().unwrap(), &[4, 4]).unwrap();
        assert_eq!(l.tile_at(at(0, 0)), &Tile::new([0..1, 0..4]));
        assert_eq!(l.tile_at(at(0, 1)), &Tile::new([1..2, 0..4]));
        assert_eq!(l.tile_at(at(1, 0)), &Tile::new([2..3, 0..4]));
        assert_eq!(l.tile_at(at(1, 1)), &Tile::new([3..4, 0..4]));
        assert_eq!(l.unique_slices().len(), 4);
    }

    #[test]
    fn figure2_spec2_s0_r() {
        // S^0 R: rows split across axis 0, replicated across axis 1.
        let m = mesh_2x2();
        let l = Layout::new(&m, &"S0R".parse().unwrap(), &[4, 4]).unwrap();
        assert_eq!(l.tile_at(at(0, 0)), &Tile::new([0..2, 0..4]));
        assert_eq!(l.tile_at(at(0, 1)), &Tile::new([0..2, 0..4]));
        assert_eq!(l.tile_at(at(1, 0)), &Tile::new([2..4, 0..4]));
        let slices = l.unique_slices();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].1, vec![at(0, 0), at(0, 1)]);
    }

    #[test]
    fn figure2_spec3_s0_s1() {
        // S^0 S^1: 2x2 blocks.
        let m = mesh_2x2();
        let l = Layout::new(&m, &"S0S1".parse().unwrap(), &[4, 4]).unwrap();
        assert_eq!(l.tile_at(at(0, 0)), &Tile::new([0..2, 0..2]));
        assert_eq!(l.tile_at(at(0, 1)), &Tile::new([0..2, 2..4]));
        assert_eq!(l.tile_at(at(1, 1)), &Tile::new([2..4, 2..4]));
        assert_eq!(l.unique_slices().len(), 4);
    }

    #[test]
    fn fully_replicated_has_one_slice() {
        let m = mesh_2x2();
        let l = Layout::new(&m, &ShardingSpec::replicated(2), &[4, 4]).unwrap();
        let slices = l.unique_slices();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].0, Tile::full(&[4, 4]));
        assert_eq!(slices[0].1.len(), 4);
    }

    #[test]
    fn sharded_dim1_along_axis1() {
        let m = mesh_2x2();
        let l = Layout::new(&m, &"RS1".parse().unwrap(), &[4, 4]).unwrap();
        // Axis 0 unused: rows replicate.
        assert_eq!(l.tile_at(at(0, 0)), l.tile_at(at(1, 0)));
        assert_eq!(l.tile_at(at(0, 0)), &Tile::new([0..4, 0..2]));
        assert_eq!(l.tile_at(at(0, 1)), &Tile::new([0..4, 2..4]));
    }

    #[test]
    fn uneven_division_produces_ragged_tiles() {
        // Dimension of 5 split 4 ways: ceil = 2, shards [0,2),[2,4),[4,5),[5,5).
        let m = mesh_2x2();
        let l = Layout::new(&m, &"S01R".parse().unwrap(), &[5, 4]).unwrap();
        assert_eq!(l.tile_at(at(0, 0)).range(0), 0..2);
        assert_eq!(l.tile_at(at(1, 0)).range(0), 4..5);
        assert!(l.tile_at(at(1, 1)).is_empty());
        // Empty tiles are not unique slices.
        assert_eq!(l.unique_slices().len(), 3);
    }

    #[test]
    fn slices_tile_the_tensor_exactly() {
        let m = mesh_2x2();
        for spec in ["S0R", "RS1", "S01R", "S0S1", "RR", "S1S0", "RS01"] {
            let l = Layout::new(&m, &spec.parse().unwrap(), &[8, 6]).unwrap();
            let total: u64 = l.unique_slices().iter().map(|(t, _)| t.volume()).sum();
            assert_eq!(total, 48, "spec {spec} does not tile the tensor");
        }
    }

    #[test]
    fn rank_mismatch_is_error() {
        let m = mesh_2x2();
        let err = Layout::new(&m, &"S0R".parse().unwrap(), &[4]).unwrap_err();
        assert!(matches!(
            err,
            MeshError::RankMismatch { spec: 2, tensor: 1 }
        ));
    }

    #[test]
    fn zero_dim_is_error() {
        let m = mesh_2x2();
        let err = Layout::new(&m, &"RR".parse().unwrap(), &[4, 0]).unwrap_err();
        assert_eq!(err, MeshError::EmptyTensor);
    }

    #[test]
    fn axis_order_in_multi_axis_sharding_matters() {
        // S^{01} vs S^{10}: shard index interleaving differs.
        let m = mesh_2x2();
        let l01 = Layout::new(&m, &"S01R".parse().unwrap(), &[4, 4]).unwrap();
        let l10 = Layout::new(&m, &"S10R".parse().unwrap(), &[4, 4]).unwrap();
        // Under S^{01}, coordinate (0,1) holds shard 1; under S^{10} it
        // holds shard 2.
        assert_eq!(l01.tile_at(at(0, 1)).range(0), 1..2);
        assert_eq!(l10.tile_at(at(0, 1)).range(0), 2..3);
    }
}
