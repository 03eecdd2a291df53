//! Logical data plane: executes a plan on real buffers and verifies that
//! the destination mesh ends up with exactly the right data.
//!
//! The simulator (`crossmesh-netsim`) checks *timing*; this module checks
//! *placement*. Every tensor element is materialized as its linear index
//! (truncated to the element width), source devices hold their layout tiles
//! as byte buffers, the plan's unit tasks move sub-tiles, and the
//! destination tiles are reassembled and compared element-by-element
//! against ground truth.
//!
//! There is one delivery engine, [`deliver`]: it takes the destination
//! tiles and the unit tasks to move, grouped into lanes. One lane runs
//! inline on the calling thread — the sequential oracle; several lanes run
//! as sender threads feeding one assembler thread per destination device
//! over bounded channels. [`execute_and_verify`], the threaded runtime's
//! `execute_plan` and the MoE all-to-all executors only build the delivery
//! list.

use crate::plan::{Assignment, Plan};
use bytes::Bytes;
use crossmesh_check::TileDiff;
use crossmesh_hb as hb;
use crossmesh_mesh::{Layout, Tile, UnitTask};
use crossmesh_netsim::DeviceId;
use rand::prelude::*;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::mpsc;
use std::thread;

/// Errors surfaced by data-plane execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataPlaneError {
    /// A chosen sender does not actually hold the slice it must send.
    SenderMissesSlice {
        /// The offending device.
        device: DeviceId,
        /// The slice it was asked to send.
        slice: String,
    },
    /// After executing the plan, a destination element was never written.
    Uncovered {
        /// First missing element: which device, which tile, where inside it.
        diff: TileDiff,
    },
    /// A destination element holds the wrong value.
    Corrupted {
        /// First divergent element with its expected and actual values.
        diff: TileDiff,
    },
    /// Two writes to the same destination element disagreed.
    Conflict {
        /// The receiving device.
        device: DeviceId,
        /// Linear index of the conflicting element.
        linear_index: u64,
    },
    /// Every transmission attempt of a unit task was dropped by the
    /// [`DropRoll`], retries included.
    Dropped {
        /// The unit task whose slice was lost.
        unit: usize,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// A sender or assembler thread failed (panic, receiver hung up).
    Transport(String),
}

impl fmt::Display for DataPlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPlaneError::SenderMissesSlice { device, slice } => {
                write!(f, "sender {device} does not hold slice {slice}")
            }
            DataPlaneError::Uncovered { diff } => {
                write!(f, "destination never fully written: {diff}")
            }
            DataPlaneError::Corrupted { diff } => {
                write!(f, "destination holds wrong data: {diff}")
            }
            DataPlaneError::Conflict {
                device,
                linear_index,
            } => write!(
                f,
                "conflicting writes to element {linear_index} on device {device}"
            ),
            DataPlaneError::Dropped { unit, attempts } => {
                write!(f, "slice of unit {unit} lost after {attempts} attempts")
            }
            DataPlaneError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl Error for DataPlaneError {}

/// A device-resident tile: the region it covers and its contents as a
/// row-major (within the tile) byte buffer of `elem_bytes`-wide elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileBuffer {
    /// The region of the full tensor this buffer covers.
    pub tile: Tile,
    /// Element width in bytes (1–8).
    pub elem_bytes: usize,
    /// `tile.volume() * elem_bytes` bytes, row-major within the tile.
    pub data: Bytes,
}

/// Iterates all multi-dimensional indices of `tile` in row-major order.
fn tile_indices(tile: &Tile) -> impl Iterator<Item = Vec<u64>> + '_ {
    let rank = tile.rank();
    let mut current: Option<Vec<u64>> = if tile.is_empty() {
        None
    } else {
        Some((0..rank).map(|d| tile.range(d).start).collect())
    };
    std::iter::from_fn(move || {
        let idx = current.clone()?;
        // Advance the odometer: increment the last dimension, carrying.
        let mut next = idx.clone();
        let mut d = rank;
        loop {
            if d == 0 {
                current = None;
                break;
            }
            d -= 1;
            next[d] += 1;
            if next[d] < tile.range(d).end {
                current = Some(next);
                break;
            }
            next[d] = tile.range(d).start;
        }
        Some(idx)
    })
}

/// The linear index of `idx` in a tensor of `shape`.
fn linear_index(shape: &[u64], idx: &[u64]) -> u64 {
    let mut lin = 0u64;
    for (i, &n) in shape.iter().enumerate() {
        lin = lin * n + idx[i];
    }
    lin
}

/// Row-major element offsets, within `parent`'s buffer, of every element
/// of `sub` (in `sub`'s own row-major order).
fn offsets_in<'a>(parent: &'a Tile, sub: &'a Tile) -> impl Iterator<Item = usize> + 'a {
    let rank = parent.rank();
    let mut strides = vec![1u64; rank];
    for d in (0..rank.saturating_sub(1)).rev() {
        let extent = parent.range(d + 1).end - parent.range(d + 1).start;
        strides[d] = strides[d + 1] * extent;
    }
    tile_indices(sub).map(move |idx| {
        let off: u64 = (0..rank)
            .map(|d| (idx[d] - parent.range(d).start) * strides[d])
            .sum();
        off as usize
    })
}

/// Encodes `value` as `elem_bytes` little-endian bytes (truncating).
fn encode(value: u64, elem_bytes: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&value.to_le_bytes()[..elem_bytes]);
}

/// Truncates `value` to the range representable in `elem_bytes` bytes,
/// mirroring what [`encode`] stores.
fn truncate(value: u64, elem_bytes: usize) -> u64 {
    if elem_bytes >= 8 {
        value
    } else {
        value & ((1u64 << (elem_bytes * 8)) - 1)
    }
}

impl TileBuffer {
    /// Materializes ground truth for `tile` of a tensor with `shape`:
    /// every element holds its linear index.
    ///
    /// # Panics
    ///
    /// Panics if `elem_bytes` is 0 or exceeds 8.
    pub fn materialize(tile: &Tile, shape: &[u64], elem_bytes: usize) -> Self {
        assert!(
            (1..=8).contains(&elem_bytes),
            "element width must be 1-8 bytes"
        );
        let mut data = Vec::with_capacity(tile.volume() as usize * elem_bytes);
        for idx in tile_indices(tile) {
            encode(linear_index(shape, &idx), elem_bytes, &mut data);
        }
        TileBuffer {
            tile: tile.clone(),
            elem_bytes,
            data: Bytes::from(data),
        }
    }

    /// Extracts the sub-region `sub` (which must be contained in this
    /// buffer's tile) as a new buffer.
    ///
    /// # Panics
    ///
    /// Panics if `sub` is not contained in `self.tile`.
    pub fn extract(&self, sub: &Tile) -> TileBuffer {
        assert!(
            self.tile.contains(sub),
            "sub-tile {sub} not contained in {}",
            self.tile
        );
        if *sub == self.tile {
            return self.clone();
        }
        let mut data = Vec::with_capacity(sub.volume() as usize * self.elem_bytes);
        for off in offsets_in(&self.tile, sub) {
            let byte = off * self.elem_bytes;
            data.extend_from_slice(&self.data[byte..byte + self.elem_bytes]);
        }
        TileBuffer {
            tile: sub.clone(),
            elem_bytes: self.elem_bytes,
            data: Bytes::from(data),
        }
    }

    /// Decodes the element at the row-major position `i` within the tile.
    pub fn element(&self, i: usize) -> u64 {
        let mut raw = [0u8; 8];
        raw[..self.elem_bytes]
            .copy_from_slice(&self.data[i * self.elem_bytes..(i + 1) * self.elem_bytes]);
        u64::from_le_bytes(raw)
    }
}

/// Per-destination-device assembly buffer with coverage tracking: what
/// [`deliver`] lands pieces in and [`verify_destination`] checks.
#[derive(Debug)]
pub struct DestinationBuffer {
    tile: Tile,
    elem_bytes: usize,
    data: Vec<u8>,
    written: Vec<bool>,
}

impl DestinationBuffer {
    /// An all-zero, nothing-written-yet buffer covering `tile`.
    pub fn new(tile: Tile, elem_bytes: usize) -> Self {
        let n = tile.volume() as usize;
        DestinationBuffer {
            tile,
            elem_bytes,
            data: vec![0; n * elem_bytes],
            written: vec![false; n],
        }
    }

    /// Writes a delivered piece into the buffer. `device` is only used to
    /// attribute errors.
    ///
    /// # Errors
    ///
    /// Returns [`DataPlaneError::Conflict`] if an element written twice
    /// disagrees with its earlier value.
    ///
    /// # Panics
    ///
    /// Panics if `piece.tile` is not contained in this buffer's tile.
    pub fn write(&mut self, piece: &TileBuffer, device: DeviceId) -> Result<(), DataPlaneError> {
        assert!(
            piece.tile.is_empty() || self.tile.contains(&piece.tile),
            "piece {} not contained in destination tile {}",
            piece.tile,
            self.tile
        );
        for (i, elem) in offsets_in(&self.tile, &piece.tile).enumerate() {
            let byte = elem * self.elem_bytes;
            let src = &piece.data[i * self.elem_bytes..(i + 1) * self.elem_bytes];
            if self.written[elem] {
                if &self.data[byte..byte + self.elem_bytes] != src {
                    return Err(DataPlaneError::Conflict {
                        device,
                        linear_index: elem as u64,
                    });
                }
            } else {
                self.data[byte..byte + self.elem_bytes].copy_from_slice(src);
                self.written[elem] = true;
            }
        }
        Ok(())
    }
}

/// The verified outcome of a data-plane execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPlaneReport {
    /// Bytes handed to receivers, summed over unit tasks (the logical
    /// payload, before any strategy-level duplication).
    pub delivered_bytes: u64,
    /// Final per-device tile buffers on the destination mesh.
    pub destination: BTreeMap<u32, TileBuffer>,
}

/// Checks that every assembled destination buffer is fully covered and
/// holds exactly its tile of the ground-truth tensor (every element equal
/// to its linear index, truncated to the element width). Returns the final
/// immutable buffers keyed by device id; empty tiles are skipped.
///
/// This is the back half of [`deliver`], and so of every executor built
/// on it.
///
/// # Errors
///
/// Returns [`DataPlaneError::Uncovered`] for an element never written and
/// [`DataPlaneError::Corrupted`] for an element holding a wrong value.
pub fn verify_destination(
    shape: &[u64],
    buffers: impl IntoIterator<Item = (DeviceId, DestinationBuffer)>,
) -> Result<BTreeMap<u32, TileBuffer>, DataPlaneError> {
    let mut destination = BTreeMap::new();
    for (device, buf) in buffers {
        let tile = buf.tile.clone();
        let elem_bytes = buf.elem_bytes;
        if tile.is_empty() {
            continue;
        }
        for (i, idx) in tile_indices(&tile).enumerate() {
            let lin = linear_index(shape, &idx);
            if !buf.written[i] {
                return Err(DataPlaneError::Uncovered {
                    diff: TileDiff {
                        device,
                        tile: tile.clone(),
                        offset: i as u64,
                        linear_index: lin,
                        expected: Some(truncate(lin, elem_bytes)),
                        actual: None,
                    },
                });
            }
        }
        let got = TileBuffer {
            tile: tile.clone(),
            elem_bytes,
            data: Bytes::from(buf.data),
        };
        let want = TileBuffer::materialize(&tile, shape, elem_bytes);
        if got.data != want.data {
            // Locate the first differing element for the structured diff.
            let bad = (0..tile.volume() as usize)
                .find(|&i| got.element(i) != want.element(i))
                .unwrap_or(0);
            let idx = tile_indices(&tile).nth(bad).expect("index exists");
            return Err(DataPlaneError::Corrupted {
                diff: TileDiff {
                    device,
                    tile: tile.clone(),
                    offset: bad as u64,
                    linear_index: linear_index(shape, &idx),
                    expected: Some(want.element(bad)),
                    actual: Some(got.element(bad)),
                },
            });
        }
        destination.insert(device.0, got);
    }
    Ok(destination)
}

/// One unit task to deliver, and where its bytes come from.
#[derive(Debug, Clone, Copy)]
pub struct Delivery<'a> {
    /// The slice to move and the receivers that need (part of) it.
    pub unit: &'a UnitTask,
    /// The sending device and the tile it holds; `None` materializes the
    /// slice straight from ground truth.
    pub holder: Option<(DeviceId, &'a Tile)>,
}

/// Seeded transmission drops: each delivery's attempts are rolled from a
/// generator seeded by `seed` and the unit index — never by lane count or
/// thread interleaving — so the outcome is identical at every width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropRoll {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability that one transmission attempt is dropped.
    pub prob: f64,
    /// Re-transmissions allowed before the slice counts as lost.
    pub max_retries: u32,
}

impl DropRoll {
    fn roll(&self, unit: usize) -> Result<(), DataPlaneError> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x9e37_79b9u64.wrapping_add(unit as u64));
        let mut attempts = 1u32;
        while rng.gen_f64() < self.prob {
            if attempts > self.max_retries {
                return Err(DataPlaneError::Dropped { unit, attempts });
            }
            attempts += 1;
        }
        Ok(())
    }
}

/// A destination device's assembly buffer with its race-detector seam:
/// every delivery is `release(edge)` at the sender and `acquire(edge)` +
/// `write(point)` where the piece lands, so an unsynchronized buffer
/// write would convict.
struct Inbox {
    buf: DestinationBuffer,
    edge: u64,
    point: u64,
}

impl Inbox {
    fn land(&mut self, piece: &TileBuffer, device: DeviceId) -> Result<(), DataPlaneError> {
        hb::acquire(self.edge);
        hb::write(self.point);
        self.buf.write(piece, device)
    }
}

/// Runs one lane's deliveries in order, handing every piece to `emit`;
/// returns the bytes handed over.
fn run_lane(
    shape: &[u64],
    elem_bytes: usize,
    lane: &[Delivery<'_>],
    drops: Option<DropRoll>,
    emit: &mut dyn FnMut(DeviceId, TileBuffer) -> Result<(), DataPlaneError>,
) -> Result<u64, DataPlaneError> {
    let mut held: BTreeMap<DeviceId, TileBuffer> = BTreeMap::new();
    let mut delivered = 0u64;
    for d in lane {
        if let Some(drops) = drops {
            drops.roll(d.unit.index)?;
        }
        let slice = &d.unit.slice;
        let slice_buf = match d.holder {
            Some((device, tile)) if !tile.contains(slice) => {
                return Err(DataPlaneError::SenderMissesSlice {
                    device,
                    slice: slice.to_string(),
                })
            }
            Some((device, tile)) => held
                .entry(device)
                .or_insert_with(|| TileBuffer::materialize(tile, shape, elem_bytes))
                .extract(slice),
            None => TileBuffer::materialize(slice, shape, elem_bytes),
        };
        for r in &d.unit.receivers {
            let piece = slice_buf.extract(&r.needed);
            delivered += piece.tile.volume() * elem_bytes as u64;
            emit(r.device, piece)?;
        }
    }
    Ok(delivered)
}

/// The delivery engine: moves every lane's unit tasks into per-device
/// [`DestinationBuffer`]s covering `destinations` and verifies the result
/// with [`verify_destination`].
///
/// A single lane runs inline, in order — the sequential oracle. Several
/// lanes run as one sender thread each, feeding one assembler thread per
/// destination device over bounded channels, so fast senders exert
/// backpressure instead of buffering everything. The report is identical
/// either way.
///
/// # Errors
///
/// The first placement defect found (a sender asked to ship data it does
/// not hold, an element never delivered, a corrupted value, conflicting
/// deliveries), [`DataPlaneError::Dropped`] when a slice exhausts its
/// retry budget under `drops`, and [`DataPlaneError::Transport`] if a
/// thread fails.
pub fn deliver(
    shape: &[u64],
    elem_bytes: usize,
    destinations: impl IntoIterator<Item = (DeviceId, Tile)>,
    lanes: &[Vec<Delivery<'_>>],
    drops: Option<DropRoll>,
) -> Result<DataPlaneReport, DataPlaneError> {
    let mut inboxes: BTreeMap<DeviceId, Inbox> = destinations
        .into_iter()
        .map(|(device, tile)| {
            let buf = DestinationBuffer::new(tile, elem_bytes);
            let (edge, point) = (hb::fresh_id(), hb::fresh_id());
            (device, Inbox { buf, edge, point })
        })
        .collect();
    const OWNED: &str = "every receiver owns a destination tile";

    let delivered_bytes = if let [lane] = lanes {
        run_lane(shape, elem_bytes, lane, drops, &mut |device, piece| {
            inboxes.get_mut(&device).expect(OWNED).land(&piece, device)
        })?
    } else {
        thread::scope(|s| {
            let mut outboxes = BTreeMap::new();
            let mut assemblers = Vec::new();
            for (&device, inbox) in &mut inboxes {
                let (tx, rx) = mpsc::sync_channel::<TileBuffer>(64);
                outboxes.insert(device, (tx, inbox.edge));
                assemblers
                    .push(s.spawn(move || rx.iter().try_for_each(|p| inbox.land(&p, device))));
            }
            let senders: Vec<_> = lanes
                .iter()
                .map(|lane| {
                    let outboxes = outboxes.clone();
                    s.spawn(move || {
                        run_lane(shape, elem_bytes, lane, drops, &mut |device, piece| {
                            let (tx, edge) = outboxes.get(&device).expect(OWNED);
                            hb::preempt();
                            hb::release(*edge);
                            tx.send(piece).map_err(|_| {
                                DataPlaneError::Transport(format!("assembler for {device} hung up"))
                            })
                        })
                    })
                })
                .collect();
            // Only the sender threads' clones remain: when those finish,
            // the assemblers see EOF.
            drop(outboxes);

            let panicked = |who| DataPlaneError::Transport(format!("{who} thread panicked"));
            let mut delivered = 0u64;
            let mut errors = Vec::new();
            for h in senders {
                match h.join().unwrap_or_else(|_| Err(panicked("sender"))) {
                    Ok(bytes) => delivered += bytes,
                    Err(e) => errors.push(e),
                }
            }
            for h in assemblers {
                errors.extend(
                    h.join()
                        .unwrap_or_else(|_| Err(panicked("assembler")))
                        .err(),
                );
            }
            // A thread erroring out makes hang-ups on the other side of
            // its channels inevitable: report the cause, not the echo.
            let cause = errors
                .into_iter()
                .min_by_key(|e| matches!(e, DataPlaneError::Transport(_)));
            cause.map_or(Ok(delivered), Err)
        })?
    };

    let assembled = inboxes
        .into_iter()
        .map(|(device, inbox)| (device, inbox.buf));
    Ok(DataPlaneReport {
        delivered_bytes,
        destination: verify_destination(shape, assembled)?,
    })
}

/// Executes `plan` on the delivery engine with its assignments grouped
/// into lanes by `lane_of` (plan order is kept within a lane): every
/// source device holds its layout tile, every destination device must end
/// up holding exactly its own.
///
/// # Errors
///
/// Those of [`deliver`].
pub fn execute_plan_by<K: Ord>(
    plan: &Plan<'_>,
    lane_of: impl Fn(&Assignment) -> K,
) -> Result<DataPlaneReport, DataPlaneError> {
    let task = plan.task();
    let (shape, src_mesh, dst_mesh) = (task.shape(), task.src_mesh(), task.dst_mesh());
    let src_layout =
        Layout::new(src_mesh, task.src_spec(), shape).expect("task validated at build");
    let dst_layout =
        Layout::new(dst_mesh, task.dst_spec(), shape).expect("task validated at build");
    let src_tiles: BTreeMap<DeviceId, &Tile> = src_mesh
        .coords()
        .map(|coord| (src_mesh.device(coord), src_layout.tile_at(coord)))
        .collect();
    let mut lanes: BTreeMap<K, Vec<Delivery<'_>>> = BTreeMap::new();
    for a in plan.assignments() {
        let tile = src_tiles
            .get(&a.sender)
            .expect("plan validated sender membership");
        lanes.entry(lane_of(a)).or_default().push(Delivery {
            unit: &task.units()[a.unit],
            holder: Some((a.sender, tile)),
        });
    }
    let lanes: Vec<_> = lanes.into_values().collect();
    let destinations = dst_mesh
        .coords()
        .map(|coord| (dst_mesh.device(coord), dst_layout.tile_at(coord).clone()));
    deliver(
        shape,
        task.elem_bytes() as usize,
        destinations,
        &lanes,
        None,
    )
}

/// Executes `plan` sequentially, in plan order, on materialized buffers
/// and verifies every destination device ends up holding exactly its
/// layout tile of the tensor.
///
/// # Errors
///
/// Returns the first placement defect found: a sender asked to ship data it
/// does not hold, an element never delivered, a corrupted value, or
/// conflicting deliveries.
pub fn execute_and_verify(plan: &Plan<'_>) -> Result<DataPlaneReport, DataPlaneError> {
    execute_plan_by(plan, |_| ())
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crate::planners::{EnsemblePlanner, NaivePlanner, Planner, PlannerConfig};
    use crate::task::ReshardingTask;
    use crossmesh_collectives::CostParams;
    use crossmesh_mesh::DeviceMesh;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    fn config() -> PlannerConfig {
        PlannerConfig::new(CostParams {
            inter_bw: 1.0,
            intra_bw: 100.0,
            inter_latency: 0.0,
            intra_latency: 0.0,
        })
    }

    fn task(src: &str, dst: &str, shape: &[u64], elem: u64) -> ReshardingTask {
        let c = ClusterSpec::homogeneous(4, 4, LinkParams::new(100.0, 1.0));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 4), "B").unwrap();
        ReshardingTask::new(
            a,
            src.parse().unwrap(),
            b,
            dst.parse().unwrap(),
            shape,
            elem,
        )
        .unwrap()
    }

    #[test]
    fn tile_indices_are_row_major() {
        let t = Tile::new([1..3, 0..2]);
        let idx: Vec<Vec<u64>> = tile_indices(&t).collect();
        assert_eq!(idx, vec![vec![1, 0], vec![1, 1], vec![2, 0], vec![2, 1]]);
    }

    #[test]
    fn materialize_and_extract_round_trip() {
        let full = Tile::new([0..4, 0..4]);
        let buf = TileBuffer::materialize(&full, &[4, 4], 2);
        assert_eq!(buf.element(0), 0);
        assert_eq!(buf.element(5), 5);
        let sub = buf.extract(&Tile::new([1..3, 2..4]));
        // Element (1,2) of a 4x4 tensor has linear index 6.
        assert_eq!(sub.element(0), 6);
        assert_eq!(sub.element(3), 11);
    }

    #[test]
    fn extraction_from_offset_tiles() {
        let tile = Tile::new([2..6, 4..8]);
        let buf = TileBuffer::materialize(&tile, &[8, 8], 4);
        let sub = buf.extract(&Tile::new([3..4, 5..7]));
        assert_eq!(sub.element(0), 3 * 8 + 5);
        assert_eq!(sub.element(1), 3 * 8 + 6);
    }

    #[test]
    fn plans_move_the_right_data() {
        for (src, dst) in [
            ("RR", "RR"),
            ("S0R", "RS1"),
            ("S01R", "S0S1"),
            ("RS0", "S1R"),
            ("S0S1", "S1S0"),
        ] {
            let t = task(src, dst, &[8, 6], 4);
            let plan = EnsemblePlanner::new(config()).plan(&t);
            let report = execute_and_verify(&plan).unwrap_or_else(|e| panic!("{src}->{dst}: {e}"));
            assert!(report.delivered_bytes >= t.total_bytes());
        }
    }

    #[test]
    fn uneven_shapes_still_verify() {
        // 7x5 over 8-way sharding: ragged and empty tiles everywhere.
        let t = task("S01R", "S0S1", &[7, 5], 2);
        let plan = NaivePlanner::new(config()).plan(&t);
        execute_and_verify(&plan).unwrap();
    }

    #[test]
    fn narrow_elements_truncate_consistently() {
        // 1-byte elements: values wrap at 256 but ground truth wraps the
        // same way, so verification still passes.
        let t = task("S0R", "S1R", &[32, 32], 1);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        execute_and_verify(&plan).unwrap();
    }

    #[test]
    fn verify_destination_flags_uncovered_and_corrupted() {
        let tile = Tile::new([0..2, 0..2]);
        // Nothing written: the first element is uncovered.
        let empty = DestinationBuffer::new(tile.clone(), 1);
        let err = verify_destination(&[2, 2], [(DeviceId(0), empty)]).unwrap_err();
        match err {
            DataPlaneError::Uncovered { diff } => {
                assert_eq!(diff.device, DeviceId(0));
                assert_eq!(diff.tile, tile);
                assert_eq!(diff.offset, 0);
                assert_eq!(diff.linear_index, 0);
                assert_eq!(diff.expected, Some(0));
                assert_eq!(diff.actual, None);
            }
            other => panic!("expected Uncovered, got {other}"),
        }
        // Fully covered with ground truth: passes and returns the buffer.
        let truth = TileBuffer::materialize(&tile, &[2, 2], 1);
        let mut ok = DestinationBuffer::new(tile.clone(), 1);
        ok.write(&truth, DeviceId(1)).unwrap();
        let out = verify_destination(&[2, 2], [(DeviceId(1), ok)]).unwrap();
        assert_eq!(out[&1].data, truth.data);
        // Covered but with wrong contents: corrupted.
        let mut bad = DestinationBuffer::new(tile.clone(), 1);
        bad.write(
            &TileBuffer {
                tile: tile.clone(),
                elem_bytes: 1,
                data: Bytes::from(vec![9u8; 4]),
            },
            DeviceId(2),
        )
        .unwrap();
        let err = verify_destination(&[2, 2], [(DeviceId(2), bad)]).unwrap_err();
        match err {
            DataPlaneError::Corrupted { diff } => {
                assert_eq!(diff.device, DeviceId(2));
                assert_eq!(diff.offset, 0);
                assert_eq!(diff.linear_index, 0);
                assert_eq!(diff.expected, Some(0));
                assert_eq!(diff.actual, Some(9));
            }
            other => panic!("expected Corrupted, got {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn extract_outside_tile_panics() {
        let buf = TileBuffer::materialize(&Tile::new([0..2]), &[4], 1);
        let _ = buf.extract(&Tile::new([1..3]));
    }
}
