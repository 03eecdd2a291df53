//! Logical data plane: executes a plan on real buffers and verifies that
//! the destination mesh ends up with exactly the right data.
//!
//! The simulator (`crossmesh-netsim`) checks *timing*; this module checks
//! *placement*. Every tensor element is materialized as its linear index
//! (truncated to the element width), source devices hold their layout tiles
//! as byte buffers, the plan's unit tasks move sub-tiles, and the
//! destination tiles are reassembled and compared against ground truth.
//!
//! Bytes move a contiguous run at a time: a sub-tile of a row-major tile is
//! a handful of runs (`runs_in`; a whole tile, a block of full rows and any
//! rank-1 shard are one), so filling, landing and verifying cost one fill,
//! `copy_from_slice` or slice compare per run, and a piece goes from its
//! holder's buffer into the destination's in one copy.
//!
//! There is one delivery engine, [`deliver`]: it takes the destination
//! tiles and the unit tasks to move, grouped into lanes. One lane runs
//! inline on the calling thread — the sequential oracle; several lanes are
//! tasks on the current rayon pool, each landing its pieces under the
//! destination's lock, and no thread is started per call.
//! [`execute_and_verify`], the threaded runtime's `execute_plan` and the
//! MoE all-to-all executors only build the delivery list.

use crate::plan::{Assignment, Plan};
use crossmesh_check::TileDiff;
use crossmesh_hb as hb;
use crossmesh_mesh::{Layout, Tile, UnitTask};
use crossmesh_netsim::DeviceId;
use crossmesh_obs as obs;
use parking_lot::Mutex;
use rand::prelude::*;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

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
    /// A unit task names a receiver that owns no destination tile.
    NoDestination {
        /// The receiving device.
        device: DeviceId,
        /// The unit task that addresses it.
        unit: usize,
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
        /// The destination tile the element belongs to.
        tile: Tile,
        /// Row-major position of the conflicting element inside `tile`.
        offset: u64,
    },
    /// Every transmission attempt of a unit task was dropped by the
    /// [`DropRoll`], retries included.
    Dropped {
        /// The unit task whose slice was lost.
        unit: usize,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
}

impl fmt::Display for DataPlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPlaneError::SenderMissesSlice { device, slice } => {
                write!(f, "sender {device} does not hold slice {slice}")
            }
            DataPlaneError::NoDestination { device, unit } => {
                write!(
                    f,
                    "receiver {device} of unit {unit} has no destination tile"
                )
            }
            DataPlaneError::Uncovered { diff } => {
                write!(f, "destination never fully written: {diff}")
            }
            DataPlaneError::Corrupted { diff } => {
                write!(f, "destination holds wrong data: {diff}")
            }
            DataPlaneError::Conflict {
                device,
                tile,
                offset,
            } => {
                write!(
                    f,
                    "conflicting writes to element {offset} of {tile} on device {device}"
                )
            }
            DataPlaneError::Dropped { unit, attempts } => {
                write!(f, "slice of unit {unit} lost after {attempts} attempts")
            }
        }
    }
}

impl Error for DataPlaneError {}

/// The contiguous runs of `sub` inside `parent`'s row-major buffer, as
/// `(element offset, length)` in `sub`'s own row-major order. A run spans
/// the innermost dimension `sub` covers only partly and every (fully
/// covered) dimension inside it, so a whole tile, a block of full rows and
/// any rank-1 slice are one run, and no two runs touch.
fn runs_in(parent: &Tile, sub: &Tile) -> impl Iterator<Item = (usize, usize)> {
    debug_assert!(parent.contains(sub), "{sub} not contained in {parent}");
    // Innermost dimension first: the run grows while dimensions are fully
    // covered; the rest are walked by an odometer of (count, stride).
    let (mut len, mut stride, mut base, mut in_run) = (1, 1, 0, true);
    let mut walk = Vec::new();
    for d in (0..parent.rank()).rev() {
        let (p, s) = (parent.range(d), sub.range(d));
        let (extent, count) = ((p.end - p.start) as usize, (s.end - s.start) as usize);
        base += s.start.saturating_sub(p.start) as usize * stride;
        if in_run {
            len *= count;
            in_run = count == extent;
        } else {
            walk.push((count, stride));
        }
        stride *= extent;
    }
    let mut odometer = vec![0; walk.len()];
    let mut next = (!sub.is_empty()).then_some(base);
    std::iter::from_fn(move || {
        let offset = next.take()?;
        let mut at = offset;
        for (turned, &(count, stride)) in odometer.iter_mut().zip(&walk) {
            *turned += 1;
            at += stride;
            if *turned < count {
                next = Some(at);
                break;
            }
            at -= count * stride;
            *turned = 0;
        }
        Some((offset, len))
    })
}

/// Decodes one little-endian element of up to 8 bytes.
fn decode(elem: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw[..elem.len()].copy_from_slice(elem);
    u64::from_le_bytes(raw)
}

/// Writes ground truth for `len` consecutive elements — `first`,
/// `first + 1`, … each truncated to `width` bytes — at the front of `out`.
/// Every element is stored as a whole little-endian word whose high bytes
/// the next store overwrites, so `out` must run 8 bytes past the last one.
fn fill_truth(out: &mut [u8], first: u64, len: usize, width: usize) {
    for (i, value) in (first..).take(len).enumerate() {
        out[i * width..][..8].copy_from_slice(&value.to_le_bytes());
    }
}

/// A device-resident tile: the region it covers and its contents as a
/// row-major (within the tile) byte buffer of `elem_bytes`-wide elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileBuffer {
    /// The region of the full tensor this buffer covers.
    pub tile: Tile,
    /// Element width in bytes (1–8).
    pub elem_bytes: usize,
    /// `tile.volume() * elem_bytes` bytes, row-major within the tile.
    pub data: Vec<u8>,
}

impl TileBuffer {
    /// Materializes ground truth for `tile` of a tensor with `shape`:
    /// every element holds its linear index, truncated to the element
    /// width. A run of the tile inside the tensor counts up from the
    /// linear index of its first element.
    ///
    /// # Panics
    ///
    /// Panics if `elem_bytes` is 0 or exceeds 8.
    pub fn materialize(tile: &Tile, shape: &[u64], elem_bytes: usize) -> Self {
        assert!(
            (1..=8).contains(&elem_bytes),
            "element width must be 1-8 bytes"
        );
        let bytes = tile.volume() as usize * elem_bytes;
        let mut data = vec![0u8; bytes + 8];
        let mut at = 0;
        for (first, len) in runs_in(&Tile::full(shape), tile) {
            fill_truth(&mut data[at * elem_bytes..], first as u64, len, elem_bytes);
            at += len;
        }
        data.truncate(bytes);
        TileBuffer {
            tile: tile.clone(),
            elem_bytes,
            data,
        }
    }

    /// Decodes the element at the row-major position `i` within the tile.
    pub fn element(&self, i: usize) -> u64 {
        decode(&self.data[i * self.elem_bytes..(i + 1) * self.elem_bytes])
    }
}

/// One written-bit per element of a destination tile, in 64-bit words.
#[derive(Debug)]
struct Coverage(Vec<u64>);

impl Coverage {
    /// `(word, mask)` for every word holding bits of the non-empty `lo..hi`.
    fn words(lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> {
        (lo / 64..hi.div_ceil(64)).map(move |w| {
            let (from, to) = (lo.max(w * 64) - w * 64, hi.min(w * 64 + 64) - w * 64);
            (w, (u64::MAX >> (64 - (to - from))) << from)
        })
    }

    /// How many elements of `lo..hi` are written.
    fn count(&self, lo: usize, hi: usize) -> usize {
        let ones = |(w, mask): (usize, u64)| (self.0[w] & mask).count_ones() as usize;
        Self::words(lo, hi).map(ones).sum()
    }

    fn set(&mut self, lo: usize, hi: usize) {
        for (w, mask) in Self::words(lo, hi) {
            self.0[w] |= mask;
        }
    }

    /// The first unwritten element of the first `len`.
    fn first_unset(&self, len: usize) -> Option<usize> {
        let w = self.0.iter().position(|&word| word != u64::MAX)?;
        Some(w * 64 + self.0[w].trailing_ones() as usize).filter(|&i| i < len)
    }
}

/// Per-destination-device assembly buffer with coverage tracking: what
/// [`deliver`] lands pieces in and [`verify_destination`] checks.
#[derive(Debug)]
pub struct DestinationBuffer {
    tile: Tile,
    elem_bytes: usize,
    data: Vec<u8>,
    written: Coverage,
    /// Runs `write` landed that had bytes to copy, and the bytes copied.
    copy_runs: u64,
    copied_bytes: u64,
}

impl DestinationBuffer {
    /// An all-zero, nothing-written-yet buffer covering `tile`.
    pub fn new(tile: Tile, elem_bytes: usize) -> Self {
        let n = tile.volume() as usize;
        DestinationBuffer {
            tile,
            elem_bytes,
            data: vec![0; n * elem_bytes],
            written: Coverage(vec![0; n.div_ceil(64)]),
            copy_runs: 0,
            copied_bytes: 0,
        }
    }

    /// Writes `region` of `source` into the buffer without an intermediate
    /// piece: both buffers are walked a run at a time and every stretch
    /// contiguous in both lands at once. `device` only attributes errors.
    ///
    /// # Errors
    ///
    /// Returns [`DataPlaneError::Conflict`] if an element written twice
    /// disagrees with its earlier value.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not contained in both buffers' tiles.
    pub fn write(
        &mut self,
        source: &TileBuffer,
        region: &Tile,
        device: DeviceId,
    ) -> Result<(), DataPlaneError> {
        let (tile, width) = (&self.tile, self.elem_bytes);
        let inside = tile.contains(region) && source.tile.contains(region);
        assert!(inside, "piece {region} not contained in {tile} and source");
        let mut held = runs_in(&source.tile, region);
        let (mut from, mut left) = (0, 0);
        for (mut at, mut len) in runs_in(tile, region) {
            while len > 0 {
                if left == 0 {
                    (from, left) = held.next().expect("both walks cover the region");
                }
                let n = len.min(left);
                self.land_run(at, &source.data[from * width..(from + n) * width], device)?;
                (at, from, len, left) = (at + n, from + n, len - n, left - n);
            }
        }
        Ok(())
    }

    /// Lands one contiguous run at element `at`: an unwritten run is
    /// copied, a written one compared, and only a partly written or a
    /// disagreeing one is settled an element at a time.
    fn land_run(&mut self, at: usize, src: &[u8], device: DeviceId) -> Result<(), DataPlaneError> {
        let width = self.elem_bytes;
        let len = src.len() / width;
        let dst = &mut self.data[at * width..][..src.len()];
        let written = self.written.count(at, at + len);
        if written == 0 {
            dst.copy_from_slice(src);
        } else if written < len || dst != src {
            let elems = dst.chunks_exact_mut(width).zip(src.chunks_exact(width));
            for (i, (old, new)) in (at..).zip(elems) {
                if self.written.count(i, i + 1) == 0 {
                    old.copy_from_slice(new);
                    self.written.set(i, i + 1);
                } else if old != new {
                    return Err(DataPlaneError::Conflict {
                        device,
                        tile: self.tile.clone(),
                        offset: i as u64,
                    });
                }
            }
        }
        self.written.set(at, at + len);
        self.copy_runs += u64::from(written < len);
        self.copied_bytes += ((len - written) * width) as u64;
        Ok(())
    }
}

/// Elements of ground truth [`verify_destination`] holds at a time.
const TRUTH_CHUNK: usize = 4096;

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
/// to its linear index, truncated to the element width), generating and
/// comparing truth a chunk of a run at a time. Returns the final buffers
/// keyed by device id; empty tiles are skipped. This is the back half of
/// [`deliver`], and so of every executor built on it.
///
/// # Errors
///
/// Returns [`DataPlaneError::Uncovered`] for an element never written and
/// [`DataPlaneError::Corrupted`] for an element holding a wrong value.
pub fn verify_destination(
    shape: &[u64],
    buffers: impl IntoIterator<Item = (DeviceId, DestinationBuffer)>,
) -> Result<BTreeMap<u32, TileBuffer>, DataPlaneError> {
    let full = Tile::full(shape);
    let mut truth = vec![0u8; TRUTH_CHUNK * 8 + 8];
    let mut destination = BTreeMap::new();
    for (device, buf) in buffers.into_iter().filter(|(_, b)| !b.tile.is_empty()) {
        let width = buf.elem_bytes;
        // A hole anywhere outranks a wrong value anywhere.
        let hole = buf.written.first_unset(buf.tile.volume() as usize);
        let mut at = 0;
        for (first, len) in runs_in(&full, &buf.tile) {
            let bad = match hole {
                Some(hole) => (hole < at + len).then(|| hole - at),
                None => (0..len).step_by(TRUTH_CHUNK).find_map(|lo| {
                    let n = TRUTH_CHUNK.min(len - lo);
                    fill_truth(&mut truth, (first + lo) as u64, n, width);
                    let got = &buf.data[(at + lo) * width..][..n * width];
                    let mut elems = got.chunks_exact(width).zip(truth.chunks_exact(width));
                    (*got != truth[..n * width])
                        .then(|| lo + elems.position(|(g, t)| g != t).expect("differs"))
                }),
            };
            if let Some(bad) = bad {
                let lin = (first + bad) as u64;
                let got = &buf.data[(at + bad) * width..][..width];
                let diff = TileDiff {
                    device,
                    offset: (at + bad) as u64,
                    linear_index: lin,
                    expected: Some(decode(&lin.to_le_bytes()[..width])),
                    actual: hole.is_none().then(|| decode(got)),
                    tile: buf.tile,
                };
                return Err(match hole {
                    Some(_) => DataPlaneError::Uncovered { diff },
                    None => DataPlaneError::Corrupted { diff },
                });
            }
            at += len;
        }
        let tile = TileBuffer {
            tile: buf.tile,
            elem_bytes: width,
            data: buf.data,
        };
        destination.insert(device.0, tile);
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

/// Seeded transmission drops, the one drop rule of every execution path:
/// each delivery's attempts are rolled from a generator seeded by `seed`
/// and the delivery's id (unit index or flow task id) — never by lane
/// count or thread interleaving — so the outcome is identical at every
/// width.
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
    /// How many leading transmission attempts of delivery `id` are
    /// dropped: attempts are rolled while they drop, up to one past the
    /// retry budget (enough to exhaust it).
    pub fn drops(&self, id: u64) -> u32 {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x9e37_79b9u64.wrapping_add(id));
        let mut count = 0u32;
        while count <= self.max_retries && rng.gen_f64() < self.prob {
            count += 1;
        }
        count
    }
}

/// A destination device's assembly buffer behind its lock, which is also
/// its race-detector seam: the lock orders lanes landing in one tile and
/// every landing is a `write` on it, so one outside the lock would convict.
struct Inbox(Mutex<DestinationBuffer>);

impl Inbox {
    fn land(&self, src: &TileBuffer, part: &Tile, to: DeviceId) -> Result<(), DataPlaneError> {
        let mut buf = self.0.lock();
        hb::write(hb::object_id(&self.0));
        buf.write(src, part, to)
    }
}

/// Runs one lane's deliveries in order, landing every piece straight from
/// the buffer that holds it; returns the bytes handed over.
fn run_lane(
    shape: &[u64],
    elem_bytes: usize,
    lane: &[Delivery<'_>],
    drops: Option<DropRoll>,
    inboxes: &BTreeMap<DeviceId, Inbox>,
) -> Result<u64, DataPlaneError> {
    let mut held: BTreeMap<DeviceId, TileBuffer> = BTreeMap::new();
    let mut delivered = 0u64;
    for d in lane {
        if let Some(drops) = drops {
            let (unit, attempts) = (d.unit.index, drops.drops(d.unit.index as u64));
            if attempts > drops.max_retries {
                return Err(DataPlaneError::Dropped { unit, attempts });
            }
        }
        let slice = &d.unit.slice;
        let fresh;
        let source = match d.holder {
            Some((device, tile)) if !tile.contains(slice) => {
                return Err(DataPlaneError::SenderMissesSlice {
                    device,
                    slice: slice.to_string(),
                })
            }
            Some((device, tile)) => &*held
                .entry(device)
                .or_insert_with(|| TileBuffer::materialize(tile, shape, elem_bytes)),
            None => {
                fresh = TileBuffer::materialize(slice, shape, elem_bytes);
                &fresh
            }
        };
        for r in &d.unit.receivers {
            let (device, unit) = (r.device, d.unit.index);
            let inbox = inboxes.get(&device);
            inbox
                .ok_or(DataPlaneError::NoDestination { device, unit })?
                .land(source, slice, device)?;
            delivered += d.unit.bytes;
        }
    }
    Ok(delivered)
}

/// The delivery engine: moves every lane's unit tasks into per-device
/// [`DestinationBuffer`]s covering `destinations` and verifies the result
/// with [`verify_destination`].
///
/// A single lane runs inline, in order — the sequential oracle. Several
/// lanes are tasks on the current rayon pool; a task never waits for
/// another, it only holds a destination's lock for one copy. The report is
/// identical either way, and the first failing lane's error is returned.
/// Per destination the engine holds the tile's bytes and one coverage bit
/// per element; each lane also holds the tiles of the senders it plays.
///
/// # Errors
///
/// The first placement defect found (a sender asked to ship data it does
/// not hold, a receiver without a destination tile, an element never
/// delivered, a corrupted value, conflicting deliveries) and
/// [`DataPlaneError::Dropped`] when a slice exhausts its retry budget
/// under `drops`.
pub fn deliver(
    shape: &[u64],
    elem_bytes: usize,
    destinations: impl IntoIterator<Item = (DeviceId, Tile)>,
    lanes: &[Vec<Delivery<'_>>],
    drops: Option<DropRoll>,
) -> Result<DataPlaneReport, DataPlaneError> {
    let inboxes: BTreeMap<DeviceId, Inbox> = destinations
        .into_iter()
        .map(|(device, tile)| {
            let buf = DestinationBuffer::new(tile, elem_bytes);
            (device, Inbox(Mutex::new(buf)))
        })
        .collect();
    let lanes_done: Vec<_> = lanes
        .par_iter()
        .map(|lane| run_lane(shape, elem_bytes, lane, drops, &inboxes))
        .collect();
    let delivered_bytes = lanes_done.into_iter().sum::<Result<u64, _>>()?;

    let assembled: Vec<_> = inboxes
        .into_iter()
        .map(|(device, inbox)| (device, inbox.0.into_inner()))
        .collect();
    let (metrics, mut runs, mut bytes) = (obs::metrics(), 0, 0);
    for (_, buf) in &assembled {
        (runs, bytes) = (runs + buf.copy_runs, bytes + buf.copied_bytes);
    }
    metrics.counter("dataplane.copy_runs").add(runs);
    metrics.counter("dataplane.copied_bytes").add(bytes);
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
    let width = task.elem_bytes() as usize;
    deliver(shape, width, destinations, &lanes, None)
}

/// Executes `plan` sequentially, in plan order, on materialized buffers
/// and verifies every destination device ends up holding exactly its
/// layout tile of the tensor.
///
/// # Errors
///
/// Those of [`deliver`].
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
    use crossmesh_mesh::{DeviceMesh, Receiver};
    use crossmesh_netsim::{ClusterSpec, HostId, LinkParams};
    use proptest::prelude::*;

    // The per-element engine this module had before it moved runs, kept
    // verbatim as the reference the run-based one must match byte for byte.

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

    fn truncate(value: u64, elem_bytes: usize) -> u64 {
        if elem_bytes >= 8 {
            value
        } else {
            value & ((1u64 << (elem_bytes * 8)) - 1)
        }
    }

    fn oracle_materialize(tile: &Tile, shape: &[u64], elem_bytes: usize) -> TileBuffer {
        let mut data = Vec::with_capacity(tile.volume() as usize * elem_bytes);
        for idx in tile_indices(tile) {
            data.extend_from_slice(&linear_index(shape, &idx).to_le_bytes()[..elem_bytes]);
        }
        TileBuffer {
            tile: tile.clone(),
            elem_bytes,
            data,
        }
    }

    fn oracle_extract(buf: &TileBuffer, sub: &Tile) -> TileBuffer {
        let mut data = Vec::with_capacity(sub.volume() as usize * buf.elem_bytes);
        for off in offsets_in(&buf.tile, sub) {
            let byte = off * buf.elem_bytes;
            data.extend_from_slice(&buf.data[byte..byte + buf.elem_bytes]);
        }
        TileBuffer {
            tile: sub.clone(),
            elem_bytes: buf.elem_bytes,
            data,
        }
    }

    /// The old `DestinationBuffer`: a flag per element.
    struct OracleBuffer {
        tile: Tile,
        elem_bytes: usize,
        data: Vec<u8>,
        written: Vec<bool>,
    }

    impl OracleBuffer {
        fn new(tile: Tile, elem_bytes: usize) -> Self {
            let n = tile.volume() as usize;
            OracleBuffer {
                tile,
                elem_bytes,
                data: vec![0; n * elem_bytes],
                written: vec![false; n],
            }
        }

        /// The old `write`; a conflict reports the in-tile offset.
        fn write(&mut self, piece: &TileBuffer) -> Result<(), usize> {
            for (i, elem) in offsets_in(&self.tile, &piece.tile).enumerate() {
                let byte = elem * self.elem_bytes;
                let src = &piece.data[i * self.elem_bytes..(i + 1) * self.elem_bytes];
                if self.written[elem] {
                    if &self.data[byte..byte + self.elem_bytes] != src {
                        return Err(elem);
                    }
                } else {
                    self.data[byte..byte + self.elem_bytes].copy_from_slice(src);
                    self.written[elem] = true;
                }
            }
            Ok(())
        }

        /// The old `verify_destination` for one buffer.
        fn verify(self, shape: &[u64], device: DeviceId) -> Result<TileBuffer, DataPlaneError> {
            let (tile, elem_bytes) = (self.tile.clone(), self.elem_bytes);
            for (i, idx) in tile_indices(&tile).enumerate() {
                let lin = linear_index(shape, &idx);
                if !self.written[i] {
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
                data: self.data,
            };
            let want = oracle_materialize(&tile, shape, elem_bytes);
            if got.data != want.data {
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
            Ok(got)
        }
    }

    /// Per dimension: the tensor's extent and six one-byte draws that
    /// place a region, a holder tile and a destination tile around it.
    type Dim = (u64, u64);

    /// `region ⊆ holder ∩ dest` and `holder, dest ⊆ shape`; the region may
    /// be empty, ragged, or touch any face of either tile.
    fn nested_tiles(dims: &[Dim]) -> (Vec<u64>, Tile, Tile, Tile) {
        let grow = |lo: u64, hi: u64, n: u64, by: (u8, u8)| {
            lo - u64::from(by.0) % (lo + 1)..hi + u64::from(by.1) % (n - hi + 1)
        };
        let mut tiles = [Vec::new(), Vec::new(), Vec::new()];
        for &(n, draws) in dims {
            let p = draws.to_le_bytes();
            let (a, b) = (u64::from(p[0]) % (n + 1), u64::from(p[1]) % (n + 1));
            let (lo, hi) = (a.min(b), a.max(b));
            tiles[0].push(lo..hi);
            tiles[1].push(grow(lo, hi, n, (p[2], p[3])));
            tiles[2].push(grow(lo, hi, n, (p[4], p[5])));
        }
        let [region, holder, dest] = tiles.map(Tile::new);
        (dims.iter().map(|d| d.0).collect(), region, holder, dest)
    }

    fn assert_same_buffer(new: &DestinationBuffer, old: &OracleBuffer) {
        assert_eq!(new.data, old.data);
        for (i, &flag) in old.written.iter().enumerate() {
            assert_eq!(new.written.count(i, i + 1) == 1, flag, "coverage bit {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `runs_in` against the per-element walk: same offsets in the same
        /// order, and no two runs touch (so none could be merged).
        #[test]
        fn runs_concatenate_to_the_per_element_offsets(
            dims in prop::collection::vec((1u64..=5, any::<u64>()), 0..=4),
        ) {
            let (shape, region, holder, _) = nested_tiles(&dims);
            for parent in [&holder, &Tile::full(&shape), &region] {
                let runs: Vec<_> = runs_in(parent, &region).collect();
                let flat: Vec<usize> = runs.iter().flat_map(|&(at, len)| at..at + len).collect();
                prop_assert_eq!(flat, offsets_in(parent, &region).collect::<Vec<_>>());
                prop_assert!(runs.iter().all(|&(_, len)| len > 0));
                prop_assert!(
                    runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
                    "runs touch: {:?}", runs
                );
            }
            if !region.is_empty() {
                prop_assert_eq!(runs_in(&region, &region).count(), 1, "a whole tile is one run");
            }
        }

        /// `materialize`, `write` (of whole pieces and of a region straight
        /// from its holder, where the old engine extracted a piece first)
        /// and `verify_destination` against the per-element versions: same
        /// bytes, same coverage, same verdict.
        #[test]
        fn run_based_buffers_match_the_per_element_ones(
            dims in prop::collection::vec((1u64..=5, any::<u64>()), 0..=4),
            elem_bytes in 1usize..=8,
            flip in prop::option::of(any::<u64>()),
            fill in any::<bool>(),
        ) {
            let (shape, region, holder, dest) = nested_tiles(&dims);
            let device = DeviceId(3);
            let held = TileBuffer::materialize(&holder, &shape, elem_bytes);
            prop_assert_eq!(&held, &oracle_materialize(&holder, &shape, elem_bytes));
            let piece = oracle_extract(&held, &region);

            let mut new = DestinationBuffer::new(dest.clone(), elem_bytes);
            let mut old = OracleBuffer::new(dest.clone(), elem_bytes);
            new.write(&held, &region, device).unwrap();
            old.write(&piece).unwrap();
            assert_same_buffer(&new, &old);

            // Everything holder and destination share, over what is there
            // already (written, unwritten and mixed runs), optionally with
            // one byte flipped: a conflict where it was written, a
            // corruption where it was not.
            if let Some(shared) = holder.intersect(&dest) {
                let mut again = oracle_extract(&held, &shared);
                if let Some(flip) = flip {
                    let at = flip as usize % again.data.len();
                    again.data[at] ^= 0x5a;
                }
                let conflict = |offset| DataPlaneError::Conflict {
                    device,
                    tile: dest.clone(),
                    offset: offset as u64,
                };
                prop_assert_eq!(new.write(&again, &again.tile, device), old.write(&again).map_err(conflict));
                assert_same_buffer(&new, &old);
            }
            if fill {
                let truth = oracle_materialize(&dest, &shape, elem_bytes);
                prop_assert_eq!(
                    new.write(&truth, &truth.tile, device).is_ok(),
                    old.write(&truth).is_ok()
                );
                assert_same_buffer(&new, &old);
            }
            let verdict = verify_destination(&shape, [(device, new)]);
            match old.verify(&shape, device) {
                _ if dest.is_empty() => prop_assert_eq!(verdict, Ok(BTreeMap::new())),
                Ok(tile) => prop_assert_eq!(verdict, Ok(BTreeMap::from([(device.0, tile)]))),
                Err(e) => prop_assert_eq!(verdict, Err(e)),
            }
        }
    }

    #[test]
    fn runs_coalesce_fully_covered_trailing_dimensions() {
        let parent = Tile::new([0..4, 0..6, 0..8]);
        let runs = |sub: Tile| runs_in(&parent, &sub).collect::<Vec<_>>();
        assert_eq!(runs(parent.clone()), [(0, 192)]);
        // Full rows and planes: dims 1 and 2 are covered, dim 0 is not.
        assert_eq!(runs(Tile::new([1..3, 0..6, 0..8])), [(48, 96)]);
        // Dim 1 partly covered: one run per index of dim 0.
        assert_eq!(runs(Tile::new([1..3, 2..5, 0..8])), [(64, 24), (112, 24)]);
        // Innermost dim partly covered: one run per row.
        assert_eq!(
            runs(Tile::new([3..4, 4..6, 1..3])),
            [(144 + 32 + 1, 2), (144 + 40 + 1, 2)]
        );
        assert_eq!(runs(Tile::new([1..1, 0..6, 0..8])), []);
        // Rank 1 (every MoE shard) and rank 0.
        assert_eq!(
            runs_in(&Tile::new([10..50]), &Tile::new([20..30])).collect::<Vec<_>>(),
            [(10, 10)]
        );
        assert_eq!(
            runs_in(&Tile::new([]), &Tile::new([])).collect::<Vec<_>>(),
            [(0, 1)]
        );
    }

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

    /// `region` of `source` as a receiver needing exactly that ends up with
    /// it: landed in a buffer of that tile and verified.
    fn landed(source: &TileBuffer, region: &Tile, shape: &[u64]) -> TileBuffer {
        let mut buf = DestinationBuffer::new(region.clone(), source.elem_bytes);
        buf.write(source, region, DeviceId(0)).unwrap();
        let mut verified = verify_destination(shape, [(DeviceId(0), buf)]).unwrap();
        verified.remove(&0).unwrap()
    }

    #[test]
    fn materialize_and_write_round_trip() {
        let full = Tile::new([0..4, 0..4]);
        let buf = TileBuffer::materialize(&full, &[4, 4], 2);
        assert_eq!(buf.element(0), 0);
        assert_eq!(buf.element(5), 5);
        let sub = landed(&buf, &Tile::new([1..3, 2..4]), &[4, 4]);
        // Element (1,2) of a 4x4 tensor has linear index 6.
        assert_eq!(sub.element(0), 6);
        assert_eq!(sub.element(3), 11);
    }

    #[test]
    fn writing_from_offset_tiles() {
        let tile = Tile::new([2..6, 4..8]);
        let buf = TileBuffer::materialize(&tile, &[8, 8], 4);
        let sub = landed(&buf, &Tile::new([3..4, 5..7]), &[8, 8]);
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
        ok.write(&truth, &tile, DeviceId(1)).unwrap();
        let out = verify_destination(&[2, 2], [(DeviceId(1), ok)]).unwrap();
        assert_eq!(out[&1].data, truth.data);
        // Covered but with wrong contents: corrupted.
        let mut bad = DestinationBuffer::new(tile.clone(), 1);
        let nines = TileBuffer {
            tile: tile.clone(),
            elem_bytes: 1,
            data: vec![9u8; 4],
        };
        bad.write(&nines, &tile, DeviceId(2)).unwrap();
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
        // One long run, wrong past the first two chunks of generated
        // truth; a hole further on outranks it.
        let (n, bad) = (3 * TRUTH_CHUNK as u64, 2 * TRUTH_CHUNK + 7);
        let row = Tile::new([100..100 + n]);
        let mut bytes = TileBuffer::materialize(&row, &[2 * n], 2).data;
        bytes[2 * bad + 1] ^= 1;
        let piece = TileBuffer {
            tile: row.clone(),
            elem_bytes: 2,
            data: bytes,
        };
        let mut long = DestinationBuffer::new(row.clone(), 2);
        long.write(&piece, &row, DeviceId(3)).unwrap();
        let lin = 100 + bad as u64;
        let diff = TileDiff {
            device: DeviceId(3),
            tile: row.clone(),
            offset: bad as u64,
            linear_index: lin,
            expected: Some(lin),
            actual: Some(lin ^ 0x100),
        };
        let err = verify_destination(&[2 * n], [(DeviceId(3), long)]).unwrap_err();
        assert_eq!(err, DataPlaneError::Corrupted { diff });
        let mut holed = DestinationBuffer::new(row.clone(), 2);
        holed
            .write(&piece, &Tile::new([100..99 + n]), DeviceId(3))
            .unwrap();
        match verify_destination(&[2 * n], [(DeviceId(3), holed)]).unwrap_err() {
            DataPlaneError::Uncovered { diff } => assert_eq!(diff.offset, n - 1),
            other => panic!("expected Uncovered, got {other}"),
        }
    }

    /// Two pieces that disagree on one element of a tile away from the
    /// origin: the conflict names the tile and the element's place in it,
    /// which is neither its linear index nor its place in the piece.
    #[test]
    fn conflict_names_the_tile_and_the_offset_inside_it() {
        let shape = [8, 8];
        let tile = Tile::new([4..8, 2..6]);
        let mut buf = DestinationBuffer::new(tile.clone(), 2);
        let rows = TileBuffer::materialize(&Tile::new([5..7, 2..6]), &shape, 2);
        buf.write(&rows, &rows.tile, DeviceId(9)).unwrap();
        // Agreeing rewrites are fine, whole or in part.
        buf.write(&rows, &rows.tile, DeviceId(9)).unwrap();
        buf.write(&rows, &Tile::new([6..7, 3..5]), DeviceId(9))
            .unwrap();
        // A column crossing unwritten row 4 and written rows 5 and 6,
        // wrong at (6, 3): tile row 2, column 1.
        let column = Tile::new([4..7, 3..4]);
        let mut bytes = TileBuffer::materialize(&column, &shape, 2).data;
        bytes[2 * 2] ^= 0xff;
        let piece = TileBuffer {
            tile: column,
            elem_bytes: 2,
            data: bytes,
        };
        let err = buf.write(&piece, &piece.tile, DeviceId(9)).unwrap_err();
        let want = DataPlaneError::Conflict {
            device: DeviceId(9),
            tile,
            offset: 2 * 4 + 1,
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains("element 9 of ["), "{err}");
    }

    /// A unit task addressed to a device with no destination tile is a
    /// typed error naming both, inline and on the pool.
    #[test]
    fn receiver_without_a_destination_tile_is_an_error() {
        let slice = Tile::new([0..4]);
        let unit = |index: usize, device: u32| UnitTask {
            index,
            slice: slice.clone(),
            bytes: 4,
            senders: vec![(DeviceId(0), HostId(0))],
            receivers: vec![Receiver {
                device: DeviceId(device),
                host: HostId(1),
            }],
        };
        let units = [unit(0, 1), unit(1, 1), unit(2, 7)];
        let deliveries: Vec<Delivery<'_>> = units
            .iter()
            .map(|unit| Delivery { unit, holder: None })
            .collect();
        for lanes in [1, 3] {
            let dealt: Vec<Vec<_>> = (0..lanes)
                .map(|w| deliveries.iter().skip(w).step_by(lanes).copied().collect())
                .collect();
            let err = deliver(&[4], 1, [(DeviceId(1), slice.clone())], &dealt, None).unwrap_err();
            let want = DataPlaneError::NoDestination {
                device: DeviceId(7),
                unit: 2,
            };
            assert_eq!(err, want, "{lanes} lanes");
        }
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn write_outside_the_source_tile_panics() {
        let buf = TileBuffer::materialize(&Tile::new([0..2]), &[4], 1);
        let _ = landed(&buf, &Tile::new([1..3]), &[4]);
    }
}
