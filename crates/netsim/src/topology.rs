//! Cluster topology: hosts, devices, and link parameters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a compute device (e.g., a GPU), global across the cluster.
///
/// Devices are numbered host by host: host 0 owns devices `0..d0`, host 1
/// owns `d0..d0+d1`, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

/// Identifier of a host (a machine holding one or more devices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl From<u32> for DeviceId {
    fn from(v: u32) -> Self {
        DeviceId(v)
    }
}

impl From<u32> for HostId {
    fn from(v: u32) -> Self {
        HostId(v)
    }
}

/// Bandwidth and latency parameters of a homogeneous cluster.
///
/// Bandwidths are in bytes per second, latencies in seconds. Links are
/// full duplex: sending and receiving draw on separate capacities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Per-device intra-host send bandwidth (NVLink-class), bytes/s.
    pub intra_host_bw: f64,
    /// Per-host NIC bandwidth for inter-host traffic, bytes/s (each
    /// direction; the host is the bottleneck, per the paper's §3 setting).
    pub inter_host_bw: f64,
    /// Fixed latency added to every intra-host flow, seconds.
    pub intra_host_latency: f64,
    /// Fixed latency added to every inter-host flow, seconds.
    pub inter_host_latency: f64,
}

impl LinkParams {
    /// Creates link parameters with the given intra-host and inter-host
    /// bandwidths (bytes/s) and small default latencies (5 µs intra-host,
    /// 25 µs inter-host).
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not strictly positive and finite.
    pub fn new(intra_host_bw: f64, inter_host_bw: f64) -> Self {
        LinkParams {
            intra_host_bw,
            inter_host_bw,
            intra_host_latency: 5e-6,
            inter_host_latency: 25e-6,
        }
        .checked()
    }

    /// Returns a copy with both latencies (seconds) overridden.
    ///
    /// # Panics
    ///
    /// Panics if either latency is negative or not finite.
    #[must_use]
    pub fn with_latencies(mut self, intra: f64, inter: f64) -> Self {
        self.intra_host_latency = intra;
        self.inter_host_latency = inter;
        self.checked()
    }

    /// `self`, once both bandwidths are positive and finite and both
    /// latencies finite and non-negative.
    fn checked(self) -> Self {
        for (what, bw) in [("intra", self.intra_host_bw), ("inter", self.inter_host_bw)] {
            assert!(
                bw > 0.0 && bw.is_finite(),
                "{what}-host bandwidth must be positive and finite"
            );
        }
        for latency in [self.intra_host_latency, self.inter_host_latency] {
            assert!(
                latency >= 0.0 && latency.is_finite(),
                "link latency {latency} must be non-negative and finite"
            );
        }
        self
    }
}

/// The modeled inter-host fabric: how cross-host flows are routed and which
/// shared capacities they contend on, beyond each host's NIC.
///
/// The paper assumes a flat full-bisection network bottlenecked at the host
/// NIC ([`FabricModel::Flat`] with no aggregate cap). The other variants
/// model the multi-tier topologies MoE all-to-all traffic actually crosses:
/// rail-optimized clusters (one NIC per device, K parallel rail switches),
/// two-level fat trees with an oversubscribed core, and 2D host tori.
///
/// Every variant maps each cross-host flow onto a fixed set of capacity
/// slots that the engine's max–min fair sharing contends over; intra-host
/// flows never touch the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FabricModel {
    /// Flat two-tier fabric: every host pair connected at NIC bandwidth.
    /// `capacity` optionally caps the *sum* of all concurrent cross-host
    /// traffic (an oversubscribed core); `None` is the paper's
    /// full-bisection assumption — capacity checks are vacuous.
    Flat {
        /// Aggregate cross-host capacity, bytes/s; `None` = full bisection.
        capacity: Option<f64>,
    },
    /// Rail-optimized fabric: `rails` parallel switch planes ("rails"), with
    /// the device at local index `l` owning a dedicated NIC on rail
    /// `l % rails`. Each (host, rail) NIC runs at the host's
    /// `inter_host_bw`, so a host's aggregate egress is `rails ×` the flat
    /// fabric's. Same-rail flows stay on one switch; cross-rail flows also
    /// cross a shared spine of `spine_capacity` bytes/s — which is why
    /// rail-aligned spraying (RailS) wins here.
    RailOptimized {
        /// Number of rail planes (NICs per host).
        rails: u32,
        /// Capacity of the spine connecting different rails, bytes/s.
        spine_capacity: f64,
    },
    /// Two-level fat tree: hosts grouped into pods of `pod_hosts` leaves.
    /// Intra-pod traffic switches at the non-blocking leaf; cross-pod
    /// traffic shares each pod's uplink, provisioned at the pod's summed
    /// NIC bandwidth divided by `oversubscription`.
    FatTree {
        /// Hosts per pod (last pod may be smaller).
        pod_hosts: u32,
        /// Core oversubscription factor (≥ 1; 1 = full bisection core).
        oversubscription: f64,
    },
    /// 2D torus of hosts (`rows × cols`, row-major host numbering) with
    /// per-direction link capacity `link_capacity` on every edge. Flows are
    /// routed dimension-ordered (columns first, shortest wrap direction,
    /// ties broken toward +x/+y) and charge every directed edge they
    /// traverse, so transit traffic congests intermediate links.
    Torus2D {
        /// Number of host rows.
        rows: u32,
        /// Number of host columns.
        cols: u32,
        /// Per-direction capacity of each torus edge, bytes/s.
        link_capacity: f64,
    },
}

impl Default for FabricModel {
    /// The paper's flat full-bisection fabric.
    fn default() -> Self {
        FabricModel::Flat { capacity: None }
    }
}

impl fmt::Display for FabricModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricModel::Flat { capacity: None } => write!(f, "flat/full-bisection"),
            FabricModel::Flat { capacity: Some(c) } => write!(f, "flat/core={c:.3e} B/s"),
            FabricModel::RailOptimized {
                rails,
                spine_capacity,
            } => write!(f, "rails(k={rails}, spine={spine_capacity:.3e} B/s)"),
            FabricModel::FatTree {
                pod_hosts,
                oversubscription,
            } => write!(
                f,
                "fat-tree(pod={pod_hosts} hosts, oversub={oversubscription}x)"
            ),
            FabricModel::Torus2D {
                rows,
                cols,
                link_capacity,
            } => write!(f, "torus2d({rows}x{cols}, link={link_capacity:.3e} B/s)"),
        }
    }
}

impl FabricModel {
    /// True when the fabric imposes no cross-host capacity beyond the host
    /// NICs — any aggregate-capacity sanity check is vacuously satisfied.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, FabricModel::Flat { capacity: None })
    }

    /// The number of rail planes, for rail-optimized fabrics.
    pub fn rails(&self) -> Option<u32> {
        match self {
            FabricModel::RailOptimized { rails, .. } => Some(*rails),
            _ => None,
        }
    }
}

/// Per-host description: device count, link parameters, and compute rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Number of devices attached to this host.
    pub devices: u32,
    /// Link parameters used by flows touching this host.
    pub links: LinkParams,
    /// Peak compute rate of each device, FLOP/s. Used to convert
    /// [`Work::compute_flops`](crate::Work::compute_flops) tasks to time.
    pub device_flops: f64,
}

/// A cluster: an ordered list of hosts, each with a set of devices.
///
/// The inter-host topology is fully connected with equal pairwise bandwidth,
/// bottlenecked at each host's NIC (the common cloud/datacenter setting the
/// paper assumes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    hosts: Vec<HostSpec>,
    /// `device_host[d]` is the host owning global device `d`.
    device_host: Vec<HostId>,
    /// `host_base[h]` is the global id of host `h`'s first device.
    host_base: Vec<u32>,
    /// The modeled inter-host fabric (see [`FabricModel`]).
    fabric: FabricModel,
}

impl ClusterSpec {
    /// Builds a cluster from per-host specs.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty or a host has no device, a FLOP/s rate
    /// that is not positive and finite, or links [`LinkParams`] refuses.
    pub fn new(hosts: Vec<HostSpec>) -> Self {
        assert!(!hosts.is_empty(), "cluster must have at least one host");
        let mut device_host = Vec::new();
        let mut host_base = Vec::with_capacity(hosts.len());
        for (h, spec) in hosts.iter().enumerate() {
            assert!(spec.devices > 0, "host {h} must have at least one device");
            assert!(
                spec.device_flops > 0.0 && spec.device_flops.is_finite(),
                "host {h}: device FLOP/s must be positive and finite"
            );
            spec.links.checked();
            host_base.push(device_host.len() as u32);
            for _ in 0..spec.devices {
                device_host.push(HostId(h as u32));
            }
        }
        ClusterSpec {
            hosts,
            device_host,
            host_base,
            fabric: FabricModel::default(),
        }
    }

    /// Builds a homogeneous cluster: `n_hosts` hosts with `devices_per_host`
    /// devices each, all sharing `links`, with a default compute rate of
    /// 100 TFLOP/s per device (override with [`ClusterSpec::with_device_flops`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_hosts` or `devices_per_host` is zero.
    pub fn homogeneous(n_hosts: u32, devices_per_host: u32, links: LinkParams) -> Self {
        let host = HostSpec {
            devices: devices_per_host,
            links,
            device_flops: 100e12,
        };
        ClusterSpec::new(vec![host; n_hosts as usize])
    }

    /// Returns a copy with every device's compute rate set to `flops` FLOP/s.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is not strictly positive and finite.
    #[must_use]
    pub fn with_device_flops(mut self, flops: f64) -> Self {
        assert!(
            flops > 0.0 && flops.is_finite(),
            "device FLOP/s must be positive and finite"
        );
        for h in &mut self.hosts {
            h.device_flops = flops;
        }
        self
    }

    /// Returns a copy whose inter-host fabric is oversubscribed: the sum
    /// of all concurrent cross-host traffic is capped at `bytes_per_sec`
    /// (an extension beyond the paper's full-bisection assumption, for
    /// studying congested datacenter cores).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    #[must_use]
    pub fn with_fabric_capacity(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "fabric capacity must be positive and finite"
        );
        self.fabric = FabricModel::Flat {
            capacity: Some(bytes_per_sec),
        };
        self
    }

    /// Returns a copy with the inter-host fabric replaced by `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if the fabric is inconsistent with the cluster: zero rails or
    /// a non-positive spine/link capacity, an oversubscription factor below
    /// one, zero-host pods, or a torus whose `rows × cols` does not equal
    /// the host count.
    #[must_use]
    pub fn with_fabric(mut self, fabric: FabricModel) -> Self {
        match fabric {
            FabricModel::Flat { capacity } => {
                if let Some(c) = capacity {
                    assert!(
                        c > 0.0 && c.is_finite(),
                        "fabric capacity must be positive and finite"
                    );
                }
            }
            FabricModel::RailOptimized {
                rails,
                spine_capacity,
            } => {
                assert!(rails > 0, "a rail-optimized fabric needs at least one rail");
                assert!(
                    spine_capacity > 0.0 && spine_capacity.is_finite(),
                    "spine capacity must be positive and finite"
                );
            }
            FabricModel::FatTree {
                pod_hosts,
                oversubscription,
            } => {
                assert!(pod_hosts > 0, "a fat-tree pod needs at least one host");
                assert!(
                    oversubscription >= 1.0 && oversubscription.is_finite(),
                    "oversubscription factor must be >= 1"
                );
            }
            FabricModel::Torus2D {
                rows,
                cols,
                link_capacity,
            } => {
                assert!(
                    rows as usize * cols as usize == self.hosts.len(),
                    "torus is {rows}x{cols} but the cluster has {} hosts",
                    self.hosts.len()
                );
                assert!(
                    link_capacity > 0.0 && link_capacity.is_finite(),
                    "torus link capacity must be positive and finite"
                );
            }
        }
        self.fabric = fabric;
        self
    }

    /// The modeled inter-host fabric.
    pub fn fabric(&self) -> &FabricModel {
        &self.fabric
    }

    /// The local index of `device` on its host (its position among the
    /// host's devices).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn local_index(&self, device: DeviceId) -> u32 {
        let host = self.host_of(device);
        device.0 - self.host_base[host.0 as usize]
    }

    /// Capacities of the fabric resource slots the engine appends after the
    /// per-device and per-host-NIC slots. Empty for an unbounded flat
    /// fabric. Slots are finite by construction.
    pub(crate) fn fabric_slot_capacities(&self) -> Vec<f64> {
        match self.fabric {
            FabricModel::Flat { capacity: None } => Vec::new(),
            FabricModel::Flat { capacity: Some(c) } => vec![c],
            FabricModel::RailOptimized {
                rails,
                spine_capacity,
            } => {
                // [per-(host,rail) send ×H·K][per-(host,rail) recv ×H·K][spine].
                let mut slots = Vec::with_capacity(2 * self.hosts.len() * rails as usize + 1);
                for direction in 0..2 {
                    let _ = direction;
                    for host in &self.hosts {
                        for _ in 0..rails {
                            slots.push(host.links.inter_host_bw);
                        }
                    }
                }
                slots.push(spine_capacity);
                slots
            }
            FabricModel::FatTree {
                pod_hosts,
                oversubscription,
            } => {
                // [per-pod uplink ×P][per-pod downlink ×P]; each pod's link
                // is its summed NIC bandwidth divided by the oversubscription.
                let pods = self.hosts.chunks(pod_hosts as usize);
                let caps: Vec<f64> = pods
                    .map(|pod| {
                        pod.iter().map(|h| h.links.inter_host_bw).sum::<f64>() / oversubscription
                    })
                    .collect();
                let mut slots = caps.clone();
                slots.extend(caps);
                slots
            }
            FabricModel::Torus2D { link_capacity, .. } => {
                // 4 directed edges per host: +x (east), -x (west), +y
                // (south), -y (north).
                vec![link_capacity; self.hosts.len() * 4]
            }
        }
    }

    /// Appends (to `out`) the absolute resource indices a cross-host flow
    /// `src → dst` occupies in the fabric, where `base` is the index of the
    /// first fabric slot. Must mirror [`fabric_slot_capacities`]'s layout.
    pub(crate) fn fabric_route(
        &self,
        src: DeviceId,
        dst: DeviceId,
        base: usize,
        out: &mut Vec<usize>,
    ) {
        let src_host = self.host_of(src).0 as usize;
        let dst_host = self.host_of(dst).0 as usize;
        match self.fabric {
            FabricModel::Flat { capacity: None } => {}
            FabricModel::Flat { capacity: Some(_) } => out.push(base),
            FabricModel::RailOptimized { rails, .. } => {
                let k = rails as usize;
                let h = self.hosts.len();
                let src_rail = (self.local_index(src) % rails) as usize;
                let dst_rail = (self.local_index(dst) % rails) as usize;
                out.push(base + src_host * k + src_rail);
                out.push(base + h * k + dst_host * k + dst_rail);
                if src_rail != dst_rail {
                    out.push(base + 2 * h * k);
                }
            }
            FabricModel::FatTree { pod_hosts, .. } => {
                let src_pod = src_host / pod_hosts as usize;
                let dst_pod = dst_host / pod_hosts as usize;
                if src_pod != dst_pod {
                    let pods = self.hosts.len().div_ceil(pod_hosts as usize);
                    out.push(base + src_pod);
                    out.push(base + pods + dst_pod);
                }
            }
            FabricModel::Torus2D { rows, cols, .. } => {
                torus_route(src_host, dst_host, rows as usize, cols as usize, base, out);
            }
        }
    }

    /// The full engine resource-capacity table for this cluster, in the
    /// canonical slot layout shared by both simulator engines:
    /// `[device send ×D][device recv ×D][host NIC send ×H][host NIC recv
    /// ×H][fabric slots…]`. Device slots carry the host's intra-host
    /// bandwidth; NIC slots carry the inter-host bandwidth times
    /// [`host_nic_multiplier`](Self::host_nic_multiplier); fabric slots
    /// follow [`fabric_slot_capacities`](Self::fabric_slot_capacities).
    pub(crate) fn resource_capacities(&self) -> Vec<f64> {
        let d = self.num_devices() as usize;
        let h = self.num_hosts() as usize;
        let fabric = self.fabric_slot_capacities();
        let mut capacities = vec![0.0; 2 * d + 2 * h];
        for dev in 0..d {
            let host = self.host_of(DeviceId(dev as u32));
            let bw = self.host(host).links.intra_host_bw;
            capacities[dev] = bw; // device send
            capacities[d + dev] = bw; // device recv
        }
        let nic_mult = self.host_nic_multiplier();
        for host in 0..h {
            let bw = self.host(HostId(host as u32)).links.inter_host_bw * nic_mult;
            capacities[2 * d + host] = bw; // host send
            capacities[2 * d + h + host] = bw; // host recv
        }
        capacities.extend(fabric);
        capacities
    }

    /// Factor applied to each host's NIC send/recv capacity: a
    /// rail-optimized host has one NIC per rail, so its aggregate egress is
    /// `rails ×` the flat fabric's.
    pub(crate) fn host_nic_multiplier(&self) -> f64 {
        match self.fabric {
            FabricModel::RailOptimized { rails, .. } => f64::from(rails),
            _ => 1.0,
        }
    }

    /// Total number of devices in the cluster.
    pub fn num_devices(&self) -> u32 {
        self.device_host.len() as u32
    }

    /// Number of hosts in the cluster.
    pub fn num_hosts(&self) -> u32 {
        self.hosts.len() as u32
    }

    /// The host that owns `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn host_of(&self, device: DeviceId) -> HostId {
        self.device_host[device.0 as usize]
    }

    /// The global id of the `local`-th device on host `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` or `local` is out of range.
    pub fn device(&self, host: u32, local: u32) -> DeviceId {
        let spec = &self.hosts[host as usize];
        assert!(
            local < spec.devices,
            "host {host} has {} devices, asked for local index {local}",
            spec.devices
        );
        DeviceId(self.host_base[host as usize] + local)
    }

    /// All global device ids on `host`, in order.
    pub fn devices_on(&self, host: HostId) -> impl Iterator<Item = DeviceId> + '_ {
        let base = self.host_base[host.0 as usize];
        let n = self.hosts[host.0 as usize].devices;
        (base..base + n).map(DeviceId)
    }

    /// The spec of `host`.
    pub fn host(&self, host: HostId) -> &HostSpec {
        &self.hosts[host.0 as usize]
    }

    /// Whether both devices sit on the same host.
    pub fn same_host(&self, a: DeviceId, b: DeviceId) -> bool {
        self.host_of(a) == self.host_of(b)
    }

    /// True if `device` is a valid id for this cluster.
    pub fn contains(&self, device: DeviceId) -> bool {
        (device.0 as usize) < self.device_host.len()
    }
}

impl fmt::Display for ClusterSpec {
    /// One-line topology summary naming the modeled fabric explicitly, so
    /// an unbounded fabric is a visible statement rather than a silent
    /// default.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hosts / {} devices, fabric {}",
            self.num_hosts(),
            self.num_devices(),
            self.fabric
        )
    }
}

/// Dimension-ordered torus routing: walks columns first, then rows, taking
/// the shortest wrap direction (ties toward +x/+y), pushing each traversed
/// directed edge's slot index. Edge slots per host: `host*4 + dir` with
/// dirs 0 = east (+col), 1 = west, 2 = south (+row), 3 = north.
fn torus_route(
    src_host: usize,
    dst_host: usize,
    rows: usize,
    cols: usize,
    base: usize,
    out: &mut Vec<usize>,
) {
    let (mut r, mut c) = (src_host / cols, src_host % cols);
    let (dst_r, dst_c) = (dst_host / cols, dst_host % cols);
    while c != dst_c {
        let east = (dst_c + cols - c) % cols;
        let west = (c + cols - dst_c) % cols;
        let host = r * cols + c;
        if east <= west {
            out.push(base + host * 4);
            c = (c + 1) % cols;
        } else {
            out.push(base + host * 4 + 1);
            c = (c + cols - 1) % cols;
        }
    }
    while r != dst_r {
        let south = (dst_r + rows - r) % rows;
        let north = (r + rows - dst_r) % rows;
        let host = r * cols + c;
        if south <= north {
            out.push(base + host * 4 + 2);
            r = (r + 1) % rows;
        } else {
            out.push(base + host * 4 + 3);
            r = (r + rows - 1) % rows;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(3, 4, LinkParams::new(100e9, 1.25e9))
    }

    #[test]
    fn device_numbering_is_host_major() {
        let c = cluster();
        assert_eq!(c.num_devices(), 12);
        assert_eq!(c.num_hosts(), 3);
        assert_eq!(c.device(0, 0), DeviceId(0));
        assert_eq!(c.device(1, 0), DeviceId(4));
        assert_eq!(c.device(2, 3), DeviceId(11));
    }

    #[test]
    fn host_of_inverts_device() {
        let c = cluster();
        for h in 0..3 {
            for l in 0..4 {
                assert_eq!(c.host_of(c.device(h, l)), HostId(h));
            }
        }
    }

    #[test]
    fn devices_on_lists_local_devices() {
        let c = cluster();
        let on1: Vec<_> = c.devices_on(HostId(1)).collect();
        assert_eq!(
            on1,
            vec![DeviceId(4), DeviceId(5), DeviceId(6), DeviceId(7)]
        );
    }

    #[test]
    fn same_host_checks() {
        let c = cluster();
        assert!(c.same_host(DeviceId(0), DeviceId(3)));
        assert!(!c.same_host(DeviceId(3), DeviceId(4)));
    }

    #[test]
    fn heterogeneous_hosts() {
        let links = LinkParams::new(10e9, 1e9);
        let c = ClusterSpec::new(vec![
            HostSpec {
                devices: 1,
                links,
                device_flops: 1e12,
            },
            HostSpec {
                devices: 3,
                links,
                device_flops: 2e12,
            },
        ]);
        assert_eq!(c.num_devices(), 4);
        assert_eq!(c.host_of(DeviceId(0)), HostId(0));
        assert_eq!(c.host_of(DeviceId(1)), HostId(1));
        assert_eq!(c.device(1, 2), DeviceId(3));
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_cluster_panics() {
        ClusterSpec::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "local index")]
    fn out_of_range_local_device_panics() {
        cluster().device(0, 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        LinkParams::new(0.0, 1e9);
    }

    #[test]
    #[should_panic(expected = "link latency -1 must be non-negative and finite")]
    fn negative_latency_panics() {
        let _ = LinkParams::new(10e9, 1e9).with_latencies(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "link latency NaN must be non-negative and finite")]
    fn nan_latency_panics() {
        let _ = LinkParams::new(10e9, 1e9).with_latencies(0.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "link latency -0.5 must be non-negative and finite")]
    fn cluster_refuses_a_host_with_a_negative_latency() {
        let mut links = LinkParams::new(10e9, 1e9);
        links.inter_host_latency = -0.5;
        ClusterSpec::new(vec![HostSpec {
            devices: 1,
            links,
            device_flops: 1e12,
        }]);
    }

    #[test]
    #[should_panic(expected = "inter-host bandwidth must be positive and finite")]
    fn cluster_refuses_a_host_with_a_zero_bandwidth() {
        let mut links = LinkParams::new(10e9, 1e9);
        links.inter_host_bw = 0.0;
        ClusterSpec::new(vec![HostSpec {
            devices: 1,
            links,
            device_flops: 1e12,
        }]);
    }

    #[test]
    #[should_panic(expected = "host 1: device FLOP/s must be positive and finite")]
    fn cluster_refuses_a_host_without_compute() {
        let links = LinkParams::new(10e9, 1e9);
        let host = |device_flops| HostSpec {
            devices: 1,
            links,
            device_flops,
        };
        ClusterSpec::new(vec![host(1e12), host(f64::INFINITY)]);
    }

    #[test]
    fn with_device_flops_overrides_all() {
        let c = cluster().with_device_flops(5e12);
        for h in 0..3 {
            assert_eq!(c.host(HostId(h)).device_flops, 5e12);
        }
    }

    #[test]
    fn default_fabric_is_unbounded_flat() {
        let c = cluster();
        assert!(c.fabric().is_unbounded());
        assert_eq!(c.fabric(), &FabricModel::Flat { capacity: None });
        assert!(c.fabric_slot_capacities().is_empty());
        let mut route = Vec::new();
        c.fabric_route(DeviceId(0), DeviceId(4), 10, &mut route);
        assert!(route.is_empty());
        assert_eq!(c.host_nic_multiplier(), 1.0);
    }

    #[test]
    fn flat_capped_fabric_has_one_slot() {
        let c = cluster().with_fabric_capacity(3.0);
        assert!(!c.fabric().is_unbounded());
        assert_eq!(
            c.fabric(),
            &FabricModel::Flat {
                capacity: Some(3.0)
            }
        );
        assert_eq!(c.fabric_slot_capacities(), vec![3.0]);
        let mut route = Vec::new();
        c.fabric_route(DeviceId(0), DeviceId(4), 24, &mut route);
        assert_eq!(route, vec![24]);
    }

    #[test]
    fn rail_fabric_routes_on_the_sender_and_receiver_rails() {
        // 3 hosts × 4 devices, 2 rails: local index parity picks the rail.
        let c = cluster().with_fabric(FabricModel::RailOptimized {
            rails: 2,
            spine_capacity: 5.0,
        });
        // Slots: send 3×2, recv 3×2, spine -> 13 slots.
        let slots = c.fabric_slot_capacities();
        assert_eq!(slots.len(), 13);
        assert_eq!(slots[12], 5.0);
        assert_eq!(c.host_nic_multiplier(), 2.0);
        // Same-rail flow h0/l1 -> h1/l1: send slot (0,1), recv slot (1,1).
        let mut route = Vec::new();
        c.fabric_route(DeviceId(1), DeviceId(5), 0, &mut route);
        assert_eq!(route, vec![1, 6 + 3]);
        // Cross-rail flow h0/l0 -> h1/l1 additionally crosses the spine.
        route.clear();
        c.fabric_route(DeviceId(0), DeviceId(5), 0, &mut route);
        assert_eq!(route, vec![0, 6 + 3, 12]);
    }

    #[test]
    fn fat_tree_charges_uplinks_only_across_pods() {
        // 3 hosts in pods of 2 -> pods {h0,h1} and {h2}.
        let c = cluster().with_fabric(FabricModel::FatTree {
            pod_hosts: 2,
            oversubscription: 4.0,
        });
        let slots = c.fabric_slot_capacities();
        // Pod 0: 2 hosts × 1.25e9 / 4; pod 1: 1 host × 1.25e9 / 4.
        assert_eq!(slots.len(), 4);
        assert!((slots[0] - 2.0 * 1.25e9 / 4.0).abs() < 1.0);
        assert!((slots[1] - 1.25e9 / 4.0).abs() < 1.0);
        // Intra-pod cross-host flow: leaf is non-blocking.
        let mut route = Vec::new();
        c.fabric_route(DeviceId(0), DeviceId(4), 0, &mut route);
        assert!(route.is_empty());
        // Cross-pod flow: src pod uplink + dst pod downlink.
        c.fabric_route(DeviceId(0), DeviceId(8), 0, &mut route);
        assert_eq!(route, vec![0, 2 + 1]);
    }

    #[test]
    fn torus_routes_dimension_ordered_with_wraparound() {
        let c = ClusterSpec::homogeneous(6, 2, LinkParams::new(100e9, 1.25e9)).with_fabric(
            FabricModel::Torus2D {
                rows: 2,
                cols: 3,
                link_capacity: 7.0,
            },
        );
        assert_eq!(c.fabric_slot_capacities(), vec![7.0; 24]);
        // Host 0 (0,0) -> host 5 (1,2): cols 0->2 wraps west (1 hop beats
        // 2 east), then rows 0->1 south.
        let mut route = Vec::new();
        c.fabric_route(c.device(0, 0), c.device(5, 0), 0, &mut route);
        // West edge of host 0, then south edge of host 2 (0,2).
        assert_eq!(route, vec![1, 2 * 4 + 2]);
        // Adjacent east: one edge.
        route.clear();
        c.fabric_route(c.device(0, 0), c.device(1, 0), 0, &mut route);
        assert_eq!(route, vec![0]);
    }

    #[test]
    #[should_panic(expected = "torus is 2x2")]
    fn torus_shape_must_match_host_count() {
        let _ = cluster().with_fabric(FabricModel::Torus2D {
            rows: 2,
            cols: 2,
            link_capacity: 1.0,
        });
    }

    #[test]
    fn fabric_display_names_the_model() {
        assert_eq!(FabricModel::default().to_string(), "flat/full-bisection");
        assert!(cluster()
            .with_fabric_capacity(2e9)
            .to_string()
            .contains("flat/core=2.000e9"));
        let rails = FabricModel::RailOptimized {
            rails: 4,
            spine_capacity: 1.25e9,
        };
        assert_eq!(rails.to_string(), "rails(k=4, spine=1.250e9 B/s)");
        assert!(cluster().to_string().starts_with("3 hosts / 12 devices"));
    }
}
