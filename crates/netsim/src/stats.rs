//! Engine performance counters.
//!
//! Every run tallies a [`SimStats`] (events processed, rate re-solves,
//! saturation-frontier peak, …), returned by
//! [`Engine::run_stats`](crate::Engine::run_stats) and added to the
//! process-wide `crossmesh-obs` registry ([`obs::metrics`]) at the end of
//! the run, like every other layer's counters: `netsim.events_processed`,
//! `netsim.events_stale`, `netsim.rate_recomputes` and
//! `netsim.flows_resolved` sum over all runs, and the
//! `netsim.frontier_size` / `netsim.peak_active_flows` gauges hold the
//! largest value any run reached.

use crossmesh_obs as obs;
use std::sync::OnceLock;

/// Counters from one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Heap events popped and acted on (compute/latency/fault/flow-drain).
    pub events_processed: u64,
    /// Flow-drain events discarded because the flow's rate changed (lazy
    /// invalidation) or the flow was killed after the event was scheduled.
    pub events_stale: u64,
    /// Fair-share re-solves: one per affected component per flow-set
    /// change (one batch of simultaneous events), however many of the
    /// component's resources changed.
    pub rate_recomputes: u64,
    /// Total flows whose rate was recomputed, summed over all re-solves —
    /// `flows_resolved / rate_recomputes` is the mean bottleneck-set size.
    pub flows_resolved: u64,
    /// Largest saturation frontier: bottleneck resources in one re-solve.
    pub frontier_size: usize,
    /// Peak number of simultaneously active (draining) flows.
    pub peak_active_flows: usize,
}

impl SimStats {
    /// Adds this run's counters to the global registry's `netsim.*`
    /// counters and raises its two gauges to this run's peaks. The
    /// handles are looked up once per process, so a run after the first
    /// allocates nothing here.
    pub(crate) fn publish(&self) {
        static HANDLES: OnceLock<([obs::Counter; 4], [obs::Gauge; 2])> = OnceLock::new();
        let (counters, gauges) = HANDLES.get_or_init(|| {
            let m = obs::metrics();
            (
                [
                    "netsim.events_processed",
                    "netsim.events_stale",
                    "netsim.rate_recomputes",
                    "netsim.flows_resolved",
                ]
                .map(|name| m.counter(name)),
                ["netsim.frontier_size", "netsim.peak_active_flows"].map(|name| m.gauge(name)),
            )
        });
        let totals = [
            self.events_processed,
            self.events_stale,
            self.rate_recomputes,
            self.flows_resolved,
        ];
        for (counter, n) in counters.iter().zip(totals) {
            counter.add(n);
        }
        for (gauge, peak) in gauges
            .iter()
            .zip([self.frontier_size, self.peak_active_flows])
        {
            gauge.raise(peak as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ClusterSpec, Engine, LinkParams, TaskGraph, Work};
    use crossmesh_obs as obs;

    #[test]
    fn a_run_raises_the_global_netsim_metrics_by_its_own_stats() {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0));
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
        g.add(Work::flow(c.device(0, 1), c.device(1, 1), 4.0), []);
        let published = || obs::metrics().snapshot_prefixed("netsim.");
        let before = published();
        let (_, s) = Engine::new(&c).run_stats(&g).unwrap();
        let after = published();
        // Other tests run engines concurrently, so the totals grow by at
        // least this run's share.
        for (name, n) in [
            ("netsim.events_processed", s.events_processed),
            ("netsim.events_stale", s.events_stale),
            ("netsim.rate_recomputes", s.rate_recomputes),
            ("netsim.flows_resolved", s.flows_resolved),
        ] {
            assert!(after.counter(name) >= before.counter(name) + n, "{name}");
        }
        assert!(s.events_processed > 0 && s.peak_active_flows == 2, "{s:?}");
        assert!(after.gauges["netsim.peak_active_flows"] >= 2.0);
        assert!(after.gauges["netsim.frontier_size"] >= s.frontier_size as f64);
        assert!(after
            .counters
            .keys()
            .all(|name| name.starts_with("netsim.")));
    }
}
