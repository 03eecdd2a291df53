//! Bridge from the netsim engine's performance counters into a
//! [`MetricsRegistry`].
//!
//! `crossmesh-netsim` cannot depend on this crate (the dependency points
//! the other way: the export module renders netsim traces), so the engine
//! tallies its counters into process-wide atomics
//! ([`crossmesh_netsim::stats::cumulative`]) and consumers that hold a
//! registry — the CLI's `--metrics` dump, `bench`, the serve daemon — call
//! [`sync_netsim_metrics`] at report time to publish them as `netsim.*`
//! metrics.

use crate::metrics::MetricsRegistry;
use crossmesh_netsim::stats::cumulative;
use crossmesh_netsim::SimStats;
use std::sync::Mutex;

/// Serializes syncs, so two threads syncing one registry cannot both add
/// the same difference.
static SYNC: Mutex<()> = Mutex::new(());

/// Publishes the engine's cumulative counters into `registry` as
/// `netsim.events_processed`, `netsim.events_stale`,
/// `netsim.rate_recomputes`, and `netsim.flows_resolved` counters plus
/// `netsim.frontier_size` / `netsim.peak_active_flows` gauges (process-wide
/// maxima). Returns the snapshot that was synced.
///
/// Each counter is raised to the process-wide total, so every registry
/// synced (the global one, a daemon's own) holds the totals at its last
/// sync, however syncs into different registries interleave.
pub fn sync_netsim_metrics(registry: &MetricsRegistry) -> SimStats {
    let _serial = SYNC.lock().unwrap_or_else(|e| e.into_inner());
    let now = cumulative();
    for (name, total) in [
        ("netsim.events_processed", now.events_processed),
        ("netsim.events_stale", now.events_stale),
        ("netsim.rate_recomputes", now.rate_recomputes),
        ("netsim.flows_resolved", now.flows_resolved),
    ] {
        let counter = registry.counter(name);
        counter.add(total.saturating_sub(counter.get()));
    }
    registry
        .gauge("netsim.frontier_size")
        .set(now.frontier_size as f64);
    registry
        .gauge("netsim.peak_active_flows")
        .set(now.peak_active_flows as f64);
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, Engine, LinkParams, TaskGraph, Work};

    fn run_engine() {
        let c = ClusterSpec::homogeneous(2, 1, LinkParams::new(10.0, 1.0));
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
        Engine::new(&c).run(&g).unwrap();
    }

    #[test]
    fn sync_publishes_engine_counters_once() {
        run_engine();
        let reg = MetricsRegistry::new();
        sync_netsim_metrics(&reg);
        let snap = reg.snapshot();
        assert!(snap.counter("netsim.events_processed") >= 2);
        assert!(snap.counter("netsim.rate_recomputes") >= 1);
        assert!(snap.gauges["netsim.peak_active_flows"] >= 1.0);

        // A second sync raises the counters to the totals, never past
        // them.
        let synced = sync_netsim_metrics(&reg);
        assert_eq!(
            reg.snapshot().counter("netsim.events_processed"),
            synced.events_processed
        );
    }

    #[test]
    fn every_registry_holds_the_totals_it_synced() {
        let (daemon, global) = (MetricsRegistry::new(), MetricsRegistry::new());
        let mut synced = Vec::new();
        for reg in [&daemon, &global, &daemon, &global] {
            run_engine();
            synced.push((reg, sync_netsim_metrics(reg)));
        }
        for (reg, stats) in &synced[2..] {
            let snap = reg.snapshot();
            assert_eq!(
                snap.counter("netsim.events_processed"),
                stats.events_processed
            );
            assert_eq!(snap.counter("netsim.events_stale"), stats.events_stale);
            assert_eq!(
                snap.counter("netsim.rate_recomputes"),
                stats.rate_recomputes
            );
            assert_eq!(snap.counter("netsim.flows_resolved"), stats.flows_resolved);
        }
    }

    #[test]
    fn concurrent_syncs_never_double_count_or_lose_events() {
        for _ in 0..8 {
            run_engine();
        }
        // Hammer one registry from two threads.
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..50 {
                        sync_netsim_metrics(reg);
                    }
                });
            }
        });
        let before = cumulative().events_processed;
        sync_netsim_metrics(&reg);
        let after = cumulative().events_processed;
        // At least every event up to the last sync (no loss), and no more
        // than the process has produced (no double counting), even if
        // other tests ran engines concurrently.
        let synced = reg.snapshot().counter("netsim.events_processed");
        assert!(synced >= before, "lost events: {synced} < {before}");
        assert!(synced <= after, "double-counted: {synced} > {after}");
    }
}
