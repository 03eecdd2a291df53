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

/// Last netsim totals already folded into a registry, keyed per process.
/// Counters are monotonic, so each sync publishes only the delta since the
/// previous one; repeated syncs are idempotent when no runs happened.
static PUBLISHED: Mutex<SimStats> = Mutex::new(SimStats {
    events_processed: 0,
    events_stale: 0,
    rate_recomputes: 0,
    flows_resolved: 0,
    frontier_size: 0,
    peak_active_flows: 0,
});

/// Publishes the engine's cumulative counters into `registry` as
/// `netsim.events_processed`, `netsim.events_stale`,
/// `netsim.rate_recomputes`, and `netsim.flows_resolved` counters plus
/// `netsim.frontier_size` / `netsim.peak_active_flows` gauges (process-wide
/// maxima). Returns the snapshot that was synced.
///
/// The delta cursor is process-wide: syncing into two different registries
/// splits the totals between them. Use the global [`metrics()`] registry
/// (or one registry per process) for faithful totals.
///
/// [`metrics()`]: crate::metrics()
pub fn sync_netsim_metrics(registry: &MetricsRegistry) -> SimStats {
    let now = cumulative();
    let mut last = PUBLISHED.lock().unwrap_or_else(|e| e.into_inner());
    registry
        .counter("netsim.events_processed")
        .add(now.events_processed - last.events_processed);
    registry
        .counter("netsim.events_stale")
        .add(now.events_stale - last.events_stale);
    registry
        .counter("netsim.rate_recomputes")
        .add(now.rate_recomputes - last.rate_recomputes);
    registry
        .counter("netsim.flows_resolved")
        .add(now.flows_resolved - last.flows_resolved);
    registry
        .gauge("netsim.frontier_size")
        .set(now.frontier_size as f64);
    registry
        .gauge("netsim.peak_active_flows")
        .set(now.peak_active_flows as f64);
    *last = now;
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, Engine, LinkParams, TaskGraph, Work};

    /// The delta cursor is process-wide; tests that sync must not run
    /// concurrently with each other or they steal each other's deltas.
    static SYNC_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn sync_publishes_engine_counters_once() {
        let _serial = SYNC_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let c = ClusterSpec::homogeneous(2, 1, LinkParams::new(10.0, 1.0));
        let mut g = TaskGraph::new();
        g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
        Engine::new(&c).run(&g).unwrap();

        let reg = MetricsRegistry::new();
        sync_netsim_metrics(&reg);
        let snap = reg.snapshot();
        assert!(snap.counter("netsim.events_processed") >= 2);
        assert!(snap.counter("netsim.rate_recomputes") >= 1);
        assert!(snap.gauges["netsim.peak_active_flows"] >= 1.0);

        // No new runs: a second sync must not inflate the counters.
        let before = reg.snapshot().counter("netsim.events_processed");
        sync_netsim_metrics(&reg);
        assert_eq!(reg.snapshot().counter("netsim.events_processed"), before);
    }

    #[test]
    fn concurrent_syncs_never_double_count_or_lose_deltas() {
        let _serial = SYNC_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // Zero the process-wide cursor into a throwaway registry so this
        // test's window starts clean, then capture the cumulative base.
        sync_netsim_metrics(&MetricsRegistry::new());
        let base = cumulative();

        // Generate a known amount of engine work.
        let c = ClusterSpec::homogeneous(2, 1, LinkParams::new(10.0, 1.0));
        let before_runs = cumulative();
        for _ in 0..8 {
            let mut g = TaskGraph::new();
            g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
            Engine::new(&c).run(&g).unwrap();
        }
        let produced = cumulative().events_processed - before_runs.events_processed;
        assert!(produced > 0, "the engine must tally events");

        // Hammer the delta cursor from two threads into one registry.
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
        sync_netsim_metrics(&reg);
        let end = cumulative();

        // Every delta this window produced must land exactly once: at
        // least this test's own events (no loss), and no more than the
        // whole process-wide window (no double counting, even if other
        // tests ran engines concurrently).
        let synced = reg.snapshot().counter("netsim.events_processed");
        assert!(
            synced >= produced,
            "lost deltas: synced {synced} < produced {produced}"
        );
        let window = end.events_processed - base.events_processed;
        assert!(
            synced <= window,
            "double-counted deltas: synced {synced} > window {window}"
        );
    }
}
