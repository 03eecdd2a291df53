//! Engine performance counters.
//!
//! Every run tallies a [`SimStats`] (events processed, rate re-solves,
//! saturation-frontier peak, …) available through
//! [`Engine::run_stats`](crate::Engine::run_stats) and, cumulatively
//! across all runs in the process, through [`cumulative`]. The cumulative
//! counters are plain relaxed atomics — cheap enough to update
//! unconditionally — so callers that hold a metrics registry (the CLI,
//! `bench`, the serve daemon via `crossmesh-obs`) can publish
//! `netsim.events_processed` / `netsim.rate_recomputes` /
//! `netsim.frontier_size` without this crate depending on the obs stack
//! (obs depends on netsim, not the reverse).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counters from one engine run (or, via [`cumulative`], all runs so far).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Heap events popped and acted on (compute/latency/fault/flow-drain).
    pub events_processed: u64,
    /// Flow-drain events discarded because the flow's rate changed (lazy
    /// invalidation) or the flow was killed after the event was scheduled.
    pub events_stale: u64,
    /// Fair-share re-solves. Exact model: one per affected component per
    /// flow-set change (one batch of simultaneous events), however many of
    /// the component's resources changed. Aggregate model: one per batch.
    pub rate_recomputes: u64,
    /// Total flows whose rate was recomputed, summed over all re-solves —
    /// `flows_resolved / rate_recomputes` is the mean bottleneck-set size.
    pub flows_resolved: u64,
    /// Largest saturation frontier: bottleneck resources in one re-solve.
    pub frontier_size: usize,
    /// Peak number of simultaneously active (draining) flows.
    pub peak_active_flows: usize,
}

static EVENTS: AtomicU64 = AtomicU64::new(0);
static STALE: AtomicU64 = AtomicU64::new(0);
static RECOMPUTES: AtomicU64 = AtomicU64::new(0);
static RESOLVED: AtomicU64 = AtomicU64::new(0);
static FRONTIER: AtomicUsize = AtomicUsize::new(0);
static PEAK_FLOWS: AtomicUsize = AtomicUsize::new(0);

/// Folds one run's counters into the process-wide totals. Called by the
/// engine at the end of every run.
pub(crate) fn record(s: &SimStats) {
    EVENTS.fetch_add(s.events_processed, Ordering::Relaxed);
    STALE.fetch_add(s.events_stale, Ordering::Relaxed);
    RECOMPUTES.fetch_add(s.rate_recomputes, Ordering::Relaxed);
    RESOLVED.fetch_add(s.flows_resolved, Ordering::Relaxed);
    FRONTIER.fetch_max(s.frontier_size, Ordering::Relaxed);
    PEAK_FLOWS.fetch_max(s.peak_active_flows, Ordering::Relaxed);
}

/// Snapshot of the process-wide totals: counters sum over every engine
/// run so far; `frontier_size` and `peak_active_flows` are maxima.
pub fn cumulative() -> SimStats {
    SimStats {
        events_processed: EVENTS.load(Ordering::Relaxed),
        events_stale: STALE.load(Ordering::Relaxed),
        rate_recomputes: RECOMPUTES.load(Ordering::Relaxed),
        flows_resolved: RESOLVED.load(Ordering::Relaxed),
        frontier_size: FRONTIER.load(Ordering::Relaxed),
        peak_active_flows: PEAK_FLOWS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_maxes() {
        let before = cumulative();
        record(&SimStats {
            events_processed: 3,
            events_stale: 1,
            rate_recomputes: 2,
            flows_resolved: 5,
            frontier_size: 1,
            peak_active_flows: 4,
        });
        let after = cumulative();
        assert_eq!(after.events_processed, before.events_processed + 3);
        assert_eq!(after.rate_recomputes, before.rate_recomputes + 2);
        assert!(after.peak_active_flows >= 4);
    }
}
