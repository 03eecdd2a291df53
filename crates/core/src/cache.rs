//! Content-addressed plan cache: amortizes planning across iterations.
//!
//! Pipeline execution re-plans the identical stage-pair reshard on every
//! microbatch, and fault recovery re-plans on every repair round. Both
//! inputs are content-addressable: the planning problem is fully described
//! by (task signature, sender exclusions, planner fingerprint), so a plan
//! computed once can be replayed for free until any component changes.
//! Exclusions are part of the key — a crash *changes the key* rather than
//! mutating an entry, so stale plans through dead hosts are structurally
//! impossible; a defensive re-check on every hit enforces it anyway.

use crate::exclusions::{RepairError, SenderExclusions};
use crate::plan::{Assignment, Plan};
use crate::planners::{plan_with_exclusions, Planner};
use crate::task::ReshardingTask;
use crossmesh_collectives::CostParams;
use crossmesh_hb as hb;
use crossmesh_obs as obs;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Process-wide mirror counters: every cache reports into these in
/// addition to its own registry, so the CLI's `--metrics` dump shows
/// aggregate cache behaviour without threading cache references around.
struct GlobalCacheMetrics {
    hits: obs::Counter,
    misses: obs::Counter,
    invalidations: obs::Counter,
}

fn global_cache_metrics() -> &'static GlobalCacheMetrics {
    static METRICS: OnceLock<GlobalCacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = obs::metrics();
        GlobalCacheMetrics {
            hits: m.counter("plan_cache.hits"),
            misses: m.counter("plan_cache.misses"),
            invalidations: m.counter("plan_cache.invalidations"),
        }
    })
}

/// A cached plan, stored task-independently as its assignment list; a hit
/// re-binds it with [`Plan::new`], which revalidates it against the task.
#[derive(Clone)]
struct Entry {
    assignments: Vec<Assignment>,
    params: CostParams,
}

/// Shards in the entry map. Keys are `DefaultHasher` outputs, so the low
/// bits are uniform enough to index with a mask.
const SHARDS: usize = 16;

/// Hit/miss/size counters of a [`PlanCache`] since it was built, taken
/// with [`stats`](PlanCache::stats): *views* over the cache's private
/// metrics registry (see [`PlanCache::registry`]). A shared cache counts
/// every caller's lookups, so a caller that wants its own share counts
/// the per-call outcomes that [`plan_with_exclusions_outcome`] and
/// [`repair`](PlanCache::repair) return.
///
/// [`plan_with_exclusions_outcome`]: PlanCache::plan_with_exclusions_outcome
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the planner.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// A thread-safe, content-addressed cache of resharding plans.
///
/// Keys combine the [`ReshardingTask::cache_signature`], the
/// [`SenderExclusions`], and the [`Planner::fingerprint`] (plus, for
/// [`repair`](PlanCache::repair), the incumbent plan's assignments, since
/// the repair patch depends on them). The planner only runs on a miss;
/// a hit replays the stored assignments through [`Plan::new`], which
/// re-asserts their validity for the task at hand.
///
/// The cache is built for concurrent callers (the resharding daemon's
/// worker pool hammers one shared instance from every worker): entries
/// live in `SHARDS` independently locked shards keyed by the hash, and
/// the hit-path re-verification runs on a clone *outside* any lock, so a
/// slow verify on one entry never serializes unrelated lookups. Raced
/// duplicate misses both plan and both insert — planning is deterministic,
/// so the overwrites carry identical content and hit/miss *semantics*
/// match a serial execution (only the miss count can exceed one per key).
pub struct PlanCache {
    shards: Vec<Mutex<HashMap<u64, Entry>>>,
    /// Per-cache metrics registry: keeps this cache's statistics isolated
    /// from other caches (and from the process-wide registry, which only
    /// receives mirrored aggregates).
    registry: obs::MetricsRegistry,
    hits: obs::Counter,
    misses: obs::Counter,
    invalidations: obs::Counter,
}

impl Default for PlanCache {
    fn default() -> Self {
        let registry = obs::MetricsRegistry::new();
        let hits = registry.counter("plan_cache.hits");
        let misses = registry.counter("plan_cache.misses");
        let invalidations = registry.counter("plan_cache.invalidations");
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            registry,
            hits,
            misses,
            invalidations,
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Plans `task` with the excluded senders removed, serving a cached
    /// result when this exact (task, exclusions, planner) triple was
    /// planned before, and reports whether this call was served from the
    /// cache. The returned plan is bound to the *original* task, exactly
    /// like [`plan_with_exclusions`]. Counter deltas cannot answer the hit
    /// question under concurrency (another worker's hit may land between
    /// two reads); the daemon tags every response with this per-call
    /// outcome instead.
    ///
    /// # Errors
    ///
    /// [`RepairError::DataLoss`] if a unit task loses every replica holder.
    pub fn plan_with_exclusions_outcome<'t, P: Planner + ?Sized>(
        &self,
        planner: &P,
        task: &'t ReshardingTask,
        exclusions: &SenderExclusions,
    ) -> Result<(Plan<'t>, bool), RepairError> {
        let mut h = DefaultHasher::new();
        task.cache_signature().hash(&mut h);
        exclusions.hash(&mut h);
        planner.fingerprint().hash(&mut h);
        let key = h.finish();

        if let Some(plan) = self.lookup(key, task, exclusions) {
            return Ok((plan, true));
        }
        let plan = plan_with_exclusions(planner, task, exclusions)?;
        self.insert(key, &plan);
        Ok((plan, false))
    }

    /// Repairs `plan` around `exclusions` (see [`Plan::repair`]), caching
    /// the result, and reports whether this call was served from the
    /// cache (as [`plan_with_exclusions_outcome`] does). The key includes
    /// the incumbent plan's assignments: the repair's *patch* candidate
    /// keeps surviving slots, so two different incumbent plans can repair
    /// differently.
    ///
    /// # Errors
    ///
    /// [`RepairError::DataLoss`] if a unit task loses every replica holder.
    ///
    /// [`plan_with_exclusions_outcome`]: PlanCache::plan_with_exclusions_outcome
    pub fn repair<'t>(
        &self,
        plan: &Plan<'t>,
        exclusions: &SenderExclusions,
    ) -> Result<(Plan<'t>, bool), RepairError> {
        let task = plan.task();
        let mut h = DefaultHasher::new();
        "repair".hash(&mut h);
        task.cache_signature().hash(&mut h);
        exclusions.hash(&mut h);
        plan.assignments().hash(&mut h);
        plan.params().inter_bw.to_bits().hash(&mut h);
        plan.params().intra_bw.to_bits().hash(&mut h);
        plan.params().inter_latency.to_bits().hash(&mut h);
        plan.params().intra_latency.to_bits().hash(&mut h);
        let key = h.finish();

        if let Some(repaired) = self.lookup(key, task, exclusions) {
            return Ok((repaired, true));
        }
        let repaired = plan.repair(exclusions)?;
        self.insert(key, &repaired);
        Ok((repaired, false))
    }

    /// Counters since construction (or the last [`clear`](PlanCache::clear)),
    /// read from the cache's private metrics registry.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self
                .shards
                .iter()
                .map(|s| {
                    let guard = s.lock();
                    hb::read(hb::object_id(s));
                    guard.len()
                })
                .sum(),
        }
    }

    /// The cache's private metrics registry. Holds `plan_cache.hits`,
    /// `plan_cache.misses`, and `plan_cache.invalidations`; [`stats`] is
    /// a view over it.
    ///
    /// [`stats`]: PlanCache::stats
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.registry
    }

    /// Drops every entry and resets the counters (the process-wide mirror
    /// counters are monotone and unaffected).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock();
            hb::write(hb::object_id(shard));
            guard.clear();
        }
        self.registry.reset();
    }

    /// The shard holding `key`.
    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Entry>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks `key` up and re-binds the stored assignments to `task`,
    /// re-running the static verifier (`crossmesh-check`) over the entry
    /// under the *current* exclusions — a diagnostic means the entry is
    /// unusable (a sender died since it was stored, or a key collision
    /// bound it to the wrong task) and it is dropped as a miss.
    ///
    /// The entry is cloned out of the shard and verified lock-free; a
    /// conviction re-locks the shard and removes the key (idempotent if a
    /// racing caller already removed or replaced it).
    fn lookup<'t>(
        &self,
        key: u64,
        task: &'t ReshardingTask,
        exclusions: &SenderExclusions,
    ) -> Option<Plan<'t>> {
        let global = global_cache_metrics();
        // The shard map is a declared race-detector access point: every
        // touch happens under the shard lock, and `check::race` audits
        // exactly that (the lock is the instrumented shim).
        let entry = {
            let shard = self.shard(key);
            let guard = shard.lock();
            hb::read(hb::object_id(shard));
            guard.get(&key).cloned()
        };
        if let Some(entry) = entry {
            let diags = crossmesh_check::verify::verify_plan(
                task.units(),
                task.shape(),
                task.elem_bytes(),
                &entry.assignments,
                None,
                &|_, h| exclusions.excludes(h),
            );
            if crossmesh_check::has_errors(&diags) {
                let shard = self.shard(key);
                let mut guard = shard.lock();
                hb::write(hb::object_id(shard));
                guard.remove(&key);
                drop(guard);
                self.invalidations.inc();
                global.invalidations.inc();
                obs::event(
                    obs::Level::Warn,
                    "plan_cache",
                    "invalidated",
                    &[
                        obs::Field::u64("key", key),
                        obs::Field::str("rule", diags[0].rule.id()),
                    ],
                );
            } else {
                self.hits.inc();
                global.hits.inc();
                let plan = Plan::new(task, entry.assignments, entry.params);
                return Some(plan);
            }
        }
        self.misses.inc();
        global.misses.inc();
        None
    }

    /// Stores a freshly planned result. Raced duplicate misses overwrite
    /// each other with identical content (planning is deterministic).
    fn insert(&self, key: u64, plan: &Plan<'_>) {
        let shard = self.shard(key);
        let mut guard = shard.lock();
        hb::write(hb::object_id(shard));
        guard.insert(
            key,
            Entry {
                assignments: plan.assignments().to_vec(),
                params: *plan.params(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planners::testutil::*;
    use crate::planners::{EnsemblePlanner, NaivePlanner};
    use crossmesh_netsim::HostId;

    /// Plans `task` with no sender excluded, through the cache.
    fn plan<'t, P: Planner>(cache: &PlanCache, planner: &P, task: &'t ReshardingTask) -> Plan<'t> {
        cache
            .plan_with_exclusions_outcome(planner, task, &SenderExclusions::none())
            .expect("empty exclusions cannot cause data loss")
            .0
    }

    #[test]
    fn second_plan_is_a_hit_and_identical() {
        let t = task("RS0R", "S0RR", &[16, 8, 8]);
        let planner = EnsemblePlanner::new(config());
        let cache = PlanCache::new();
        let cold = plan(&cache, &planner, &t);
        let warm = plan(&cache, &planner, &t);
        assert_eq!(cold.assignments(), warm.assignments());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn different_planners_do_not_share_entries() {
        let t = task("RS0R", "S0RR", &[16, 8, 8]);
        let cache = PlanCache::new();
        let a = plan(&cache, &EnsemblePlanner::new(config()), &t);
        let b = plan(&cache, &NaivePlanner::new(config()), &t);
        assert_eq!(cache.stats().misses, 2);
        // Naive really ran (it pins everything on the lowest host).
        assert!(b.estimate() >= a.estimate() - 1e-9);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn exclusions_change_the_key() {
        let t = task("RS1R", "S0RR", &[8, 8, 8]);
        let planner = EnsemblePlanner::new(config());
        let cache = PlanCache::new();
        let _ = plan(&cache, &planner, &t);
        let dead = HostId(0);
        let excl = SenderExclusions::for_hosts([dead]);
        let (repaired, _) = cache
            .plan_with_exclusions_outcome(&planner, &t, &excl)
            .expect("replicas survive");
        assert!(repaired.assignments().iter().all(|a| a.sender_host != dead));
        assert_eq!(
            cache.stats().hits,
            0,
            "exclusions must not hit the base key"
        );
        // Replaying the same exclusions IS a hit, still avoiding the host.
        let (again, _) = cache
            .plan_with_exclusions_outcome(&planner, &t, &excl)
            .unwrap();
        assert_eq!(again.assignments(), repaired.assignments());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn repair_is_cached_per_incumbent_plan() {
        let t = task("RS1R", "S0RR", &[8, 8, 8]);
        let planner = EnsemblePlanner::new(config());
        let cache = PlanCache::new();
        let plan = planner.plan(&t);
        let excl = SenderExclusions::for_hosts([HostId(1)]);
        let (a, a_hit) = cache.repair(&plan, &excl).unwrap();
        let (b, b_hit) = cache.repair(&plan, &excl).unwrap();
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!((a_hit, b_hit), (false, true));
        assert_eq!(cache.stats().hits, 1);
        assert!(a.assignments().iter().all(|x| x.sender_host != HostId(1)));
    }

    #[test]
    fn the_cache_is_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<PlanCache>();
        assert_sync_send::<std::sync::Arc<PlanCache>>();
    }

    #[test]
    fn outcome_reports_the_per_call_hit() {
        let t = task("RS0R", "S0RR", &[16, 8, 8]);
        let planner = EnsemblePlanner::new(config());
        let cache = PlanCache::new();
        let none = SenderExclusions::none();
        let (cold, hit) = cache
            .plan_with_exclusions_outcome(&planner, &t, &none)
            .unwrap();
        assert!(!hit, "first call must plan");
        let (warm, hit) = cache
            .plan_with_exclusions_outcome(&planner, &t, &none)
            .unwrap();
        assert!(hit, "second call must replay");
        assert_eq!(cold.assignments(), warm.assignments());
    }

    #[test]
    fn clear_resets_everything() {
        let t = task("RS0R", "S0RR", &[8, 8, 8]);
        let cache = PlanCache::new();
        let _ = plan(&cache, &EnsemblePlanner::new(config()), &t);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
