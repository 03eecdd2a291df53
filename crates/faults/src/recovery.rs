//! Fault-tolerant execution: run a plan, and on sender failure repair it
//! around the crashed hosts and re-run.
//!
//! [`execute_with_repair`] is the recovery loop: execute under the
//! injected schedule; if the run fails, exclude every crashed host, ask
//! [`Plan::repair`] for a failover plan (surviving replicas take over the
//! orphaned unit tasks), and re-execute under the post-failover schedule
//! ([`FaultSchedule::without_crashes`]). Receiver-host crashes are out of
//! scope — the destination mesh must survive; only senders fail over.

use crate::backend::BackendKind;
use crate::schedule::FaultSchedule;
use crossmesh_core::{Plan, PlanCache, PlanRun, RepairError, SenderExclusions};
use crossmesh_netsim::{Backend, ClusterSpec, FailureKind, HostId, SimError, Trace};
use crossmesh_obs as obs;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// Registry handles for the recovery loop, resolved once.
struct RecoveryMetrics {
    runs: obs::Counter,
    rounds: obs::Counter,
    repairs: obs::Counter,
    failovers: obs::Counter,
    degraded_makespan: obs::Gauge,
}

fn recovery_metrics() -> &'static RecoveryMetrics {
    static METRICS: OnceLock<RecoveryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = obs::metrics();
        RecoveryMetrics {
            runs: m.counter("recovery.runs"),
            rounds: m.counter("recovery.rounds"),
            repairs: m.counter("recovery.repairs"),
            failovers: m.counter("recovery.failovers"),
            degraded_makespan: m.gauge("recovery.degraded_makespan_s"),
        }
    })
}

/// Why fault-tolerant execution gave up.
#[derive(Debug)]
pub enum RecoveryError {
    /// The backend failed in a way failover cannot route around (for
    /// example a drop storm past the retry budget with no crashed host to
    /// exclude, or a failure that persisted after repair).
    Sim(SimError),
    /// The plan could not be repaired: some slice lost every replica.
    Repair(RepairError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Sim(e) => write!(f, "unrecoverable execution failure: {e}"),
            RecoveryError::Repair(e) => write!(f, "unrepairable plan: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Sim(e) => Some(e),
            RecoveryError::Repair(e) => Some(e),
        }
    }
}

impl From<SimError> for RecoveryError {
    fn from(e: SimError) -> Self {
        RecoveryError::Sim(e)
    }
}

impl From<RepairError> for RecoveryError {
    fn from(e: RepairError) -> Self {
        RecoveryError::Repair(e)
    }
}

/// The outcome of a fault-tolerant execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport<'t> {
    /// The run that delivered the tensor (the repaired run if failover
    /// happened): lowered graph, trace, and — via [`PlanRun::report`] —
    /// its completion time and traffic.
    pub run: PlanRun,
    /// The repaired plan that delivered the tensor, if the first attempt
    /// failed; `None` when the original plan delivered it.
    pub repaired: Option<Plan<'t>>,
    /// Unit tasks whose sender changed between the original and the
    /// repaired plan.
    pub failovers: usize,
    /// Hosts excluded from sending after the first attempt failed.
    pub excluded_hosts: Vec<HostId>,
    /// End-to-end completion time including the wasted first attempt,
    /// seconds; `None` when the first attempt was clean and undegraded.
    pub degraded_makespan: Option<f64>,
    /// Flow re-transmissions absorbed across both attempts.
    pub retries: u64,
    /// Repair plans served from the plan cache (0 without a cache).
    pub plan_cache_hits: u64,
    /// Repair plans that had to run the repair logic (0 without a cache,
    /// even though the repair then runs uncached).
    pub plan_cache_misses: u64,
}

/// The error a trace with failed tasks stands for (`None` for a clean
/// one), so trace-style (simulator) and abort-style (runtime) backends
/// report failures identically.
fn failed_trace_error(
    backend: &'static str,
    schedule: &FaultSchedule,
    trace: &Trace,
    graph_len: usize,
) -> Option<SimError> {
    let task = *trace.failed_tasks().first()?;
    let kind = if schedule.crashed_hosts().is_empty() {
        FailureKind::RetriesExhausted
    } else {
        FailureKind::HostCrash
    };
    Some(SimError::TaskFailed {
        backend,
        task,
        kind,
        detail: format!(
            "{} of {} tasks failed under the injected schedule",
            trace.failed_tasks().len(),
            graph_len
        ),
    })
}

/// Executes `plan` under `schedule`; on failure, repairs the plan around
/// the schedule's crashed hosts and re-runs it with the crashes removed.
/// Both attempts go through the plan runner [`Plan::run`], so each is
/// verified and lowered with `cluster`'s topology, and an empty schedule
/// is the clean run bit for bit.
///
/// The returned [`RecoveryReport`] describes the run that delivered the
/// tensor, plus the degradation accounting: how many unit tasks failed
/// over, how many flow retries were absorbed, and the end-to-end
/// makespan including the wasted first attempt.
///
/// With a `cache`, the repair step is served from it: a repeated (plan,
/// crashed-hosts) pair replays the previously computed failover plan
/// instead of re-running `Plan::repair`. The exclusions are part of the
/// cache key, so a cached entry can never assign an excluded sender; the
/// cache re-checks that invariant on every hit anyway. The report's
/// [`plan_cache_hits`](RecoveryReport::plan_cache_hits) /
/// [`plan_cache_misses`](RecoveryReport::plan_cache_misses) count this
/// call's own lookups, however many other callers share the cache.
///
/// # Errors
///
/// * [`RecoveryError::Repair`] if some slice lost every replica holder
///   (data loss — failover is impossible);
/// * [`RecoveryError::Sim`] if the failure is not attributable to a
///   crashed host (nothing to exclude), if the repaired run fails again,
///   or on any non-fault backend error; a `check`
///   [`SimError::Backend`] if the verifier convicts either plan.
pub fn execute_with_repair<'t>(
    plan: &Plan<'t>,
    cluster: &ClusterSpec,
    backend: BackendKind,
    schedule: &FaultSchedule,
    cache: Option<&PlanCache>,
) -> Result<RecoveryReport<'t>, RecoveryError> {
    let span = obs::Span::enter(
        obs::Level::Debug,
        "faults.recovery",
        "execute_with_repair",
        &[
            obs::Field::str("backend", backend.name()),
            obs::Field::bool("cached", cache.is_some()),
        ],
    );
    let metrics = recovery_metrics();
    metrics.runs.inc();
    metrics.rounds.inc();
    // One attempt: verify and lower `plan`, then run it under `schedule`.
    let attempt = |plan: &Plan<'_>, schedule: &FaultSchedule| {
        plan.run(cluster, |graph| {
            backend.execute_with_faults(cluster, graph, schedule)
        })
    };
    let (wasted, mut retries, failure) = match attempt(plan, schedule) {
        Ok(run) => {
            let stats = run.trace.fault_stats().clone();
            match failed_trace_error(backend.name(), schedule, &run.trace, run.graph.len()) {
                None => {
                    span.record(&[obs::Field::bool("repaired", false)]);
                    return Ok(RecoveryReport {
                        run,
                        repaired: None,
                        failovers: 0,
                        excluded_hosts: Vec::new(),
                        degraded_makespan: stats.degraded_makespan,
                        retries: stats.retries,
                        plan_cache_hits: 0,
                        plan_cache_misses: 0,
                    });
                }
                // The simulator completes a faulted run and reports failed
                // tasks in the trace; its partial makespan is wasted time.
                Some(failure) => (run.trace.makespan(), stats.retries, failure),
            }
        }
        // The runtime aborts on the first failure; no usable clock.
        Err(e @ SimError::TaskFailed { .. }) => (0.0, 0, e),
        Err(e) => return Err(RecoveryError::Sim(e)),
    };

    let excluded_hosts = schedule.crashed_hosts();
    if excluded_hosts.is_empty() {
        // Failover routes around crashed hosts. A failure with no crash in
        // the schedule (a drop storm past the retry budget) would recur on
        // any repaired plan, so report it instead of looping.
        return Err(RecoveryError::Sim(failure));
    }
    let exclusions = SenderExclusions::for_hosts(excluded_hosts.iter().copied());
    metrics.repairs.inc();
    metrics.rounds.inc();
    if obs::enabled() {
        obs::event(
            obs::Level::Info,
            "faults.recovery",
            "repair",
            &[obs::Field::u64(
                "excluded_hosts",
                excluded_hosts.len() as u64,
            )],
        );
    }
    let (repaired, lookups) = match cache {
        Some(c) => {
            let (repaired, hit) = c.repair(plan, &exclusions)?;
            (repaired, if hit { (1, 0) } else { (0, 1) })
        }
        None => (plan.repair(&exclusions)?, (0, 0)),
    };
    // Beyond the runner's own check, verify the repaired plan under the
    // exclusions before committing the cluster to re-execution: nothing
    // may be routed through a crashed host.
    let diags = repaired.verify(Some(cluster), &|_, h| exclusions.excludes(h));
    if crossmesh_check::has_errors(&diags) {
        return Err(RecoveryError::Sim(SimError::Backend {
            backend: "check",
            message: format!(
                "repaired plan failed static verification:\n{}",
                crossmesh_check::render_text(&diags)
            ),
        }));
    }

    let retry_schedule = schedule.without_crashes();
    let run = attempt(&repaired, &retry_schedule)?;
    if let Some(e) =
        failed_trace_error(backend.name(), &retry_schedule, &run.trace, run.graph.len())
    {
        return Err(RecoveryError::Sim(e));
    }
    retries += run.trace.fault_stats().retries;

    let original: BTreeMap<usize, _> = plan
        .assignments()
        .iter()
        .map(|a| (a.unit, a.sender))
        .collect();
    let failovers = repaired
        .assignments()
        .iter()
        .filter(|a| original.get(&a.unit) != Some(&a.sender))
        .count();
    let degraded = wasted + run.report().simulated_seconds;
    metrics.failovers.add(failovers as u64);
    metrics.degraded_makespan.set(degraded);
    span.record(&[
        obs::Field::bool("repaired", true),
        obs::Field::u64("failovers", failovers as u64),
        obs::Field::f64("degraded_makespan_s", degraded),
    ]);
    Ok(RecoveryReport {
        run,
        repaired: Some(repaired),
        failovers,
        excluded_hosts,
        degraded_makespan: Some(degraded),
        retries,
        plan_cache_hits: lookups.0,
        plan_cache_misses: lookups.1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultEvent;
    use crossmesh_core::{
        dataplane, CostParams, DeviceMesh, EnsemblePlanner, Planner, PlannerConfig, ReshardingTask,
        Strategy, StrategyChoice,
    };
    use crossmesh_netsim::{FabricModel, LinkParams, SimBackend};

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(5, 4, LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0))
    }

    /// A task whose every slice is replicated across both sender hosts, so
    /// one sender-host crash is always recoverable.
    fn replicated_task(c: &ClusterSpec) -> ReshardingTask {
        let a = DeviceMesh::from_cluster(c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(c, 2, (2, 4), "B").unwrap();
        ReshardingTask::new(
            a,
            "RS1R".parse().unwrap(),
            b,
            "S0RR".parse().unwrap(),
            &[8, 8, 8],
            1,
        )
        .unwrap()
    }

    /// A task where each slice lives on exactly one sender host.
    fn unreplicated_task(c: &ClusterSpec) -> ReshardingTask {
        let a = DeviceMesh::from_cluster(c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(c, 2, (2, 4), "B").unwrap();
        ReshardingTask::new(
            a,
            "S0RR".parse().unwrap(),
            b,
            "S0RR".parse().unwrap(),
            &[8, 8, 8],
            1,
        )
        .unwrap()
    }

    fn config() -> PlannerConfig {
        PlannerConfig::new(CostParams {
            inter_bw: 1.0,
            intra_bw: 100.0,
            inter_latency: 0.0,
            intra_latency: 0.0,
        })
    }

    #[test]
    fn a_clean_run_is_not_repaired() {
        let c = cluster();
        let t = replicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        let r =
            execute_with_repair(&plan, &c, BackendKind::Sim, &FaultSchedule::new(0), None).unwrap();
        assert!(r.repaired.is_none());
        assert_eq!(r.failovers, 0);
        assert_eq!(r.retries, 0);
        assert!(r.degraded_makespan.is_none());
        assert!(r.run.report().simulated_seconds > 0.0);
    }

    #[test]
    fn an_empty_schedule_is_the_clean_run_for_every_strategy() {
        // A rails fabric, where the multi-rail spray relays through
        // co-hosted devices only if the lowering sees the host layout.
        let c = cluster().with_fabric(FabricModel::RailOptimized {
            rails: 4,
            spine_capacity: 1.0,
        });
        let t = replicated_task(&c);
        // Every strategy `crossmesh reshard --strategy` names.
        for choice in [
            StrategyChoice::Fixed(Strategy::broadcast()),
            StrategyChoice::Fixed(Strategy::SendRecv),
            StrategyChoice::Fixed(Strategy::LocalAllGather),
            StrategyChoice::Fixed(Strategy::GlobalAllGather),
            StrategyChoice::Fixed(Strategy::TreeBroadcast { chunks: 64 }),
            StrategyChoice::Fixed(Strategy::multi_rail(4)),
            StrategyChoice::AlpaAuto,
        ] {
            let plan = EnsemblePlanner::new(config().with_strategy(choice)).plan(&t);
            let clean = plan.run(&c, |graph| SimBackend.execute(&c, graph)).unwrap();
            let r =
                execute_with_repair(&plan, &c, BackendKind::Sim, &FaultSchedule::default(), None)
                    .unwrap();
            assert!(r.repaired.is_none(), "{choice:?}");
            assert_eq!(r.run, clean, "{choice:?}");
        }
    }

    #[test]
    fn a_crashed_sender_fails_over_on_the_simulator() {
        let c = cluster();
        let t = replicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 0, at: 0.0 });
        let r = execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, None).unwrap();
        assert!(r.repaired.is_some());
        assert_eq!(r.excluded_hosts, vec![HostId(0)]);
        assert!(r.failovers > 0);
        let degraded = r.degraded_makespan.unwrap();
        assert!(degraded >= r.run.report().simulated_seconds);
    }

    #[test]
    fn the_report_carries_the_repaired_plan_that_delivered() {
        let c = cluster();
        let t = replicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        assert!(plan
            .assignments()
            .iter()
            .any(|a| a.sender_host == HostId(0)));
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 0, at: 0.0 });
        let r = execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, None).unwrap();
        let delivered = r.repaired.expect("the crash forces a failover");
        assert!(delivered
            .assignments()
            .iter()
            .all(|a| !r.excluded_hosts.contains(&a.sender_host)));
        dataplane::execute_and_verify(&delivered).unwrap();
    }

    #[test]
    fn a_crashed_sender_fails_over_on_the_runtime() {
        let c = cluster();
        let t = replicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        let schedule = FaultSchedule::new(0)
            .with_retry_policy(1, 1e-4)
            .with_event(FaultEvent::HostCrash { host: 0, at: 0.0 });
        let r = execute_with_repair(&plan, &c, BackendKind::Threads, &schedule, None).unwrap();
        assert!(r.repaired.is_some());
        assert_eq!(r.excluded_hosts, vec![HostId(0)]);
        assert!(r.failovers > 0);
    }

    #[test]
    fn a_cached_repair_matches_the_uncached_one_and_avoids_the_crash() {
        let c = cluster();
        let t = replicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 0, at: 0.0 });
        let cache = crossmesh_core::PlanCache::new();

        let uncached = execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, None).unwrap();
        let cold =
            execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, Some(&cache)).unwrap();
        assert_eq!((cold.plan_cache_hits, cold.plan_cache_misses), (0, 1));
        assert_eq!(cold.run, uncached.run);
        assert_eq!(cold.failovers, uncached.failovers);

        // The second identical failure replays the repair from the cache
        // and the served plan still routes around the crashed host.
        let warm =
            execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, Some(&cache)).unwrap();
        assert_eq!((warm.plan_cache_hits, warm.plan_cache_misses), (1, 0));
        assert_eq!(warm.run, cold.run);
        assert_eq!(warm.excluded_hosts, vec![HostId(0)]);
        assert_eq!(warm.failovers, cold.failovers);
    }

    #[test]
    fn losing_every_replica_is_data_loss() {
        let c = cluster();
        let t = unreplicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 0, at: 0.0 });
        let err = execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, None).unwrap_err();
        assert!(matches!(
            err,
            RecoveryError::Repair(RepairError::DataLoss { .. })
        ));
        assert!(err.to_string().contains("data loss"));
    }

    #[test]
    fn a_drop_storm_past_the_retry_budget_is_unrecoverable() {
        let c = cluster();
        let t = replicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        // p = 0.99 with a zero-retry budget: some flow's first attempt is
        // dropped (deterministically, given the seed) and there is no
        // crashed host to fail over from.
        let schedule = FaultSchedule::new(1)
            .with_retry_policy(0, 1e-4)
            .with_event(FaultEvent::FlowDrop { prob: 0.99 });
        let err = execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, None).unwrap_err();
        assert!(matches!(
            err,
            RecoveryError::Sim(SimError::TaskFailed {
                kind: FailureKind::RetriesExhausted,
                ..
            })
        ));
    }

    #[test]
    fn retries_within_budget_are_absorbed_and_counted() {
        let c = cluster();
        let t = replicated_task(&c);
        let plan = EnsemblePlanner::new(config()).plan(&t);
        let schedule = FaultSchedule::new(1)
            .with_retry_policy(8, 1e-6)
            .with_event(FaultEvent::FlowDrop { prob: 0.2 });
        let r = execute_with_repair(&plan, &c, BackendKind::Sim, &schedule, None).unwrap();
        assert!(r.repaired.is_none());
        assert!(r.retries > 0);
    }
}
