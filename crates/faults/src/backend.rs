//! Fault-injecting execution: one [`FaultSchedule`] drives any backend.
//!
//! [`FaultInjectable`] is the seam: the simulator realizes a schedule as
//! first-class engine events ([`Disruptions`](crossmesh_netsim::Disruptions)),
//! the threaded runtime as injected wall-clock delays, drops, and dead
//! hosts ([`InjectedFaults`](crossmesh_runtime::InjectedFaults)).
//! [`FaultyBackend`] then packages a backend plus a schedule back into a
//! plain [`Backend`], so everything written against that trait (plan
//! execution, benches, the CLI) runs under faults unchanged.

use crate::recovery::failed_trace_error;
use crate::schedule::FaultSchedule;
use crossmesh_netsim::{
    AggregateSimBackend, Backend, ClusterSpec, Engine, SimBackend, SimError, SimModel, TaskGraph,
    Trace,
};
use crossmesh_runtime::ThreadedBackend;

/// A backend that can execute a task graph under a fault schedule.
pub trait FaultInjectable: Backend {
    /// Executes `graph` with `schedule` injected.
    ///
    /// Backends differ in how failures surface: the simulator completes
    /// the run and reports failed tasks via
    /// [`Trace::failed_tasks`](crossmesh_netsim::Trace::failed_tasks)
    /// (with the partial timeline intact), while the threaded runtime
    /// aborts on the first failure with [`SimError::TaskFailed`]. Use
    /// [`FaultyBackend`] for a uniform fail-with-error view.
    ///
    /// # Errors
    ///
    /// Backend errors, plus [`SimError::Backend`] if the schedule fails
    /// [`FaultSchedule::validate`].
    fn execute_with_faults(
        &self,
        cluster: &ClusterSpec,
        graph: &TaskGraph,
        schedule: &FaultSchedule,
    ) -> Result<Trace, SimError>;
}

fn check_schedule(backend: &'static str, schedule: &FaultSchedule) -> Result<(), SimError> {
    schedule.validate().map_err(|message| SimError::Backend {
        backend,
        message: format!("invalid fault schedule: {message}"),
    })
}

impl FaultInjectable for SimBackend {
    fn execute_with_faults(
        &self,
        cluster: &ClusterSpec,
        graph: &TaskGraph,
        schedule: &FaultSchedule,
    ) -> Result<Trace, SimError> {
        check_schedule(self.name(), schedule)?;
        Engine::new(cluster).run_with_disruptions(graph, &schedule.to_disruptions(graph))
    }
}

impl FaultInjectable for AggregateSimBackend {
    fn execute_with_faults(
        &self,
        cluster: &ClusterSpec,
        graph: &TaskGraph,
        schedule: &FaultSchedule,
    ) -> Result<Trace, SimError> {
        check_schedule(self.name(), schedule)?;
        Engine::with_model(cluster, SimModel::Aggregate)
            .run_with_disruptions(graph, &schedule.to_disruptions(graph))
    }
}

impl FaultInjectable for ThreadedBackend {
    fn execute_with_faults(
        &self,
        cluster: &ClusterSpec,
        graph: &TaskGraph,
        schedule: &FaultSchedule,
    ) -> Result<Trace, SimError> {
        check_schedule(self.name(), schedule)?;
        self.clone()
            .with_faults(schedule.to_injected(graph))
            .execute(cluster, graph)
    }
}

/// A [`Backend`] decorator that injects a fault schedule into every run.
///
/// Failures become errors on every backend: if the inner backend reports
/// failed tasks in its trace (the simulator's style), the first one is
/// converted to [`SimError::TaskFailed`], matching the threaded
/// runtime's abort-on-failure behavior.
#[derive(Debug, Clone)]
pub struct FaultyBackend<B> {
    inner: B,
    schedule: FaultSchedule,
}

impl<B: FaultInjectable> FaultyBackend<B> {
    /// Wraps `inner` so every execution runs under `schedule`.
    pub fn new(inner: B, schedule: FaultSchedule) -> Self {
        FaultyBackend { inner, schedule }
    }
}

impl<B: FaultInjectable> Backend for FaultyBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError> {
        let trace = self
            .inner
            .execute_with_faults(cluster, graph, &self.schedule)?;
        match failed_trace_error(self.inner.name(), &self.schedule, &trace, graph.len()) {
            Some(e) => Err(e),
            None => Ok(trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultEvent;
    use crossmesh_netsim::{FailureKind, LinkParams, Work};

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 2, LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0))
    }

    fn flow_graph(c: &ClusterSpec) -> TaskGraph {
        let mut g = TaskGraph::new();
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 4.0), []);
        g.add(Work::compute(c.device(1, 0), 0.5), [f]);
        g
    }

    #[test]
    fn an_empty_schedule_changes_nothing() {
        let c = cluster();
        let g = flow_graph(&c);
        let plain = SimBackend.execute(&c, &g).unwrap();
        let wrapped = FaultyBackend::new(SimBackend, FaultSchedule::new(0));
        let faulty = wrapped.execute(&c, &g).unwrap();
        assert_eq!(plain.makespan(), faulty.makespan());
        assert_eq!(wrapped.name(), "sim");
    }

    #[test]
    fn a_crash_surfaces_as_task_failed_on_the_simulator() {
        let c = cluster();
        let g = flow_graph(&c);
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 1, at: 0.0 });
        let err = FaultyBackend::new(SimBackend, schedule)
            .execute(&c, &g)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::TaskFailed {
                backend: "sim",
                kind: FailureKind::HostCrash,
                ..
            }
        ));
    }

    #[test]
    fn a_crash_surfaces_as_task_failed_on_the_runtime() {
        let c = cluster();
        let g = flow_graph(&c);
        let schedule = FaultSchedule::new(0)
            .with_retry_policy(1, 1e-4)
            .with_event(FaultEvent::HostCrash { host: 1, at: 0.0 });
        let err = FaultyBackend::new(ThreadedBackend::threads(), schedule)
            .execute(&c, &g)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::TaskFailed {
                backend: "threads",
                kind: FailureKind::HostCrash,
                ..
            }
        ));
    }

    #[test]
    fn an_invalid_schedule_is_rejected_not_panicked() {
        let c = cluster();
        let g = flow_graph(&c);
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::FlowDrop { prob: 2.0 });
        let err = SimBackend
            .execute_with_faults(&c, &g, &schedule)
            .unwrap_err();
        assert!(matches!(err, SimError::Backend { backend: "sim", .. }));
    }

    #[test]
    fn degradation_slows_the_sim_without_failing_it() {
        let c = cluster();
        let g = flow_graph(&c);
        let plain = SimBackend.execute(&c, &g).unwrap();
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::LinkDegrade {
            host: 0,
            factor: 0.25,
            from: 0.0,
            until: 100.0,
        });
        let degraded = FaultyBackend::new(SimBackend, schedule)
            .execute(&c, &g)
            .unwrap();
        assert!(degraded.makespan() > plain.makespan());
        assert!(degraded.failed_tasks().is_empty());
    }
}
