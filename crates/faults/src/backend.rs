//! The one backend handle: [`BackendKind`] names the engine that runs a
//! lowered task graph, clean or under a [`FaultSchedule`].
//!
//! The simulator realizes a schedule as first-class engine events
//! ([`Disruptions`](crossmesh_netsim::Disruptions)), the threaded runtime
//! as injected wall-clock delays, drops, and dead hosts
//! ([`InjectedFaults`](crossmesh_runtime::InjectedFaults)). As a plain
//! [`Backend`] it runs clean, so everything written against that trait
//! (plan execution, pipelines, benches) takes a `BackendKind` unchanged.

use crate::schedule::FaultSchedule;
use crossmesh_netsim::{Backend, ClusterSpec, Engine, SimBackend, SimError, TaskGraph, Trace};
use crossmesh_runtime::ThreadedBackend;

/// Which execution backend runs a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Flow-level simulator (fast, deterministic; the default).
    Sim,
    /// Real multi-threaded execution with in-process channels.
    Threads,
    /// Threads plus TCP loopback for inter-host flows.
    Tcp,
}

impl BackendKind {
    /// Parses the CLI's backend names (`sim`, `threads`, `tcp`).
    ///
    /// # Errors
    ///
    /// A message naming the unknown backend.
    pub fn parse(name: &str) -> Result<BackendKind, String> {
        match name {
            "sim" => Ok(BackendKind::Sim),
            "threads" => Ok(BackendKind::Threads),
            "tcp" => Ok(BackendKind::Tcp),
            other => Err(format!("unknown backend {other:?}")),
        }
    }

    /// Executes `graph` with `schedule` injected; the empty schedule is
    /// the clean run.
    ///
    /// Backends differ in how failures surface: the simulator completes
    /// the run and reports failed tasks via
    /// [`Trace::failed_tasks`](crossmesh_netsim::Trace::failed_tasks)
    /// (with the partial timeline intact), while the threaded runtime
    /// aborts on the first failure with [`SimError::TaskFailed`].
    ///
    /// # Errors
    ///
    /// Backend errors, plus [`SimError::Backend`] if the schedule fails
    /// [`FaultSchedule::validate`].
    pub fn execute_with_faults(
        self,
        cluster: &ClusterSpec,
        graph: &TaskGraph,
        schedule: &FaultSchedule,
    ) -> Result<Trace, SimError> {
        schedule.validate().map_err(|message| SimError::Backend {
            backend: self.name(),
            message: format!("invalid fault schedule: {message}"),
        })?;
        let runtime = match self {
            BackendKind::Sim => {
                return Engine::new(cluster)
                    .run_with_disruptions(graph, &schedule.to_disruptions(graph))
            }
            BackendKind::Threads => ThreadedBackend::threads(),
            BackendKind::Tcp => ThreadedBackend::tcp(),
        };
        runtime
            .with_faults(schedule.to_injected(graph))
            .execute(cluster, graph)
    }
}

impl Backend for BackendKind {
    fn name(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Threads => "threads",
            BackendKind::Tcp => "tcp",
        }
    }

    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError> {
        match self {
            BackendKind::Sim => SimBackend.execute(cluster, graph),
            BackendKind::Threads => ThreadedBackend::threads().execute(cluster, graph),
            BackendKind::Tcp => ThreadedBackend::tcp().execute(cluster, graph),
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
        let faulty = BackendKind::Sim
            .execute_with_faults(&c, &g, &FaultSchedule::new(0))
            .unwrap();
        assert_eq!(plain, faulty);
        assert_eq!(BackendKind::Sim.execute(&c, &g).unwrap(), plain);
    }

    #[test]
    fn a_crash_fails_tasks_in_the_simulator_trace() {
        let c = cluster();
        let g = flow_graph(&c);
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 1, at: 0.0 });
        let trace = BackendKind::Sim
            .execute_with_faults(&c, &g, &schedule)
            .unwrap();
        assert!(!trace.failed_tasks().is_empty());
    }

    #[test]
    fn a_crash_surfaces_as_task_failed_on_the_runtime() {
        let c = cluster();
        let g = flow_graph(&c);
        let schedule = FaultSchedule::new(0)
            .with_retry_policy(1, 1e-4)
            .with_event(FaultEvent::HostCrash { host: 1, at: 0.0 });
        let err = BackendKind::Threads
            .execute_with_faults(&c, &g, &schedule)
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
        for backend in [BackendKind::Sim, BackendKind::Threads] {
            let err = backend.execute_with_faults(&c, &g, &schedule).unwrap_err();
            assert!(
                matches!(err, SimError::Backend { backend: b, .. } if b == backend.name()),
                "{err}"
            );
        }
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
        let degraded = BackendKind::Sim
            .execute_with_faults(&c, &g, &schedule)
            .unwrap();
        assert!(degraded.makespan() > plain.makespan());
        assert!(degraded.failed_tasks().is_empty());
    }
}
