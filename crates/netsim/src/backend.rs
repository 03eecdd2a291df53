//! The execution-backend seam: anything that can run a [`TaskGraph`] on a
//! [`ClusterSpec`] and produce a [`Trace`].
//!
//! The paper's artifact separates the communication *plan* from the *engine
//! that runs it*; this trait is that seam. The discrete-event simulator
//! ([`SimBackend`]) predicts timing analytically, while real executors
//! (e.g. the thread/TCP runtime in `crossmesh-runtime`) move actual bytes
//! and report wall-clock timing in the same [`Trace`] shape, so planners,
//! schedules, and the timeline exporter (`crossmesh-obs`) work unchanged on
//! either.

use crate::engine::Engine;
use crate::error::SimError;
use crate::graph::TaskGraph;
use crate::topology::ClusterSpec;
use crate::trace::Trace;
use std::fmt::Debug;

/// An engine that can execute a lowered task graph on a cluster.
pub trait Backend: Debug {
    /// Short stable identifier (e.g. `"sim"`, `"threads"`, `"tcp"`), used
    /// by CLI flags and reports.
    fn name(&self) -> &'static str;

    /// Executes every task in `graph`, honoring its dependency edges, and
    /// returns per-task intervals in seconds plus NIC usage accounting.
    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError>;
}

impl<B: Backend + ?Sized> Backend for &B {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError> {
        (**self).execute(cluster, graph)
    }
}

impl<B: Backend + ?Sized> Backend for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError> {
        (**self).execute(cluster, graph)
    }
}

/// The discrete-event flow-level simulator as a [`Backend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError> {
        Engine::new(cluster).run(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkParams, Work};

    #[test]
    fn sim_backend_matches_engine() {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(10.0, 1.0));
        let mut g = TaskGraph::new();
        let f = g.add(Work::flow(c.device(0, 0), c.device(1, 0), 5.0), []);
        g.add(Work::compute(c.device(1, 0), 1.0), [f]);
        let direct = Engine::new(&c).run(&g).unwrap();
        let via_backend = SimBackend.execute(&c, &g).unwrap();
        assert_eq!(direct, via_backend);
        assert_eq!(SimBackend.name(), "sim");
    }

    #[test]
    fn backend_is_object_safe() {
        let c = ClusterSpec::homogeneous(1, 2, LinkParams::new(10.0, 1.0));
        let mut g = TaskGraph::new();
        g.add(Work::compute(c.device(0, 0), 0.25), []);
        let boxed: Box<dyn Backend> = Box::new(SimBackend);
        let trace = boxed.execute(&c, &g).unwrap();
        assert!(trace.makespan() > 0.0);
    }
}
