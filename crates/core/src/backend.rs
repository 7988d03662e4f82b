//! The backend seam: one trait, two runtimes.
//!
//! [`SimBackend`] is the deterministic in-process simulator — the
//! modeled-time path every golden test pins. [`ProcBackend`] runs the
//! same kernels in real worker OS processes behind the
//! [`procrt`](crate::procrt) coordinator. Both produce bit-identical
//! depths and parents: the kernels, the value pipeline, and the
//! end-of-run assembly are shared code, and the proc wire protocol
//! replicates the sim's delivery order exactly.
//!
//! [`ProcBackend`] keeps its worker processes between runs: a run on the
//! graph, topology and worker-side config the pool already holds costs
//! only its supersteps (see [`procrt`](crate::procrt) for the pool's key
//! and teardown rules).
//!
//! The seam is deliberately narrow — graph in, depths/parents out —
//! because everything *modeled* (device cost, fault plans, SDC
//! injection, observability spans, online verification) is sim-only by
//! nature: a real process has real time and real faults. [`ProcBackend`]
//! rejects configs that arm those features instead of silently ignoring
//! them.

use crate::config::BfsConfig;
use crate::driver::{BfsResult, BuildError, DistributedGraph};
use crate::procrt::{ProcError, ProcOptions, ProcPool, ProcReport, WorkerCommand};
use crate::verify::VerificationMode;
use gcbfs_cluster::topology::Topology;
use gcbfs_graph::{EdgeList, VertexId};
use std::sync::{Mutex, PoisonError};

/// What any backend returns: the values, plus whichever runtime telemetry
/// that backend produces.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// The BFS source vertex.
    pub source: VertexId,
    /// Global depths (`UNREACHED` for unreachable vertices).
    pub depths: Vec<u32>,
    /// The Graph500 parent tree, when requested.
    pub parents: Option<Vec<u64>>,
    /// The sim's full modeled result (sim backend only).
    pub sim: Option<BfsResult>,
    /// The proc runtime's report (proc backend only).
    pub proc: Option<ProcReport>,
}

/// Why a backend refused or failed a run.
#[derive(Debug)]
pub enum BackendError {
    /// Graph construction or source validation failed.
    Build(BuildError),
    /// The config arms a feature this backend cannot honor.
    Unsupported(&'static str),
    /// The multi-process runtime failed.
    Proc(ProcError),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Build(e) => write!(f, "{e}"),
            Self::Unsupported(what) => write!(f, "backend does not support {what}"),
            Self::Proc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build(e) => Some(e),
            Self::Proc(e) => Some(e),
            Self::Unsupported(_) => None,
        }
    }
}

impl From<BuildError> for BackendError {
    fn from(e: BuildError) -> Self {
        Self::Build(e)
    }
}

impl From<ProcError> for BackendError {
    fn from(e: ProcError) -> Self {
        Self::Proc(e)
    }
}

/// A BFS runtime: takes a graph, a topology, a source
/// and a config; returns depths (and parents on request).
pub trait Backend {
    /// Stable lower-case backend name for CLIs and reports.
    fn label(&self) -> &'static str;

    /// Runs one traversal.
    fn run(
        &self,
        graph: &EdgeList,
        topo: Topology,
        source: VertexId,
        config: &BfsConfig,
        track_parents: bool,
    ) -> Result<BackendRun, BackendError>;
}

/// The deterministic in-process simulator backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn label(&self) -> &'static str {
        "sim"
    }

    fn run(
        &self,
        graph: &EdgeList,
        topo: Topology,
        source: VertexId,
        config: &BfsConfig,
        track_parents: bool,
    ) -> Result<BackendRun, BackendError> {
        let dist = DistributedGraph::build(graph, topo, config)?;
        let result = if track_parents {
            dist.run_with_parents(source, config)?
        } else {
            dist.run(source, config)?
        };
        Ok(BackendRun {
            source,
            depths: result.depths.clone(),
            parents: result.parents.clone(),
            sim: Some(result),
            proc: None,
        })
    }
}

/// The multi-process backend: a pool of real worker processes behind the
/// [`procrt`](crate::procrt) coordinator, kept between runs.
///
/// The first run spawns the workers and ships them the graph. A later run
/// on the same graph, topology, worker-side config, `worker_cmd` and
/// `opts` (chaos aside) is served by the same processes, however long the
/// backend idled in between; one that needs anything else, or follows a
/// run that erred or recovered, replaces the pool. Dropping the backend
/// shuts every worker down and reaps it; cloning yields a backend with no
/// pool.
#[derive(Debug)]
pub struct ProcBackend {
    /// How to launch worker processes.
    pub worker_cmd: WorkerCommand,
    /// Runtime tuning (worker count, timeouts, chaos).
    pub opts: ProcOptions,
    pool: Mutex<ProcPool>,
}

impl ProcBackend {
    /// A proc backend launching workers via `worker_cmd` with `opts`. It
    /// spawns nothing until its first run.
    pub fn new(worker_cmd: WorkerCommand, opts: ProcOptions) -> Self {
        Self { worker_cmd, opts, pool: Mutex::default() }
    }
}

impl Clone for ProcBackend {
    fn clone(&self) -> Self {
        Self::new(self.worker_cmd.clone(), self.opts.clone())
    }
}

impl Backend for ProcBackend {
    fn label(&self) -> &'static str {
        "proc"
    }

    fn run(
        &self,
        graph: &EdgeList,
        topo: Topology,
        source: VertexId,
        config: &BfsConfig,
        track_parents: bool,
    ) -> Result<BackendRun, BackendError> {
        // Modeled-world features have no real-process counterpart;
        // refusing them beats silently returning a run that never
        // exercised what the caller armed.
        if config.verification != VerificationMode::Off {
            return Err(BackendError::Unsupported("online verification (sim-only)"));
        }
        if config.observability.is_on() {
            return Err(BackendError::Unsupported("observability tracing (sim-only)"));
        }
        if config.overlap {
            return Err(BackendError::Unsupported("modeled compute/comm overlap (sim-only)"));
        }
        // A run holds the coordinator outside the pool until it succeeds,
        // so a run that panicked left the pool empty, never half-updated.
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        let outcome =
            pool.run(graph, topo, source, config, track_parents, &self.worker_cmd, &self.opts)?;
        Ok(BackendRun {
            source,
            depths: outcome.depths,
            parents: outcome.parents,
            sim: None,
            proc: Some(outcome.report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_graph::builders;

    #[test]
    fn sim_backend_runs_and_labels() {
        let graph = builders::cycle(32);
        let b = SimBackend;
        assert_eq!(b.label(), "sim");
        let run = b.run(&graph, Topology::new(2, 2), 0, &BfsConfig::new(8), true).unwrap();
        assert_eq!(run.depths[0], 0);
        assert_eq!(run.depths[1], 1);
        assert!(run.parents.is_some());
        assert!(run.sim.is_some() && run.proc.is_none());
    }

    #[test]
    fn proc_backend_rejects_sim_only_features() {
        let graph = builders::cycle(8);
        let cmd = WorkerCommand::new("/bin/false", vec![]);
        let b = ProcBackend::new(cmd, ProcOptions::default());
        assert_eq!(b.label(), "proc");
        let cfg = BfsConfig::new(8).with_verification(VerificationMode::Checksums);
        match b.run(&graph, Topology::new(1, 1), 0, &cfg, false) {
            Err(BackendError::Unsupported(_)) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
        let cfg = BfsConfig::new(8).with_observability(gcbfs_trace::ObservabilityConfig::Full);
        assert!(matches!(
            b.run(&graph, Topology::new(1, 1), 0, &cfg, false),
            Err(BackendError::Unsupported(_))
        ));
    }

    #[test]
    fn proc_backend_refuses_options_before_spawning() {
        // `/bin/false` never says Hello: reaching the spawn would fail the
        // handshake instead of naming the field.
        let graph = builders::cycle(8);
        let cmd = WorkerCommand::new("/bin/false", vec![]);
        let zero = std::time::Duration::ZERO;
        for (field, opts) in [
            ("workers", ProcOptions { workers: 0, ..ProcOptions::default() }),
            ("step_timeout", ProcOptions { step_timeout: zero, ..ProcOptions::default() }),
        ] {
            let b = ProcBackend::new(cmd.clone(), opts);
            match b.run(&graph, Topology::new(2, 1), 0, &BfsConfig::new(8), false) {
                Err(BackendError::Proc(ProcError::InvalidOption { field: f, .. })) => {
                    assert_eq!(f, field)
                }
                other => panic!("{field}: expected InvalidOption, got {other:?}"),
            }
        }
    }

    #[test]
    fn proc_backend_refuses_a_kill_of_a_slot_the_run_does_not_have() {
        // The run has min(workers, ranks) slots: 2 of 2 workers on 4 ranks,
        // and 1 of 2 workers on 1 rank.
        let graph = builders::cycle(8);
        let cmd = WorkerCommand::new("/bin/false", vec![]);
        for (ranks, worker) in [(4, 3), (4, 2), (1, 1)] {
            let kill = Some(crate::procrt::KillSpec { worker, iter: 1 });
            let chaos = crate::procrt::ChaosSpec { kill };
            let b = ProcBackend::new(cmd.clone(), ProcOptions { chaos, ..ProcOptions::default() });
            let err = b.run(&graph, Topology::new(ranks, 1), 0, &BfsConfig::new(8), false);
            match err {
                Err(BackendError::Proc(
                    e @ ProcError::InvalidOption { field: "chaos.kill", .. },
                )) => {
                    assert!(e.to_string().contains("chaos.kill"), "{e}")
                }
                other => {
                    panic!("kill {worker} on {ranks} ranks: expected InvalidOption, got {other:?}")
                }
            }
        }
    }
}
