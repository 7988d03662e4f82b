//! The multi-process runtime behind the [`Backend`](crate::backend)
//! seam: a coordinator orchestrating a pool of worker OS processes, one
//! per hosted rank group, over Unix-domain sockets.
//!
//! The coordinator is two halves along one line. The [`round`] makes every
//! protocol decision of a run without sockets — supersteps, checkpoints,
//! recovery, assembly — and reaches the workers only through a
//! [`Link`](round::Link). The process pool (`coordinator.rs`) is the link
//! of a real run: processes, sockets, the death rule, the chaos kill and
//! traffic counts. A worker's half, [`worker::WorkerRound`], is
//! socket-free too, so a test drives the real round over in-process
//! workers under any schedule. The messages, who sends each and who
//! consumes it are the frame table in [`protocol`], the one owner of every
//! frame body.
//!
//! The pool outlives a run: the first run spawns the workers and ships
//! each one the same `Setup`, from which it builds the
//! [`DistributedGraph`](crate::driver::DistributedGraph) once and keeps
//! it; each run's `Begin` names the GPUs a worker hosts. A later run whose
//! graph, topology, worker-side config, worker command and
//! [`ProcOptions`] (the kill aside) all match is served by the same
//! processes and pays only its supersteps. A run that needs anything
//! else, a run that errs and a run that finds a worker gone (as after a
//! recovery by spreading) tear the pool down, and that run spawns afresh;
//! a pool that recovered onto a spare is whole and stays warm.
//!
//! The BSP superstep is the sim driver's, verbatim: each worker's round
//! runs the *same* [`GpuWorker::run_iteration`](crate::kernels::GpuWorker)
//! kernels on a hosted group, and the coordinator's round relays the mask
//! contributions unopened and routes the blocks. Both payloads are the
//! sim's own, formed already encoded — the masks by
//! [`collectives`](gcbfs_cluster::collectives), the blocks by
//! [`form_blocks`](crate::comm::form_blocks) — so the proc carries
//! exactly the bytes the sim prices. With the end-of-run assembly
//! ([`crate::assemble`]) shared as well, depths and parents are
//! bit-exact across backends by construction.
//!
//! Deaths are real, and the OS reports them: the workers are the
//! coordinator's own children, so a worker is dead exactly when its
//! connection closed or its process exited — the rule the pool applies
//! during a run, when the next run starts, and at the handshake. A
//! SIGKILL'd worker's socket closes at once, and the pool reaps it and
//! reports the death with nothing waited out; no worker sends a frame to
//! say it lives. A worker frozen whole with its socket open ends the run
//! with [`ProcError::StepTimeout`], as one whose main thread hangs does.
//! Idle workers wait between runs without a deadline, so a pool stays warm
//! however long it idles; a worker that left while idle is found when the
//! next run starts, which then runs on a fresh pool.
//!
//! Checkpoints are the sim's: one
//! [`checkpoint::Store`](crate::checkpoint::Store) of sealed per-GPU
//! images, taken where the sim takes them, at a superstep's barrier, on
//! the [`RecoveryConfig`](crate::recovery::RecoveryConfig) cadence, and
//! committed the sim's way: each worker's `StepDone` carries its GPUs'
//! state as a [`StateDelta`](crate::checkpoint::StateDelta) since its last
//! `Begin` or save, which the round folds into the store, the run's only
//! copy. Recovery asks the
//! sim's own decision,
//! [`RecoveryConfig::rehome`](crate::recovery::RecoveryConfig::rehome),
//! where the dead worker's partitions go — a freshly spawned spare process
//! or, in degraded mode, the least-loaded survivor — then sends every live
//! worker one more `Begin` naming the GPUs it now hosts, with their
//! committed images as a delta from iteration 0, and resumes at the commit.

pub mod protocol;
pub mod round;
pub mod transport;
pub mod worker;

mod coordinator;

pub use crate::recovery::RecoveryMode;
pub(crate) use coordinator::ProcPool;
pub use coordinator::WorkerCommand;

use crate::driver::BuildError;
use protocol::ProtocolError;
use std::path::PathBuf;
use std::time::Duration;
use transport::TransportError;

/// Kill a worker process mid-sweep (chaos harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// Worker slot to SIGKILL: below `min(workers, ranks)`, the slots a
    /// run has; a run refuses any other before it spawns.
    pub worker: u32,
    /// Superstep at which the kill fires (right after its `StepGo`).
    pub iter: u32,
}

/// Tuning of the multi-process runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcOptions {
    /// Worker processes in the pool, at least 1 (clamped to the rank
    /// count; ranks are assigned round-robin, whole ranks per worker).
    pub workers: u32,
    /// Deadline for one superstep's collective message round; positive.
    pub step_timeout: Duration,
    /// The chaos kill, if any: SIGKILL one worker at one superstep. It
    /// applies per run: a pool serves runs with different kills alike.
    pub kill: Option<KillSpec>,
    /// Directory for the coordinator socket (default: the OS temp dir).
    pub socket_dir: Option<PathBuf>,
}

impl ProcOptions {
    /// Refuses a field the runtime would silently change or that would
    /// fail every run, naming it. Checked before anything spawns.
    ///
    /// # Errors
    /// [`ProcError::InvalidOption`] for `workers == 0` or a zero
    /// `step_timeout`.
    pub fn validate(&self) -> Result<(), ProcError> {
        let (field, requirement) = if self.workers == 0 {
            ("workers", "at least one worker process")
        } else if self.step_timeout.is_zero() {
            ("step_timeout", "a positive deadline")
        } else {
            return Ok(());
        };
        Err(ProcError::InvalidOption { field, requirement })
    }
}

impl Default for ProcOptions {
    fn default() -> Self {
        Self { workers: 2, step_timeout: Duration::from_secs(60), kill: None, socket_dir: None }
    }
}

/// What one recovery cost, in real wall-clock seconds.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// The worker slot that died.
    pub worker: u32,
    /// How the partitions were re-homed.
    pub mode: RecoveryMode,
    /// The chaos kill to the pool hearing the worker's connection close
    /// (0 for a death no kill caused).
    pub detect_seconds: f64,
    /// Confirmation to the superstep loop resuming.
    pub recover_seconds: f64,
    /// The checkpoint superstep the run resumed from.
    pub resumed_iter: u32,
}

/// Runtime telemetry of one proc-backend run. Traffic counts are this
/// run's only: on a run that spawned the pool they include the handshake
/// and `Setup`; on a run the pool's workers served they run from `Begin`
/// to `FinalState`, and nothing the pool did while idle is in them.
#[derive(Clone, Debug, Default)]
pub struct ProcReport {
    /// Worker processes serving the run: the pool's width.
    pub workers: u32,
    /// Worker processes this run started: the pool's width on a run that
    /// spawned it, 0 on a run its existing workers served, plus one per
    /// spare taken in recovery.
    pub spawned: u32,
    /// Supersteps executed (committed, excluding rolled-back work).
    pub iterations: u32,
    /// Wall-clock seconds from the call to the assembled result; on a run
    /// that spawned the pool, spawn, handshake and the graph's shipping
    /// are inside.
    pub wall_seconds: f64,
    /// Frame bytes actually shipped over sockets, both directions
    /// (headers + sealed payloads): every frame of the run, each a function
    /// of the graph, the topology, the config and the recovery taken.
    pub wire_bytes: u64,
    /// The part of [`Self::wire_bytes`] that moved GPU state rather than a
    /// superstep: the frames [`protocol::carries_state`] names, whole —
    /// every `StepDone` that carried a save, every `FinalState`, and every
    /// `Begin` that carried a resume (its delta from iteration 0).
    pub state_bytes: u64,
    /// Data frames the coordinator sent.
    pub frames_sent: u64,
    /// Data frames the coordinator received.
    pub frames_received: u64,
    /// Always 0: no worker sends heartbeats. Kept while readers of the
    /// report still name it.
    pub heartbeats: u64,
    /// Image checkpoints committed, each counted once across the workers.
    /// `Begin`, the run's iteration-0 checkpoint, is not one.
    pub checkpoints: u64,
    /// The recovery that ran, if a worker was confirmed dead.
    pub recovery: Option<RecoveryReport>,
}

/// Why a proc-backend run failed. Socket-level detail is preserved in
/// the typed chain; none of these panic paths.
#[derive(Debug)]
pub enum ProcError {
    /// A [`ProcOptions`] field was refused before any process spawned.
    InvalidOption {
        /// The field, as named in [`ProcOptions`].
        field: &'static str,
        /// What it must hold instead.
        requirement: &'static str,
    },
    /// Building the distributed graph failed before any process spawned.
    Build(BuildError),
    /// Spawning or reaping a worker process failed.
    Spawn(String),
    /// Socket transport failure.
    Transport(TransportError),
    /// A peer sent a malformed or out-of-contract message.
    Protocol(ProtocolError),
    /// Version or identity mismatch during the handshake.
    Handshake {
        /// Worker slot (or claimed slot); `None` when the first frame
        /// named none.
        worker: Option<u32>,
        /// What did not match.
        detail: String,
    },
    /// A superstep round did not complete before the deadline.
    StepTimeout {
        /// The superstep that stalled.
        iter: u32,
    },
    /// A worker died and no recovery path remained.
    Unrecoverable {
        /// The confirmed-dead worker slot.
        worker: u32,
        /// The superstep at which recovery was abandoned.
        iter: u32,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidOption { field, requirement } => {
                write!(f, "invalid ProcOptions::{field}: needs {requirement}")
            }
            Self::Build(e) => write!(f, "{e}"),
            Self::Spawn(e) => write!(f, "worker spawn failed: {e}"),
            Self::Transport(e) => write!(f, "{e}"),
            Self::Protocol(e) => write!(f, "{e}"),
            Self::Handshake { worker: Some(worker), detail } => {
                write!(f, "handshake with worker {worker} failed: {detail}")
            }
            Self::Handshake { worker: None, detail } => write!(f, "handshake failed: {detail}"),
            Self::StepTimeout { iter } => write!(f, "superstep {iter} deadline elapsed"),
            Self::Unrecoverable { worker, iter } => {
                write!(f, "worker {worker} lost at superstep {iter} with no recovery path")
            }
        }
    }
}

impl std::error::Error for ProcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build(e) => Some(e),
            Self::Transport(e) => Some(e),
            Self::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for ProcError {
    fn from(e: BuildError) -> Self {
        Self::Build(e)
    }
}

impl From<TransportError> for ProcError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

impl From<ProtocolError> for ProcError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// Assigns ranks to worker slots round-robin and expands each slot's
/// hosted set to flat GPU indices (whole ranks per worker, so intra-rank
/// regrouping never crosses a process boundary). `workers` is at least 1
/// ([`ProcOptions::validate`]) and clamped to the rank count.
pub fn hosted_flats(topo: &gcbfs_cluster::topology::Topology, workers: u32) -> Vec<Vec<usize>> {
    assert!(workers > 0, "hosted_flats needs at least one worker");
    let w = workers.min(topo.num_ranks()) as usize;
    let gpr = topo.gpus_per_rank() as usize;
    let mut hosted = vec![Vec::new(); w];
    for rank in 0..topo.num_ranks() as usize {
        let slot = rank % w;
        hosted[slot].extend((rank * gpr)..(rank * gpr + gpr));
    }
    hosted
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::topology::Topology;

    #[test]
    fn hosting_is_round_robin_whole_ranks() {
        let topo = Topology::new(4, 2);
        let hosted = hosted_flats(&topo, 2);
        assert_eq!(hosted, vec![vec![0, 1, 4, 5], vec![2, 3, 6, 7]]);
        // Clamped to the rank count.
        let hosted = hosted_flats(&topo, 9);
        assert_eq!(hosted.len(), 4);
        assert_eq!(hosted[3], vec![6, 7]);
    }

    #[test]
    fn options_that_would_be_silently_changed_are_refused_by_name() {
        assert!(ProcOptions::default().validate().is_ok());
        let cases = [
            ("workers", ProcOptions { workers: 0, ..ProcOptions::default() }),
            (
                "step_timeout",
                ProcOptions { step_timeout: Duration::ZERO, ..ProcOptions::default() },
            ),
        ];
        for (name, opts) in cases {
            let err = opts.validate().unwrap_err();
            assert!(
                matches!(err, ProcError::InvalidOption { field, .. } if field == name),
                "{err}"
            );
            assert!(err.to_string().contains(name), "{err}");
        }
        // Above the rank count is clamped, as documented, not refused.
        assert!(ProcOptions { workers: 64, ..ProcOptions::default() }.validate().is_ok());
    }

    #[test]
    fn errors_name_no_sentinel_worker_or_superstep() {
        // A first frame that is not `Hello` names no worker.
        let detail = "first frame was kind 0x3, not Hello".to_string();
        let err = ProcError::Handshake { worker: None, detail };
        assert_eq!(err.to_string(), "handshake failed: first frame was kind 0x3, not Hello");
        let err = ProcError::Handshake { worker: Some(1), detail: "died before Ready".into() };
        assert_eq!(err.to_string(), "handshake with worker 1 failed: died before Ready");
        // A stall or death while the final state is collected names the
        // run's last superstep.
        assert_eq!(ProcError::StepTimeout { iter: 4 }.to_string(), "superstep 4 deadline elapsed");
        assert_eq!(
            ProcError::Unrecoverable { worker: 1, iter: 4 }.to_string(),
            "worker 1 lost at superstep 4 with no recovery path"
        );
    }
}
