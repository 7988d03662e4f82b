//! The worker-process side of the proc backend.
//!
//! One worker hosts a set of whole ranks (their flat GPUs), which each
//! `Begin` names. It rebuilds the distributed graph deterministically from
//! the edge list its `Setup` ships — once: the worker keeps it for as long
//! as the coordinator keeps the pool. The superstep round is
//! [`WorkerRound`]: it takes each decoded coordinator message and hands
//! back the replies (the frame table in [`super::protocol`] says which
//! answers which), running the same per-GPU kernels as the sim driver on a
//! [`HostedGroup`]. The process around it
//! ([`run_worker`]) only reads and writes frames, on one thread and one
//! socket; it sends nothing to say it is alive. Between traversals it
//! waits with no deadline, for as long as the pool is kept. A worker
//! killed with SIGKILL at *any* point leaves no protocol state behind: its
//! exit closes the connection, which is how the coordinator learns of the
//! death, and the coordinator's checkpoints own all recovery.

use super::protocol::{
    decode_worker_config, Exchange, Images, Msg, ProtocolError, Stats, PROTO_VERSION,
};
use super::transport::{connect_with_backoff, recv_frame, send, TransportError};
use crate::comm::Block;
use crate::config::BfsConfig;
use crate::driver::DistributedGraph;
use crate::kernels::LocalIterationOutput;
use crate::superstep::HostedGroup;
use gcbfs_cluster::collectives::MaskContribution;
use gcbfs_cluster::fault::JitteredBackoff;
use std::borrow::Cow;
use std::path::Path;
use std::time::Duration;

/// Why the worker process exited abnormally.
#[derive(Debug)]
pub enum WorkerError {
    /// Transport failure (connect, deadline, or broken socket).
    Transport(TransportError),
    /// Malformed coordinator message.
    Protocol(ProtocolError),
    /// The shipped graph failed to rebuild.
    Graph(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "{e}"),
            Self::Protocol(e) => write!(f, "{e}"),
            Self::Graph(e) => write!(f, "graph rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<TransportError> for WorkerError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

impl From<ProtocolError> for WorkerError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// One worker's side of the superstep round, without sockets: what its
/// `Setup` left it — the graph and the worker-side config — and the
/// traversal in flight. [`Self::handle`] takes each
/// coordinator message and hands back the replies, so the process's
/// dispatcher only reads and writes frames, and a test's in-process link
/// runs this same round under the coordinator's
/// [`Round`](super::round::Round).
pub struct WorkerRound<'g> {
    dist: &'g DistributedGraph,
    config: BfsConfig,
    track_parents: bool,
    run: Option<Traversal>,
}

/// One traversal, from `Begin` to `Finish`.
struct Traversal {
    /// The hosted GPUs and the traversal steps the sim driver also runs.
    group: HostedGroup,
    /// `None` outside a superstep (the duplicate-frame guard: a second
    /// `StepRemote` finds nothing to do).
    in_flight: Option<InFlight>,
    duplicates_ignored: u64,
}

/// A superstep between `StepGo` and `StepRemote`.
struct InFlight {
    iter: u32,
    /// Parallel to the hosted flats.
    outputs: Vec<LocalIterationOutput>,
    /// The blocks for hosted destinations, which never leave the worker.
    held: Vec<Block>,
    /// This worker's own mask contributions, shipped in `StepLocal` too.
    contributions: Vec<MaskContribution>,
}

impl Traversal {
    fn stats(&self, iter: u32) -> Stats {
        let (frontier, new_delegates) = self.group.frontier_counts();
        Stats { iter, frontier, new_delegates }
    }
}

impl<'g> WorkerRound<'g> {
    /// A worker over `dist` under the worker-side `config`, with no
    /// traversal yet.
    pub fn new(dist: &'g DistributedGraph, config: BfsConfig, track_parents: bool) -> Self {
        Self { dist, config, track_parents, run: None }
    }

    /// Handles one coordinator message, handing each reply to `reply` as
    /// soon as it is formed:
    /// - `Begin` → `Ready`: a fresh traversal on the GPUs it names, built
    ///   as the sim driver builds them, then seeded from the source or,
    ///   with a resume, given the committed images. It replaces any
    ///   traversal in flight (a recovery) and keeps its count of ignored
    ///   duplicates.
    /// - `StepGo` → (`CheckpointSave`, when asked, before the kernels run;
    ///   the coordinator keeps the only copy) `StepLocal`: the local
    ///   kernels and the shared block formation. A stale superstep in
    ///   flight is superseded.
    /// - `StepRemote` → `StepDone`: reduce and consume every rank's mask
    ///   contribution, assemble deliveries in flat source order, form the
    ///   next frontiers. One with no superstep in flight — a duplicated or
    ///   stale frame — is counted and answers nothing.
    /// - `Finish` → `FinalState`, which ends the traversal.
    ///
    /// # Errors
    /// What `reply` returns; a source outside the graph; a message the
    /// round does not expect (anything but `Begin` outside a traversal);
    /// and the hosted group's refusals: a hosted flat outside the grid or
    /// repeated, resume images that are not one per hosted GPU, a mask
    /// contribution or block that does not reduce or deliver. A refused
    /// `Begin` leaves the worker as it was.
    pub fn handle<E: From<ProtocolError>>(
        &mut self,
        msg: Msg<'_>,
        mut reply: impl FnMut(Msg<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let kind = msg.kind();
        let unexpected =
            || ProtocolError::new(format!("unexpected frame kind {kind:#x} from coordinator"));
        if let Msg::Begin { source, hosted, resume } = msg {
            if source >= self.dist.num_vertices() {
                return Err(ProtocolError::new(format!("source {source} out of range")).into());
            }
            // The constructor rejects out-of-range and repeated flats.
            let mut group = HostedGroup::new(self.dist, &self.config, self.track_parents, &hosted)?;
            let iter = match resume {
                Some(cp) => group.restore(&cp.images).map(|()| cp.iter)?,
                None => {
                    group.seed_source(&self.dist.separation, source);
                    0
                }
            };
            let duplicates_ignored = self.run.as_ref().map_or(0, |t| t.duplicates_ignored);
            let t = self.run.insert(Traversal { group, in_flight: None, duplicates_ignored });
            return reply(Msg::Ready(t.stats(iter)));
        }
        let Some(t) = self.run.as_mut() else { return Err(unexpected().into()) };
        let mode = self.config.compression;
        match msg {
            Msg::StepGo { iter, checkpoint } => {
                if checkpoint {
                    reply(Msg::CheckpointSave(Images { iter, images: t.group.capture() }))?;
                }
                let mut outputs = t.group.compute(iter);
                let contributions = t.group.mask_contributions(&outputs, mode);
                let (held, blocks): (Vec<Block>, Vec<Block>) = t
                    .group
                    .outgoing_blocks(&mut outputs, &self.config)
                    .into_iter()
                    .partition(|b| t.group.hosts(b.dst));
                let f = t.in_flight.insert(InFlight { iter, outputs, held, contributions });
                let contributions = Cow::Borrowed(&f.contributions[..]);
                reply(Msg::StepLocal(Exchange { iter, contributions, blocks }))
            }
            Msg::StepRemote(x) => {
                let Some(mut f) = t.in_flight.take_if(|f| f.iter == x.iter) else {
                    t.duplicates_ignored += 1;
                    return Ok(());
                };
                f.contributions.extend(x.contributions.into_owned());
                f.held.extend(x.blocks);
                let next_depth = x.iter + 1;
                t.group.consume_contributions(&f.contributions, mode, next_depth)?;
                let delivered = t.group.deliveries(f.held)?;
                t.group.commit(&mut f.outputs, &delivered, next_depth);
                reply(Msg::StepDone(t.stats(x.iter)))
            }
            Msg::Finish => {
                let t = self.run.take().expect("a traversal is in flight");
                let images = t.group.capture();
                reply(Msg::FinalState { duplicates_ignored: t.duplicates_ignored, images })
            }
            _ => Err(unexpected().into()),
        }
    }

    /// The traversal's hosted group, between `Begin` and `Finish`.
    pub fn group(&self) -> Option<&HostedGroup> {
        self.run.as_ref().map(|t| &t.group)
    }

    /// The blocks the superstep in flight formed for GPUs this worker
    /// hosts: they never cross the wire (empty outside a superstep).
    pub fn held_blocks(&self) -> &[Block] {
        self.run.as_ref().and_then(|t| t.in_flight.as_ref()).map_or(&[], |f| &f.held)
    }
}

/// Runs the worker protocol to completion. `socket` is the coordinator's
/// listening path, `worker_id` this process's slot: `Hello`, the `Setup`,
/// then the dispatcher that feeds the [`WorkerRound`] decoded frames and
/// writes back its replies. Returns when the coordinator sends `Shutdown`,
/// or fails with a typed error when the coordinator vanishes — its socket
/// closing ends an idle wait, and a read deadline ends a traversal it
/// abandoned (the orphan path).
pub fn run_worker(socket: &Path, worker_id: u32) -> Result<(), WorkerError> {
    let backoff = JitteredBackoff::new(0x70726f63, worker_id as u64).with_envelope(0.005, 0.25, 12);
    let mut stream = connect_with_backoff(socket, &backoff)?;
    stream.set_write_timeout(Some(Duration::from_secs(30))).map_err(TransportError::from)?;
    send(&mut stream, &Msg::Hello { version: PROTO_VERSION, slot: worker_id })?;

    stream.set_read_timeout(Some(Duration::from_secs(120))).map_err(TransportError::from)?;
    let frame = recv_frame(&mut stream)?;
    let Msg::Setup(setup) = Msg::decode(&frame, None)? else {
        return Err(
            ProtocolError::new(format!("expected Setup, got kind {:#x}", frame.kind)).into()
        );
    };
    let (config, track_parents) = decode_worker_config(setup.config)?;
    let graph =
        gcbfs_graph::io::read_binary(setup.graph).map_err(|e| WorkerError::Graph(e.to_string()))?;
    let dist = DistributedGraph::build(&graph, setup.topo, &config)
        .map_err(|e| WorkerError::Graph(e.to_string()))?;
    // The pool keeps this process between runs; only the distributed form
    // is needed from here on.
    drop(graph);
    let mut round = WorkerRound::new(&dist, config, track_parents);

    // A traversal reads under a deadline of twice the step timeout: a
    // coordinator silent for that long mid-run is dead, and the worker
    // exits instead of lingering as an orphan. Between runs it waits
    // without one, for as long as the pool is kept.
    let in_flight = Some(Duration::from_millis((setup.step_timeout_ms * 2).max(10_000)));
    stream.set_read_timeout(None).map_err(TransportError::from)?;
    loop {
        let frame = recv_frame(&mut stream)?;
        let msg = Msg::decode(&frame, Some(&dist.topology))?;
        let finish = matches!(msg, Msg::Finish);
        match msg {
            Msg::Shutdown => return Ok(send(&mut stream, &Msg::Bye)?),
            Msg::Begin { .. } => {
                stream.set_read_timeout(in_flight).map_err(TransportError::from)?;
            }
            _ => {}
        }
        round.handle(msg, |reply| send(&mut stream, &reply).map_err(WorkerError::from))?;
        if finish {
            stream.set_read_timeout(None).map_err(TransportError::from)?;
        }
    }
}
