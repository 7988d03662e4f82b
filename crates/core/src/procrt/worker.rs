//! The worker-process side of the proc backend.
//!
//! One worker hosts a set of whole ranks (their flat GPUs). It rebuilds
//! the distributed graph deterministically from the edge list its `Setup`
//! ships — once: the worker keeps it for as long as the coordinator keeps
//! the pool. Each `Begin{source}` seeds a fresh hosted group on that graph
//! and runs the same per-GPU kernels as the sim driver, superstep by
//! superstep, under the coordinator's `StepGo`/`StepRemote` cadence, until
//! `Finish` ships the final state; the worker then waits for the next
//! `Begin` or for `Shutdown`, with no deadline and no heartbeat, for as
//! long as the pool is kept. A background thread heartbeats on the
//! configured wall-clock period from `Hello` to the end of each
//! traversal; the main thread is a pure frame
//! dispatcher, so a worker killed with SIGKILL at *any* point leaves no
//! protocol state behind — the coordinator's detector and checkpoints own
//! all recovery.

use super::protocol::{
    kind, read_contributions, read_images, write_contributions, write_images, ConfigWire,
    ProtocolError, WireReader, WireWriter, PROTO_VERSION,
};
use super::transport::{connect_with_backoff, recv_frame, SharedWriter, TransportError};
use crate::comm::Block;
use crate::config::BfsConfig;
use crate::driver::DistributedGraph;
use crate::kernels::LocalIterationOutput;
use crate::superstep::HostedGroup;
use gcbfs_cluster::collectives::MaskContribution;
use gcbfs_cluster::fault::JitteredBackoff;
use gcbfs_cluster::topology::Topology;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

/// A superstep between `StepGo` and `StepRemote`: its iteration, outputs
/// (parallel to the hosted flats), the blocks for hosted destinations and
/// this worker's own mask contributions.
type InFlight = (u32, Vec<LocalIterationOutput>, Vec<Block>, Vec<MaskContribution>);

/// What a worker keeps from `Setup` to `Shutdown`.
struct Hosting {
    config: BfsConfig,
    track_parents: bool,
    dist: DistributedGraph,
    /// The flats `Setup` assigned; every `Begin` hosts exactly these.
    flats: Vec<usize>,
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

impl Traversal {
    fn stats_body(&self, iter: u32) -> Vec<u8> {
        let (frontier, new_delegates) = self.group.frontier_counts();
        let mut w = WireWriter::new();
        w.u32(iter);
        w.u64(frontier);
        w.u64(new_delegates);
        w.finish()
    }
}

/// The background heartbeat's controls. It beats from `Hello` to the end
/// of each traversal and is quiet while the worker idles between runs:
/// nobody listens then, and every run starts a fresh detector anyway.
struct Heartbeat {
    /// Provisional until `Setup` ships the configured period.
    period_ms: AtomicU64,
    quiet: AtomicBool,
    stop: AtomicBool,
}

/// Runs the worker protocol to completion. `socket` is the coordinator's
/// listening path, `worker_id` this process's slot. Returns when the
/// coordinator sends `Shutdown`, or fails with a typed error when the
/// coordinator vanishes — its socket closing ends an idle wait, and a
/// read deadline ends a traversal it abandoned (the orphan path).
pub fn run_worker(socket: &Path, worker_id: u32) -> Result<(), WorkerError> {
    let backoff = JitteredBackoff::new(0x70726f63, worker_id as u64).with_envelope(0.005, 0.25, 12);
    let stream = connect_with_backoff(socket, &backoff)?;
    let mut reader = stream.try_clone().map_err(TransportError::Io)?;
    let writer = SharedWriter::new(stream);
    writer.set_write_deadline(Some(Duration::from_secs(30)))?;

    // Hello: version + identity, first frame on the wire.
    let mut hello = WireWriter::new();
    hello.u32(PROTO_VERSION);
    hello.u32(worker_id);
    writer.send(kind::HELLO, hello.finish())?;

    // Heartbeats start NOW, before setup: decoding and building a large
    // graph takes real wall-clock time, and a silent worker would be
    // confirmed dead by the phi-accrual detector before it ever sent
    // Ready. The mutex-serialized writer keeps beat frames from tearing
    // data frames. The thread parks between beats rather than sleeping,
    // so an unpark makes it beat (or stop) at once: a `Begin` is heard
    // from without a period's delay, and the worker's exit does not wait
    // out a beat period.
    let beat = Arc::new(Heartbeat {
        period_ms: AtomicU64::new(25),
        quiet: AtomicBool::new(false),
        stop: AtomicBool::new(false),
    });
    let hb = {
        let hb_writer = writer.clone();
        let beat = Arc::clone(&beat);
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !beat.stop.load(Ordering::Relaxed) {
                if beat.quiet.load(Ordering::Relaxed) {
                    std::thread::park(); // until a `Begin` or the stop
                    continue;
                }
                let mut b = WireWriter::new();
                b.u32(worker_id);
                b.u64(seq);
                if hb_writer.send(kind::HEARTBEAT, b.finish()).is_err() {
                    break; // coordinator gone; main loop will notice too
                }
                seq += 1;
                std::thread::park_timeout(Duration::from_millis(
                    beat.period_ms.load(Ordering::Relaxed).max(1),
                ));
            }
        })
    };
    let result = worker_body(&mut reader, &writer, &beat, hb.thread());
    beat.stop.store(true, Ordering::Relaxed);
    hb.thread().unpark();
    let _ = hb.join();
    result
}

/// Everything after Hello: setup and the dispatch loop. Split out so
/// `run_worker` can stop the heartbeat thread on any exit path.
fn worker_body(
    reader: &mut std::os::unix::net::UnixStream,
    writer: &SharedWriter,
    beat: &Heartbeat,
    beat_thread: &std::thread::Thread,
) -> Result<(), WorkerError> {
    // Setup: topology, config, timing knobs, hosted set, graph.
    reader.set_read_timeout(Some(Duration::from_secs(120))).map_err(TransportError::from)?;
    let setup = recv_frame(reader)?;
    if setup.kind != kind::SETUP {
        return Err(
            ProtocolError::new(format!("expected Setup, got kind {:#x}", setup.kind)).into()
        );
    }
    let mut r = WireReader::new(setup.payload());
    let prank = r.u32()?;
    let pgpu = r.u32()?;
    let spares = r.u32()?;
    let topo = Topology::new(prank, pgpu).with_spares(spares);
    let config_wire = ConfigWire::decode(&mut r)?;
    let heartbeat_ms = r.u64()?;
    beat.period_ms.store(heartbeat_ms.max(1), Ordering::Relaxed);
    let step_timeout_ms = r.u64()?;
    let flats: Vec<usize> = r.u32s()?.into_iter().map(|f| f as usize).collect();
    let graph_bytes = r.bytes()?;
    let graph =
        gcbfs_graph::io::read_binary(graph_bytes).map_err(|e| WorkerError::Graph(e.to_string()))?;
    r.expect_end()?;

    let config = config_wire.to_config();
    let dist = DistributedGraph::build(&graph, topo, &config)
        .map_err(|e| WorkerError::Graph(e.to_string()))?;
    // The pool keeps this process between runs; only the distributed form
    // is needed from here on.
    drop(graph);
    let hosting = Hosting { config, track_parents: config_wire.track_parents, dist, flats };

    // From here the worker is a dispatcher. A traversal reads under a
    // deadline of twice the step timeout: a coordinator silent for that
    // long mid-run is dead, and the worker exits instead of lingering as
    // an orphan. Between runs it waits without one, for as long as the
    // pool is kept.
    let in_flight = Some(Duration::from_millis((step_timeout_ms * 2).max(10_000)));
    reader.set_read_timeout(None).map_err(TransportError::from)?;
    let mut run: Option<Traversal> = None;
    loop {
        let frame = recv_frame(reader)?;
        let payload = frame.payload().to_vec();
        let mut r = WireReader::new(&payload);
        match (frame.kind, run.as_mut()) {
            (kind::BEGIN, _) => {
                reader.set_read_timeout(in_flight).map_err(TransportError::from)?;
                beat.quiet.store(false, Ordering::Relaxed);
                beat_thread.unpark();
                run = Some(begin(&hosting, &mut r, writer)?);
            }
            (kind::STEP_GO, Some(t)) => step_go(&hosting, t, &mut r, writer)?,
            (kind::STEP_REMOTE, Some(t)) => step_remote(&hosting, t, &mut r, writer)?,
            (kind::RESTORE, Some(t)) => restore(&hosting, t, &mut r, writer)?,
            (kind::FINISH, Some(t)) => {
                let mut w = WireWriter::new();
                w.u64(t.duplicates_ignored);
                write_images(&mut w, &t.group.capture());
                writer.send(kind::FINAL_STATE, w.finish())?;
                reader.set_read_timeout(None).map_err(TransportError::from)?;
                beat.quiet.store(true, Ordering::Relaxed);
                run = None;
            }
            (kind::SHUTDOWN, _) => {
                writer.send(kind::BYE, Vec::new())?;
                return Ok(());
            }
            (k, _) => {
                return Err(ProtocolError::new(format!(
                    "unexpected frame kind {k:#x} from coordinator"
                ))
                .into())
            }
        }
    }
}

/// `Begin`: a fresh traversal from the source on the graph kept since
/// `Setup`, built and seeded exactly as the sim driver does; `Ready`
/// carries its frontier statistics.
fn begin(
    h: &Hosting,
    r: &mut WireReader<'_>,
    writer: &SharedWriter,
) -> Result<Traversal, WorkerError> {
    let source = r.u64()?;
    r.expect_end()?;
    if source >= h.dist.num_vertices() {
        return Err(ProtocolError::new(format!("source {source} out of range")).into());
    }
    // The group constructor rejects out-of-range and repeated hosted flats.
    let mut group = HostedGroup::new(&h.dist, &h.config, h.track_parents, &h.flats)?;
    group.seed_source(&h.dist.separation, source);
    let t = Traversal { group, in_flight: None, duplicates_ignored: 0 };
    writer.send(kind::READY, t.stats_body(0))?;
    Ok(t)
}

/// `StepGo`: optional checkpoint save (the coordinator keeps the only
/// copy), local kernels, the shared block formation, `StepLocal` reply.
fn step_go(
    h: &Hosting,
    t: &mut Traversal,
    r: &mut WireReader<'_>,
    writer: &SharedWriter,
) -> Result<(), WorkerError> {
    let iter = r.u32()?;
    let take_checkpoint = r.u8()? != 0;
    r.expect_end()?;

    if take_checkpoint {
        let mut w = WireWriter::new();
        w.u32(iter);
        write_images(&mut w, &t.group.capture());
        writer.send(kind::CHECKPOINT_SAVE, w.finish())?;
    }

    let mut outputs = t.group.compute(iter);

    // Mask contributions and blocks ship exactly as formed; the worker
    // keeps its own contributions and the blocks for hosted destinations
    // for `StepRemote`. Stale ones from an aborted superstep (a restore
    // raced a StepGo) are superseded.
    let contributions = t.group.mask_contributions(&outputs, h.config.compression);
    let (local, out_blocks): (Vec<Block>, Vec<Block>) = t
        .group
        .outgoing_blocks(&mut outputs, &h.config)
        .into_iter()
        .partition(|b| t.group.hosts(b.dst));

    let mut w = WireWriter::new();
    w.u32(iter);
    write_contributions(&mut w, &contributions);
    w.u32(out_blocks.len() as u32);
    for b in &out_blocks {
        b.encode(&mut w);
    }
    writer.send(kind::STEP_LOCAL, w.finish())?;
    t.in_flight = Some((iter, outputs, local, contributions));
    Ok(())
}

/// `StepRemote`: reduce and consume every rank's mask contribution,
/// assemble deliveries in flat source order, form next frontiers, barrier
/// with `StepDone`.
fn step_remote(
    h: &Hosting,
    t: &mut Traversal,
    r: &mut WireReader<'_>,
    writer: &SharedWriter,
) -> Result<(), WorkerError> {
    let iter = r.u32()?;
    let Some((_, mut outputs, mut blocks, mut contributions)) =
        t.in_flight.take_if(|f| f.0 == iter)
    else {
        // No superstep in flight: a duplicated or stale frame. Tolerated
        // and counted — the socket layer may legitimately replay.
        t.duplicates_ignored += 1;
        return Ok(());
    };

    let topo = h.dist.topology;
    contributions.extend(read_contributions(r, topo.num_ranks())?);
    let nblocks = r.u32()? as usize;
    for _ in 0..nblocks {
        blocks.push(Block::decode(r, topo.num_gpus() as usize)?);
    }
    r.expect_end()?;

    let next_depth = iter + 1;
    t.group.consume_contributions(&contributions, h.config.compression, next_depth)?;
    let delivered = t.group.deliveries(blocks)?;
    t.group.commit(&mut outputs, &delivered, next_depth);

    writer.send(kind::STEP_DONE, t.stats_body(iter))?;
    Ok(())
}

/// `Restore`: install the coordinator's committed images of every GPU
/// this worker hosts from now on — adopted ones built fresh — and vacate
/// any superstep in flight. Every image is decoded and verified before
/// any is installed.
fn restore(
    h: &Hosting,
    t: &mut Traversal,
    r: &mut WireReader<'_>,
    writer: &SharedWriter,
) -> Result<(), WorkerError> {
    let iter = r.u32()?;
    let images = read_images(r, h.dist.topology.num_gpus() as usize)?;
    r.expect_end()?;
    t.group.restore(&h.dist, &h.config, h.track_parents, &images)?;
    t.in_flight = None;
    writer.send(kind::RESTORED, t.stats_body(iter))?;
    Ok(())
}
