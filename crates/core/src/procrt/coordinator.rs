//! The coordinator side of the proc backend: a pool of worker OS
//! processes, one per worker slot, kept between runs. It drives the BSP
//! superstep protocol over Unix-domain sockets, feeds real heartbeat
//! arrivals into the phi-accrual detector, and recovers confirmed-dead
//! workers from sealed checkpoints.
//!
//! A run on a pool whose workers hold its graph, topology and worker-side
//! config, under the same command and options, is `Begin{source}`, its
//! supersteps and the final state. Any other run spawns the pool first —
//! bind, spawn, `Hello`, `Setup` — and then takes the same path. The pool
//! is torn down when a run errs or recovers, when a run needs another
//! key, and when it is dropped.
//!
//! Death is decided by the detector, never by a closed socket: a worker
//! whose connection drops keeps its slot until heartbeat *silence*
//! accrues past the wall profile's confirmation threshold. Only then does
//! recovery engage — reap the child, re-home the dead slot's partitions
//! by the shared [`RecoveryConfig::rehome`] decision onto a freshly
//! spawned spare (same slot, new generation) or the least-loaded
//! survivor, and send every live worker the committed images
//! of the GPUs it now hosts in one `Restore` round. The coordinator's
//! committed store is the only checkpoint copy: a checkpoint commits only
//! once every GPU's sealed image for that iteration arrived, so a death
//! racing the capture falls back to the previous committed one.

use super::protocol::{
    kind, read_contributions, read_images, write_contributions, write_images, ConfigWire,
    ProtocolError, WireReader, WireWriter, PROTO_VERSION,
};
use super::transport::TransportError;
use super::{hosted_flats, ChaosSpec, ProcError, ProcOptions, ProcReport, RecoveryReport};
use crate::assemble::{assemble_depths, assemble_parents, GpuStateView};
use crate::checkpoint::GpuStateImage;
use crate::comm::Block;
use crate::config::BfsConfig;
use crate::driver::BuildError;
use crate::recovery::{RecoveryConfig, RecoveryMode};
use crate::separation::Separation;
use gcbfs_cluster::clock::{Clock, WallClock};
use gcbfs_cluster::collectives::MaskContribution;
use gcbfs_cluster::membership::{Membership, MembershipConfig, MembershipEvent};
use gcbfs_cluster::topology::Topology;
use gcbfs_compress::Frame;
use gcbfs_graph::{EdgeList, VertexId};
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How to launch a worker process. The coordinator appends
/// `--socket <path> --worker <slot>` to `args`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerCommand {
    /// Executable to spawn (typically `std::env::current_exe()` plus a
    /// hidden subcommand in `args`).
    pub program: PathBuf,
    /// Leading arguments (e.g. `["backend-worker"]`).
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// A command running `program` with the given leading arguments.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        Self { program: program.into(), args }
    }
}

/// The assembled result of a proc-backend run.
#[derive(Clone, Debug)]
pub(crate) struct ProcOutcome {
    /// Global BFS depths, bit-exact with the sim backend.
    pub depths: Vec<u32>,
    /// The Graph500 parent tree, when requested.
    pub parents: Option<Vec<u64>>,
    /// Runtime telemetry (wire bytes, heartbeats, recovery timing).
    pub report: ProcReport,
}

/// Monotone discriminator for socket filenames within this process.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// How long a torn-down pool waits for its workers' `Bye` before it
/// kills the ones that did not answer.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Messages from per-connection reader threads to the coordinator's
/// event pump. `gen` guards against a stale reader (pre-recovery
/// connection) speaking for a replacement worker in the same slot.
enum Event {
    /// A complete frame arrived on slot `slot`'s connection.
    Frame { slot: usize, gen: u32, frame: Frame },
    /// Slot `slot`'s connection closed or broke mid-frame.
    Closed { slot: usize, gen: u32 },
}

/// What the event pump yielded to a collection loop.
enum Waited {
    /// A data frame from a live, current-generation connection.
    Data { slot: usize, frame: Frame },
    /// The detector confirmed this slot dead.
    Dead(usize),
}

struct Slot {
    child: Option<Child>,
    stream: Option<UnixStream>,
    gen: u32,
    /// Participating in the protocol (false once reaped/recovered-away).
    alive: bool,
    hosted: Vec<usize>,
    frontier: u64,
    new_delegates: u64,
    /// A heartbeat arrived since the last silence tick.
    beat_seen: bool,
}

/// A pool of worker processes and the coordinator driving them, kept
/// between runs. Empty until the first run; dropping it tears the pool
/// down.
#[derive(Default)]
pub(crate) struct ProcPool(Option<Coordinator>);

impl std::fmt::Debug for ProcPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let workers = self.0.as_ref().map(|co| co.slots.len());
        f.debug_struct("ProcPool").field("workers", &workers).finish()
    }
}

impl ProcPool {
    /// Runs BFS from `source`: on the pool's workers when they hold this
    /// graph, topology and worker-side config under the same command and
    /// options (chaos aside), else on a freshly spawned pool. Assembles
    /// depths (and parents) from the workers' final state. The pool is
    /// kept for the next run unless this one erred or recovered.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        graph: &EdgeList,
        topo: Topology,
        source: VertexId,
        config: &BfsConfig,
        track_parents: bool,
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
    ) -> Result<ProcOutcome, ProcError> {
        opts.validate()?;
        if source >= graph.num_vertices {
            return Err(
                BuildError::SourceOutOfRange { source, num_vertices: graph.num_vertices }.into()
            );
        }
        let started = Instant::now();
        let config_wire = ConfigWire::from_config(config, track_parents);
        // Every run, warm or cold, starts from the same fresh state.
        let fresh = || RunState::new(source, config.recovery, topo, opts);
        // A matching pool resumes unless a worker left while it idled; one
        // that cannot begin is torn down, and the run goes cold — once.
        let warm =
            self.0.take().filter(|co| co.serves(graph, topo, &config_wire, worker_cmd, opts));
        let warm = warm.and_then(|mut co| (co.resume(fresh()) && co.begin().is_ok()).then_some(co));
        let mut co = match warm {
            Some(co) => co,
            None => {
                let mut co =
                    Coordinator::spawn(graph, topo, config_wire, worker_cmd, opts, fresh())?;
                co.begin()?;
                co
            }
        };
        let iterations = co.superstep_loop()?;
        let (depths, parents) = co.finish()?;
        let mut report = std::mem::take(&mut co.report);
        report.iterations = iterations;
        report.wall_seconds = started.elapsed().as_secs_f64();
        // A recovery changed who hosts what: that pool no longer matches.
        if report.recovery.is_none() {
            self.0 = Some(co);
        }
        Ok(ProcOutcome { depths, parents, report })
    }
}

/// What every run starts afresh: its source, the detector and its clock,
/// the checkpoint store, the spare budget and the chaos.
struct RunState {
    source: VertexId,
    /// Checkpoint cadence and the re-homing decision.
    recovery: RecoveryConfig,
    chaos: ChaosSpec,
    clock: WallClock,
    membership: Membership,
    last_tick: Instant,
    /// Committed checkpoint — the run's only copy: its iteration and one
    /// sealed image per GPU, indexed by flat.
    cp_iter: Option<u32>,
    cp_store: Vec<GpuStateImage>,
    /// Uncommitted saves: iter -> gpu_flat -> image.
    staged: HashMap<u32, HashMap<u32, GpuStateImage>>,
    spares_left: u32,
    kill_fired: bool,
    kill_time: Option<Instant>,
}

impl RunState {
    /// The state a run from `source` starts with on a pool of `topo` under
    /// `opts`, whether the pool is fresh or kept.
    fn new(source: VertexId, recovery: RecoveryConfig, topo: Topology, opts: &ProcOptions) -> Self {
        let nslots = hosted_flats(&topo, opts.workers).len();
        Self {
            source,
            recovery,
            chaos: opts.chaos,
            clock: WallClock::new(opts.heartbeat_period.as_secs_f64()),
            membership: Membership::new(nslots, 0, MembershipConfig::wall_defaults()),
            last_tick: Instant::now(),
            cp_iter: None,
            cp_store: Vec::new(),
            staged: HashMap::new(),
            spares_left: topo.num_spares(),
            kill_fired: false,
            kill_time: None,
        }
    }
}

struct Coordinator {
    // ---- What the pool holds, from spawn to teardown. ----
    topo: Topology,
    config_wire: ConfigWire,
    /// The degree classification every worker computes too; assembly
    /// reuses it.
    separation: Separation,
    /// The options the pool was spawned with (their `chaos` is unused:
    /// each run brings its own).
    opts: ProcOptions,
    worker_cmd: WorkerCommand,
    /// The graph in its serialised `Setup` form: the pool's only copy,
    /// what a later run's graph is compared against, and what a spare's
    /// `Setup` ships.
    graph_bytes: Vec<u8>,
    num_vertices: u64,
    socket_path: PathBuf,
    listener: UnixListener,
    slots: Vec<Slot>,
    /// Flat GPU -> hosting slot.
    hosting_of: Vec<usize>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    // ---- The current run's. ----
    run: RunState,
    /// Taken when the run ends, so the next one counts from zero.
    report: ProcReport,
}

impl Drop for Coordinator {
    /// Tears the pool down: `Shutdown` to every connected worker, a
    /// bounded wait for each `Bye`, SIGKILL for any that did not answer,
    /// every child reaped and the socket file removed.
    fn drop(&mut self) {
        let mut waiting = Vec::new();
        for slot in 0..self.slots.len() {
            if self.slots[slot].child.is_some()
                && self.send(slot, kind::SHUTDOWN, Vec::new()).is_ok()
            {
                waiting.push(slot);
            }
        }
        let mut said_bye = vec![false; self.slots.len()];
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while !waiting.is_empty() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
            let (slot, gen, bye) = match self.rx.recv_timeout(left) {
                Ok(Event::Frame { slot, gen, frame }) if frame.kind == kind::BYE => {
                    (slot, gen, true)
                }
                // Gone without a word: nothing left to wait for.
                Ok(Event::Closed { slot, gen }) => (slot, gen, false),
                Ok(Event::Frame { .. }) => continue,
                Err(_) => break,
            };
            if gen == self.slots[slot].gen && waiting.contains(&slot) {
                said_bye[slot] = bye;
                waiting.retain(|&s| s != slot);
            }
        }
        for (slot, bye) in self.slots.iter_mut().zip(said_bye) {
            if let Some(mut child) = slot.child.take() {
                if !bye {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

impl Coordinator {
    /// The pool's cold start, for the first run it serves (`run`): bind
    /// the socket, spawn one worker per slot, take each one's `Hello` and
    /// ship it its `Setup`. Everything counts into that run's report.
    fn spawn(
        graph: &EdgeList,
        topo: Topology,
        config_wire: ConfigWire,
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
        run: RunState,
    ) -> Result<Self, ProcError> {
        let mut co = Self::bind(graph, topo, config_wire, worker_cmd, opts, run)?;
        let nslots = co.slots.len();
        for slot in 0..nslots {
            co.spawn_child(slot)?;
        }
        co.accept_workers((0..nslots).collect())?;
        for slot in 0..nslots {
            co.send_setup(slot)?;
        }
        Ok(co)
    }

    fn bind(
        graph: &EdgeList,
        topo: Topology,
        config_wire: ConfigWire,
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
        run: RunState,
    ) -> Result<Self, ProcError> {
        let separation =
            Separation::from_degrees(&graph.out_degrees(), config_wire.degree_threshold);
        let mut graph_bytes = Vec::new();
        gcbfs_graph::io::write_binary(graph, &mut graph_bytes)
            .map_err(|e| ProcError::Spawn(format!("graph serialization failed: {e}")))?;

        let dir = opts.socket_dir.clone().unwrap_or_else(std::env::temp_dir);
        let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
        let socket_path = dir.join(format!("gcbfs-{}-{}.sock", std::process::id(), seq));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)
            .map_err(|e| ProcError::Spawn(format!("bind {} failed: {e}", socket_path.display())))?;
        listener.set_nonblocking(true).map_err(TransportError::Io)?;

        let hosted = hosted_flats(&topo, opts.workers);
        let mut hosting_of = vec![0usize; topo.num_gpus() as usize];
        for (slot, flats) in hosted.iter().enumerate() {
            for &f in flats {
                hosting_of[f] = slot;
            }
        }
        let slots = hosted
            .into_iter()
            .map(|flats| Slot {
                child: None,
                stream: None,
                gen: 0,
                alive: true,
                hosted: flats,
                frontier: 0,
                new_delegates: 0,
                beat_seen: false,
            })
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        Ok(Self {
            topo,
            config_wire,
            separation,
            opts: opts.clone(),
            worker_cmd: worker_cmd.clone(),
            graph_bytes,
            num_vertices: graph.num_vertices,
            socket_path,
            listener,
            slots,
            hosting_of,
            tx,
            rx,
            run,
            report: ProcReport::default(),
        })
    }

    /// True when this pool's workers hold exactly what a run with these
    /// arguments needs: the same graph (compared edge for edge against the
    /// retained `Setup` bytes), topology, worker-side config and command,
    /// and the same options apart from the per-run chaos.
    fn serves(
        &self,
        graph: &EdgeList,
        topo: Topology,
        config_wire: &ConfigWire,
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
    ) -> bool {
        self.topo == topo
            && self.config_wire == *config_wire
            && self.worker_cmd == *worker_cmd
            && ProcOptions { chaos: self.opts.chaos, ..opts.clone() } == self.opts
            && gcbfs_graph::io::matches_binary(graph, &self.graph_bytes)
    }

    /// Readies an idle pool for the next run, which starts from `run`.
    /// What queued while it idled (a beat that raced the last run's end)
    /// is dropped uncounted, so no idle arrival reaches the run's fresh
    /// detector. False when a worker left while the pool idled.
    fn resume(&mut self, run: RunState) -> bool {
        while let Ok(event) = self.rx.try_recv() {
            if let Event::Closed { slot, gen } = event {
                if gen == self.slots[slot].gen {
                    return false;
                }
            }
        }
        let exited =
            |s: &mut Slot| s.child.as_mut().is_none_or(|c| !matches!(c.try_wait(), Ok(None)));
        if self.slots.iter_mut().any(exited) {
            return false;
        }
        self.run = run;
        true
    }

    fn spawn_child(&mut self, slot: usize) -> Result<(), ProcError> {
        let child = Command::new(&self.worker_cmd.program)
            .args(&self.worker_cmd.args)
            .arg("--socket")
            .arg(&self.socket_path)
            .arg("--worker")
            .arg(slot.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| ProcError::Spawn(format!("slot {slot}: {e}")))?;
        self.slots[slot].child = Some(child);
        self.report.spawned += 1;
        Ok(())
    }

    /// Accepts connections until every slot in `expected` said Hello with
    /// the right protocol version, then installs writers and spawns a
    /// reader thread per connection.
    fn accept_workers(&mut self, mut expected: Vec<usize>) -> Result<(), ProcError> {
        let deadline = Instant::now() + self.opts.step_timeout;
        while let Some(&waiting) = expected.first() {
            if Instant::now() >= deadline {
                return Err(ProcError::Handshake {
                    worker: waiting as u32,
                    detail: "accept deadline elapsed".into(),
                });
            }
            let mut stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(TransportError::Io(e).into()),
            };
            stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(TransportError::Io)?;
            let hello = Frame::read_from(&mut stream).map_err(TransportError::from)?;
            if hello.kind != kind::HELLO {
                return Err(ProcError::Handshake {
                    worker: u32::MAX,
                    detail: format!("first frame was kind {:#x}, not Hello", hello.kind),
                });
            }
            let mut r = WireReader::new(hello.payload());
            let version = r.u32()?;
            let slot = r.u32()? as usize;
            r.expect_end()?;
            if version != PROTO_VERSION {
                return Err(ProcError::Handshake {
                    worker: slot as u32,
                    detail: format!("protocol version {version} != {PROTO_VERSION}"),
                });
            }
            let Some(at) = expected.iter().position(|&s| s == slot) else {
                return Err(ProcError::Handshake {
                    worker: slot as u32,
                    detail: "unexpected slot in Hello".into(),
                });
            };
            expected.remove(at);
            self.report.wire_bytes += hello.encoded_len() as u64;
            self.report.frames_received += 1;

            stream.set_read_timeout(None).map_err(TransportError::Io)?;
            stream.set_write_timeout(Some(Duration::from_secs(30))).map_err(TransportError::Io)?;
            let gen = self.slots[slot].gen;
            let mut reader = stream.try_clone().map_err(TransportError::Io)?;
            let tx = self.tx.clone();
            std::thread::spawn(move || loop {
                match Frame::read_from(&mut reader) {
                    Ok(frame) => {
                        if tx.send(Event::Frame { slot, gen, frame }).is_err() {
                            break;
                        }
                    }
                    Err(_) => {
                        let _ = tx.send(Event::Closed { slot, gen });
                        break;
                    }
                }
            });
            self.slots[slot].stream = Some(stream);
        }
        Ok(())
    }

    /// Ships `slot` what it keeps until `Shutdown`: topology, worker-side
    /// config, timing, its hosted flats and the graph.
    fn send_setup(&mut self, slot: usize) -> Result<(), ProcError> {
        let mut w = WireWriter::new();
        w.u32(self.topo.num_ranks());
        w.u32(self.topo.gpus_per_rank());
        w.u32(self.topo.num_spares());
        self.config_wire.encode(&mut w);
        w.u64(self.opts.heartbeat_period.as_millis() as u64);
        w.u64(self.opts.step_timeout.as_millis() as u64);
        let hosted: Vec<u32> = self.slots[slot].hosted.iter().map(|&f| f as u32).collect();
        w.u32s(&hosted);
        w.bytes(&self.graph_bytes);
        Ok(self.send(slot, kind::SETUP, w.finish())?)
    }

    /// Sends one frame to a slot, counting wire traffic. A write failure
    /// (e.g. EPIPE after a SIGKILL) is not fatal here — the detector owns
    /// the death verdict; the caller just stops hearing from the slot.
    fn send(&mut self, slot: usize, kind: u8, body: Vec<u8>) -> Result<(), TransportError> {
        let frame = Frame::new(kind, body);
        let bytes = frame.encode();
        let Some(stream) = self.slots[slot].stream.as_mut() else {
            return Err(TransportError::Io(std::io::Error::other("no connection")));
        };
        match stream.write_all(&bytes) {
            Ok(()) => {
                self.report.frames_sent += 1;
                self.report.wire_bytes += bytes.len() as u64;
                Ok(())
            }
            Err(e) => Err(TransportError::from(e)),
        }
    }

    /// Starts the run's traversal on every worker.
    fn begin(&mut self) -> Result<(), ProcError> {
        self.report.workers = self.slots.len() as u32;
        for slot in &mut self.slots {
            slot.beat_seen = false;
        }
        match self.begin_on((0..self.slots.len()).collect(), 0)? {
            None => Ok(()),
            Some(slot) => Err(ProcError::Handshake {
                worker: slot as u32,
                detail: "died before Ready".into(),
            }),
        }
    }

    /// Sends `Begin{source}` to `slots` and waits for each one's `Ready`,
    /// recording its seeded frontier statistics. Other frames are stale (a
    /// survivor's, from the superstep a recovery aborted) and skipped.
    /// Returns the first slot the detector confirmed dead instead, if any.
    fn begin_on(&mut self, slots: Vec<usize>, iter: u32) -> Result<Option<usize>, ProcError> {
        let mut w = WireWriter::new();
        w.u64(self.run.source);
        let body = w.finish();
        for &slot in &slots {
            self.send(slot, kind::BEGIN, body.clone())?;
        }
        let deadline = Instant::now() + self.opts.step_timeout;
        let mut pending = slots;
        while !pending.is_empty() {
            match self.pump(deadline, iter)? {
                Waited::Dead(slot) => return Ok(Some(slot)),
                Waited::Data { slot, frame }
                    if frame.kind == kind::READY && pending.contains(&slot) =>
                {
                    let (_, frontier, nd) = read_stats(&frame)?;
                    self.slots[slot].frontier = frontier;
                    self.slots[slot].new_delegates = nd;
                    pending.retain(|&s| s != slot);
                }
                Waited::Data { .. } => {}
            }
        }
        Ok(None)
    }

    /// Blocks until a data frame arrives from a current-generation
    /// connection or the detector confirms a death; heartbeats and
    /// checkpoint saves are absorbed here so collection loops never see
    /// them. Errs with `StepTimeout` at `deadline`.
    fn pump(&mut self, deadline: Instant, iter: u32) -> Result<Waited, ProcError> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(ProcError::StepTimeout { iter });
            }
            // Silence ticks: one per heartbeat period per quiet slot.
            if self.run.last_tick.elapsed() >= self.opts.heartbeat_period {
                self.run.last_tick = Instant::now();
                let t = self.run.clock.now();
                for slot in 0..self.slots.len() {
                    if !self.slots[slot].alive || std::mem::take(&mut self.slots[slot].beat_seen) {
                        continue;
                    }
                    match self.run.membership.record_silence(slot, t, iter) {
                        Some(MembershipEvent::Suspected { .. }) => self.report.suspicions += 1,
                        Some(MembershipEvent::ConfirmedDead { .. }) => {
                            return Ok(Waited::Dead(slot));
                        }
                        _ => {}
                    }
                }
            }
            let wait =
                self.opts.heartbeat_period.min(deadline - now).min(Duration::from_millis(20));
            match self.rx.recv_timeout(wait) {
                Ok(Event::Frame { slot, gen, frame }) => {
                    if gen != self.slots[slot].gen {
                        continue; // stale pre-recovery connection
                    }
                    self.report.wire_bytes += frame.encoded_len() as u64;
                    match frame.kind {
                        kind::HEARTBEAT => {
                            self.report.heartbeats += 1;
                            self.slots[slot].beat_seen = true;
                            let t = self.run.clock.now();
                            if let Some(MembershipEvent::Suspected { .. }) =
                                self.run.membership.record_arrival(slot, t, iter)
                            {
                                self.report.suspicions += 1;
                            }
                        }
                        kind::CHECKPOINT_SAVE => {
                            self.report.frames_received += 1;
                            self.stage_checkpoint(&frame)?;
                        }
                        _ => {
                            self.report.frames_received += 1;
                            return Ok(Waited::Data { slot, frame });
                        }
                    }
                }
                Ok(Event::Closed { slot, gen }) => {
                    // A closed socket is evidence only; the phi detector
                    // confirms death from heartbeat silence.
                    if gen == self.slots[slot].gen {
                        self.slots[slot].stream = None;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("coordinator holds a sender endpoint")
                }
            }
        }
    }

    /// Stages one worker's checkpoint images; commits the checkpoint once
    /// every flat GPU's image for that iteration arrived.
    fn stage_checkpoint(&mut self, frame: &Frame) -> Result<(), ProcError> {
        let p = self.topo.num_gpus() as usize;
        let mut r = WireReader::new(frame.payload());
        let iter = r.u32()?;
        let images = read_images(&mut r, p)?;
        r.expect_end()?;
        let run = &mut self.run;
        let entry = run.staged.entry(iter).or_default();
        entry.extend(images.into_iter().map(|img| (img.gpu_flat, img)));
        let complete = entry.len() == p;
        let newer = run.cp_iter.is_none_or(|c| iter > c);
        if complete && newer {
            let mut images: Vec<_> =
                run.staged.remove(&iter).expect("staged entry exists").into_values().collect();
            images.sort_unstable_by_key(|img| img.gpu_flat);
            run.cp_store = images;
            run.cp_iter = Some(iter);
            run.staged.retain(|&i, _| i > iter);
            self.report.checkpoints += 1;
        }
        Ok(())
    }

    fn alive_slots(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&s| self.slots[s].alive).collect()
    }

    /// Runs supersteps until the global frontier drains. Returns the
    /// number of committed supersteps.
    fn superstep_loop(&mut self) -> Result<u32, ProcError> {
        let mut iter = 0u32;
        loop {
            let frontier: u64 = self
                .slots
                .iter()
                .filter(|s| s.alive && !s.hosted.is_empty())
                .map(|s| s.frontier)
                .sum();
            let new_delegates = self
                .slots
                .iter()
                .filter(|s| s.alive && !s.hosted.is_empty())
                .map(|s| s.new_delegates)
                .max()
                .unwrap_or(0);
            if frontier == 0 && new_delegates == 0 {
                return Ok(iter);
            }
            match self.superstep(iter)? {
                Some(resumed) => iter = resumed,
                None => iter += 1,
            }
        }
    }

    /// One superstep. `Ok(None)` means it committed; `Ok(Some(i))` means
    /// a death was recovered and the loop must resume at iteration `i`.
    fn superstep(&mut self, iter: u32) -> Result<Option<u32>, ProcError> {
        let take_cp = self.run.recovery.checkpoint_due(iter, self.run.cp_iter);
        let chaos = self.run.chaos;

        // ---- StepGo broadcast (plus the chaos kill, which fires *after*
        // the victim was told to work — mid-sweep, as real deaths do). ----
        for slot in self.alive_slots() {
            let mut w = WireWriter::new();
            w.u32(iter);
            w.u8(take_cp as u8);
            let _ = self.send(slot, kind::STEP_GO, w.finish());
        }
        if let Some(kill) = chaos.kill {
            let victim = kill.worker as usize;
            if !self.run.kill_fired
                && kill.iter == iter
                && victim < self.slots.len()
                && self.slots[victim].alive
            {
                self.run.kill_fired = true;
                self.run.kill_time = Some(Instant::now());
                if let Some(child) = self.slots[victim].child.as_mut() {
                    let _ = child.kill(); // SIGKILL: no cleanup, no goodbye
                }
            }
        }

        // ---- Collect StepLocal from every live slot. ----
        let deadline = Instant::now() + self.opts.step_timeout;
        let mut pending = self.alive_slots();
        let mut contributions: Vec<Vec<MaskContribution>> = vec![Vec::new(); self.slots.len()];
        let mut blocks: Vec<Block> = Vec::new();
        while !pending.is_empty() {
            match self.pump(deadline, iter)? {
                Waited::Dead(slot) => return self.recover(slot, iter).map(Some),
                Waited::Data { slot, frame } => {
                    if frame.kind != kind::STEP_LOCAL {
                        continue; // stale frame from an aborted superstep
                    }
                    let mut r = WireReader::new(frame.payload());
                    let fiter = r.u32()?;
                    if fiter != iter || !pending.contains(&slot) {
                        continue;
                    }
                    contributions[slot] = read_contributions(&mut r, self.topo.num_ranks())?;
                    let nblocks = r.u32()? as usize;
                    for _ in 0..nblocks {
                        blocks.push(Block::decode(&mut r, self.hosting_of.len())?);
                    }
                    r.expect_end()?;
                    pending.retain(|&s| s != slot);
                }
            }
        }

        // ---- Route the blocks; every worker gets every other worker's
        // mask contributions, unopened, and reduces them with its own. ----
        let mut routed: Vec<Vec<Block>> = (0..self.slots.len()).map(|_| Vec::new()).collect();
        for b in blocks {
            routed[self.hosting_of[b.dst]].push(b);
        }

        // ---- StepRemote broadcast (chaos: delayed and/or duplicated). ----
        if !chaos.delay_step_remote.is_zero() {
            std::thread::sleep(chaos.delay_step_remote);
        }
        for slot in self.alive_slots() {
            let mut w = WireWriter::new();
            w.u32(iter);
            let relayed: Vec<MaskContribution> = contributions
                .iter()
                .enumerate()
                .filter(|&(from, _)| from != slot)
                .flat_map(|(_, cs)| cs.iter().cloned())
                .collect();
            write_contributions(&mut w, &relayed);
            let slot_blocks = std::mem::take(&mut routed[slot]);
            w.u32(slot_blocks.len() as u32);
            for b in &slot_blocks {
                b.encode(&mut w);
            }
            let body = w.finish();
            if chaos.duplicate_step_remote {
                let _ = self.send(slot, kind::STEP_REMOTE, body.clone());
            }
            let _ = self.send(slot, kind::STEP_REMOTE, body);
        }

        // ---- Collect the StepDone barrier. ----
        let deadline = Instant::now() + self.opts.step_timeout;
        let mut pending = self.alive_slots();
        while !pending.is_empty() {
            match self.pump(deadline, iter)? {
                Waited::Dead(slot) => return self.recover(slot, iter).map(Some),
                Waited::Data { slot, frame } => {
                    if frame.kind != kind::STEP_DONE {
                        continue;
                    }
                    let (fiter, frontier, nd) = read_stats(&frame)?;
                    if fiter != iter || !pending.contains(&slot) {
                        continue;
                    }
                    self.slots[slot].frontier = frontier;
                    self.slots[slot].new_delegates = nd;
                    pending.retain(|&s| s != slot);
                }
            }
        }
        Ok(None)
    }

    /// Recovery of a confirmed-dead slot: reap the child, re-home its
    /// partitions where [`RecoveryConfig::rehome`] says — a spare process
    /// (same slot, fresh generation) or the least-loaded survivor — then
    /// one `Restore` round gives every live worker the committed images of
    /// the GPUs it hosts from now on. Reports real detect/recover timings.
    fn recover(&mut self, dead: usize, iter: u32) -> Result<u32, ProcError> {
        let confirmed_at = Instant::now();
        let detect_seconds =
            self.run.kill_time.map(|t| confirmed_at.duration_since(t).as_secs_f64()).unwrap_or(0.0);
        if let Some(mut child) = self.slots[dead].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[dead].stream = None;
        self.slots[dead].alive = false;
        let unrecoverable = ProcError::Unrecoverable { worker: dead as u32, iter };
        // With recovery disabled nothing was ever checkpointed; with it
        // enabled, iteration 0 always is, so `None` means the death raced
        // even that first commit.
        let Some(cp_iter) = self.run.cp_iter else {
            return Err(unrecoverable);
        };
        // Saves staged past the commit belong to the aborted timeline; the
        // replay re-captures them.
        self.run.staged.clear();

        let orphaned = std::mem::take(&mut self.slots[dead].hosted);
        let survivors = self.alive_slots();
        let Some(mode) = self.run.recovery.rehome(self.run.spares_left > 0, !survivors.is_empty())
        else {
            return Err(unrecoverable);
        };
        let target = if mode == RecoveryMode::Spare {
            self.run.spares_left -= 1;
            // Fresh generation: events from the dead process's reader
            // thread can no longer impersonate the replacement.
            self.slots[dead].gen += 1;
            self.slots[dead].beat_seen = false;
            self.slots[dead].hosted = orphaned.clone();
            self.spawn_child(dead)?;
            self.accept_workers(vec![dead])?;
            self.send_setup(dead)?;
            self.slots[dead].alive = true;
            if let Some(second) = self.begin_on(vec![dead], iter)? {
                return Err(ProcError::Unrecoverable { worker: second as u32, iter });
            }
            dead
        } else {
            // Water-filling: the least-loaded survivor adopts (ties to
            // the lowest slot for determinism).
            let target = *survivors
                .iter()
                .min_by_key(|&&s| (self.slots[s].hosted.len(), s))
                .expect("rehome spreads only onto a survivor");
            self.slots[target].hosted.extend(&orphaned);
            self.slots[target].hosted.sort_unstable();
            target
        };
        for &f in &orphaned {
            self.hosting_of[f] = target;
        }

        // A failed write is left to the detector: a second death here is
        // confirmed like any other and typed `Unrecoverable` below.
        let live = self.alive_slots();
        for &slot in &live {
            let mut w = WireWriter::new();
            w.u32(cp_iter);
            write_images(&mut w, self.slots[slot].hosted.iter().map(|&f| &self.run.cp_store[f]));
            let _ = self.send(slot, kind::RESTORE, w.finish());
        }
        let deadline = Instant::now() + self.opts.step_timeout;
        let mut pending = live;
        while !pending.is_empty() {
            match self.pump(deadline, iter)? {
                Waited::Dead(second) => {
                    return Err(ProcError::Unrecoverable { worker: second as u32, iter });
                }
                Waited::Data { slot, frame } => {
                    if frame.kind != kind::RESTORED || !pending.contains(&slot) {
                        continue; // stale frames from the aborted superstep
                    }
                    let (_, frontier, nd) = read_stats(&frame)?;
                    self.slots[slot].frontier = frontier;
                    self.slots[slot].new_delegates = nd;
                    pending.retain(|&s| s != slot);
                }
            }
        }

        self.report.recovery = Some(RecoveryReport {
            worker: dead as u32,
            mode,
            detect_seconds,
            recover_seconds: confirmed_at.elapsed().as_secs_f64(),
            resumed_iter: cp_iter,
        });
        Ok(cp_iter)
    }

    /// Collects final state from every live slot — each ends its traversal
    /// there and waits for the next `Begin` — and assembles global depths
    /// (and parents, when tracked).
    fn finish(&mut self) -> Result<(Vec<u32>, Option<Vec<u64>>), ProcError> {
        for slot in self.alive_slots() {
            let _ = self.send(slot, kind::FINISH, Vec::new());
        }
        let p = self.topo.num_gpus() as usize;
        let mut images: Vec<Option<GpuStateImage>> = vec![None; p];
        let deadline = Instant::now() + self.opts.step_timeout;
        let mut pending = self.alive_slots();
        while !pending.is_empty() {
            match self.pump(deadline, u32::MAX)? {
                Waited::Dead(slot) => {
                    return Err(ProcError::Unrecoverable { worker: slot as u32, iter: u32::MAX });
                }
                Waited::Data { slot, frame } => {
                    if frame.kind != kind::FINAL_STATE {
                        continue;
                    }
                    let mut r = WireReader::new(frame.payload());
                    self.report.duplicate_frames_ignored += r.u64()?;
                    for img in read_images(&mut r, p)? {
                        let f = img.gpu_flat as usize;
                        images[f] = Some(img);
                    }
                    r.expect_end()?;
                    pending.retain(|&s| s != slot);
                }
            }
        }
        let images: Vec<GpuStateImage> = images
            .into_iter()
            .enumerate()
            .map(|(f, img)| {
                img.ok_or_else(|| ProtocolError::new(format!("no final state for gpu {f}")))
            })
            .collect::<Result<_, _>>()?;
        let views: Vec<GpuStateView<'_>> = images.iter().map(|img| img.view()).collect();
        let n = self.num_vertices;
        let depths = assemble_depths(&self.topo, &self.separation, n, &views);
        let parents = if self.config_wire.track_parents {
            let source = self.run.source;
            let (parents, _) =
                assemble_parents(&self.topo, &self.separation, source, n, &views, &depths);
            Some(parents)
        } else {
            None
        };
        Ok((depths, parents))
    }
}

/// Parses the shared `(iter, frontier, new_delegates)` statistics body
/// carried by Ready/StepDone/Restored.
fn read_stats(frame: &Frame) -> Result<(u32, u64, u64), ProcError> {
    let mut r = WireReader::new(frame.payload());
    let iter = r.u32()?;
    let frontier = r.u64()?;
    let nd = r.u64()?;
    r.expect_end()?;
    Ok((iter, frontier, nd))
}
