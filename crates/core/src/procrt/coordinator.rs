//! The coordinator side of the proc backend: a pool of worker OS
//! processes, one per worker slot, kept between runs. It drives the BSP
//! superstep protocol over Unix-domain sockets, feeds real heartbeat
//! arrivals into the phi-accrual detector, and recovers confirmed-dead
//! workers from sealed checkpoints.
//!
//! A run on a pool whose workers hold its graph, topology and worker-side
//! config, under the same command and options, is the run sequence of the
//! frame table in [`super::protocol`]. Any other run binds, spawns and
//! opens the pool first (`Hello`, `Setup`). Every frame is collected by
//! one loop, `gather`; the `StepLocal` → `StepRemote` relay is [`route`].
//! The pool is torn down when a run errs or recovers, when a run needs
//! another key, and when it is dropped.
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
    encode_worker_config, kind, Exchange, Images, Msg, ProtocolError, Setup, Stats, PROTO_VERSION,
};
use super::transport::TransportError;
use super::{hosted_flats, ChaosSpec, ProcError, ProcOptions, ProcReport, RecoveryReport};
use crate::assemble::{assemble_depths, assemble_parents, GpuStateView};
use crate::checkpoint::GpuStateImage;
use crate::config::BfsConfig;
use crate::driver::BuildError;
use crate::recovery::{RecoveryConfig, RecoveryMode};
use crate::separation::Separation;
use gcbfs_cluster::clock::{Clock, WallClock};
use gcbfs_cluster::membership::{Membership, MembershipConfig, MembershipEvent};
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::Frame;
use gcbfs_graph::{EdgeList, VertexId};
use std::borrow::Cow;
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
/// collection loop. `gen` guards against a stale reader (pre-recovery
/// connection) speaking for a replacement worker in the same slot.
enum Event {
    /// A complete frame arrived on slot `slot`'s connection.
    Frame { slot: usize, gen: u32, frame: Frame },
    /// Slot `slot`'s connection closed or broke mid-frame.
    Closed { slot: usize, gen: u32 },
}

#[derive(Default)]
struct Slot {
    child: Option<Child>,
    stream: Option<UnixStream>,
    gen: u32,
    /// Participating in the protocol (false once reaped/recovered-away).
    alive: bool,
    hosted: Vec<usize>,
    /// The termination counts of its last `Ready`, `StepDone` or
    /// `Restored`.
    stats: Stats,
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
        let worker_config = encode_worker_config(config, track_parents);
        // Every run, warm or cold, starts from the same fresh state.
        let fresh = || RunState::new(source, config.recovery, topo, opts);
        // A matching pool resumes unless a worker left while it idled; one
        // that cannot begin is torn down, and the run goes cold — once.
        let warm =
            self.0.take().filter(|co| co.serves(graph, topo, &worker_config, worker_cmd, opts));
        let warm = warm.and_then(|mut co| (co.resume(fresh()) && co.begin().is_ok()).then_some(co));
        let mut co = match warm {
            Some(co) => co,
            None => {
                let th = config.degree_threshold;
                let mut co =
                    Coordinator::spawn(graph, topo, th, worker_config, worker_cmd, opts, fresh())?;
                co.begin()?;
                co
            }
        };
        let iterations = co.superstep_loop()?;
        let (depths, parents) = co.finish(track_parents)?;
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
    /// The superstep in progress, which a stall or a death is reported at;
    /// the last one while the final state is collected.
    iter: u32,
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
            iter: 0,
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
    /// The worker-side config as `Setup` ships it; the pool's key.
    worker_config: Vec<u8>,
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
        let shutdown = Msg::Shutdown.frame();
        let mut waiting = Vec::new();
        for slot in 0..self.slots.len() {
            if self.slots[slot].child.is_some() && self.send(slot, &shutdown).is_ok() {
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
        degree_threshold: u64,
        worker_config: Vec<u8>,
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
        run: RunState,
    ) -> Result<Self, ProcError> {
        let separation = Separation::from_degrees(&graph.out_degrees(), degree_threshold);
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
        let slots =
            hosted.into_iter().map(|hosted| Slot { alive: true, hosted, ..Slot::default() });
        let (tx, rx) = std::sync::mpsc::channel();
        let mut co = Self {
            topo,
            worker_config,
            separation,
            opts: opts.clone(),
            worker_cmd: worker_cmd.clone(),
            graph_bytes,
            num_vertices: graph.num_vertices,
            socket_path,
            listener,
            slots: slots.collect(),
            hosting_of,
            tx,
            rx,
            run,
            report: ProcReport::default(),
        };
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

    /// True when this pool's workers hold exactly what a run with these
    /// arguments needs: the same graph (compared edge for edge against the
    /// retained `Setup` bytes), topology, worker-side config and command,
    /// and the same options apart from the per-run chaos.
    fn serves(
        &self,
        graph: &EdgeList,
        topo: Topology,
        worker_config: &[u8],
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
    ) -> bool {
        self.topo == topo
            && self.worker_config == worker_config
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
                    worker: Some(waiting as u32),
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
            let Msg::Hello { version, slot } = Msg::decode(&hello, Some(&self.topo))? else {
                return Err(ProcError::Handshake {
                    worker: None,
                    detail: format!("first frame was kind {:#x}, not Hello", hello.kind),
                });
            };
            if version != PROTO_VERSION {
                return Err(ProcError::Handshake {
                    worker: Some(slot),
                    detail: format!("protocol version {version} != {PROTO_VERSION}"),
                });
            }
            let slot = slot as usize;
            let Some(at) = expected.iter().position(|&s| s == slot) else {
                return Err(ProcError::Handshake {
                    worker: Some(slot as u32),
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
        let setup = Msg::Setup(Setup {
            topo: self.topo,
            config: &self.worker_config,
            heartbeat_ms: self.opts.heartbeat_period.as_millis() as u64,
            step_timeout_ms: self.opts.step_timeout.as_millis() as u64,
            hosted: self.slots[slot].hosted.clone(),
            graph: &self.graph_bytes,
        })
        .frame();
        Ok(self.send(slot, &setup)?)
    }

    /// Sends one frame to a slot, counting wire traffic. A write failure
    /// (e.g. EPIPE after a SIGKILL) is not fatal here — the detector owns
    /// the death verdict; the caller just stops hearing from the slot.
    fn send(&mut self, slot: usize, frame: &Frame) -> Result<(), TransportError> {
        let bytes = frame.encode();
        let Some(stream) = self.slots[slot].stream.as_mut() else {
            return Err(TransportError::Io(std::io::Error::other("no connection")));
        };
        stream.write_all(&bytes)?;
        self.report.frames_sent += 1;
        self.report.wire_bytes += bytes.len() as u64;
        Ok(())
    }

    /// Starts the run's traversal on every worker.
    fn begin(&mut self) -> Result<(), ProcError> {
        self.report.workers = self.slots.len() as u32;
        for slot in &mut self.slots {
            slot.beat_seen = false;
        }
        match self.begin_on((0..self.slots.len()).collect())? {
            None => Ok(()),
            Some(slot) => Err(ProcError::Handshake {
                worker: Some(slot as u32),
                detail: "died before Ready".into(),
            }),
        }
    }

    /// Sends `Begin{source}` to `slots` and gathers each one's `Ready`.
    /// Returns the first slot the detector confirmed dead instead, if any.
    fn begin_on(&mut self, slots: Vec<usize>) -> Result<Option<usize>, ProcError> {
        let begin = Msg::Begin { source: self.run.source }.frame();
        for &slot in &slots {
            self.send(slot, &begin)?;
        }
        self.gather(slots, kind::READY, 0, Self::record_stats)
    }

    /// The one collection loop: waits until every slot in `pending` sent
    /// one `accept`-kind frame of iteration `iter` (or of none, for a kind
    /// that carries none) and hands each to `on`, within one step timeout.
    /// On the way it feeds heartbeat arrivals and silences to the detector
    /// and stages checkpoint saves; any other frame is stale — a
    /// survivor's, from a superstep a recovery aborted — and skipped.
    /// Returns the first slot the detector confirmed dead instead, if any.
    ///
    /// # Errors
    /// `StepTimeout` at the deadline, at the run's superstep; a malformed
    /// or out-of-contract frame; what `on` returns.
    fn gather(
        &mut self,
        mut pending: Vec<usize>,
        accept: u8,
        iter: u32,
        mut on: impl FnMut(&mut Self, usize, Msg<'_>) -> Result<(), ProcError>,
    ) -> Result<Option<usize>, ProcError> {
        let deadline = Instant::now() + self.opts.step_timeout;
        let at = self.run.iter;
        while !pending.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return Err(ProcError::StepTimeout { iter: at });
            }
            // Silence ticks: one per heartbeat period per quiet slot.
            if self.run.last_tick.elapsed() >= self.opts.heartbeat_period {
                self.run.last_tick = Instant::now();
                let t = self.run.clock.now();
                for slot in 0..self.slots.len() {
                    if !self.slots[slot].alive || std::mem::take(&mut self.slots[slot].beat_seen) {
                        continue;
                    }
                    match self.run.membership.record_silence(slot, t, at) {
                        Some(MembershipEvent::Suspected { .. }) => self.report.suspicions += 1,
                        Some(MembershipEvent::ConfirmedDead { .. }) => return Ok(Some(slot)),
                        _ => {}
                    }
                }
            }
            let wait =
                self.opts.heartbeat_period.min(deadline - now).min(Duration::from_millis(20));
            let (slot, frame) = match self.rx.recv_timeout(wait) {
                Ok(Event::Frame { slot, gen, frame }) if gen == self.slots[slot].gen => {
                    (slot, frame)
                }
                // Nothing yet, or a stale pre-recovery connection's frame.
                Ok(Event::Frame { .. }) | Err(RecvTimeoutError::Timeout) => continue,
                Ok(Event::Closed { slot, gen }) => {
                    // A closed socket is evidence only; the phi detector
                    // confirms death from heartbeat silence.
                    if gen == self.slots[slot].gen {
                        self.slots[slot].stream = None;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("coordinator holds a sender endpoint")
                }
            };
            self.report.wire_bytes += frame.encoded_len() as u64;
            if frame.kind == kind::HEARTBEAT {
                self.report.heartbeats += 1;
                self.slots[slot].beat_seen = true;
                let t = self.run.clock.now();
                if let Some(MembershipEvent::Suspected { .. }) =
                    self.run.membership.record_arrival(slot, t, at)
                {
                    self.report.suspicions += 1;
                }
                continue;
            }
            self.report.frames_received += 1;
            match Msg::decode(&frame, Some(&self.topo))? {
                Msg::CheckpointSave(save) => self.stage_checkpoint(slot, save)?,
                msg if frame.kind == accept
                    && msg.iter().is_none_or(|i| i == iter)
                    && pending.contains(&slot) =>
                {
                    pending.retain(|&s| s != slot);
                    on(self, slot, msg)?;
                }
                _ => {}
            }
        }
        Ok(None)
    }

    /// Records a slot's frontier statistics (`Ready`, `StepDone`,
    /// `Restored`).
    fn record_stats(&mut self, slot: usize, msg: Msg<'_>) -> Result<(), ProcError> {
        if let Msg::Ready(s) | Msg::StepDone(s) | Msg::Restored(s) = msg {
            self.slots[slot].stats = s;
        }
        Ok(())
    }

    /// Stages one worker's checkpoint images; commits the checkpoint once
    /// every flat GPU's image for that iteration arrived. A stale save
    /// from an aborted superstep covers a subset of the sender's GPUs.
    ///
    /// # Errors
    /// An image of a GPU the sender does not host.
    fn stage_checkpoint(&mut self, slot: usize, save: Images) -> Result<(), ProcError> {
        check_hosts(&self.hosting_of, slot, &save.images, "saved")?;
        let p = self.topo.num_gpus() as usize;
        let run = &mut self.run;
        let entry = run.staged.entry(save.iter).or_default();
        entry.extend(save.images.into_iter().map(|img| (img.gpu_flat, img)));
        let complete = entry.len() == p;
        let newer = run.cp_iter.is_none_or(|c| save.iter > c);
        if complete && newer {
            let mut images: Vec<_> =
                run.staged.remove(&save.iter).expect("staged entry exists").into_values().collect();
            images.sort_unstable_by_key(|img| img.gpu_flat);
            run.cp_store = images;
            run.cp_iter = Some(save.iter);
            run.staged.retain(|&i, _| i > save.iter);
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
            let hosting = || self.slots.iter().filter(|s| s.alive && !s.hosted.is_empty());
            let frontier: u64 = hosting().map(|s| s.stats.frontier).sum();
            let new_delegates = hosting().map(|s| s.stats.new_delegates).max().unwrap_or(0);
            if frontier == 0 && new_delegates == 0 {
                return Ok(iter);
            }
            self.run.iter = iter;
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
        let go = Msg::StepGo { iter, checkpoint: take_cp }.frame();
        for slot in self.alive_slots() {
            let _ = self.send(slot, &go);
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

        let mut locals = vec![None; self.slots.len()];
        let dead = self.gather(self.alive_slots(), kind::STEP_LOCAL, iter, |_, slot, msg| {
            if let Msg::StepLocal(x) = msg {
                let contributions = Cow::Owned(x.contributions.into_owned());
                locals[slot] = Some(Exchange { iter, contributions, blocks: x.blocks });
            }
            Ok(())
        })?;
        if let Some(dead) = dead {
            return self.recover(dead, iter).map(Some);
        }

        // ---- StepRemote broadcast (chaos: delayed and/or duplicated). ----
        let remotes = route(&self.topo, &self.hosting_of, iter, locals)?;
        if !chaos.delay_step_remote.is_zero() {
            std::thread::sleep(chaos.delay_step_remote);
        }
        for (slot, remote) in remotes.into_iter().enumerate() {
            let Some(remote) = remote else { continue };
            let frame = Msg::StepRemote(remote).frame();
            if chaos.duplicate_step_remote {
                let _ = self.send(slot, &frame);
            }
            let _ = self.send(slot, &frame);
        }

        match self.gather(self.alive_slots(), kind::STEP_DONE, iter, Self::record_stats)? {
            Some(dead) => self.recover(dead, iter).map(Some),
            None => Ok(None),
        }
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
            if let Some(second) = self.begin_on(vec![dead])? {
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
            let images = self.slots[slot].hosted.iter().map(|&f| self.run.cp_store[f].clone());
            let restore = Msg::Restore(Images { iter: cp_iter, images: images.collect() });
            let _ = self.send(slot, &restore.frame());
        }
        if let Some(second) = self.gather(live, kind::RESTORED, cp_iter, Self::record_stats)? {
            return Err(ProcError::Unrecoverable { worker: second as u32, iter });
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
    fn finish(&mut self, track_parents: bool) -> Result<(Vec<u32>, Option<Vec<u64>>), ProcError> {
        let finish = Msg::Finish.frame();
        for slot in self.alive_slots() {
            let _ = self.send(slot, &finish);
        }
        let mut images: Vec<Option<GpuStateImage>> = vec![None; self.topo.num_gpus() as usize];
        let dead = self.gather(self.alive_slots(), kind::FINAL_STATE, 0, |co, slot, msg| {
            if let Msg::FinalState { duplicates_ignored, images: finals } = msg {
                check_hosts(&co.hosting_of, slot, &finals, "sent the final state of")?;
                co.report.duplicate_frames_ignored += duplicates_ignored;
                for img in finals {
                    let f = img.gpu_flat as usize;
                    images[f] = Some(img);
                }
            }
            Ok(())
        })?;
        if let Some(slot) = dead {
            return Err(ProcError::Unrecoverable { worker: slot as u32, iter: self.run.iter });
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
        let parents = if track_parents {
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

/// Refuses images from `slot` (`what` it did with them) of a GPU that
/// `hosting_of` does not map to it.
fn check_hosts(
    hosting_of: &[usize],
    slot: usize,
    images: &[GpuStateImage],
    what: &str,
) -> Result<(), ProtocolError> {
    match images.iter().find(|img| hosting_of.get(img.gpu_flat as usize) != Some(&slot)) {
        Some(img) => Err(ProtocolError::new(format!(
            "worker {slot} {what} gpu {}, which it does not host",
            img.gpu_flat
        ))),
        None => Ok(()),
    }
}

/// The coordinator's relay: routes one superstep's `StepLocal` exchanges —
/// `locals[s]` from slot `s`, `None` for a slot not in the round — into
/// each slot's `StepRemote`. A slot gets every other slot's mask
/// contributions, unopened, and the blocks whose destination it hosts,
/// both in sender order. `hosting_of` maps each flat GPU to its slot, which
/// is in the round.
///
/// # Errors
/// A mask contribution for a rank, or a block from a GPU, that its sender
/// does not host.
pub fn route(
    topo: &Topology,
    hosting_of: &[usize],
    iter: u32,
    locals: Vec<Option<Exchange<'_>>>,
) -> Result<Vec<Option<Exchange<'static>>>, ProtocolError> {
    let empty = Exchange { iter, contributions: Cow::Owned(Vec::new()), blocks: Vec::new() };
    let mut remotes: Vec<_> = locals.iter().map(|x| x.as_ref().map(|_| empty.clone())).collect();
    let host = |flat: usize| hosting_of.get(flat).copied();
    let rank_host = |rank| (rank < topo.num_ranks()).then(|| topo.flat(GpuId { rank, gpu: 0 }));
    for (from, x) in locals.into_iter().enumerate() {
        let Some(x) = x else { continue };
        let foreign =
            |what| ProtocolError::new(format!("worker {from} sent {what} it does not host"));
        if let Some(c) =
            x.contributions.iter().find(|c| rank_host(c.rank).and_then(host) != Some(from))
        {
            return Err(foreign(format!("a mask contribution for rank {}, which", c.rank)));
        }
        if let Some(b) = x.blocks.iter().find(|b| host(b.src) != Some(from)) {
            return Err(foreign(format!("a block from gpu {}, which", b.src)));
        }
        for (to, remote) in remotes.iter_mut().enumerate() {
            if let Some(remote) = remote.as_mut().filter(|_| to != from) {
                remote.contributions.to_mut().extend(x.contributions.iter().cloned());
            }
        }
        for b in x.blocks {
            let to = remotes[hosting_of[b.dst]].as_mut();
            to.expect("every destination's host is in the round").blocks.push(b);
        }
    }
    Ok(remotes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Block;
    use gcbfs_cluster::collectives::MaskContribution;
    use gcbfs_compress::WireBody;

    /// 2 × 2 grid, one rank per slot.
    const HOSTING_OF: [usize; 4] = [0, 0, 1, 1];

    fn local(rank: u32, src: usize, dst: usize) -> Option<Exchange<'static>> {
        let contribution = MaskContribution { rank, body: WireBody::Raw(vec![1 << rank]) };
        let block = Block { src, dst, body: WireBody::Raw(vec![src as u32]) };
        Some(Exchange {
            iter: 5,
            contributions: Cow::Owned(vec![contribution]),
            blocks: vec![block],
        })
    }

    fn routed(locals: Vec<Option<Exchange<'_>>>) -> Result<Vec<Option<Exchange<'static>>>, String> {
        route(&Topology::new(2, 2), &HOSTING_OF, 5, locals).map_err(|e| e.detail)
    }

    #[test]
    fn route_relays_the_other_slots_contributions_and_delivers_blocks_to_their_host() {
        let remotes = routed(vec![local(0, 1, 2), local(1, 3, 0), None]).unwrap();
        let [Some(to0), Some(to1), None] = &remotes[..] else { panic!("{remotes:?}") };
        for (remote, rank, src) in [(to0, 1, 3), (to1, 0, 1)] {
            assert_eq!(remote.iter, 5);
            assert_eq!(remote.contributions.iter().map(|c| c.rank).collect::<Vec<_>>(), [rank]);
            assert_eq!(remote.blocks.iter().map(|b| b.src).collect::<Vec<_>>(), [src]);
        }
    }

    #[test]
    fn route_refuses_what_the_sender_does_not_host() {
        // Slot 0 hosts rank 0 (GPUs 0-1): a contribution for rank 1 — whose
        // host sent none — or for a rank outside the grid, and a block from
        // GPU 2, are forged.
        for (forged, names) in
            [(local(1, 1, 2), "rank 1"), (local(7, 1, 2), "rank 7"), (local(0, 2, 0), "gpu 2")]
        {
            let err = routed(vec![forged, local(1, 3, 0)]).unwrap_err();
            assert!(err.contains("worker 0 sent") && err.contains(names), "{err}");
        }
    }

    #[test]
    fn images_of_a_gpu_the_sender_does_not_host_are_refused() {
        let image = |gpu_flat| GpuStateImage {
            gpu_flat,
            track_parents: false,
            depths_local: Vec::new(),
            delegate_depths: Vec::new(),
            visited_bits: 0,
            visited_words: Vec::new(),
            frontier: Vec::new(),
            new_delegates: Vec::new(),
            directions: [crate::direction::Direction::Forward; 3],
            parents_local: Vec::new(),
            delegate_parent_candidate: Vec::new(),
            remote_parent_log: Vec::new(),
            digest: 0,
        };
        // A stale save from an aborted superstep covers a subset.
        assert!(check_hosts(&HOSTING_OF, 1, &[image(3)], "saved").is_ok());
        for what in ["saved", "sent the final state of"] {
            let err = check_hosts(&HOSTING_OF, 1, &[image(2), image(1)], what).unwrap_err();
            assert_eq!(err.detail, format!("worker 1 {what} gpu 1, which it does not host"));
        }
    }
}
