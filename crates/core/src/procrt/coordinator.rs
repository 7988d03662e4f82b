//! The coordinator's processes: a pool of worker OS processes, one per
//! worker slot, kept between runs, and the socket [`Link`] the run's
//! [`Round`] drives them through. The round makes every protocol decision;
//! the pool owns what exists only because workers are processes.
//!
//! - Spawn, the accept and `Hello` handshake, `Setup` — the graph
//!   serialised straight into one frame, sealed once per pool, the same
//!   frame for every worker and any spare — one reader thread per
//!   connection and the generation guard that keeps a dead process's
//!   reader from speaking for its replacement.
//! - The death rule: a worker is dead exactly when its connection closed
//!   or its process exited. During a run its reader reports the close, the
//!   pool SIGKILLs and reaps the child and the link hears a [`Death`];
//!   `resume` finds one that left while the pool idled, and the handshake
//!   one that exited before its `Hello`.
//! - The chaos kill, [`ProcOptions::kill`].
//! - The [`ProcReport`] traffic counts: frames, bytes, the state bytes
//!   among them, and spawns.
//! - Teardown, when a run errs, when a run needs another key or finds a
//!   worker gone (a run recovered by spreading leaves its dead slot
//!   empty; one recovered by a spare leaves a full pool, which stays
//!   warm), and when the pool is dropped.

use super::protocol::{self, encode_worker_config, setup_frame, Msg, Setup, PROTO_VERSION};
use super::round::{Death, Heard, Link, ProcOutcome, Round};
use super::transport::TransportError;
use super::{hosted_flats, ProcError, ProcOptions, ProcReport};
use crate::config::BfsConfig;
use crate::driver::BuildError;
use crate::separation::Separation;
use gcbfs_cluster::topology::Topology;
use gcbfs_compress::Frame;
use gcbfs_graph::{EdgeList, VertexId};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
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

/// Monotone discriminator for socket filenames within this process.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

/// How long a torn-down pool waits for its workers to exit before it
/// kills the ones still running.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Messages from per-connection reader threads to the link's `next`.
/// `gen` guards against a stale reader (pre-recovery connection) speaking
/// for a replacement worker in the same slot.
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
    /// options (the kill aside), else on a freshly spawned pool. The pool is
    /// kept for the next run unless this one erred.
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
        let hosted = hosted_flats(&topo, opts.workers);
        if opts.kill.is_some_and(|kill| kill.worker as usize >= hosted.len()) {
            let requirement = "a worker slot the run has, below min(workers, ranks)";
            return Err(ProcError::InvalidOption { field: "kill", requirement });
        }
        let num_vertices = graph.num_vertices;
        if source >= num_vertices {
            return Err(BuildError::SourceOutOfRange { source, num_vertices }.into());
        }
        let started = Instant::now();
        let worker_config = encode_worker_config(config, track_parents);
        // A matching pool resumes unless a worker left while it idled; one
        // that cannot begin is torn down, and the run goes cold — once.
        let warm =
            self.0.take().filter(|co| co.serves(graph, topo, &worker_config, worker_cmd, opts));
        let mut warm = warm.and_then(|mut co| co.resume(opts).then_some(co));
        let (mut co, round) = loop {
            let cold = warm.is_none();
            let mut co = match warm.take() {
                Some(co) => co,
                None => {
                    let (th, n) = (config.degree_threshold, hosted.len());
                    Coordinator::spawn(graph, topo, th, &worker_config, worker_cmd, opts, n)?
                }
            };
            let (sep, recovery) = (Arc::clone(&co.separation), config.recovery);
            let timeout = opts.step_timeout;
            let mut round =
                Round::new(topo, sep, &hosted, source, track_parents, recovery, timeout);
            match round.begin(&mut co) {
                Ok(()) => break (co, round),
                Err(e) if cold => return Err(e),
                Err(_) => {}
            }
        };
        let mut outcome = round.traverse(&mut co)?;
        let traffic = std::mem::take(&mut co.report);
        outcome.report = ProcReport {
            spawned: traffic.spawned,
            wall_seconds: started.elapsed().as_secs_f64(),
            wire_bytes: traffic.wire_bytes,
            state_bytes: traffic.state_bytes,
            frames_sent: traffic.frames_sent,
            frames_received: traffic.frames_received,
            ..outcome.report
        };
        self.0 = Some(co);
        Ok(outcome)
    }
}

struct Coordinator {
    // ---- What the pool holds, from spawn to teardown. ----
    topo: Topology,
    /// The degree classification every worker computes too; each run's
    /// round assembles with it.
    separation: Arc<Separation>,
    /// The options the pool was spawned with, bar `kill`: each run brings
    /// its own.
    opts: ProcOptions,
    worker_cmd: WorkerCommand,
    /// The `Setup` frame every worker and spare is sent. Its worker-side
    /// config and serialised graph — the pool's only copy — are what a
    /// later run's are compared against.
    setup: Arc<Frame>,
    socket_path: PathBuf,
    listener: UnixListener,
    slots: Vec<Slot>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    // ---- The current run's. ----
    /// When the chaos kill fired (it fires once).
    kill_time: Option<Instant>,
    /// The run's traffic counts; taken when the run ends, so the next one
    /// counts from zero.
    report: ProcReport,
}

impl Drop for Coordinator {
    /// Tears the pool down: `Shutdown` to every connected worker, a
    /// bounded wait for each to exit, SIGKILL for any still running, every
    /// child reaped and the socket file removed.
    fn drop(&mut self) {
        let shutdown = Msg::Shutdown.frame();
        for slot in 0..self.slots.len() {
            let _ = self.write(slot, &shutdown);
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for mut child in self.slots.iter_mut().filter_map(|slot| slot.child.take()) {
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

impl Coordinator {
    /// The pool's cold start, for the first run it serves (`run`): bind
    /// the socket, spawn `nslots` workers, take each one's `Hello` and ship
    /// it the `Setup`. Everything counts into that run's report.
    fn spawn(
        graph: &EdgeList,
        topo: Topology,
        degree_threshold: u64,
        worker_config: &[u8],
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
        nslots: usize,
    ) -> Result<Self, ProcError> {
        let separation = Separation::from_degrees(&graph.out_degrees(), degree_threshold);
        let setup = Setup {
            topo,
            config: worker_config,
            step_timeout_ms: opts.step_timeout.as_millis() as u64,
            graph: &[],
        };
        let setup = setup_frame(&setup, graph)
            .map_err(|e| ProcError::Spawn(format!("graph serialization failed: {e}")))?;

        let dir = opts.socket_dir.clone().unwrap_or_else(std::env::temp_dir);
        let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
        let socket_path = dir.join(format!("gcbfs-{}-{}.sock", std::process::id(), seq));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)
            .map_err(|e| ProcError::Spawn(format!("bind {} failed: {e}", socket_path.display())))?;
        listener.set_nonblocking(true).map_err(TransportError::Io)?;

        let (tx, rx) = std::sync::mpsc::channel();
        let mut co = Self {
            topo,
            separation: Arc::new(separation),
            opts: opts.clone(),
            worker_cmd: worker_cmd.clone(),
            setup: Arc::new(setup),
            socket_path,
            listener,
            slots: (0..nslots).map(|_| Slot::default()).collect(),
            tx,
            rx,
            kill_time: None,
            report: ProcReport::default(),
        };
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
    /// retained `Setup`), topology, worker-side config and command, and
    /// the same options apart from the per-run kill.
    fn serves(
        &self,
        graph: &EdgeList,
        topo: Topology,
        worker_config: &[u8],
        worker_cmd: &WorkerCommand,
        opts: &ProcOptions,
    ) -> bool {
        let Ok(Msg::Setup(setup)) = Msg::decode(&self.setup, None) else { return false };
        self.topo == topo
            && setup.config == worker_config
            && self.worker_cmd == *worker_cmd
            && ProcOptions { kill: self.opts.kill, ..opts.clone() } == self.opts
            && gcbfs_graph::io::matches_binary(graph, setup.graph)
    }

    /// Readies an idle pool for the next run under `opts`, as fresh as a
    /// spawned one. False when a worker left while the pool idled: its
    /// connection closed or its process exited.
    fn resume(&mut self, opts: &ProcOptions) -> bool {
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
        self.opts.kill = opts.kill;
        self.kill_time = None;
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
    /// reader thread per connection. A child that exits before its `Hello`
    /// fails the spawn at once.
    fn accept_workers(&mut self, mut expected: Vec<usize>) -> Result<(), ProcError> {
        let refuse = |worker: Option<u32>, detail: String| ProcError::Handshake { worker, detail };
        let deadline = Instant::now() + self.opts.step_timeout;
        while let Some(&waiting) = expected.first() {
            if Instant::now() >= deadline {
                return Err(refuse(Some(waiting as u32), "accept deadline elapsed".into()));
            }
            let mut stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    for &slot in &expected {
                        let child = self.slots[slot].child.as_mut();
                        if let Some(Ok(Some(status))) = child.map(Child::try_wait) {
                            let exit = format!("slot {slot} exited before Hello with {status}");
                            return Err(ProcError::Spawn(exit));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(TransportError::Io(e).into()),
            };
            stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(TransportError::Io)?;
            let hello = Frame::read_from(&mut stream).map_err(TransportError::from)?;
            let Msg::Hello { version, slot } = Msg::decode(&hello, Some(&self.topo))? else {
                let kind = hello.kind;
                return Err(refuse(None, format!("first frame was kind {kind:#x}, not Hello")));
            };
            if version != PROTO_VERSION {
                let detail = format!("protocol version {version} != {PROTO_VERSION}");
                return Err(refuse(Some(slot), detail));
            }
            let Some(at) = expected.iter().position(|&s| s == slot as usize) else {
                return Err(refuse(Some(slot), "unexpected slot in Hello".into()));
            };
            let slot = expected.remove(at);
            self.report.wire_bytes += hello.encoded_len() as u64;
            self.report.frames_received += 1;

            stream.set_read_timeout(None).map_err(TransportError::Io)?;
            stream.set_write_timeout(Some(Duration::from_secs(30))).map_err(TransportError::Io)?;
            let gen = self.slots[slot].gen;
            let mut reader = stream.try_clone().map_err(TransportError::Io)?;
            let tx = self.tx.clone();
            std::thread::spawn(move || {
                while let Ok(frame) = Frame::read_from(&mut reader) {
                    if tx.send(Event::Frame { slot, gen, frame }).is_err() {
                        return; // the pool is gone
                    }
                }
                let _ = tx.send(Event::Closed { slot, gen });
            });
            self.slots[slot].stream = Some(stream);
        }
        Ok(())
    }

    /// Ships `slot` what it keeps until `Shutdown`: topology, worker-side
    /// config, timing and the graph.
    fn send_setup(&mut self, slot: usize) -> Result<(), ProcError> {
        let setup = Arc::clone(&self.setup);
        Ok(self.write(slot, &setup)?)
    }

    /// Writes one frame to a slot, counting wire traffic.
    fn write(&mut self, slot: usize, frame: &Frame) -> Result<(), TransportError> {
        let Some(stream) = self.slots[slot].stream.as_mut() else {
            return Err(TransportError::Io(std::io::Error::other("no connection")));
        };
        frame.write_to(stream)?;
        self.report.frames_sent += 1;
        self.report.wire_bytes += frame.encoded_len() as u64;
        Ok(())
    }
}

impl Link for Coordinator {
    /// Writes `msg` to `slot`; the victim of the chaos kill is SIGKILLed
    /// right after its `StepGo` — mid-sweep, as real deaths are. A failed
    /// write (e.g. EPIPE after a SIGKILL) is left to the death rule: the
    /// connection closed.
    fn send(&mut self, slot: usize, msg: &Msg<'_>) {
        let frame = msg.frame();
        if self.write(slot, &frame).is_ok() && protocol::carries_state(&frame) {
            self.report.state_bytes += frame.encoded_len() as u64;
        }
        let Some(kill) = self.opts.kill else { return };
        let go = matches!(msg, Msg::StepGo { iter, .. } if *iter == kill.iter);
        if go && kill.worker as usize == slot && self.kill_time.is_none() {
            self.kill_time = Some(Instant::now());
            if let Some(child) = self.slots[slot].child.as_mut() {
                let _ = child.kill(); // SIGKILL: no cleanup, no goodbye
            }
        }
    }

    /// Waits for the next event of a current connection: a data frame,
    /// counted, or its close — a death, whose process the pool SIGKILLs
    /// and reaps. A stale pre-recovery connection's events are skipped.
    fn next(&mut self, deadline: Instant) -> Result<Option<Heard>, ProcError> {
        loop {
            // The pool holds a sender, so only the deadline ends the wait.
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(event) = self.rx.recv_timeout(left) else { return Ok(None) };
            match event {
                Event::Frame { slot, gen, frame } if gen == self.slots[slot].gen => {
                    self.report.wire_bytes += frame.encoded_len() as u64;
                    if protocol::carries_state(&frame) {
                        self.report.state_bytes += frame.encoded_len() as u64;
                    }
                    self.report.frames_received += 1;
                    return Ok(Some(Heard::Frame(slot, frame)));
                }
                Event::Closed { slot, gen } if gen == self.slots[slot].gen => {
                    if let Some(mut child) = self.slots[slot].child.take() {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    let detect_seconds = self.kill_time.map_or(0.0, |t| t.elapsed().as_secs_f64());
                    return Ok(Some(Heard::Dead(Death { slot, detect_seconds })));
                }
                _ => {}
            }
        }
    }

    /// Spawns a spare process in `slot` under a fresh generation — events
    /// from the dead process's reader thread can no longer impersonate it —
    /// and ships it the `Setup`.
    fn replace(&mut self, slot: usize) -> Result<(), ProcError> {
        self.slots[slot].gen += 1;
        self.spawn_child(slot)?;
        self.accept_workers(vec![slot])?;
        self.send_setup(slot)
    }
}
