//! Wire protocol of the proc backend: one typed [`Msg`] per frame kind,
//! and the only code that writes or reads a frame body.
//!
//! Every message rides one [`Frame`], so payloads inherit the frame
//! layer's FNV-1a seal and bounded-allocation decoding. GPU state crosses
//! only as a [`StateDelta`], each GPU's entry carrying the
//! [`seal`](crate::checkpoint::GpuStateImage::seal) of the image it folds
//! to, so state is verified with the identical primitive whether it sat in
//! the coordinator's checkpoint store or crossed a socket.
//!
//! # Frames
//!
//! C is the coordinator — its socket-free [`Round`](super::round::Round),
//! or the process pool that carries it — and W a worker
//! ([`super::worker`]). All integers are little-endian.
//!
//! | kind | message | direction | body | consumer |
//! |------|---------|-----------|------|----------|
//! | `0x01` | [`Msg::Hello`] | W → C | version `u32`, slot `u32` | pool handshake |
//! | `0x02` | [`Msg::Setup`] | C → W | ranks, GPUs per rank, spares (`u32` each); worker config; step-timeout ms `u64`; graph (byte string) | worker process, before its round |
//! | `0x04` | [`Msg::Begin`] | C → W | source `u64`; hosted flats (`u32` list); resume flag `u8`, then, when 1, a delta from iteration 0 | [`WorkerRound`](super::worker::WorkerRound) |
//! | `0x03` | [`Msg::Ready`] | W → C | stats | round `begin_on` |
//! | `0x10` | [`Msg::StepGo`] | C → W | iteration `u32`, checkpoint flag `u8` | `WorkerRound` |
//! | `0x11` | [`Msg::StepLocal`] | W → C | exchange | round `route` |
//! | `0x12` | [`Msg::StepRemote`] | C → W | exchange | `WorkerRound` (exactly once per `StepGo`: any other is refused) |
//! | `0x13` | [`Msg::StepDone`] | W → C | stats; save flag `u8`, then, when 1, a delta since the last `Begin` or save | round superstep barrier (saves folded, committed) |
//! | `0x30` | [`Msg::Finish`] | C → W | empty | `WorkerRound` |
//! | `0x31` | [`Msg::FinalState`] | W → C | delta | round `finish` (folded) |
//! | `0x41` | [`Msg::Shutdown`] | C → W | empty | worker process, which exits |
//!
//! A run is `Begin` → `Ready`, then per superstep `StepGo` → `StepLocal`
//! → `StepRemote` → `StepDone`, then `Finish` → `FinalState`. On the
//! checkpoint cadence `StepGo k` asks for the state entering `k + 1`, which
//! `StepDone k` carries: a checkpoint is taken at the barrier. `Begin` names
//! the GPUs the worker hosts and is the run's iteration-0 checkpoint: the
//! state entering superstep 0 follows from the source alone, so no image
//! is saved there. A recovery is one more `Begin` → `Ready` round on every
//! live worker, a spare among them (it gets `Hello` and `Setup` first);
//! each `Begin` names the worker's GPUs from then on and, once an image
//! checkpoint committed, resumes from it with a delta from iteration 0 of
//! exactly those GPUs' committed images, which the worker folds onto its
//! all-unreached state.
//! A cold pool opens with `Hello` and `Setup`, the same `Setup` for every
//! worker; teardown is `Shutdown`, then the worker's exit, which the pool
//! waits for. No frame reports liveness: a
//! worker is dead when its connection closes (the pool's death rule).
//!
//! The shared bodies:
//! - **stats**: iteration `u32`, hosted frontier `u64`, delegate frontier
//!   `u64` ([`Stats`]).
//! - **exchange**: iteration `u32`; the mask contributions (count `u32`,
//!   then per entry rank `u32` and a wire body); the `nn` blocks (count
//!   `u32`, then per block source and destination flats, `u32` each, and a
//!   wire body) ([`Exchange`]).
//! - **wire body**: a flag `u8` (0 raw, 1 encoded), then a byte string —
//!   raw elements little-endian, or the codec's bytes, decoded only by
//!   their consumer.
//! - **delta** ([`StateDelta`]): base iteration `u32` (the worker's last
//!   `Begin` or save; 0 in a resume), iteration `u32`, parent flag `u8`,
//!   the delegates settled since the base as levels, then a count `u32`
//!   and per GPU: flat `u32`; the `dd`, `dn` and `nd` directions (`u8`
//!   each, 0 forward, 1 backward); its settled slots as levels; the
//!   frontier in order (`u32` list); when the flag is 1, the parents of the
//!   settled slots in level order (`u64` list), the delegate parent
//!   candidates it wrote (count `u32`, then delegate `u32` and candidate
//!   `u64` each) and its remote parent proposals since the base (count
//!   `u32`, then destination rank, GPU and slot `u32` each, parent `u64`,
//!   depth `u32`); then the seal `u64` of the image the delta folds to. The
//!   visited words and the delegate frontier are not shipped: they follow
//!   from the delegate depths.
//! - **levels**: count `u32`, then per level its depth `u32` and its ids,
//!   strictly ascending, as one frontier-codec body in a byte string —
//!   exactly the body the codec [`select_frontier_codec`] picks for them
//!   writes, so no other bytes decode to the same level.
//! - **worker config**: `TH` `u64`; a flag byte (DO, local all2all,
//!   uniquify, per-kernel direction, parents — bits 0–4); the `dd`, `dn`
//!   and `nd` switch-factor pairs (`f64` each); compression (0 off, 1 fixed
//!   plus the frontier and mask codec tags, 2 adaptive); the kernel variant
//!   (0 scalar, 1 word-parallel).
//!
//! A byte string and a list are a `u32` count, then the items.

use crate::checkpoint::{GpuDelta, Level, StateDelta, StateFields};
use crate::comm::Block;
use crate::config::BfsConfig;
use crate::direction::Direction;
use crate::kernels::KernelVariant;
use gcbfs_cluster::collectives::MaskContribution;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::{
    decode_frontier, select_frontier_codec, CompressionMode, Fnv1a, Frame, FrontierCodec,
    MaskCodec, WireBody,
};
use gcbfs_graph::{EdgeList, VertexId};
use std::borrow::Cow;

/// Protocol version carried in `Hello`; a coordinator rejects any worker
/// that was built against a different framing or message layout.
pub const PROTO_VERSION: u32 = 12;

/// Frame kind bytes, one per message type ([`Msg::kind`]).
pub mod kind {
    /// [`Msg::Hello`](super::Msg::Hello).
    pub const HELLO: u8 = 0x01;
    /// [`Msg::Setup`](super::Msg::Setup).
    pub const SETUP: u8 = 0x02;
    /// [`Msg::Ready`](super::Msg::Ready).
    pub const READY: u8 = 0x03;
    /// [`Msg::Begin`](super::Msg::Begin).
    pub const BEGIN: u8 = 0x04;
    /// [`Msg::StepGo`](super::Msg::StepGo).
    pub const STEP_GO: u8 = 0x10;
    /// [`Msg::StepLocal`](super::Msg::StepLocal).
    pub const STEP_LOCAL: u8 = 0x11;
    /// [`Msg::StepRemote`](super::Msg::StepRemote).
    pub const STEP_REMOTE: u8 = 0x12;
    /// [`Msg::StepDone`](super::Msg::StepDone).
    pub const STEP_DONE: u8 = 0x13;
    /// [`Msg::Finish`](super::Msg::Finish).
    pub const FINISH: u8 = 0x30;
    /// [`Msg::FinalState`](super::Msg::FinalState).
    pub const FINAL_STATE: u8 = 0x31;
    /// [`Msg::Shutdown`](super::Msg::Shutdown).
    pub const SHUTDOWN: u8 = 0x41;
}

/// A malformed or out-of-contract message body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// What was violated, for the typed error chain.
    pub detail: String,
}

impl ProtocolError {
    /// Shorthand constructor.
    pub fn new(detail: impl Into<String>) -> Self {
        Self { detail: detail.into() }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol violation: {}", self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// One protocol message: a frame kind and its typed body. The module's
/// frame table gives each one's kind byte, direction, body and consumer.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg<'a> {
    /// First frame on a fresh connection.
    Hello {
        /// The worker's [`PROTO_VERSION`].
        version: u32,
        /// The slot the worker claims.
        slot: u32,
    },
    /// What a worker keeps until `Shutdown`.
    Setup(Setup<'a>),
    /// A traversal began (its frontier statistics, at the iteration it
    /// entered).
    Ready(Stats),
    /// Start a traversal from `source` on a fresh hosted group over the
    /// graph kept since `Setup`: seeded from the source, or resumed from a
    /// committed checkpoint.
    Begin {
        /// The BFS source.
        source: VertexId,
        /// The flat GPUs the worker hosts.
        hosted: Vec<usize>,
        /// The committed checkpoint to resume at: a delta from iteration 0
        /// with one entry per hosted GPU, entering its iteration. `None`
        /// seeds the source and enters superstep 0.
        resume: Option<StateDelta>,
    },
    /// Run one superstep's local computation.
    StepGo {
        /// The superstep.
        iter: u32,
        /// Save the hosted GPUs' state entering the next superstep in this
        /// one's `StepDone`.
        checkpoint: bool,
    },
    /// The hosted ranks' mask contributions (none when no hosted bit
    /// changed) and the blocks for GPUs the worker does not host.
    StepLocal(Exchange<'a>),
    /// The other workers' mask contributions, relayed unopened, and the
    /// blocks for the worker's GPUs.
    StepRemote(Exchange<'a>),
    /// The superstep barrier.
    StepDone {
        /// The next frontier's statistics.
        stats: Stats,
        /// When its `StepGo` asked for a checkpoint, the hosted GPUs'
        /// state entering the next superstep, as a delta since the
        /// worker's last `Begin` or save.
        save: Option<StateDelta>,
    },
    /// The traversal finished: ship the final state.
    Finish,
    /// The end of a traversal: every hosted GPU's final state, as a delta
    /// since the worker's last `Begin` or save. The worker then waits for
    /// the next `Begin` or for `Shutdown`.
    FinalState(StateDelta),
    /// Drain and exit.
    Shutdown,
}

/// The body of [`Msg::Setup`].
#[derive(Clone, Debug, PartialEq)]
pub struct Setup<'a> {
    /// The grid, spares included.
    pub topo: Topology,
    /// The worker-side config bytes: the result-affecting subset of
    /// [`BfsConfig`] and the parent flag, laid out as the module docs say.
    pub config: &'a [u8],
    /// Superstep deadline in milliseconds.
    pub step_timeout_ms: u64,
    /// The graph, as `gcbfs_graph::io::write_binary` wrote it.
    pub graph: &'a [u8],
}

/// The body of `Ready` and `StepDone`: termination counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// The superstep the counts enter (for `Ready`, the one its `Begin`
    /// resumed at).
    pub iter: u32,
    /// The hosted normal frontier total.
    pub frontier: u64,
    /// The (replicated) delegate frontier length.
    pub new_delegates: u64,
}

/// The body of `StepLocal` and `StepRemote`. Both payloads are already in
/// wire form: the masks by
/// [`rank_contributions`](gcbfs_cluster::collectives::rank_contributions),
/// the blocks by [`form_blocks`](crate::comm::form_blocks).
#[derive(Clone, Debug, PartialEq)]
pub struct Exchange<'a> {
    /// The superstep.
    pub iter: u32,
    /// Delegate-mask contributions, one per rank at most. Borrowed by a
    /// worker that keeps its own for the reduction.
    pub contributions: Cow<'a, [MaskContribution]>,
    /// `nn` update blocks.
    pub blocks: Vec<Block>,
}

impl Msg<'_> {
    /// The frame kind byte ([`kind`]).
    pub fn kind(&self) -> u8 {
        match self {
            Self::Hello { .. } => kind::HELLO,
            Self::Setup(_) => kind::SETUP,
            Self::Ready(_) => kind::READY,
            Self::Begin { .. } => kind::BEGIN,
            Self::StepGo { .. } => kind::STEP_GO,
            Self::StepLocal(_) => kind::STEP_LOCAL,
            Self::StepRemote(_) => kind::STEP_REMOTE,
            Self::StepDone { .. } => kind::STEP_DONE,
            Self::Finish => kind::FINISH,
            Self::FinalState(_) => kind::FINAL_STATE,
            Self::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Seals the message into its frame.
    pub fn frame(&self) -> Frame {
        let mut w = WireWriter::default();
        match self {
            Self::Hello { version, slot } => {
                w.u32(*version);
                w.u32(*slot);
            }
            Self::Setup(s) => {
                w.setup_head(s);
                w.bytes(s.graph);
            }
            Self::Begin { source, hosted, resume } => {
                w.u64(*source);
                w.u32(hosted.len() as u32);
                hosted.iter().for_each(|&f| w.u32(f as u32));
                w.optional_delta(resume.as_ref());
            }
            Self::StepGo { iter, checkpoint } => {
                w.u32(*iter);
                w.u8(*checkpoint as u8);
            }
            Self::Ready(s) | Self::StepDone { stats: s, .. } => {
                w.u32(s.iter);
                w.u64(s.frontier);
                w.u64(s.new_delegates);
                if let Self::StepDone { save, .. } = self {
                    w.optional_delta(save.as_ref());
                }
            }
            Self::StepLocal(x) | Self::StepRemote(x) => {
                w.u32(x.iter);
                w.u32(x.contributions.len() as u32);
                for c in x.contributions.iter() {
                    w.u32(c.rank);
                    w.body(&c.body, u64::to_le_bytes);
                }
                w.u32(x.blocks.len() as u32);
                for b in &x.blocks {
                    w.u32(b.src as u32);
                    w.u32(b.dst as u32);
                    w.body(&b.body, u32::to_le_bytes);
                }
            }
            Self::FinalState(state) => w.delta(state),
            Self::Finish | Self::Shutdown => {}
        }
        Frame::new(self.kind(), w.buf)
    }
}

impl<'a> Msg<'a> {
    /// Reads a frame's message. `topo` bounds the bodies that name GPUs or
    /// ranks; it is `None` only on a worker before its `Setup`, where such
    /// a body is an error.
    ///
    /// # Errors
    /// An unknown kind; a truncated body or trailing bytes; a list longer
    /// than the grid allows; a block endpoint outside the grid; a wire-body
    /// flag other than 0 or 1 or a raw body that is not whole elements; an
    /// unknown tag in a worker config; a delta's GPU outside the grid or
    /// repeated, or a level that does not decode or is not strictly
    /// ascending. What a delta settles is checked by its fold.
    pub fn decode(frame: &'a Frame, topo: Option<&Topology>) -> Result<Self, ProtocolError> {
        let mut r = WireReader { bytes: frame.payload(), at: 0 };
        let grid = || {
            topo.ok_or_else(|| ProtocolError::new(format!("kind {:#x} before Setup", frame.kind)))
        };
        let msg = match frame.kind {
            kind::HELLO => Self::Hello { version: r.u32()?, slot: r.u32()? },
            kind::SETUP => {
                let topo = Topology::new(r.u32()?, r.u32()?).with_spares(r.u32()?);
                let start = r.at;
                read_worker_config(&mut r)?;
                Self::Setup(Setup {
                    topo,
                    config: &r.bytes[start..r.at],
                    step_timeout_ms: r.u64()?,
                    graph: r.bytes()?,
                })
            }
            kind::READY => Self::Ready(r.stats()?),
            kind::BEGIN => {
                let topo = grid()?;
                Self::Begin {
                    source: r.u64()?,
                    hosted: r.list(u32::from_le_bytes)?.into_iter().map(|f| f as usize).collect(),
                    resume: r.optional_delta(topo)?,
                }
            }
            kind::STEP_GO => Self::StepGo { iter: r.u32()?, checkpoint: r.flag()? },
            kind::STEP_LOCAL => Self::StepLocal(r.exchange(grid()?)?),
            kind::STEP_REMOTE => Self::StepRemote(r.exchange(grid()?)?),
            kind::STEP_DONE => {
                Self::StepDone { stats: r.stats()?, save: r.optional_delta(grid()?)? }
            }
            kind::FINISH => Self::Finish,
            kind::FINAL_STATE => Self::FinalState(r.delta(grid()?)?),
            kind::SHUTDOWN => Self::Shutdown,
            k => return Err(ProtocolError::new(format!("unknown frame kind {k:#x}"))),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

/// The superstep a `Ready`, `StepGo`, `StepLocal`, `StepRemote` or
/// `StepDone` frame belongs to, read from the first `u32` of its body
/// without decoding the rest; `None` for another kind or a body too short
/// to hold one.
pub fn frame_iter(frame: &Frame) -> Option<u32> {
    let mut r = WireReader { bytes: frame.payload(), at: 0 };
    match frame.kind {
        kind::READY | kind::STEP_GO | kind::STEP_LOCAL | kind::STEP_REMOTE | kind::STEP_DONE => {
            r.u32().ok()
        }
        _ => None,
    }
}

/// Whether `frame` moves GPU state rather than a superstep: a `StepDone`
/// with a save, a `FinalState`, or a `Begin` with a resume. Reads the
/// body only up to the flag; a body too short to hold it carries none.
pub fn carries_state(frame: &Frame) -> bool {
    let mut r = WireReader { bytes: frame.payload(), at: 0 };
    let before_flag = match frame.kind {
        kind::FINAL_STATE => return true,
        kind::STEP_DONE => r.stats().map(drop),
        kind::BEGIN => r.u64().and_then(|_| r.list(u32::from_le_bytes)).map(drop),
        _ => return false,
    };
    before_flag.and_then(|()| r.flag()).unwrap_or(false)
}

/// The `Setup` frame of `head` with `graph` in place of `head.graph`,
/// serialised by [`gcbfs_graph::io::write_binary`] straight into the body:
/// it decodes as that `Setup` with those bytes, and the body is their only
/// copy.
///
/// # Errors
/// The serialisation's.
pub(crate) fn setup_frame(head: &Setup<'_>, graph: &EdgeList) -> std::io::Result<Frame> {
    let len = gcbfs_graph::io::binary_len(graph);
    // The whole body — grid (12 bytes), config, step timeout (8), graph
    // length (4), graph — in one allocation made before any other: a pool's
    // only large one, so the next pool reuses the block this one frees
    // instead of growing the heap by a graph's size.
    let mut w = WireWriter { buf: Vec::with_capacity(24 + head.config.len() + len) };
    w.setup_head(head);
    w.u32(len as u32);
    gcbfs_graph::io::write_binary(graph, &mut w.buf)?;
    Ok(Frame::new(kind::SETUP, w.buf))
}

/// The worker-side config: the result-affecting subset of [`BfsConfig`]
/// that makes a worker compute bit-identical values to the sim, and
/// whether it records parents. Cost-model, recovery, observability and
/// verification knobs stay with the coordinator: they shape modeled time
/// and policy, never depths or parents. `Setup` carries these bytes, and
/// a pool serves a run whose bytes equal its own.
pub(crate) fn encode_worker_config(config: &BfsConfig, track_parents: bool) -> Vec<u8> {
    let mut w = WireWriter::default();
    w.u64(config.degree_threshold);
    w.u8((config.direction_optimization as u8)
        | (config.local_all2all as u8) << 1
        | (config.uniquify as u8) << 2
        | (config.per_kernel_direction as u8) << 3
        | (track_parents as u8) << 4);
    for f in [config.dd_factors, config.dn_factors, config.nd_factors] {
        w.f64(f.forward_to_backward);
        w.f64(f.backward_to_forward);
    }
    match config.compression {
        CompressionMode::Off => w.u8(0),
        CompressionMode::Fixed(fc, mc) => {
            w.u8(1);
            w.u8(fc.tag());
            w.u8(mc.tag());
        }
        CompressionMode::Adaptive => w.u8(2),
    }
    w.u8(match config.kernel_variant {
        KernelVariant::Scalar => 0,
        KernelVariant::WordParallel => 1,
    });
    w.buf
}

/// Reads [`encode_worker_config`] bytes into a worker's [`BfsConfig`]
/// (defaults for every field they do not carry) and its parent flag.
///
/// # Errors
/// Truncation, trailing bytes, or an unknown flag bit or tag.
pub(crate) fn decode_worker_config(bytes: &[u8]) -> Result<(BfsConfig, bool), ProtocolError> {
    let mut r = WireReader { bytes, at: 0 };
    let config = read_worker_config(&mut r)?;
    r.expect_end()?;
    Ok(config)
}

fn read_worker_config(r: &mut WireReader<'_>) -> Result<(BfsConfig, bool), ProtocolError> {
    let mut c = BfsConfig::new(r.u64()?);
    let flags = r.u8()?;
    if flags >> 5 != 0 {
        return Err(ProtocolError::new(format!("unknown config flags {flags:#x}")));
    }
    c.direction_optimization = flags & 1 != 0;
    c.local_all2all = flags & 2 != 0;
    c.uniquify = flags & 4 != 0;
    c.per_kernel_direction = flags & 8 != 0;
    for f in [&mut c.dd_factors, &mut c.dn_factors, &mut c.nd_factors] {
        f.forward_to_backward = r.f64()?;
        f.backward_to_forward = r.f64()?;
    }
    c.compression = match r.u8()? {
        0 => CompressionMode::Off,
        1 => {
            let (f, m) = (r.u8()?, r.u8()?);
            let fc = FrontierCodec::ALL.into_iter().find(|c| c.tag() == f);
            let mc = MaskCodec::ALL.into_iter().find(|c| c.tag() == m);
            let (Some(fc), Some(mc)) = (fc, mc) else {
                return Err(ProtocolError::new(format!("unknown codec tags {f:#x}/{m:#x}")));
            };
            CompressionMode::Fixed(fc, mc)
        }
        2 => CompressionMode::Adaptive,
        t => return Err(ProtocolError::new(format!("unknown compression tag {t}"))),
    };
    c.kernel_variant = match r.u8()? {
        0 => KernelVariant::Scalar,
        1 => KernelVariant::WordParallel,
        t => return Err(ProtocolError::new(format!("unknown kernel variant tag {t}"))),
    };
    Ok((c, flags & 16 != 0))
}

/// Where little-endian wire bytes go: a frame body ([`WireWriter`]) or,
/// for the image seal, straight into an FNV-1a hash.
pub(crate) trait WireSink {
    fn put(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// A list of `N`-byte little-endian elements.
    fn list<T: Copy, const N: usize>(&mut self, v: &[T], le: fn(T) -> [u8; N]) {
        self.u32(v.len() as u32);
        v.iter().for_each(|&x| self.put(&le(x)));
    }

    fn direction(&mut self, d: Direction) {
        self.u8(match d {
            Direction::Forward => 0,
            Direction::Backward => 1,
        });
    }

    fn parent_log(&mut self, log: &[(GpuId, u32, u64, u32)]) {
        self.u32(log.len() as u32);
        for &(owner, local, parent, depth) in log {
            self.u32(owner.rank);
            self.u32(owner.gpu);
            self.u32(local);
            self.u64(parent);
            self.u32(depth);
        }
    }
}

impl WireSink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Little-endian body writer.
#[derive(Debug, Default)]
struct WireWriter {
    buf: Vec<u8>,
}

impl WireSink for WireWriter {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

impl WireWriter {
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// A [`WireBody`]: the flag, then the body as a byte string — raw
    /// elements little-endian, `N` bytes each.
    fn body<T: Copy, const N: usize>(&mut self, body: &WireBody<T>, le: fn(T) -> [u8; N]) {
        match body {
            WireBody::Raw(items) => {
                self.u8(0);
                self.u32(body.wire_bytes() as u32);
                items.iter().for_each(|&x| self.buf.extend_from_slice(&le(x)));
            }
            WireBody::Encoded(bytes) => {
                self.u8(1);
                self.bytes(bytes);
            }
        }
    }

    /// A flag, then, when 1, the delta.
    fn optional_delta(&mut self, d: Option<&StateDelta>) {
        self.u8(d.is_some() as u8);
        if let Some(d) = d {
            self.delta(d);
        }
    }

    /// A `Setup` body up to its graph.
    fn setup_head(&mut self, s: &Setup<'_>) {
        self.u32(s.topo.num_ranks());
        self.u32(s.topo.gpus_per_rank());
        self.u32(s.topo.num_spares());
        self.buf.extend_from_slice(s.config);
        self.u64(s.step_timeout_ms);
    }

    fn levels(&mut self, levels: &[Level]) {
        self.u32(levels.len() as u32);
        for l in levels {
            self.u32(l.depth);
            let at = self.buf.len();
            self.u32(0);
            encode_level(&l.ids, &mut self.buf);
            let len = (self.buf.len() - at - 4) as u32;
            self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
    }

    fn delta(&mut self, d: &StateDelta) {
        self.u32(d.base);
        self.u32(d.iter);
        self.u8(d.track_parents as u8);
        self.levels(&d.delegates);
        self.u32(d.gpus.len() as u32);
        for g in &d.gpus {
            self.u32(g.gpu_flat);
            g.directions.iter().for_each(|&dir| self.direction(dir));
            self.levels(&g.levels);
            self.list(&g.frontier, u32::to_le_bytes);
            if d.track_parents {
                self.list(&g.parents, u64::to_le_bytes);
                self.u32(g.candidates.len() as u32);
                for &(x, candidate) in &g.candidates {
                    self.u32(x);
                    self.u64(candidate);
                }
                self.parent_log(&g.remote_parent_log);
            }
            self.u64(g.digest);
        }
    }
}

/// Bounds-checked little-endian body reader: every length is checked
/// against the rest of the body before anything is allocated for it.
#[derive(Debug)]
struct WireReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> WireReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end =
            self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
                ProtocolError::new(format!("truncated body: need {n} more bytes"))
            })?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("a 4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("an 8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A 0/1 byte; anything else would re-encode differently.
    fn flag(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(ProtocolError::new(format!("flag byte {t} is not 0 or 1"))),
        }
    }

    fn bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A [`WireSink::list`].
    fn list<T, const N: usize>(
        &mut self,
        from_le: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ProtocolError> {
        self.records(N, |r| Ok(from_le(r.take(N)?.try_into().expect("an N-byte slice"))))
    }

    /// A count `u32`, then that many `size`-byte records, each read by
    /// `read`. All their bytes are taken before anything is allocated.
    fn records<T>(
        &mut self,
        size: usize,
        read: impl Fn(&mut Self) -> Result<T, ProtocolError>,
    ) -> Result<Vec<T>, ProtocolError> {
        let n = self.u32()? as usize;
        let bytes =
            self.take(n.checked_mul(size).ok_or_else(|| ProtocolError::new("list overflow"))?)?;
        let mut r = WireReader { bytes, at: 0 };
        (0..n).map(|_| read(&mut r)).collect()
    }

    fn expect_end(&self) -> Result<(), ProtocolError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::new(format!("{} trailing bytes", self.bytes.len() - self.at)))
        }
    }

    fn stats(&mut self) -> Result<Stats, ProtocolError> {
        Ok(Stats { iter: self.u32()?, frontier: self.u64()?, new_delegates: self.u64()? })
    }

    /// A [`WireWriter::body`]; an encoded one is decoded only by its
    /// consumer. A flag other than 0 or 1, or a raw length that is not a
    /// multiple of `N`, is a typed error.
    fn body<T, const N: usize>(
        &mut self,
        from_le: fn([u8; N]) -> T,
    ) -> Result<WireBody<T>, ProtocolError> {
        let flag = self.u8()?;
        let bytes = self.bytes()?;
        match flag {
            0 if bytes.len().is_multiple_of(N) => Ok(WireBody::Raw(
                bytes
                    .chunks_exact(N)
                    .map(|c| from_le(c.try_into().expect("an N-byte chunk")))
                    .collect(),
            )),
            0 => Err(ProtocolError::new(format!("raw body length not a multiple of {N}"))),
            1 => Ok(WireBody::Encoded(bytes.to_vec())),
            f => Err(ProtocolError::new(format!("body flag {f} is not 0 or 1"))),
        }
    }

    /// An exchange on `topo`: at most one contribution per rank, every
    /// block endpoint inside the grid. The contributions' ranks and
    /// encoded bodies are checked by the reduction.
    fn exchange(&mut self, topo: &Topology) -> Result<Exchange<'static>, ProtocolError> {
        let iter = self.u32()?;
        let (ranks, p) = (topo.num_ranks(), topo.num_gpus() as usize);
        let n = self.u32()?;
        if n > ranks {
            return Err(ProtocolError::new(format!("{n} mask contributions for {ranks} ranks")));
        }
        let contributions = (0..n)
            .map(|_| {
                Ok(MaskContribution { rank: self.u32()?, body: self.body(u64::from_le_bytes)? })
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?;
        let n = self.u32()? as usize;
        let mut blocks = Vec::with_capacity(n.min(p * p));
        for _ in 0..n {
            let (src, dst) = (self.u32()? as usize, self.u32()? as usize);
            if src >= p || dst >= p {
                return Err(ProtocolError::new(format!(
                    "block {src} -> {dst} outside a {p}-gpu grid"
                )));
            }
            blocks.push(Block { src, dst, body: self.body(u32::from_le_bytes)? });
        }
        Ok(Exchange { iter, contributions: Cow::Owned(contributions), blocks })
    }

    /// A [`WireWriter::optional_delta`] on `topo`.
    fn optional_delta(&mut self, topo: &Topology) -> Result<Option<StateDelta>, ProtocolError> {
        self.flag()?.then(|| self.delta(topo)).transpose()
    }

    /// A delta for a grid of `topo`'s GPUs: each GPU inside it and listed
    /// once, every level decoded.
    fn delta(&mut self, topo: &Topology) -> Result<StateDelta, ProtocolError> {
        let (base, iter, track_parents) = (self.u32()?, self.u32()?, self.flag()?);
        let delegates = self.levels()?;
        let (n, p) = (self.u32()?, topo.num_gpus());
        if n > p {
            return Err(ProtocolError::new(format!("{n} gpu deltas for {p} gpus")));
        }
        let mut gpus: Vec<GpuDelta> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let gpu_flat = self.u32()?;
            if gpu_flat >= p || gpus.iter().any(|g| g.gpu_flat == gpu_flat) {
                return Err(ProtocolError::new(format!("delta for gpu {gpu_flat} out of place")));
            }
            let directions = [self.direction()?, self.direction()?, self.direction()?];
            let levels = self.levels()?;
            let frontier = self.list(u32::from_le_bytes)?;
            let (mut parents, mut candidates, mut remote_parent_log) = Default::default();
            if track_parents {
                parents = self.list(u64::from_le_bytes)?;
                candidates = self.records(12, |r| Ok((r.u32()?, r.u64()?)))?;
                remote_parent_log = self.records(24, |r| {
                    let owner = GpuId { rank: r.u32()?, gpu: r.u32()? };
                    Ok((owner, r.u32()?, r.u64()?, r.u32()?))
                })?;
            }
            let digest = self.u64()?;
            gpus.push(GpuDelta {
                gpu_flat,
                directions,
                levels,
                frontier,
                parents,
                candidates,
                remote_parent_log,
                digest,
            });
        }
        Ok(StateDelta { base, iter, track_parents, delegates, gpus })
    }

    /// Levels, each decoded; one that does not decode, is not strictly
    /// ascending, or is not the one body [`encode_level`] makes of its ids
    /// (so no changed byte decodes to the same level) is a typed error.
    fn levels(&mut self) -> Result<Vec<Level>, ProtocolError> {
        let n = self.u32()?;
        let mut levels = Vec::new();
        for _ in 0..n {
            let depth = self.u32()?;
            let body = self.bytes()?;
            let (ids, _) = decode_frontier(body)
                .map_err(|e| ProtocolError::new(format!("level {depth}: {e}")))?;
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(ProtocolError::new(format!("level {depth} is not strictly ascending")));
            }
            let mut canonical = Vec::with_capacity(body.len());
            encode_level(&ids, &mut canonical);
            if canonical != body {
                return Err(ProtocolError::new(format!("level {depth} is not canonical")));
            }
            levels.push(Level { depth, ids });
        }
        Ok(levels)
    }

    fn direction(&mut self) -> Result<Direction, ProtocolError> {
        match self.u8()? {
            0 => Ok(Direction::Forward),
            1 => Ok(Direction::Backward),
            t => Err(ProtocolError::new(format!("unknown direction tag {t}"))),
        }
    }
}

impl StateFields<'_> {
    /// Writes every field of an image but the digest — the bytes
    /// [`GpuStateImage::seal`] folds.
    pub(crate) fn encode(&self, w: &mut impl WireSink) {
        w.u32(self.gpu_flat);
        w.u8(self.track_parents as u8);
        w.list(self.depths_local, u32::to_le_bytes);
        w.list(self.delegate_depths, u32::to_le_bytes);
        w.u32(self.visited_bits);
        w.list(self.visited_words, u64::to_le_bytes);
        w.list(self.frontier, u32::to_le_bytes);
        w.list(self.new_delegates, u32::to_le_bytes);
        self.directions.iter().for_each(|&d| w.direction(d));
        w.list(self.parents_local, u64::to_le_bytes);
        w.list(self.delegate_parent_candidate, u64::to_le_bytes);
        w.parent_log(self.remote_parent_log);
    }
}

/// A level's ids as the frontier codec [`select_frontier_codec`] picks
/// for them encodes them.
fn encode_level(ids: &[u32], out: &mut Vec<u8>) {
    select_frontier_codec(ids).encode_into(ids, out).expect("a level is strictly ascending");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::collectives::{contribute, reduce_contributions, ReduceError};

    fn sample_delta(parents: bool) -> StateDelta {
        let level = |depth, ids: &[u32]| Level { depth, ids: ids.to_vec() };
        let gpu = |gpu_flat| GpuDelta {
            gpu_flat,
            directions: [Direction::Forward, Direction::Backward, Direction::Forward],
            levels: vec![level(3, &[1, 4, 5, 6, 7, 8, 9]), level(5, &[2, 900])],
            frontier: vec![900, 2],
            parents: if parents { (0..9).collect() } else { Vec::new() },
            candidates: if parents { vec![(1, 6), (0, 1 << 63)] } else { Vec::new() },
            remote_parent_log: if parents {
                vec![(GpuId { rank: 1, gpu: 0 }, 9, 77, 3)]
            } else {
                Vec::new()
            },
            digest: 0xfeed,
        };
        StateDelta {
            base: 2,
            iter: 5,
            track_parents: parents,
            delegates: vec![level(4, &[0]), level(5, &[1])],
            gpus: vec![gpu(3), gpu(1)],
        }
    }

    /// One message of every kind, `Begin` with and without a resume (a
    /// delta from iteration 0) and `StepDone` with and without a save, on a
    /// 2 × 2 grid.
    fn one_of_each<'a>(config: &'a [u8], graph: &'a [u8]) -> Vec<Msg<'a>> {
        let stats = Stats { iter: 3, frontier: 17, new_delegates: 2 };
        let varint = FrontierCodec::VarintDelta.encode(&[2, 4, 4, 10]).unwrap();
        let exchange = Exchange {
            iter: 3,
            contributions: Cow::Owned(vec![
                MaskContribution { rank: 1, body: WireBody::Raw(vec![7, 1 << 63]) },
                contribute(CompressionMode::Adaptive, None, 0, vec![3, 0]),
            ]),
            blocks: vec![
                Block { src: 1, dst: 2, body: WireBody::Raw(vec![5, 3, 9]) },
                Block { src: 0, dst: 3, body: WireBody::Encoded(varint) },
            ],
        };
        let resume = StateDelta { base: 0, ..sample_delta(true) };
        vec![
            Msg::Hello { version: PROTO_VERSION, slot: 1 },
            Msg::Setup(Setup {
                topo: Topology::new(2, 2).with_spares(1),
                config,
                step_timeout_ms: 60_000,
                graph,
            }),
            Msg::Ready(Stats { iter: 0, ..stats }),
            Msg::Begin { source: 42, hosted: vec![2, 3], resume: None },
            Msg::Begin { source: 42, hosted: vec![1, 3], resume: Some(resume) },
            Msg::StepGo { iter: 3, checkpoint: true },
            Msg::StepLocal(exchange.clone()),
            Msg::StepRemote(Exchange { contributions: Cow::Owned(Vec::new()), ..exchange }),
            Msg::StepDone { stats, save: None },
            Msg::StepDone { stats, save: Some(sample_delta(true)) },
            Msg::StepDone { stats, save: Some(sample_delta(false)) },
            Msg::Finish,
            Msg::FinalState(sample_delta(true)),
            Msg::Shutdown,
        ]
    }

    #[test]
    fn every_kind_round_trips_and_every_truncation_or_trailing_byte_is_typed() {
        let topo = Topology::new(2, 2);
        let config = encode_worker_config(&BfsConfig::new(16), true);
        let msgs = one_of_each(&config, b"graph bytes");
        let kinds: std::collections::BTreeSet<u8> = msgs.iter().map(Msg::kind).collect();
        assert_eq!(kinds.len(), 11, "one message of every kind");
        for msg in &msgs {
            let frame = msg.frame();
            assert_eq!(frame.kind, msg.kind());
            assert_eq!(&Msg::decode(&frame, Some(&topo)).unwrap(), msg);
            let body = frame.payload();
            for len in 0..body.len() {
                let cut = Frame::new(frame.kind, body[..len].to_vec());
                assert!(Msg::decode(&cut, Some(&topo)).is_err(), "{msg:?} cut to {len}");
            }
            let long = Frame::new(frame.kind, [body, &[0]].concat());
            let err = Msg::decode(&long, Some(&topo)).unwrap_err();
            assert!(err.detail.contains("1 trailing bytes"), "{msg:?}: {err}");
            // A body that names GPUs or ranks, or may (a `StepDone`, by its
            // save), needs the grid.
            let needs_grid = matches!(
                msg,
                Msg::Begin { .. }
                    | Msg::StepLocal(_)
                    | Msg::StepRemote(_)
                    | Msg::StepDone { .. }
                    | Msg::FinalState(_)
            );
            assert_eq!(Msg::decode(&frame, None).is_err(), needs_grid, "{msg:?}");
            let state = matches!(
                msg,
                Msg::Begin { resume: Some(_), .. }
                    | Msg::StepDone { save: Some(_), .. }
                    | Msg::FinalState(_)
            );
            assert_eq!(carries_state(&frame), state, "{msg:?}");
            // The header's iteration is the decoded one; a body too short
            // to hold it has none.
            let iter = match msg {
                Msg::StepGo { iter, .. } => Some(*iter),
                Msg::Ready(s) | Msg::StepDone { stats: s, .. } => Some(s.iter),
                Msg::StepLocal(x) | Msg::StepRemote(x) => Some(x.iter),
                _ => None,
            };
            assert_eq!(frame_iter(&frame), iter, "{msg:?}");
            let short = Frame::new(frame.kind, body[..body.len().min(3)].to_vec());
            assert_eq!(frame_iter(&short), None, "{msg:?}");
        }
        // A save flag other than 0 or 1 is typed.
        let done = Msg::StepDone { stats: Stats::default(), save: None }.frame();
        let mut bad = done.payload().to_vec();
        bad[20] = 2;
        let err = Msg::decode(&Frame::new(kind::STEP_DONE, bad), Some(&topo)).unwrap_err();
        assert_eq!(err.detail, "flag byte 2 is not 0 or 1");
        // 0x40, the retired heartbeat's kind, is as unknown as any other.
        for k in [0x40, 0x7f] {
            let unknown = Frame::new(k, Vec::new());
            let err = Msg::decode(&unknown, Some(&topo)).unwrap_err();
            assert_eq!(err.detail, format!("unknown frame kind {k:#x}"));
        }
    }

    #[test]
    fn a_setup_frame_is_the_setup_with_the_graph_serialised_in_place() {
        let graph = gcbfs_graph::builders::grid(3, 4);
        let mut bytes = Vec::new();
        gcbfs_graph::io::write_binary(&graph, &mut bytes).unwrap();
        let config = encode_worker_config(&BfsConfig::new(16), false);
        let setup = Setup {
            topo: Topology::new(2, 2).with_spares(1),
            config: &config,
            step_timeout_ms: 60_000,
            graph: &bytes,
        };
        let frame = setup_frame(&Setup { graph: &[], ..setup.clone() }, &graph).unwrap();
        assert_eq!(frame, Msg::Setup(setup).frame());
    }

    #[test]
    fn worker_config_roundtrips_and_refuses_unknown_tags() {
        let fixed = FrontierCodec::ALL
            .into_iter()
            .flat_map(|f| MaskCodec::ALL.map(|m| CompressionMode::Fixed(f, m)));
        let modes: Vec<_> =
            [CompressionMode::Off, CompressionMode::Adaptive].into_iter().chain(fixed).collect();
        assert_eq!(modes.len(), 11);
        for mode in modes {
            let config = BfsConfig::new(42)
                .with_direction_optimization(false)
                .with_local_all2all(true)
                .with_uniquify(true)
                .with_compression(mode);
            let bytes = encode_worker_config(&config, true);
            let (back, parents) = decode_worker_config(&bytes).unwrap();
            assert!(parents);
            assert_eq!(back.degree_threshold, 42);
            assert!(!back.direction_optimization);
            assert!(back.local_all2all && back.uniquify);
            assert_eq!(back.compression, mode);
            assert_eq!(encode_worker_config(&back, parents), bytes, "{mode}");
            // The flag byte sits after the threshold; bits 5-7 are unused.
            let mut bad = bytes.clone();
            bad[8] |= 1 << 5;
            assert!(decode_worker_config(&bad).is_err());
            if let CompressionMode::Fixed(..) = mode {
                // The mode byte sits after threshold (8), flags (1) and
                // six factors (48); an unknown codec tag after it is typed.
                for at in [58, 59] {
                    let mut bad = bytes.clone();
                    bad[at] = 0x7f;
                    assert!(decode_worker_config(&bad).is_err());
                }
            }
        }
    }

    /// A `StepDone` frame saving `delta`.
    fn save(delta: StateDelta) -> Frame {
        Msg::StepDone { stats: Stats::default(), save: Some(delta) }.frame()
    }

    /// A `StepDone` body with a save on a 2 × 2 grid, decoded to its save.
    fn read_delta(body: Vec<u8>) -> Result<StateDelta, ProtocolError> {
        match Msg::decode(&Frame::new(kind::STEP_DONE, body), Some(&Topology::new(2, 2)))? {
            Msg::StepDone { save: Some(d), .. } => Ok(d),
            other => panic!("not a save: {other:?}"),
        }
    }

    #[test]
    fn deltas_refuse_foreign_repeated_or_surplus_gpus_and_broken_levels() {
        let good = sample_delta(false);
        assert_eq!(read_delta(save(good.clone()).payload().to_vec()).unwrap(), good);
        let with = |gpus: Vec<u32>| {
            let mut d = good.clone();
            d.gpus = gpus
                .into_iter()
                .map(|f| GpuDelta { gpu_flat: f, ..good.gpus[0].clone() })
                .collect();
            save(d).payload().to_vec()
        };
        for (gpus, detail) in [
            (vec![4], "delta for gpu 4 out of place"),
            (vec![1, 1], "delta for gpu 1 out of place"),
            (vec![0, 1, 2, 3, 0], "5 gpu deltas for 4 gpus"),
        ] {
            assert_eq!(read_delta(with(gpus)).unwrap_err().detail, detail);
        }
        // The delta starts after the stats (20) and the save flag (1). Its
        // first delegate level's length sits after base, iteration, flag,
        // level count and depth (4 + 4 + 1 + 4 + 4), then comes a one-id
        // Raw32 body, header (5) then the id.
        let (len_at, body_at) = (21 + 17, 21 + 21);
        let frame = save(good.clone());
        let mut unknown = frame.payload().to_vec();
        unknown[body_at] = 0x7f;
        let err = read_delta(unknown).unwrap_err();
        assert!(err.detail.starts_with("level 4: unknown codec tag"), "{err}");
        // The same id under the raw-fallback flag decodes alike, but is not
        // the body the writer makes.
        let mut fallback = frame.payload().to_vec();
        fallback[body_at] |= 0x80;
        assert_eq!(read_delta(fallback).unwrap_err().detail, "level 4 is not canonical");
        let mut unsorted = frame.payload().to_vec();
        // Raw32 over [3, 1]: a two-id body replaces the one-id one.
        let mut body = Vec::new();
        FrontierCodec::Raw32.encode_into(&[3, 1], &mut body).unwrap();
        unsorted.splice(
            len_at..len_at + 4 + 9,
            [(body.len() as u32).to_le_bytes().to_vec(), body].concat(),
        );
        assert_eq!(read_delta(unsorted).unwrap_err().detail, "level 4 is not strictly ascending");
    }

    #[test]
    fn a_hostile_record_count_is_refused_before_anything_is_allocated() {
        // One candidate (12 bytes) and one parent proposal (24), each count
        // set to u32::MAX with the body cut after it: the need named is the
        // whole list's, not the next field's.
        let mut state = StateDelta { delegates: Vec::new(), ..sample_delta(true) };
        state.gpus.truncate(1);
        state.gpus[0].candidates.truncate(1);
        let frame = Msg::FinalState(state).frame();
        let body = frame.payload();
        // Back from the end: the seal (8), the proposal (24) and its count
        // (4), the candidate (12) and its count (4).
        for (at, size) in [(body.len() - 52, 12), (body.len() - 36, 24)] {
            let mut hostile = body[..at + 4].to_vec();
            hostile[at..].copy_from_slice(&u32::MAX.to_le_bytes());
            let err =
                Msg::decode(&Frame::new(kind::FINAL_STATE, hostile), Some(&Topology::new(2, 2)))
                    .unwrap_err();
            let need = u64::from(u32::MAX) * size;
            assert_eq!(err.detail, format!("truncated body: need {need} more bytes"));
        }
    }

    /// A `StepLocal` body on a 2 × 2 grid and its decode.
    fn exchange(x: Exchange<'_>) -> Vec<u8> {
        Msg::StepLocal(x).frame().payload().to_vec()
    }

    fn read_exchange(body: &[u8]) -> Result<Msg<'static>, ProtocolError> {
        let frame = Frame::new(kind::STEP_LOCAL, body.to_vec());
        Msg::decode(&frame, Some(&Topology::new(2, 2))).map(|m| match m {
            Msg::StepLocal(x) => {
                let contributions = Cow::Owned(x.contributions.into_owned());
                Msg::StepLocal(Exchange { iter: x.iter, contributions, blocks: x.blocks })
            }
            _ => unreachable!("a StepLocal frame"),
        })
    }

    #[test]
    fn hostile_contributions_are_typed_errors() {
        let with = |cs: Vec<MaskContribution>| {
            exchange(Exchange { iter: 0, contributions: Cow::Owned(cs), blocks: Vec::new() })
        };
        let raw = MaskContribution { rank: 1, body: WireBody::Raw(vec![7, 1 << 63]) };
        let good = with(vec![raw]);
        // After the iteration (4), the count (4) and the rank (4), the flag
        // is 0 or 1.
        for flag in [2u8, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[12] = flag;
            assert!(read_exchange(&bad).unwrap_err().detail.contains("flag"), "flag {flag}");
        }
        // More entries than ranks is refused before anything is read.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_exchange(&bad).unwrap_err().detail.contains("for 2 ranks"));
        // A raw body whose length is not a multiple of 8.
        let mut bad = good.clone();
        bad[13..17].copy_from_slice(&15u32.to_le_bytes());
        assert!(read_exchange(&bad).unwrap_err().detail.contains("multiple of 8"));
        // A rank outside the grid and an encoded body that does not decode
        // pass the frame layout and are refused by the reduction.
        let mut foreign = good.clone();
        foreign[8] = 2;
        let Msg::StepLocal(back) = read_exchange(&foreign).unwrap() else { unreachable!() };
        assert_eq!(
            reduce_contributions(2, 2, None, &back.contributions),
            Err(ReduceError::RankOutOfRange(2))
        );
        let garbage = MaskContribution { rank: 0, body: WireBody::Encoded(vec![0x7f, 2, 0, 0, 0]) };
        let Msg::StepLocal(back) = read_exchange(&with(vec![garbage])).unwrap() else {
            unreachable!()
        };
        let err = reduce_contributions(2, 2, None, &back.contributions).unwrap_err();
        assert!(matches!(err, ReduceError::Undecodable(0, _)), "{err:?}");
    }

    #[test]
    fn hostile_blocks_are_typed_errors() {
        let topo = Topology::new(2, 2);
        let block = Block { src: 1, dst: 2, body: WireBody::Raw(vec![7]) };
        let with = |b: Block| {
            exchange(Exchange { iter: 0, contributions: Cow::Owned(Vec::new()), blocks: vec![b] })
        };
        // The block starts after the iteration and both counts (12).
        let good = with(block);
        // The flag byte is 0 or 1, nothing else.
        for flag in [2u8, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[20] = flag;
            assert!(read_exchange(&bad).unwrap_err().detail.contains("flag"), "flag {flag}");
        }
        // A sender or receiver outside the grid.
        for at in [12, 16] {
            let mut bad = good.clone();
            bad[at] = 4;
            assert!(read_exchange(&bad).unwrap_err().detail.contains("outside"), "offset {at}");
        }
        // A raw body whose length is not a multiple of 4, and a hostile
        // length, which fails before anything is allocated for it.
        for len in [3, u32::MAX] {
            let mut bad = good.clone();
            bad[21..25].copy_from_slice(&len.to_le_bytes());
            assert!(read_exchange(&bad).is_err(), "length {len}");
        }
        // An encoded body that does not decode passes the frame layout and
        // is refused on delivery.
        let garbage = Block { src: 1, dst: 2, body: WireBody::Encoded(vec![0x7f, 1, 0, 0, 0]) };
        let Msg::StepLocal(back) = read_exchange(&with(garbage)).unwrap() else { unreachable!() };
        let err = crate::comm::deliver_blocks(&topo, &[2], back.blocks).unwrap_err();
        assert!(err.detail.contains("does not decode"), "{err}");
    }
}
