//! Wire protocol of the proc backend: one typed [`Msg`] per frame kind,
//! and the only code that writes or reads a frame body.
//!
//! Every message rides one [`Frame`], so payloads inherit the frame
//! layer's FNV-1a seal and bounded-allocation decoding. Each state image
//! carries its own [`GpuStateImage::seal`] as well, so state is verified
//! with the identical primitive whether it sat in the coordinator's
//! checkpoint store or crossed a socket.
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
//! | `0x04` | [`Msg::Begin`] | C → W | source `u64`; hosted flats (`u32` list); resume flag `u8`, then, when 1, an image list | [`WorkerRound`](super::worker::WorkerRound) |
//! | `0x03` | [`Msg::Ready`] | W → C | stats | round `begin_on` |
//! | `0x10` | [`Msg::StepGo`] | C → W | iteration `u32`, checkpoint flag `u8` | `WorkerRound` |
//! | `0x14` | [`Msg::CheckpointSave`] | W → C | image list | round `gather` (staged) |
//! | `0x11` | [`Msg::StepLocal`] | W → C | exchange | round `route` |
//! | `0x12` | [`Msg::StepRemote`] | C → W | exchange | `WorkerRound` |
//! | `0x13` | [`Msg::StepDone`] | W → C | stats | round superstep barrier |
//! | `0x30` | [`Msg::Finish`] | C → W | empty | `WorkerRound` |
//! | `0x31` | [`Msg::FinalState`] | W → C | duplicates ignored `u64`, images | round `finish` |
//! | `0x41` | [`Msg::Shutdown`] | C → W | empty | worker process |
//! | `0x42` | [`Msg::Bye`] | W → C | empty | none: teardown waits for the exit |
//!
//! A run is `Begin` → `Ready`, then per superstep `StepGo` →
//! (`CheckpointSave`, on the checkpoint cadence) `StepLocal` →
//! `StepRemote` → `StepDone`, then `Finish` → `FinalState`. `Begin` names
//! the GPUs the worker hosts and is the run's iteration-0 checkpoint: the
//! state entering superstep 0 follows from the source alone, so no image
//! is saved there. A recovery is one more `Begin` → `Ready` round on every
//! live worker, a spare among them (it gets `Hello` and `Setup` first);
//! each `Begin` names the worker's GPUs from then on and, once an image
//! checkpoint committed, resumes from it with exactly those GPUs' images.
//! A cold pool opens with `Hello` and `Setup`, the same `Setup` for every
//! worker; teardown is `Shutdown` → `Bye`. No frame reports liveness: a
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
//! - **images**: count `u32`, then per image its fields and seal; the
//!   **image list** is iteration `u32`, then images ([`Images`]).
//! - **worker config**: `TH` `u64`; a flag byte (DO, local all2all,
//!   uniquify, per-kernel direction, parents — bits 0–4); the `dd`, `dn`
//!   and `nd` switch-factor pairs (`f64` each); compression (0 off, 1 fixed
//!   plus the frontier and mask codec tags, 2 adaptive); the kernel variant
//!   (0 scalar, 1 word-parallel).
//!
//! A byte string and a list are a `u32` count, then the items.

use crate::checkpoint::GpuStateImage;
use crate::comm::Block;
use crate::config::BfsConfig;
use crate::direction::Direction;
use crate::kernels::KernelVariant;
use gcbfs_cluster::collectives::MaskContribution;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::{CompressionMode, Frame, FrontierCodec, MaskCodec, WireBody};
use gcbfs_graph::{EdgeList, VertexId};
use std::borrow::Cow;

/// Protocol version carried in `Hello`; a coordinator rejects any worker
/// that was built against a different framing or message layout.
pub const PROTO_VERSION: u32 = 7;

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
    /// [`Msg::CheckpointSave`](super::Msg::CheckpointSave).
    pub const CHECKPOINT_SAVE: u8 = 0x14;
    /// [`Msg::Finish`](super::Msg::Finish).
    pub const FINISH: u8 = 0x30;
    /// [`Msg::FinalState`](super::Msg::FinalState).
    pub const FINAL_STATE: u8 = 0x31;
    /// [`Msg::Shutdown`](super::Msg::Shutdown).
    pub const SHUTDOWN: u8 = 0x41;
    /// [`Msg::Bye`](super::Msg::Bye).
    pub const BYE: u8 = 0x42;
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
        /// The committed checkpoint to resume at: one image per hosted GPU.
        /// `None` seeds the source and enters superstep 0.
        resume: Option<Images>,
    },
    /// Run one superstep's local computation.
    StepGo {
        /// The superstep.
        iter: u32,
        /// Save the hosted GPUs' state first (`CheckpointSave`).
        checkpoint: bool,
    },
    /// The hosted ranks' mask contributions (none when no hosted bit
    /// changed) and the blocks for GPUs the worker does not host.
    StepLocal(Exchange<'a>),
    /// The other workers' mask contributions, relayed unopened, and the
    /// blocks for the worker's GPUs.
    StepRemote(Exchange<'a>),
    /// The superstep barrier (the next frontier's statistics).
    StepDone(Stats),
    /// Sealed state images at a checkpoint.
    CheckpointSave(Images),
    /// The traversal finished: ship the final state.
    Finish,
    /// The end of a traversal; the worker then waits for the next `Begin`
    /// or for `Shutdown`.
    FinalState {
        /// Duplicate `StepRemote` frames this traversal ignored.
        duplicates_ignored: u64,
        /// The final sealed image of every hosted GPU.
        images: Vec<GpuStateImage>,
    },
    /// Drain and exit.
    Shutdown,
    /// Acknowledged shutdown, about to exit.
    Bye,
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

/// The body of `CheckpointSave` and of a `Begin`'s resume.
#[derive(Clone, Debug, PartialEq)]
pub struct Images {
    /// The superstep the images enter.
    pub iter: u32,
    /// One sealed image per GPU, none repeated.
    pub images: Vec<GpuStateImage>,
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
            Self::StepDone(_) => kind::STEP_DONE,
            Self::CheckpointSave(_) => kind::CHECKPOINT_SAVE,
            Self::Finish => kind::FINISH,
            Self::FinalState { .. } => kind::FINAL_STATE,
            Self::Shutdown => kind::SHUTDOWN,
            Self::Bye => kind::BYE,
        }
    }

    /// The superstep a message belongs to, for the kinds that carry one.
    pub fn iter(&self) -> Option<u32> {
        match self {
            Self::StepGo { iter, .. } => Some(*iter),
            Self::Ready(s) | Self::StepDone(s) => Some(s.iter),
            Self::StepLocal(x) | Self::StepRemote(x) => Some(x.iter),
            Self::CheckpointSave(l) => Some(l.iter),
            _ => None,
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
                w.u8(resume.is_some() as u8);
                if let Some(l) = resume {
                    w.image_list(l);
                }
            }
            Self::StepGo { iter, checkpoint } => {
                w.u32(*iter);
                w.u8(*checkpoint as u8);
            }
            Self::Ready(s) | Self::StepDone(s) => {
                w.u32(s.iter);
                w.u64(s.frontier);
                w.u64(s.new_delegates);
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
            Self::CheckpointSave(l) => w.image_list(l),
            Self::FinalState { duplicates_ignored, images } => {
                w.u64(*duplicates_ignored);
                w.images(images);
            }
            Self::Finish | Self::Shutdown | Self::Bye => {}
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
    /// image that fails its seal, or one outside the grid or repeated; an
    /// unknown tag in a worker config.
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
                    resume: if r.flag()? { Some(r.image_list(topo)?) } else { None },
                }
            }
            kind::STEP_GO => Self::StepGo { iter: r.u32()?, checkpoint: r.flag()? },
            kind::STEP_LOCAL => Self::StepLocal(r.exchange(grid()?)?),
            kind::STEP_REMOTE => Self::StepRemote(r.exchange(grid()?)?),
            kind::STEP_DONE => Self::StepDone(r.stats()?),
            kind::CHECKPOINT_SAVE => Self::CheckpointSave(r.image_list(grid()?)?),
            kind::FINISH => Self::Finish,
            kind::FINAL_STATE => {
                let duplicates_ignored = r.u64()?;
                Self::FinalState { duplicates_ignored, images: r.images(grid()?)? }
            }
            kind::SHUTDOWN => Self::Shutdown,
            kind::BYE => Self::Bye,
            k => return Err(ProtocolError::new(format!("unknown frame kind {k:#x}"))),
        };
        r.expect_end()?;
        Ok(msg)
    }
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

/// Little-endian body writer. The image seal is its one user outside the
/// message codec.
#[derive(Debug, Default)]
pub(crate) struct WireWriter {
    pub(crate) buf: Vec<u8>,
}

impl WireWriter {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// A list of `N`-byte little-endian elements.
    fn list<T: Copy, const N: usize>(&mut self, v: &[T], le: fn(T) -> [u8; N]) {
        self.u32(v.len() as u32);
        v.iter().for_each(|&x| self.buf.extend_from_slice(&le(x)));
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

    /// A `Setup` body up to its graph.
    fn setup_head(&mut self, s: &Setup<'_>) {
        self.u32(s.topo.num_ranks());
        self.u32(s.topo.gpus_per_rank());
        self.u32(s.topo.num_spares());
        self.buf.extend_from_slice(s.config);
        self.u64(s.step_timeout_ms);
    }

    fn image_list(&mut self, l: &Images) {
        self.u32(l.iter);
        self.images(&l.images);
    }

    fn images(&mut self, images: &[GpuStateImage]) {
        self.u32(images.len() as u32);
        for img in images {
            img.encode_fields(self);
            self.u64(img.digest);
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

    /// A [`WireWriter::list`].
    fn list<T, const N: usize>(
        &mut self,
        from_le: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ProtocolError> {
        let n = self.u32()? as usize;
        let raw =
            self.take(n.checked_mul(N).ok_or_else(|| ProtocolError::new("list overflow"))?)?;
        Ok(raw.chunks_exact(N).map(|c| from_le(c.try_into().expect("an N-byte chunk"))).collect())
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

    fn image_list(&mut self, topo: &Topology) -> Result<Images, ProtocolError> {
        Ok(Images { iter: self.u32()?, images: self.images(topo)? })
    }

    /// Images for a grid of `topo`'s GPUs, every seal verified. A GPU
    /// outside the grid or listed twice is a typed error.
    fn images(&mut self, topo: &Topology) -> Result<Vec<GpuStateImage>, ProtocolError> {
        let p = topo.num_gpus() as usize;
        let n = self.u32()? as usize;
        if n > p {
            return Err(ProtocolError::new(format!("{n} state images for {p} gpus")));
        }
        let mut images: Vec<GpuStateImage> = Vec::with_capacity(n);
        for _ in 0..n {
            let img = self.image()?;
            let flat = img.gpu_flat;
            if flat as usize >= p || images.iter().any(|i| i.gpu_flat == flat) {
                return Err(ProtocolError::new(format!("state image for gpu {flat} out of place")));
            }
            images.push(img);
        }
        Ok(images)
    }

    /// One image; a digest mismatch is a typed error, never a silent
    /// install of corrupted state.
    fn image(&mut self) -> Result<GpuStateImage, ProtocolError> {
        let gpu_flat = self.u32()?;
        let track_parents = self.flag()?;
        let depths_local = self.list(u32::from_le_bytes)?;
        let delegate_depths = self.list(u32::from_le_bytes)?;
        let visited_bits = self.u32()?;
        let visited_words = self.list(u64::from_le_bytes)?;
        if visited_words.len() != (visited_bits as usize).div_ceil(64) {
            return Err(ProtocolError::new("visited mask word count mismatch"));
        }
        let frontier = self.list(u32::from_le_bytes)?;
        let new_delegates = self.list(u32::from_le_bytes)?;
        let directions = [self.direction()?, self.direction()?, self.direction()?];
        let parents_local = self.list(u64::from_le_bytes)?;
        let delegate_parent_candidate = self.list(u64::from_le_bytes)?;
        let n = self.u32()? as usize;
        let mut remote_parent_log = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let owner = GpuId { rank: self.u32()?, gpu: self.u32()? };
            remote_parent_log.push((owner, self.u32()?, self.u64()?, self.u32()?));
        }
        let img = GpuStateImage {
            gpu_flat,
            track_parents,
            depths_local,
            delegate_depths,
            visited_bits,
            visited_words,
            frontier,
            new_delegates,
            directions,
            parents_local,
            delegate_parent_candidate,
            remote_parent_log,
            digest: self.u64()?,
        };
        img.verify().map_err(|e| ProtocolError::new(e.to_string()))?;
        Ok(img)
    }

    fn direction(&mut self) -> Result<Direction, ProtocolError> {
        match self.u8()? {
            0 => Ok(Direction::Forward),
            1 => Ok(Direction::Backward),
            t => Err(ProtocolError::new(format!("unknown direction tag {t}"))),
        }
    }
}

impl GpuStateImage {
    /// Writes every field but the digest — the bytes
    /// [`GpuStateImage::seal`] folds. Canonical: the image decoder accepts
    /// exactly one encoding per value, so a flipped byte that still parses
    /// always changes the fold.
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.u32(self.gpu_flat);
        w.u8(self.track_parents as u8);
        w.list(&self.depths_local, u32::to_le_bytes);
        w.list(&self.delegate_depths, u32::to_le_bytes);
        w.u32(self.visited_bits);
        w.list(&self.visited_words, u64::to_le_bytes);
        w.list(&self.frontier, u32::to_le_bytes);
        w.list(&self.new_delegates, u32::to_le_bytes);
        for d in self.directions {
            w.u8(match d {
                Direction::Forward => 0,
                Direction::Backward => 1,
            });
        }
        w.list(&self.parents_local, u64::to_le_bytes);
        w.list(&self.delegate_parent_candidate, u64::to_le_bytes);
        w.u32(self.remote_parent_log.len() as u32);
        for &(owner, local, parent, depth) in &self.remote_parent_log {
            w.u32(owner.rank);
            w.u32(owner.gpu);
            w.u32(local);
            w.u64(parent);
            w.u32(depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::collectives::{contribute, reduce_contributions, ReduceError};

    fn sample_image(gpu_flat: u32) -> GpuStateImage {
        let mut img = GpuStateImage {
            gpu_flat,
            track_parents: true,
            depths_local: vec![0, 7, u32::MAX],
            delegate_depths: vec![1, u32::MAX],
            visited_bits: 2,
            visited_words: vec![0b01],
            frontier: vec![1],
            new_delegates: vec![0],
            directions: [Direction::Backward, Direction::Forward, Direction::Backward],
            parents_local: vec![5, u64::MAX, u64::MAX],
            delegate_parent_candidate: vec![u64::MAX, 4],
            remote_parent_log: vec![(GpuId { rank: 1, gpu: 0 }, 9, 77, 3)],
            digest: 0,
        };
        img.digest = img.seal();
        img
    }

    /// One message of every kind, and `Begin` with and without a resume,
    /// on a 2 × 2 grid.
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
        let images = Images { iter: 2, images: vec![sample_image(3), sample_image(1)] };
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
            Msg::Begin { source: 42, hosted: vec![1, 3], resume: Some(images.clone()) },
            Msg::StepGo { iter: 3, checkpoint: true },
            Msg::StepLocal(exchange.clone()),
            Msg::StepRemote(Exchange { contributions: Cow::Owned(Vec::new()), ..exchange }),
            Msg::StepDone(stats),
            Msg::CheckpointSave(images),
            Msg::Finish,
            Msg::FinalState { duplicates_ignored: 2, images: vec![sample_image(0)] },
            Msg::Shutdown,
            Msg::Bye,
        ]
    }

    #[test]
    fn every_kind_round_trips_and_every_truncation_or_trailing_byte_is_typed() {
        let topo = Topology::new(2, 2);
        let config = encode_worker_config(&BfsConfig::new(16), true);
        let msgs = one_of_each(&config, b"graph bytes");
        let kinds: std::collections::BTreeSet<u8> = msgs.iter().map(Msg::kind).collect();
        assert_eq!(kinds.len(), 13, "one message of every kind");
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
            // A body that names GPUs or ranks needs the grid.
            let needs_grid = matches!(
                msg,
                Msg::Begin { .. }
                    | Msg::StepLocal(_)
                    | Msg::StepRemote(_)
                    | Msg::CheckpointSave(_)
                    | Msg::FinalState { .. }
            );
            assert_eq!(Msg::decode(&frame, None).is_err(), needs_grid, "{msg:?}");
        }
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

    /// `images`' body in a `FinalState`, past its leading count of
    /// duplicates.
    fn image_list(images: &[GpuStateImage]) -> Vec<u8> {
        let frame = Msg::FinalState { duplicates_ignored: 0, images: images.to_vec() }.frame();
        frame.payload()[8..].to_vec()
    }

    fn read_images(body: &[u8], gpus: u32) -> Result<Vec<GpuStateImage>, ProtocolError> {
        let mut r = WireReader { bytes: body, at: 0 };
        let images = r.images(&Topology::new(1, gpus))?;
        r.expect_end()?;
        Ok(images)
    }

    #[test]
    fn state_images_are_sealed_and_canonical() {
        let body = image_list(&[sample_image(3)]);
        assert_eq!(read_images(&body, 4).unwrap(), vec![sample_image(3)]);
        // Flip one depth bit: the seal check must reject the image. The
        // depths start after count (4), gpu_flat (4), flag (1), length (4).
        let mut tampered = body.clone();
        tampered[13] ^= 1;
        assert!(read_images(&tampered, 4).unwrap_err().detail.contains("seal"));
        // A non-canonical flag byte would re-encode as 1 and slip past
        // the seal, so it is rejected outright.
        let mut flag = body.clone();
        flag[8] = 3;
        assert!(read_images(&flag, 4).is_err());
    }

    #[test]
    fn image_lists_reject_foreign_repeated_and_surplus_gpus() {
        let good = image_list(&[sample_image(3), sample_image(1)]);
        let back = read_images(&good, 4).unwrap();
        assert_eq!(back.iter().map(|i| i.gpu_flat).collect::<Vec<_>>(), vec![3, 1]);
        // GPU 3 is outside a 2-GPU grid, and 2 images overflow a 1-GPU one.
        assert!(read_images(&good, 2).is_err());
        assert!(read_images(&good, 1).is_err());
        let repeated = image_list(&[sample_image(3), sample_image(3)]);
        assert!(read_images(&repeated, 4).is_err());
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
