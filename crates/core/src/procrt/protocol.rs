//! Wire protocol of the proc backend: message kinds, a little-endian
//! field writer/reader pair, the result-affecting config subset shipped
//! to workers, the wire form of the sealed [`GpuStateImage`] that
//! checkpoints, restores and the final-state collection carry, and the
//! frame layouts of an `nn` [`Block`] and of a delegate-mask
//! [`MaskContribution`] — whose bodies
//! [`form_blocks`](crate::comm::form_blocks) and
//! [`rank_contributions`](gcbfs_cluster::collectives::rank_contributions)
//! already encoded.
//!
//! Every message rides one [`Frame`](gcbfs_compress::Frame), so payloads
//! inherit the frame layer's FNV-1a seal and bounded-allocation decoding.
//! Each state image carries its own [`GpuStateImage::seal`] as well, so
//! state is verified with the identical primitive whether it sat in the
//! coordinator's checkpoint store or crossed a socket.

use crate::checkpoint::GpuStateImage;
use crate::comm::Block;
use crate::config::BfsConfig;
use crate::direction::Direction;
use crate::kernels::KernelVariant;
use gcbfs_cluster::collectives::MaskContribution;
use gcbfs_cluster::topology::GpuId;
use gcbfs_compress::{CompressionMode, FrontierCodec, MaskCodec, WireBody};

/// Protocol version carried in `Hello`; a coordinator rejects any worker
/// that was built against a different framing or message layout.
pub const PROTO_VERSION: u32 = 5;

/// Frame kind bytes. One octet per message type, grouped by phase.
pub mod kind {
    /// Worker → coordinator: first frame on a fresh connection.
    pub const HELLO: u8 = 0x01;
    /// Coordinator → worker: topology, config, graph bytes, hosted set —
    /// what the worker keeps for every traversal until `Shutdown`.
    pub const SETUP: u8 = 0x02;
    /// Worker → coordinator: traversal seeded (frontier statistics).
    pub const READY: u8 = 0x03;
    /// Coordinator → worker: start a traversal from a source, on a fresh
    /// hosted group over the graph kept since `Setup`.
    pub const BEGIN: u8 = 0x04;
    /// Coordinator → worker: run local computation for one superstep.
    pub const STEP_GO: u8 = 0x10;
    /// Worker → coordinator: local results — the hosted ranks' mask
    /// contributions (none when no hosted bit changed) and the outgoing
    /// blocks.
    pub const STEP_LOCAL: u8 = 0x11;
    /// Coordinator → worker: the other workers' mask contributions,
    /// relayed unopened, and the routed incoming blocks.
    pub const STEP_REMOTE: u8 = 0x12;
    /// Worker → coordinator: superstep barrier (frontier statistics).
    pub const STEP_DONE: u8 = 0x13;
    /// Worker → coordinator: sealed state images at a checkpoint.
    pub const CHECKPOINT_SAVE: u8 = 0x14;
    /// Coordinator → worker: install the committed images of every GPU
    /// the worker hosts from now on, and resume at their iteration.
    pub const RESTORE: u8 = 0x20;
    /// Worker → coordinator: restore done (recomputed statistics).
    pub const RESTORED: u8 = 0x21;
    /// Coordinator → worker: traversal finished, ship final state.
    pub const FINISH: u8 = 0x30;
    /// Worker → coordinator: the duplicate frames this traversal ignored,
    /// then the final per-GPU state images. The worker then waits for the
    /// next `Begin` or for `Shutdown`.
    pub const FINAL_STATE: u8 = 0x31;
    /// Worker → coordinator: liveness beat (feeds the phi detector).
    pub const HEARTBEAT: u8 = 0x40;
    /// Coordinator → worker: drain and exit.
    pub const SHUTDOWN: u8 = 0x41;
    /// Worker → coordinator: acknowledged shutdown, about to exit.
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

/// Little-endian message body writer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Empty body.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the body bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn u32s(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }
}

/// Bounds-checked little-endian message body reader.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> WireReader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end =
            self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
                ProtocolError::new(format!("truncated body: need {n} more bytes"))
            })?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length-prefixed byte slice. The prefix is validated against the
    /// remaining body before any allocation.
    pub fn bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A length-prefixed `u32` slice.
    pub fn u32s(&mut self) -> Result<Vec<u32>, ProtocolError> {
        let n = self.u32()? as usize;
        let raw =
            self.take(n.checked_mul(4).ok_or_else(|| ProtocolError::new("u32s overflow"))?)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// A length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>, ProtocolError> {
        let n = self.u32()? as usize;
        let raw =
            self.take(n.checked_mul(8).ok_or_else(|| ProtocolError::new("u64s overflow"))?)?;
        Ok(raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Asserts the whole body was consumed.
    pub fn expect_end(&self) -> Result<(), ProtocolError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::new(format!("{} trailing bytes", self.bytes.len() - self.at)))
        }
    }
}

/// The result-affecting subset of [`BfsConfig`] a worker needs to compute
/// bit-identical values to the sim. Cost-model, recovery, observability,
/// and verification knobs stay coordinator-side: they shape modeled time
/// and policy, never depths or parents.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigWire {
    /// Degree-separation threshold `TH`.
    pub degree_threshold: u64,
    /// Direction optimization on/off.
    pub direction_optimization: bool,
    /// Intra-rank regrouping of nn updates.
    pub local_all2all: bool,
    /// Sort + dedup of held nn updates.
    pub uniquify: bool,
    /// Per-kernel (vs global) direction decisions.
    pub per_kernel_direction: bool,
    /// `dd` kernel switch factors.
    pub dd_factors: (f64, f64),
    /// `dn` kernel switch factors.
    pub dn_factors: (f64, f64),
    /// `nd` kernel switch factors.
    pub nd_factors: (f64, f64),
    /// Wire compression mode (affects delivered block ordering).
    pub compression: CompressionMode,
    /// Kernel implementation variant.
    pub kernel_variant: KernelVariant,
    /// Whether workers record BFS-tree parents.
    pub track_parents: bool,
}

impl ConfigWire {
    /// Extracts the wire subset from a full config.
    pub fn from_config(config: &BfsConfig, track_parents: bool) -> Self {
        Self {
            degree_threshold: config.degree_threshold,
            direction_optimization: config.direction_optimization,
            local_all2all: config.local_all2all,
            uniquify: config.uniquify,
            per_kernel_direction: config.per_kernel_direction,
            dd_factors: (
                config.dd_factors.forward_to_backward,
                config.dd_factors.backward_to_forward,
            ),
            dn_factors: (
                config.dn_factors.forward_to_backward,
                config.dn_factors.backward_to_forward,
            ),
            nd_factors: (
                config.nd_factors.forward_to_backward,
                config.nd_factors.backward_to_forward,
            ),
            compression: config.compression,
            kernel_variant: config.kernel_variant,
            track_parents,
        }
    }

    /// Reconstructs a worker-side [`BfsConfig`] (defaults for the
    /// non-result-affecting fields).
    pub fn to_config(&self) -> BfsConfig {
        let mut c = BfsConfig::new(self.degree_threshold)
            .with_direction_optimization(self.direction_optimization)
            .with_local_all2all(self.local_all2all)
            .with_uniquify(self.uniquify)
            .with_per_kernel_direction(self.per_kernel_direction)
            .with_compression(self.compression)
            .with_kernel_variant(self.kernel_variant);
        c.dd_factors.forward_to_backward = self.dd_factors.0;
        c.dd_factors.backward_to_forward = self.dd_factors.1;
        c.dn_factors.forward_to_backward = self.dn_factors.0;
        c.dn_factors.backward_to_forward = self.dn_factors.1;
        c.nd_factors.forward_to_backward = self.nd_factors.0;
        c.nd_factors.backward_to_forward = self.nd_factors.1;
        c
    }

    /// Serializes into a message body.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.degree_threshold);
        let flags = (self.direction_optimization as u8)
            | (self.local_all2all as u8) << 1
            | (self.uniquify as u8) << 2
            | (self.per_kernel_direction as u8) << 3
            | (self.track_parents as u8) << 4;
        w.u8(flags);
        for f in [self.dd_factors, self.dn_factors, self.nd_factors] {
            w.f64(f.0);
            w.f64(f.1);
        }
        match self.compression {
            CompressionMode::Off => w.u8(0),
            CompressionMode::Fixed(fc, mc) => {
                w.u8(1);
                w.u8(fc.tag());
                w.u8(mc.tag());
            }
            CompressionMode::Adaptive => w.u8(2),
        }
        w.u8(match self.kernel_variant {
            KernelVariant::Scalar => 0,
            KernelVariant::WordParallel => 1,
        });
    }

    /// Deserializes from a message body.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, ProtocolError> {
        let degree_threshold = r.u64()?;
        let flags = r.u8()?;
        let mut factors = [(0.0, 0.0); 3];
        for f in &mut factors {
            *f = (r.f64()?, r.f64()?);
        }
        let compression = match r.u8()? {
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
        let kernel_variant = match r.u8()? {
            0 => KernelVariant::Scalar,
            1 => KernelVariant::WordParallel,
            t => return Err(ProtocolError::new(format!("unknown kernel variant tag {t}"))),
        };
        Ok(Self {
            degree_threshold,
            direction_optimization: flags & 1 != 0,
            local_all2all: flags & 2 != 0,
            uniquify: flags & 4 != 0,
            per_kernel_direction: flags & 8 != 0,
            dd_factors: factors[0],
            dn_factors: factors[1],
            nd_factors: factors[2],
            compression,
            kernel_variant,
            track_parents: flags & 16 != 0,
        })
    }
}

fn dir_tag(d: Direction) -> u8 {
    match d {
        Direction::Forward => 0,
        Direction::Backward => 1,
    }
}

fn dir_from(tag: u8) -> Result<Direction, ProtocolError> {
    match tag {
        0 => Ok(Direction::Forward),
        1 => Ok(Direction::Backward),
        t => Err(ProtocolError::new(format!("unknown direction tag {t}"))),
    }
}

impl GpuStateImage {
    /// Serializes every field but the digest — the bytes
    /// [`GpuStateImage::seal`] folds. Canonical: [`Self::decode`] accepts
    /// exactly one encoding per value, so a flipped byte that still parses
    /// always changes the fold.
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.u32(self.gpu_flat);
        w.u8(self.track_parents as u8);
        w.u32s(&self.depths_local);
        w.u32s(&self.delegate_depths);
        w.u32(self.visited_bits);
        w.u64s(&self.visited_words);
        w.u32s(&self.frontier);
        w.u32s(&self.new_delegates);
        for d in self.directions {
            w.u8(dir_tag(d));
        }
        w.u64s(&self.parents_local);
        w.u64s(&self.delegate_parent_candidate);
        w.u32(self.remote_parent_log.len() as u32);
        for &(owner, local, parent, depth) in &self.remote_parent_log {
            w.u32(owner.rank);
            w.u32(owner.gpu);
            w.u32(local);
            w.u64(parent);
            w.u32(depth);
        }
    }

    /// Serializes the image (digest last).
    pub fn encode(&self, w: &mut WireWriter) {
        self.encode_fields(w);
        w.u64(self.digest);
    }

    /// Deserializes and verifies the seal; a digest mismatch is a typed
    /// error, never a silent install of corrupted state.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, ProtocolError> {
        let gpu_flat = r.u32()?;
        let track_parents = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(ProtocolError::new(format!("parent-tracking flag {t} is not 0 or 1"))),
        };
        let depths_local = r.u32s()?;
        let delegate_depths = r.u32s()?;
        let visited_bits = r.u32()?;
        let visited_words = r.u64s()?;
        if visited_words.len() != (visited_bits as usize).div_ceil(64) {
            return Err(ProtocolError::new("visited mask word count mismatch"));
        }
        let frontier = r.u32s()?;
        let new_delegates = r.u32s()?;
        let directions = [dir_from(r.u8()?)?, dir_from(r.u8()?)?, dir_from(r.u8()?)?];
        let parents_local = r.u64s()?;
        let delegate_parent_candidate = r.u64s()?;
        let n = r.u32()? as usize;
        let mut remote_parent_log = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let owner = GpuId { rank: r.u32()?, gpu: r.u32()? };
            let local = r.u32()?;
            let parent = r.u64()?;
            let depth = r.u32()?;
            remote_parent_log.push((owner, local, parent, depth));
        }
        let digest = r.u64()?;
        let img = Self {
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
            digest,
        };
        img.verify().map_err(|e| ProtocolError::new(e.to_string()))?;
        Ok(img)
    }
}

/// Appends a count-prefixed list of sealed images: the shared body of
/// `CheckpointSave`, `Restore` and `FinalState`.
pub fn write_images<'a, I>(w: &mut WireWriter, images: I)
where
    I: IntoIterator<Item = &'a GpuStateImage>,
    I::IntoIter: ExactSizeIterator,
{
    let images = images.into_iter();
    w.u32(images.len() as u32);
    for img in images {
        img.encode(w);
    }
}

/// Reads a [`write_images`] list for a grid of `num_gpus` GPUs, verifying
/// every seal. A GPU outside the grid or listed twice is a typed error.
pub fn read_images(
    r: &mut WireReader<'_>,
    num_gpus: usize,
) -> Result<Vec<GpuStateImage>, ProtocolError> {
    let n = r.u32()? as usize;
    if n > num_gpus {
        return Err(ProtocolError::new(format!("{n} state images for {num_gpus} gpus")));
    }
    let mut images: Vec<GpuStateImage> = Vec::with_capacity(n);
    for _ in 0..n {
        let img = GpuStateImage::decode(r)?;
        let flat = img.gpu_flat;
        if flat as usize >= num_gpus || images.iter().any(|i| i.gpu_flat == flat) {
            return Err(ProtocolError::new(format!("state image for gpu {flat} out of place")));
        }
        images.push(img);
    }
    Ok(images)
}

/// Appends a [`WireBody`]: a flag byte (1 when encoded), then the body as
/// length-prefixed bytes — raw elements little-endian, `N` bytes each.
fn write_body<T: Copy, const N: usize>(
    w: &mut WireWriter,
    body: &WireBody<T>,
    le: fn(T) -> [u8; N],
) {
    match body {
        WireBody::Raw(items) => {
            w.u8(0);
            w.u32(body.wire_bytes() as u32);
            items.iter().for_each(|&x| w.buf.extend_from_slice(&le(x)));
        }
        WireBody::Encoded(bytes) => {
            w.u8(1);
            w.bytes(bytes);
        }
    }
}

/// Reads a [`write_body`] body; an encoded one is decoded only by its
/// consumer. A flag other than 0 or 1, or a raw length that is not a
/// multiple of `N`, is a typed error.
fn read_body<T, const N: usize>(
    r: &mut WireReader<'_>,
    from_le: fn([u8; N]) -> T,
) -> Result<WireBody<T>, ProtocolError> {
    let flag = r.u8()?;
    let bytes = r.bytes()?;
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

/// Appends a count-prefixed list of mask contributions: per entry the
/// rank (`u32`), then the body ([`write_body`]).
pub fn write_contributions(w: &mut WireWriter, contributions: &[MaskContribution]) {
    w.u32(contributions.len() as u32);
    for c in contributions {
        w.u32(c.rank);
        write_body(w, &c.body, u64::to_le_bytes);
    }
}

/// Reads a [`write_contributions`] list of a `num_ranks`-rank grid. The
/// ranks and encoded bodies are checked by the reduction.
///
/// # Errors
/// Truncation, more entries than ranks, or a malformed body
/// ([`read_body`]).
pub fn read_contributions(
    r: &mut WireReader<'_>,
    num_ranks: u32,
) -> Result<Vec<MaskContribution>, ProtocolError> {
    let n = r.u32()?;
    if n > num_ranks {
        return Err(ProtocolError::new(format!("{n} mask contributions for {num_ranks} ranks")));
    }
    (0..n)
        .map(|_| Ok(MaskContribution { rank: r.u32()?, body: read_body(r, u64::from_le_bytes)? }))
        .collect()
}

impl Block {
    /// Serializes the block: source and destination flats (`u32` each),
    /// then the body ([`write_body`]).
    pub fn encode(&self, w: &mut WireWriter) {
        w.u32(self.src as u32);
        w.u32(self.dst as u32);
        write_body(w, &self.body, u32::to_le_bytes);
    }

    /// Deserializes one block of a `num_gpus`-GPU grid.
    ///
    /// # Errors
    /// Truncation, an endpoint outside the grid, or a malformed body
    /// ([`read_body`]).
    pub fn decode(r: &mut WireReader<'_>, num_gpus: usize) -> Result<Self, ProtocolError> {
        let (src, dst) = (r.u32()? as usize, r.u32()? as usize);
        if src >= num_gpus || dst >= num_gpus {
            return Err(ProtocolError::new(format!(
                "block {src} -> {dst} outside a {num_gpus}-gpu grid"
            )));
        }
        Ok(Self { src, dst, body: read_body(r, u32::from_le_bytes)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_writer_reader_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(1.5);
        w.bytes(b"abc");
        w.u32s(&[1, 2, 3]);
        w.u64s(&[9, 10]);
        let body = w.finish();
        let mut r = WireReader::new(&body);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64s().unwrap(), vec![9, 10]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        let mut w = WireWriter::new();
        w.u32s(&[1, 2, 3, 4]);
        let mut body = w.finish();
        body.truncate(body.len() - 3);
        let mut r = WireReader::new(&body);
        assert!(r.u32s().is_err());
        // A hostile length prefix larger than the body fails before any
        // large allocation.
        let mut r = WireReader::new(&[0xff, 0xff, 0xff, 0xff]);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn config_wire_roundtrips() {
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
            let cw = ConfigWire::from_config(&config, true);
            let mut w = WireWriter::new();
            cw.encode(&mut w);
            let body = w.finish();
            let back = ConfigWire::decode(&mut WireReader::new(&body)).unwrap();
            assert_eq!(cw, back, "{mode}");
            let rebuilt = back.to_config();
            assert_eq!(rebuilt.degree_threshold, 42);
            assert!(!rebuilt.direction_optimization);
            assert!(rebuilt.local_all2all && rebuilt.uniquify);
            assert_eq!(rebuilt.compression, mode);
            if let CompressionMode::Fixed(..) = mode {
                // The mode byte sits after threshold (8), flags (1) and
                // six factors (48); an unknown codec tag after it is typed.
                for at in [58, 59] {
                    let mut bad = body.clone();
                    bad[at] = 0x7f;
                    assert!(ConfigWire::decode(&mut WireReader::new(&bad)).is_err());
                }
            }
        }
    }

    fn sample_image() -> GpuStateImage {
        let mut img = GpuStateImage {
            gpu_flat: 3,
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

    #[test]
    fn state_image_roundtrips_and_seals() {
        let img = sample_image();
        let mut w = WireWriter::new();
        img.encode(&mut w);
        let body = w.finish();
        let back = GpuStateImage::decode(&mut WireReader::new(&body)).unwrap();
        assert_eq!(back.seal(), img.digest);
        assert_eq!(back.depths_local, img.depths_local);
        assert_eq!(back.directions, img.directions);
        assert_eq!(back.remote_parent_log, img.remote_parent_log);

        // Flip one depth bit: the seal check must reject the image.
        let mut tampered = body.clone();
        // depths_local starts after gpu_flat(4) + flag(1) + len(4).
        tampered[9] ^= 1;
        assert!(GpuStateImage::decode(&mut WireReader::new(&tampered)).is_err());
        // A non-canonical flag byte would re-encode as 1 and slip past
        // the seal, so it is rejected outright.
        let mut flag = body.clone();
        flag[4] = 3;
        assert!(GpuStateImage::decode(&mut WireReader::new(&flag)).is_err());
    }

    #[test]
    fn image_lists_reject_foreign_repeated_and_surplus_gpus() {
        let body = |imgs: &[GpuStateImage]| {
            let mut w = WireWriter::new();
            write_images(&mut w, imgs);
            w.finish()
        };
        let mut other = sample_image();
        other.gpu_flat = 1;
        other.digest = other.seal();
        let good = body(&[sample_image(), other]);
        let back = read_images(&mut WireReader::new(&good), 4).unwrap();
        assert_eq!(back.iter().map(|i| i.gpu_flat).collect::<Vec<_>>(), vec![3, 1]);
        // GPU 3 is outside a 2-GPU grid, and 2 images overflow a 1-GPU one.
        assert!(read_images(&mut WireReader::new(&good), 2).is_err());
        assert!(read_images(&mut WireReader::new(&good), 1).is_err());
        let repeated = body(&[sample_image(), sample_image()]);
        assert!(read_images(&mut WireReader::new(&repeated), 4).is_err());
    }

    fn block_body(block: &Block) -> Vec<u8> {
        let mut w = WireWriter::new();
        block.encode(&mut w);
        w.finish()
    }

    #[test]
    fn blocks_roundtrip_raw_and_encoded() {
        let raw = Block { src: 1, dst: 2, body: WireBody::Raw(vec![5, 3, 9]) };
        let body = block_body(&raw);
        assert_eq!(body.len(), 4 + 4 + 1 + 4 + 12);
        assert_eq!(Block::decode(&mut WireReader::new(&body), 4).unwrap(), raw);

        let sorted = [2u32, 4, 4, 10];
        let encoded = FrontierCodec::VarintDelta.encode(&sorted).unwrap();
        let enc = Block { src: 0, dst: 3, body: WireBody::Encoded(encoded) };
        let back = Block::decode(&mut WireReader::new(&block_body(&enc)), 4).unwrap();
        assert_eq!(back, enc);
    }

    #[test]
    fn hostile_contribution_frames_are_typed_errors() {
        use gcbfs_cluster::collectives::{contribute, reduce_contributions, ReduceError};
        // The contribution list a `StepLocal` or `StepRemote` frame carries,
        // on a 2-rank grid.
        let frame = |cs: &[MaskContribution]| {
            let mut w = WireWriter::new();
            write_contributions(&mut w, cs);
            w.finish()
        };
        let read = |body: &[u8]| read_contributions(&mut WireReader::new(body), 2);
        let raw = MaskContribution { rank: 1, body: WireBody::Raw(vec![7, 1 << 63]) };
        let enc = contribute(CompressionMode::Adaptive, None, 0, vec![3, 0]);
        let both = vec![raw.clone(), enc];
        assert_eq!(read(&frame(&both)).unwrap(), both);
        let good = frame(&[raw]);
        // The flag (offset 8) is 0 or 1.
        for flag in [2u8, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[8] = flag;
            assert!(read(&bad).unwrap_err().detail.contains("flag"), "flag {flag}");
        }
        // More entries than ranks is refused before anything is read.
        let mut bad = good.clone();
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read(&bad).unwrap_err().detail.contains("for 2 ranks"));
        // A raw body whose length is not a multiple of 8.
        let mut w = WireWriter::new();
        w.u32(1);
        w.u32(0);
        w.u8(0);
        w.bytes(&[1, 2, 3]);
        assert!(read(&w.finish()).unwrap_err().detail.contains("multiple of 8"));
        // A rank outside the grid and an encoded body that does not decode
        // pass the frame layout and are refused by the reduction.
        let mut foreign = good.clone();
        foreign[4] = 2;
        let back = read(&foreign).unwrap();
        assert_eq!(reduce_contributions(2, 2, None, &back), Err(ReduceError::RankOutOfRange(2)));
        let garbage = MaskContribution { rank: 0, body: WireBody::Encoded(vec![0x7f, 2, 0, 0, 0]) };
        let back = read(&frame(&[garbage])).unwrap();
        let err = reduce_contributions(2, 2, None, &back).unwrap_err();
        assert!(matches!(err, ReduceError::Undecodable(0, _)), "{err:?}");
        // Every truncation is typed too.
        for len in 0..good.len() {
            assert!(read(&good[..len]).is_err(), "truncated to {len}");
        }
    }

    #[test]
    fn hostile_block_bodies_are_typed_errors() {
        let topo = gcbfs_cluster::topology::Topology::new(2, 2);
        let decode = |body: &[u8]| Block::decode(&mut WireReader::new(body), 4);
        let good = block_body(&Block { src: 1, dst: 2, body: WireBody::Raw(vec![7]) });
        // The flag byte (offset 8) is 0 or 1, nothing else.
        for flag in [2u8, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[8] = flag;
            assert!(decode(&bad).unwrap_err().detail.contains("flag"), "flag {flag}");
        }
        // A sender or receiver outside the grid.
        for at in [0, 4] {
            let mut bad = good.clone();
            bad[at] = 4;
            assert!(decode(&bad).unwrap_err().detail.contains("outside"), "offset {at}");
        }
        // A raw body whose length is not a multiple of 4.
        let mut w = WireWriter::new();
        w.u32(1);
        w.u32(2);
        w.u8(0);
        w.bytes(&[1, 2, 3]);
        assert!(decode(&w.finish()).unwrap_err().detail.contains("multiple of 4"));
        // An encoded body that does not decode passes the frame layout and
        // is refused on delivery.
        let garbage = Block { src: 1, dst: 2, body: WireBody::Encoded(vec![0x7f, 1, 0, 0, 0]) };
        let back = decode(&block_body(&garbage)).unwrap();
        let err = crate::comm::deliver_blocks(&topo, &[2], vec![back]).unwrap_err();
        assert!(err.detail.contains("does not decode"), "{err}");
        // Every truncation is typed too.
        for len in 0..good.len() {
            assert!(decode(&good[..len]).is_err(), "truncated to {len}");
        }
    }
}
