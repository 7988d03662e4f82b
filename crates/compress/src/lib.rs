#![warn(missing_docs)]

//! Communication-compression codecs for the two remote-byte producers of
//! the degree-separated BFS (§V of the paper):
//!
//! 1. **nn-update streams** ([`FrontierCodec`]): per-message lists of
//!    32-bit destination-local vertex ids, the "4|Enn| bytes" term of
//!    §V-B. Three codecs: [`FrontierCodec::Raw32`] (the paper's wire
//!    format), [`FrontierCodec::VarintDelta`] (sorted delta + LEB128, wins
//!    on mid-density frontiers where consecutive local ids are close), and
//!    [`FrontierCodec::Bitmap`] (dense-frontier bit-per-vertex over the
//!    message's id span, wins once more than ~1/16 of the span is
//!    present).
//! 2. **delegate visited-mask allreduce payloads** ([`MaskCodec`]): the
//!    `d/8`-byte bitmasks of §V-A. Three codecs: [`MaskCodec::RawMask`],
//!    [`MaskCodec::RleMask`] (zero-word run skipping — delegate masks are
//!    mostly zero early and mostly saturated late), and
//!    [`MaskCodec::SparseIndex`] (varint deltas of the bits newly set
//!    since the previous iteration's reduced mask — the visited mask is
//!    monotone, so the delta is tiny on most iterations).
//!
//! Every encoded buffer is self-describing (a one-byte mode tag plus a
//! 32-bit element count) and every codec carries a **raw fallback**: if
//! its clever encoding would exceed the raw size, it stores the raw bytes
//! under a fallback tag instead. This yields the universal bound
//!
//! > `encoded_len <= raw_len + HEADER_BYTES`
//!
//! with [`HEADER_BYTES`]` = 5`, which the cost model relies on: charging
//! compressed bytes (floored at the network's per-message header) can
//! never make a transfer cheaper than the physics allow, and never more
//! than one header worse than uncompressed.
//!
//! Codecs are *allocation-lean*: the `encode_into`/`decode_into` entry
//! points append to caller-owned buffers so per-message scratch space can
//! be reused across iterations.
//!
//! The adaptive selector ([`select_frontier_codec`],
//! [`select_mask_codec`]) mirrors the paper's direction-optimization
//! crossover: a density measurement (items per id-span, newly set bits
//! per mask bit) picks the regime, not a trial encode — the decision is
//! O(1) like the FV/BV comparison of §IV-B.
//!
//! Determinism: encoding is a pure function of the input bytes, so a
//! retransmitted message (the fault layer's retry path) re-encodes to the
//! identical wire image. [`SealedPayload`] adds the FNV-1a checksum the
//! proc runtime's frames use to detect in-transit corruption of payloads.

pub mod frame;
mod frontier;
mod mask;
mod seal;
mod select;
mod varint;

pub use frame::{
    Frame, FrameError, FRAME_HEADER_BYTES, FRAME_MAGIC, FRAME_VERSION, MAX_FRAME_PAYLOAD,
};
pub use frontier::{decode_frontier, decode_frontier_into, frontier_header, FrontierCodec};
pub use mask::{decode_mask, decode_mask_into, mask_header, MaskCodec, MAX_UNTRUSTED_WORDS};
pub use seal::{fnv1a, Fnv1a, IntegrityError, SealedPayload};
pub use select::{select_frontier_codec, select_mask_codec, CodecCounts, CompressionMode};

/// Fixed per-payload header: one mode-tag byte plus a little-endian `u32`
/// element count. Every codec guarantees
/// `encoded_len <= raw_len + HEADER_BYTES` via its raw fallback.
pub const HEADER_BYTES: usize = 5;

/// Bytes per raw frontier item (one 32-bit destination-local id, §V-B).
pub const FRONTIER_ITEM_BYTES: usize = 4;

/// Bytes per raw mask word (one `u64` of delegate visited bits, §V-A).
pub const MASK_WORD_BYTES: usize = 8;

/// A message body in the form it travels in: the raw elements (the
/// paper's format) or one codec encoding. Both remote-byte producers ship
/// one — an `nn` block over `u32` slots, a delegate-mask contribution over
/// `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireBody<T> {
    /// Raw elements, `size_of::<T>()` bytes each on the wire.
    Raw(Vec<T>),
    /// One codec encoding (header + payload).
    Encoded(Vec<u8>),
}

impl<T> WireBody<T> {
    /// Bytes the body occupies on the wire: what the model charges and
    /// what a socket carries.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Self::Raw(items) => (items.len() * std::mem::size_of::<T>()) as u64,
            Self::Encoded(bytes) => bytes.len() as u64,
        }
    }
}

/// Why a payload could not be encoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The codec requires sorted input and the input was not sorted
    /// ([`FrontierCodec::VarintDelta`] and [`FrontierCodec::Bitmap`] need
    /// non-decreasing ids).
    UnsortedInput,
    /// The element count exceeds the 32-bit header field.
    TooManyElements,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsortedInput => write!(f, "codec requires sorted input"),
            Self::TooManyElements => write!(f, "element count exceeds the u32 header field"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why a payload could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than its header or its payload is truncated.
    Truncated,
    /// The mode tag does not name a known codec.
    UnknownTag(u8),
    /// A varint ran past 5 bytes (u32) / 10 bytes (u64) without
    /// terminating.
    MalformedVarint,
    /// Decoded content contradicts the header (count mismatch, bit index
    /// out of range, non-monotone delta stream).
    Corrupt,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "payload truncated"),
            Self::UnknownTag(t) => write!(f, "unknown codec tag {t:#04x}"),
            Self::MalformedVarint => write!(f, "malformed varint"),
            Self::Corrupt => write!(f, "payload contradicts its header"),
        }
    }
}

impl std::error::Error for DecodeError {}

pub(crate) mod tag {
    //! Wire mode tags. The high bit marks a raw fallback: the codec was
    //! requested but its payload is stored raw because compression lost.
    pub const RAW32: u8 = 0x01;
    pub const VARINT_DELTA: u8 = 0x02;
    pub const BITMAP: u8 = 0x03;
    pub const RAW_MASK: u8 = 0x11;
    pub const RLE_MASK: u8 = 0x12;
    pub const SPARSE_INDEX: u8 = 0x13;
    pub const FALLBACK: u8 = 0x80;
}

pub(crate) fn write_header(out: &mut Vec<u8>, tag: u8, count: u32) {
    out.push(tag);
    out.extend_from_slice(&count.to_le_bytes());
}

pub(crate) fn read_header(bytes: &[u8]) -> Result<(u8, u32, &[u8]), DecodeError> {
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let tag = bytes[0];
    let count = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
    Ok((tag, count, &bytes[HEADER_BYTES..]))
}
