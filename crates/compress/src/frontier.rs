//! Codecs for nn-update streams: per-message lists of 32-bit
//! destination-local vertex ids (§V-B's "4|Enn| bytes" term).

use crate::varint;
use crate::{read_header, tag, write_header, DecodeError, EncodeError, FRONTIER_ITEM_BYTES};

/// A codec for one nn-update message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrontierCodec {
    /// The paper's wire format: 4 bytes per destination-local id, any
    /// order, duplicates allowed.
    Raw32,
    /// Sorted delta + LEB128 varints. Requires non-decreasing input
    /// (duplicates encode as zero deltas); rejects unsorted input with
    /// [`EncodeError::UnsortedInput`].
    VarintDelta,
    /// Dense-frontier bitmap over `[first, last]` of the message's id
    /// span: one bit per id in the span. Requires non-decreasing input;
    /// a bitmap is a set, so a message that repeats an id (like one too
    /// sparse to win) is stored under the raw fallback.
    Bitmap,
}

impl FrontierCodec {
    /// All frontier codecs, in selector priority order.
    pub const ALL: [FrontierCodec; 3] =
        [FrontierCodec::Raw32, FrontierCodec::VarintDelta, FrontierCodec::Bitmap];

    /// Wire tag of this codec (without the fallback bit).
    pub fn tag(self) -> u8 {
        match self {
            Self::Raw32 => tag::RAW32,
            Self::VarintDelta => tag::VARINT_DELTA,
            Self::Bitmap => tag::BITMAP,
        }
    }

    /// Short label for tables and trajectories.
    pub fn label(self) -> &'static str {
        match self {
            Self::Raw32 => "raw32",
            Self::VarintDelta => "varint",
            Self::Bitmap => "bitmap",
        }
    }

    /// Encodes `ids`, returning a fresh buffer. See
    /// [`FrontierCodec::encode_into`].
    pub fn encode(self, ids: &[u32]) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::with_capacity(crate::HEADER_BYTES + ids.len() * FRONTIER_ITEM_BYTES);
        self.encode_into(ids, &mut out)?;
        Ok(out)
    }

    /// Appends the encoded message (header + payload) to `out`.
    ///
    /// Guarantee: the appended bytes never exceed
    /// `ids.len() * 4 + HEADER_BYTES` — when the codec's own encoding
    /// would be larger, the payload is stored raw under a fallback tag.
    ///
    /// # Errors
    /// [`EncodeError::UnsortedInput`] when the codec's ordering
    /// precondition fails; [`EncodeError::TooManyElements`] when
    /// `ids.len()` exceeds `u32::MAX`.
    pub fn encode_into(self, ids: &[u32], out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let n = u32::try_from(ids.len()).map_err(|_| EncodeError::TooManyElements)?;
        let raw_payload = ids.len() * FRONTIER_ITEM_BYTES;
        let header_at = out.len();
        write_header(out, self.tag(), n);
        let payload_at = out.len();
        match self {
            Self::Raw32 => {
                for &id in ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                return Ok(());
            }
            Self::VarintDelta => {
                let mut prev = 0u32;
                for (i, &id) in ids.iter().enumerate() {
                    if i == 0 {
                        varint::write_u32(out, id);
                    } else {
                        if id < prev {
                            out.truncate(header_at);
                            return Err(EncodeError::UnsortedInput);
                        }
                        varint::write_u32(out, id - prev);
                    }
                    prev = id;
                    // Worst case is 5 bytes per delta; bail to the raw
                    // fallback as soon as raw is provably no worse.
                    if out.len() - payload_at > raw_payload {
                        if ids.windows(2).any(|w| w[1] < w[0]) {
                            out.truncate(header_at);
                            return Err(EncodeError::UnsortedInput);
                        }
                        break;
                    }
                }
            }
            Self::Bitmap => {
                let strict = ids.windows(2).all(|w| w[1] > w[0]);
                if !strict && ids.windows(2).any(|w| w[1] < w[0]) {
                    out.truncate(header_at);
                    return Err(EncodeError::UnsortedInput);
                }
                if strict && !ids.is_empty() {
                    let base = ids[0];
                    let span = (ids[ids.len() - 1] - base) as usize + 1;
                    let words = span.div_ceil(64);
                    if 4 + words * 8 <= raw_payload {
                        out.extend_from_slice(&base.to_le_bytes());
                        let mut bits = vec![0u64; words];
                        for &id in ids {
                            let off = (id - base) as usize;
                            bits[off / 64] |= 1u64 << (off % 64);
                        }
                        for w in bits {
                            out.extend_from_slice(&w.to_le_bytes());
                        }
                    }
                }
            }
        }
        if out.len() - payload_at > raw_payload || (out.len() == payload_at && !ids.is_empty()) {
            // Raw fallback: codec lost (or declined); keep the bound.
            out.truncate(header_at);
            write_header(out, self.tag() | tag::FALLBACK, n);
            for &id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        Ok(())
    }
}

/// Decodes one frontier message, returning the ids and the codec that
/// produced it.
pub fn decode_frontier(bytes: &[u8]) -> Result<(Vec<u32>, FrontierCodec), DecodeError> {
    let mut out = Vec::new();
    let codec = decode_frontier_into(bytes, &mut out)?;
    Ok((out, codec))
}

/// The codec and id count named by one frontier message's header, read
/// without touching the payload.
pub fn frontier_header(bytes: &[u8]) -> Result<(FrontierCodec, u32), DecodeError> {
    let (wire_tag, count, _) = read_header(bytes)?;
    let codec = FrontierCodec::ALL
        .into_iter()
        .find(|c| c.tag() == wire_tag & !tag::FALLBACK)
        .ok_or(DecodeError::UnknownTag(wire_tag))?;
    Ok((codec, count))
}

/// Decodes one frontier message into `out` (appending), returning the
/// codec named by the wire tag.
pub fn decode_frontier_into(
    bytes: &[u8],
    out: &mut Vec<u32>,
) -> Result<FrontierCodec, DecodeError> {
    let (codec, count) = frontier_header(bytes)?;
    let (wire_tag, _, payload) = read_header(bytes)?;
    let n = count as usize;
    // Plausibility before allocation: a claimed count the payload cannot
    // possibly produce must never drive `reserve` — an adversarial header
    // would otherwise allocate gigabytes before the first payload byte is
    // read. Raw ids cost 4 bytes each, varints at least 1, bitmap words
    // encode at most 8 ids per payload byte.
    let raw_wire = wire_tag & tag::FALLBACK != 0 || codec == FrontierCodec::Raw32;
    let plausible = if raw_wire {
        payload.len() == n * FRONTIER_ITEM_BYTES
    } else {
        match codec {
            FrontierCodec::Raw32 => unreachable!("raw handled above"),
            FrontierCodec::VarintDelta => n <= payload.len(),
            FrontierCodec::Bitmap => {
                n == 0 || n <= payload.len().saturating_sub(4).saturating_mul(8)
            }
        }
    };
    if !plausible {
        return Err(DecodeError::Truncated);
    }
    out.reserve(n);
    if raw_wire {
        for chunk in payload.chunks_exact(FRONTIER_ITEM_BYTES) {
            out.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        return Ok(codec);
    }
    match codec {
        FrontierCodec::Raw32 => unreachable!("handled above"),
        FrontierCodec::VarintDelta => {
            let mut pos = 0;
            let mut prev = 0u32;
            for i in 0..n {
                let v = varint::read_u32(payload, &mut pos)?;
                let id =
                    if i == 0 { v } else { prev.checked_add(v).ok_or(DecodeError::Corrupt)? };
                out.push(id);
                prev = id;
            }
            if pos != payload.len() {
                return Err(DecodeError::Corrupt);
            }
        }
        FrontierCodec::Bitmap => {
            if n == 0 {
                if !payload.is_empty() {
                    return Err(DecodeError::Corrupt);
                }
                return Ok(codec);
            }
            if payload.len() < 4 || (payload.len() - 4) % 8 != 0 {
                return Err(DecodeError::Truncated);
            }
            let base = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
            let mut found = 0usize;
            for (wi, chunk) in payload[4..].chunks_exact(8).enumerate() {
                let mut word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                while word != 0 {
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    let off = wi as u64 * 64 + bit as u64;
                    let id =
                        base.checked_add(u32::try_from(off).map_err(|_| DecodeError::Corrupt)?);
                    out.push(id.ok_or(DecodeError::Corrupt)?);
                    found += 1;
                }
            }
            if found != n {
                return Err(DecodeError::Corrupt);
            }
        }
    }
    Ok(codec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HEADER_BYTES;

    fn roundtrip(codec: FrontierCodec, ids: &[u32]) -> Vec<u8> {
        let encoded = codec.encode(ids).expect("encodable");
        let (decoded, named) = decode_frontier(&encoded).expect("decodable");
        assert_eq!(decoded, ids, "{codec:?} roundtrip");
        assert_eq!(named, codec);
        assert!(
            encoded.len() <= ids.len() * FRONTIER_ITEM_BYTES + HEADER_BYTES,
            "{codec:?}: {} > {} + {HEADER_BYTES}",
            encoded.len(),
            ids.len() * FRONTIER_ITEM_BYTES
        );
        encoded
    }

    #[test]
    fn empty_single_and_max() {
        for codec in FrontierCodec::ALL {
            roundtrip(codec, &[]);
            roundtrip(codec, &[0]);
            roundtrip(codec, &[u32::MAX]);
        }
    }

    #[test]
    fn dense_run_compresses_under_bitmap() {
        let ids: Vec<u32> = (1000..2000).collect();
        let raw = roundtrip(FrontierCodec::Raw32, &ids).len();
        let bitmap = roundtrip(FrontierCodec::Bitmap, &ids).len();
        let varint = roundtrip(FrontierCodec::VarintDelta, &ids).len();
        assert!(bitmap < varint, "bitmap {bitmap} must beat varint {varint} on a dense run");
        assert!(varint < raw, "varint {varint} must beat raw {raw}");
        // 1000 contiguous ids: ~16 bitmap words + base.
        assert!(bitmap <= HEADER_BYTES + 4 + 16 * 8);
    }

    #[test]
    fn sparse_wide_span_falls_back_instead_of_exploding() {
        let ids = [0u32, 1 << 30, u32::MAX];
        let encoded = FrontierCodec::Bitmap.encode(&ids).unwrap();
        assert!(encoded.len() <= ids.len() * 4 + HEADER_BYTES, "fallback must cap the size");
        let (decoded, codec) = decode_frontier(&encoded).unwrap();
        assert_eq!(decoded, ids);
        assert_eq!(codec, FrontierCodec::Bitmap, "fallback keeps the codec identity");
    }

    #[test]
    fn unsorted_input_is_rejected() {
        assert_eq!(FrontierCodec::VarintDelta.encode(&[5, 3]), Err(EncodeError::UnsortedInput));
        assert_eq!(FrontierCodec::Bitmap.encode(&[5, 3]), Err(EncodeError::UnsortedInput));
        // Repeated ids are sorted input: VarintDelta encodes them as zero
        // deltas, and Bitmap, a set codec, stores them under its raw
        // fallback.
        let dup = FrontierCodec::VarintDelta.encode(&[3, 3]).unwrap();
        assert_eq!(decode_frontier(&dup).unwrap().0, vec![3, 3]);
        let dup = roundtrip(FrontierCodec::Bitmap, &[3, 3, 4]);
        assert_eq!(dup.len(), HEADER_BYTES + 12, "repeats ship raw");
        // Raw32 accepts anything.
        roundtrip(FrontierCodec::Raw32, &[5, 3, 3]);
    }

    #[test]
    fn varint_pathological_input_falls_back() {
        // Max-magnitude deltas force 5-byte varints; fallback keeps the
        // bound and the roundtrip.
        let ids: Vec<u32> = (0..64).map(|i| i * ((u32::MAX) / 64)).collect();
        roundtrip(FrontierCodec::VarintDelta, &ids);
    }

    #[test]
    fn truncated_and_garbage_are_typed_errors() {
        let encoded = FrontierCodec::VarintDelta.encode(&[1, 2, 3]).unwrap();
        assert_eq!(decode_frontier(&encoded[..2]), Err(DecodeError::Truncated));
        assert_eq!(decode_frontier(&[0x7f, 0, 0, 0, 0]), Err(DecodeError::UnknownTag(0x7f)));
        let mut short = encoded.clone();
        short.truncate(encoded.len() - 1);
        assert!(decode_frontier(&short).is_err());
        let mut extra = encoded;
        extra.push(0);
        assert_eq!(decode_frontier(&extra), Err(DecodeError::Corrupt));
    }

    #[test]
    fn encode_into_appends_and_is_reusable() {
        let mut buf = vec![0xAAu8; 3];
        FrontierCodec::Raw32.encode_into(&[7, 9], &mut buf).unwrap();
        assert_eq!(&buf[..3], &[0xAA; 3]);
        let mut out = Vec::new();
        decode_frontier_into(&buf[3..], &mut out).unwrap();
        assert_eq!(out, vec![7, 9]);
    }
}
