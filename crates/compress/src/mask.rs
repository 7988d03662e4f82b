//! Codecs for delegate visited-mask allreduce payloads (§V-A's `d/8`
//! bytes per message).
//!
//! All three codecs are defined over `u64` mask words. [`MaskCodec::SparseIndex`]
//! is *differential*: it encodes the bits newly set relative to a
//! reference mask (the previous iteration's reduced mask) — the visited
//! mask is monotone, so on most iterations the delta is a handful of
//! bits. When the current mask is **not** a superset of the reference
//! (non-monotone input, e.g. a corrupted attempt), the codec stores the
//! full mask under its raw fallback instead, so the roundtrip always
//! holds.

use crate::varint;
use crate::{read_header, tag, write_header, DecodeError, EncodeError, MASK_WORD_BYTES};

/// Widest mask (in words) a decoder will materialize for a message whose
/// width no `prev` reference vouches for. 4M words = 2^28 delegates —
/// far beyond anything this simulator hosts, but small enough (32 MB)
/// that an adversarial header cannot weaponize the zero-fill. Callers
/// with a trusted width pass `prev` and are exempt.
pub const MAX_UNTRUSTED_WORDS: usize = 1 << 22;

/// A codec for one mask-reduction message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MaskCodec {
    /// The paper's wire format: 8 bytes per mask word.
    RawMask,
    /// Zero-word run skipping: alternating varint runs of
    /// `(zero words, literal words)` followed by the literal words.
    /// Delegate masks are mostly zero early in a traversal and mostly
    /// saturated late; either way long uniform runs dominate.
    RleMask,
    /// Varint deltas of the bit indices newly set since the reference
    /// mask. The receiver ORs them onto its own copy of the reference.
    SparseIndex,
}

impl MaskCodec {
    /// All mask codecs, in selector priority order.
    pub const ALL: [MaskCodec; 3] =
        [MaskCodec::RawMask, MaskCodec::RleMask, MaskCodec::SparseIndex];

    /// Wire tag of this codec (without the fallback bit).
    pub fn tag(self) -> u8 {
        match self {
            Self::RawMask => tag::RAW_MASK,
            Self::RleMask => tag::RLE_MASK,
            Self::SparseIndex => tag::SPARSE_INDEX,
        }
    }

    /// Short label for tables and trajectories.
    pub fn label(self) -> &'static str {
        match self {
            Self::RawMask => "rawmask",
            Self::RleMask => "rle",
            Self::SparseIndex => "sparse",
        }
    }

    /// Encodes `cur`, returning a fresh buffer. See
    /// [`MaskCodec::encode_into`].
    pub fn encode(self, prev: Option<&[u64]>, cur: &[u64]) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::with_capacity(crate::HEADER_BYTES + cur.len() * MASK_WORD_BYTES);
        self.encode_into(prev, cur, &mut out)?;
        Ok(out)
    }

    /// Appends the encoded mask (header + payload) to `out`.
    ///
    /// `prev` is the reference mask for [`MaskCodec::SparseIndex`] (its
    /// absence means an all-zero reference); the other codecs ignore it.
    /// `prev`, when given, must have `cur.len()` words.
    ///
    /// Guarantee: the appended bytes never exceed
    /// `cur.len() * 8 + HEADER_BYTES` (raw fallback when compression
    /// loses or when `cur` is not a superset of `prev`).
    ///
    /// # Errors
    /// [`EncodeError::TooManyElements`] when `cur.len()` exceeds
    /// `u32::MAX`.
    ///
    /// # Panics
    /// Panics if `prev` is given with a different word count.
    pub fn encode_into(
        self,
        prev: Option<&[u64]>,
        cur: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        let n = u32::try_from(cur.len()).map_err(|_| EncodeError::TooManyElements)?;
        if let Some(p) = prev {
            assert_eq!(p.len(), cur.len(), "reference mask width must match");
        }
        let raw_payload = cur.len() * MASK_WORD_BYTES;
        let header_at = out.len();
        write_header(out, self.tag(), n);
        let payload_at = out.len();
        match self {
            Self::RawMask => {
                for &w in cur {
                    out.extend_from_slice(&w.to_le_bytes());
                }
                return Ok(());
            }
            Self::RleMask => {
                let mut i = 0usize;
                while i < cur.len() && out.len() - payload_at <= raw_payload {
                    let zero_run = cur[i..].iter().take_while(|&&w| w == 0).count();
                    i += zero_run;
                    let lit_run = cur[i..].iter().take_while(|&&w| w != 0).count();
                    varint::write_u64(out, zero_run as u64);
                    varint::write_u64(out, lit_run as u64);
                    for &w in &cur[i..i + lit_run] {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                    i += lit_run;
                }
            }
            Self::SparseIndex => {
                let superset = match prev {
                    Some(p) => p.iter().zip(cur).all(|(&a, &b)| a & !b == 0),
                    None => true,
                };
                if superset {
                    let mut last: u64 = 0;
                    let mut first = true;
                    'words: for (wi, &w) in cur.iter().enumerate() {
                        let old = prev.map_or(0, |p| p[wi]);
                        let mut diff = w & !old;
                        while diff != 0 {
                            let bit = diff.trailing_zeros();
                            diff &= diff - 1;
                            let idx = wi as u64 * 64 + bit as u64;
                            varint::write_u64(out, if first { idx } else { idx - last });
                            first = false;
                            last = idx;
                            if out.len() - payload_at > raw_payload {
                                break 'words;
                            }
                        }
                    }
                }
                // Non-superset input cannot be expressed as set-bit
                // deltas: leave the payload oversized/empty so the raw
                // fallback below captures the exact mask. An empty delta
                // (cur == prev) legitimately encodes to zero payload
                // bytes, which the raw fallback must not misread — tag it
                // compressed only when genuinely a superset.
                if !superset {
                    out.truncate(header_at);
                    write_header(out, self.tag() | tag::FALLBACK, n);
                    for &w in cur {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                    return Ok(());
                }
            }
        }
        if out.len() - payload_at > raw_payload {
            out.truncate(header_at);
            write_header(out, self.tag() | tag::FALLBACK, n);
            for &w in cur {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        Ok(())
    }
}

/// Decodes one mask message, returning the words and the codec named by
/// the wire tag. `prev` must be the same reference passed to `encode`.
pub fn decode_mask(
    bytes: &[u8],
    prev: Option<&[u64]>,
) -> Result<(Vec<u64>, MaskCodec), DecodeError> {
    let mut out = Vec::new();
    let codec = decode_mask_into(bytes, prev, &mut out)?;
    Ok((out, codec))
}

/// Reads one mask message's header: the codec named by its wire tag and
/// its width in words, without touching the payload.
pub fn mask_header(bytes: &[u8]) -> Result<(MaskCodec, u32), DecodeError> {
    let (wire_tag, count, _) = read_header(bytes)?;
    Ok((codec_of(wire_tag)?, count))
}

fn codec_of(wire_tag: u8) -> Result<MaskCodec, DecodeError> {
    MaskCodec::ALL
        .into_iter()
        .find(|c| c.tag() == wire_tag & !tag::FALLBACK)
        .ok_or(DecodeError::UnknownTag(wire_tag))
}

/// Decodes one mask message into `out` (appending `count` words).
pub fn decode_mask_into(
    bytes: &[u8],
    prev: Option<&[u64]>,
    out: &mut Vec<u64>,
) -> Result<MaskCodec, DecodeError> {
    let (wire_tag, count, payload) = read_header(bytes)?;
    let codec = codec_of(wire_tag)?;
    let n = count as usize;
    if let Some(p) = prev {
        if p.len() != n {
            return Err(DecodeError::Corrupt);
        }
    }
    // Plausibility before allocation. Raw words cost 8 bytes each; the
    // run-length and sparse codecs legitimately describe wide masks with
    // tiny payloads (an all-zero mask is a 2-byte message), so when no
    // `prev` vouches for the width, cap it — an adversarial header must
    // not turn a few bytes into a multi-gigabyte zero-fill.
    let raw_wire = wire_tag & tag::FALLBACK != 0 || codec == MaskCodec::RawMask;
    let plausible = if raw_wire {
        payload.len() == n * MASK_WORD_BYTES
    } else {
        prev.is_some() || n <= MAX_UNTRUSTED_WORDS
    };
    if !plausible {
        return Err(DecodeError::Truncated);
    }
    out.reserve(n);
    if raw_wire {
        for chunk in payload.chunks_exact(MASK_WORD_BYTES) {
            out.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        return Ok(codec);
    }
    match codec {
        MaskCodec::RawMask => unreachable!("handled above"),
        MaskCodec::RleMask => {
            let mut pos = 0usize;
            let start = out.len();
            while out.len() - start < n {
                let zero_run = varint::read_u64(payload, &mut pos)? as usize;
                let lit_run = varint::read_u64(payload, &mut pos)? as usize;
                if out.len() - start + zero_run + lit_run > n {
                    return Err(DecodeError::Corrupt);
                }
                out.extend(std::iter::repeat_n(0u64, zero_run));
                for _ in 0..lit_run {
                    let chunk =
                        payload.get(pos..pos + MASK_WORD_BYTES).ok_or(DecodeError::Truncated)?;
                    out.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
                    pos += MASK_WORD_BYTES;
                }
                if zero_run == 0 && lit_run == 0 {
                    return Err(DecodeError::Corrupt);
                }
            }
            if pos != payload.len() {
                return Err(DecodeError::Corrupt);
            }
        }
        MaskCodec::SparseIndex => {
            match prev {
                Some(p) => out.extend_from_slice(p),
                None => out.extend(std::iter::repeat_n(0u64, n)),
            }
            let base = out.len() - n;
            let mut pos = 0usize;
            let mut idx: u64 = 0;
            let mut first = true;
            while pos < payload.len() {
                let v = varint::read_u64(payload, &mut pos)?;
                idx = if first { v } else { idx.checked_add(v).ok_or(DecodeError::Corrupt)? };
                first = false;
                let wi = (idx / 64) as usize;
                if wi >= n {
                    return Err(DecodeError::Corrupt);
                }
                out[base + wi] |= 1u64 << (idx % 64);
            }
        }
    }
    Ok(codec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HEADER_BYTES;

    fn roundtrip(codec: MaskCodec, prev: Option<&[u64]>, cur: &[u64]) -> Vec<u8> {
        let encoded = codec.encode(prev, cur).expect("encodable");
        let (decoded, named) = decode_mask(&encoded, prev).expect("decodable");
        assert_eq!(decoded, cur, "{codec:?} roundtrip");
        assert_eq!(named, codec);
        assert!(
            encoded.len() <= cur.len() * MASK_WORD_BYTES + HEADER_BYTES,
            "{codec:?}: {} > {} + {HEADER_BYTES}",
            encoded.len(),
            cur.len() * MASK_WORD_BYTES
        );
        encoded
    }

    #[test]
    fn empty_and_single_word() {
        for codec in MaskCodec::ALL {
            roundtrip(codec, None, &[]);
            roundtrip(codec, None, &[0]);
            roundtrip(codec, None, &[u64::MAX]);
        }
    }

    #[test]
    fn mask_header_names_the_codec_and_width_of_fallbacks_too() {
        let dense: Vec<u64> = (0..4).map(|w| 0x9e37_79b9_7f4a_7c15u64.rotate_left(w)).collect();
        for codec in MaskCodec::ALL {
            for cur in [vec![0u64; 7], dense.clone()] {
                let enc = codec.encode(None, &cur).unwrap();
                assert_eq!(mask_header(&enc), Ok((codec, cur.len() as u32)));
            }
        }
        assert_eq!(mask_header(&[0x7f, 0, 0, 0, 0]), Err(DecodeError::UnknownTag(0x7f)));
        assert_eq!(mask_header(&[0x11, 0, 0]), Err(DecodeError::Truncated));
    }

    #[test]
    fn sparse_mask_compresses_under_rle() {
        let mut cur = vec![0u64; 512];
        cur[100] = 0xdead;
        cur[101] = 0xbeef;
        let raw = roundtrip(MaskCodec::RawMask, None, &cur).len();
        let rle = roundtrip(MaskCodec::RleMask, None, &cur).len();
        assert!(rle * 50 < raw, "rle {rle} must crush raw {raw} on a sparse mask");
    }

    #[test]
    fn small_delta_compresses_under_sparse_index() {
        let prev: Vec<u64> =
            (0..512).map(|i| (i as u64).wrapping_mul(0x9e3779b97f4a7c15)).collect();
        let mut cur = prev.clone();
        cur[17] |= 1 << 3;
        cur[400] |= 1 << 60;
        let encoded = roundtrip(MaskCodec::SparseIndex, Some(&prev), &cur);
        assert!(encoded.len() <= HEADER_BYTES + 6, "two new bits is a few varint bytes");
        // Identical masks: zero-byte delta.
        let same = roundtrip(MaskCodec::SparseIndex, Some(&prev), &prev);
        assert_eq!(same.len(), HEADER_BYTES);
    }

    #[test]
    fn non_superset_falls_back_raw_and_still_roundtrips() {
        let prev = vec![0b1111u64, 0];
        let cur = vec![0b0101u64, 1 << 63]; // bits cleared vs prev
        roundtrip(MaskCodec::SparseIndex, Some(&prev), &cur);
    }

    #[test]
    fn dense_random_mask_falls_back_but_stays_bounded() {
        let cur: Vec<u64> =
            (0..64).map(|i| (i as u64).wrapping_mul(0x2545f4914f6cdd1d) | 1).collect();
        roundtrip(MaskCodec::RleMask, None, &cur);
        roundtrip(MaskCodec::SparseIndex, None, &cur);
    }

    #[test]
    fn width_mismatch_and_truncation_are_typed_errors() {
        let prev = vec![0u64; 4];
        let encoded = MaskCodec::SparseIndex.encode(Some(&prev), &[1, 2, 3, 4]).unwrap();
        assert_eq!(decode_mask(&encoded, Some(&[0u64; 3])), Err(DecodeError::Corrupt));
        assert_eq!(decode_mask(&encoded[..3], Some(&prev)), Err(DecodeError::Truncated));
        let rle = MaskCodec::RleMask.encode(None, &[0, 0, 7, 0]).unwrap();
        let mut cut = rle.clone();
        cut.truncate(rle.len() - 2);
        assert!(decode_mask(&cut, None).is_err());
    }

    #[test]
    fn sparse_index_bit_out_of_range_is_corrupt() {
        // Hand-craft a sparse payload whose index exceeds the mask width.
        let mut bytes = Vec::new();
        crate::write_header(&mut bytes, MaskCodec::SparseIndex.tag(), 1);
        crate::varint::write_u64(&mut bytes, 64); // word 1 of a 1-word mask
        assert_eq!(decode_mask(&bytes, None), Err(DecodeError::Corrupt));
    }
}
