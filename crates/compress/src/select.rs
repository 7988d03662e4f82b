//! The adaptive codec selector.
//!
//! Mirrors the paper's direction-optimization crossover (§IV-B): a cheap
//! density measurement picks the regime, not a trial encode. For frontier
//! streams the measurement is *items per id-span*; for delegate masks it
//! is *newly set bits per mask word* and *zero words per word*. Each rule
//! targets the regime where its codec's per-item cost beats raw:
//!
//! * [`FrontierCodec::Bitmap`] stores one bit per id in the message span,
//!   so it wins once more than 1/16 of the span is present (4 raw bytes
//!   vs span/8 bitmap bytes per item crosses at density 1/32; we switch
//!   at 1/16 to leave margin for the base word and partial last word).
//! * [`FrontierCodec::VarintDelta`] stores 1–2 bytes per item whenever
//!   consecutive sorted ids are close, which any multi-item message over
//!   a partition-local id space satisfies.
//! * [`MaskCodec::SparseIndex`] stores ~1–2 bytes per newly set bit; raw
//!   stores 8 bytes per word, so it wins while new bits are rarer than
//!   ~4 per word.
//! * [`MaskCodec::RleMask`] skips zero words at ~2 bytes per run; it wins
//!   once a meaningful fraction of words is zero.

use crate::frontier::FrontierCodec;
use crate::mask::MaskCodec;

/// How the driver compresses its two remote-byte producers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CompressionMode {
    /// No compression: the paper's wire format (4 bytes per nn update,
    /// `d/8` bytes per mask message). Every seed number is reproduced
    /// bit-for-bit in this mode.
    #[default]
    Off,
    /// One fixed codec pair for the whole run, useful for sweeps that
    /// isolate a single codec's behaviour.
    Fixed(FrontierCodec, MaskCodec),
    /// Per-iteration, per-peer density-driven selection via
    /// [`select_frontier_codec`] and [`select_mask_codec`].
    Adaptive,
}

impl CompressionMode {
    /// True when any codec machinery runs at all.
    pub fn is_on(&self) -> bool {
        !matches!(self, Self::Off)
    }

    /// Short human-readable label for tables and traces.
    pub fn label(&self) -> String {
        match self {
            Self::Off => "off".to_string(),
            Self::Fixed(f, m) => format!("fixed({}/{})", f.label(), m.label()),
            Self::Adaptive => "adaptive".to_string(),
        }
    }

    /// Codec for one frontier message under this mode. `ids` must be
    /// sorted non-decreasing (the compressed send path sorts each slot).
    /// Returns `None` in [`CompressionMode::Off`].
    pub fn frontier_codec(&self, ids: &[u32]) -> Option<FrontierCodec> {
        match self {
            Self::Off => None,
            Self::Fixed(f, _) => Some(*f),
            Self::Adaptive => Some(select_frontier_codec(ids)),
        }
    }

    /// Codec for one mask payload under this mode.
    pub fn mask_codec(&self, prev: Option<&[u64]>, cur: &[u64]) -> Option<MaskCodec> {
        match self {
            Self::Off => None,
            Self::Fixed(_, m) => Some(*m),
            Self::Adaptive => Some(select_mask_codec(prev, cur)),
        }
    }
}

impl std::fmt::Display for CompressionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Picks the frontier codec for one message of sorted (non-decreasing)
/// destination-local ids.
///
/// Decision rule, cheapest test first:
/// 1. fewer than 2 items → [`FrontierCodec::Raw32`] (nothing to delta);
/// 2. strictly increasing and `n * 16 >= span` → [`FrontierCodec::Bitmap`]
///    (dense regime: one bit per span slot beats 4 bytes per item);
/// 3. otherwise → [`FrontierCodec::VarintDelta`] (sorted mid-density
///    regime: deltas are small, 1–2 bytes each).
///
/// The span is read off the first and last element — O(1) given sorted
/// input — and the strictness scan only runs when the density test has
/// already passed, so the common sparse case never pays it.
pub fn select_frontier_codec(ids: &[u32]) -> FrontierCodec {
    if ids.len() < 2 {
        return FrontierCodec::Raw32;
    }
    let span = (*ids.last().unwrap() as u64) - (ids[0] as u64) + 1;
    if (ids.len() as u64).saturating_mul(16) >= span && ids.windows(2).all(|w| w[0] < w[1]) {
        return FrontierCodec::Bitmap;
    }
    FrontierCodec::VarintDelta
}

/// Picks the mask codec for one allreduce payload.
///
/// `prev` is the previous iteration's *reduced* mask (both sides of the
/// collective hold it), `cur` the local mask to ship. Decision rule:
/// 1. `prev` present, `cur` is a superset, and fewer than 4 new bits per
///    word → [`MaskCodec::SparseIndex`] (the visited mask is monotone,
///    so on most iterations the delta is tiny);
/// 2. at least 1/4 of the words are zero → [`MaskCodec::RleMask`]
///    (delegate masks are mostly zero early in the traversal);
/// 3. otherwise → [`MaskCodec::RawMask`] (saturated masks do not
///    compress; skip the codec work).
pub fn select_mask_codec(prev: Option<&[u64]>, cur: &[u64]) -> MaskCodec {
    let words = cur.len() as u64;
    if let Some(prev) = prev {
        if prev.len() == cur.len() {
            let mut monotone = true;
            let mut new_bits: u64 = 0;
            for (&p, &c) in prev.iter().zip(cur) {
                if p & !c != 0 {
                    monotone = false;
                    break;
                }
                new_bits += (c & !p).count_ones() as u64;
            }
            if monotone && new_bits <= words.saturating_mul(4) {
                return MaskCodec::SparseIndex;
            }
        }
    }
    let zero_words = cur.iter().filter(|&&w| w == 0).count() as u64;
    if zero_words.saturating_mul(4) >= words && words > 0 {
        return MaskCodec::RleMask;
    }
    MaskCodec::RawMask
}

/// Per-codec selection counters, accumulated per iteration and summed
/// over a run for the stats report and the trace trajectory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecCounts {
    /// Frontier messages shipped raw.
    pub raw32: u64,
    /// Frontier messages shipped as sorted varint deltas.
    pub varint_delta: u64,
    /// Frontier messages shipped as span bitmaps.
    pub bitmap: u64,
    /// Mask payloads shipped raw.
    pub raw_mask: u64,
    /// Mask payloads shipped run-length encoded.
    pub rle_mask: u64,
    /// Mask payloads shipped as new-bit index deltas.
    pub sparse_index: u64,
}

impl CodecCounts {
    /// Counts one frontier message encoded with `codec`.
    pub fn record_frontier(&mut self, codec: FrontierCodec) {
        match codec {
            FrontierCodec::Raw32 => self.raw32 += 1,
            FrontierCodec::VarintDelta => self.varint_delta += 1,
            FrontierCodec::Bitmap => self.bitmap += 1,
        }
    }

    /// Counts one mask payload encoded with `codec`.
    pub fn record_mask(&mut self, codec: MaskCodec) {
        match codec {
            MaskCodec::RawMask => self.raw_mask += 1,
            MaskCodec::RleMask => self.rle_mask += 1,
            MaskCodec::SparseIndex => self.sparse_index += 1,
        }
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &CodecCounts) {
        self.raw32 += other.raw32;
        self.varint_delta += other.varint_delta;
        self.bitmap += other.bitmap;
        self.raw_mask += other.raw_mask;
        self.rle_mask += other.rle_mask;
        self.sparse_index += other.sparse_index;
    }

    /// Total frontier messages counted.
    pub fn frontier_total(&self) -> u64 {
        self.raw32 + self.varint_delta + self.bitmap
    }

    /// Total mask payloads counted.
    pub fn mask_total(&self) -> u64 {
        self.raw_mask + self.rle_mask + self.sparse_index
    }

    /// Number of distinct frontier codecs that were ever selected.
    pub fn distinct_frontier_codecs(&self) -> usize {
        [self.raw32, self.varint_delta, self.bitmap].iter().filter(|&&c| c > 0).count()
    }

    /// One character summarising the iteration's dominant frontier codec
    /// for the compression trajectory: `R`/`V`/`B`, or `-` when no
    /// frontier message was sent.
    pub fn dominant_frontier_char(&self) -> char {
        let (mut best, mut best_n) = ('-', 0u64);
        for (c, n) in [('R', self.raw32), ('V', self.varint_delta), ('B', self.bitmap)] {
            if n > best_n {
                best = c;
                best_n = n;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_messages_stay_raw() {
        assert_eq!(select_frontier_codec(&[]), FrontierCodec::Raw32);
        assert_eq!(select_frontier_codec(&[42]), FrontierCodec::Raw32);
    }

    #[test]
    fn dense_unique_picks_bitmap() {
        let ids: Vec<u32> = (1000..1400).collect();
        assert_eq!(select_frontier_codec(&ids), FrontierCodec::Bitmap);
        // Density 1/16 exactly still qualifies.
        let ids: Vec<u32> = (0..64).map(|i| i * 16).collect();
        assert_eq!(select_frontier_codec(&ids), FrontierCodec::Bitmap);
    }

    #[test]
    fn sparse_or_duplicated_picks_varint() {
        let ids: Vec<u32> = (0..64).map(|i| i * 1000).collect();
        assert_eq!(select_frontier_codec(&ids), FrontierCodec::VarintDelta);
        // Dense span but duplicates: bitmap cannot represent it.
        assert_eq!(select_frontier_codec(&[5, 5, 6, 7]), FrontierCodec::VarintDelta);
    }

    #[test]
    fn small_delta_picks_sparse_index() {
        let prev = vec![0xff00u64, 0, 1];
        let mut cur = prev.clone();
        cur[1] |= 1 << 63;
        assert_eq!(select_mask_codec(Some(&prev), &cur), MaskCodec::SparseIndex);
        // Identical masks are the smallest delta of all.
        assert_eq!(select_mask_codec(Some(&prev), &prev), MaskCodec::SparseIndex);
    }

    #[test]
    fn zero_heavy_picks_rle() {
        let cur = vec![0u64, 0, 0, 0xdead, 0, 0, 0, 1];
        assert_eq!(select_mask_codec(None, &cur), MaskCodec::RleMask);
        // Non-monotone prev forfeits sparse-index and falls to density.
        let prev = vec![u64::MAX; 8];
        assert_eq!(select_mask_codec(Some(&prev), &cur), MaskCodec::RleMask);
    }

    #[test]
    fn saturated_mask_stays_raw() {
        let cur = vec![u64::MAX; 16];
        assert_eq!(select_mask_codec(None, &cur), MaskCodec::RawMask);
        // Dense fresh bits defeat sparse-index even with a valid prev.
        let prev = vec![0u64; 16];
        assert_eq!(select_mask_codec(Some(&prev), &cur), MaskCodec::RawMask);
    }

    #[test]
    fn counts_accumulate_and_summarise() {
        let mut c = CodecCounts::default();
        c.record_frontier(FrontierCodec::VarintDelta);
        c.record_frontier(FrontierCodec::VarintDelta);
        c.record_frontier(FrontierCodec::Bitmap);
        c.record_mask(MaskCodec::SparseIndex);
        assert_eq!(c.frontier_total(), 3);
        assert_eq!(c.mask_total(), 1);
        assert_eq!(c.distinct_frontier_codecs(), 2);
        assert_eq!(c.dominant_frontier_char(), 'V');
        let mut d = CodecCounts::default();
        d.record_frontier(FrontierCodec::Raw32);
        d.merge(&c);
        assert_eq!(d.frontier_total(), 4);
        assert_eq!(CodecCounts::default().dominant_frontier_char(), '-');
    }
}
