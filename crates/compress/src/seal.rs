//! Integrity sealing for compressed payloads.
//!
//! Compressed bytes are denser than raw ones: a single flipped bit in a
//! varint stream can silently change *every* subsequent decoded id, where
//! the same flip in a raw stream perturbs exactly one. The transport
//! therefore wraps compressed payloads in a [`SealedPayload`] — the
//! payload plus an FNV-1a checksum — and verifies the seal on delivery,
//! turning silent corruption into a typed [`IntegrityError`] the fault
//! layer's retry path can act on.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`. Deterministic, dependency-free, and fast enough
/// that the model charges it to the same compress/decompress kernel time
/// as the codec work it protects.
///
/// Public because the checkpoint layer reuses the same digest to seal
/// snapshots at rest (one integrity primitive across wire and disk).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// FNV-1a fed piece by piece: [`fnv1a`] of the concatenated pieces, for a
/// value hashed as it is encoded, with no buffer between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Folds the next `bytes` in.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A compressed payload failed its integrity check on delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntegrityError {
    /// Checksum recorded when the payload was sealed.
    pub expected: u64,
    /// Checksum of the bytes actually delivered.
    pub actual: u64,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sealed payload checksum mismatch (expected {:#018x}, got {:#018x})",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for IntegrityError {}

/// A compressed wire payload plus the FNV-1a checksum taken at seal time.
///
/// Sealing is a pure function of the payload bytes, so a retransmitted
/// message (the fault layer's retry path) seals to the identical wire
/// image — determinism the replay machinery relies on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedPayload {
    bytes: Vec<u8>,
    checksum: u64,
}

impl SealedPayload {
    /// Seals `bytes`, recording their checksum.
    pub fn seal(bytes: Vec<u8>) -> Self {
        let checksum = fnv1a(&bytes);
        Self { bytes, checksum }
    }

    /// Reassembles a payload from bytes and a checksum that traveled
    /// separately (the frame layer ships the seal in the frame header).
    /// The result is *not* assumed intact — callers must [`Self::open`]
    /// it, which is exactly how transit corruption gets detected.
    pub fn from_parts(bytes: Vec<u8>, checksum: u64) -> Self {
        Self { bytes, checksum }
    }

    /// The checksum recorded at seal time (what the frame layer puts on
    /// the wire next to the payload).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Verifies the seal and returns the payload on success.
    pub fn open(&self) -> Result<&[u8], IntegrityError> {
        let actual = fnv1a(&self.bytes);
        if actual == self.checksum {
            Ok(&self.bytes)
        } else {
            Err(IntegrityError { expected: self.checksum, actual })
        }
    }

    /// True when the payload still matches its seal.
    pub fn is_intact(&self) -> bool {
        fnv1a(&self.bytes) == self.checksum
    }

    /// Payload length in bytes (what the cost model charges the wire).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Unverified access to the payload bytes. Prefer [`Self::open`]
    /// anywhere delivery may have crossed a faulty link.
    pub fn bytes_unchecked(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access for fault-injection tests that model in-transit
    /// corruption: flipping a bit here makes [`Self::open`] fail.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_roundtrip() {
        let sealed = SealedPayload::seal(vec![1, 2, 3, 250]);
        assert!(sealed.is_intact());
        assert_eq!(sealed.open().unwrap(), &[1, 2, 3, 250]);
        assert_eq!(sealed.len(), 4);
        assert!(!sealed.is_empty());
    }

    #[test]
    fn piecewise_hash_matches_the_whole() {
        let bytes: Vec<u8> = (0..=255).collect();
        let mut h = Fnv1a::default();
        bytes.chunks(7).for_each(|c| h.update(c));
        assert_eq!(h.finish(), fnv1a(&bytes));
        assert_eq!(Fnv1a::default().finish(), fnv1a(&[]));
    }

    #[test]
    fn empty_payload_is_valid() {
        let sealed = SealedPayload::seal(Vec::new());
        assert!(sealed.is_intact());
        assert!(sealed.is_empty());
        assert_eq!(sealed.open().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut sealed = SealedPayload::seal(vec![0u8; 64]);
        sealed.bytes_mut()[17] ^= 0x40;
        assert!(!sealed.is_intact());
        let err = sealed.open().unwrap_err();
        assert_ne!(err.expected, err.actual);
    }

    #[test]
    fn sealing_is_deterministic() {
        let a = SealedPayload::seal(vec![9, 8, 7]);
        let b = SealedPayload::seal(vec![9, 8, 7]);
        assert_eq!(a, b, "retransmitted payloads must seal identically");
    }
}
