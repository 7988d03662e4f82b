//! Length-prefixed socket framing atop the integrity seal.
//!
//! The proc backend ships the same [`SealedPayload`]-encoded frontier and
//! delegate-mask payloads the simulated exchange models, but over real
//! Unix-domain sockets — a byte stream with no message boundaries and no
//! trustworthy peer. This module is the boundary layer: every message is
//! one *frame*,
//!
//! ```text
//! magic    4 bytes   b"GCBF"
//! version  1 byte    FRAME_VERSION
//! kind     1 byte    opaque protocol tag (the runtime defines meanings)
//! len      4 bytes   payload length, little-endian
//! seal     8 bytes   FNV-1a of the payload, little-endian
//! payload  len bytes
//! ```
//!
//! and the decoder is hardened the same way the PR 2 codec decoders are:
//! a hostile byte stream can produce only a typed [`FrameError`], never a
//! panic and never an allocation larger than [`MAX_FRAME_PAYLOAD`]. The
//! length prefix is validated *before* any payload allocation, truncation
//! is reported with exact byte counts, mid-stream garbage fails the magic
//! check, and a payload that does not match its seal surfaces the seal's
//! own [`IntegrityError`].

use crate::seal::{IntegrityError, SealedPayload};
use std::io::{IoSlice, Read, Write};

/// First bytes of every frame; anything else is mid-stream garbage.
pub const FRAME_MAGIC: [u8; 4] = *b"GCBF";

/// Wire-format version. A peer speaking a different version is rejected
/// at the handshake instead of silently misparsed.
pub const FRAME_VERSION: u8 = 1;

/// Fixed header size: magic + version + kind + length + seal.
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 1 + 4 + 8;

/// Hard upper bound on a frame payload (1 GiB). A length prefix above
/// this is rejected before any allocation happens — the defense against
/// a hostile or corrupted peer driving the decoder into an unbounded
/// `Vec` reservation.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// Typed decode failure of the frame layer. Every hostile input maps to
/// exactly one of these; none of them panics.
#[derive(Debug)]
pub enum FrameError {
    /// The stream position does not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        got: [u8; 4],
    },
    /// The frame claims a wire-format version this build does not speak.
    UnsupportedVersion {
        /// The version byte actually found.
        got: u8,
    },
    /// The length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The stream ended inside a frame (header or payload).
    Truncated {
        /// Bytes the frame still needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The stream ended cleanly *between* frames (peer closed the
    /// connection at a frame boundary). Not an error for a reader loop —
    /// it is how graceful shutdown looks from the receiving end.
    Closed,
    /// The payload does not match its seal: in-transit corruption.
    Integrity(IntegrityError),
    /// The underlying transport failed (including read deadlines:
    /// `WouldBlock`/`TimedOut` surface here for the retry layer).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            Self::UnsupportedVersion { got } => {
                write!(f, "unsupported frame version {got} (this build speaks {})", FRAME_VERSION)
            }
            Self::Oversized { len, max } => {
                write!(f, "frame length prefix {len} exceeds the {max}-byte bound")
            }
            Self::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} more bytes, got {got}")
            }
            Self::Closed => write!(f, "stream closed at a frame boundary"),
            Self::Integrity(e) => write!(f, "frame payload failed its seal: {e}"),
            Self::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<IntegrityError> for FrameError {
    fn from(e: IntegrityError) -> Self {
        Self::Integrity(e)
    }
}

impl FrameError {
    /// True when the error is a read deadline expiring (`WouldBlock` or
    /// `TimedOut`), the retryable case the backoff layer handles.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// One framed message: an opaque protocol tag plus a sealed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol message tag. Opaque at this layer; the proc runtime
    /// assigns meanings and rejects tags it does not know.
    pub kind: u8,
    payload: SealedPayload,
}

impl Frame {
    /// Seals `payload` into a frame of the given kind.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`] — a sender-side
    /// programming error, not a hostile-input condition.
    pub fn new(kind: u8, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() <= MAX_FRAME_PAYLOAD as usize,
            "frame payload {} exceeds the {MAX_FRAME_PAYLOAD}-byte bound",
            payload.len()
        );
        Self { kind, payload: SealedPayload::seal(payload) }
    }

    /// The payload bytes. Always seal-verified: the decode paths check
    /// the seal before constructing the frame, and the send path sealed
    /// the bytes itself.
    pub fn payload(&self) -> &[u8] {
        self.payload.bytes_unchecked()
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Total encoded size (header + payload).
    pub fn encoded_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.payload.len()
    }

    /// Encodes the frame into a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.header());
        out.extend_from_slice(self.payload.bytes_unchecked());
        out
    }

    /// Writes the encoded frame to `w` without copying the payload: the
    /// header and the payload go out in vectored writes until both are
    /// written.
    ///
    /// # Errors
    /// The writer's error, or `WriteZero` when it accepts nothing.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let header = self.header();
        let mut bufs = [IoSlice::new(&header), IoSlice::new(self.payload.bytes_unchecked())];
        let mut bufs = &mut bufs[..];
        while !bufs.is_empty() {
            match w.write_vectored(bufs) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn header(&self) -> [u8; FRAME_HEADER_BYTES] {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4] = FRAME_VERSION;
        header[5] = self.kind;
        header[6..10].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        header[10..].copy_from_slice(&self.payload.checksum().to_le_bytes());
        header
    }

    /// Reads one frame from `r`, validating the header bounds before any
    /// payload allocation and the seal before returning.
    ///
    /// A clean EOF at the frame boundary returns [`FrameError::Closed`];
    /// EOF anywhere inside the frame returns [`FrameError::Truncated`].
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, FrameError> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        let got = read_up_to(r, &mut header)?;
        if got == 0 {
            return Err(FrameError::Closed);
        }
        if got < FRAME_HEADER_BYTES {
            return Err(FrameError::Truncated { expected: FRAME_HEADER_BYTES - got, got });
        }
        let (kind, len, checksum) = Self::parse_header(&header)?;
        let mut payload = vec![0u8; len as usize];
        let got = read_up_to(r, &mut payload)?;
        if got < len as usize {
            return Err(FrameError::Truncated { expected: len as usize - got, got });
        }
        Self::assemble(kind, payload, checksum)
    }

    /// Decodes one frame from the front of `bytes`, returning the frame
    /// and the number of bytes consumed. The buffer-oriented twin of
    /// [`Self::read_from`], used by the hostile-bytes tests.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), FrameError> {
        if bytes.is_empty() {
            return Err(FrameError::Closed);
        }
        if bytes.len() < FRAME_HEADER_BYTES {
            return Err(FrameError::Truncated {
                expected: FRAME_HEADER_BYTES - bytes.len(),
                got: bytes.len(),
            });
        }
        let (kind, len, checksum) = Self::parse_header(&bytes[..FRAME_HEADER_BYTES])?;
        let total = FRAME_HEADER_BYTES + len as usize;
        if bytes.len() < total {
            return Err(FrameError::Truncated {
                expected: total - bytes.len(),
                got: bytes.len() - FRAME_HEADER_BYTES,
            });
        }
        let payload = bytes[FRAME_HEADER_BYTES..total].to_vec();
        Ok((Self::assemble(kind, payload, checksum)?, total))
    }

    /// Validates magic, version, and the length bound; returns
    /// `(kind, len, checksum)`. No allocation happens before this passes.
    fn parse_header(header: &[u8]) -> Result<(u8, u32, u64), FrameError> {
        debug_assert_eq!(header.len(), FRAME_HEADER_BYTES);
        if header[..4] != FRAME_MAGIC {
            return Err(FrameError::BadMagic { got: [header[0], header[1], header[2], header[3]] });
        }
        if header[4] != FRAME_VERSION {
            return Err(FrameError::UnsupportedVersion { got: header[4] });
        }
        let kind = header[5];
        let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized { len, max: MAX_FRAME_PAYLOAD });
        }
        let checksum = u64::from_le_bytes([
            header[10], header[11], header[12], header[13], header[14], header[15], header[16],
            header[17],
        ]);
        Ok((kind, len, checksum))
    }

    /// Reassembles a received payload under its transmitted seal and
    /// verifies it before the frame is handed to the protocol layer.
    fn assemble(kind: u8, payload: Vec<u8>, checksum: u64) -> Result<Self, FrameError> {
        let payload = SealedPayload::from_parts(payload, checksum);
        payload.open()?;
        Ok(Self { kind, payload })
    }
}

/// Reads until `buf` is full or EOF, returning the byte count. Interrupted
/// reads are retried; deadline expiry (`WouldBlock`/`TimedOut`) surfaces
/// as [`FrameError::Io`] for the retry layer above.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes at most 3 bytes per call, so every slice boundary is split.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_to_writes_the_encoding_through_partial_writes() {
        for payload in [Vec::new(), vec![7], (0..=255).collect()] {
            let frame = Frame::new(0x21, payload);
            let mut whole = Vec::new();
            frame.write_to(&mut whole).unwrap();
            assert_eq!(whole, frame.encode());
            let mut trickle = Trickle(Vec::new());
            frame.write_to(&mut trickle).unwrap();
            assert_eq!(trickle.0, frame.encode());
        }
    }

    #[test]
    fn roundtrip_through_bytes_and_stream() {
        let frame = Frame::new(0x11, vec![1, 2, 3, 4, 5]);
        let bytes = frame.encode();
        assert_eq!(bytes.len(), frame.encoded_len());

        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
        assert_eq!(back.payload(), &[1, 2, 3, 4, 5]);

        let mut cursor = std::io::Cursor::new(bytes);
        let streamed = Frame::read_from(&mut cursor).unwrap();
        assert_eq!(streamed, frame);
        assert!(matches!(Frame::read_from(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn empty_payload_is_legal() {
        let frame = Frame::new(0x01, Vec::new());
        let (back, used) = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(used, FRAME_HEADER_BYTES);
        assert_eq!(back.payload_len(), 0);
    }

    #[test]
    fn garbage_fails_the_magic_check() {
        let mut bytes = Frame::new(7, vec![9; 32]).encode();
        bytes[0] = b'X';
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = Frame::new(7, vec![9; 8]).encode();
        bytes[4] = FRAME_VERSION + 1;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::UnsupportedVersion { got }) if got == FRAME_VERSION + 1
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Frame::new(7, Vec::new()).encode();
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        // If the decoder tried to honor the prefix it would reserve 4 GiB;
        // the typed rejection proves it never got that far.
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { len: u32::MAX, max: MAX_FRAME_PAYLOAD })
        ));
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(Frame::read_from(&mut cursor), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn truncation_is_reported_with_exact_counts() {
        let bytes = Frame::new(7, vec![1, 2, 3, 4]).encode();
        for cut in 1..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            match err {
                FrameError::Truncated { expected, got } => {
                    assert!(expected > 0);
                    // A header-level cut reports the header deficit (the
                    // decoder cannot know the frame length yet); a
                    // payload-level cut reports the whole-frame deficit.
                    if cut < FRAME_HEADER_BYTES {
                        assert_eq!(expected, FRAME_HEADER_BYTES - cut, "cut {cut}");
                    } else {
                        assert_eq!(expected + cut, bytes.len(), "cut {cut}");
                    }
                    let _ = got;
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_bit_fails_the_seal() {
        let mut bytes = Frame::new(7, vec![0u8; 64]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Integrity(_))));
    }

    #[test]
    fn flipped_seal_bit_fails_too() {
        let mut bytes = Frame::new(7, vec![5u8; 16]).encode();
        bytes[10] ^= 0x01;
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Integrity(_))));
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let a = Frame::new(1, vec![1]);
        let b = Frame::new(2, vec![2, 2]);
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), a);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), b);
        assert!(matches!(Frame::read_from(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn timeout_classification() {
        let timeout = FrameError::Io(std::io::Error::from(std::io::ErrorKind::WouldBlock));
        assert!(timeout.is_timeout());
        let hard = FrameError::Io(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
        assert!(!hard.is_timeout());
        assert!(!FrameError::Closed.is_timeout());
    }
}
