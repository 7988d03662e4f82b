//! Framed Unix-domain-socket transport for the proc backend.
//!
//! Every message is one [`Frame`] (magic + version + kind + length +
//! FNV-1a seal), written with a single `write_all` so concurrent writers
//! serialized by a mutex can never interleave frame bytes. Connection
//! establishment retries with the deterministic seeded-jitter backoff
//! ([`JitteredBackoff`]); established sockets carry read/write deadlines
//! so a dead peer surfaces as a typed timeout instead of a hang.

use super::protocol::Msg;
use gcbfs_cluster::fault::JitteredBackoff;
use gcbfs_compress::{Frame, FrameError};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// Connecting to the coordinator socket failed after every backoff
    /// attempt.
    Connect {
        /// Attempts made (the backoff's `max_attempts`).
        attempts: u32,
        /// The final OS error, stringified.
        last: String,
    },
    /// A frame failed to decode or the socket broke mid-frame.
    Frame(FrameError),
    /// A read or write deadline fired.
    Timeout,
    /// A raw socket operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect { attempts, last } => {
                write!(f, "connect failed after {attempts} attempts: {last}")
            }
            Self::Frame(e) => write!(f, "frame error: {e}"),
            Self::Timeout => write!(f, "socket deadline elapsed"),
            Self::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Frame(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        if e.is_timeout() {
            Self::Timeout
        } else {
            Self::Frame(e)
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
            Self::Timeout
        } else {
            Self::Io(e)
        }
    }
}

/// Connects to `path`, retrying with the seeded-jitter backoff: attempt
/// `k` sleeps `delay_secs(k)` before retrying, so several workers racing
/// the coordinator's `bind` do not stampede in lockstep.
pub fn connect_with_backoff(
    path: &Path,
    backoff: &JitteredBackoff,
) -> Result<UnixStream, TransportError> {
    let mut attempt = 0u32;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => match backoff.delay_secs(attempt) {
                Some(delay) => {
                    std::thread::sleep(Duration::from_secs_f64(delay));
                    attempt += 1;
                    let _ = e;
                }
                None => {
                    return Err(TransportError::Connect { attempts: attempt, last: e.to_string() })
                }
            },
        }
    }
}

/// A mutex-shared frame writer over one socket. Both the worker's main
/// loop and its heartbeat thread write through this handle; the single
/// `write_all` per frame under the lock keeps frames contiguous.
#[derive(Clone)]
pub struct SharedWriter {
    stream: Arc<Mutex<UnixStream>>,
}

impl SharedWriter {
    /// Wraps a connected stream.
    pub fn new(stream: UnixStream) -> Self {
        Self { stream: Arc::new(Mutex::new(stream)) }
    }

    /// Sets the write deadline for all subsequent sends.
    pub fn set_write_deadline(&self, d: Option<Duration>) -> Result<(), TransportError> {
        Ok(self.stream.lock().expect("writer lock poisoned").set_write_timeout(d)?)
    }

    /// Seals `msg` into its frame and writes it atomically.
    pub fn send(&self, msg: &Msg<'_>) -> Result<(), TransportError> {
        let bytes = msg.frame().encode();
        let mut s = self.stream.lock().expect("writer lock poisoned");
        Ok(s.write_all(&bytes)?)
    }
}

/// Reads one frame from `stream` (blocking until the configured read
/// deadline). Timeouts and mid-frame breaks surface as typed errors.
pub fn recv_frame(stream: &mut UnixStream) -> Result<Frame, TransportError> {
    Ok(Frame::read_from(stream)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procrt::protocol::{kind, Stats};

    #[test]
    fn send_recv_over_socketpair() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let w = SharedWriter::new(a);
        let beat = Msg::Heartbeat { slot: 1, seq: 2 };
        w.send(&beat).unwrap();
        let f = recv_frame(&mut b).unwrap();
        assert_eq!(Msg::decode(&f, None).unwrap(), beat);
    }

    #[test]
    fn concurrent_writers_never_interleave_frames() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let w = SharedWriter::new(a);
        let w2 = w.clone();
        let t = std::thread::spawn(move || {
            for i in 0..50u64 {
                w2.send(&Msg::Heartbeat { slot: 0, seq: i }).unwrap();
            }
        });
        for i in 0..50u32 {
            w.send(&Msg::StepDone(Stats { iter: i, ..Stats::default() })).unwrap();
        }
        t.join().unwrap();
        drop(w);
        let mut beats = 0;
        let mut dones = 0;
        loop {
            match recv_frame(&mut b) {
                Ok(f) => match f.kind {
                    kind::HEARTBEAT => beats += 1,
                    kind::STEP_DONE => dones += 1,
                    k => panic!("unexpected kind {k}"),
                },
                Err(TransportError::Frame(FrameError::Closed)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!((beats, dones), (50, 50));
    }

    #[test]
    fn read_deadline_is_a_typed_timeout() {
        let (_a, mut b) = UnixStream::pair().unwrap();
        b.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        match recv_frame(&mut b) {
            Err(TransportError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn connect_backoff_gives_up_with_typed_error() {
        let missing = std::env::temp_dir().join("gcbfs-no-such-socket.sock");
        let bo = JitteredBackoff::new(7, 0).with_envelope(0.001, 0.002, 3);
        match connect_with_backoff(&missing, &bo) {
            Err(TransportError::Connect { attempts: 3, .. }) => {}
            other => panic!("expected Connect error, got {other:?}"),
        }
    }
}
