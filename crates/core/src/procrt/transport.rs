//! Framed Unix-domain-socket transport for the proc backend.
//!
//! Every message is one [`Frame`] (magic + version + kind + length +
//! FNV-1a seal), written whole ([`Frame::write_to`]) by the one writer of
//! its socket, so frames never interleave. Connection establishment
//! retries with the deterministic seeded-jitter backoff
//! ([`JitteredBackoff`]); established sockets carry read/write deadlines
//! so a dead peer surfaces as a typed timeout instead of a hang.

use super::protocol::Msg;
use gcbfs_cluster::fault::JitteredBackoff;
use gcbfs_compress::{Frame, FrameError};
use std::os::unix::net::UnixStream;
use std::path::Path;
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
    for attempt in 0.. {
        let last = match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => e.to_string(),
        };
        let Some(delay) = backoff.delay_secs(attempt) else {
            return Err(TransportError::Connect { attempts: attempt, last });
        };
        std::thread::sleep(Duration::from_secs_f64(delay));
    }
    unreachable!("the backoff gives out first")
}

/// Seals `msg` into its frame and writes it whole to `stream` (blocking
/// until the configured write deadline).
pub fn send(stream: &mut UnixStream, msg: &Msg<'_>) -> Result<(), TransportError> {
    Ok(msg.frame().write_to(stream)?)
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
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let done = Msg::Ready(Stats { iter: 2, frontier: 5, new_delegates: 1 });
        send(&mut a, &done).unwrap();
        send(&mut a, &Msg::Bye).unwrap();
        drop(a);
        assert_eq!(Msg::decode(&recv_frame(&mut b).unwrap(), None).unwrap(), done);
        assert_eq!(recv_frame(&mut b).unwrap().kind, kind::BYE);
        assert!(matches!(recv_frame(&mut b), Err(TransportError::Frame(FrameError::Closed))));
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
