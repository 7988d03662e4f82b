//! Framed Unix-domain-socket transport for the proc backend.
//!
//! Every message is one [`Frame`] (magic + version + kind + length +
//! FNV-1a seal), written whole ([`Frame::write_to`]) by the one writer of
//! its socket, so frames never interleave. A worker connects once: the
//! coordinator binds its socket before it spawns anyone, so a refused
//! connect is final. Established sockets carry read/write deadlines so a
//! dead peer surfaces as a typed timeout instead of a hang.

use super::protocol::Msg;
use gcbfs_compress::{Frame, FrameError};
use std::os::unix::net::UnixStream;

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
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
    use std::time::Duration;

    #[test]
    fn send_recv_over_socketpair() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let done = Msg::Ready(Stats { iter: 2, frontier: 5, new_delegates: 1 });
        send(&mut a, &done).unwrap();
        send(&mut a, &Msg::Shutdown).unwrap();
        drop(a);
        assert_eq!(Msg::decode(&recv_frame(&mut b).unwrap(), None).unwrap(), done);
        assert_eq!(recv_frame(&mut b).unwrap().kind, kind::SHUTDOWN);
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
}
