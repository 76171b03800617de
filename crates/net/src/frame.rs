//! Frame layer: length-prefixed message framing over a byte stream.
//!
//! Every protocol message travels as one *frame*:
//!
//! ```text
//! +----------------+-----------+------------------+
//! | length: u32 LE | type: u8  | payload bytes    |
//! +----------------+-----------+------------------+
//! ```
//!
//! `length` counts the type byte plus the payload (so the minimum
//! legal value is 1), and is capped at [`MAX_FRAME`] to bound the
//! memory a hostile peer can make either side allocate. The frame
//! layer knows nothing about message semantics — payload grammars
//! live in [`crate::proto`] and normatively in `PROTOCOL.md` §3.

use std::io::{Read, Write};

/// Upper bound on `length` (type byte + payload), 16 MiB.
///
/// Chosen so a full-engine `SNAPSHOT_RESULT` at the default
/// configuration fits with two orders of magnitude of headroom, while
/// a forged length prefix cannot trigger a multi-gigabyte allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Errors surfaced by the frame and protocol layers.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket/file error.
    Io(std::io::Error),
    /// The peer violated the wire grammar (bad length, truncated
    /// payload, unknown message in a context that forbids it, ...).
    Protocol(String),
    /// The peer answered with an `ERROR` frame; `code` is one of the
    /// `ERR_*` constants in [`crate::proto`].
    Remote {
        /// Machine-readable error code (`PROTOCOL.md` §4).
        code: u8,
        /// Human-readable diagnostic supplied by the peer.
        message: String,
    },
    /// The connection closed at a frame boundary (clean EOF).
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Remote { code, message } => {
                write!(f, "remote error {code}: {message}")
            }
            NetError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Write one frame (`length` prefix, type byte, payload) to `w`.
///
/// Fails with [`NetError::Protocol`] if the payload would exceed
/// [`MAX_FRAME`]; nothing is written in that case. The write is
/// buffered into a single `write_all` so a frame is never interleaved
/// mid-header on a shared stream.
///
/// ```
/// let mut buf = Vec::new();
/// smb_net::write_frame(&mut buf, 0x03, b"PINGPING").unwrap();
/// // length = 1 (type byte) + 8 (payload) = 9, little-endian.
/// assert_eq!(&buf[..5], &[9, 0, 0, 0, 0x03]);
/// assert_eq!(&buf[5..], b"PINGPING");
/// ```
pub fn write_frame<W: Write>(w: &mut W, msg_type: u8, payload: &[u8]) -> Result<(), NetError> {
    w.write_all(&encode_frame(msg_type, payload)?)?;
    w.flush()?;
    Ok(())
}

/// One frame's bytes (`length` prefix, type byte, payload), or
/// [`NetError::Protocol`] if the payload would exceed [`MAX_FRAME`].
pub(crate) fn encode_frame(msg_type: u8, payload: &[u8]) -> Result<Vec<u8>, NetError> {
    let len = 1u64 + payload.len() as u64;
    if len > u64::from(MAX_FRAME) {
        return Err(NetError::Protocol(format!(
            "outgoing frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )));
    }
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(msg_type);
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Read one frame from `r`, returning `(type, payload)`.
///
/// Returns [`NetError::Closed`] on a clean EOF *before any header
/// byte* — the peer hung up between frames. EOF mid-header or
/// mid-payload is a [`NetError::Protocol`] truncation error. A
/// declared length of 0 or above `max_frame` is rejected before any
/// payload allocation.
pub fn read_frame<R: Read>(r: &mut R, max_frame: u32) -> Result<(u8, Vec<u8>), NetError> {
    let mut header = [0u8; 4];
    // First byte distinguishes clean close from truncation.
    match r.read(&mut header[..1])? {
        0 => return Err(NetError::Closed),
        1 => {}
        n => return Err(NetError::Protocol(format!("short read returned {n}"))),
    }
    r.read_exact(&mut header[1..])
        .map_err(|e| truncated("frame header", e))?;
    let len = u32::from_le_bytes(header);
    if len == 0 {
        return Err(NetError::Protocol("frame length 0 (missing type byte)".into()));
    }
    if len > max_frame {
        return Err(NetError::Protocol(format!(
            "frame length {len} exceeds limit {max_frame}"
        )));
    }
    let mut msg_type = [0u8; 1];
    r.read_exact(&mut msg_type)
        .map_err(|e| truncated("frame type byte", e))?;
    let mut payload = vec![0u8; len as usize - 1];
    r.read_exact(&mut payload)
        .map_err(|e| truncated("frame payload", e))?;
    Ok((msg_type[0], payload))
}

fn truncated(what: &str, e: std::io::Error) -> NetError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        NetError::Protocol(format!("connection closed mid-frame while reading {what}"))
    } else {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x42, b"hello").unwrap();
        let mut cursor = &buf[..];
        let (ty, payload) = read_frame(&mut cursor, MAX_FRAME).unwrap();
        assert_eq!(ty, 0x42);
        assert_eq!(payload, b"hello");
        assert!(cursor.is_empty());
    }

    #[test]
    fn empty_payload_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x30, b"").unwrap();
        assert_eq!(buf, [1, 0, 0, 0, 0x30]);
        let (ty, payload) = read_frame(&mut &buf[..], MAX_FRAME).unwrap();
        assert_eq!(ty, 0x30);
        assert!(payload.is_empty());
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut &empty[..], MAX_FRAME),
            Err(NetError::Closed)
        ));
    }

    #[test]
    fn eof_mid_header_is_protocol_error() {
        let partial: &[u8] = &[5, 0];
        assert!(matches!(
            read_frame(&mut &partial[..], MAX_FRAME),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn eof_mid_payload_is_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x10, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut &buf[..], MAX_FRAME),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn zero_length_rejected() {
        let buf: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut &buf[..], MAX_FRAME),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(0x10);
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_outgoing_rejected() {
        let payload = vec![0u8; MAX_FRAME as usize];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, 0x10, &payload),
            Err(NetError::Protocol(_))
        ));
        assert!(sink.is_empty());
    }
}
