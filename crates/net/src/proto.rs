//! Protocol layer: message-type registry and payload grammars.
//!
//! This module is the executable counterpart of `PROTOCOL.md` §3–§4.
//! Every `encode_*` builds exactly the payload bytes the spec shows,
//! and every `decode_*` rejects anything else — trailing bytes,
//! truncated fields, and over-long varints are all
//! [`NetError::Protocol`] errors, never panics. Varints and zigzag
//! deltas are the same primitives used by the checkpoint/snapshot
//! codec ([`smb_sketch::codec`]), so the two specs share one
//! implementation.

use crate::frame::NetError;
use smb_sketch::codec::{read_varint, write_varint, CodecError};

/// Protocol version carried in `HELLO` / `HELLO_ACK` (u16 LE).
pub const PROTOCOL_VERSION: u16 = 1;

// --- Message type registry (PROTOCOL.md §2) -------------------------

/// Client → server: open a session, carrying the client's version.
pub const MSG_HELLO: u8 = 0x01;
/// Server → client: version accepted; payload carries the engine spec.
pub const MSG_HELLO_ACK: u8 = 0x02;
/// Either direction: liveness probe with an opaque 8-byte token.
pub const MSG_PING: u8 = 0x03;
/// Reply to `PING`, echoing the token verbatim.
pub const MSG_PONG: u8 = 0x04;
/// Client → server: a batch of `(flow, item-bytes)` records to ingest.
pub const MSG_RECORD_BATCH: u8 = 0x10;
/// Server → client: batch accepted; echoes the record count.
pub const MSG_RECORD_ACK: u8 = 0x11;
/// Client → server: estimate one flow's cardinality (read-your-writes).
pub const MSG_QUERY: u8 = 0x20;
/// Reply to `QUERY`: found flag plus the estimate.
pub const MSG_QUERY_RESULT: u8 = 0x21;
/// Client → server: the `k` flows with the largest estimates.
pub const MSG_TOP_K: u8 = 0x22;
/// Reply to `TOP_K`: descending `(flow, estimate)` pairs.
pub const MSG_TOP_K_RESULT: u8 = 0x23;
/// Client → server: request the engine's full compressed state.
pub const MSG_SNAPSHOT: u8 = 0x30;
/// Reply to `SNAPSHOT`: a `SMB2` flow block (`PROTOCOL.md` §5).
pub const MSG_SNAPSHOT_RESULT: u8 = 0x31;
/// Client → server: stream morph lifecycle events.
pub const MSG_SUBSCRIBE_MORPHS: u8 = 0x40;
/// Server → client: one flight-recorder event.
pub const MSG_MORPH_EVENT: u8 = 0x41;
/// Server → client: subscription finished; echoes events delivered.
pub const MSG_MORPH_END: u8 = 0x42;
/// Client → server: stop accepting connections and drain sessions.
pub const MSG_SHUTDOWN: u8 = 0x50;
/// Reply to `SHUTDOWN`, sent before the server closes the session.
pub const MSG_SHUTDOWN_ACK: u8 = 0x51;
/// Either direction: terminal error report (code + UTF-8 message).
pub const MSG_ERROR: u8 = 0x7F;

// --- Error codes (PROTOCOL.md §4) -----------------------------------

/// The peer's `HELLO` version is not supported.
pub const ERR_UNSUPPORTED_VERSION: u8 = 1;
/// A payload violated its grammar.
pub const ERR_MALFORMED: u8 = 2;
/// The message type is not in the registry (or not valid here).
pub const ERR_UNKNOWN_TYPE: u8 = 3;
/// The request is valid but the server cannot serve it right now.
pub const ERR_UNAVAILABLE: u8 = 4;
/// The server failed internally while handling the request.
pub const ERR_INTERNAL: u8 = 5;
/// The response would exceed the negotiated frame limit.
pub const ERR_TOO_LARGE: u8 = 6;

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Protocol(format!("malformed payload: {e}"))
    }
}

/// A morph/lifecycle event as carried by `MORPH_EVENT` frames.
///
/// This is the wire projection of the telemetry flight recorder's
/// event record; `kind` uses the codes in `PROTOCOL.md` §3.9
/// (0 morph, 1 cleared, 2 saturated, 3 checkpoint, 4 drop-burst).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MorphEvent {
    /// Event kind code (see [`MorphEvent::kind_str`]).
    pub kind: u8,
    /// SMB round that closed (morph events; otherwise 0).
    pub round: u32,
    /// Fresh bits observed at closure (morph events; otherwise 0).
    pub fresh_bits: u32,
    /// Logical bitmap size at closure (morph events; otherwise 0).
    pub logical_size: u32,
    /// Items since the previous morph / checkpoint epoch / dropped
    /// items, depending on `kind`.
    pub items: u64,
    /// Estimate at the event (morph/saturated; otherwise 0).
    pub estimate: f64,
    /// Nanoseconds since the server's recorder was created.
    pub at_ns: u64,
}

impl MorphEvent {
    /// Human-readable name for [`MorphEvent::kind`].
    pub fn kind_str(&self) -> &'static str {
        match self.kind {
            0 => "morph",
            1 => "cleared",
            2 => "saturated",
            3 => "checkpoint",
            4 => "drop_burst",
            _ => "unknown",
        }
    }
}

/// A `Reader` over a payload that must be fully consumed.
struct Payload<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Payload { bytes, pos: 0 }
    }

    fn varint(&mut self) -> Result<u64, NetError> {
        Ok(read_varint(self.bytes, &mut self.pos)?)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], NetError> {
        let remaining = self.bytes.len() - self.pos;
        if n > remaining {
            return Err(NetError::Protocol(format!(
                "{what}: need {n} bytes, only {remaining} remain"
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, NetError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16_le(&mut self, what: &str) -> Result<u16, NetError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64_le(&mut self, what: &str) -> Result<u64, NetError> {
        let b = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn f64_le(&mut self, what: &str) -> Result<f64, NetError> {
        Ok(f64::from_bits(self.u64_le(what)?))
    }

    fn finish(self, what: &str) -> Result<(), NetError> {
        if self.pos != self.bytes.len() {
            return Err(NetError::Protocol(format!(
                "{what}: {} trailing bytes after payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encode a `HELLO` / `HELLO_ACK` version field (u16 LE).
pub fn encode_version(version: u16) -> Vec<u8> {
    version.to_le_bytes().to_vec()
}

/// Decode a `HELLO` payload: exactly one u16 LE version.
pub fn decode_hello(payload: &[u8]) -> Result<u16, NetError> {
    let mut p = Payload::new(payload);
    let version = p.u16_le("HELLO version")?;
    p.finish("HELLO")?;
    Ok(version)
}

/// Encode a `HELLO_ACK` payload: u16 LE version + spec JSON UTF-8.
pub fn encode_hello_ack(version: u16, spec_json: &str) -> Vec<u8> {
    let mut out = version.to_le_bytes().to_vec();
    out.extend_from_slice(spec_json.as_bytes());
    out
}

/// Decode a `HELLO_ACK` payload into `(version, spec JSON text)`.
pub fn decode_hello_ack(payload: &[u8]) -> Result<(u16, String), NetError> {
    if payload.len() < 2 {
        return Err(NetError::Protocol("HELLO_ACK payload shorter than version field".into()));
    }
    let version = u16::from_le_bytes([payload[0], payload[1]]);
    let spec = std::str::from_utf8(&payload[2..])
        .map_err(|_| NetError::Protocol("HELLO_ACK spec is not UTF-8".into()))?;
    Ok((version, spec.to_string()))
}

/// Decode a `PING`/`PONG` payload: exactly 8 opaque token bytes.
pub fn decode_ping(payload: &[u8]) -> Result<[u8; 8], NetError> {
    let mut p = Payload::new(payload);
    let b = p.take(8, "PING token")?;
    let mut token = [0u8; 8];
    token.copy_from_slice(b);
    p.finish("PING")?;
    Ok(token)
}

/// Encode a `RECORD_BATCH` payload from `(flow, item-bytes)` records.
pub fn encode_record_batch(records: &[(u64, &[u8])]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + records.len() * 16);
    write_varint(&mut out, records.len() as u64);
    for (flow, item) in records {
        write_varint(&mut out, *flow);
        write_varint(&mut out, item.len() as u64);
        out.extend_from_slice(item);
    }
    out
}

/// Decode a `RECORD_BATCH` payload into `(flow, item)` records whose
/// items borrow from `payload`.
///
/// The declared record count is validated against the bytes actually
/// present (each record needs at least 2 bytes) before the record
/// vector is sized, so a forged count cannot balloon memory.
pub fn decode_record_batch(payload: &[u8]) -> Result<Vec<(u64, &[u8])>, NetError> {
    let mut p = Payload::new(payload);
    let count = p.varint()?;
    let remaining = payload.len() - 1;
    if count > (remaining / 2 + 1) as u64 {
        return Err(NetError::Protocol(format!(
            "RECORD_BATCH claims {count} records but only {remaining} payload bytes follow"
        )));
    }
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let flow = p.varint()?;
        let len = p.varint()?;
        records.push((flow, p.take(len as usize, "RECORD_BATCH item bytes")?));
    }
    p.finish("RECORD_BATCH")?;
    Ok(records)
}

/// Encode a single-varint payload (`RECORD_ACK`, `QUERY`, `TOP_K`,
/// `SUBSCRIBE_MORPHS`, `MORPH_END` all share this shape).
pub fn encode_u64(value: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    write_varint(&mut out, value);
    out
}

/// Decode a single-varint payload; `what` names the message for
/// diagnostics.
pub fn decode_u64(payload: &[u8], what: &str) -> Result<u64, NetError> {
    let mut p = Payload::new(payload);
    let value = p.varint()?;
    p.finish(what)?;
    Ok(value)
}

/// Encode a `QUERY_RESULT` payload: found flag + f64 LE estimate.
pub fn encode_query_result(estimate: Option<f64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    match estimate {
        Some(e) => {
            out.push(1);
            out.extend_from_slice(&e.to_bits().to_le_bytes());
        }
        None => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
    }
    out
}

/// Decode a `QUERY_RESULT` payload into `Some(estimate)` / `None`.
pub fn decode_query_result(payload: &[u8]) -> Result<Option<f64>, NetError> {
    let mut p = Payload::new(payload);
    let found = p.u8("QUERY_RESULT found flag")?;
    let estimate = p.f64_le("QUERY_RESULT estimate")?;
    p.finish("QUERY_RESULT")?;
    match found {
        0 => Ok(None),
        1 => Ok(Some(estimate)),
        other => Err(NetError::Protocol(format!(
            "QUERY_RESULT found flag must be 0 or 1, got {other}"
        ))),
    }
}

/// Encode a `TOP_K_RESULT` payload from descending `(flow, estimate)`
/// pairs.
pub fn encode_top_k_result(entries: &[(u64, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entries.len() * 16);
    write_varint(&mut out, entries.len() as u64);
    for (flow, estimate) in entries {
        out.extend_from_slice(&flow.to_le_bytes());
        out.extend_from_slice(&estimate.to_bits().to_le_bytes());
    }
    out
}

/// Decode a `TOP_K_RESULT` payload into `(flow, estimate)` pairs.
pub fn decode_top_k_result(payload: &[u8]) -> Result<Vec<(u64, f64)>, NetError> {
    let mut p = Payload::new(payload);
    let count = p.varint()?;
    let remaining = payload.len().saturating_sub(1);
    if count > (remaining / 16) as u64 + 1 {
        return Err(NetError::Protocol(format!(
            "TOP_K_RESULT claims {count} entries but only {remaining} payload bytes follow"
        )));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let flow = p.u64_le("TOP_K_RESULT flow")?;
        let estimate = p.f64_le("TOP_K_RESULT estimate")?;
        entries.push((flow, estimate));
    }
    p.finish("TOP_K_RESULT")?;
    Ok(entries)
}

/// Encode a `MORPH_EVENT` payload.
pub fn encode_morph_event(ev: &MorphEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    out.push(ev.kind);
    write_varint(&mut out, u64::from(ev.round));
    write_varint(&mut out, u64::from(ev.fresh_bits));
    write_varint(&mut out, u64::from(ev.logical_size));
    write_varint(&mut out, ev.items);
    out.extend_from_slice(&ev.estimate.to_bits().to_le_bytes());
    write_varint(&mut out, ev.at_ns);
    out
}

/// Decode a `MORPH_EVENT` payload.
pub fn decode_morph_event(payload: &[u8]) -> Result<MorphEvent, NetError> {
    let mut p = Payload::new(payload);
    let kind = p.u8("MORPH_EVENT kind")?;
    let round = narrow_u32(p.varint()?, "MORPH_EVENT round")?;
    let fresh_bits = narrow_u32(p.varint()?, "MORPH_EVENT fresh_bits")?;
    let logical_size = narrow_u32(p.varint()?, "MORPH_EVENT logical_size")?;
    let items = p.varint()?;
    let estimate = p.f64_le("MORPH_EVENT estimate")?;
    let at_ns = p.varint()?;
    p.finish("MORPH_EVENT")?;
    Ok(MorphEvent {
        kind,
        round,
        fresh_bits,
        logical_size,
        items,
        estimate,
        at_ns,
    })
}

fn narrow_u32(value: u64, what: &str) -> Result<u32, NetError> {
    u32::try_from(value)
        .map_err(|_| NetError::Protocol(format!("{what} {value} exceeds u32 range")))
}

/// Encode an `ERROR` payload: code byte + UTF-8 message.
pub fn encode_error(code: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + message.len());
    out.push(code);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decode an `ERROR` payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Result<(u8, String), NetError> {
    if payload.is_empty() {
        return Err(NetError::Protocol("ERROR payload missing code byte".into()));
    }
    let message = String::from_utf8_lossy(&payload[1..]).into_owned();
    Ok((payload[0], message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trip() {
        assert_eq!(decode_hello(&encode_version(1)).unwrap(), 1);
        assert_eq!(decode_hello(&encode_version(0x1234)).unwrap(), 0x1234);
        assert!(decode_hello(&[1]).is_err());
        assert!(decode_hello(&[1, 0, 0]).is_err());
    }

    #[test]
    fn hello_ack_round_trip() {
        let payload = encode_hello_ack(1, r#"{"algorithm":"xxh64"}"#);
        let (v, spec) = decode_hello_ack(&payload).unwrap();
        assert_eq!(v, 1);
        assert_eq!(spec, r#"{"algorithm":"xxh64"}"#);
        assert!(decode_hello_ack(&[0xFF, 0x00, 0xC0]).is_err()); // bad UTF-8
    }

    #[test]
    fn record_batch_round_trip() {
        let records: Vec<(u64, &[u8])> = vec![
            (7, b"alpha".as_slice()),
            (7, b"beta".as_slice()),
            (u64::MAX, b"".as_slice()),
        ];
        let payload = encode_record_batch(&records);
        let decoded = decode_record_batch(&payload).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0], (7, b"alpha".as_slice()));
        assert_eq!(decoded[2], (u64::MAX, b"".as_slice()));
    }

    #[test]
    fn record_batch_forged_count_rejected() {
        let mut payload = Vec::new();
        write_varint(&mut payload, u64::MAX);
        assert!(decode_record_batch(&payload).is_err());
    }

    #[test]
    fn record_batch_truncated_item_rejected() {
        let mut payload = encode_record_batch(&[(1, b"abcdef".as_slice())]);
        payload.truncate(payload.len() - 3);
        assert!(decode_record_batch(&payload).is_err());
    }

    #[test]
    fn record_batch_trailing_bytes_rejected() {
        let mut payload = encode_record_batch(&[(1, b"x".as_slice())]);
        payload.push(0);
        assert!(decode_record_batch(&payload).is_err());
    }

    #[test]
    fn query_result_round_trip() {
        assert_eq!(decode_query_result(&encode_query_result(None)).unwrap(), None);
        assert_eq!(
            decode_query_result(&encode_query_result(Some(42.5))).unwrap(),
            Some(42.5)
        );
        // Found flag other than 0/1 is a grammar violation.
        let mut bad = encode_query_result(Some(1.0));
        bad[0] = 9;
        assert!(decode_query_result(&bad).is_err());
    }

    #[test]
    fn top_k_result_round_trip() {
        let entries = vec![(9u64, 120.0f64), (3, 55.5), (u64::MAX, 0.0)];
        let decoded = decode_top_k_result(&encode_top_k_result(&entries)).unwrap();
        assert_eq!(decoded, entries);
        assert!(decode_top_k_result(&encode_top_k_result(&[])).unwrap().is_empty());
        let mut forged = Vec::new();
        write_varint(&mut forged, 1 << 40);
        assert!(decode_top_k_result(&forged).is_err());
    }

    #[test]
    fn morph_event_round_trip() {
        let ev = MorphEvent {
            kind: 0,
            round: 12,
            fresh_bits: 900,
            logical_size: 4096,
            items: 123_456,
            estimate: 98765.4321,
            at_ns: u64::MAX,
        };
        let decoded = decode_morph_event(&encode_morph_event(&ev)).unwrap();
        assert_eq!(decoded, ev);
        assert_eq!(decoded.kind_str(), "morph");
        let mut truncated = encode_morph_event(&ev);
        truncated.truncate(4);
        assert!(decode_morph_event(&truncated).is_err());
    }

    #[test]
    fn error_payload_round_trip() {
        let (code, message) = decode_error(&encode_error(ERR_MALFORMED, "bad frame")).unwrap();
        assert_eq!(code, ERR_MALFORMED);
        assert_eq!(message, "bad frame");
        assert!(decode_error(&[]).is_err());
    }

    #[test]
    fn single_varint_payloads() {
        assert_eq!(decode_u64(&encode_u64(0), "QUERY").unwrap(), 0);
        assert_eq!(decode_u64(&encode_u64(u64::MAX), "QUERY").unwrap(), u64::MAX);
        assert!(decode_u64(&[], "QUERY").is_err());
        let mut trailing = encode_u64(5);
        trailing.push(0);
        assert!(decode_u64(&trailing, "QUERY").is_err());
    }
}
