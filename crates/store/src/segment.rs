//! The `CHAMSEG1` body codec: byte layout only, no I/O. A segment is a
//! [`RecordLog`](crate::RecordLog) with magic `"CHAMSEG1"` whose record
//! bodies are `session:u64 LE | seq:u64 LE | payload`; framing and the
//! CRC seal are the shared log's ([`unseal_record`]).

use crate::log::{check_header, seal_record, unseal_record, LogFormat, RecordError};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CHAMSEG1";

/// Body bytes before the payload: session id + sequence number.
pub const RECORD_HEADER_BYTES: usize = 8 + 8;

/// The `CHAMSEG1` log format.
pub(crate) const SEGMENT_FORMAT: LogFormat = LogFormat {
    magic: SEGMENT_MAGIC,
    min_body: RECORD_HEADER_BYTES,
};

/// One decoded segment record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Session the checkpoint belongs to.
    pub session: u64,
    /// Monotone per-session sequence number (0 for the first append).
    pub seq: u64,
    /// The sealed payload (a `CHAMFLT1` checkpoint blob in production).
    pub payload: Vec<u8>,
}

impl Record {
    /// Parses an unsealed body (at least [`RECORD_HEADER_BYTES`] long).
    pub(crate) fn from_body(body: &[u8]) -> Self {
        let (session, seq) = record_key(body);
        Self {
            session,
            seq,
            payload: body[RECORD_HEADER_BYTES..].to_vec(),
        }
    }
}

/// The `(session, seq)` key of an unsealed body, without copying the
/// payload.
pub(crate) fn record_key(body: &[u8]) -> (u64, u64) {
    let session = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let seq = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    (session, seq)
}

/// Encodes one sealed record in a single allocation.
///
/// # Panics
/// Panics if `payload` would push the body over
/// [`MAX_RECORD_BYTES`](crate::MAX_RECORD_BYTES); callers control payload
/// sizes and never approach the cap.
pub fn encode_record(session: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
    seal_record(RECORD_HEADER_BYTES + payload.len(), |out| {
        out.extend_from_slice(&session.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(payload);
    })
}

/// Decodes the record starting at the front of `bytes`, returning it with
/// the number of bytes consumed.
///
/// # Errors
/// The shared log's [`unseal_record`] failures, with the session+seq
/// header as the minimum body.
pub fn decode_record(bytes: &[u8]) -> Result<(Record, usize), RecordError> {
    let (body, used) = unseal_record(bytes, RECORD_HEADER_BYTES)?;
    Ok((Record::from_body(body), used))
}

/// Checks that `bytes` opens with the segment magic.
///
/// # Errors
/// [`RecordError::Truncated`] for a strict prefix of `"CHAMSEG1"`,
/// [`RecordError::BadMagic`] for anything else that is not it.
pub fn check_segment_header(bytes: &[u8]) -> Result<(), RecordError> {
    check_header(bytes, SEGMENT_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RECORD_FRAME_BYTES;

    #[test]
    fn roundtrip_is_identity() {
        let payload = vec![7u8, 0, 255, 42];
        let encoded = encode_record(9, 3, &payload);
        let (record, used) = decode_record(&encoded).expect("roundtrip");
        assert_eq!(used, encoded.len());
        assert_eq!(record.session, 9);
        assert_eq!(record.seq, 3);
        assert_eq!(record.payload, payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let encoded = encode_record(0, 0, &[]);
        let (record, used) = decode_record(&encoded).expect("empty payload");
        assert_eq!(used, RECORD_FRAME_BYTES + RECORD_HEADER_BYTES);
        assert!(record.payload.is_empty());
    }
}
