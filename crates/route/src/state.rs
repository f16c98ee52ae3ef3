//! Durable router state: the CHAMRTE1 append-only log, so a restarted
//! router (including a SIGKILLed one) resumes routing, pinning and
//! failover without re-learning placement.
//!
//! The log is a `chameleon-store` [`RecordLog`] with magic `CHAMRTE1`,
//! which owns framing, torn-tail recovery, durable append and the atomic
//! rewrite (DESIGN.md §12). This module owns the record bodies, the
//! [`RouterImage`] they replay to, and when to compact. Bodies are
//! `op:u8 | session:u64 LE | ...`:
//!
//! * `OP_PIN` — `addr` bytes (UTF-8): the session is pinned to the
//!   backend listening at `addr`. Pins are keyed by address, not index,
//!   so recovery maps onto whatever `--backends` order the restarted
//!   router was given; a pin whose address is no longer listed is
//!   dropped (and counted).
//! * `OP_UNPIN` — the pin is removed.
//! * `OP_SHADOW` — `seq:u64 LE | blob`: the session's shadow checkpoint,
//!   stamped with the last-acked op sequence it reflects (the stamp is
//!   what lets failover skip re-sending an op the shadow already
//!   captured).
//!
//! Replay is last-record-wins, except for shadows, where the *highest
//! sequence stamp* wins: appends happen outside the router's shadow
//! lock, so two refreshes of one session can reach the log in the
//! opposite order of their in-memory application, and last-record-wins
//! would let a restarted router regress to the older checkpoint. The
//! codec half (`encode_*`, [`decode_state`]) is pure, so the simtest
//! multinode explorer round-trips its router state through the real
//! bytes.

use std::collections::HashMap;
use std::path::Path;

use chameleon_fleet::SessionId;
use chameleon_store::{
    scan, seal_record, sealed_len, unseal_record, LogFormat, RecordError, RecordLog, Scan,
};

/// File magic opening a CHAMRTE1 router-state log.
pub const STATE_MAGIC: &[u8; 8] = b"CHAMRTE1";

const OP_PIN: u8 = 0x01;
const OP_UNPIN: u8 = 0x02;
const OP_SHADOW: u8 = 0x03;

/// Smallest body: op byte + session id.
const MIN_BODY_BYTES: usize = 9;

/// The CHAMRTE1 log format.
const STATE_FORMAT: LogFormat = LogFormat {
    magic: STATE_MAGIC,
    min_body: MIN_BODY_BYTES,
};

/// One replayable router-state mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateRecord {
    /// Pin `session` to the backend at `addr`.
    Pin {
        /// The pinned session.
        session: SessionId,
        /// The owning backend's listen address.
        addr: String,
    },
    /// Remove `session`'s pin.
    Unpin {
        /// The unpinned session.
        session: SessionId,
    },
    /// Replace `session`'s shadow checkpoint.
    Shadow {
        /// The shadowed session.
        session: SessionId,
        /// Last-acked op sequence the blob reflects.
        seq: u64,
        /// CHAMFLT checkpoint bytes.
        blob: Vec<u8>,
    },
}

/// Why a CHAMRTE1 record failed to decode: the shared log's framing
/// failure, or a sealed body the router codec cannot parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// Framing, cap or CRC failure (or a body length wrong for its
    /// opcode, as [`RecordError::BadLength`]). Only
    /// [`RecordError::Truncated`] is a torn tail; the rest is damage.
    Record(RecordError),
    /// An unknown opcode byte.
    BadOp {
        /// The opcode as read.
        op: u8,
    },
    /// A pin record's address bytes are not UTF-8.
    BadUtf8,
}

impl From<RecordError> for StateError {
    fn from(error: RecordError) -> Self {
        Self::Record(error)
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Record(error) => write!(f, "state log: {error}"),
            Self::BadOp { op } => write!(f, "unknown state record opcode {op:#04x}"),
            Self::BadUtf8 => write!(f, "pin record address is not UTF-8"),
        }
    }
}

impl std::error::Error for StateError {}

/// Seals a record whose body is `op | session | tail...` in one
/// allocation.
fn encode_body(op: u8, session: SessionId, tail: &[&[u8]]) -> Vec<u8> {
    let body_len = MIN_BODY_BYTES + tail.iter().map(|part| part.len()).sum::<usize>();
    seal_record(body_len, |out| {
        out.push(op);
        out.extend_from_slice(&session.to_le_bytes());
        for part in tail {
            out.extend_from_slice(part);
        }
    })
}

/// Encodes a pin record (framed, ready to append).
pub fn encode_pin(session: SessionId, addr: &str) -> Vec<u8> {
    encode_body(OP_PIN, session, &[addr.as_bytes()])
}

/// Encodes an unpin record (framed, ready to append).
pub fn encode_unpin(session: SessionId) -> Vec<u8> {
    encode_body(OP_UNPIN, session, &[])
}

/// Encodes a shadow-checkpoint record (framed, ready to append).
pub fn encode_shadow(session: SessionId, seq: u64, blob: &[u8]) -> Vec<u8> {
    encode_body(OP_SHADOW, session, &[&seq.to_le_bytes(), blob])
}

/// Decodes the record at the front of `bytes`, returning it and the
/// number of bytes consumed.
///
/// # Errors
///
/// Any shortening of a valid record is `Record(Truncated)`; other
/// variants report the specific damage.
pub fn decode_state_record(bytes: &[u8]) -> Result<(StateRecord, usize), StateError> {
    let (body, used) = unseal_record(bytes, MIN_BODY_BYTES)?;
    Ok((decode_body(body)?, used))
}

/// Parses an unsealed body (at least [`MIN_BODY_BYTES`] long).
fn decode_body(body: &[u8]) -> Result<StateRecord, StateError> {
    let session = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
    let rest = &body[MIN_BODY_BYTES..];
    Ok(match body[0] {
        OP_PIN => StateRecord::Pin {
            session,
            addr: std::str::from_utf8(rest)
                .map_err(|_| StateError::BadUtf8)?
                .to_string(),
        },
        OP_UNPIN if rest.is_empty() => StateRecord::Unpin { session },
        OP_SHADOW if rest.len() >= 8 => StateRecord::Shadow {
            session,
            seq: u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")),
            blob: rest[8..].to_vec(),
        },
        OP_UNPIN | OP_SHADOW => {
            let len = body.len() as u64;
            return Err(RecordError::BadLength { len }.into());
        }
        op => return Err(StateError::BadOp { op }),
    })
}

/// The router image a log replays to: the pin table (by backend address)
/// and the shadow table (seq-stamped checkpoint blobs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterImage {
    /// session → owning backend address.
    pub pins: HashMap<SessionId, String>,
    /// session → (last-acked op sequence, checkpoint blob).
    pub shadows: HashMap<SessionId, (u64, Vec<u8>)>,
}

impl RouterImage {
    /// Applies one record (later records win, except a shadow stamped
    /// *older* than the one already held, which is dropped — see the
    /// module docs on append-order inversion).
    pub fn apply(&mut self, record: StateRecord) {
        match record {
            StateRecord::Pin { session, addr } => {
                self.pins.insert(session, addr);
            }
            StateRecord::Unpin { session } => {
                self.pins.remove(&session);
            }
            StateRecord::Shadow { session, seq, blob } => {
                if matches!(self.shadows.get(&session), Some((held, _)) if *held > seq) {
                    return;
                }
                self.shadows.insert(session, (seq, blob));
            }
        }
    }

    /// Bytes a compacted log of this image would occupy (framing
    /// included) — the live size the compaction trigger compares against.
    pub fn encoded_len(&self) -> u64 {
        let mut total = STATE_MAGIC.len() as u64;
        for addr in self.pins.values() {
            total += sealed_len(MIN_BODY_BYTES + addr.len());
        }
        for (_, blob) in self.shadows.values() {
            total += sealed_len(MIN_BODY_BYTES + 8 + blob.len());
        }
        total
    }

    /// Serializes the image as a fresh, minimal log (magic + one record
    /// per live pin/shadow, in sorted session order for determinism).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = STATE_MAGIC.to_vec();
        let mut pins: Vec<_> = self.pins.iter().collect();
        pins.sort_by_key(|(session, _)| **session);
        for (session, addr) in pins {
            out.extend_from_slice(&encode_pin(*session, addr));
        }
        let mut shadows: Vec<_> = self.shadows.iter().collect();
        shadows.sort_by_key(|(session, _)| **session);
        for (session, (seq, blob)) in shadows {
            out.extend_from_slice(&encode_shadow(*session, *seq, blob));
        }
        out
    }
}

/// Replays a whole log image (magic + records) into a [`RouterImage`],
/// stopping at the first record that fails to decode; the [`Scan`] says
/// where the clean prefix ends and why replay stopped.
///
/// # Errors
///
/// The header check's [`RecordError`].
pub fn decode_state(bytes: &[u8]) -> Result<(RouterImage, Scan<StateError>), RecordError> {
    let mut image = RouterImage::default();
    let scan = scan(bytes, &STATE_FORMAT, replay(&mut image))?;
    Ok((image, scan))
}

/// A scan visitor applying each record body to `image`.
fn replay(image: &mut RouterImage) -> impl FnMut(u64, &[u8]) -> Result<(), StateError> + '_ {
    |_, body| {
        image.apply(decode_body(body)?);
        Ok(())
    }
}

/// Counters the state log keeps about itself, surfaced through the
/// router's observation under `route.state_*` names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateLogCounters {
    /// Records appended since open.
    pub appends: u64,
    /// Bytes appended since open (framing included).
    pub append_bytes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Bytes truncated off the tail at open (0 for a clean log).
    pub truncated_bytes: u64,
    /// 1 if open stopped at a damaged record, not a plain torn tail.
    pub decode_rejects: u64,
}

impl StateLogCounters {
    /// Every counter by field name, in field order (observed as
    /// `route.state_*`).
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("appends", self.appends),
            ("append_bytes", self.append_bytes),
            ("compactions", self.compactions),
            ("truncated_bytes", self.truncated_bytes),
            ("decode_rejects", self.decode_rejects),
        ]
    }
}

/// The CHAMRTE1 log at `dir/ROUTER.log`: a [`RecordLog`] plus the
/// router's compaction policy. Appends are durable before they return —
/// an acked pin or shadow survives a SIGKILL of the router process, the
/// same bar the session store sets.
#[derive(Debug)]
pub struct StateLog {
    log: RecordLog,
    counters: StateLogCounters,
}

/// Compaction triggers once the log is both past this floor and more
/// than four times its live size — small logs are never worth rewriting.
const COMPACT_FLOOR_BYTES: u64 = 1024 * 1024;

impl StateLog {
    /// Opens (creating if needed) `dir/ROUTER.log`, replays it, truncates
    /// any torn or damaged tail, and returns the log plus the recovered
    /// image.
    ///
    /// # Errors
    ///
    /// I/O errors, or a file whose header is not CHAMRTE1 (refused
    /// rather than clobbered).
    pub fn open(dir: &Path) -> std::io::Result<(Self, RouterImage)> {
        let mut image = RouterImage::default();
        let path = dir.join("ROUTER.log");
        let (log, scan) = RecordLog::open(&path, &STATE_FORMAT, true, replay(&mut image))?;
        let counters = StateLogCounters {
            truncated_bytes: scan.truncated_bytes,
            decode_rejects: scan.rejects,
            ..StateLogCounters::default()
        };
        Ok((Self { log, counters }, image))
    }

    /// Appends one sealed record durably, or returns the write or fsync
    /// error.
    pub fn append(&mut self, sealed: &[u8]) -> std::io::Result<()> {
        self.log.append(sealed)?;
        self.counters.appends += 1;
        self.counters.append_bytes += sealed.len() as u64;
        Ok(())
    }

    /// Whether the log has grown enough past `live` (the current image's
    /// [`RouterImage::encoded_len`]) to be worth compacting.
    pub fn wants_compaction(&self, live: u64) -> bool {
        let bytes = self.log.size();
        bytes > COMPACT_FLOOR_BYTES && bytes > live.saturating_mul(4)
    }

    /// Atomically replaces the log with `image`'s minimal form, or
    /// returns the I/O error: the log is untouched before the rename, and
    /// appends go to the compacted file after it.
    pub fn compact(&mut self, image: &RouterImage) -> std::io::Result<()> {
        self.log.rewrite(&image.encode())?;
        self.counters.compactions += 1;
        Ok(())
    }

    /// Snapshot of the log's self-counters.
    pub fn counters(&self) -> StateLogCounters {
        self.counters
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.log.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_lists_every_field() {
        // Every counter is 8 bytes wide, so a field missing from the
        // list shows up as a size mismatch.
        assert_eq!(
            std::mem::size_of::<StateLogCounters>(),
            8 * StateLogCounters::default().named().len()
        );
    }

    #[test]
    fn records_roundtrip() {
        let cases = [
            (
                encode_pin(42, "10.0.0.1:9000"),
                StateRecord::Pin {
                    session: 42,
                    addr: "10.0.0.1:9000".to_string(),
                },
            ),
            (encode_unpin(42), StateRecord::Unpin { session: 42 }),
            (
                encode_shadow(42, 17, &[1, 2, 3, 4, 5]),
                StateRecord::Shadow {
                    session: 42,
                    seq: 17,
                    blob: vec![1, 2, 3, 4, 5],
                },
            ),
        ];
        for (framed, record) in &cases {
            let (decoded, used) = decode_state_record(framed).expect("roundtrip");
            assert_eq!(&decoded, record);
            assert_eq!(used, framed.len());
        }
    }

    #[test]
    fn sealed_bodies_the_codec_cannot_parse_are_typed_errors() {
        let sealed = |body: &[u8]| seal_record(body.len(), |out| out.extend_from_slice(body));
        let mut body = vec![0x7F];
        body.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(
            decode_state_record(&sealed(&body)),
            Err(StateError::BadOp { op: 0x7F })
        );
        body[0] = OP_PIN;
        body.push(0xFF);
        assert_eq!(
            decode_state_record(&sealed(&body)),
            Err(StateError::BadUtf8)
        );
        body[0] = OP_UNPIN;
        assert_eq!(
            decode_state_record(&sealed(&body)),
            Err(StateError::Record(RecordError::BadLength { len: 10 }))
        );
        body[0] = OP_SHADOW;
        assert_eq!(
            decode_state_record(&sealed(&body)),
            Err(StateError::Record(RecordError::BadLength { len: 10 }))
        );
    }

    #[test]
    fn image_roundtrips_through_encode_decode() {
        let mut image = RouterImage::default();
        image.pins.insert(7, "127.0.0.1:7411".to_string());
        image.pins.insert(3, "127.0.0.1:7412".to_string());
        image.shadows.insert(7, (4, vec![0xAB; 96]));
        let (decoded, scan) = decode_state(&image.encode()).expect("valid log");
        assert_eq!(decoded, image);
        assert_eq!(scan.damage, None);
        assert_eq!(scan.clean_len, image.encoded_len());
    }

    #[test]
    fn shadow_replay_keeps_the_highest_sequence_stamp() {
        // Appends race outside the shadows lock, so a log can hold a
        // newer-stamped shadow *before* an older one. Replay must keep
        // the max-seq record, not the last.
        let mut log = STATE_MAGIC.to_vec();
        log.extend_from_slice(&encode_shadow(5, 8, &[8u8; 16]));
        log.extend_from_slice(&encode_shadow(5, 7, &[7u8; 16]));
        let (image, scan) = decode_state(&log).expect("valid log");
        assert_eq!(scan.damage, None);
        assert_eq!(image.shadows.get(&5), Some(&(8, vec![8u8; 16])));
        // Equal stamps keep last-record-wins (both reflect the same op).
        let mut log = STATE_MAGIC.to_vec();
        log.extend_from_slice(&encode_shadow(5, 8, &[1u8; 16]));
        log.extend_from_slice(&encode_shadow(5, 8, &[2u8; 16]));
        let (image, _) = decode_state(&log).expect("valid log");
        assert_eq!(image.shadows.get(&5), Some(&(8, vec![2u8; 16])));
    }
}
