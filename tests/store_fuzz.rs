//! Record-log codec fuzzer: corrupt, truncated, and oversized records
//! must produce typed [`RecordError`]s — never a panic, and never an
//! allocation sized by a hostile length prefix.
//!
//! Mirrors `tests/wire_fuzz.rs` for the shared on-disk framing:
//! structured single-bit/byte mutations at every offset, plus the
//! `chameleon-faults` file damage model (torn tails + tail bit flips)
//! applied to encoded records, so the segment codec is fuzzed by the
//! same machinery the store's crash schedules use. The truncation,
//! bit-flip and garbage properties also decode `CHAMRTE1` router-state
//! records, the log's other format.

use chameleon_faults::{FaultInjector, FaultPlan, FileFaultModel};
use chameleon_route::state::{
    decode_state, decode_state_record, encode_shadow, StateError, StateRecord, STATE_MAGIC,
};
use chameleon_store::{
    check_segment_header, decode_record, encode_record, RecordError, MAX_RECORD_BYTES,
    RECORD_FRAME_BYTES, RECORD_HEADER_BYTES, SEGMENT_MAGIC,
};
use proptest::prelude::*;

/// A fault plan that only damages file tails (here: encoded records).
fn tail_damage_plan(seed: u64) -> FaultPlan {
    FaultPlan::file_faults(
        seed,
        FileFaultModel {
            torn_write_prob: 0.5,
            partial_fsync_prob: 0.0,
            short_read_prob: 0.0,
            bit_flip_prob: 0.8,
        },
    )
}

proptest! {
    #[test]
    fn record_roundtrip_is_identity(
        session in 0u64..u64::MAX,
        seq in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let encoded = encode_record(session, seq, &payload);
        prop_assert_eq!(
            encoded.len(),
            RECORD_FRAME_BYTES + RECORD_HEADER_BYTES + payload.len()
        );
        let (record, used) = decode_record(&encoded).expect("roundtrip");
        prop_assert_eq!(record.session, session);
        prop_assert_eq!(record.seq, seq);
        prop_assert_eq!(&record.payload, &payload);
        prop_assert_eq!(used, encoded.len());
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error(
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let encoded = encode_record(session, seq, &payload);
        for cut in 0..encoded.len() {
            let err = decode_record(&encoded[..cut]).unwrap_err();
            // Every cut of an intact record means "wait for more bytes":
            // the length prefix itself is valid, so nothing but
            // Truncated may surface. Anything else would misread
            // intact bytes (and break torn-tail recovery, which leans
            // on this distinction).
            prop_assert!(matches!(err, RecordError::Truncated),
                "cut {} gave {:?}", cut, err);
        }
        let shadow = encode_shadow(session, seq, &payload);
        for cut in 0..shadow.len() {
            let err = decode_state_record(&shadow[..cut]).unwrap_err();
            prop_assert!(matches!(err, StateError::Record(RecordError::Truncated)),
                "CHAMRTE1 cut {} gave {:?}", cut, err);
        }
    }

    #[test]
    fn single_bit_flip_never_decodes_to_the_original(
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 0..64),
        byte_frac in 0.0f64..1.0,
        bit in 0u64..8,
    ) {
        let encoded = encode_record(session, seq, &payload);
        let index = ((byte_frac * encoded.len() as f64) as usize).min(encoded.len() - 1);
        let mut mutated = encoded.clone();
        mutated[index] ^= 1u8 << bit;
        match decode_record(&mutated) {
            // CRC32 detects all single-bit body/trailer errors; length
            // damage is caught structurally (Truncated / Oversized /
            // BadLength) or by the CRC over the re-sliced body.
            Ok((record, _)) => prop_assert!(
                record.session != session || record.seq != seq || record.payload != payload,
                "flipped record decoded to the original"
            ),
            Err(
                RecordError::Truncated
                | RecordError::Oversized { .. }
                | RecordError::BadLength { .. }
                | RecordError::BadChecksum { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
        // The same flip on a CHAMRTE1 record: the seal catches it before
        // the router's body codec ever sees the bytes.
        let shadow = encode_shadow(session, seq, &payload);
        let index = ((byte_frac * shadow.len() as f64) as usize).min(shadow.len() - 1);
        let mut mutated = shadow.clone();
        mutated[index] ^= 1u8 << bit;
        match decode_state_record(&mutated) {
            Ok((record, _)) => prop_assert!(
                record != StateRecord::Shadow { session, seq, blob: payload.clone() },
                "flipped CHAMRTE1 record decoded to the original"
            ),
            Err(StateError::Record(_)) => {}
            Err(other) => prop_assert!(false, "unexpected CHAMRTE1 error {:?}", other),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation(
        len in (MAX_RECORD_BYTES as u64 + 1..=u32::MAX as u64),
        noise in prop::collection::vec(0u8..=255, 0..16),
    ) {
        // Hostile length prefix with a few noise bytes behind it. If
        // decode sized a buffer from the prefix this test would OOM
        // long before failing an assertion.
        let mut bytes = (len as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&noise);
        let err = decode_record(&bytes).unwrap_err();
        prop_assert!(matches!(err, RecordError::Oversized { .. }), "{:?}", err);
    }

    #[test]
    fn undersized_length_prefix_is_a_typed_error(
        len in 0u32..(RECORD_HEADER_BYTES as u32),
        noise in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // A body shorter than the session+seq header cannot be a record.
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&noise);
        let err = decode_record(&bytes).unwrap_err();
        prop_assert!(matches!(err, RecordError::BadLength { .. }), "{:?}", err);
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..96),
    ) {
        // Any outcome is fine — typed error or a successful decode of
        // accidentally self-describing bytes — as long as nothing
        // panics and no attacker-sized allocation happens.
        let _ = decode_record(&bytes);
        let _ = check_segment_header(&bytes);
        let _ = decode_state_record(&bytes);
        let _ = decode_state(&bytes);
        let _ = decode_state(&[&STATE_MAGIC[..], &bytes].concat());
    }

    #[test]
    fn fault_injected_tail_damage_is_detected(
        seed in 0u64..10_000,
        session in 0u64..1_000,
        seq in 0u64..1_000,
        payload in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let encoded = encode_record(session, seq, &payload);
        let mut injector = FaultInjector::new(tail_damage_plan(seed));
        let mut damaged = encoded.clone();
        let _ = injector.crash_damage(&mut damaged);

        if damaged == encoded {
            let (record, _) = decode_record(&damaged).expect("intact record");
            prop_assert_eq!(record.payload, payload);
        } else {
            // Torn or flipped: the decoder must refuse it — this is the
            // exact property the store's open-time torn-tail scan
            // relies on to find the last sealed record.
            prop_assert!(decode_record(&damaged).is_err());
        }
    }
}

/// Deterministic exhaustive sweep alongside the randomized cases: every
/// single-byte truncation and every single-bit XOR of a realistic
/// sealed record, plus the segment header gate.
#[test]
fn exhaustive_single_byte_damage_on_a_real_record() {
    let payload: Vec<u8> = (0u8..32).collect();
    let encoded = encode_record(42, 7, &payload);
    for cut in 0..encoded.len() {
        assert_eq!(
            decode_record(&encoded[..cut]).unwrap_err(),
            RecordError::Truncated,
            "cut {cut}"
        );
    }
    for index in 0..encoded.len() {
        for bit in 0..8u8 {
            let mut mutated = encoded.clone();
            mutated[index] ^= 1 << bit;
            if let Ok((record, _)) = decode_record(&mutated) {
                assert!(
                    record.session != 42 || record.seq != 7 || record.payload != payload,
                    "index {index} bit {bit} decoded to the original"
                );
            }
        }
    }

    assert!(check_segment_header(SEGMENT_MAGIC).is_ok());
    assert_eq!(
        check_segment_header(&SEGMENT_MAGIC[..7]).unwrap_err(),
        RecordError::Truncated
    );
    let mut wrong = *SEGMENT_MAGIC;
    wrong[7] ^= 1;
    assert_eq!(
        check_segment_header(&wrong).unwrap_err(),
        RecordError::BadMagic
    );
}
