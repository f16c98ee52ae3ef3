//! File-level tests of the CHAMRTE1 state log: recovery on open, torn
//! headers, compaction, and mid-log damage. Framing itself is the shared
//! record log's and is tested there (`chameleon-store`,
//! `tests/store_fuzz.rs`).

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

use chameleon_route::state::{encode_pin, encode_shadow, RouterImage, StateLog, STATE_MAGIC};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chamrte1-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn open_truncates_torn_tail_and_recovers_clean_prefix() {
    let dir = scratch("torn-tail");
    {
        let (mut log, image) = StateLog::open(&dir).expect("fresh open");
        assert_eq!(image, RouterImage::default());
        log.append(&encode_pin(5, "127.0.0.1:7411"))
            .expect("append");
        log.append(&encode_shadow(5, 2, &[9u8; 40]))
            .expect("append");
    }
    // Crash mid-append: garbage half-record at the tail.
    let mut file = OpenOptions::new()
        .append(true)
        .open(dir.join("ROUTER.log"))
        .expect("reopen");
    file.write_all(&[0x55; 7]).expect("tear");
    drop(file);
    let (log, image) = StateLog::open(&dir).expect("recovering open");
    assert_eq!(log.counters().truncated_bytes, 7);
    assert_eq!(
        image.pins.get(&5).map(String::as_str),
        Some("127.0.0.1:7411")
    );
    assert_eq!(image.shadows.get(&5), Some(&(2, vec![9u8; 40])));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn open_recovers_from_a_torn_initial_header() {
    // A crash during creation can leave fewer than 8 magic bytes. Open
    // must restart the header — appending after a partial magic would
    // make every later open fail with BadMagic forever.
    let dir = scratch("torn-head");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("ROUTER.log"), &STATE_MAGIC[..3]).expect("partial header");
    {
        let (mut log, image) = StateLog::open(&dir).expect("open over torn header");
        assert_eq!(image, RouterImage::default());
        assert_eq!(log.counters().truncated_bytes, 3);
        log.append(&encode_pin(11, "127.0.0.1:7411"))
            .expect("append");
    }
    let (log, image) = StateLog::open(&dir).expect("reopen");
    assert_eq!(log.counters().truncated_bytes, 0);
    assert_eq!(
        image.pins.get(&11).map(String::as_str),
        Some("127.0.0.1:7411")
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_keeps_only_the_live_image() {
    let dir = scratch("compact");
    let (mut log, _) = StateLog::open(&dir).expect("fresh open");
    // Many superseded shadows for one session: the live image is one
    // record, the log is many.
    let mut image = RouterImage::default();
    for seq in 1..=50u64 {
        log.append(&encode_shadow(1, seq, &[seq as u8; 64]))
            .expect("append");
    }
    image.shadows.insert(1, (50, vec![50u8; 64]));
    image.pins.insert(1, "127.0.0.1:7411".to_string());
    log.append(&encode_pin(1, "127.0.0.1:7411"))
        .expect("append");
    let before = log.bytes();
    log.compact(&image).expect("compact");
    assert!(log.bytes() < before);
    assert_eq!(log.bytes(), image.encoded_len());
    drop(log);
    let (log, recovered) = StateLog::open(&dir).expect("reopen");
    assert_eq!(recovered, image);
    assert_eq!(log.counters().truncated_bytes, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn appends_after_a_compaction_survive_reopen() {
    // Compaction swaps a new file in under the log's path; appends made
    // afterwards must land in that file, not the unlinked old one.
    let dir = scratch("compact-append");
    let (mut log, _) = StateLog::open(&dir).expect("fresh open");
    let mut image = RouterImage::default();
    image.pins.insert(1, "127.0.0.1:7411".to_string());
    log.append(&encode_pin(1, "127.0.0.1:7411"))
        .expect("append");
    log.compact(&image).expect("compact");
    log.append(&encode_pin(2, "127.0.0.1:7412"))
        .expect("append");
    log.append(&encode_shadow(2, 3, &[3u8; 12]))
        .expect("append");
    drop(log);
    let (_, recovered) = StateLog::open(&dir).expect("reopen");
    assert_eq!(
        recovered.pins.get(&2).map(String::as_str),
        Some("127.0.0.1:7412")
    );
    assert_eq!(recovered.shadows.get(&2), Some(&(3, vec![3u8; 12])));
    assert_eq!(recovered.pins.len(), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn open_removes_a_stale_compaction_temp() {
    // A compaction interrupted before its rename leaves the temp sibling
    // behind; it holds nothing the log needs.
    let dir = scratch("stale-tmp");
    fs::create_dir_all(&dir).expect("mkdir");
    let tmp = dir.join(".ROUTER.log.tmp");
    fs::write(&tmp, STATE_MAGIC).expect("stale temp");
    let (_, image) = StateLog::open(&dir).expect("open");
    assert_eq!(image, RouterImage::default());
    assert!(!tmp.exists(), "stale temp survived open");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_damage_is_counted_as_a_decode_reject() {
    // A CRC-failed record in the middle of the log is damage, not a torn
    // tail: replay keeps the clean prefix and says so.
    let dir = scratch("mid-damage");
    let records = [
        encode_pin(1, "a:1"),
        encode_pin(2, "b:2"),
        encode_pin(3, "c:3"),
    ];
    {
        let (mut log, _) = StateLog::open(&dir).expect("fresh open");
        for record in &records {
            log.append(record).expect("append");
        }
    }
    let path = dir.join("ROUTER.log");
    let mut bytes = fs::read(&path).expect("read");
    let second = STATE_MAGIC.len() + records[0].len();
    bytes[second + 6] ^= 0x10; // inside the second record's body
    fs::write(&path, &bytes).expect("damage");
    let (log, image) = StateLog::open(&dir).expect("recovering open");
    assert_eq!(log.counters().decode_rejects, 1);
    assert_eq!(
        log.counters().truncated_bytes,
        (records[1].len() + records[2].len()) as u64
    );
    assert_eq!(image.pins.get(&1).map(String::as_str), Some("a:1"));
    assert_eq!(image.pins.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}
