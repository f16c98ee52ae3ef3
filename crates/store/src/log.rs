//! [`RecordLog`]: the one CRC-framed, append-only record log behind both
//! durable logs in the workspace — `CHAMSEG1` session segments and the
//! `CHAMRTE1` router-state log (DESIGN.md §12). A log is an 8-byte magic,
//! then records `len:u32 LE | body | crc32(body):u32 LE`; a [`LogFormat`]
//! names the magic and the smallest body its codec parses.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use chameleon_replay::crc32;

/// Bytes a record adds around its body: length prefix + CRC trailer.
pub const RECORD_FRAME_BYTES: usize = 4 + 4;

/// Upper bound on one record body. Checkpoints are a few hundred KiB;
/// 64 MiB leaves two orders of magnitude headroom while keeping a corrupt
/// length prefix from driving a giant allocation.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// One record-log format: its file magic and the smallest body its codec
/// accepts (a shorter length prefix is [`RecordError::BadLength`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogFormat {
    /// Magic bytes opening every log file of this format.
    pub magic: &'static [u8; 8],
    /// Smallest well-formed body, in bytes.
    pub min_body: usize,
}

/// Typed decode failures for log headers and records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than the structure requires (torn tail, short read).
    Truncated,
    /// The file does not open with its format's magic.
    BadMagic,
    /// Length prefix exceeds [`MAX_RECORD_BYTES`] — rejected before any
    /// allocation is sized by it.
    Oversized {
        /// The hostile length prefix.
        len: u64,
        /// The cap it violated.
        max: u64,
    },
    /// Body length impossible for the format: below its minimum, or
    /// wrong for the layout the body declares.
    BadLength {
        /// The impossible body length.
        len: u64,
    },
    /// Body bytes do not match the CRC trailer.
    BadChecksum {
        /// CRC computed over the body as read.
        found: u32,
        /// CRC recorded in the trailer.
        expected: u32,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "log record truncated"),
            Self::BadMagic => write!(f, "log magic mismatch"),
            Self::Oversized { len, max } => write!(f, "record length {len} exceeds cap {max}"),
            Self::BadLength { len } => write!(f, "record body length {len} wrong for its format"),
            Self::BadChecksum { found, expected } => {
                write!(
                    f,
                    "record checksum {found:#010x} != sealed {expected:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// On-disk size of a record whose body is `body_len` bytes.
pub const fn sealed_len(body_len: usize) -> u64 {
    (RECORD_FRAME_BYTES + body_len) as u64
}

/// Seals one record in a single allocation: `fill` writes exactly
/// `body_len` body bytes behind the length prefix, then the CRC trailer
/// is appended over them.
///
/// # Panics
/// If `body_len` exceeds [`MAX_RECORD_BYTES`] (callers control body
/// sizes and never approach it) or `fill` writes a different length.
pub fn seal_record(body_len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    assert!(body_len <= MAX_RECORD_BYTES, "record body over cap");
    let mut out = Vec::with_capacity(RECORD_FRAME_BYTES + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    fill(&mut out);
    assert_eq!(out.len(), 4 + body_len, "record body length mismatch");
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verifies the record at the front of `bytes`, returning its body and
/// the bytes the whole record occupies.
///
/// # Errors
/// In precedence order: `Truncated` for a cut length prefix, `Oversized`
/// past the cap, `BadLength` under `min_body`, `Truncated` for a cut
/// record, `BadChecksum` for a broken seal. A hostile length prefix
/// therefore never sizes a slice or allocation, and every cut of a valid
/// record is `Truncated` — the property torn-tail recovery rests on.
pub fn unseal_record(bytes: &[u8], min_body: usize) -> Result<(&[u8], usize), RecordError> {
    let Some(prefix) = bytes.get(..4) else {
        return Err(RecordError::Truncated);
    };
    let len = u64::from(u32::from_le_bytes(prefix.try_into().expect("4 bytes")));
    let max = MAX_RECORD_BYTES as u64;
    if len > max {
        return Err(RecordError::Oversized { len, max });
    }
    if len < min_body as u64 {
        return Err(RecordError::BadLength { len });
    }
    let len = len as usize;
    let total = RECORD_FRAME_BYTES + len;
    if bytes.len() < total {
        return Err(RecordError::Truncated);
    }
    let body = &bytes[4..4 + len];
    let expected = u32::from_le_bytes(bytes[4 + len..total].try_into().expect("4 bytes"));
    let found = crc32(body);
    if found != expected {
        return Err(RecordError::BadChecksum { found, expected });
    }
    Ok((body, total))
}

/// Checks that `bytes` opens with `magic`: `Truncated` for a strict
/// prefix of it (a header torn during creation), else `BadMagic`.
pub(crate) fn check_header(bytes: &[u8], magic: &[u8; 8]) -> Result<(), RecordError> {
    let head = bytes.len().min(magic.len());
    if bytes[..head] != magic[..head] {
        return Err(RecordError::BadMagic);
    }
    if head < magic.len() {
        return Err(RecordError::Truncated);
    }
    Ok(())
}

/// What a scan of a log's bytes found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scan<E> {
    /// Bytes of the clean prefix: the header plus every accepted record.
    pub clean_len: u64,
    /// Why the scan stopped early: `Truncated` (torn tail) or damage.
    pub damage: Option<E>,
    /// 1 if the scan stopped at damage, not a torn tail (0 otherwise).
    pub rejects: u64,
    /// Bytes past the clean prefix (what open truncates away).
    pub truncated_bytes: u64,
}

/// Checks the header, then hands each sealed record's offset and body to
/// `visit`, stopping at the first record that fails to unseal or that
/// `visit` rejects. Pure — no I/O.
///
/// # Errors
/// The header check's failure: `Truncated` for a strict prefix of the
/// magic, `BadMagic` for anything else that is not it.
pub fn scan<E: From<RecordError>>(
    bytes: &[u8],
    format: &LogFormat,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<Scan<E>, RecordError> {
    check_header(bytes, format.magic)?;
    let mut offset = format.magic.len();
    let (mut damage, mut rejects) = (None, 0);
    while offset < bytes.len() {
        let (error, rejected) = match unseal_record(&bytes[offset..], format.min_body) {
            Ok((body, used)) => match visit(offset as u64, body) {
                Ok(()) => {
                    offset += used;
                    continue;
                }
                Err(error) => (error, true),
            },
            Err(error) => {
                let rejected = error != RecordError::Truncated;
                (error.into(), rejected)
            }
        };
        damage = Some(error);
        rejects = u64::from(rejected);
        break;
    }
    Ok(Scan {
        clean_len: offset as u64,
        damage,
        rejects,
        truncated_bytes: (bytes.len() - offset) as u64,
    })
}

/// The temp sibling a rewrite of `path` goes through (`.NAME.tmp`).
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(".{name}.tmp"))
}

/// Atomically replaces `path` with `bytes`: temp sibling, fsync, rename,
/// directory fsync. `renamed` gets the written handle as soon as the
/// rename has made it the file at `path`, even if the directory fsync
/// then fails. Before the rename, `path` is untouched.
///
/// # Errors
/// The first failing I/O step.
pub(crate) fn replace_file(
    path: &Path,
    bytes: &[u8],
    renamed: impl FnOnce(File),
) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    fs::rename(&tmp, path)?;
    renamed(file);
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// An open record log: the handle appends go through and its size.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
    size: u64,
}

impl RecordLog {
    /// Creates (or empties) the log at `path`, its magic fsynced before
    /// this returns (or the I/O error), so the file may be referenced as
    /// soon as it exists.
    pub(crate) fn create(path: &Path, magic: &[u8; 8]) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(magic)?;
        file.sync_data()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            size: magic.len() as u64,
        })
    }

    /// Opens the log at `path` (with `create`, creating it and its
    /// directory if missing) and [`scan`]s it through `visit`, truncating
    /// a torn or damaged tail. A header torn during creation (a strict
    /// prefix of the magic, or an empty file) is restarted; a stale
    /// rewrite temp is removed.
    ///
    /// # Errors
    /// I/O failures, or `InvalidData` wrapping [`RecordError::BadMagic`]
    /// for a file of another format (refused, never clobbered).
    pub fn open<E: From<RecordError>>(
        path: &Path,
        format: &LogFormat,
        create: bool,
        visit: impl FnMut(u64, &[u8]) -> Result<(), E>,
    ) -> io::Result<(Self, Scan<E>)> {
        if let Some(dir) = path.parent().filter(|_| create) {
            fs::create_dir_all(dir)?;
        }
        let _ = fs::remove_file(tmp_path(path));
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = match scan(&bytes, format, visit) {
            Ok(scan) => {
                if scan.truncated_bytes > 0 {
                    file.set_len(scan.clean_len)?;
                    file.sync_data()?;
                }
                scan
            }
            Err(RecordError::Truncated) => {
                file.set_len(0)?;
                file.write_all(format.magic)?;
                file.sync_data()?;
                Scan {
                    clean_len: format.magic.len() as u64,
                    damage: (!bytes.is_empty()).then(|| RecordError::Truncated.into()),
                    rejects: 0,
                    truncated_bytes: bytes.len() as u64,
                }
            }
            Err(error) => return Err(io::Error::new(io::ErrorKind::InvalidData, error)),
        };
        let path = path.to_path_buf();
        let size = scan.clean_len;
        Ok((Self { file, path, size }, scan))
    }

    /// Writes sealed record bytes at the end of the log without syncing
    /// (or returns the write error).
    pub(crate) fn write(&mut self, sealed: &[u8]) -> io::Result<()> {
        self.file.write_all(sealed)?;
        self.size += sealed.len() as u64;
        Ok(())
    }

    /// Fsyncs everything written so far (`sync_data`), or returns the
    /// fsync error.
    pub(crate) fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Appends sealed record bytes durably: written and fsynced before
    /// this returns `Ok`.
    pub fn append(&mut self, sealed: &[u8]) -> io::Result<()> {
        self.write(sealed)?;
        self.sync()
    }

    /// Atomically replaces the whole log with `image` (magic included):
    /// temp sibling, fsync, rename, directory fsync. The log takes the new
    /// file's handle at the rename, so later appends never go to the
    /// unlinked old file.
    ///
    /// # Errors
    /// The first failing I/O step.
    pub fn rewrite(&mut self, image: &[u8]) -> io::Result<()> {
        replace_file(&self.path, image, |file| {
            self.file = file;
            self.size = image.len() as u64;
        })
    }

    /// Current size in bytes, header included.
    pub fn size(&self) -> u64 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two production shapes, as inputs to every framing test: a
    /// CHAMSEG1 record (session + seq header) and a CHAMRTE1 shadow
    /// record (op + session + seq + blob).
    const FORMATS: [LogFormat; 2] = [
        LogFormat {
            magic: b"CHAMSEG1",
            min_body: 16,
        },
        LogFormat {
            magic: b"CHAMRTE1",
            min_body: 9,
        },
    ];

    fn sample(format: &LogFormat, tag: u8) -> Vec<u8> {
        let body = vec![tag; format.min_body + 33];
        seal_record(body.len(), |out| out.extend_from_slice(&body))
    }

    fn log_of(format: &LogFormat, records: &[Vec<u8>]) -> Vec<u8> {
        let mut log = format.magic.to_vec();
        records.iter().for_each(|r| log.extend_from_slice(r));
        log
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("record-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn no_visit(_: u64, _: &[u8]) -> Result<(), RecordError> {
        Ok(())
    }

    #[test]
    fn every_truncation_is_truncated() {
        // The invariant torn-tail recovery rests on: any prefix of a
        // valid record decodes to Truncated, never to a scarier error.
        for format in &FORMATS {
            let record = sample(format, 7);
            assert_eq!(
                unseal_record(&record, format.min_body).expect("valid").1,
                record.len()
            );
            for cut in 0..record.len() {
                assert_eq!(
                    unseal_record(&record[..cut], format.min_body),
                    Err(RecordError::Truncated),
                    "{format:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        for format in &FORMATS {
            for len in [MAX_RECORD_BYTES as u32 + 1, u32::MAX] {
                let mut bytes = len.to_le_bytes().to_vec();
                bytes.extend_from_slice(&[0u8; 32]);
                assert!(matches!(
                    unseal_record(&bytes, format.min_body),
                    Err(RecordError::Oversized { .. })
                ));
            }
        }
    }

    #[test]
    fn undersized_prefix_is_bad_length_before_truncation() {
        // The minimum body is checked before truncation: a record whose
        // length prefix is impossible is damage even when it is also cut.
        for format in &FORMATS {
            for len in 0..format.min_body as u32 {
                for trailing in [0, 3, 64] {
                    let mut bytes = len.to_le_bytes().to_vec();
                    bytes.resize(4 + trailing, 0);
                    assert_eq!(
                        unseal_record(&bytes, format.min_body),
                        Err(RecordError::BadLength { len: len.into() })
                    );
                }
            }
        }
    }

    #[test]
    fn flipped_body_bit_is_a_checksum_error() {
        for format in &FORMATS {
            let mut record = sample(format, 4);
            let i = record.len() / 2;
            record[i] ^= 0x10;
            assert!(matches!(
                unseal_record(&record, format.min_body),
                Err(RecordError::BadChecksum { .. })
            ));
        }
    }

    #[test]
    fn header_check_accepts_magic_and_rejects_noise() {
        for format in &FORMATS {
            assert!(check_header(&log_of(format, &[sample(format, 1)]), format.magic).is_ok());
            assert_eq!(
                check_header(&format.magic[..4], format.magic),
                Err(RecordError::Truncated)
            );
            assert_eq!(
                check_header(b"CHAMWIRE", format.magic),
                Err(RecordError::BadMagic)
            );
            assert_eq!(
                check_header(b"XY", format.magic),
                Err(RecordError::BadMagic)
            );
        }
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_damaged_record() {
        for format in &FORMATS {
            let records = [sample(format, 1), sample(format, 2), sample(format, 3)];
            let mut log = log_of(format, &records);
            let clean = format.magic.len() + records[0].len();
            log[clean + 6] ^= 0x10; // inside the second record's body
            let scan = scan(&log, format, no_visit).expect("magic intact");
            assert_eq!(scan.clean_len, clean as u64);
            assert_eq!(scan.truncated_bytes, (log.len() - clean) as u64);
            assert!(matches!(scan.damage, Some(RecordError::BadChecksum { .. })));
            assert_eq!(scan.rejects, 1);
        }
    }

    #[test]
    fn torn_tail_stops_the_scan_without_a_reject() {
        for format in &FORMATS {
            let records = [sample(format, 1), sample(format, 2)];
            let log = log_of(format, &records);
            let torn = &log[..log.len() - 5];
            let scan = scan(torn, format, no_visit).expect("magic intact");
            assert_eq!(
                scan.clean_len,
                (format.magic.len() + records[0].len()) as u64
            );
            assert_eq!(scan.damage, Some(RecordError::Truncated));
            assert_eq!(scan.rejects, 0);
        }
    }

    #[test]
    fn a_body_the_codec_rejects_is_damage() {
        let format = &FORMATS[1];
        let first = sample(format, 1);
        let log = log_of(format, &[first.clone(), sample(format, 2)]);
        let scan = scan(&log, format, |_, body| match body[0] {
            2 => Err(RecordError::BadLength { len: 0 }),
            _ => Ok(()),
        })
        .expect("magic intact");
        assert_eq!(scan.clean_len, (format.magic.len() + first.len()) as u64);
        assert_eq!(scan.rejects, 1);
    }

    #[test]
    fn open_truncates_torn_tail_and_restarts_torn_header() {
        let dir = scratch("open");
        let format = &FORMATS[0];
        let path = dir.join("log");
        let records = [sample(format, 1), sample(format, 2)];
        let mut bytes = log_of(format, &records);
        bytes.extend_from_slice(&records[0][..11]);
        fs::write(&path, &bytes).expect("write");
        let mut visits = 0;
        let visit = |_, _: &[u8]| {
            visits += 1;
            Ok::<(), RecordError>(())
        };
        let (log, scan) = RecordLog::open(&path, format, false, visit).expect("open");
        assert_eq!((visits, scan.truncated_bytes, scan.rejects), (2, 11, 0));
        assert_eq!(log.size(), (bytes.len() - 11) as u64);
        assert_eq!(fs::metadata(&path).expect("stat").len(), log.size());

        fs::write(&path, &format.magic[..3]).expect("torn header");
        let (log, scan) = RecordLog::open(&path, format, false, no_visit).expect("open");
        assert_eq!((scan.truncated_bytes, log.size()), (3, 8));
        assert_eq!(fs::read(&path).expect("read"), format.magic);

        fs::write(&path, b"CHAMWIRE").expect("foreign");
        assert_eq!(
            RecordLog::open(&path, format, false, no_visit)
                .expect_err("foreign magic")
                .kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(fs::read(&path).expect("read"), b"CHAMWIRE");
        let missing = RecordLog::open(&dir.join("missing"), format, false, no_visit);
        assert_eq!(missing.expect_err("absent").kind(), io::ErrorKind::NotFound);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_keeps_the_handle_it_wrote() {
        let dir = scratch("rewrite");
        let format = &FORMATS[1];
        let path = dir.join("nested").join("log");
        let (mut log, _) = RecordLog::open(&path, format, true, no_visit).expect("create");
        log.append(&sample(format, 1)).expect("append");
        log.rewrite(&log_of(format, &[sample(format, 2)]))
            .expect("rewrite");
        log.append(&sample(format, 3))
            .expect("append after rewrite");
        fs::write(tmp_path(&path), b"stale").expect("stale temp");
        drop(log);
        let mut tags = Vec::new();
        let (_, scan) = RecordLog::open(&path, format, false, |_, body: &[u8]| {
            tags.push(body[0]);
            Ok::<(), RecordError>(())
        })
        .expect("reopen");
        assert_eq!(tags, [2, 3]);
        assert_eq!(scan.truncated_bytes, 0);
        assert!(!tmp_path(&path).exists(), "stale temp survived open");
        let _ = fs::remove_dir_all(&dir);
    }
}
