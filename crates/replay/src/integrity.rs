//! CRC32 (IEEE) checksums for sample and checkpoint integrity.
//!
//! Replay stores on an edge device live in SRAM/DRAM for the whole
//! deployment lifetime and are exposed to single-event upsets; checkpoints
//! cross a power cycle on flash. Both paths use the same 32-bit CRC so a
//! flipped bit anywhere in the protected payload is detected with
//! probability `1 - 2^-32`.

/// Generates the slice-by-8 tables at compile time. `TABLES[0]` is the
/// classic reflected byte table; `TABLES[k][i]` advances `TABLES[k - 1][i]`
/// by one more zero byte, so eight lookups fold eight input bytes into the
/// state at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = crc32_tables();

/// Folds eight input bytes into `crc`: `lo` holds bytes 0–3 and `hi` bytes
/// 4–7, each read little-endian.
#[inline]
fn fold8(crc: u32, lo: u32, hi: u32) -> u32 {
    let t = &TABLES;
    let lo = crc ^ lo;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Folds the bytes one at a time (the tail after the 8-byte steps).
fn fold_bytes(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Streaming CRC32 hasher (IEEE polynomial, reflected).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds bytes into the checksum: eight bytes per step through the
    /// slice-by-8 tables, then byte by byte over the tail.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        let mut crc = self.state;
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = fold8(crc, lo, hi);
        }
        self.state = fold_bytes(crc, chunks.remainder());
    }

    /// Feeds the little-endian bytes of every value — the same checksum as
    /// `update(&v.to_le_bytes())` per value — two values per slice-by-8
    /// step.
    pub fn update_f32s(&mut self, values: &[f32]) {
        let mut pairs = values.chunks_exact(2);
        let mut crc = self.state;
        for p in &mut pairs {
            crc = fold8(crc, p[0].to_bits(), p[1].to_bits());
        }
        for v in pairs.remainder() {
            crc = fold_bytes(crc, &v.to_le_bytes());
        }
        self.state = crc;
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Reference values for the IEEE CRC32 ("crc32" in zlib/python).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Crc32::new();
        h.update(b"1234");
        h.update(b"56789");
        assert_eq!(h.finish(), crc32(b"123456789"));
    }

    /// The plain one-byte-per-step loop over one table: the reference
    /// the slice-by-8 path must reproduce bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in bytes {
            let idx = ((state ^ u32::from(b)) & 0xFF) as usize;
            state = (state >> 8) ^ TABLES[0][idx];
        }
        !state
    }

    #[test]
    fn slice_by_8_equals_bytewise_at_every_length_and_split() {
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let reference = crc32_bytewise(bytes);
            assert_eq!(crc32(bytes), reference, "one shot, len {len}");
            for split in 0..=len {
                let mut h = Crc32::new();
                h.update(&bytes[..split]);
                h.update(&bytes[split..]);
                assert_eq!(h.finish(), reference, "len {len} split at {split}");
            }
        }
    }

    #[test]
    fn update_f32s_equals_per_value_le_bytes() {
        let mut values = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFFA0_0001),
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x807F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            -1.5,
        ];
        values.extend((0..150u32).map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9))));
        // A prefix of 1 or 3 bytes puts the values off the 8-byte grid.
        for prefix in [&[][..], &[0xA5][..], &[1, 2, 3][..]] {
            for len in 0..=values.len() {
                let mut per_value = Crc32::new();
                per_value.update(prefix);
                for v in &values[..len] {
                    per_value.update(&v.to_bits().to_le_bytes());
                }
                let mut bulk = Crc32::new();
                bulk.update(prefix);
                bulk.update_f32s(&values[..len]);
                assert_eq!(
                    bulk.finish(),
                    per_value.finish(),
                    "prefix {prefix:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let base = vec![0u8; 64];
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }
}
