//! The unit of replay storage.

use crate::codec::{self, CodecError, Precision};
use crate::integrity::Crc32;

/// One stored replay sample.
///
/// `features` holds whatever representation the owning method stores — raw
/// input for ER/DER/GSS, a latent activation for Latent Replay and
/// Chameleon. Optional payloads carry the extra state some baselines
/// require. Memory accounting for the tables is done with the *nominal*
/// shapes in [`chameleon_stream::shapes`], not the simulated vector sizes.
///
/// Every sample carries a CRC32 over its contents, sealed at construction
/// time. Replay stores are long-lived and exposed to memory upsets, so
/// readers can call [`StoredSample::integrity_ok`] to detect silent
/// corruption before training on a sample. Code that *legitimately* mutates
/// a sample must call [`StoredSample::reseal`] afterwards; fault injection
/// deliberately does not.
///
/// [`chameleon_stream::shapes`]: https://docs.rs/chameleon-stream
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSample {
    /// Stored representation (raw or latent, method-dependent).
    pub features: Vec<f32>,
    /// Ground-truth class label.
    pub label: usize,
    /// Teacher logits recorded at insertion time (DER).
    pub logits: Option<Vec<f32>>,
    /// Flattened gradient direction recorded at insertion time (GSS).
    pub gradient: Option<Vec<f32>>,
    /// CRC32 over the fields above, sealed at construction.
    checksum: u32,
    /// Quantized encoding of `features`, present iff the sample was
    /// stored through the latent codec. The packed bytes are the durable
    /// truth — checkpoints serialize them verbatim and restores decode
    /// `features` from them — so the dequantized floats round-trip
    /// bit-identically and the insertion-time CRC stays valid across
    /// any number of evict/restore cycles.
    packed: Option<Vec<u8>>,
}

impl StoredSample {
    fn sealed(
        features: Vec<f32>,
        label: usize,
        logits: Option<Vec<f32>>,
        gradient: Option<Vec<f32>>,
    ) -> Self {
        let mut sample = Self {
            features,
            label,
            logits,
            gradient,
            checksum: 0,
            packed: None,
        };
        sample.checksum = sample.content_checksum();
        sample
    }

    /// A latent-representation sample (Latent Replay, Chameleon).
    pub fn latent(features: Vec<f32>, label: usize) -> Self {
        Self::sealed(features, label, None, None)
    }

    /// A latent sample stored through the quantized codec: `features`
    /// are encoded at `precision`, the packed bytes are kept, and the
    /// in-RAM floats become the *decoded* (on-grid) values — so what
    /// training reads is exactly what a checkpoint restore will read.
    /// At [`Precision::F32`] this is identical to [`StoredSample::latent`].
    pub fn latent_quantized(features: Vec<f32>, label: usize, precision: Precision) -> Self {
        if precision == Precision::F32 {
            return Self::latent(features, label);
        }
        let packed = codec::encode_latent(precision, &features);
        let (_, on_grid) =
            codec::decode_latent(&packed).expect("a freshly encoded latent always decodes");
        let mut sample = Self::sealed(on_grid, label, None, None);
        sample.packed = Some(packed);
        sample
    }

    /// Reconstructs a quantized sample from its packed bytes and an
    /// *already recorded* checksum (the quantized twin of
    /// [`StoredSample::from_parts`]): `features` are decoded from the
    /// blob, so a clean save/restore reproduces the exact floats the
    /// checksum was sealed over, while pre-save corruption (re-encoded
    /// from damaged floats) still fails [`StoredSample::integrity_ok`].
    pub fn from_packed_parts(
        packed: Vec<u8>,
        label: usize,
        checksum: u32,
    ) -> Result<Self, CodecError> {
        let (_, features) = codec::decode_latent(&packed)?;
        Ok(Self {
            features,
            label,
            logits: None,
            gradient: None,
            checksum,
            packed: Some(packed),
        })
    }

    /// The packed codec bytes, if this sample was stored quantized.
    pub fn packed(&self) -> Option<&[u8]> {
        self.packed.as_deref()
    }

    /// The packed bytes a checkpoint should serialize for this sample.
    ///
    /// An intact sample hands out its stored blob verbatim (bit-stable
    /// across capture→restore→capture). A sample whose floats no longer
    /// match its CRC — an unrepaired memory upset — is re-encoded from
    /// the damaged floats instead, so the corruption persists *and
    /// stays detectable*: the decoded restore won't match the recorded
    /// checksum either.
    pub fn packed_for_write(&self, precision: Precision) -> Vec<u8> {
        match &self.packed {
            Some(blob) if self.integrity_ok() => blob.clone(),
            _ => codec::encode_latent(precision, &self.features),
        }
    }

    /// Re-projects an f32 sample onto the `precision` grid and reseals
    /// it — the v2→v3 migration path for checkpoints written before the
    /// codec existed. Corrupted samples are left untouched so the
    /// quarantine machinery still sees them.
    pub fn requantize(&mut self, precision: Precision) {
        if precision == Precision::F32 || !self.integrity_ok() {
            return;
        }
        let packed = codec::encode_latent(precision, &self.features);
        let (_, on_grid) =
            codec::decode_latent(&packed).expect("a freshly encoded latent always decodes");
        self.features = on_grid;
        self.packed = Some(packed);
        self.checksum = self.content_checksum();
    }

    /// A raw-input sample (ER).
    pub fn raw(features: Vec<f32>, label: usize) -> Self {
        Self::sealed(features, label, None, None)
    }

    /// A raw sample with recorded teacher logits (DER).
    pub fn with_logits(features: Vec<f32>, label: usize, logits: Vec<f32>) -> Self {
        Self::sealed(features, label, Some(logits), None)
    }

    /// A raw sample with a recorded gradient direction (GSS).
    pub fn with_gradient(features: Vec<f32>, label: usize, gradient: Vec<f32>) -> Self {
        Self::sealed(features, label, None, Some(gradient))
    }

    /// Reconstructs a sample with an *already recorded* checksum — used by
    /// checkpoint loading so corruption that happened before a save is still
    /// detected after the restore.
    pub fn from_parts(
        features: Vec<f32>,
        label: usize,
        logits: Option<Vec<f32>>,
        gradient: Option<Vec<f32>>,
        checksum: u32,
    ) -> Self {
        Self {
            features,
            label,
            logits,
            gradient,
            checksum,
            packed: None,
        }
    }

    /// Dimension of the stored representation.
    pub fn dim(&self) -> usize {
        self.features.len()
    }

    /// The checksum sealed over this sample's contents.
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// CRC32 of the sample's *current* contents.
    fn content_checksum(&self) -> u32 {
        let mut h = Crc32::new();
        h.update(&(self.label as u64).to_le_bytes());
        h.update(&(self.features.len() as u64).to_le_bytes());
        h.update_f32s(&self.features);
        for payload in [&self.logits, &self.gradient] {
            match payload {
                Some(values) => {
                    h.update(&[1]);
                    h.update(&(values.len() as u64).to_le_bytes());
                    h.update_f32s(values);
                }
                None => h.update(&[0]),
            }
        }
        h.finish()
    }

    /// Whether the sealed checksum still matches the contents.
    pub fn integrity_ok(&self) -> bool {
        self.checksum == self.content_checksum()
    }

    /// Recomputes the checksum after a legitimate mutation. Any stale
    /// packed encoding is dropped — the mutated floats are the truth now
    /// and will be re-encoded at the next checkpoint.
    pub fn reseal(&mut self) {
        self.packed = None;
        self.checksum = self.content_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_payloads() {
        let s = StoredSample::latent(vec![1.0, 2.0], 3);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.label, 3);
        assert!(s.logits.is_none() && s.gradient.is_none());

        let d = StoredSample::with_logits(vec![0.0], 1, vec![0.5, 0.5]);
        assert_eq!(d.logits.as_deref(), Some(&[0.5, 0.5][..]));

        let g = StoredSample::with_gradient(vec![0.0], 0, vec![1.0]);
        assert_eq!(g.gradient.as_deref(), Some(&[1.0][..]));
    }

    #[test]
    fn fresh_samples_pass_integrity() {
        assert!(StoredSample::latent(vec![0.5; 8], 2).integrity_ok());
        assert!(StoredSample::with_logits(vec![1.0], 0, vec![0.1]).integrity_ok());
    }

    #[test]
    fn bit_flip_breaks_integrity_and_reseal_restores_it() {
        let mut s = StoredSample::latent(vec![1.0, -2.0, 3.0], 1);
        s.features[1] = f32::from_bits(s.features[1].to_bits() ^ (1 << 17));
        assert!(!s.integrity_ok());
        s.reseal();
        assert!(s.integrity_ok());
    }

    #[test]
    fn label_corruption_is_detected() {
        let mut s = StoredSample::latent(vec![0.0; 4], 3);
        s.label = 4;
        assert!(!s.integrity_ok());
    }

    #[test]
    fn quantized_samples_hold_on_grid_floats_and_pass_integrity() {
        let raw = vec![0.113_f32, -2.7, 5.5, 0.0];
        let s = StoredSample::latent_quantized(raw.clone(), 2, Precision::Int8);
        assert!(s.integrity_ok());
        let packed = s.packed().expect("int8 samples keep their packed bytes");
        let (_, decoded) = codec::decode_latent(packed).expect("decode");
        assert_eq!(
            s.features.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "in-RAM floats must be exactly the decoded grid values"
        );
        assert_ne!(s.features, raw, "int8 projection moves off-grid values");
        // F32 degenerates to the plain constructor: no packed bytes.
        let f = StoredSample::latent_quantized(raw.clone(), 2, Precision::F32);
        assert_eq!(f, StoredSample::latent(raw, 2));
        assert!(f.packed().is_none());
    }

    #[test]
    fn packed_roundtrip_reproduces_the_sample_exactly() {
        let s = StoredSample::latent_quantized(vec![1.0, 2.25, -9.5], 4, Precision::F16);
        let blob = s.packed_for_write(Precision::F16);
        let restored =
            StoredSample::from_packed_parts(blob, s.label, s.checksum()).expect("restore");
        assert_eq!(restored, s);
        assert!(restored.integrity_ok());
        // And the write side is a fixed point: capture→restore→capture.
        assert_eq!(
            restored.packed_for_write(Precision::F16),
            s.packed_for_write(Precision::F16)
        );
    }

    #[test]
    fn corrupted_quantized_sample_is_reencoded_and_stays_detectable() {
        let mut s = StoredSample::latent_quantized(vec![1.0, 2.0, 3.0], 0, Precision::Int8);
        s.features[0] += 40.0; // upset, deliberately not resealed
        assert!(!s.integrity_ok());
        let blob = s.packed_for_write(Precision::Int8);
        assert_ne!(
            Some(blob.as_slice()),
            s.packed(),
            "a corrupt sample must not serialize its stale packed bytes"
        );
        let restored =
            StoredSample::from_packed_parts(blob, s.label, s.checksum()).expect("restore");
        assert!(
            !restored.integrity_ok(),
            "pre-save corruption must survive a quantized roundtrip"
        );
    }

    #[test]
    fn reseal_drops_stale_packed_bytes() {
        let mut s = StoredSample::latent_quantized(vec![1.0, 2.0], 1, Precision::Int8);
        s.features[0] = 7.0;
        s.reseal();
        assert!(s.integrity_ok());
        assert!(s.packed().is_none());
    }

    #[test]
    fn requantize_projects_and_reseals_clean_samples_only() {
        let mut s = StoredSample::latent(vec![0.1234, 5.6789, -3.21], 2);
        s.requantize(Precision::Int8);
        assert!(s.integrity_ok());
        assert!(s.packed().is_some());
        let mut corrupt = StoredSample::latent(vec![1.0, 2.0], 0);
        corrupt.features[0] = 9.0;
        s.requantize(Precision::F32);
        corrupt.requantize(Precision::Int8);
        assert!(
            !corrupt.integrity_ok(),
            "corrupt samples stay quarantinable"
        );
        assert!(corrupt.packed().is_none());
    }

    #[test]
    fn from_parts_preserves_recorded_checksum() {
        let mut s = StoredSample::latent(vec![1.0], 0);
        let good = s.checksum();
        s.features[0] = 2.0; // corrupt in place, do not reseal
        let restored = StoredSample::from_parts(s.features.clone(), s.label, None, None, good);
        assert!(
            !restored.integrity_ok(),
            "pre-save corruption must survive a roundtrip"
        );
        let clean = StoredSample::from_parts(vec![1.0], 0, None, None, good);
        assert!(clean.integrity_ok());
    }
}
