//! The frozen feature extractor `f_θ`.

use std::sync::Arc;

use chameleon_tensor::{Matrix, Prng};

/// A frozen feature extractor standing in for the pre-trained MobileNetV1
/// trunk (layers 1–21) of the paper.
///
/// The extractor is a fixed random affine map followed by ReLU. It is
/// created once and never trained — exactly the architectural role of the
/// paper's frozen `f_θ`: a deterministic function that produces latent
/// activations whose class/domain cluster structure the head must learn.
/// ReLU keeps latents non-negative, matching real post-activation feature
/// maps. The frozen stages sit behind an [`Arc`], so clones share one copy
/// of the weights: a fleet of learners over the same trunk holds it once.
///
/// Strategies that store *raw* samples (ER, DER, GSS) re-extract on every
/// replay — their extra compute shows up in the hardware cost model through
/// the extractor invocation counts, mirroring the paper's observation that
/// latent replay saves both memory and compute.
///
/// # Example
///
/// ```
/// use chameleon_nn::FrozenExtractor;
/// use chameleon_tensor::Prng;
///
/// let mut rng = Prng::new(0);
/// let f = FrozenExtractor::new(96, 64, &mut rng);
/// let raw = vec![0.5; 96];
/// let latent = f.extract(&raw);
/// assert_eq!(latent.len(), 64);
/// // Frozen: identical input, identical output, forever.
/// assert_eq!(f.extract(&raw), latent);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenExtractor {
    /// Frozen affine stages, applied in order with ReLU after each.
    layers: Arc<Vec<(Matrix, Vec<f32>)>>,
}

impl FrozenExtractor {
    /// Creates a single-stage extractor mapping `raw_dim` inputs to
    /// `latent_dim` non-negative features.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(raw_dim: usize, latent_dim: usize, rng: &mut Prng) -> Self {
        Self::deep(&[raw_dim, latent_dim], rng)
    }

    /// Creates a multi-stage extractor through the dimension chain `dims`
    /// (e.g. `[96, 80, 64]` = two frozen stages). Deeper extractors model
    /// cutting the frozen trunk at a *later* layer, the paper's latent-layer
    /// choice (§IV-A: layer 21 of 27).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given or any is zero.
    pub fn deep(dims: &[usize], rng: &mut Prng) -> Self {
        assert!(
            dims.len() >= 2,
            "extractor needs at least [raw, latent] dims"
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "extractor dimensions must be non-zero"
        );
        let layers = dims
            .windows(2)
            .map(|w| {
                let scale = (2.0 / w[0] as f32).sqrt();
                let mut weight = Matrix::randn(w[1], w[0], rng);
                weight.scale(scale);
                // Small positive bias keeps most units active so class
                // information survives the ReLU.
                (weight, vec![0.1; w[1]])
            })
            .collect();
        Self {
            layers: Arc::new(layers),
        }
    }

    /// Whether `self` and `other` share one copy of the frozen weights
    /// (clones do; two independently built extractors do not, even when
    /// their weights are equal).
    pub fn shares_weights_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.layers, &other.layers)
    }

    /// Raw input dimension.
    pub fn raw_dim(&self) -> usize {
        self.layers[0].0.cols()
    }

    /// Latent output dimension.
    pub fn latent_dim(&self) -> usize {
        self.layers.last().expect("at least one stage").0.rows()
    }

    /// Number of frozen stages.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Extracts the latent feature vector of one raw sample.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != self.raw_dim()`.
    pub fn extract(&self, raw: &[f32]) -> Vec<f32> {
        assert_eq!(raw.len(), self.raw_dim(), "raw input length mismatch");
        let x = Matrix::from_vec(1, raw.len(), raw.to_vec());
        self.extract_batch(&x).into_vec()
    }

    /// Extracts a whole batch (`n × raw_dim` → `n × latent_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `raw.cols() != self.raw_dim()`.
    pub fn extract_batch(&self, raw: &Matrix) -> Matrix {
        let mut cur = raw.clone();
        for (weight, bias) in self.layers.iter() {
            let mut out = cur.matmul_nt(weight);
            out.add_row_broadcast(bias);
            for v in out.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            cur = out;
        }
        cur
    }

    /// MAC count of extracting `n` samples (used for hardware costing of
    /// methods that replay raw inputs through the trunk).
    pub fn macs(&self, n: usize) -> u64 {
        self.layers
            .iter()
            .map(|(w, _)| (n * w.rows() * w.cols()) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_non_negative() {
        let mut rng = Prng::new(0);
        let f = FrozenExtractor::new(16, 8, &mut rng);
        for _ in 0..50 {
            let raw: Vec<f32> = (0..16).map(|_| rng.randn()).collect();
            assert!(f.extract(&raw).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let mut rng = Prng::new(1);
        let f = FrozenExtractor::new(10, 6, &mut rng);
        let raw: Vec<f32> = (0..10).map(|i| i as f32 * 0.1).collect();
        assert_eq!(f.extract(&raw), f.extract(&raw));
    }

    #[test]
    fn batch_matches_single_extraction() {
        let mut rng = Prng::new(2);
        let f = FrozenExtractor::new(12, 5, &mut rng);
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|_| (0..12).map(|_| rng.randn()).collect())
            .collect();
        let batch = Matrix::try_from_row_iter(rows.iter().map(Vec::as_slice)).expect("valid rows");
        let out = f.extract_batch(&batch);
        for (r, raw) in rows.iter().enumerate() {
            let single = f.extract(raw);
            for (a, b) in out.row(r).iter().zip(&single) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn distinct_inputs_map_to_distinct_latents() {
        let mut rng = Prng::new(3);
        let f = FrozenExtractor::new(20, 10, &mut rng);
        let a: Vec<f32> = (0..20).map(|_| rng.randn()).collect();
        let b: Vec<f32> = (0..20).map(|_| rng.randn()).collect();
        assert_ne!(f.extract(&a), f.extract(&b));
    }

    #[test]
    fn mac_count_is_dense_projection() {
        let mut rng = Prng::new(4);
        let f = FrozenExtractor::new(30, 7, &mut rng);
        assert_eq!(f.macs(5), 5 * 30 * 7);
    }

    #[test]
    fn deep_extractor_chains_stages() {
        let mut rng = Prng::new(5);
        let f = FrozenExtractor::deep(&[20, 12, 8], &mut rng);
        assert_eq!(f.depth(), 2);
        assert_eq!(f.raw_dim(), 20);
        assert_eq!(f.latent_dim(), 8);
        let raw: Vec<f32> = (0..20).map(|_| rng.randn()).collect();
        let latent = f.extract(&raw);
        assert_eq!(latent.len(), 8);
        assert!(latent.iter().all(|&v| v >= 0.0));
        assert_eq!(f.macs(2), 2 * (20 * 12 + 12 * 8) as u64);
    }

    #[test]
    fn deep_and_shallow_extractors_differ() {
        let mut rng = Prng::new(6);
        let shallow = FrozenExtractor::deep(&[10, 6], &mut rng);
        let mut rng2 = Prng::new(6);
        let deep = FrozenExtractor::deep(&[10, 8, 6], &mut rng2);
        let raw = vec![0.5; 10];
        assert_ne!(shallow.extract(&raw), deep.extract(&raw));
    }
}
