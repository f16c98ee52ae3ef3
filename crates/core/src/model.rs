//! Shared model configuration for all strategies.

use std::sync::{Mutex, OnceLock, PoisonError};

use chameleon_nn::{FrozenExtractor, MlpHead, Sgd};
use chameleon_stream::shapes::NominalShapes;
use chameleon_stream::DatasetSpec;
use chameleon_tensor::Prng;

/// `(raw_dim, extractor_hidden, latent_dim)`: what the frozen extractor's
/// weights are a function of.
type ExtractorShape = (usize, Vec<usize>, usize);

/// Architecture and optimizer settings shared by every strategy, mirroring
/// the paper's experimental setup (§IV-A): MobileNetV1 frozen up to layer
/// 21, SGD with lr = 0.001, batch size 10, single pass.
///
/// In the simulation the frozen trunk is a [`FrozenExtractor`] and the
/// trainable tail an [`MlpHead`]; nominal MobileNetV1 shapes are kept in
/// [`NominalShapes`] for memory/compute accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Raw input dimensionality (must match the dataset spec).
    pub raw_dim: usize,
    /// Latent dimensionality produced by the frozen extractor.
    pub latent_dim: usize,
    /// Hidden widths of intermediate *frozen* extractor stages (empty =
    /// single-stage extractor). Together with `hidden` this moves the
    /// frozen/trainable boundary — the paper's latent-layer choice
    /// (§IV-A, layer 21 of 27).
    pub extractor_hidden: Vec<usize>,
    /// Hidden-layer widths of the trainable head (empty = linear head).
    pub hidden: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// SGD learning rate (paper: 0.001; the synthetic task trains the small
    /// head with a proportionally larger rate).
    pub learning_rate: f32,
    /// L2 weight decay on the head. In the real system, forgetting is
    /// driven by representation drift inside the deep network; a frozen
    /// feature extractor plus convex head lacks that channel, so decay
    /// models the gradual erosion of unrehearsed evidence (see DESIGN.md,
    /// "Substitutions"). Replay counteracts it by re-presenting old data.
    pub weight_decay: f32,
    /// Nominal shapes used for memory accounting.
    pub shapes: NominalShapes,
}

impl ModelConfig {
    /// Builds the configuration matching a dataset specification.
    pub fn for_spec(spec: &DatasetSpec) -> Self {
        Self {
            raw_dim: spec.raw_dim,
            latent_dim: 64,
            extractor_hidden: Vec::new(),
            hidden: Vec::new(),
            num_classes: spec.num_classes,
            learning_rate: 0.3,
            weight_decay: 0.004,
            shapes: NominalShapes::for_classes(spec.num_classes),
        }
    }

    /// Builder: overrides the weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `weight_decay < 0`.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }

    /// Builder: overrides the learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn with_learning_rate(mut self, lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        self.learning_rate = lr;
        self
    }

    /// Builder: overrides the latent dimension.
    ///
    /// # Panics
    ///
    /// Panics if `latent_dim == 0`.
    pub fn with_latent_dim(mut self, latent_dim: usize) -> Self {
        assert!(latent_dim > 0, "latent dim must be positive");
        self.latent_dim = latent_dim;
        self
    }

    /// Builder: uses a deeper trainable head.
    pub fn with_hidden(mut self, hidden: Vec<usize>) -> Self {
        self.hidden = hidden;
        self
    }

    /// Builder: inserts frozen intermediate extractor stages (moves the
    /// frozen/trainable cut deeper into the network).
    pub fn with_extractor_hidden(mut self, extractor_hidden: Vec<usize>) -> Self {
        self.extractor_hidden = extractor_hidden;
        self
    }

    /// The frozen extractor. The extractor seed is decoupled from the run
    /// seed: the "pre-trained" trunk is the same across repetitions, as it
    /// is in the paper. Being a pure function of the dimension chain, it is
    /// built once per `(raw_dim, extractor_hidden, latent_dim)` in the
    /// process; every later call returns a clone sharing those weights.
    pub fn build_extractor(&self) -> FrozenExtractor {
        // A handful of shapes live in one process; a linear scan keeps a
        // hit allocation-free.
        static BUILT: OnceLock<Mutex<Vec<(ExtractorShape, FrozenExtractor)>>> = OnceLock::new();
        // Every update is one push of a finished entry, so a list poisoned
        // by a panicking build is still valid.
        let mut built = BUILT
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let hit = built.iter().find(|((raw, hidden, latent), _)| {
            *raw == self.raw_dim && *hidden == self.extractor_hidden && *latent == self.latent_dim
        });
        if let Some((_, f)) = hit {
            return f.clone();
        }
        let mut dims = Vec::with_capacity(self.extractor_hidden.len() + 2);
        dims.push(self.raw_dim);
        dims.extend_from_slice(&self.extractor_hidden);
        dims.push(self.latent_dim);
        let f = FrozenExtractor::deep(&dims, &mut Prng::new(0xF0_7A_E0));
        let shape = (self.raw_dim, self.extractor_hidden.clone(), self.latent_dim);
        built.push((shape, f.clone()));
        f
    }

    /// Instantiates a fresh trainable head from a run seed.
    pub fn build_head(&self, seed: u64) -> MlpHead {
        MlpHead::new(&self.head_dims(), &mut Prng::new(seed ^ 0x4EAD))
    }

    /// Rebuilds a trainable head from its stored flat parameters — the
    /// head [`Self::build_head`] would give after `set_parameters`, with no
    /// random init drawn. `None` when the parameter count does not fit
    /// this architecture.
    pub fn build_head_from_parameters(&self, params: &[f32]) -> Option<MlpHead> {
        let dims = self.head_dims();
        (params.len() == MlpHead::parameter_count_of(&dims))
            .then(|| MlpHead::from_parameters(&dims, params))
    }

    /// Trainable parameter count of the head this configuration builds.
    pub(crate) fn head_parameter_count(&self) -> usize {
        MlpHead::parameter_count_of(&self.head_dims())
    }

    fn head_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(self.latent_dim);
        dims.extend_from_slice(&self.hidden);
        dims.push(self.num_classes);
        dims
    }

    /// Instantiates the paper's optimizer.
    pub fn build_sgd(&self) -> Sgd {
        Sgd::new(self.learning_rate).with_weight_decay(self.weight_decay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_spec_matches_dataset() {
        let spec = DatasetSpec::core50_tiny();
        let m = ModelConfig::for_spec(&spec);
        assert_eq!(m.raw_dim, spec.raw_dim);
        assert_eq!(m.num_classes, spec.num_classes);
    }

    #[test]
    fn extractor_is_shared_across_seeds() {
        let m = ModelConfig::for_spec(&DatasetSpec::core50_tiny());
        let a = m.build_extractor();
        let b = m.build_extractor();
        let raw = vec![0.3; m.raw_dim];
        assert_eq!(a.extract(&raw), b.extract(&raw));
        assert!(a.shares_weights_with(&b));
    }

    #[test]
    fn memoised_extractor_equals_a_fresh_draw_per_shape() {
        let m = ModelConfig::for_spec(&DatasetSpec::core50_tiny()).with_extractor_hidden(vec![48]);
        let fresh = FrozenExtractor::deep(&[m.raw_dim, 48, m.latent_dim], &mut Prng::new(0xF07AE0));
        assert_eq!(m.build_extractor(), fresh);
        let shallow = ModelConfig::for_spec(&DatasetSpec::core50_tiny());
        assert_eq!(shallow.build_extractor().depth(), 1);
        assert!(!shallow
            .build_extractor()
            .shares_weights_with(&m.build_extractor()));
    }

    #[test]
    fn head_from_parameters_matches_build_then_set() {
        let m = ModelConfig::for_spec(&DatasetSpec::core50_tiny()).with_hidden(vec![16]);
        let params = m.build_head(3).parameters();
        assert_eq!(params.len(), m.head_parameter_count());
        let mut expected = m.build_head(8);
        expected.set_parameters(&params);
        assert_eq!(m.build_head_from_parameters(&params), Some(expected));
        assert_eq!(m.build_head_from_parameters(&params[1..]), None);
    }

    #[test]
    fn heads_differ_across_seeds() {
        let m = ModelConfig::for_spec(&DatasetSpec::core50_tiny());
        assert_ne!(m.build_head(1).parameters(), m.build_head(2).parameters());
    }

    #[test]
    fn head_respects_hidden_layers() {
        let m = ModelConfig::for_spec(&DatasetSpec::core50_tiny()).with_hidden(vec![32]);
        let head = m.build_head(0);
        assert_eq!(head.num_layers(), 2);
        assert_eq!(head.in_features(), m.latent_dim);
        assert_eq!(head.num_classes(), m.num_classes);
    }

    #[test]
    fn builders_validate() {
        let m = ModelConfig::for_spec(&DatasetSpec::core50_tiny())
            .with_learning_rate(0.01)
            .with_latent_dim(32);
        assert_eq!(m.learning_rate, 0.01);
        assert_eq!(m.latent_dim, 32);
    }
}
