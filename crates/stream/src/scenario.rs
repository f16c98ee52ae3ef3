//! The Domain-IL scenario: sequential domain streams + an all-domain test
//! set.

use chameleon_tensor::{Matrix, Prng};

use crate::stream::DomainStream;
use crate::{ClusterGenerator, DatasetSpec, StreamConfig, StreamCursor};

/// A full Domain Incremental Learning scenario, the paper's evaluation
/// protocol: train on domains `0..D` one after another in a single pass,
/// then report `Acc_all` on a held-out test set that covers *all* domains.
///
/// # Example
///
/// ```
/// use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
///
/// let scenario = DomainIlScenario::generate(&DatasetSpec::core50_tiny(), 1);
/// let (test_x, test_y) = scenario.test_set();
/// assert_eq!(test_x.rows(), test_y.len());
/// let n: usize = scenario
///     .domain_stream(0, &StreamConfig::default(), 2)
///     .map(|b| b.len())
///     .count();
/// assert!(n > 0);
/// ```
#[derive(Clone, Debug)]
pub struct DomainIlScenario {
    generator: ClusterGenerator,
    test_raw: Matrix,
    test_labels: Vec<usize>,
    test_domains: Vec<usize>,
}

impl DomainIlScenario {
    /// Builds the scenario: fixed cluster geometry plus a pre-drawn test
    /// set spanning every domain.
    pub fn generate(spec: &DatasetSpec, seed: u64) -> Self {
        let generator = ClusterGenerator::new(spec, seed);
        let mut rng = Prng::new(seed ^ 0x7E57_5E7A_11ED);
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(spec.test_len());
        let mut labels = Vec::with_capacity(spec.test_len());
        let mut domains = Vec::with_capacity(spec.test_len());
        for domain in 0..spec.num_domains {
            for class in 0..spec.num_classes {
                for _ in 0..spec.test_per_class_per_domain {
                    rows.push(generator.sample(class, domain, &mut rng));
                    labels.push(class);
                    domains.push(domain);
                }
            }
        }
        let test_raw = Matrix::try_from_row_iter(rows.iter().map(Vec::as_slice))
            .expect("test rows share raw_dim");
        Self {
            generator,
            test_raw,
            test_labels: labels,
            test_domains: domains,
        }
    }

    /// The dataset specification.
    pub fn spec(&self) -> &DatasetSpec {
        self.generator.spec()
    }

    /// The underlying cluster generator (for inspection/visualization).
    pub fn generator(&self) -> &ClusterGenerator {
        &self.generator
    }

    /// The training stream for one domain. Each domain contains
    /// `num_classes × train_per_class_per_domain` samples; `stream_seed`
    /// controls ordering/noise so repeated runs differ.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range or the config is invalid.
    pub fn domain_stream(
        &self,
        domain: usize,
        config: &StreamConfig,
        stream_seed: u64,
    ) -> DomainStream<'_> {
        DomainStream::new(
            &self.generator,
            domain,
            config.clone(),
            self.samples_per_domain(),
            stream_seed,
        )
    }

    /// An owned [`StreamCursor`] over one domain: the same batches as
    /// [`DomainIlScenario::domain_stream`] for identical arguments, but
    /// without borrowing the scenario — long-lived sessions hold the
    /// cursor and drive it against [`DomainIlScenario::generator`].
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range or the config is invalid.
    pub fn stream_cursor(
        &self,
        domain: usize,
        config: &StreamConfig,
        stream_seed: u64,
    ) -> StreamCursor {
        assert!(
            domain < self.generator.spec().num_domains,
            "domain out of range"
        );
        StreamCursor::new(
            domain,
            config.clone(),
            self.samples_per_domain(),
            stream_seed,
        )
    }

    /// Training samples each domain's stream delivers:
    /// `num_classes × train_per_class_per_domain`.
    pub fn samples_per_domain(&self) -> usize {
        let spec = self.generator.spec();
        spec.num_classes * spec.train_per_class_per_domain
    }

    /// The held-out test inputs (`test_len × raw_dim`) and labels, covering
    /// all domains — the `Acc_all` evaluation set.
    pub fn test_set(&self) -> (&Matrix, &[usize]) {
        (&self.test_raw, &self.test_labels)
    }

    /// Domain tag of every test row, for per-domain accuracy breakdowns
    /// (how much of each earlier domain has been forgotten).
    pub fn test_domains(&self) -> &[usize] {
        &self.test_domains
    }

    /// Indices of test rows belonging to `domain`.
    pub fn test_rows_of_domain(&self, domain: usize) -> Vec<usize> {
        self.test_domains
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (d == domain).then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_set_covers_all_classes_and_domains() {
        let spec = DatasetSpec::core50_tiny();
        let s = DomainIlScenario::generate(&spec, 0);
        let (x, y) = s.test_set();
        assert_eq!(x.rows(), spec.test_len());
        assert_eq!(y.len(), spec.test_len());
        for class in 0..spec.num_classes {
            assert!(y.contains(&class), "class {class} missing from test set");
        }
        for domain in 0..spec.num_domains {
            assert!(!s.test_rows_of_domain(domain).is_empty());
        }
    }

    #[test]
    fn test_set_is_balanced_per_class() {
        let spec = DatasetSpec::core50_tiny();
        let s = DomainIlScenario::generate(&spec, 1);
        let (_, y) = s.test_set();
        let mut counts = vec![0usize; spec.num_classes];
        for &label in y {
            counts[label] += 1;
        }
        let expected = spec.num_domains * spec.test_per_class_per_domain;
        assert!(counts.iter().all(|&c| c == expected), "{counts:?}");
    }

    #[test]
    fn domain_streams_have_expected_sizes() {
        let spec = DatasetSpec::core50_tiny();
        let s = DomainIlScenario::generate(&spec, 2);
        let config = StreamConfig::default();
        let total: usize = s.domain_stream(1, &config, 3).map(|b| b.len()).sum();
        assert_eq!(total, spec.num_classes * spec.train_per_class_per_domain);
    }

    #[test]
    fn scenario_generation_is_deterministic() {
        let spec = DatasetSpec::openloris_tiny();
        let a = DomainIlScenario::generate(&spec, 11);
        let b = DomainIlScenario::generate(&spec, 11);
        assert_eq!(a.test_set().0.as_slice(), b.test_set().0.as_slice());
        assert_eq!(a.test_set().1, b.test_set().1);
    }

    #[test]
    fn stream_seeds_change_sample_order() {
        let spec = DatasetSpec::core50_tiny();
        let s = DomainIlScenario::generate(&spec, 4);
        let config = StreamConfig::default();
        let a: Vec<usize> = s
            .domain_stream(0, &config, 1)
            .flat_map(|b| b.labels)
            .collect();
        let b: Vec<usize> = s
            .domain_stream(0, &config, 2)
            .flat_map(|b| b.labels)
            .collect();
        assert_ne!(a, b);
    }
}
