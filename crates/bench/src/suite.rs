//! Strategy registry and run configuration shared by the table generators
//! and the fleet/serve/route/balance benches.

use chameleon_core::{
    Chameleon, ChameleonConfig, Der, DerConfig, Er, EwcConfig, EwcPlusPlus, Finetune, Gss,
    GssConfig, Joint, JointConfig, LatentReplay, Lwf, LwfConfig, ModelConfig, Precision, Slda,
    SldaConfig, Strategy,
};
use chameleon_fleet::SessionSpec;
use chameleon_stream::{PreferenceProfile, StreamConfig};

/// The per-user session the fleet, serve, route and balance benches
/// drive: Chameleon with `long_term_capacity` at `precision`, over a
/// stream skewed 8x toward the three classes from `3 * user` on, with
/// seeds derived from the user id.
pub fn skewed_user_spec(
    user: u64,
    num_classes: usize,
    long_term_capacity: usize,
    precision: Precision,
) -> SessionSpec {
    let base = (user as usize * 3) % num_classes;
    SessionSpec {
        learner: ChameleonConfig {
            long_term_capacity,
            precision,
            ..ChameleonConfig::default()
        },
        stream: StreamConfig {
            preference: PreferenceProfile::Skewed {
                preferred: vec![base, (base + 1) % num_classes, (base + 2) % num_classes],
                boost: 8.0,
            },
            ..StreamConfig::default()
        },
        learner_seed: user.wrapping_mul(31) ^ 5,
        stream_seed: user.wrapping_add(0x5EED),
    }
}

/// A named strategy configuration as it appears in a table row.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodSpec {
    /// Row label, e.g. `"ER (500)"`.
    pub label: String,
    /// Replay buffer size, when the method has one.
    pub buffer: Option<usize>,
    /// Which strategy to build.
    pub kind: MethodKind,
}

/// The strategy families of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// Multi-epoch offline upper bound.
    Joint,
    /// Single-pass lower bound.
    Finetune,
    /// Online EWC.
    EwcPlusPlus,
    /// Learning without Forgetting.
    Lwf,
    /// Streaming LDA.
    Slda,
    /// Gradient-based sample selection.
    Gss,
    /// Experience replay (raw images).
    Er,
    /// Dark experience replay (raw + logits).
    Der,
    /// Latent replay.
    LatentReplay,
    /// Chameleon with the given long-term capacity.
    Chameleon,
}

impl MethodSpec {
    /// Builds the strategy for one run seed.
    pub fn build(&self, model: &ModelConfig, seed: u64) -> Box<dyn Strategy> {
        let buffer = self.buffer.unwrap_or(0);
        match self.kind {
            MethodKind::Joint => Box::new(Joint::new(model, JointConfig::default(), seed)),
            MethodKind::Finetune => Box::new(Finetune::new(model, seed)),
            MethodKind::EwcPlusPlus => {
                Box::new(EwcPlusPlus::new(model, EwcConfig::default(), seed))
            }
            MethodKind::Lwf => Box::new(Lwf::new(model, LwfConfig::default(), seed)),
            MethodKind::Slda => Box::new(Slda::new(model, SldaConfig::default(), seed)),
            MethodKind::Gss => Box::new(Gss::new(model, GssConfig::new(buffer), seed)),
            MethodKind::Er => Box::new(Er::new(model, buffer, seed)),
            MethodKind::Der => Box::new(Der::new(model, DerConfig::new(buffer), seed)),
            MethodKind::LatentReplay => Box::new(LatentReplay::new(model, buffer, seed)),
            MethodKind::Chameleon => Box::new(Chameleon::new(
                model,
                ChameleonConfig {
                    long_term_capacity: buffer,
                    ..ChameleonConfig::default()
                },
                seed,
            )),
        }
    }
}

/// The paper's buffer-size sweep (Table I).
pub const BUFFER_SIZES: [usize; 4] = [100, 200, 500, 1500];

/// The full Table I method list, in the paper's row order.
pub fn table1_methods() -> Vec<MethodSpec> {
    let mut methods = vec![
        MethodSpec {
            label: "JOINT".into(),
            buffer: None,
            kind: MethodKind::Joint,
        },
        MethodSpec {
            label: "Finetuning".into(),
            buffer: None,
            kind: MethodKind::Finetune,
        },
        MethodSpec {
            label: "EWC++".into(),
            buffer: None,
            kind: MethodKind::EwcPlusPlus,
        },
        MethodSpec {
            label: "LwF".into(),
            buffer: None,
            kind: MethodKind::Lwf,
        },
        MethodSpec {
            label: "SLDA".into(),
            buffer: None,
            kind: MethodKind::Slda,
        },
    ];
    for (kind, name) in [
        (MethodKind::Gss, "GSS"),
        (MethodKind::Er, "ER"),
        (MethodKind::Der, "DER"),
        (MethodKind::LatentReplay, "Latent Replay"),
    ] {
        for size in BUFFER_SIZES {
            methods.push(MethodSpec {
                label: format!("{name} ({size})"),
                buffer: Some(size),
                kind,
            });
        }
    }
    for size in BUFFER_SIZES {
        methods.push(MethodSpec {
            label: format!("Chameleon (Ms=10, Ml={size})"),
            buffer: Some(size),
            kind: MethodKind::Chameleon,
        });
    }
    methods
}

/// Seeds for a repeated-run experiment: `1..=runs`.
pub fn seeds(runs: usize) -> Vec<u64> {
    (1..=runs as u64).collect()
}

/// Reads the run count from the first CLI argument shaped `--runs N`
/// (default: `default`).
pub fn runs_from_args(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stream::DatasetSpec;

    #[test]
    fn table1_has_25_rows() {
        // 5 bufferless + 4 families × 4 sizes + Chameleon × 4 sizes.
        assert_eq!(table1_methods().len(), 25);
    }

    #[test]
    fn every_method_builds() {
        let model = ModelConfig::for_spec(&DatasetSpec::core50_tiny());
        for spec in table1_methods() {
            let s = spec.build(&model, 1);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn seeds_are_one_based() {
        assert_eq!(seeds(3), vec![1, 2, 3]);
    }
}
