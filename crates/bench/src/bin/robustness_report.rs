//! Extension: **memory-fault robustness** — how gracefully each replay
//! method degrades as bit upsets accumulate in its resident stores.
//!
//! Sweeps a DRAM bit-flip rate (SRAM derived via the fixed hierarchy
//! ratio) across Chameleon (quarantine on and off), ER, and Latent Replay,
//! and emits the accuracy-degradation curves as JSON to
//! `results/robustness_report.json` alongside a markdown summary on
//! stdout.
//!
//! Usage: `cargo run --release -p chameleon-bench --bin robustness_report
//! [--runs N]` (default 2 seeds per point).

use chameleon_bench::report::{write_results, Table};
use chameleon_bench::suite::runs_from_args;
use chameleon_core::{Chameleon, ChameleonConfig, Er, LatentReplay, ModelConfig, Trainer};
use chameleon_faults::{FaultInjector, FaultPlan};
use chameleon_obs::json::Object;
use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
use chameleon_tensor::stats::MeanStd;

/// DRAM bit-flip rates swept, in flips per stored bit per stream sample.
/// Zero anchors the clean baseline; the nonzero points trace the curve.
const RATES: [f64; 4] = [0.0, 1e-6, 1e-5, 1e-4];

const BUFFER: usize = 100;

struct Point {
    dram_rate: f64,
    acc: MeanStd,
    bits_flipped: u64,
    evictions: u64,
    rebuilds: u64,
}

struct Curve {
    method: &'static str,
    quarantine: Option<bool>,
    points: Vec<Point>,
}

fn chameleon_variant(model: &ModelConfig, quarantine: bool, seed: u64) -> Chameleon {
    let config = ChameleonConfig {
        long_term_capacity: BUFFER,
        quarantine,
        ..ChameleonConfig::default()
    };
    Chameleon::new(model, config, seed)
}

fn main() {
    let seeds = runs_from_args(2) as u64;
    let spec = DatasetSpec::core50_tiny();
    let scenario = DomainIlScenario::generate(&spec, 0xDA7A);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(StreamConfig::default());

    println!(
        "# Memory-fault robustness ({} synthetic, {seeds} seeds per point)\n",
        spec.name
    );

    let variants: [(&'static str, Option<bool>); 4] = [
        ("Chameleon", Some(true)),
        ("Chameleon", Some(false)),
        ("ER", None),
        ("Latent Replay", None),
    ];

    let mut curves = Vec::new();
    for (method, quarantine) in variants {
        let mut points = Vec::new();
        for &rate in &RATES {
            let mut accs = Vec::new();
            let mut bits_flipped = 0;
            let mut evictions = 0;
            let mut rebuilds = 0;
            for seed in 1..=seeds {
                let mut injector = FaultInjector::new(FaultPlan::bit_flips(seed * 31 + 7, rate));
                let acc = match (method, quarantine) {
                    ("Chameleon", Some(q)) => {
                        let mut c = chameleon_variant(&model, q, seed);
                        let report =
                            trainer.run_with_faults(&scenario, &mut c, seed, &mut injector);
                        let r = c.resilience();
                        evictions += r.short_term_evictions + r.long_term_evictions;
                        rebuilds += r.prototype_rebuilds;
                        report.acc_all
                    }
                    ("ER", _) => {
                        let mut er = Er::new(&model, BUFFER, seed);
                        trainer
                            .run_with_faults(&scenario, &mut er, seed, &mut injector)
                            .acc_all
                    }
                    _ => {
                        let mut lr = LatentReplay::new(&model, BUFFER, seed);
                        trainer
                            .run_with_faults(&scenario, &mut lr, seed, &mut injector)
                            .acc_all
                    }
                };
                accs.push(acc);
                bits_flipped += injector.stats().bits_flipped;
            }
            points.push(Point {
                dram_rate: rate,
                acc: MeanStd::from_samples(&accs),
                bits_flipped,
                evictions,
                rebuilds,
            });
        }
        let label = match quarantine {
            Some(true) => format!("{method} (quarantine)"),
            Some(false) => format!("{method} (no quarantine)"),
            None => method.to_string(),
        };
        eprintln!("  {label} done");
        curves.push(Curve {
            method,
            quarantine,
            points,
        });
    }

    let mut table = Table::new(&["Method", "clean", "1e-6", "1e-5", "1e-4", "drop @1e-4"]);
    for curve in &curves {
        let label = match curve.quarantine {
            Some(true) => format!("{} (quarantine)", curve.method),
            Some(false) => format!("{} (no quarantine)", curve.method),
            None => curve.method.to_string(),
        };
        let clean = curve.points[0].acc.mean;
        let mut cells = vec![label];
        for p in &curve.points {
            cells.push(format!("{:.1}", p.acc.mean));
        }
        cells.push(format!(
            "{:.1}",
            clean - curve.points.last().expect("nonempty").acc.mean
        ));
        table.row_owned(cells);
    }
    println!("{}", table.render());
    println!(
        "Degradation = clean accuracy minus accuracy at the given DRAM\n\
         bit-flip rate (SRAM rate 16× lower). Quarantine evicts samples whose\n\
         checksums fail before training on them; without it, corrupted\n\
         latents feed the head directly."
    );

    write_results(
        "robustness_report.json",
        &document(spec.name, seeds, &curves),
    );
}

fn document(dataset: &str, seeds: u64, curves: &[Curve]) -> String {
    let curve = |curve: &Curve| {
        let clean = curve.points[0].acc.mean;
        let doc = Object::block().str("method", curve.method);
        let doc = match curve.quarantine {
            Some(q) => doc.num("quarantine", q),
            None => doc.null("quarantine"),
        };
        doc.array(
            "points",
            curve.points.iter().map(|p| {
                Object::inline()
                    .num("dram_rate", format!("{:e}", p.dram_rate))
                    .num("acc_all_mean", format!("{:.4}", p.acc.mean))
                    .num("acc_all_std", format!("{:.4}", p.acc.std))
                    .num("degradation", format!("{:.4}", clean - p.acc.mean))
                    .num("bits_flipped", p.bits_flipped)
                    .num("corrupt_evictions", p.evictions)
                    .num("prototype_rebuilds", p.rebuilds)
            }),
        )
    };
    let doc = Object::block()
        .str("dataset", dataset)
        .num("seeds", seeds)
        .num("dram_to_sram_ratio", chameleon_faults::DRAM_TO_SRAM_RATIO)
        .array("curves", curves.iter().map(curve));
    format!("{}\n", doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROBUSTNESS_REPORT_JSON: &str = r#"{
  "dataset": "CORe50-tiny",
  "seeds": 2,
  "dram_to_sram_ratio": 16,
  "curves": [
    {
      "method": "Chameleon",
      "quarantine": true,
      "points": [
        {"dram_rate": 0e0, "acc_all_mean": 58.3333, "acc_all_std": 2.9167, "degradation": 0.0000, "bits_flipped": 0, "corrupt_evictions": 0, "prototype_rebuilds": 0},
        {"dram_rate": 1e-4, "acc_all_mean": 50.8333, "acc_all_std": 2.5417, "degradation": 7.5000, "bits_flipped": 1381, "corrupt_evictions": 690, "prototype_rebuilds": 92}
      ]
    },
    {
      "method": "ER",
      "quarantine": null,
      "points": [
        {"dram_rate": 0e0, "acc_all_mean": 57.5000, "acc_all_std": 2.8750, "degradation": 0.0000, "bits_flipped": 0, "corrupt_evictions": 0, "prototype_rebuilds": 0},
        {"dram_rate": 2.5e-5, "acc_all_mean": 9.1667, "acc_all_std": 0.4583, "degradation": 48.3333, "bits_flipped": 2761, "corrupt_evictions": 1380, "prototype_rebuilds": 184}
      ]
    }
  ]
}
"#;

    #[test]
    fn results_document_is_pinned() {
        let point = |dram_rate: f64, mean: f32, bits_flipped: u64| Point {
            dram_rate,
            acc: MeanStd {
                mean,
                std: mean / 20.0,
                runs: 2,
            },
            bits_flipped,
            evictions: bits_flipped / 2,
            rebuilds: bits_flipped / 15,
        };
        let curves = vec![
            Curve {
                method: "Chameleon",
                quarantine: Some(true),
                points: vec![point(0.0, 58.3333, 0), point(1e-4, 50.8333, 1381)],
            },
            Curve {
                method: "ER",
                quarantine: None,
                points: vec![point(0.0, 57.5, 0), point(2.5e-5, 9.1667, 2761)],
            },
        ];
        assert_eq!(document("CORe50-tiny", 2, &curves), ROBUSTNESS_REPORT_JSON);
    }
}
