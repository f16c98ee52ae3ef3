//! Pins the numeric contract between the scalar reference kernels and
//! the chunked autovectorizable ones (`chameleon_tensor::kernels`), and
//! the fused dequantize-on-read decode path.
//!
//! The contract (documented on the kernels module): reassociating a
//! float reduction changes rounding, so chunked results are not
//! bit-identical to the scalar reference — instead, on the
//! well-conditioned inputs this suite sweeps (no catastrophic
//! cancellation), every chunked dot product lands within **2 ULPs** of
//! the correctly-rounded f64 ground truth and within **8 ULPs** of the
//! scalar reference — the slack is the *scalar* chain's own drift (its
//! single dependent sum reaches 5 ULPs from truth by length 70, the
//! four-lane tree stays at 2). On mixed-sign inputs, where cancellation makes ULP
//! distance meaningless, both kernels stay within a condition-scaled
//! absolute bound of the ground truth. The softmax max-scan is
//! bit-identical (`max` is associative); probabilities carry the same
//! ULP bound. All sweeps include ragged tails — lengths not divisible
//! by the 4-lane chunk width.

use chameleon_core::{Chameleon, ChameleonConfig, ModelConfig, Strategy, Trainer};
use chameleon_nn::{Kernel, Linear};
use chameleon_replay::{
    decode_latent, decode_latent_into, encode_latent, Precision, StorePlacement, StoredSample,
};
use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
use chameleon_tensor::kernels::{dot_chunked, matmul_nt_chunked, softmax_chunked, LANES};
use chameleon_tensor::{ops, Matrix, Prng};

/// Maps a float to a sign-magnitude ordered integer so ULP distance is
/// a subtraction. Standard trick; NaN never reaches it in this suite.
fn ordered(x: f32) -> i64 {
    let bits = x.to_bits();
    if bits & 0x8000_0000 != 0 {
        -i64::from(bits & 0x7fff_ffff)
    } else {
        i64::from(bits)
    }
}

fn ulps(a: f32, b: f32) -> u64 {
    (ordered(a) - ordered(b)).unsigned_abs()
}

/// Correctly-rounded ground truth: f64 products accumulated in f64,
/// rounded to f32 once at the end.
fn dot_truth(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum::<f64>() as f32
}

/// The scalar reference: the exact sequential `mul → add` chain
/// `Matrix::matmul_nt` runs per output element.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    let a = Matrix::from_vec(1, a.len(), a.to_vec());
    let b = Matrix::from_vec(1, b.len(), b.to_vec());
    a.matmul_nt(&b).as_slice()[0]
}

fn fill(rng: &mut Prng, n: usize, low: f32, high: f32) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_in(low, high)).collect()
}

#[test]
fn dot_chunked_ulp_contract_on_well_conditioned_inputs() {
    // All-positive operands: partial sums grow monotonically, so ULP
    // distance is meaningful and the documented 2/8-ULP bounds must
    // hold at every length, ragged tails included.
    for seed in [3, 17, 92] {
        let mut rng = Prng::new(seed);
        for len in 0..=70 {
            let a = fill(&mut rng, len, 0.25, 1.0);
            let b = fill(&mut rng, len, 0.25, 1.0);
            let chunked = dot_chunked(&a, &b);
            let scalar = dot_scalar(&a, &b);
            let truth = dot_truth(&a, &b);
            assert!(
                ulps(chunked, scalar) <= 8,
                "seed {seed} len {len}: chunked {chunked} vs scalar {scalar} = {} ULPs",
                ulps(chunked, scalar)
            );
            assert!(
                ulps(chunked, truth) <= 2,
                "seed {seed} len {len}: chunked {chunked} vs truth {truth} = {} ULPs",
                ulps(chunked, truth)
            );
        }
    }
}

#[test]
fn dot_chunked_mixed_sign_stays_within_condition_scaled_bound() {
    // Mixed-sign reductions can cancel to near zero, where relative
    // (ULP) comparison is meaningless; the honest bound scales with the
    // mass Σ|aᵢ·bᵢ| that actually flowed through the accumulators.
    for seed in [7, 41, 1234] {
        let mut rng = Prng::new(seed);
        for len in 1..=70 {
            let a = fill(&mut rng, len, -1.0, 1.0);
            let b = fill(&mut rng, len, -1.0, 1.0);
            let mass: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (f64::from(x) * f64::from(y)).abs())
                .sum();
            let bound = f64::from(f32::EPSILON) * mass * len.max(4) as f64;
            let truth = f64::from(dot_truth(&a, &b));
            for (name, got) in [
                ("chunked", dot_chunked(&a, &b)),
                ("scalar", dot_scalar(&a, &b)),
            ] {
                let err = (f64::from(got) - truth).abs();
                assert!(
                    err <= bound,
                    "seed {seed} len {len}: {name} off truth by {err:e} (bound {bound:e})"
                );
            }
        }
    }
}

#[test]
fn matmul_nt_chunked_matches_scalar_across_ragged_shapes() {
    let shapes = [
        (1, 1, 1),
        (2, 2, 2),
        (2, 3, 2),
        (3, 5, 4),
        (4, 6, 3),
        (2, 7, 5),
        (5, 8, 2),
        (3, 13, 3),
        (2, 17, 4),
        (1, 31, 2),
        (2, 33, 2),
        (4, 64, 4),
        (3, 65, 3),
    ];
    let mut rng = Prng::new(2024);
    for (m, k, n) in shapes {
        assert!(
            shapes.iter().any(|&(_, kk, _)| kk % LANES != 0),
            "shape sweep must include ragged inner dims"
        );
        let a = Matrix::from_vec(m, k, fill(&mut rng, m * k, 0.25, 1.0));
        let b = Matrix::from_vec(n, k, fill(&mut rng, n * k, 0.25, 1.0));
        let chunked = matmul_nt_chunked(&a, &b);
        let scalar = a.matmul_nt(&b);
        assert_eq!((chunked.rows(), chunked.cols()), (m, n));
        for i in 0..m {
            for j in 0..n {
                let c = chunked.as_slice()[i * n + j];
                let s = scalar.as_slice()[i * n + j];
                let truth = dot_truth(
                    &a.as_slice()[i * k..(i + 1) * k],
                    &b.as_slice()[j * k..(j + 1) * k],
                );
                assert!(
                    ulps(c, s) <= 8,
                    "{m}x{k}x{n} [{i},{j}]: {c} vs scalar {s} = {} ULPs",
                    ulps(c, s)
                );
                assert!(
                    ulps(c, truth) <= 2,
                    "{m}x{k}x{n} [{i},{j}]: {c} vs truth {truth} = {} ULPs",
                    ulps(c, truth)
                );
            }
        }
    }
}

/// `a · bᵀ` one dot at a time: the `iter().zip().map().sum()` chain the
/// blocked scalar `Matrix::matmul_nt` must reproduce bit for bit.
fn matmul_nt_reference(a: &Matrix, b: &Matrix) -> Vec<f32> {
    a.iter_rows()
        .flat_map(|x| {
            b.iter_rows()
                .map(move |y| x.iter().zip(y).map(|(p, q)| p * q).sum::<f32>())
        })
        .collect()
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves the
/// payload of a NaN produced by arithmetic unspecified.
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

#[test]
fn blocked_matmul_nt_is_bit_identical_to_one_dot_at_a_time() {
    // A `Matrix` has no zero dimension, so the sweep starts at one rhs row
    // and one column; 1–9 rhs rows cover zero, one and two 4-wide blocks
    // with every ragged rest, and 1–3 lhs rows cover the odd-row pairing.
    let mut rng = Prng::new(404);
    for cols in [1, 3, 64, 65] {
        for lhs_rows in 1..=3 {
            for rhs_rows in 1..=9 {
                let a =
                    Matrix::from_vec(lhs_rows, cols, fill(&mut rng, lhs_rows * cols, -1.0, 1.0));
                let b =
                    Matrix::from_vec(rhs_rows, cols, fill(&mut rng, rhs_rows * cols, -1.0, 1.0));
                let blocked = a.matmul_nt(&b);
                assert_eq!((blocked.rows(), blocked.cols()), (lhs_rows, rhs_rows));
                let reference = matmul_nt_reference(&a, &b);
                for (i, (&x, &y)) in blocked.as_slice().iter().zip(&reference).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{lhs_rows}x{cols}x{rhs_rows} [{i}]: {x} vs {y}"
                    );
                }
            }
        }
    }

    // Every product is -0.0, so only the -0.0 seed of `sum` keeps the sign.
    for cols in [1, 3, 64, 65] {
        let a = Matrix::filled(3, cols, -0.0);
        let b = Matrix::filled(9, cols, 2.0);
        let blocked = a.matmul_nt(&b);
        assert!(blocked
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_eq!(blocked.as_slice(), matmul_nt_reference(&a, &b).as_slice());
    }

    // Infinities and NaNs flow through each chain exactly as they do
    // through the reference (inf·0 = NaN, inf − inf = NaN, ±inf survive).
    let specials = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.0,
        -0.0,
        1.0,
        -3.5,
    ];
    for cols in [1, 3, 64, 65] {
        let pick = |rng: &mut Prng, n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| specials[rng.below(specials.len())])
                .collect()
        };
        let a = Matrix::from_vec(3, cols, pick(&mut rng, 3 * cols));
        let b = Matrix::from_vec(9, cols, pick(&mut rng, 9 * cols));
        let blocked = a.matmul_nt(&b);
        for (i, (&x, &y)) in blocked
            .as_slice()
            .iter()
            .zip(&matmul_nt_reference(&a, &b))
            .enumerate()
        {
            assert!(same_bits(x, y), "cols {cols} [{i}]: {x} vs {y}");
        }
    }
}

/// The short-term candidates of a learner, in store order.
fn short_term_of(learner: &mut Chameleon) -> Vec<StoredSample> {
    let mut out = Vec::new();
    learner.visit_stores(&mut |placement, sample| {
        if placement == StorePlacement::OnChipSram {
            out.push(sample.clone());
        }
    });
    out
}

#[test]
fn batched_eq6_pick_equals_argmax_of_per_candidate_scores() {
    let spec = DatasetSpec::core50_tiny();
    let scenario = DomainIlScenario::generate(&spec, 6);
    let model = ModelConfig::for_spec(&spec);
    let stream = StreamConfig::default();
    // A 3-slot long-term store holds at most three classes, so some
    // short-term candidates have no prototype; a 60-slot one holds them all.
    for (long_term_capacity, expect_unprototyped) in [(3, true), (60, false)] {
        let config = ChameleonConfig {
            long_term_capacity,
            ..ChameleonConfig::default()
        };
        let mut learner = Chameleon::new(&model, config, 21);
        for domain in 0..2 {
            for batch in scenario.domain_stream(domain, &stream, 40 + domain as u64) {
                learner.observe(&batch);
            }
        }
        let candidates = short_term_of(&mut learner);
        let scores: Vec<Option<f32>> = candidates
            .iter()
            .map(|s| learner.prototype_kl_score(s))
            .collect();
        assert_eq!(
            scores.iter().any(Option::is_none),
            expect_unprototyped,
            "Ml={long_term_capacity}: scores {scores:?}"
        );
        assert!(scores.iter().any(Option::is_some), "{scores:?}");
        // Argmax over the per-candidate scores: a class with no prototype
        // scores f32::MAX, strict `>` keeps the first of equal scores.
        let mut want = 0;
        let mut best = f32::NEG_INFINITY;
        for (j, score) in scores.iter().enumerate() {
            let score = score.unwrap_or(f32::MAX);
            if score > best {
                (want, best) = (j, score);
            }
        }
        // tanh is only non-decreasing, so the comparison means something
        // only while the winning score is not tied under it.
        let ties = scores
            .iter()
            .filter(|s| s.unwrap_or(f32::MAX) == best)
            .count();
        assert!(best == f32::MAX || ties == 1, "tied winners: {scores:?}");
        assert_eq!(
            learner.prototype_kl_pick(),
            Some(want),
            "Ml={long_term_capacity}: scores {scores:?}"
        );
    }
}

#[test]
fn softmax_chunked_matches_scalar_within_ulps() {
    let mut rng = Prng::new(77);
    for n in [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 31, 32, 33, 50, 64, 65, 100,
    ] {
        let logits = fill(&mut rng, n, -4.0, 4.0);
        let chunked = softmax_chunked(&logits);
        let scalar = ops::softmax(&logits);
        assert_eq!(chunked.len(), scalar.len());
        let argmax = |p: &[f32]| {
            p.iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
                .map(|(i, _)| i)
        };
        assert_eq!(argmax(&chunked), argmax(&scalar), "n={n} argmax moved");
        let total: f32 = chunked.iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "n={n} sums to {total}");
        for (i, (&c, &s)) in chunked.iter().zip(&scalar).enumerate() {
            assert!(
                ulps(c, s) <= 4,
                "n={n} [{i}]: {c} vs {s} = {} ULPs",
                ulps(c, s)
            );
        }
    }
    // The max scan is associative, so degenerate inputs take the exact
    // same uniform fallback as the scalar path — bit-identical.
    for degenerate in [vec![f32::NEG_INFINITY; 5], vec![f32::NAN; 3]] {
        let c = softmax_chunked(&degenerate);
        let s = ops::softmax(&degenerate);
        assert_eq!(
            c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn kernel_dispatch_is_bit_exact_per_path() {
    let mut rng = Prng::new(5);
    let logits = fill(&mut rng, 11, -3.0, 3.0);
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(Kernel::Scalar.softmax(&logits)),
        bits(ops::softmax(&logits))
    );
    assert_eq!(
        bits(Kernel::Chunked.softmax(&logits)),
        bits(softmax_chunked(&logits))
    );
}

#[test]
fn linear_forward_with_chunked_stays_close_to_scalar() {
    // Kaiming weights are mixed-sign, so individual outputs can cancel
    // toward zero; the bound is hybrid — tight in ULPs away from zero,
    // absolute near it.
    let mut rng = Prng::new(99);
    for in_features in [5, 13, 16, 33] {
        let layer = Linear::new(in_features, 7, &mut rng);
        let x = Matrix::from_vec(3, in_features, fill(&mut rng, 3 * in_features, -1.0, 1.0));
        let scalar = layer.forward_with(&x, Kernel::Scalar);
        let chunked = layer.forward_with(&x, Kernel::Chunked);
        assert_eq!(
            layer.forward(&x),
            scalar,
            "forward() must be the scalar path"
        );
        for (i, (&c, &s)) in chunked.as_slice().iter().zip(scalar.as_slice()).enumerate() {
            assert!(
                ulps(c, s) <= 8 || (c - s).abs() <= 1e-6,
                "in={in_features} [{i}]: {c} vs {s} ({} ULPs)",
                ulps(c, s)
            );
        }
    }
}

#[test]
fn fused_decode_into_is_bit_identical_to_decode() {
    let mut rng = Prng::new(31);
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let values = fill(&mut rng, 19, -10.0, 10.0);
        let blob = encode_latent(precision, &values);
        let (tag, decoded) = decode_latent(&blob).expect("intact blob");
        // Pre-seeded buffer: the fused path appends after the sentinel.
        let mut out = vec![42.0f32];
        let tag_into = decode_latent_into(&blob, &mut out).expect("intact blob");
        assert_eq!(tag, precision);
        assert_eq!(tag_into, precision);
        assert_eq!(out[0].to_bits(), 42.0f32.to_bits());
        assert_eq!(
            out[1..].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // On error the buffer is untouched.
        let mut out = vec![7.0f32];
        assert!(decode_latent_into(&blob[..3], &mut out).is_err());
        assert_eq!(out, vec![7.0f32]);
    }
}

#[test]
fn quantized_replay_accuracy_delta_is_bounded() {
    // The end-to-end half of the ablation
    // (results/ablation_quantized_latent.md): storing the replay
    // buffers through the int8 codec *and* switching the head to the
    // chunked kernels must stay within run-to-run noise of the f32
    // baseline. Seed std on this benchmark is ~1.5 points; 3.0 is the
    // enforced bound.
    let spec = DatasetSpec::core50_tiny();
    let scenario = DomainIlScenario::generate(&spec, 1);
    let model = ModelConfig::for_spec(&spec);
    let trainer = Trainer::new(StreamConfig::default());
    let acc_at = |precision: Precision| {
        let config = ChameleonConfig {
            long_term_capacity: 60,
            precision,
            ..ChameleonConfig::default()
        };
        trainer
            .run_many(
                &scenario,
                |s| Box::new(Chameleon::new(&model, config.clone(), s)) as Box<dyn Strategy>,
                &[1, 2, 3],
            )
            .acc_all
            .mean
    };
    let f32_acc = acc_at(Precision::F32);
    let int8_acc = acc_at(Precision::Int8);
    assert!(
        (f32_acc - int8_acc).abs() <= 3.0,
        "quantized accuracy drifted: f32 {f32_acc} vs int8 {int8_acc}"
    );
}
