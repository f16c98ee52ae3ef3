//! Chunked, autovectorizable hot-path kernels.
//!
//! The scalar [`Matrix::matmul_nt`] computes each output element with a
//! single sequential `mul → add` chain; it overlaps the chains of
//! different outputs, but no chain can be split into packed SIMD lanes
//! without changing its rounding order. The kernels here restructure
//! the same reductions into `LANES` *independent* accumulator streams
//! over `chunks_exact` blocks — exactly the shape LLVM's loop vectorizer
//! turns into packed SIMD adds — with a scalar pass over the ragged tail.
//!
//! # Numeric contract
//!
//! Reassociating a float reduction changes which roundings happen, so
//! chunked results are **not** guaranteed bit-identical to the scalar
//! reference. The equivalence suite (`tests/kernel_equivalence.rs`)
//! pins the contract instead: over every tested well-conditioned shape,
//! including ragged tails, each chunked dot product lands within
//! **2 ULPs** of the correctly-rounded f64 ground truth and within
//! **8 ULPs** of the scalar reference — the slack is the scalar chain's
//! own drift (one dependent sum reaches 5 ULPs from truth by length 70;
//! the four-lane tree stays at 2, having shorter dependent chains).
//! Mixed-sign reductions, where cancellation makes ULP distance
//! meaningless, carry a condition-scaled absolute bound instead. `max`
//! is associative, so the chunked softmax max-scan is bit-identical;
//! only its exp-sum carries the ULP bound.
//!
//! Because bit-for-bit replay determinism is a cross-crate contract
//! (golden checkpoints, fleet-vs-solo equality), the default `f32`
//! precision keeps the scalar kernels; the chunked path is selected
//! only alongside the quantized latent codec, where every run on either
//! side of a comparison uses the same kernel.

use crate::matrix::Matrix;

/// Independent accumulator streams per reduction. Four f32 lanes fill a
/// 128-bit vector register — the widest unit portable baselines
/// (SSE2/NEON) guarantee — and wider targets simply unroll further.
pub const LANES: usize = 4;

/// Chunked dot product: `LANES` independent partial sums over the
/// aligned prefix, scalar accumulation over the ragged tail, one final
/// reassociated combine.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_chunked(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_chunked length mismatch");
    let mut acc = [0.0f32; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for lane in 0..LANES {
            // Plain mul + add (not `mul_add`): on targets without native
            // FMA the fused form lowers to a libm call, which blocks
            // vectorization entirely; packed mul + packed add vectorize
            // on every baseline (SSE2/NEON).
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Chunked `A · Bᵀ` — the trainable head's forward projection
/// (`x · Wᵀ`), restructured so every output element is a
/// [`dot_chunked`] over two contiguous rows.
///
/// # Panics
///
/// Panics if the inner dimensions differ (`a.cols != b.cols`).
pub fn matmul_nt_chunked(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt_chunked shape mismatch: ({}x{}) · ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut data = Vec::with_capacity(m * n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        for j in 0..n {
            data.push(dot_chunked(a_row, &b_data[j * k..(j + 1) * k]));
        }
    }
    Matrix::from_vec(m, n, data)
}

/// Chunked numerically stable softmax. The max scan is chunked but
/// bit-identical to the scalar one (`max` is associative); the exp-sum
/// uses `LANES` accumulators and carries the module-level ULP bound.
/// Degenerate inputs (all `-inf` / NaN) fall back to uniform exactly
/// like [`crate::ops::softmax`].
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax_chunked(logits: &[f32]) -> Vec<f32> {
    assert!(!logits.is_empty(), "softmax_chunked of empty slice");
    let mut maxes = [f32::NEG_INFINITY; LANES];
    let mut chunks = logits.chunks_exact(LANES);
    for chunk in &mut chunks {
        for lane in 0..LANES {
            maxes[lane] = maxes[lane].max(chunk[lane]);
        }
    }
    let mut max = maxes.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    max = chunks.remainder().iter().copied().fold(max, f32::max);

    let mut out: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let mut acc = [0.0f32; LANES];
    let mut chunks = out.chunks_exact(LANES);
    for chunk in &mut chunks {
        for lane in 0..LANES {
            acc[lane] += chunk[lane];
        }
    }
    let tail: f32 = chunks.remainder().iter().sum();
    let sum = (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail;
    if sum > 0.0 && sum.is_finite() {
        for v in &mut out {
            *v /= sum;
        }
    } else {
        let u = 1.0 / out.len() as f32;
        out.fill(u);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn dot_chunked_matches_scalar_on_small_exact_cases() {
        // Integer-valued inputs keep every partial sum exact, so the
        // chunked and scalar orders must agree to the bit.
        let a: Vec<f32> = (1..=11).map(|i| i as f32).collect();
        let b: Vec<f32> = (1..=11).map(|i| (12 - i) as f32).collect();
        let scalar: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_chunked(&a, &b), scalar);
        assert_eq!(dot_chunked(&[], &[]), 0.0);
        assert_eq!(dot_chunked(&[3.0], &[7.0]), 21.0);
    }

    #[test]
    fn matmul_nt_chunked_matches_scalar_on_exact_cases() {
        let mut rng = Prng::new(11);
        // Small integers: both orders are exact, results bit-identical.
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (4, 7, 3), (2, 16, 2)] {
            let a = Matrix::from_vec(
                m,
                k,
                (0..m * k).map(|_| (rng.below(9) as f32) - 4.0).collect(),
            );
            let b = Matrix::from_vec(
                n,
                k,
                (0..n * k).map(|_| (rng.below(9) as f32) - 4.0).collect(),
            );
            assert_eq!(matmul_nt_chunked(&a, &b), a.matmul_nt(&b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn softmax_chunked_sums_to_one_and_handles_degenerates() {
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 50] {
            let logits: Vec<f32> = (0..n).map(|i| (i as f32 * 0.83).sin() * 3.0).collect();
            let p = softmax_chunked(&logits);
            let total: f32 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "n={n} sums to {total}");
        }
        let degenerate = softmax_chunked(&[f32::NEG_INFINITY; 3]);
        assert_eq!(degenerate, vec![1.0 / 3.0; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_chunked_rejects_mismatched_lengths() {
        dot_chunked(&[1.0], &[1.0, 2.0]);
    }
}
