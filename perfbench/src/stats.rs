//! Percentiles from raw per-operation samples.
//!
//! Every latency the benchmark reports is computed here from the full list
//! of measured operations, never from a bucketed histogram. A tail
//! percentile is only reported where at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer samples the highest percentile that still has
//! that many is reported instead, together with the sample count.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the value, which percentile it actually is,
/// and how many samples it was computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// Value at the percentile (same unit as the samples).
    pub value: f64,
    /// Percentile actually reported, in `(0, 100]`.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps binary rounding of `q` (0.99 is not exact) from
    // pushing an exact rank up by one.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Median (nearest rank) of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let k = rank(0.5, sorted.len());
    Some(Pct {
        value: sorted[k],
        pct: 100.0 * (k + 1) as f64 / sorted.len() as f64,
        n: sorted.len(),
    })
}

/// The highest percentile at or below `q` (a fraction, e.g. 0.99) that has
/// at least [`MIN_BEYOND`] samples beyond it; `None` with too few samples.
pub fn tail(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let sorted = sorted(samples);
    let k = rank(q, n).min(n - 1 - MIN_BEYOND);
    Some(Pct {
        value: sorted[k],
        pct: 100.0 * (k + 1) as f64 / n as f64,
        n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    fn beyond(samples: &[f64], p: &Pct) -> usize {
        samples.iter().filter(|&&v| v > p.value).count()
    }

    #[test]
    fn p99_is_exact_once_ten_samples_lie_beyond_it() {
        let s = ramp(1000);
        let p = tail(&s, 0.99).unwrap();
        assert_eq!(p.value, 989.0);
        assert_eq!(p.pct, 99.0);
        assert_eq!(beyond(&s, &p), 10);
    }

    #[test]
    fn p99_falls_back_one_rank_below_a_thousand_samples() {
        let s = ramp(999);
        let p = tail(&s, 0.99).unwrap();
        assert_eq!(beyond(&s, &p), 10);
        assert!(p.pct < 99.0, "{p:?}");
        assert_eq!(p.value, 988.0);
    }

    #[test]
    fn smallest_sample_set_reports_its_minimum() {
        let s = ramp(11);
        let p = tail(&s, 0.99).unwrap();
        assert_eq!(p.value, 0.0);
        assert_eq!(beyond(&s, &p), 10);
        assert!(tail(&ramp(10), 0.99).is_none());
        assert!(tail(&[], 0.99).is_none());
    }

    #[test]
    fn large_sets_keep_the_requested_percentile() {
        let s = ramp(100_000);
        let p = tail(&s, 0.99).unwrap();
        assert_eq!(p.value, 98_999.0);
        assert_eq!(p.pct, 99.0);
        assert_eq!(p.n, 100_000);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap().value, 2.0);
        assert_eq!(median(&[5.0]).unwrap().value, 5.0);
        assert!(median(&[]).is_none());
    }
}
