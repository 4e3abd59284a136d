//! Percentiles over raw samples.
//!
//! Every reported percentile is computed here from the raw per-interval
//! samples. The runtime's `HistogramSummary` percentiles are log2-bucket
//! interpolations and are deliberately not used.

/// The nearest-rank `q`-th percentile (`0 < q ≤ 100`) of `samples`: the
/// smallest sample with at least `q`% of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank `⌈q/100 · n⌉`, clamped to `1..=n`.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the `q`-th percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: the smallest value `v` among the samples such that at least
    /// `q`% of all samples are ≤ `v`, found by scanning every candidate.
    fn oracle(samples: &[f64], q: f64) -> f64 {
        let n = samples.len() as f64;
        let mut candidates = samples.to_vec();
        candidates.sort_by(f64::total_cmp);
        for v in candidates {
            let at_or_below = samples.iter().filter(|s| **s <= v).count() as f64;
            if at_or_below * 100.0 >= q * n - 1e-9 {
                return v;
            }
        }
        unreachable!("the maximum always qualifies")
    }

    #[test]
    fn matches_a_sorted_rank_oracle() {
        let mut x = 0x1234_5678_u64;
        for n in [1usize, 2, 3, 7, 10, 19, 20, 21, 100, 200, 201, 577] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    // Coarse values so ties occur.
                    ((x >> 40) % 50) as f64 / 4.0
                })
                .collect();
            for q in [1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
                assert_eq!(percentile(&samples, q), oracle(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn p95_of_the_minimum_run_leaves_ten_samples_beyond() {
        // Every workload times at least 200 slots.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(samples_beyond(576, 95.0) >= 10);
        assert!(samples_beyond(199, 95.0) < 10);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 100.0), 4.0);
    }
}
