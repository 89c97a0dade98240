//! Order statistics used by the benchmark's estimators.

/// Nearest-rank quantile of an ascending slice: the smallest element
/// with at least `q·n` of the samples at or below it.
pub fn quantile_nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median with the two middle samples averaged for even `n`.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: count the samples at or below each candidate.
    fn oracle(sorted: &[f64], q: f64) -> f64 {
        let need = q * sorted.len() as f64;
        for &x in sorted {
            let at_or_below = sorted.iter().filter(|&&y| y <= x).count() as f64;
            if at_or_below >= need {
                return x;
            }
        }
        sorted[sorted.len() - 1]
    }

    #[test]
    fn nearest_rank_matches_the_sorted_oracle() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 9, 10, 100, 4000] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 40) as f64
                })
                .collect();
            let s = sorted(&values);
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(quantile_nearest_rank(&s, q), oracle(&s, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn nearest_rank_on_known_ranks() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_nearest_rank(&s, 0.5), 5.0);
        assert_eq!(quantile_nearest_rank(&s, 0.9), 9.0);
        assert_eq!(quantile_nearest_rank(&s, 0.91), 10.0);
        assert_eq!(quantile_nearest_rank(&s, 0.0), 1.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
