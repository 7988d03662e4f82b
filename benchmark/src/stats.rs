//! Sample statistics used by every pass: nearest-rank percentiles, means,
//! harmonic-mean rates. The geometric mean is `gcbfs_core::stats`'s.

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it. `pct` in `(0, 100]`.
///
/// # Panics
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The Graph500 harmonic-mean rate: total work over total time, which is
/// the harmonic mean of the per-op rates weighted by work.
pub fn harmonic_rate(work_per_op: &[f64], seconds_per_op: &[f64]) -> f64 {
    work_per_op.iter().sum::<f64>() / seconds_per_op.iter().sum::<f64>()
}

/// The spread the benchmark's driver holds against a metric's bound:
/// the distance between the first and the third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (exclusive method). Needs at least two samples.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    assert!(samples.len() >= 2, "quartiles of fewer than two samples");
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let (len, m) = (x.len(), x.len() + 1);
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 90.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Order of the input does not matter; even counts take the lower
        // middle (nearest rank, no interpolation).
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 0.5), 1.0);
    }

    #[test]
    fn harmonic_and_geometric_means_on_known_vectors() {
        // Two ops of equal work at 1 and 3 units/s: harmonic mean 1.5.
        assert_eq!(harmonic_rate(&[3.0, 3.0], &[3.0, 1.0]), 1.5);
        assert!((gcbfs_core::stats::geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartile_spread(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), 1.0);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((quartile_spread(&[10.0, 12.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
