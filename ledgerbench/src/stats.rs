//! Order statistics with the benchmark's percentile rule.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it is the slowest handful of samples, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank `pct`-th percentile of `samples`.
///
/// # Errors
///
/// Refuses (with the sample count) when fewer than [`MIN_BEYOND`] samples
/// lie beyond the percentile's rank.
pub fn percentile(samples: &[f64], pct: usize) -> Result<f64, String> {
    let n = samples.len();
    let rank = (n * pct).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} needs at least {MIN_BEYOND} samples beyond it, but {n} samples leave {beyond}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), Ok(500.0));
        assert_eq!(percentile(&samples, 99), Ok(990.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(
            percentile(&thousand, 99).is_ok(),
            "1000 samples leave 10 beyond p99"
        );
        let short = &thousand[..999];
        let err = percentile(short, 99).unwrap_err();
        assert!(err.contains("999 samples leave 9"), "{err}");
        // The soak's flaw: a 20-wave "p99" is the single slowest wave.
        assert!(percentile(&thousand[..20], 99).is_err());
        assert!(percentile(&thousand[..20], 50).is_ok());
        assert!(percentile(&thousand[..19], 50).is_err());
        assert!(percentile(&[], 50).is_err());
    }
}
