//! Descriptive statistics: streaming moments (Welford), quantiles and
//! histograms used throughout the experiment harness.

use crate::error::StatsError;
use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean/variance accumulator (Welford's
/// algorithm).
///
/// # Examples
///
/// ```
/// use tauw_stats::descriptive::Moments;
///
/// let mut m = Moments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 4);
/// assert!((m.mean() - 2.5).abs() < 1e-12);
/// assert!((m.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (divides by `n − 1`; 0 for fewer than two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Minimum observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Moments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut m = Moments::new();
        m.extend(iter);
        m
    }
}

/// Quantile of a sample with linear interpolation between order statistics
/// (type-7, the common default). `q ∈ [0, 1]`.
///
/// # Errors
///
/// Returns [`StatsError`] on empty input or `q` outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput { name: "values" });
    }
    crate::error::check_probability("q", q)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(quantile_sorted(&sorted, q))
}

/// Same as [`quantile`] but assumes `sorted` is already in ascending order;
/// useful when many quantiles are needed from the same sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// A fixed-width histogram over `[lo, hi)` used by the Fig. 5 experiment
/// (distribution of uncertainty across cases).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if `bins == 0` or the range is empty/NaN.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidArgument {
                reason: "bins must be positive",
            });
        }
        // The partial_cmp form also rejects NaN edges.
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return Err(StatsError::InvalidArgument {
                reason: "histogram range must be non-empty",
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(low_edge, high_edge)` for bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Total observations recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of observations in bin `i` (0 if no observations).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_two_pass() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.731).sin() * 5.0 + 2.0)
            .collect();
        let m: Moments = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.sample_variance() - var).abs() < 1e-12);
        assert_eq!(m.count(), 100);
    }

    #[test]
    fn empty_moments_are_safe() {
        let m = Moments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
    }

    #[test]
    fn quantile_median_and_extremes() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(quantile(&xs, 0.5).unwrap(), 3.0);
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 5.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_bad_inputs() {
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        for x in [0.1, 0.3, 0.6, 0.9, 1.5, -0.2] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
        assert_eq!(h.bin_edges(0), (0.0, 0.25));
        assert!((h.fraction(0) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_bad_construction() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 0.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
    }
}
