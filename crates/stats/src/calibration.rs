//! Calibration diagnostics: quantile-binned calibration curves (the paper's
//! Fig. 6) and expected/maximum calibration error.

use crate::error::StatsError;
use serde::{Deserialize, Serialize};

/// One point of a calibration curve: a group of samples with similar
/// predicted certainty and their observed correctness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationPoint {
    /// Mean predicted certainty (1 − uncertainty) in the group.
    pub predicted_certainty: f64,
    /// Observed fraction of correct outcomes in the group.
    pub observed_correctness: f64,
    /// Number of samples in the group.
    pub count: usize,
}

impl CalibrationPoint {
    /// Signed calibration gap; positive values mean *underconfidence*
    /// (observed correctness exceeds predicted certainty), negative values
    /// mean *overconfidence*.
    pub fn gap(&self) -> f64 {
        self.observed_correctness - self.predicted_certainty
    }
}

/// A calibration curve over quantile bins of predicted certainty, matching
/// the construction of the paper's Fig. 6 ("quantiles of the predicted
/// certainty are plotted against their actual correctness in 10% steps").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationCurve {
    /// Points ordered by increasing predicted certainty.
    pub points: Vec<CalibrationPoint>,
}

impl CalibrationCurve {
    /// Builds a calibration curve from per-sample uncertainties and failure
    /// indicators using `bins` quantile groups (the paper uses 10).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] on empty/mismatched inputs, `bins == 0`, or
    /// non-probability uncertainties.
    ///
    /// # Examples
    ///
    /// ```
    /// use tauw_stats::calibration::CalibrationCurve;
    ///
    /// let u = [0.1, 0.2, 0.3, 0.4];
    /// let failed = [false, false, true, false];
    /// let curve = CalibrationCurve::from_uncertainties(&u, &failed, 2)?;
    /// assert_eq!(curve.points.len(), 2);
    /// # Ok::<(), tauw_stats::StatsError>(())
    /// ```
    pub fn from_uncertainties(
        uncertainties: &[f64],
        failures: &[bool],
        bins: usize,
    ) -> Result<Self, StatsError> {
        if uncertainties.is_empty() {
            return Err(StatsError::EmptyInput {
                name: "uncertainties",
            });
        }
        if uncertainties.len() != failures.len() {
            return Err(StatsError::LengthMismatch {
                left: uncertainties.len(),
                right: failures.len(),
            });
        }
        if bins == 0 {
            return Err(StatsError::InvalidArgument {
                reason: "bins must be positive",
            });
        }
        for &u in uncertainties {
            crate::error::check_probability("uncertainty", u)?;
        }
        let n = uncertainties.len();
        // Sort by predicted certainty ascending.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ca = 1.0 - uncertainties[a];
            let cb = 1.0 - uncertainties[b];
            ca.total_cmp(&cb)
        });
        let per = n.div_ceil(bins);
        let mut points = Vec::with_capacity(bins);
        for chunk in order.chunks(per.max(1)) {
            let certainty =
                chunk.iter().map(|&i| 1.0 - uncertainties[i]).sum::<f64>() / chunk.len() as f64;
            let correct =
                chunk.iter().filter(|&&i| !failures[i]).count() as f64 / chunk.len() as f64;
            points.push(CalibrationPoint {
                predicted_certainty: certainty,
                observed_correctness: correct,
                count: chunk.len(),
            });
        }
        Ok(CalibrationCurve { points })
    }

    /// Expected calibration error: count-weighted mean absolute gap.
    pub fn ece(&self) -> f64 {
        let total: usize = self.points.iter().map(|p| p.count).sum();
        if total == 0 {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.count as f64 * p.gap().abs())
            .sum::<f64>()
            / total as f64
    }

    /// Maximum calibration error: largest absolute gap over groups.
    pub fn mce(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.gap().abs())
            .fold(0.0, f64::max)
    }

    /// Count-weighted mean *signed* gap; negative values indicate net
    /// overconfidence.
    pub fn mean_signed_gap(&self) -> f64 {
        let total: usize = self.points.iter().map(|p| p.count).sum();
        if total == 0 {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.count as f64 * p.gap())
            .sum::<f64>()
            / total as f64
    }

    /// Range of predicted certainties spanned by the curve (the paper notes
    /// the taUW has the widest range of all approaches).
    pub fn certainty_range(&self) -> f64 {
        let min = self
            .points
            .iter()
            .map(|p| p.predicted_certainty)
            .fold(f64::INFINITY, f64::min);
        let max = self
            .points
            .iter()
            .map(|p| p.predicted_certainty)
            .fold(f64::NEG_INFINITY, f64::max);
        if self.points.is_empty() {
            0.0
        } else {
            max - min
        }
    }
}

/// Spiegelhalter's Z statistic for calibration: under the null hypothesis
/// that every forecast `p_i` equals the true failure probability of case
/// `i`, `Z ~ N(0, 1)` asymptotically. `|Z| > 1.96` rejects calibration at
/// the 5% level; the *sign* indicates the direction (positive = observed
/// failures exceed forecasts = overconfident estimates).
///
/// # Errors
///
/// Returns [`StatsError`] on empty/mismatched inputs, non-probability
/// forecasts, or if every forecast is exactly 0, 0.5 or 1 (the statistic's
/// variance is zero there).
///
/// # Examples
///
/// ```
/// use tauw_stats::calibration::spiegelhalter_z;
///
/// // Forecasts of 0.2 with exactly one failure in five: well calibrated.
/// let forecasts = [0.2; 100];
/// let failures: Vec<bool> = (0..100).map(|i| i % 5 == 0).collect();
/// let z = spiegelhalter_z(&forecasts, &failures)?;
/// assert!(z.abs() < 0.1);
/// # Ok::<(), tauw_stats::StatsError>(())
/// ```
pub fn spiegelhalter_z(forecasts: &[f64], failures: &[bool]) -> Result<f64, StatsError> {
    if forecasts.is_empty() {
        return Err(StatsError::EmptyInput { name: "forecasts" });
    }
    if forecasts.len() != failures.len() {
        return Err(StatsError::LengthMismatch {
            left: forecasts.len(),
            right: failures.len(),
        });
    }
    let mut numerator = 0.0;
    let mut variance = 0.0;
    for (&p, &y) in forecasts.iter().zip(failures) {
        crate::error::check_probability("forecast", p)?;
        let o = if y { 1.0 } else { 0.0 };
        let w = 1.0 - 2.0 * p;
        numerator += (o - p) * w;
        variance += w * w * p * (1.0 - p);
    }
    if variance <= 0.0 {
        return Err(StatsError::InvalidArgument {
            reason: "all forecasts are 0, 0.5 or 1; the Z statistic has zero variance there",
        });
    }
    Ok(numerator / variance.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spiegelhalter_z_near_zero_when_calibrated() {
        // p = 0.2 with exactly 20% failures.
        let forecasts = [0.2; 200];
        let failures: Vec<bool> = (0..200).map(|i| i % 5 == 0).collect();
        let z = spiegelhalter_z(&forecasts, &failures).unwrap();
        assert!(z.abs() < 0.05, "z = {z}");
    }

    #[test]
    fn spiegelhalter_z_positive_for_overconfident() {
        // Claim 1% risk, observe 20% failures.
        let forecasts = [0.01; 200];
        let failures: Vec<bool> = (0..200).map(|i| i % 5 == 0).collect();
        let z = spiegelhalter_z(&forecasts, &failures).unwrap();
        assert!(z > 2.0, "z = {z} should strongly reject");
    }

    #[test]
    fn spiegelhalter_z_negative_for_underconfident() {
        // Claim 40% risk, observe none.
        let forecasts = [0.4; 100];
        let failures = [false; 100];
        let z = spiegelhalter_z(&forecasts, &failures).unwrap();
        assert!(z < -2.0, "z = {z}");
    }

    #[test]
    fn spiegelhalter_z_rejects_degenerate_inputs() {
        assert!(spiegelhalter_z(&[], &[]).is_err());
        assert!(spiegelhalter_z(&[0.5], &[]).is_err());
        assert!(spiegelhalter_z(&[0.0, 1.0], &[false, true]).is_err());
        assert!(spiegelhalter_z(&[1.5], &[true]).is_err());
    }

    #[test]
    fn perfectly_calibrated_curve_has_zero_ece() {
        // 10% uncertainty, exactly 1 failure in 10.
        let u = [0.1; 10];
        let mut failed = [false; 10];
        failed[0] = true;
        let curve = CalibrationCurve::from_uncertainties(&u, &failed, 1).unwrap();
        assert!(curve.ece() < 1e-12);
        assert!(curve.mce() < 1e-12);
    }

    #[test]
    fn overconfident_model_has_negative_gap() {
        // Claims 1% uncertainty but fails half the time.
        let u = [0.01; 10];
        let failed = [
            true, false, true, false, true, false, true, false, true, false,
        ];
        let curve = CalibrationCurve::from_uncertainties(&u, &failed, 1).unwrap();
        assert!(curve.points[0].gap() < -0.4);
        assert!(curve.mean_signed_gap() < 0.0);
    }

    #[test]
    fn underconfident_model_has_positive_gap() {
        let u = [0.5; 10];
        let failed = [false; 10];
        let curve = CalibrationCurve::from_uncertainties(&u, &failed, 1).unwrap();
        assert!(curve.points[0].gap() > 0.4);
    }

    #[test]
    fn points_sorted_by_certainty() {
        let u = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 0.05];
        let failed = [false; 10];
        let curve = CalibrationCurve::from_uncertainties(&u, &failed, 5).unwrap();
        for w in curve.points.windows(2) {
            assert!(w[0].predicted_certainty <= w[1].predicted_certainty);
        }
        let total: usize = curve.points.iter().map(|p| p.count).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn ten_bins_matches_paper_construction() {
        let u: Vec<f64> = (0..1000).map(|i| i as f64 / 2000.0).collect();
        let failed: Vec<bool> = (0..1000).map(|i| i % 10 == 0).collect();
        let curve = CalibrationCurve::from_uncertainties(&u, &failed, 10).unwrap();
        assert_eq!(curve.points.len(), 10);
        for p in &curve.points {
            assert_eq!(p.count, 100);
        }
    }

    #[test]
    fn certainty_range_widens_with_spread() {
        let narrow =
            CalibrationCurve::from_uncertainties(&[0.1, 0.12, 0.11, 0.13], &[false; 4], 2).unwrap();
        let wide =
            CalibrationCurve::from_uncertainties(&[0.01, 0.3, 0.6, 0.9], &[false; 4], 2).unwrap();
        assert!(wide.certainty_range() > narrow.certainty_range());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(CalibrationCurve::from_uncertainties(&[], &[], 10).is_err());
        assert!(CalibrationCurve::from_uncertainties(&[0.5], &[], 10).is_err());
        assert!(CalibrationCurve::from_uncertainties(&[0.5], &[true], 0).is_err());
        assert!(CalibrationCurve::from_uncertainties(&[1.5], &[true], 10).is_err());
    }
}
