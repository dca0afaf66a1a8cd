//! Split-conformal quality impact model: the first **non-tree** shape of
//! the [`TaQim`](crate::calibration::TaQim) backend enum.
//!
//! Split (inductive) conformal prediction, MAPIE-style: a simple base
//! scorer `μ̂(x)` is fit on the *training* split, a one-sided
//! nonconformity quantile `q̂` is calibrated on the held-out *calibration*
//! split, and the served bound is `clamp(μ̂(x) + q̂, 0, 1)`. By
//! exchangeability of the calibration and test draws, the bound covers the
//! realized failure indicator — `y ≤ μ̂(x) + q̂` — with probability at
//! least the configured confidence `1 − α`, **without any distributional
//! assumption** on the quality factors. This is the distribution-free
//! counterpart to the per-leaf Clopper–Pearson guarantee of the tree
//! backends, and the head-to-head the `conformal_head_to_head` experiment
//! runs.
//!
//! Everything is deterministic and integer-grid shaped like the rest of
//! the codebase:
//!
//! * the base scorer is a fixed per-feature **histogram regressor** (no
//!   randomness, no iterative fitting): each feature axis is cut into
//!   `bins` equal-width cells over the training range, each cell stores
//!   its integer failure/total counts, and `μ̂(x)` is the mean of the
//!   per-feature cell rates (`NaN` features and empty cells fall back to
//!   the global training failure rate);
//! * the conformal rank `k = ⌈(n+1)·confidence⌉` is computed in **exact
//!   integer arithmetic on the 2⁻⁵³ certainty grid**
//!   ([`CERTAINTY_UNIT_ONE`]) — no float comparison decides which order
//!   statistic is served;
//! * nonconformity ties are resolved by `f64::total_cmp` (a total order),
//!   so the sorted score vector — and therefore `q̂` — is bit-identical
//!   across runs and thread budgets.
//!
//! The model is **leafless**: it routes nothing and keeps no per-leaf
//! sample counts, so its calibration-support introspection reports
//! [`RouteSupport::Unsupported`](crate::calibration::RouteSupport) and the
//! adaptive layer's drift split degrades to an explicit
//! [`DriftSignal::SupportUnavailable`](crate::adaptive::DriftSignal)
//! instead of fabricating a support figure.

use crate::buffer::CERTAINTY_UNIT_ONE;
use crate::calibration::CalibrationOptions;
use crate::error::CoreError;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the split-conformal backend (the base scorer's
/// shape; the confidence level comes from the shared
/// [`CalibrationOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformalOptions {
    /// Equal-width histogram cells per feature axis of the base scorer.
    pub bins: usize,
}

impl Default for ConformalOptions {
    fn default() -> Self {
        ConformalOptions { bins: 16 }
    }
}

impl ConformalOptions {
    /// Checks the options are usable before calibration starts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when `bins` is zero or
    /// implausibly large (> 65 536 cells per axis).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.bins == 0 || self.bins > 65_536 {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "conformal options: `bins` must be between 1 and 65536, got {}",
                    self.bins
                ),
            });
        }
        Ok(())
    }
}

/// A split-conformal quality impact model after calibration: histogram
/// base scorer + one-sided nonconformity quantile shift.
///
/// Two representations of the scorer's rate table are kept, mirroring the
/// pointer-vs-flat split of the tree backends:
///
/// * `bin_rates` — the nested per-feature table, the transparent form the
///   reference path reads, and the one an artifact stores;
/// * `flat_rates` — the same rates lowered row-major
///   (`feature · bins + cell`), the dense form the serving path reads,
///   derived by calibration and by loading alike and never stored.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformalQim {
    options: CalibrationOptions,
    conformal: ConformalOptions,
    n_features: usize,
    /// Per-feature lower edge of the training range (`0.0` on a feature
    /// with no finite training value).
    feature_lo: Vec<f64>,
    /// Per-feature upper edge of the training range.
    feature_hi: Vec<f64>,
    /// Per-feature per-cell failure rates — the reference form.
    bin_rates: Vec<Vec<f64>>,
    /// Training failure rate: the fallback for `NaN` features and empty
    /// cells.
    global_rate: f64,
    /// The calibrated one-sided nonconformity quantile `q̂` (the
    /// `⌈(n+1)·confidence⌉`-th smallest score, `1.0` when the calibration
    /// split is too small for the requested confidence).
    quantile_shift: f64,
    /// Number of calibration samples the quantile was taken over.
    calibration_size: u64,
    /// The smallest bound actually served over the calibration split.
    min_served_bound: f64,
    /// Derived: `bin_rates` lowered row-major (`feature · bins + cell`) —
    /// the serving form.
    flat_rates: Vec<f64>,
}

impl Serialize for ConformalQim {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("options".to_string(), self.options.serialize()),
            ("conformal".to_string(), self.conformal.serialize()),
            ("n_features".to_string(), self.n_features.serialize()),
            ("feature_lo".to_string(), self.feature_lo.serialize()),
            ("feature_hi".to_string(), self.feature_hi.serialize()),
            ("bin_rates".to_string(), self.bin_rates.serialize()),
            ("global_rate".to_string(), self.global_rate.serialize()),
            (
                "quantile_shift".to_string(),
                self.quantile_shift.serialize(),
            ),
            (
                "calibration_size".to_string(),
                self.calibration_size.serialize(),
            ),
            (
                "min_served_bound".to_string(),
                self.min_served_bound.serialize(),
            ),
        ])
    }
}

impl Deserialize for ConformalQim {
    /// Reads the stored fields, runs [`ConformalQim::validate`] on them,
    /// and only then lowers the rate table into its serving form.
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "ConformalQim")?;
        let field = |name| serde::__field(map, name, "ConformalQim");
        let mut qim = ConformalQim {
            options: Deserialize::deserialize(field("options")?)?,
            conformal: Deserialize::deserialize(field("conformal")?)?,
            n_features: Deserialize::deserialize(field("n_features")?)?,
            feature_lo: Deserialize::deserialize(field("feature_lo")?)?,
            feature_hi: Deserialize::deserialize(field("feature_hi")?)?,
            bin_rates: Deserialize::deserialize(field("bin_rates")?)?,
            global_rate: Deserialize::deserialize(field("global_rate")?)?,
            quantile_shift: Deserialize::deserialize(field("quantile_shift")?)?,
            calibration_size: Deserialize::deserialize(field("calibration_size")?)?,
            min_served_bound: Deserialize::deserialize(field("min_served_bound")?)?,
            flat_rates: Vec::new(),
        };
        qim.validate()
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        qim.flat_rates = qim.bin_rates.concat();
        Ok(qim)
    }
}

/// The deterministic cell index of value `x` on an axis with range
/// `[lo, hi]` cut into `bins` equal-width cells; `None` routes to the
/// global-rate fallback (`NaN`). Out-of-range values clamp to the edge
/// cells, and a degenerate range puts everything in cell 0.
fn cell_index(lo: f64, hi: f64, bins: usize, x: f64) -> Option<usize> {
    if x.is_nan() {
        return None;
    }
    if hi <= lo {
        return Some(0);
    }
    let t = (x - lo) / (hi - lo) * bins as f64;
    if t <= 0.0 {
        Some(0)
    } else if t >= bins as f64 {
        Some(bins - 1)
    } else {
        Some(t as usize)
    }
}

/// The conformal rank `k = ⌈(n+1)·confidence⌉`, computed in exact integer
/// arithmetic on the 2⁻⁵³ certainty grid: `confidence` is snapped to
/// `round(confidence · 2⁵³)` grid units once, and the ceiling division is
/// integer — no float comparison decides which order statistic is served.
fn conformal_rank(n: usize, confidence: f64) -> u128 {
    let confidence_units = (confidence * CERTAINTY_UNIT_ONE as f64).round() as u128;
    ((n as u128 + 1) * confidence_units).div_ceil(CERTAINTY_UNIT_ONE)
}

impl ConformalQim {
    /// Fits the histogram base scorer on `train`, then calibrates the
    /// one-sided nonconformity quantile on `calib` (both yield
    /// `(features, failed)` pairs), at the confidence level carried by
    /// `options`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if either option set is invalid, either split
    /// is empty, or rows disagree on feature arity.
    pub fn calibrate(
        train: &[(Vec<f64>, bool)],
        calib: &[(Vec<f64>, bool)],
        options: CalibrationOptions,
        conformal: ConformalOptions,
    ) -> Result<Self, CoreError> {
        options.validate()?;
        conformal.validate()?;
        let Some((first, _)) = train.first() else {
            return Err(CoreError::InvalidInput {
                reason: "conformal training set is empty".into(),
            });
        };
        if calib.is_empty() {
            return Err(CoreError::InvalidInput {
                reason: "calibration set is empty".into(),
            });
        }
        let n_features = first.len();
        if n_features == 0 {
            return Err(CoreError::InvalidInput {
                reason: "conformal training rows carry no features".into(),
            });
        }
        for (row, _) in train.iter().chain(calib) {
            if row.len() != n_features {
                return Err(CoreError::FeatureArityMismatch {
                    expected: n_features,
                    actual: row.len(),
                });
            }
        }

        // 1. Base scorer: per-feature training range + integer cell counts.
        let bins = conformal.bins;
        let mut feature_lo = vec![f64::INFINITY; n_features];
        let mut feature_hi = vec![f64::NEG_INFINITY; n_features];
        for (row, _) in train {
            for (j, &x) in row.iter().enumerate() {
                if x.is_finite() {
                    feature_lo[j] = feature_lo[j].min(x);
                    feature_hi[j] = feature_hi[j].max(x);
                }
            }
        }
        for j in 0..n_features {
            if !feature_lo[j].is_finite() || !feature_hi[j].is_finite() {
                feature_lo[j] = 0.0;
                feature_hi[j] = 0.0;
            }
        }
        let mut cell_failures = vec![vec![0u64; bins]; n_features];
        let mut cell_totals = vec![vec![0u64; bins]; n_features];
        let mut train_failures = 0u64;
        for (row, failed) in train {
            if *failed {
                train_failures += 1;
            }
            for (j, &x) in row.iter().enumerate() {
                if let Some(cell) = cell_index(feature_lo[j], feature_hi[j], bins, x) {
                    cell_totals[j][cell] += 1;
                    if *failed {
                        cell_failures[j][cell] += 1;
                    }
                }
            }
        }
        let global_rate = train_failures as f64 / train.len() as f64;
        let bin_rates: Vec<Vec<f64>> = cell_failures
            .iter()
            .zip(&cell_totals)
            .map(|(failures, totals)| {
                failures
                    .iter()
                    .zip(totals)
                    .map(|(&f, &t)| {
                        if t == 0 {
                            global_rate
                        } else {
                            f as f64 / t as f64
                        }
                    })
                    .collect()
            })
            .collect();

        let mut qim = ConformalQim {
            options,
            conformal,
            n_features,
            feature_lo,
            feature_hi,
            flat_rates: bin_rates.concat(),
            bin_rates,
            global_rate,
            quantile_shift: 0.0,
            calibration_size: calib.len() as u64,
            min_served_bound: 1.0,
        };

        // 2. One-sided nonconformity scores on the calibration split:
        // s_i = y_i − μ̂(x_i), sorted under the f64 total order.
        let mut scores: Vec<f64> = calib
            .iter()
            .map(|(row, failed)| f64::from(u8::from(*failed)) - qim.base_score_flat(row))
            .collect();
        scores.sort_by(f64::total_cmp);
        let rank = conformal_rank(scores.len(), options.confidence);
        qim.quantile_shift = if rank > scores.len() as u128 {
            // Too few calibration samples for the requested confidence: the
            // only distribution-free bound is the vacuous one.
            1.0
        } else {
            scores[rank as usize - 1]
        };

        // 3. The attainable serving floor, as for the forest backend: the
        // smallest bound any calibration sample actually receives.
        let mut min_served = 1.0f64;
        for (row, _) in calib {
            min_served = min_served.min(qim.uncertainty(row)?);
        }
        qim.min_served_bound = min_served;
        Ok(qim)
    }

    fn check_arity(&self, features: &[f64]) -> Result<(), CoreError> {
        if features.len() != self.n_features {
            return Err(CoreError::FeatureArityMismatch {
                expected: self.n_features,
                actual: features.len(),
            });
        }
        Ok(())
    }

    /// The base scorer over the dense row-major rate table (serving form).
    fn base_score_flat(&self, features: &[f64]) -> f64 {
        let bins = self.conformal.bins;
        let mut sum = 0.0;
        for (j, &x) in features.iter().enumerate() {
            sum += match cell_index(self.feature_lo[j], self.feature_hi[j], bins, x) {
                Some(cell) => self.flat_rates[j * bins + cell],
                None => self.global_rate,
            };
        }
        sum / self.n_features as f64
    }

    /// The base scorer over the nested per-feature table (reference form);
    /// same left-to-right summation order as the serving form, so the two
    /// agree bitwise.
    fn base_score_reference(&self, features: &[f64]) -> f64 {
        let bins = self.conformal.bins;
        let mut sum = 0.0;
        for (j, &x) in features.iter().enumerate() {
            sum += match cell_index(self.feature_lo[j], self.feature_hi[j], bins, x) {
                Some(cell) => self.bin_rates[j][cell],
                None => self.global_rate,
            };
        }
        sum / self.n_features as f64
    }

    /// Distribution-free dependable uncertainty for a feature vector:
    /// `clamp(μ̂(x) + q̂, 0, 1)` over the dense rate table — a handful of
    /// array indexes, no routing, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureArityMismatch`] on the wrong arity.
    pub fn uncertainty(&self, features: &[f64]) -> Result<f64, CoreError> {
        self.check_arity(features)?;
        Ok((self.base_score_flat(features) + self.quantile_shift).clamp(0.0, 1.0))
    }

    /// Reference implementation of [`ConformalQim::uncertainty`] over the
    /// nested rate table. Kept for bit-identity verification — not a
    /// serving path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureArityMismatch`] on the wrong arity.
    pub fn uncertainty_reference(&self, features: &[f64]) -> Result<f64, CoreError> {
        self.check_arity(features)?;
        Ok((self.base_score_reference(features) + self.quantile_shift).clamp(0.0, 1.0))
    }

    /// Number of features the scorer reads.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Calibration options used (the confidence level `1 − α`).
    pub fn options(&self) -> CalibrationOptions {
        self.options
    }

    /// Conformal hyper-parameters used (the scorer shape).
    pub fn conformal_options(&self) -> ConformalOptions {
        self.conformal
    }

    /// The calibrated one-sided nonconformity quantile `q̂`.
    pub fn quantile_shift(&self) -> f64 {
        self.quantile_shift
    }

    /// Training failure rate — the scorer fallback for `NaN` features and
    /// empty histogram cells.
    pub fn global_rate(&self) -> f64 {
        self.global_rate
    }

    /// Number of calibration samples the quantile was taken over.
    pub fn calibration_size(&self) -> u64 {
        self.calibration_size
    }

    /// The smallest bound the model actually served over the calibration
    /// split — the attainability contract the tree backends give.
    pub fn min_uncertainty(&self) -> f64 {
        self.min_served_bound
    }

    /// Checks every stored field — table shapes, ranges, rates, shift and
    /// served minimum — so a truncated or hand-edited artifact fails with a
    /// clean error instead of serving garbage. Freshly calibrated models
    /// satisfy this by construction; deserialization runs it before
    /// deriving the serving table.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.options.validate()?;
        self.conformal.validate()?;
        let bins = self.conformal.bins;
        if self.n_features == 0 {
            return Err(CoreError::InvalidInput {
                reason: "conformal QIM: zero features".into(),
            });
        }
        if self.feature_lo.len() != self.n_features
            || self.feature_hi.len() != self.n_features
            || self.bin_rates.len() != self.n_features
        {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "conformal QIM: {} features but {} lower edges, {} upper edges, \
                     {} rate rows",
                    self.n_features,
                    self.feature_lo.len(),
                    self.feature_hi.len(),
                    self.bin_rates.len()
                ),
            });
        }
        for j in 0..self.n_features {
            if !self.feature_lo[j].is_finite()
                || !self.feature_hi[j].is_finite()
                || self.feature_lo[j] > self.feature_hi[j]
            {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "conformal QIM: feature {j} has an invalid range [{}, {}]",
                        self.feature_lo[j], self.feature_hi[j]
                    ),
                });
            }
            if self.bin_rates[j].len() != bins {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "conformal QIM: feature {j} carries {} cells for {} bins",
                        self.bin_rates[j].len(),
                        bins
                    ),
                });
            }
            for (cell, &rate) in self.bin_rates[j].iter().enumerate() {
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(CoreError::InvalidInput {
                        reason: format!(
                            "conformal QIM: rate {rate} at feature {j} cell {cell} lies \
                             outside [0, 1]"
                        ),
                    });
                }
            }
        }
        if !self.global_rate.is_finite() || !(0.0..=1.0).contains(&self.global_rate) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "conformal QIM: global rate {} lies outside [0, 1]",
                    self.global_rate
                ),
            });
        }
        if !self.quantile_shift.is_finite() || !(-1.0..=1.0).contains(&self.quantile_shift) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "conformal QIM: quantile shift {} lies outside [-1, 1]",
                    self.quantile_shift
                ),
            });
        }
        if self.calibration_size == 0 {
            return Err(CoreError::InvalidInput {
                reason: "conformal QIM: calibrated on zero samples".into(),
            });
        }
        if !self.min_served_bound.is_finite() || !(0.0..=1.0).contains(&self.min_served_bound) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "conformal QIM: served minimum bound {} lies outside [0, 1]",
                    self.min_served_bound
                ),
            });
        }
        // Every served value is clamp(μ̂ + q̂) with μ̂ >= 0, and clamp is
        // monotone, so clamp(q̂) is a hard floor on every servable value.
        if self.min_served_bound < self.quantile_shift.clamp(0.0, 1.0) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "conformal QIM: served minimum bound {} undercuts the quantile floor {}",
                    self.min_served_bound,
                    self.quantile_shift.clamp(0.0, 1.0)
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world with one feature: failure iff x > 0.7, plus sparse
    /// label noise so the scorer sees both classes in most cells.
    fn samples(n: usize, offset: f64) -> Vec<(Vec<f64>, bool)> {
        (0..n)
            .map(|i| {
                let x = (i as f64 + offset) / n as f64;
                let noisy = i % 97 == 0;
                (vec![x], (x > 0.7) ^ noisy)
            })
            .collect()
    }

    fn fitted(confidence: f64) -> ConformalQim {
        ConformalQim::calibrate(
            &samples(2000, 0.0),
            &samples(1500, 0.5),
            CalibrationOptions {
                confidence,
                ..Default::default()
            },
            ConformalOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn conformal_rank_matches_the_textbook_ceiling() {
        // Exactly-representable confidences reproduce ⌈(n+1)·c⌉ verbatim.
        assert_eq!(conformal_rank(9, 0.75), 8); // ⌈10·0.75⌉
        assert_eq!(conformal_rank(10, 0.75), 9); // ⌈8.25⌉
        assert_eq!(conformal_rank(7, 0.5), 4); // ⌈8·0.5⌉
                                               // 0.9 is not exactly representable: its f64 value sits just above
                                               // the rational 9/10, so ranks where (n+1)·9/10 lands on an integer
                                               // round up one step — strictly conservative (never undercovers).
        assert_eq!(conformal_rank(9, 0.9), 10);
        assert_eq!(conformal_rank(10, 0.9), 10);
        assert_eq!(conformal_rank(99, 0.9), 91);
        // α = 0.001 needs n ≥ 999 before the rank is attainable.
        assert_eq!(conformal_rank(998, 0.999), 999);
        assert_eq!(conformal_rank(999, 0.999), 999);
    }

    #[test]
    fn cell_index_is_clamped_and_nan_falls_back() {
        assert_eq!(cell_index(0.0, 1.0, 4, -3.0), Some(0));
        assert_eq!(cell_index(0.0, 1.0, 4, 0.49), Some(1));
        assert_eq!(cell_index(0.0, 1.0, 4, 7.0), Some(3));
        assert_eq!(cell_index(0.0, 1.0, 4, f64::NAN), None);
        // Degenerate range: everything lands in cell 0.
        assert_eq!(cell_index(0.5, 0.5, 4, 0.5), Some(0));
        assert_eq!(cell_index(0.5, 0.5, 4, 9.0), Some(0));
    }

    #[test]
    fn coverage_holds_on_an_exchangeable_split() {
        let qim = fitted(0.9);
        qim.validate().unwrap();
        // Empirical coverage of the one-sided bound on a fresh split drawn
        // from the same grid: y <= served(x).
        let test = samples(1100, 0.25);
        let covered = test
            .iter()
            .filter(|(row, failed)| {
                let bound = qim.uncertainty(row).unwrap();
                !*failed || bound >= 1.0 - 1e-12
            })
            .count();
        let coverage = covered as f64 / test.len() as f64;
        assert!(
            coverage >= 0.9,
            "empirical coverage {coverage} below the nominal 0.9"
        );
    }

    #[test]
    fn bound_varies_with_the_features() {
        let qim = fitted(0.9);
        let low = qim.uncertainty(&[0.1]).unwrap();
        let high = qim.uncertainty(&[0.95]).unwrap();
        assert!(high > low, "low-risk {low} vs high-risk {high}");
        assert!(qim.min_uncertainty() <= low);
    }

    #[test]
    fn serving_matches_reference_bitwise_including_nan() {
        let qim = fitted(0.95);
        let extremes = [f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
        let queries: Vec<[f64; 1]> = (0..64)
            .map(|i| {
                if i % 7 == 0 {
                    [f64::NAN]
                } else {
                    [i as f64 / 63.0]
                }
            })
            .chain(extremes.map(|x| [x]))
            .collect();
        for q in &queries {
            assert_eq!(
                qim.uncertainty(q).unwrap().to_bits(),
                qim.uncertainty_reference(q).unwrap().to_bits()
            );
        }
        // NaN falls back to the global rate, not to a poisoned estimate.
        assert!(qim.uncertainty(&[f64::NAN]).unwrap().is_finite());
        // ±inf clamp to the edge cells, like any out-of-range value.
        let served = |x: f64| qim.uncertainty(&[x]).unwrap().to_bits();
        assert_eq!(served(f64::INFINITY), served(1e300));
        assert_eq!(served(f64::INFINITY), served(2.0));
        assert_eq!(served(f64::NEG_INFINITY), served(-1e300));
        assert_eq!(served(f64::NEG_INFINITY), served(-1.0));
    }

    #[test]
    fn small_calibration_serves_the_vacuous_bound() {
        // 100 calibration samples cannot support confidence 0.999: the
        // only distribution-free bound is 1 everywhere.
        let qim = ConformalQim::calibrate(
            &samples(400, 0.0),
            &samples(100, 0.5),
            CalibrationOptions::default(),
            ConformalOptions::default(),
        )
        .unwrap();
        assert_eq!(qim.quantile_shift(), 1.0);
        assert_eq!(qim.uncertainty(&[0.1]).unwrap(), 1.0);
        qim.validate().unwrap();
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = fitted(0.9);
        let b = fitted(0.9);
        assert_eq!(a, b);
        // A higher confidence can only push the quantile (weakly) up.
        let c = fitted(0.99);
        assert!(c.quantile_shift() >= a.quantile_shift());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let train = samples(400, 0.0);
        let calib = samples(400, 0.5);
        // Empty splits.
        assert!(ConformalQim::calibrate(
            &[],
            &calib,
            CalibrationOptions::default(),
            ConformalOptions::default()
        )
        .is_err());
        assert!(ConformalQim::calibrate(
            &train,
            &[],
            CalibrationOptions::default(),
            ConformalOptions::default()
        )
        .is_err());
        // Bad options, naming the offending field.
        let err = ConformalQim::calibrate(
            &train,
            &calib,
            CalibrationOptions::default(),
            ConformalOptions { bins: 0 },
        )
        .unwrap_err();
        assert!(err.to_string().contains("`bins`"), "{err}");
        let err = ConformalQim::calibrate(
            &train,
            &calib,
            CalibrationOptions {
                confidence: 1.5,
                ..Default::default()
            },
            ConformalOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("`confidence`"), "{err}");
        // Ragged arity across the splits.
        let mut ragged = train.clone();
        ragged.push((vec![0.1, 0.2], false));
        assert!(matches!(
            ConformalQim::calibrate(
                &ragged,
                &calib,
                CalibrationOptions::default(),
                ConformalOptions::default()
            ),
            Err(CoreError::FeatureArityMismatch { .. })
        ));
        // Arity mismatch at query time.
        let qim = fitted(0.9);
        assert!(qim.uncertainty(&[0.1, 0.2]).is_err());
        assert!(qim.uncertainty_reference(&[0.1, 0.2]).is_err());
    }

    #[test]
    fn validate_catches_tampering() {
        let qim = fitted(0.9);
        // Out-of-range rate.
        let mut tampered = qim.clone();
        tampered.bin_rates[0][0] = 1.5;
        assert!(tampered.validate().is_err());
        // Undercutting served minimum. 0.9995 pushes the rank past the
        // 1500-sample calibration split, so the shift is vacuous (1.0).
        let mut tampered = fitted(0.9995);
        assert_eq!(tampered.quantile_shift, 1.0);
        tampered.min_served_bound = 0.5;
        let err = tampered.validate().unwrap_err();
        assert!(err.to_string().contains("undercuts"), "{err}");
        // Quantile shift outside [-1, 1].
        let mut tampered = qim.clone();
        tampered.quantile_shift = f64::NAN;
        assert!(tampered.validate().is_err());
    }
}
