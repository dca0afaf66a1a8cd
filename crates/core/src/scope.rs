//! Scope compliance model.
//!
//! The uncertainty wrapper framework combines the quality impact model with
//! a *scope compliance* model that estimates the probability that the DDM
//! is being used outside its target application scope (TAS). The paper's
//! study omits it ("all datapoints were chosen to be within the target
//! application scope"), but the framework is incomplete without one, so the
//! reproduction ships the standard construction from the framework papers:
//! per-feature boundary checks learned from training data plus a smooth
//! similarity degree.

use crate::error::CoreError;
use serde::{Deserialize, Serialize};

/// Verdict of a scope check for one input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeVerdict {
    /// Whether every feature lies inside the learned boundaries.
    pub in_scope: bool,
    /// Indices of out-of-bounds features.
    pub violations: Vec<usize>,
    /// Similarity degree in `[0, 1]`: 1 inside the scope, decaying
    /// exponentially with the normalized distance outside it. Interpreted
    /// as the scope-compliance probability.
    pub similarity: f64,
}

impl ScopeVerdict {
    /// Scope-related uncertainty `1 − similarity`.
    pub fn scope_uncertainty(&self) -> f64 {
        1.0 - self.similarity
    }
}

/// Boundary-check scope model learned from the training inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeComplianceModel {
    /// Per-feature `(min, max)` boundaries after padding.
    boundaries: Vec<(f64, f64)>,
    feature_names: Vec<String>,
}

impl ScopeComplianceModel {
    /// Learns boundaries from training feature vectors, padding each range
    /// by `padding` × range-width on both sides (padding ≥ 0).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if `rows` is empty or arities
    /// are inconsistent with `feature_names`.
    pub fn fit<'a, I>(rows: I, feature_names: Vec<String>, padding: f64) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let n_features = feature_names.len();
        let mut boundaries = vec![(f64::INFINITY, f64::NEG_INFINITY); n_features];
        let mut count = 0usize;
        for row in rows {
            if row.len() != n_features {
                return Err(CoreError::FeatureArityMismatch {
                    expected: n_features,
                    actual: row.len(),
                });
            }
            for (b, &v) in boundaries.iter_mut().zip(row) {
                b.0 = b.0.min(v);
                b.1 = b.1.max(v);
            }
            count += 1;
        }
        if count == 0 {
            return Err(CoreError::InvalidInput {
                reason: "scope model needs training rows".into(),
            });
        }
        let pad = padding.max(0.0);
        for b in &mut boundaries {
            let width = (b.1 - b.0).max(1e-12);
            b.0 -= pad * width;
            b.1 += pad * width;
        }
        Ok(ScopeComplianceModel {
            boundaries,
            feature_names,
        })
    }

    /// Learned boundaries per feature.
    pub fn boundaries(&self) -> &[(f64, f64)] {
        &self.boundaries
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Checks an input against the scope.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureArityMismatch`] on wrong arity.
    pub fn check(&self, features: &[f64]) -> Result<ScopeVerdict, CoreError> {
        if features.len() != self.boundaries.len() {
            return Err(CoreError::FeatureArityMismatch {
                expected: self.boundaries.len(),
                actual: features.len(),
            });
        }
        let mut violations = Vec::new();
        let mut log_similarity = 0.0;
        for (i, (&v, &(lo, hi))) in features.iter().zip(&self.boundaries).enumerate() {
            // A NaN reading lies in no range: it violates the scope at an
            // infinite distance, like ±inf.
            if !(lo..=hi).contains(&v) {
                violations.push(i);
                let width = (hi - lo).max(1e-12);
                let dist = if v < lo {
                    lo - v
                } else if v > hi {
                    v - hi
                } else {
                    f64::INFINITY
                };
                // Each violated feature multiplies the similarity by
                // exp(−3·normalized distance): one full range-width outside
                // drives compliance to ~5%.
                log_similarity -= 3.0 * dist / width;
            }
        }
        Ok(ScopeVerdict {
            in_scope: violations.is_empty(),
            violations,
            similarity: log_similarity.exp().clamp(0.0, 1.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ScopeComplianceModel {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64 / 100.0, 10.0 + i as f64])
            .collect();
        ScopeComplianceModel::fit(
            rows.iter().map(|r| r.as_slice()),
            vec!["q".into(), "gps".into()],
            0.0,
        )
        .unwrap()
    }

    #[test]
    fn in_scope_inputs_have_full_similarity() {
        let m = model();
        let v = m.check(&[0.5, 50.0]).unwrap();
        assert!(v.in_scope);
        assert!(v.violations.is_empty());
        assert_eq!(v.similarity, 1.0);
        assert_eq!(v.scope_uncertainty(), 0.0);
    }

    #[test]
    fn out_of_scope_inputs_are_flagged() {
        let m = model();
        let v = m.check(&[2.0, 50.0]).unwrap();
        assert!(!v.in_scope);
        assert_eq!(v.violations, vec![0]);
        assert!(v.similarity < 1.0);
    }

    #[test]
    fn similarity_decays_with_distance() {
        let m = model();
        let near = m.check(&[1.05, 50.0]).unwrap().similarity;
        let far = m.check(&[3.0, 50.0]).unwrap().similarity;
        assert!(far < near);
        assert!(near < 1.0);
    }

    #[test]
    fn non_finite_inputs_are_violations_with_zero_similarity() {
        let m = model();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = m.check(&[0.5, bad]).unwrap();
            assert!(!v.in_scope, "{bad}");
            assert_eq!(v.violations, vec![1], "{bad}");
            assert_eq!(v.similarity, 0.0, "{bad}");
            assert_eq!(v.scope_uncertainty(), 1.0, "{bad}");
        }
    }

    #[test]
    fn multiple_violations_compound() {
        let m = model();
        let one = m.check(&[2.0, 50.0]).unwrap().similarity;
        let two = m.check(&[2.0, 500.0]).unwrap().similarity;
        assert!(two < one);
        assert_eq!(m.check(&[2.0, 500.0]).unwrap().violations, vec![0, 1]);
    }

    #[test]
    fn padding_expands_boundaries() {
        let rows: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0]];
        let strict =
            ScopeComplianceModel::fit(rows.iter().map(|r| r.as_slice()), vec!["x".into()], 0.0)
                .unwrap();
        let padded =
            ScopeComplianceModel::fit(rows.iter().map(|r| r.as_slice()), vec!["x".into()], 0.2)
                .unwrap();
        assert!(!strict.check(&[1.1]).unwrap().in_scope);
        assert!(padded.check(&[1.1]).unwrap().in_scope);
    }

    #[test]
    fn empty_training_is_rejected() {
        let rows: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            ScopeComplianceModel::fit(rows.iter().map(|r| r.as_slice()), vec!["x".into()], 0.0),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn arity_mismatches_are_rejected() {
        let m = model();
        assert!(m.check(&[0.5]).is_err());
        let rows = [vec![1.0, 2.0, 3.0]];
        assert!(ScopeComplianceModel::fit(
            rows.iter().map(|r| r.as_slice()),
            vec!["a".into()],
            0.0
        )
        .is_err());
    }
}
