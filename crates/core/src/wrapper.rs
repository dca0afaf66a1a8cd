//! The classical (stateless) uncertainty wrapper: quality impact model +
//! optional scope compliance model + combination.
//!
//! This is the baseline the paper extends. Given the stateless quality
//! factors of the current input it reports a *dependable* uncertainty — a
//! high-confidence upper bound on the probability that the wrapped DDM's
//! outcome is wrong in the current situation.

use crate::calibration::{CalibratedForestQim, CalibrationOptions};
use crate::error::CoreError;
use crate::scope::{ScopeComplianceModel, ScopeVerdict};
use serde::{Deserialize, Serialize};
use tauw_dtree::{Dataset, Forest, LeafId, NodeId, TreeBuilder};

/// A complete uncertainty estimate for one input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UncertaintyEstimate {
    /// Input-quality-related uncertainty (the calibrated QIM bound).
    pub quality_uncertainty: f64,
    /// Scope-compliance probability (1.0 when no scope model is attached).
    pub scope_compliance: f64,
    /// Combined dependable uncertainty:
    /// `1 − scope_compliance · (1 − quality_uncertainty)`.
    pub combined_uncertainty: f64,
}

/// An explanation of how an estimate came about — the transparency the
/// decision-tree QIM affords.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Leaf the input routed to.
    pub leaf_id: NodeId,
    /// The same leaf as a dense, stable [`LeafId`] in the compiled serving
    /// form — the index into member 0's table in
    /// [`CalibratedForestQim::leaf_bounds`].
    pub flat_leaf_id: LeafId,
    /// Calibration failures observed in the leaf.
    pub leaf_failures: u64,
    /// Calibration samples in the leaf.
    pub leaf_total: u64,
    /// Decision path (node ids from root to leaf).
    pub path: Vec<NodeId>,
    /// Scope verdict, when a scope model is attached.
    pub scope: Option<ScopeVerdict>,
}

/// Builder for [`UncertaintyWrapper`] (paper defaults: gini CART of depth
/// 8, leaves ≥ 200 calibration samples, 0.999-confidence Clopper–Pearson
/// bounds). The tree is always the paper's gini CART with exact split
/// search; only its depth is set here.
#[derive(Debug, Clone, PartialEq)]
pub struct WrapperBuilder {
    max_depth: usize,
    calibration: CalibrationOptions,
    scope_padding: Option<f64>,
}

impl Default for WrapperBuilder {
    fn default() -> Self {
        WrapperBuilder {
            max_depth: 8,
            calibration: CalibrationOptions::default(),
            scope_padding: None,
        }
    }
}

impl WrapperBuilder {
    /// Creates a builder with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum QIM tree depth (paper: 8).
    pub fn max_depth(&mut self, depth: usize) -> &mut Self {
        self.max_depth = depth;
        self
    }

    /// Calibration options (minimum leaf samples, confidence, bound
    /// method).
    pub fn calibration(&mut self, options: CalibrationOptions) -> &mut Self {
        self.calibration = options;
        self
    }

    /// Attaches a boundary-check scope compliance model learned from the
    /// training inputs, padded by the given fraction of each feature range.
    pub fn with_scope_model(&mut self, padding: f64) -> &mut Self {
        self.scope_padding = Some(padding);
        self
    }

    /// The configured calibration options.
    pub fn calibration_options(&self) -> CalibrationOptions {
        self.calibration
    }

    /// The tree builder for the stateless QIM and, through
    /// [`crate::tauw::TauwBuilder`], for every tree-shaped taQIM.
    pub(crate) fn tree_builder(&self) -> TreeBuilder {
        let mut builder = TreeBuilder::new();
        builder.max_depth(self.max_depth);
        builder
    }

    /// Trains and calibrates a stateless uncertainty wrapper.
    ///
    /// * `feature_names` — names of the stateless quality factors;
    /// * `train` — `(quality factors, DDM failed?)` rows for tree growth;
    /// * `calib` — held-out rows of the same shape for pruning and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on empty/mismatched data or infeasible
    /// calibration.
    pub fn fit(
        &self,
        feature_names: Vec<String>,
        train: &[(Vec<f64>, bool)],
        calib: &[(Vec<f64>, bool)],
    ) -> Result<UncertaintyWrapper, CoreError> {
        if train.is_empty() {
            return Err(CoreError::InvalidInput {
                reason: "training set is empty".into(),
            });
        }
        let mut ds = Dataset::new(feature_names.clone(), 2)?;
        ds.reserve(train.len());
        for (features, failed) in train {
            ds.push_row(features, u32::from(*failed))?;
        }
        let tree = self.tree_builder().fit(&ds)?;
        let qim = CalibratedForestQim::calibrate(
            Forest::from_trees(vec![tree])?,
            calib,
            self.calibration,
        )?;
        let scope = match self.scope_padding {
            Some(padding) => Some(ScopeComplianceModel::fit(
                train.iter().map(|(f, _)| f.as_slice()),
                feature_names.clone(),
                padding,
            )?),
            None => None,
        };
        Ok(UncertaintyWrapper {
            qim,
            scope,
            feature_names,
        })
    }
}

/// A trained, calibrated stateless uncertainty wrapper: the paper's single
/// calibrated tree, held as a one-member [`CalibratedForestQim`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UncertaintyWrapper {
    qim: CalibratedForestQim,
    scope: Option<ScopeComplianceModel>,
    feature_names: Vec<String>,
}

impl Deserialize for UncertaintyWrapper {
    /// Reads the three serialized fields and checks the wrapper's shape;
    /// the QIM has validated itself while deserializing.
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "UncertaintyWrapper")?;
        let field = |name| serde::__field(map, name, "UncertaintyWrapper");
        let wrapper = UncertaintyWrapper {
            qim: Deserialize::deserialize(field("qim")?)?,
            scope: Deserialize::deserialize(field("scope")?)?,
            feature_names: Deserialize::deserialize(field("feature_names")?)?,
        };
        wrapper
            .check_shape()
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(wrapper)
    }
}

impl UncertaintyWrapper {
    /// Quality-related dependable uncertainty for the current input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn uncertainty(&self, quality_factors: &[f64]) -> Result<f64, CoreError> {
        self.qim.uncertainty(quality_factors)
    }

    /// Dependable certainty `1 − u` for the current input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn certainty(&self, quality_factors: &[f64]) -> Result<f64, CoreError> {
        Ok(1.0 - self.uncertainty(quality_factors)?)
    }

    /// Full estimate including scope compliance and the combined value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn estimate(&self, quality_factors: &[f64]) -> Result<UncertaintyEstimate, CoreError> {
        let quality_uncertainty = self.qim.uncertainty(quality_factors)?;
        let scope_compliance = match &self.scope {
            Some(model) => model.check(quality_factors)?.similarity,
            None => 1.0,
        };
        Ok(UncertaintyEstimate {
            quality_uncertainty,
            scope_compliance,
            combined_uncertainty: 1.0 - scope_compliance * (1.0 - quality_uncertainty),
        })
    }

    /// Explains the estimate: decision path, leaf statistics, scope
    /// verdict.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn explain(&self, quality_factors: &[f64]) -> Result<Explanation, CoreError> {
        let flat = &self.qim.flat()[0];
        let flat_leaf_id = flat.predict_leaf_id(quality_factors)?;
        let leaf_id = flat.leaf_node(flat_leaf_id);
        let leaf = self
            .qim
            .calibrated_leaf(0, leaf_id)
            .expect("every reachable leaf was calibrated");
        let path = self.qim.trees()[0].decision_path(quality_factors)?;
        let scope = match &self.scope {
            Some(model) => Some(model.check(quality_factors)?),
            None => None,
        };
        Ok(Explanation {
            leaf_id,
            flat_leaf_id,
            leaf_failures: leaf.failures,
            leaf_total: leaf.total,
            path,
            scope,
        })
    }

    /// The calibrated quality impact model: one member, the paper's tree.
    pub fn qim(&self) -> &CalibratedForestQim {
        &self.qim
    }

    /// Checks the internal consistency of the QIM (see
    /// [`CalibratedForestQim::validate`]), that the QIM is one tree, and
    /// that there is one feature name, and one scope boundary and name,
    /// per QIM feature.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on an inconsistent model.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.qim.validate()?;
        self.check_shape()
    }

    /// The part of [`UncertaintyWrapper::validate`] that checks the QIM's
    /// shape: one tree (what [`UncertaintyWrapper::explain`] describes),
    /// over one feature per name and per scope boundary and name.
    fn check_shape(&self) -> Result<(), CoreError> {
        let n = self.qim.n_features();
        if self.qim.n_trees() != 1 || self.feature_names.len() != n {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "stateless wrapper names {} features for a QIM of {} trees over {n} \
                     features; it needs one tree and one name per feature",
                    self.feature_names.len(),
                    self.qim.n_trees(),
                ),
            });
        }
        if let Some(scope) = &self.scope {
            if scope.boundaries().len() != n || scope.feature_names().len() != n {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "stateless wrapper's scope model has {} boundaries and {} names for a \
                         QIM over {n} features",
                        scope.boundaries().len(),
                        scope.feature_names().len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// The attached scope model, if any.
    pub fn scope_model(&self) -> Option<&ScopeComplianceModel> {
        self.scope.as_ref()
    }

    /// Names of the stateless quality factors.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world: failure probability is high iff `rain > 0.5`.
    fn toy_rows(n: usize, seed: u64) -> Vec<(Vec<f64>, bool)> {
        // Small deterministic LCG so the test has no rand dependency here.
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let rain = next();
                let blur = next();
                let p_fail = if rain > 0.5 { 0.6 } else { 0.02 };
                let failed = next() < p_fail;
                (vec![rain, blur], failed)
            })
            .collect()
    }

    fn fitted() -> UncertaintyWrapper {
        let train = toy_rows(4000, 1);
        let calib = toy_rows(3000, 2);
        WrapperBuilder::new()
            .fit(vec!["rain".into(), "blur".into()], &train, &calib)
            .unwrap()
    }

    #[test]
    fn risky_inputs_get_higher_uncertainty() {
        let w = fitted();
        let dry = w.uncertainty(&[0.1, 0.5]).unwrap();
        let wet = w.uncertainty(&[0.9, 0.5]).unwrap();
        assert!(wet > 0.4, "wet uncertainty {wet}");
        assert!(dry < 0.1, "dry uncertainty {dry}");
        assert!(w.certainty(&[0.1, 0.5]).unwrap() > 0.9);
    }

    #[test]
    fn estimate_without_scope_model_has_full_compliance() {
        let w = fitted();
        let e = w.estimate(&[0.2, 0.2]).unwrap();
        assert_eq!(e.scope_compliance, 1.0);
        assert!((e.combined_uncertainty - e.quality_uncertainty).abs() < 1e-15);
    }

    #[test]
    fn scope_model_raises_combined_uncertainty_out_of_scope() {
        let train = toy_rows(4000, 3);
        let calib = toy_rows(3000, 4);
        let w = WrapperBuilder::new()
            .with_scope_model(0.0)
            .fit(vec!["rain".into(), "blur".into()], &train, &calib)
            .unwrap();
        let inside = w.estimate(&[0.2, 0.2]).unwrap();
        let outside = w.estimate(&[5.0, 0.2]).unwrap();
        assert!(outside.scope_compliance < 1.0);
        assert!(outside.combined_uncertainty > inside.combined_uncertainty);
        assert!(outside.combined_uncertainty >= outside.quality_uncertainty);
        // A garbage reading is out of scope entirely: no certainty left.
        let garbage = w.estimate(&[f64::NAN, 0.2]).unwrap();
        assert_eq!(garbage.scope_compliance, 0.0);
        assert_eq!(garbage.combined_uncertainty, 1.0);
    }

    #[test]
    fn explanation_exposes_path_and_leaf_stats() {
        let w = fitted();
        let ex = w.explain(&[0.9, 0.5]).unwrap();
        assert!(ex.leaf_total >= 200, "calibration minimum respected");
        assert_eq!(*ex.path.first().unwrap(), 0, "path starts at the root");
        assert_eq!(*ex.path.last().unwrap(), ex.leaf_id);
        assert_eq!(
            w.qim().flat()[0].leaf_node(ex.flat_leaf_id),
            ex.leaf_id,
            "flat leaf id names the same leaf"
        );
        assert!(ex.scope.is_none());
    }

    #[test]
    fn estimates_are_dependable_on_holdout() {
        // The bound must cover the observed failure rate on fresh data in
        // the overwhelming majority of leaves (0.999 confidence).
        let w = fitted();
        let holdout = toy_rows(4000, 9);
        let mut per_leaf: std::collections::HashMap<usize, (u64, u64, f64)> =
            std::collections::HashMap::new();
        for (f, failed) in &holdout {
            let ex = w.explain(f).unwrap();
            let u = w.uncertainty(f).unwrap();
            let e = per_leaf.entry(ex.leaf_id).or_insert((0, 0, u));
            e.1 += 1;
            if *failed {
                e.0 += 1;
            }
        }
        for (leaf, (failures, total, bound)) in per_leaf {
            if total < 100 {
                continue;
            }
            let rate = failures as f64 / total as f64;
            assert!(
                rate <= bound + 0.05,
                "leaf {leaf}: observed {rate:.3} far above bound {bound:.3}"
            );
        }
    }

    #[test]
    fn empty_training_is_rejected() {
        let err = WrapperBuilder::new().fit(vec!["x".into()], &[], &[]);
        assert!(matches!(err, Err(CoreError::InvalidInput { .. })));
    }

    #[test]
    fn builder_options_are_respected() {
        let train = toy_rows(2000, 5);
        let calib = toy_rows(2000, 6);
        let w = WrapperBuilder::new()
            .max_depth(1)
            .fit(vec!["rain".into(), "blur".into()], &train, &calib)
            .unwrap();
        assert!(w.qim().trees()[0].depth() <= 1);
        assert_eq!(w.feature_names(), &["rain", "blur"]);
    }
}
