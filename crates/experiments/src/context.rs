//! Shared experiment setup: builds the synthetic world, trains and
//! calibrates the wrappers, and replays the evaluation data — everything
//! the experiments have in common.

use crate::convert::to_training_series;
use std::borrow::Cow;
use tauw_core::calibration::CalibrationOptions;
use tauw_core::conformal::ConformalOptions;
use tauw_core::tauw::{replay, BackendSpec, ReplayRow, TauwBuilder, TimeseriesAwareWrapper};
use tauw_core::training::{flatten_stateless, TrainingSeries};
use tauw_core::wrapper::{UncertaintyWrapper, WrapperBuilder};
use tauw_core::CoreError;
use tauw_sim::{
    DatasetBuilder, GtsrbLikeDataset, QualityObservation, ScenarioConfig, ScenarioFamily,
    SimConfig, SplitKind,
};

/// The context's canonical wrapper configuration (paper depth 8 + the
/// scale-adjusted calibration options) — shared by the base build and by
/// every variant, so an ablation differs only in the dimension under
/// study.
fn configured_wrapper_builder(calibration: CalibrationOptions) -> WrapperBuilder {
    let mut wrapper_builder = WrapperBuilder::new();
    wrapper_builder.max_depth(8).calibration(calibration);
    wrapper_builder
}

/// The world configuration at `scale`: paper-sized at 1.0, proportionally
/// shrunk below.
fn world_config(scale: f64) -> SimConfig {
    if scale >= 1.0 {
        SimConfig::default()
    } else {
        SimConfig::scaled(scale)
    }
}

/// Everything an experiment needs, built deterministically from
/// `(scale, seed)`.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// World configuration used.
    pub config: SimConfig,
    /// Master seed used.
    pub seed: u64,
    /// Names of the stateless quality factors.
    pub feature_names: Vec<String>,
    /// Training series (full-length, deficit-augmented).
    pub train: Vec<TrainingSeries>,
    /// Calibration series (length-10 windows).
    pub calib: Vec<TrainingSeries>,
    /// Test series (length-10 windows).
    pub test: Vec<TrainingSeries>,
    /// Replayed training rows (for taQIM variant sweeps).
    pub train_replay: Vec<ReplayRow>,
    /// Replayed calibration rows.
    pub calib_replay: Vec<ReplayRow>,
    /// The trained timeseries-aware wrapper with all four taQFs.
    pub tauw: TimeseriesAwareWrapper,
    /// Calibration options used for both QIMs.
    pub calibration: CalibrationOptions,
}

impl ExperimentContext {
    /// Builds the context at the given scale (1.0 = paper-sized) and seed.
    ///
    /// At reduced scales the minimum calibration count per leaf is scaled
    /// down proportionally (the paper's 200 assumes ~110k calibration
    /// samples); everything else follows the paper's defaults.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if training or calibration fails (which for
    /// valid configurations it does not).
    pub fn build(scale: f64, seed: u64) -> Result<Self, CoreError> {
        Self::build_with_config(world_config(scale), seed)
    }

    /// Builds the context for an explicit world configuration (used by the
    /// sensitivity study, which perturbs the error model).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if training or calibration fails.
    pub fn build_with_config(config: SimConfig, seed: u64) -> Result<Self, CoreError> {
        let data = DatasetBuilder::new(config.clone(), seed)
            .map_err(|reason| CoreError::InvalidInput { reason })?
            .build();
        Self::build_with_dataset(config, data, seed)
    }

    /// Builds the context whose dataset has `family` applied to its
    /// default splits (see `ScenarioFamily::default_application`): the
    /// scenario studies' entry point.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the configuration is invalid or training
    /// or calibration fails.
    pub fn build_scenario(
        family: ScenarioFamily,
        scale: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::build_scenario_with_config(world_config(scale), family, seed)
    }

    fn build_scenario_with_config(
        config: SimConfig,
        family: ScenarioFamily,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let data = ScenarioConfig::new(config.clone(), family)
            .build(seed)
            .map_err(|reason| CoreError::InvalidInput { reason })?;
        Self::build_with_dataset(config, data, seed)
    }

    /// Builds the context from an already-generated (possibly
    /// scenario-transformed) dataset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if training or calibration fails.
    pub fn build_with_dataset(
        config: SimConfig,
        data: GtsrbLikeDataset,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let train = to_training_series(&data.train);
        let calib = to_training_series(&data.calib);
        let test = to_training_series(&data.test);
        drop(data);

        let feature_names = QualityObservation::feature_names();
        let n_calib_rows: usize = calib.iter().map(TrainingSeries::len).sum();
        let calibration = CalibrationOptions {
            // Paper: 200 per leaf on ~110k calibration rows. Keep that
            // exact value at full scale; shrink proportionally (floor 25)
            // for scaled-down runs so small worlds still produce
            // informative trees.
            min_samples_per_leaf: ((n_calib_rows as f64 / 110_000.0 * 200.0).round() as u64)
                .clamp(25, 200),
            confidence: 0.999,
            ..Default::default()
        };
        let wrapper_builder = configured_wrapper_builder(calibration);

        // Stateless wrapper.
        let stateless: UncertaintyWrapper = wrapper_builder.fit(
            feature_names.clone(),
            &flatten_stateless(&train),
            &flatten_stateless(&calib),
        )?;

        // Replay once; reuse for the full taUW and all subset variants.
        let train_replay = replay(&stateless, &train)?;
        let calib_replay = replay(&stateless, &calib)?;

        let mut tauw_builder = TauwBuilder::new();
        tauw_builder.wrapper(wrapper_builder);
        let tauw = tauw_builder.fit_reusing_stateless(stateless, &train_replay, &calib_replay)?;

        Ok(ExperimentContext {
            config,
            seed,
            feature_names,
            train,
            calib,
            test,
            train_replay,
            calib_replay,
            tauw,
            calibration,
        })
    }

    /// This world rebuilt under `config` (same seed), or this world itself
    /// when `config` equals its own: builds are deterministic, so a sweep
    /// point at the shared configuration need not rebuild it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the configuration is invalid or training
    /// or calibration fails.
    pub(crate) fn with_config(&self, config: SimConfig) -> Result<Cow<'_, Self>, CoreError> {
        if config == self.config {
            Ok(Cow::Borrowed(self))
        } else {
            Self::build_with_config(config, self.seed).map(Cow::Owned)
        }
    }

    /// This world rebuilt with `family` applied to its default splits, as
    /// [`build_scenario`](Self::build_scenario) builds it at this world's
    /// configuration and seed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the configuration is invalid or training
    /// or calibration fails.
    pub(crate) fn scenario_world(&self, family: ScenarioFamily) -> Result<Self, CoreError> {
        Self::build_scenario_with_config(self.config.clone(), family, self.seed)
    }

    /// Regenerates this context's **test split** with `family` applied
    /// (train and calibration stay exactly as this context was built):
    /// the deployment-time-shift view, where a wrapper trained on the
    /// clean world is hit by scenario traffic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the configuration is invalid.
    pub fn scenario_test(&self, family: ScenarioFamily) -> Result<Vec<TrainingSeries>, CoreError> {
        let mut test = DatasetBuilder::new(self.config.clone(), self.seed)
            .map_err(|reason| CoreError::InvalidInput { reason })?
            .build_test_only();
        let scenario = ScenarioConfig::new(self.config.clone(), family);
        scenario.apply_split(
            SplitKind::Test,
            &mut test,
            self.seed,
            parallel::max_threads(),
        );
        Ok(to_training_series(&test))
    }

    /// Builds a taUW variant whose taQIM is a calibrated bootstrap
    /// **forest** of `n_trees` members resampled from `seed`, reusing the
    /// stateless wrapper and replay rows (the boundary-smoothing ablation
    /// and the tree-vs-forest bench rows).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on infeasible calibration.
    pub fn tauw_forest_variant(
        &self,
        n_trees: usize,
        seed: u64,
    ) -> Result<TimeseriesAwareWrapper, CoreError> {
        let mut builder = TauwBuilder::new();
        builder
            .wrapper(configured_wrapper_builder(self.calibration))
            .backend(BackendSpec::Forest { n_trees, seed });
        builder.fit_reusing_stateless(
            self.tauw.stateless().clone(),
            &self.train_replay,
            &self.calib_replay,
        )
    }

    /// Builds a taUW variant whose taQIM is the leafless **split-conformal**
    /// backend, calibrated at `confidence = 1 − α`, reusing the stateless
    /// wrapper and replay rows (the distribution-free head-to-head and the
    /// tree-vs-conformal bench row).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration or empty splits.
    pub fn tauw_conformal_variant(
        &self,
        options: ConformalOptions,
        confidence: f64,
    ) -> Result<TimeseriesAwareWrapper, CoreError> {
        let calibration = CalibrationOptions {
            confidence,
            ..self.calibration
        };
        let mut builder = TauwBuilder::new();
        builder
            .wrapper(configured_wrapper_builder(calibration))
            .backend(BackendSpec::Conformal(options));
        builder.fit_reusing_stateless(
            self.tauw.stateless().clone(),
            &self.train_replay,
            &self.calib_replay,
        )
    }

    /// Builds a taUW variant with a different taQF subset, reusing the
    /// stateless wrapper and replay rows (the Fig. 7 sweep).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on infeasible calibration.
    pub fn tauw_variant(
        &self,
        set: tauw_core::taqf::TaqfSet,
    ) -> Result<TimeseriesAwareWrapper, CoreError> {
        let mut builder = TauwBuilder::new();
        builder
            .wrapper(configured_wrapper_builder(self.calibration))
            .taqf_set(set);
        builder.fit_reusing_stateless(
            self.tauw.stateless().clone(),
            &self.train_replay,
            &self.calib_replay,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DDM misclassification rate over the test windows ("the images of
    /// the length 10 timeseries"; paper: 7.89%).
    fn ddm_misclassification(ctx: &ExperimentContext) -> f64 {
        let mut wrong = 0usize;
        let mut total = 0usize;
        for series in &ctx.test {
            for (j, _) in series.steps.iter().enumerate() {
                total += 1;
                if series.is_failure(j) {
                    wrong += 1;
                }
            }
        }
        wrong as f64 / total.max(1) as f64
    }

    #[test]
    fn small_context_builds_end_to_end() {
        let ctx = ExperimentContext::build(0.02, 7).unwrap();
        assert!(!ctx.train.is_empty());
        assert!(!ctx.test.is_empty());
        assert_eq!(ctx.feature_names.len(), tauw_sim::N_QUALITY_FACTORS);
        let miscls = ddm_misclassification(&ctx);
        assert!(
            (0.005..0.35).contains(&miscls),
            "DDM misclassification {miscls} wildly off target"
        );
        // The full taUW uses all four factors.
        assert_eq!(ctx.tauw.taqf_set().len(), 4);
    }

    #[test]
    fn variant_with_fewer_factors_builds() {
        let ctx = ExperimentContext::build(0.02, 7).unwrap();
        let set = tauw_core::taqf::TaqfSet::from_kinds(&[tauw_core::taqf::TaqfKind::Ratio]);
        let variant = ctx.tauw_variant(set).unwrap();
        assert_eq!(variant.taqf_set(), set);
        assert_eq!(variant.taqim().n_features(), ctx.feature_names.len() + 1);
    }

    #[test]
    fn forest_variant_builds_and_serves() {
        let ctx = ExperimentContext::build(0.02, 7).unwrap();
        let forest = ctx.tauw_forest_variant(4, 0xF0).unwrap();
        assert_eq!(forest.taqim().n_trees(), 4);
        assert_eq!(forest.taqim().n_features(), ctx.feature_names.len() + 4);
        let again = ctx.tauw_forest_variant(4, 0xF0).unwrap();
        assert_eq!(forest, again, "forest variant must be seed-deterministic");
    }

    #[test]
    fn conformal_variant_builds_and_serves() {
        let ctx = ExperimentContext::build(0.02, 7).unwrap();
        let conformal = ctx
            .tauw_conformal_variant(ConformalOptions::default(), 0.9)
            .unwrap();
        assert!(conformal.taqim().as_conformal().is_some());
        assert_eq!(
            conformal.taqim().n_features(),
            ctx.feature_names.len() + 4,
            "stateless QFs + all four taQFs"
        );
        let again = ctx
            .tauw_conformal_variant(ConformalOptions::default(), 0.9)
            .unwrap();
        assert_eq!(conformal, again, "conformal variant must be deterministic");
        // Serves through an ordinary session.
        let mut s = conformal.new_session();
        let step = s.step(&vec![0.5; ctx.feature_names.len()], 0).unwrap();
        assert!(step.uncertainty > 0.0 && step.uncertainty <= 1.0);
    }

    #[test]
    fn scenario_test_split_keeps_family_semantics() {
        let ctx = ExperimentContext::build(0.02, 7).unwrap();
        // Dropout only touches observations: outcomes must be identical.
        let dropout = ctx
            .scenario_test(ScenarioFamily::from_name("dropout").unwrap())
            .unwrap();
        assert_eq!(dropout.len(), ctx.test.len());
        let mut perturbed = false;
        for (a, b) in ctx.test.iter().zip(&dropout) {
            assert_eq!(a.true_outcome, b.true_outcome);
            for (sa, sb) in a.steps.iter().zip(&b.steps) {
                assert_eq!(sa.outcome, sb.outcome);
                perturbed |= sa.quality_factors != sb.quality_factors;
            }
        }
        assert!(perturbed, "dropout never changed a quality factor");
        // Multi-source triples every series.
        let ms = ctx
            .scenario_test(ScenarioFamily::from_name("multi_source").unwrap())
            .unwrap();
        assert_eq!(ms[0].steps.len(), ctx.test[0].steps.len() * 3);
    }

    #[test]
    fn scenario_context_builds_and_serves() {
        let ctx = ExperimentContext::build_scenario(
            ScenarioFamily::from_name("heavy_tails").unwrap(),
            0.02,
            7,
        )
        .unwrap();
        assert!(!ctx.test.is_empty());
        assert!((0.0..1.0).contains(&ddm_misclassification(&ctx)));
    }

    #[test]
    fn derived_worlds_match_their_direct_builds() {
        let ctx = ExperimentContext::build(0.02, 7).unwrap();
        assert!(matches!(
            ctx.with_config(ctx.config.clone()).unwrap(),
            Cow::Borrowed(_)
        ));
        let mut config = ctx.config.clone();
        config.window_len = 5;
        let rebuilt = ctx.with_config(config.clone()).unwrap();
        let direct = ExperimentContext::build_with_config(config, 7).unwrap();
        assert!(matches!(rebuilt, Cow::Owned(_)));
        assert_eq!(rebuilt.test, direct.test);
        assert_eq!(rebuilt.tauw, direct.tauw);

        let family = ScenarioFamily::from_name("heavy_tails").unwrap();
        let burst = ctx.scenario_world(family).unwrap();
        let direct = ExperimentContext::build_scenario(family, 0.02, 7).unwrap();
        assert_eq!(burst.calib, direct.calib);
        assert_eq!(burst.test, direct.test);
        assert_eq!(burst.tauw, direct.tauw);
    }

    #[test]
    fn context_is_deterministic() {
        let a = ExperimentContext::build(0.02, 9).unwrap();
        let b = ExperimentContext::build(0.02, 9).unwrap();
        assert_eq!(ddm_misclassification(&a), ddm_misclassification(&b));
        assert_eq!(a.tauw.min_uncertainty(), b.tauw.min_uncertainty());
    }
}
