//! The timeseries-aware uncertainty wrapper (taUW): the paper's main
//! contribution.
//!
//! Architecture (paper Fig. 2): at every timestep the classical stateless
//! wrapper produces `u_i` from the current quality factors; the result and
//! the DDM outcome `o_i` enter the **timeseries buffer**; the information
//! fusion component computes the fused outcome `o_i^(if)` over the buffer;
//! the **timeseries-aware quality model** derives taQF1–4 from the buffer;
//! and the **timeseries-aware quality impact model** (a second calibrated
//! CART tree over stateless QFs + taQFs) produces the dependable
//! uncertainty for the *fused* outcome.

use crate::adaptive::{AdaptiveConfig, AdaptiveState, AdaptiveTauwSession, DriftSignal};
use crate::buffer::TimeseriesBuffer;
use crate::calibration::{
    CalibratedForestQim, CalibrationOptions, RouteSupport, ServingScratch, TaQim,
};
use crate::conformal::{ConformalOptions, ConformalQim};
use crate::error::CoreError;
use crate::taqf::{TaqfKind, TaqfSet, TaqfVector};
use crate::training::{flatten_stateless, validate_series, TrainingSeries};
use crate::wrapper::{UncertaintyWrapper, WrapperBuilder};
use serde::{Deserialize, Serialize};
use tauw_dtree::{Dataset, Forest, ForestBuilder};

/// Output of one taUW timestep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TauwStep {
    /// The fused outcome `o_i^(if)` (majority vote with most-recent
    /// tie-breaking over the buffered outcomes).
    pub fused_outcome: u32,
    /// Dependable uncertainty of the fused outcome from the taQIM.
    pub uncertainty: f64,
    /// The stateless wrapper's uncertainty `u_i` for the current step's
    /// isolated outcome (also what entered the buffer).
    pub stateless_uncertainty: f64,
    /// The timeseries-aware quality factors computed this step.
    pub taqf: TaqfVector,
    /// Steps in the current series so far (`i + 1`) — the lifetime count,
    /// which a bounded buffer's eviction does not shrink (it equals
    /// `taqf.length`).
    pub series_length: usize,
    /// The uncertainty actually served after online adaptation (see
    /// [`crate::adaptive`]). On the non-adaptive paths this equals
    /// [`TauwStep::uncertainty`] bit-identically.
    pub adapted_uncertainty: f64,
    /// Per-stream drift/regime classification from the adaptive coverage
    /// loop. Always [`crate::adaptive::DriftSignal::Stable`] on the
    /// non-adaptive paths.
    pub drift: crate::adaptive::DriftSignal,
}

/// Which [`TaQim`] backend shape [`TauwBuilder::fit`] trains.
///
/// Every variant trains deterministically and serves through the same
/// per-sample session/engine step; see [`crate::calibration`] for the
/// serving surface.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum BackendSpec {
    /// The paper's single calibrated CART tree (the default), served as
    /// a one-member [`CalibratedForestQim`].
    #[default]
    Tree,
    /// A calibrated bootstrap forest: `n_trees` members resampled
    /// deterministically from `seed`, serving the mean of per-member
    /// bounds (smooths the hard split boundaries of a single tree).
    Forest {
        /// Number of bootstrap members.
        n_trees: usize,
        /// Root seed the member resamples derive from.
        seed: u64,
    },
    /// A leafless split-conformal model: histogram base scorer fit on the
    /// training replay, one-sided conformal quantile shift calibrated on
    /// the calibration replay (see [`crate::conformal::ConformalQim`]).
    Conformal(ConformalOptions),
}

/// Builder/trainer for [`TimeseriesAwareWrapper`].
#[derive(Debug, Clone, PartialEq)]
pub struct TauwBuilder {
    stateless: WrapperBuilder,
    taqf_set: TaqfSet,
    backend: BackendSpec,
}

impl Default for TauwBuilder {
    fn default() -> Self {
        TauwBuilder {
            stateless: WrapperBuilder::new(),
            taqf_set: TaqfSet::FULL,
            backend: BackendSpec::Tree,
        }
    }
}

impl TauwBuilder {
    /// Creates a builder with the paper's defaults (all four taQFs, gini
    /// CART depth 8, ≥200 calibration samples per leaf, 0.999-confidence
    /// Clopper–Pearson bounds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Configures the underlying stateless wrapper (tree depth and
    /// calibration options — shared by the taQIM).
    pub fn wrapper(&mut self, builder: WrapperBuilder) -> &mut Self {
        self.stateless = builder;
        self
    }

    /// Selects which taQFs the taQIM consumes (the RQ3 feature study
    /// sweeps all 16 subsets).
    pub fn taqf_set(&mut self, set: TaqfSet) -> &mut Self {
        self.taqf_set = set;
        self
    }

    /// Selects the [`TaQim`] backend shape to train: the paper's single tree
    /// (the default), a boundary-smoothing bootstrap forest, or the
    /// leafless split-conformal model. Every choice trains
    /// deterministically and serves through the same session/engine step
    /// routine.
    ///
    /// # Examples
    ///
    /// ```
    /// use tauw_core::calibration::CalibrationOptions;
    /// use tauw_core::tauw::{BackendSpec, TauwBuilder};
    /// use tauw_core::training::{TrainingSeries, TrainingStep};
    /// use tauw_core::wrapper::WrapperBuilder;
    ///
    /// let series = |q: f64, outcomes: &[u32]| TrainingSeries {
    ///     true_outcome: 0,
    ///     steps: outcomes
    ///         .iter()
    ///         .map(|&o| TrainingStep { quality_factors: vec![q], outcome: o })
    ///         .collect(),
    /// };
    /// let mut train = Vec::new();
    /// let mut calib = Vec::new();
    /// for i in 0..120 {
    ///     let q = (i % 12) as f64 / 12.0;
    ///     let outcomes: Vec<u32> = (0..10).map(|j| u32::from(q > 0.6 && j % 3 == 0)).collect();
    ///     train.push(series(q, &outcomes));
    ///     calib.push(series(q, &outcomes));
    /// }
    /// let mut wb = WrapperBuilder::new();
    /// wb.max_depth(3).calibration(CalibrationOptions {
    ///     min_samples_per_leaf: 50,
    ///     confidence: 0.99,
    ///     ..Default::default()
    /// });
    /// let mut builder = TauwBuilder::new();
    /// builder.wrapper(wb).backend(BackendSpec::Forest { n_trees: 4, seed: 42 });
    /// let tauw = builder.fit(vec!["q".into()], &train, &calib)?;
    /// assert_eq!(tauw.taqim().n_trees(), 4);
    ///
    /// // Forests serve through the same session/engine step routine.
    /// let mut session = tauw.new_session();
    /// let step = session.step(&[0.1], 0)?;
    /// assert!(step.uncertainty > 0.0 && step.uncertainty < 0.5);
    /// # Ok::<(), tauw_core::CoreError>(())
    /// ```
    pub fn backend(&mut self, spec: BackendSpec) -> &mut Self {
        self.backend = spec;
        self
    }

    /// Trains the full taUW pipeline:
    ///
    /// 1. fit + calibrate the stateless wrapper on the flattened steps,
    /// 2. replay every training series through the stateless wrapper and
    ///    information fusion to compute taQFs and fused-failure labels,
    /// 3. fit the taQIM tree on `[stateless QFs ‖ selected taQFs]`,
    /// 4. calibrate it on the replayed calibration series.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on empty/ragged input or infeasible
    /// calibration.
    pub fn fit(
        &self,
        feature_names: Vec<String>,
        train: &[TrainingSeries],
        calib: &[TrainingSeries],
    ) -> Result<TimeseriesAwareWrapper, CoreError> {
        let arity = validate_series(train)?;
        let calib_arity = validate_series(calib)?;
        if arity != calib_arity {
            return Err(CoreError::InvalidInput {
                reason: format!("train arity {arity} differs from calibration arity {calib_arity}"),
            });
        }
        if feature_names.len() != arity {
            return Err(CoreError::FeatureArityMismatch {
                expected: arity,
                actual: feature_names.len(),
            });
        }

        // 1. Stateless wrapper.
        let stateless_train = flatten_stateless(train);
        let stateless_calib = flatten_stateless(calib);
        let stateless = self
            .stateless
            .fit(feature_names, &stateless_train, &stateless_calib)?;

        // 2. Replay series to build the timeseries-aware rows.
        let train_rows = replay(&stateless, train)?;
        let calib_rows = replay(&stateless, calib)?;

        // 3./4. Fit + calibrate the taQIM.
        self.fit_reusing_stateless(stateless, &train_rows, &calib_rows)
    }

    /// Fits only the timeseries-aware part on top of an already trained
    /// stateless wrapper, consuming pre-computed [`replay`] rows. This is
    /// the fast path for the RQ3 subset sweep, where 16 taQIM variants
    /// share one stateless wrapper and one replay pass. The taQIM's
    /// leading feature names are the stateless wrapper's own.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on empty replay batches or infeasible
    /// calibration.
    pub fn fit_reusing_stateless(
        &self,
        stateless: UncertaintyWrapper,
        train_replay: &[ReplayRow],
        calib_replay: &[ReplayRow],
    ) -> Result<TimeseriesAwareWrapper, CoreError> {
        if train_replay.is_empty() || calib_replay.is_empty() {
            return Err(CoreError::InvalidInput {
                reason: "replay rows are empty".into(),
            });
        }
        let calib_rows: Vec<(Vec<f64>, bool)> = calib_replay
            .iter()
            .map(|row| (row.ta_features(self.taqf_set), row.fused_failed))
            .collect();
        let options = self.calibration_options();
        let taqim = match self.backend {
            BackendSpec::Tree | BackendSpec::Forest { .. } => {
                let ds = self.ta_dataset(stateless.feature_names(), train_replay)?;
                let tree_builder = self.stateless.tree_builder();
                let forest = match self.backend {
                    BackendSpec::Forest { n_trees, seed } => ForestBuilder::new(n_trees, seed)
                        .tree(tree_builder)
                        .fit(&ds)?,
                    _ => Forest::from_trees(vec![tree_builder.fit(&ds)?])?,
                };
                TaQim::Forest(CalibratedForestQim::calibrate(
                    forest,
                    &calib_rows,
                    options,
                )?)
            }
            BackendSpec::Conformal(conformal) => {
                // The leafless backend consumes labelled rows directly —
                // no tree dataset is built.
                let train_rows: Vec<(Vec<f64>, bool)> = train_replay
                    .iter()
                    .map(|row| (row.ta_features(self.taqf_set), row.fused_failed))
                    .collect();
                TaQim::Conformal(ConformalQim::calibrate(
                    &train_rows,
                    &calib_rows,
                    options,
                    conformal,
                )?)
            }
        };
        let wrapper = TimeseriesAwareWrapper {
            stateless,
            taqim,
            taqf_set: self.taqf_set,
        };
        wrapper.check_fit()?;
        Ok(wrapper)
    }

    /// Assembles the taQIM training dataset `[stateless QFs ‖ selected
    /// taQFs] → fused-failure label` for the tree-shaped backends.
    fn ta_dataset(
        &self,
        feature_names: &[String],
        train_replay: &[ReplayRow],
    ) -> Result<Dataset, CoreError> {
        let ta_names = ta_feature_names(feature_names, self.taqf_set);
        let mut ds = Dataset::new(ta_names, 2)?;
        ds.reserve(train_replay.len());
        for row in train_replay {
            ds.push_row(&row.ta_features(self.taqf_set), u32::from(row.fused_failed))?;
        }
        Ok(ds)
    }

    fn calibration_options(&self) -> CalibrationOptions {
        // WrapperBuilder owns the canonical calibration options; reuse them
        // for the taQIM (paper: same procedure for both models).
        self.stateless.calibration_options()
    }
}

/// One replayed timestep: everything needed to assemble taQIM training
/// rows for *any* taQF subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayRow {
    /// The step's stateless quality factors.
    pub quality_factors: Vec<f64>,
    /// The step's stateless uncertainty estimate `u_i`.
    pub stateless_uncertainty: f64,
    /// The fused outcome after this step.
    pub fused_outcome: u32,
    /// All four taQF values after this step.
    pub taqf: TaqfVector,
    /// Whether the fused outcome disagrees with the series ground truth.
    pub fused_failed: bool,
    /// Whether the step's isolated DDM outcome disagrees with ground truth.
    pub isolated_failed: bool,
    /// Position of the step within its series (0-based).
    pub step: usize,
}

impl ReplayRow {
    /// The taQIM feature vector `[stateless QFs ‖ selected taQFs]`.
    pub fn ta_features(&self, set: TaqfSet) -> Vec<f64> {
        let mut features = self.quality_factors.clone();
        features.extend(set.select(&self.taqf));
        features
    }
}

/// Replays series through the stateless wrapper + majority voting,
/// producing one [`ReplayRow`] per step. This is the shared preprocessing
/// for taQIM training, calibration and evaluation.
///
/// Uses the process-wide [`parallel::max_threads`] budget; see
/// [`replay_with_threads`] for an explicit budget. Output is bit-identical
/// for every thread count.
///
/// # Errors
///
/// Returns [`CoreError`] on feature-arity mismatch.
pub fn replay(
    stateless: &UncertaintyWrapper,
    batch: &[TrainingSeries],
) -> Result<Vec<ReplayRow>, CoreError> {
    replay_with_threads(stateless, batch, parallel::max_threads())
}

/// [`replay`] with an explicit thread budget. Every series is replayed
/// independently (series own their buffers), so the fan-out preserves
/// bit-identical rows in batch order for any `threads`.
///
/// # Errors
///
/// Returns [`CoreError`] on feature-arity mismatch.
pub fn replay_with_threads(
    stateless: &UncertaintyWrapper,
    batch: &[TrainingSeries],
    threads: usize,
) -> Result<Vec<ReplayRow>, CoreError> {
    let per_series: Vec<Result<Vec<ReplayRow>, CoreError>> =
        parallel::par_map(threads, batch, |series| replay_one(stateless, series));
    let mut rows = Vec::with_capacity(batch.iter().map(TrainingSeries::len).sum());
    for series_rows in per_series {
        rows.extend(series_rows?);
    }
    Ok(rows)
}

/// Replays a single series (one buffer, steps in order).
fn replay_one(
    stateless: &UncertaintyWrapper,
    series: &TrainingSeries,
) -> Result<Vec<ReplayRow>, CoreError> {
    let mut buffer = TimeseriesBuffer::with_capacity(series.len());
    let mut rows = Vec::with_capacity(series.len());
    for (step_idx, step) in series.steps.iter().enumerate() {
        let u = stateless.uncertainty(&step.quality_factors)?;
        buffer.push(step.outcome, u);
        // Same incremental fusion + taQF aggregates as the serving path, so
        // training rows and runtime estimates come from one routine.
        let fused = buffer
            .fused_outcome()
            .expect("buffer is non-empty after push");
        let taqf = TaqfVector::compute(&buffer, fused).expect("buffer is non-empty");
        rows.push(ReplayRow {
            quality_factors: step.quality_factors.clone(),
            stateless_uncertainty: u,
            fused_outcome: fused,
            taqf,
            fused_failed: fused != series.true_outcome,
            isolated_failed: step.outcome != series.true_outcome,
            step: step_idx,
        });
    }
    Ok(rows)
}

/// Column names for the taQIM: stateless names followed by the selected
/// taQF names.
fn ta_feature_names(stateless: &[String], set: TaqfSet) -> Vec<String> {
    stateless
        .iter()
        .cloned()
        .chain(set.kinds().into_iter().map(|k| k.name().to_string()))
        .collect()
}

/// A trained timeseries-aware uncertainty wrapper. Every wrapper is
/// valid: fitting checks that its two models fit together, and
/// deserializing runs [`TimeseriesAwareWrapper::validate`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeseriesAwareWrapper {
    stateless: UncertaintyWrapper,
    taqim: TaQim,
    taqf_set: TaqfSet,
}

impl Deserialize for TimeseriesAwareWrapper {
    /// Reads the three serialized fields and checks that the two models
    /// fit together; each model has validated itself while deserializing.
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "TimeseriesAwareWrapper")?;
        let field = |name| serde::__field(map, name, "TimeseriesAwareWrapper");
        let wrapper = TimeseriesAwareWrapper {
            stateless: Deserialize::deserialize(field("stateless")?)?,
            taqim: Deserialize::deserialize(field("taqim")?)?,
            taqf_set: Deserialize::deserialize(field("taqf_set")?)?,
        };
        wrapper
            .check_fit()
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(wrapper)
    }
}

/// A stateless quality-factor row of the arity the wrapper's stateless
/// model reads. Only [`TimeseriesAwareWrapper::check_features`] builds
/// one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckedFeatures<'a>(&'a [f64]);

impl TimeseriesAwareWrapper {
    /// Starts a runtime session (one session per camera stream; call
    /// [`TauwSession::begin_series`] whenever tracking reports a new
    /// object).
    pub fn new_session(&self) -> TauwSession<'_> {
        self.session_with(())
    }

    /// Starts an adaptive runtime session: the classic serving path plus
    /// the online coverage feedback loop of [`AdaptiveState`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the config is invalid.
    pub fn new_adaptive_session(
        &self,
        config: AdaptiveConfig,
    ) -> Result<AdaptiveTauwSession<'_>, CoreError> {
        Ok(self.session_with(AdaptiveState::new(config)?))
    }

    fn session_with<A>(&self, adaptive: A) -> TauwSession<'_, A> {
        TauwSession {
            wrapper: self,
            buffer: TimeseriesBuffer::with_capacity(32),
            adaptive,
            scratch: ServingScratch::new(),
        }
    }

    /// The embedded stateless wrapper.
    pub fn stateless(&self) -> &UncertaintyWrapper {
        &self.stateless
    }

    /// The calibrated timeseries-aware quality impact model — a one-member
    /// forest (the paper's single tree) by default; see
    /// [`TauwBuilder::backend`] and [`BackendSpec`] for the other shapes.
    pub fn taqim(&self) -> &TaQim {
        &self.taqim
    }

    /// Checks the internal consistency of both calibrated models (see
    /// [`UncertaintyWrapper::validate`] and [`TaQim::validate`]) and that
    /// they fit together: the taQF set names only the four factors, and
    /// the taQIM reads exactly the stateless features plus the selected
    /// taQFs — so a step whose stateless row has the right arity cannot
    /// fail. Deserializing a wrapper runs it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on an inconsistent model.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.stateless.validate()?;
        self.taqim.validate()?;
        self.check_fit()
    }

    /// The part of [`TimeseriesAwareWrapper::validate`] that checks how the
    /// two models fit together.
    fn check_fit(&self) -> Result<(), CoreError> {
        if !self.taqf_set.is_valid() {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "taQF set {:?} selects factors beyond the four",
                    self.taqf_set
                ),
            });
        }
        let expected = self.stateless.qim().n_features() + self.taqf_set.len();
        if self.taqim.n_features() != expected {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "taQIM reads {} features, but the stateless features plus the taQF set \
                     give {expected}",
                    self.taqim.n_features()
                ),
            });
        }
        Ok(())
    }

    /// Which taQFs the taQIM consumes.
    pub fn taqf_set(&self) -> TaqfSet {
        self.taqf_set
    }

    /// The smallest uncertainty the taQIM actually serves (Fig. 5's
    /// "lowest uncertainty"): the minimum served mean over the calibration
    /// set for a forest, which for the paper's one-member forest is the
    /// minimum leaf bound (see
    /// [`crate::calibration::CalibratedForestQim::min_uncertainty`]).
    pub fn min_uncertainty(&self) -> f64 {
        self.taqim.min_uncertainty()
    }

    /// Moves the wrapper into a one-shard multi-stream
    /// [`crate::engine::TauwEngine`].
    pub fn into_engine(self) -> crate::engine::TauwEngine {
        crate::engine::TauwEngine::new(self)
    }

    /// The arity check every step passes before it touches any state.
    pub(crate) fn check_features<'a>(
        &self,
        quality_factors: &'a [f64],
    ) -> Result<CheckedFeatures<'a>, CoreError> {
        let expected = self.stateless.qim().n_features();
        match quality_factors.len() {
            actual if actual == expected => Ok(CheckedFeatures(quality_factors)),
            actual => Err(CoreError::FeatureArityMismatch { expected, actual }),
        }
    }

    /// Processes one timestep against an externally owned buffer and
    /// serving scratch: the arity check, then the step core that both
    /// session kinds and every [`crate::sharded::ShardedEngine`] wave
    /// worker run, so a batched engine step is exactly a session step by
    /// construction.
    ///
    /// Every stage is O(1) in the series length: two flat model lookups,
    /// a ring write, and reads of the buffer's running aggregates
    /// ([`TimeseriesBuffer::fused_outcome`], [`TaqfVector::compute`]),
    /// bit-identical to their O(window) references. With a bounded
    /// `buffer` and a warmed `scratch` the steady state performs **no heap
    /// allocation** (pinned by `tests/allocation.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureArityMismatch`] on a wrong feature
    /// count, in which case `buffer` is untouched.
    pub fn step_with_parts(
        &self,
        buffer: &mut TimeseriesBuffer,
        scratch: &mut ServingScratch,
        quality_factors: &[f64],
        outcome: u32,
    ) -> Result<TauwStep, CoreError> {
        let features = self.check_features(quality_factors)?;
        Ok(self.serve(buffer, scratch, features, outcome, None))
    }

    /// The step core: stateless QIM, buffer push, fused outcome, taQF
    /// vector, one taQIM lookup and, for an adaptive stream, the adapted
    /// bound and drift signal. It cannot fail: `features` passed the arity
    /// check, and a valid wrapper's taQIM reads exactly the assembled row.
    /// The adaptive lookup takes the bound and its route support from one
    /// traversal, and serves before it observes `failed`, so the bound
    /// served for step `i` never peeks at outcome `i`.
    #[inline]
    pub(crate) fn serve(
        &self,
        buffer: &mut TimeseriesBuffer,
        scratch: &mut ServingScratch,
        features: CheckedFeatures<'_>,
        outcome: u32,
        adaptive: Option<(&mut AdaptiveState, bool)>,
    ) -> TauwStep {
        const VALID: &str = "a valid wrapper serves every row of the checked arity";
        let stateless_uncertainty = self.stateless.uncertainty(features.0).expect(VALID);
        buffer.push(outcome, stateless_uncertainty);
        let fused = buffer
            .fused_outcome()
            .expect("buffer is non-empty after push");
        let taqf = TaqfVector::compute(buffer, fused).expect("buffer is non-empty");
        let row = self.assemble_row(scratch, features.0, &taqf);
        let (uncertainty, adapted_uncertainty, drift) = match adaptive {
            None => {
                let uncertainty = self.taqim.uncertainty(row).expect(VALID);
                (uncertainty, uncertainty, DriftSignal::Stable)
            }
            Some((state, failed)) => {
                let (uncertainty, support) = self.taqim.uncertainty_with_support(row).expect(VALID);
                let adapted = state.adapted_bound(uncertainty);
                let drift = state.classify(support);
                state.record_drift(drift);
                state.observe(adapted, failed);
                (uncertainty, adapted, drift)
            }
        };
        TauwStep {
            fused_outcome: fused,
            uncertainty,
            stateless_uncertainty,
            taqf,
            // Saturate rather than wrap on targets where usize is narrower
            // than the lifetime counter (a >2^32-step stream on 32 bits).
            series_length: usize::try_from(buffer.total_steps()).unwrap_or(usize::MAX),
            adapted_uncertainty,
            drift,
        }
    }

    /// Fills `scratch.features` with `[stateless QFs ‖ selected taQFs]` in
    /// place — taQFs in [`TaqfSet::kinds`] order — so a warmed scratch
    /// assembles the row without allocating.
    fn assemble_row<'s>(
        &self,
        scratch: &'s mut ServingScratch,
        quality_factors: &[f64],
        taqf: &TaqfVector,
    ) -> &'s [f64] {
        let row = &mut scratch.features;
        row.clear();
        row.extend_from_slice(quality_factors);
        for kind in TaqfKind::ALL {
            if self.taqf_set.contains(kind) {
                row.push(taqf.get(kind));
            }
        }
        row
    }

    /// The taQIM lookup for one step: assembles `[stateless QFs ‖ selected
    /// taQFs]` in `scratch.features` and routes it through the flat taQIM,
    /// exactly as the serving path does, for callers that already hold a
    /// [`TaqfVector`] (diagnostics, verification harnesses).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn ta_uncertainty_with_scratch(
        &self,
        scratch: &mut ServingScratch,
        quality_factors: &[f64],
        taqf: &TaqfVector,
    ) -> Result<f64, CoreError> {
        self.taqim
            .uncertainty(self.assemble_row(scratch, quality_factors, taqf))
    }

    /// How many calibration samples routed to the leaf combination the
    /// taQIM serves for this step's `[stateless QFs ‖ selected taQFs]`
    /// feature vector (minimum over members for a forest), or
    /// [`RouteSupport::Unsupported`] for a leafless backend. The adaptive
    /// layer uses this to separate epistemic drift (thin calibration
    /// support) from aleatoric noise — see
    /// [`crate::adaptive::AdaptiveState::classify`]. Same scratch contract
    /// as [`TimeseriesAwareWrapper::ta_uncertainty_with_scratch`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn route_support_with_scratch(
        &self,
        scratch: &mut ServingScratch,
        quality_factors: &[f64],
        taqf: &TaqfVector,
    ) -> Result<RouteSupport, CoreError> {
        self.taqim
            .route_support(self.assemble_row(scratch, quality_factors, taqf))
    }
}

/// One stream's runtime state: the trained models, the timeseries buffer,
/// a reusable [`ServingScratch`], and `adaptive` — `()` for a plain
/// session, an [`AdaptiveState`] for an [`AdaptiveTauwSession`].
#[derive(Debug, Clone)]
pub struct TauwSession<'w, A = ()> {
    wrapper: &'w TimeseriesAwareWrapper,
    buffer: TimeseriesBuffer,
    adaptive: A,
    scratch: ServingScratch,
}

impl<A> TauwSession<'_, A> {
    /// Clears the buffer at the onset of a new timeseries (new physical
    /// object reported by tracking). This resets the fusion window **and**
    /// the lifetime step counter — the next step's `series_length` (and
    /// taQF2) restarts at 1, exactly like
    /// [`crate::sharded::ShardedEngine::begin_series`] on the multi-stream
    /// path (the regression suite pins both). An adaptive session's
    /// coverage window deliberately survives: drift is a property of the
    /// *stream* (the camera, the deployment site), not of the individual
    /// tracked object.
    pub fn begin_series(&mut self) {
        self.buffer.clear();
    }

    /// Steps in the current series so far (`i + 1`, lifetime — not capped
    /// by a window bound; saturates if it outgrows `usize`).
    pub fn series_length(&self) -> usize {
        usize::try_from(self.buffer.total_steps()).unwrap_or(usize::MAX)
    }

    /// Read access to the buffer (for diagnostics).
    pub fn buffer(&self) -> &TimeseriesBuffer {
        &self.buffer
    }
}

impl TauwSession<'_> {
    /// Processes one timestep: quality factors + DDM outcome in, fused
    /// outcome + dependable uncertainty out.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureArityMismatch`] on a wrong feature
    /// count, in which case the session is untouched.
    pub fn step(&mut self, quality_factors: &[f64], outcome: u32) -> Result<TauwStep, CoreError> {
        self.wrapper.step_with_parts(
            &mut self.buffer,
            &mut self.scratch,
            quality_factors,
            outcome,
        )
    }
}

impl AdaptiveTauwSession<'_> {
    /// Processes one timestep with coverage feedback: quality factors +
    /// DDM outcome in, classic [`TauwStep`] fields plus
    /// [`TauwStep::adapted_uncertainty`] and [`TauwStep::drift`] out.
    /// `failed` is the realized ground truth for *this* step (fed back
    /// only after the adapted bound is computed — serve-then-observe).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureArityMismatch`] on a wrong feature
    /// count, in which case the session is untouched.
    pub fn step(
        &mut self,
        quality_factors: &[f64],
        outcome: u32,
        failed: bool,
    ) -> Result<TauwStep, CoreError> {
        let features = self.wrapper.check_features(quality_factors)?;
        Ok(self.wrapper.serve(
            &mut self.buffer,
            &mut self.scratch,
            features,
            outcome,
            Some((&mut self.adaptive, failed)),
        ))
    }

    /// Read access to the adaptive state (diagnostics, persistence).
    pub fn adaptive_state(&self) -> &AdaptiveState {
        &self.adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::TrainingStep;

    /// A miniature world: one quality factor `q` in [0,1]; the DDM fails
    /// with probability ~q (with series-level persistence); true class 7,
    /// confusions collapse onto class 3.
    fn make_series(n: usize, seed: u64, steps: usize) -> Vec<TrainingSeries> {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let q = next();
                // Series-level persistence: one latent coin biases all steps.
                let series_bias = next() < 0.5;
                let steps = (0..steps)
                    .map(|_| {
                        let p_fail = (q * if series_bias { 1.3 } else { 0.5 }).min(0.95);
                        let failed = next() < p_fail;
                        TrainingStep {
                            quality_factors: vec![q],
                            outcome: if failed { 3 } else { 7 },
                        }
                    })
                    .collect();
                TrainingSeries {
                    true_outcome: 7,
                    steps,
                }
            })
            .collect()
    }

    fn small_builder() -> TauwBuilder {
        let mut wb = WrapperBuilder::new();
        wb.max_depth(3).calibration(CalibrationOptions {
            min_samples_per_leaf: 50,
            confidence: 0.99,
            ..Default::default()
        });
        let mut b = TauwBuilder::new();
        b.wrapper(wb);
        b
    }

    fn fitted() -> TimeseriesAwareWrapper {
        let train = make_series(300, 1, 10);
        let calib = make_series(300, 2, 10);
        small_builder()
            .fit(vec!["q".into()], &train, &calib)
            .unwrap()
    }

    #[test]
    fn session_fuses_outcomes_by_majority() {
        let w = fitted();
        let mut s = w.new_session();
        s.begin_series();
        assert_eq!(s.step(&[0.1], 7).unwrap().fused_outcome, 7);
        assert_eq!(
            s.step(&[0.1], 3).unwrap().fused_outcome,
            3,
            "tie breaks to most recent"
        );
        assert_eq!(s.step(&[0.1], 7).unwrap().fused_outcome, 7);
        assert_eq!(s.step(&[0.1], 7).unwrap().fused_outcome, 7);
        assert_eq!(s.series_length(), 4);
    }

    #[test]
    fn begin_series_resets_the_buffer() {
        let w = fitted();
        let mut s = w.new_session();
        for _ in 0..5 {
            s.step(&[0.2], 3).unwrap();
        }
        assert_eq!(s.series_length(), 5);
        s.begin_series();
        assert_eq!(s.series_length(), 0);
        // After reset, a single new outcome defines the fused outcome.
        assert_eq!(s.step(&[0.2], 7).unwrap().fused_outcome, 7);
    }

    #[test]
    fn consistent_series_reach_lower_uncertainty_than_single_steps() {
        let w = fitted();
        let mut s = w.new_session();
        s.begin_series();
        let first = s.step(&[0.3], 7).unwrap();
        let mut last = first;
        for _ in 0..9 {
            last = s.step(&[0.3], 7).unwrap();
        }
        assert!(
            last.uncertainty <= first.uncertainty + 1e-12,
            "10 agreeing steps ({}) should not be more uncertain than 1 ({})",
            last.uncertainty,
            first.uncertainty
        );
    }

    #[test]
    fn disagreement_raises_uncertainty() {
        let w = fitted();
        // Session A: 6 agreeing outcomes. Session B: alternating outcomes.
        let mut a = w.new_session();
        let mut b = w.new_session();
        let mut ua = 0.0;
        let mut ub = 0.0;
        for i in 0..6 {
            ua = a.step(&[0.5], 7).unwrap().uncertainty;
            ub = b
                .step(&[0.5], if i % 2 == 0 { 7 } else { 3 })
                .unwrap()
                .uncertainty;
        }
        assert!(
            ub >= ua,
            "alternating outcomes ({ub}) must not look safer than agreement ({ua})"
        );
    }

    #[test]
    fn taqf_values_track_the_buffer() {
        let w = fitted();
        let mut s = w.new_session();
        s.step(&[0.1], 7).unwrap();
        s.step(&[0.1], 3).unwrap();
        let out = s.step(&[0.1], 7).unwrap();
        assert_eq!(out.fused_outcome, 7);
        assert!((out.taqf.ratio - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.taqf.length, 3.0);
        assert_eq!(out.taqf.unique_outcomes, 2.0);
        assert_eq!(out.series_length, 3);
    }

    #[test]
    fn taqf_subset_changes_model_arity() {
        let train = make_series(300, 3, 10);
        let calib = make_series(300, 4, 10);
        let mut b = small_builder();
        b.taqf_set(TaqfSet::from_kinds(&[crate::taqf::TaqfKind::Ratio]));
        let w = b.fit(vec!["q".into()], &train, &calib).unwrap();
        assert_eq!(w.taqim().n_features(), 2, "1 stateless QF + 1 taQF");
        assert_eq!(w.taqf_set().len(), 1);
        // Sessions still work.
        let mut s = w.new_session();
        let step = s.step(&[0.4], 7).unwrap();
        assert!(step.uncertainty > 0.0 && step.uncertainty <= 1.0);
    }

    #[test]
    fn empty_taqf_set_degenerates_to_stateless_features() {
        let train = make_series(300, 5, 10);
        let calib = make_series(300, 6, 10);
        let mut b = small_builder();
        b.taqf_set(TaqfSet::EMPTY);
        let w = b.fit(vec!["q".into()], &train, &calib).unwrap();
        assert_eq!(w.taqim().n_features(), 1);
    }

    #[test]
    fn reused_stateless_names_lead_every_taqim_member() {
        let train = make_series(300, 9, 10);
        let calib = make_series(300, 10, 10);
        let mut b = small_builder();
        b.backend(BackendSpec::Forest {
            n_trees: 3,
            seed: 5,
        });
        let stateless = b
            .stateless
            .fit(
                vec!["quality".into()],
                &flatten_stateless(&train),
                &flatten_stateless(&calib),
            )
            .unwrap();
        let train_replay = replay(&stateless, &train).unwrap();
        let calib_replay = replay(&stateless, &calib).unwrap();
        let w = b
            .fit_reusing_stateless(stateless, &train_replay, &calib_replay)
            .unwrap();
        let TaQim::Forest(forest) = w.taqim() else {
            panic!("a forest backend fits a forest taQIM");
        };
        let stateless_names = w.stateless().feature_names();
        assert_eq!(stateless_names, ["quality"]);
        for tree in forest.trees() {
            let names = tree.feature_names();
            assert_eq!(&names[..stateless_names.len()], stateless_names);
            assert_eq!(names.len(), stateless_names.len() + w.taqf_set().len());
        }
    }

    #[test]
    fn fit_rejects_mismatched_names() {
        let train = make_series(50, 7, 10);
        let calib = make_series(50, 8, 10);
        let err = small_builder().fit(vec!["a".into(), "b".into()], &train, &calib);
        assert!(matches!(err, Err(CoreError::FeatureArityMismatch { .. })));
    }

    #[test]
    fn fit_rejects_empty_batches() {
        let err = small_builder().fit(vec!["q".into()], &[], &[]);
        assert!(matches!(err, Err(CoreError::InvalidInput { .. })));
    }

    #[test]
    fn step_rejects_wrong_arity() {
        let w = fitted();
        let mut s = w.new_session();
        assert!(matches!(
            s.step(&[0.1, 0.2], 7),
            Err(CoreError::FeatureArityMismatch {
                expected: 1,
                actual: 2
            })
        ));
        assert!(s.buffer().is_empty(), "a rejected step must not push");
        assert_eq!(s.series_length(), 0);
        let mut a = w.new_adaptive_session(AdaptiveConfig::default()).unwrap();
        assert!(a.step(&[], 7, true).is_err());
        assert!(a.buffer().is_empty(), "a rejected step must not push");
        assert_eq!(a.adaptive_state().coverage_window().len(), 0);
    }

    #[test]
    fn forest_taqim_fits_and_serves_through_sessions() {
        let train = make_series(300, 1, 10);
        let calib = make_series(300, 2, 10);
        let mut b = small_builder();
        b.backend(BackendSpec::Forest {
            n_trees: 4,
            seed: 0xF0,
        });
        let w = b.fit(vec!["q".into()], &train, &calib).unwrap();
        assert_eq!(w.taqim().n_trees(), 4);
        assert!(w.taqim().as_forest().is_some());
        w.validate().unwrap();
        let mut s = w.new_session();
        for i in 0..8 {
            let out = s.step(&[0.3], if i % 4 == 0 { 3 } else { 7 }).unwrap();
            assert!(out.uncertainty > 0.0 && out.uncertainty <= 1.0);
            // The per-step estimate is the shared taQIM lookup routine.
            let again = w
                .ta_uncertainty_with_scratch(&mut ServingScratch::new(), &[0.3], &out.taqf)
                .unwrap();
            assert_eq!(out.uncertainty.to_bits(), again.to_bits());
            // And the pointer-member reference recompute agrees bitwise.
            let mut features = vec![0.3];
            features.extend(w.taqf_set().select(&out.taqf));
            let reference = w.taqim().uncertainty_reference(&features).unwrap();
            assert_eq!(out.uncertainty.to_bits(), reference.to_bits());
        }
        // `backend(BackendSpec::Tree)` restores the default shape.
        let mut b2 = small_builder();
        b2.backend(BackendSpec::Forest {
            n_trees: 4,
            seed: 0xF0,
        })
        .backend(BackendSpec::Tree);
        let w2 = b2.fit(vec!["q".into()], &train, &calib).unwrap();
        assert_eq!(w2.taqim().n_trees(), 1);
        assert!(w2.taqim().as_forest().is_some());
    }

    #[test]
    fn conformal_taqim_fits_and_serves_through_sessions() {
        let train = make_series(300, 1, 10);
        let calib = make_series(300, 2, 10);
        let mut b = small_builder();
        b.backend(BackendSpec::Conformal(ConformalOptions::default()));
        let w = b.fit(vec!["q".into()], &train, &calib).unwrap();
        assert_eq!(w.taqim().n_trees(), 0, "leafless backend");
        assert!(w.taqim().as_conformal().is_some());
        w.validate().unwrap();
        let mut s = w.new_session();
        for i in 0..8 {
            let out = s.step(&[0.3], if i % 4 == 0 { 3 } else { 7 }).unwrap();
            assert!(out.uncertainty > 0.0 && out.uncertainty <= 1.0);
            // The per-step estimate is the shared taQIM lookup routine.
            let mut scratch = ServingScratch::new();
            let again = w
                .ta_uncertainty_with_scratch(&mut scratch, &[0.3], &out.taqf)
                .unwrap();
            assert_eq!(out.uncertainty.to_bits(), again.to_bits());
            // And the nested-table reference recompute agrees bitwise.
            let mut features = vec![0.3];
            features.extend(w.taqf_set().select(&out.taqf));
            let reference = w.taqim().uncertainty_reference(&features).unwrap();
            assert_eq!(out.uncertainty.to_bits(), reference.to_bits());
            // Leafless: support introspection degrades explicitly.
            assert_eq!(
                w.route_support_with_scratch(&mut scratch, &[0.3], &out.taqf)
                    .unwrap(),
                RouteSupport::Unsupported
            );
        }
    }

    #[test]
    fn forest_training_is_deterministic_per_seed() {
        let train = make_series(200, 3, 10);
        let calib = make_series(200, 4, 10);
        let fit = |seed: u64| {
            let mut b = small_builder();
            b.backend(BackendSpec::Forest { n_trees: 3, seed });
            b.fit(vec!["q".into()], &train, &calib).unwrap()
        };
        let a = fit(7);
        let b = fit(7);
        assert_eq!(a, b, "same root seed must reproduce the forest");
        let c = fit(8);
        assert_ne!(
            a.taqim(),
            c.taqim(),
            "a different root seed draws different bootstrap resamples"
        );
    }

    /// Acceptance pin: steady-state stepping performs no per-step heap
    /// allocation on any taQIM shape. With a bounded (ring) buffer and a
    /// warmed scratch, the only growable buffer on the step path is
    /// `scratch.features` — asserting its pointer and capacity stay fixed
    /// across hundreds of steps proves it is reused in place rather than
    /// reallocated, while a twin buffer stepped with a fresh scratch every
    /// step pins bit-identical results.
    #[test]
    fn step_with_parts_reuses_scratch_without_reallocating() {
        let train = make_series(300, 1, 10);
        let calib = make_series(300, 2, 10);
        let tree_wrapper = fitted();
        let mut forest_builder = small_builder();
        forest_builder.backend(BackendSpec::Forest {
            n_trees: 4,
            seed: 0xF0,
        });
        let forest_wrapper = forest_builder
            .fit(vec!["q".into()], &train, &calib)
            .unwrap();
        let mut conformal_builder = small_builder();
        conformal_builder.backend(BackendSpec::Conformal(ConformalOptions::default()));
        let conformal_wrapper = conformal_builder
            .fit(vec!["q".into()], &train, &calib)
            .unwrap();
        for w in [&tree_wrapper, &forest_wrapper, &conformal_wrapper] {
            let mut buffer = TimeseriesBuffer::bounded(8);
            let mut twin = TimeseriesBuffer::bounded(8);
            let mut scratch = ServingScratch::new();
            // Warm-up: the feature row grows to its working size once.
            w.step_with_parts(&mut buffer, &mut scratch, &[0.3], 7)
                .unwrap();
            w.step_with_parts(&mut twin, &mut ServingScratch::new(), &[0.3], 7)
                .unwrap();
            let ptr = scratch.features.as_ptr();
            let capacity = scratch.features.capacity();
            assert!(capacity > 0, "warm-up must size the feature row");
            for i in 0..300 {
                let outcome = if i % 3 == 0 { 3 } else { 7 };
                let q = [0.1 + 0.8 * ((i % 7) as f64 / 7.0)];
                let fast = w
                    .step_with_parts(&mut buffer, &mut scratch, &q, outcome)
                    .unwrap();
                let reference = w
                    .step_with_parts(&mut twin, &mut ServingScratch::new(), &q, outcome)
                    .unwrap();
                assert_eq!(fast, reference, "step {i}");
            }
            assert_eq!(
                scratch.features.as_ptr(),
                ptr,
                "the feature row must be reused in place, never reallocated"
            );
            assert_eq!(scratch.features.capacity(), capacity);
        }
    }

    #[test]
    fn min_uncertainty_is_achievable() {
        let w = fitted();
        let min_u = w.min_uncertainty();
        assert!(
            min_u > 0.0,
            "a finite calibration set can never guarantee zero uncertainty"
        );
        assert!(min_u < 0.5);
    }
}
