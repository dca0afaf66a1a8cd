//! Evaluation of the six uncertainty-estimation approaches of Table I on
//! the test windows.
//!
//! The replay runs on the multi-stream [`TauwEngine`]: every test window is
//! a stream, and each wave of the window advances all streams through one
//! batched [`tauw_core::sharded::ShardedEngine::step_many_borrowed`] call — the same inference
//! path a production deployment would use. Every per-step estimate routes through
//! the compiled [`tauw_dtree::FlatTree`] serving form (one SoA traversal
//! plus a leaf-ID bound lookup per model). Results are bit-identical to
//! replaying each series through its own [`tauw_core::tauw::TauwSession`],
//! and — by the determinism suite — to the pointer-tree reference path.

use tauw_core::engine::TauwEngine;
use tauw_core::tauw::TimeseriesAwareWrapper;
use tauw_core::training::TrainingSeries;
use tauw_core::CoreError;
use tauw_fusion::uncertainty::UncertaintyFusion;
use tauw_stats::brier::{BrierDecomposition, Grouping};
use tauw_stats::calibration::CalibrationCurve;
use tauw_stats::roc::auc;
use tauw_stats::StatsError;

/// The six approaches compared in the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Stateless UW on isolated predictions (no IF, no UF).
    StatelessNoIf,
    /// Fused predictions, uncertainty from the stateless UW of the current
    /// step (IF + no UF).
    IfNoUf,
    /// Fused predictions + naïve product fusion of uncertainties.
    IfNaive,
    /// Fused predictions + worst-case (max) fusion.
    IfWorstCase,
    /// Fused predictions + opportune (min) fusion.
    IfOpportune,
    /// Fused predictions + the timeseries-aware uncertainty wrapper.
    IfTauw,
}

impl Approach {
    /// All six, in the paper's row order.
    pub const ALL: [Approach; 6] = [
        Approach::StatelessNoIf,
        Approach::IfNoUf,
        Approach::IfNaive,
        Approach::IfWorstCase,
        Approach::IfOpportune,
        Approach::IfTauw,
    ];

    /// Row label matching Table I.
    pub fn paper_label(self) -> &'static str {
        match self {
            Approach::StatelessNoIf => "Stateless UW (no IF + no UF)",
            Approach::IfNoUf => "(Fused) IF + no UF",
            Approach::IfNaive => "IF + Naive UF",
            Approach::IfWorstCase => "IF + Worst-case UF",
            Approach::IfOpportune => "IF + Opportune UF",
            Approach::IfTauw => "IF + taUW",
        }
    }

    /// Whether the approach scores the *fused* outcome (everything except
    /// the stateless baseline).
    pub fn scores_fused_outcome(self) -> bool {
        !matches!(self, Approach::StatelessNoIf)
    }

    /// Grouping used for the Murphy decomposition: tree-backed approaches
    /// emit finitely many distinct bounds (exact grouping); the naïve
    /// product is continuous and needs binning.
    pub fn grouping(self) -> Grouping {
        match self {
            Approach::IfNaive => Grouping::QuantileBins(100),
            _ => Grouping::UniqueValues { tolerance: 1e-9 },
        }
    }
}

impl std::fmt::Display for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_label())
    }
}

/// Per-(series, step) evaluation record with every approach's uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseRecord {
    /// Step within the window (0-based).
    pub step: usize,
    /// Whether the isolated DDM outcome at this step was wrong.
    pub isolated_failed: bool,
    /// Whether the fused outcome after this step was wrong.
    pub fused_failed: bool,
    /// Stateless UW uncertainty of the current step.
    pub u_stateless: f64,
    /// Naïve product over the window so far.
    pub u_naive: f64,
    /// Worst-case (max) over the window so far.
    pub u_worst: f64,
    /// Opportune (min) over the window so far.
    pub u_opportune: f64,
    /// taUW uncertainty for the fused outcome.
    pub u_tauw: f64,
}

impl CaseRecord {
    /// The forecast failure probability of one approach for this case.
    pub fn uncertainty(&self, approach: Approach) -> f64 {
        match approach {
            Approach::StatelessNoIf | Approach::IfNoUf => self.u_stateless,
            Approach::IfNaive => self.u_naive,
            Approach::IfWorstCase => self.u_worst,
            Approach::IfOpportune => self.u_opportune,
            Approach::IfTauw => self.u_tauw,
        }
    }

    /// The realized failure event the approach is scored against.
    pub fn failed(&self, approach: Approach) -> bool {
        if approach.scores_fused_outcome() {
            self.fused_failed
        } else {
            self.isolated_failed
        }
    }
}

/// Misclassification rates at one window step (Fig. 4 rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRates {
    /// Window step (1-based, like the paper's x-axis).
    pub timestep: usize,
    /// Misclassification rate of isolated predictions at this step.
    pub isolated: f64,
    /// Misclassification rate of fused predictions at this step.
    pub fused: f64,
    /// Cases at this step.
    pub n: usize,
}

/// What one approach's served bounds show on the test windows: the
/// numbers every backend comparison and scenario wall reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSummary {
    /// Failure ranking (area under the ROC curve).
    pub auc: f64,
    /// Brier score.
    pub brier: f64,
    /// The unreliability term of the Brier decomposition.
    pub unreliability: f64,
    /// Mean served bound.
    pub mean_bound: f64,
    /// Distinct bound levels (values within 1e-12 count as one).
    pub levels: usize,
    /// Median gap between adjacent levels: a coarse estimator has few
    /// levels with large typical steps.
    pub median_gap: f64,
    /// Share of cases whose one-sided bound covers the realized failure
    /// indicator (`y ≤ bound`).
    pub coverage: f64,
}

/// Distinct estimate levels (tolerance 1e-12) and the median gap between
/// adjacent levels — a coarse estimator has few levels with large typical
/// steps. (The *widest* gap is not a smoothness measure: an ensemble mean
/// legitimately keeps one large jump where every member agrees.)
fn level_profile(values: &[f64]) -> (usize, f64) {
    let mut levels = values.to_vec();
    levels.sort_by(f64::total_cmp);
    levels.dedup_by(|a, b| (*a - *b).abs() <= 1e-12);
    let mut gaps: Vec<f64> = levels.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_by(f64::total_cmp);
    let median_gap = gaps.get(gaps.len() / 2).copied().unwrap_or(0.0);
    (levels.len(), median_gap)
}

/// Fraction of cases whose one-sided bound covers the realized failure
/// indicator: `y ≤ bound`, i.e. non-failures are always covered and
/// failures only by a (numerically) vacuous bound.
fn indicator_coverage(forecasts: &[f64], failures: &[bool]) -> f64 {
    let covered = forecasts
        .iter()
        .zip(failures)
        .filter(|(&bound, &failed)| !failed || bound >= 1.0 - 1e-12)
        .count();
    covered as f64 / forecasts.len().max(1) as f64
}

/// All evaluation records for a test set.
#[derive(Debug, Clone, PartialEq)]
pub struct TestEvaluation {
    /// One record per (series, step).
    pub cases: Vec<CaseRecord>,
    /// Window length of the test series.
    pub window_len: usize,
}

/// Replays the test series through the trained wrapper and collects every
/// approach's uncertainty per case.
///
/// Every series becomes one engine stream; step `j` of all series is
/// submitted as one batched [`tauw_core::sharded::ShardedEngine::step_many_borrowed`] wave
/// (see [`tauw_core::sharded::ShardedEngine::step_series_waves`]). The engine
/// guarantees stream independence, so the records are bit-identical to the
/// sequential one-session-per-series replay, in the same (series, step)
/// order.
///
/// # Errors
///
/// Returns [`CoreError`] on feature-arity mismatch.
pub fn evaluate(
    tauw: &TimeseriesAwareWrapper,
    test: &[TrainingSeries],
) -> Result<TestEvaluation, CoreError> {
    let window_len = test.iter().map(TrainingSeries::len).max().unwrap_or(0);
    let waves = TauwEngine::new(tauw.clone()).step_series_waves(test)?;
    let mut cases = Vec::with_capacity(test.iter().map(TrainingSeries::len).sum());
    let mut step_uncertainties: Vec<f64> = Vec::with_capacity(window_len);
    for (series, outs) in test.iter().zip(&waves) {
        step_uncertainties.clear();
        for (j, out) in outs.iter().enumerate() {
            step_uncertainties.push(out.stateless_uncertainty);
            let u_naive = UncertaintyFusion::Naive
                .fuse(&step_uncertainties)
                .expect("non-empty uncertainties");
            let u_worst = UncertaintyFusion::WorstCase
                .fuse(&step_uncertainties)
                .expect("non-empty uncertainties");
            let u_opportune = UncertaintyFusion::Opportune
                .fuse(&step_uncertainties)
                .expect("non-empty uncertainties");
            cases.push(CaseRecord {
                step: j,
                isolated_failed: series.is_failure(j),
                fused_failed: out.fused_outcome != series.true_outcome,
                u_stateless: out.stateless_uncertainty,
                u_naive,
                u_worst,
                u_opportune,
                u_tauw: out.uncertainty,
            });
        }
    }
    Ok(TestEvaluation { cases, window_len })
}

impl TestEvaluation {
    /// `(forecasts, failures)` slices for one approach.
    pub fn forecasts(&self, approach: Approach) -> (Vec<f64>, Vec<bool>) {
        let forecasts = self.cases.iter().map(|c| c.uncertainty(approach)).collect();
        let failures = self.cases.iter().map(|c| c.failed(approach)).collect();
        (forecasts, failures)
    }

    /// Brier decomposition for one approach (Table I row).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] only for empty evaluations.
    pub fn decomposition(&self, approach: Approach) -> Result<BrierDecomposition, StatsError> {
        let (forecasts, failures) = self.forecasts(approach);
        BrierDecomposition::compute(&forecasts, &failures, approach.grouping())
    }

    /// The [`BackendSummary`] of one approach.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for empty evaluations and when the cases
    /// hold only one outcome class (AUC is undefined).
    pub fn summary(&self, approach: Approach) -> Result<BackendSummary, StatsError> {
        let (forecasts, failures) = self.forecasts(approach);
        let decomposition =
            BrierDecomposition::compute(&forecasts, &failures, approach.grouping())?;
        let (levels, median_gap) = level_profile(&forecasts);
        Ok(BackendSummary {
            auc: auc(&forecasts, &failures)?,
            brier: decomposition.brier,
            unreliability: decomposition.unreliability,
            mean_bound: forecasts.iter().sum::<f64>() / forecasts.len().max(1) as f64,
            levels,
            median_gap,
            coverage: indicator_coverage(&forecasts, &failures),
        })
    }

    /// Calibration curve over quantile bins for one approach (Fig. 6).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] only for empty evaluations.
    pub fn calibration_curve(
        &self,
        approach: Approach,
        bins: usize,
    ) -> Result<CalibrationCurve, StatsError> {
        let (forecasts, failures) = self.forecasts(approach);
        CalibrationCurve::from_uncertainties(&forecasts, &failures, bins)
    }

    /// Misclassification per window step, isolated vs fused (Fig. 4).
    pub fn misclassification_by_step(&self) -> Vec<StepRates> {
        let mut rates = Vec::new();
        for step in 0..self.window_len {
            let at_step: Vec<&CaseRecord> = self.cases.iter().filter(|c| c.step == step).collect();
            if at_step.is_empty() {
                continue;
            }
            let n = at_step.len();
            let isolated = at_step.iter().filter(|c| c.isolated_failed).count() as f64 / n as f64;
            let fused = at_step.iter().filter(|c| c.fused_failed).count() as f64 / n as f64;
            rates.push(StepRates {
                timestep: step + 1,
                isolated,
                fused,
                n,
            });
        }
        rates
    }

    /// Mean isolated misclassification over all cases (paper: 7.89%).
    pub fn isolated_misclassification(&self) -> f64 {
        self.cases.iter().filter(|c| c.isolated_failed).count() as f64
            / self.cases.len().max(1) as f64
    }

    /// Mean fused misclassification over all cases (paper: 5.57%).
    pub fn fused_misclassification(&self) -> f64 {
        self.cases.iter().filter(|c| c.fused_failed).count() as f64 / self.cases.len().max(1) as f64
    }

    /// `(lowest uncertainty, fraction of cases at it)` for an approach —
    /// Fig. 5's headline ("u = 0.0072 can be guaranteed for 65.9% of the
    /// cases").
    pub fn lowest_uncertainty_share(&self, approach: Approach) -> (f64, f64) {
        let mut min_u = f64::INFINITY;
        for c in &self.cases {
            min_u = min_u.min(c.uncertainty(approach));
        }
        if !min_u.is_finite() {
            return (0.0, 0.0);
        }
        let at_min = self
            .cases
            .iter()
            .filter(|c| c.uncertainty(approach) <= min_u + 1e-12)
            .count();
        (min_u, at_min as f64 / self.cases.len().max(1) as f64)
    }

    /// All uncertainties of one approach (for histograms).
    pub fn uncertainties(&self, approach: Approach) -> Vec<f64> {
        self.cases.iter().map(|c| c.uncertainty(approach)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentContext;

    fn small_eval() -> (ExperimentContext, TestEvaluation) {
        let ctx = ExperimentContext::build(0.02, 11).unwrap();
        let eval = evaluate(&ctx.tauw, &ctx.test).unwrap();
        (ctx, eval)
    }

    #[test]
    fn one_case_per_series_step() {
        let (ctx, eval) = small_eval();
        let expected: usize = ctx.test.iter().map(TrainingSeries::len).sum();
        assert_eq!(eval.cases.len(), expected);
        assert_eq!(eval.window_len, 10);
    }

    #[test]
    fn fusion_beats_isolated_on_average() {
        // The fusion advantage is an *average* claim; at 2% scale (~80 test
        // windows) sampling noise can flip it, so this test runs on a
        // larger slice of the world than the structural tests above.
        let ctx = ExperimentContext::build(0.08, 11).unwrap();
        let eval = evaluate(&ctx.tauw, &ctx.test).unwrap();
        assert!(
            eval.fused_misclassification() <= eval.isolated_misclassification(),
            "fused {} vs isolated {}",
            eval.fused_misclassification(),
            eval.isolated_misclassification()
        );
    }

    #[test]
    fn step_one_rates_coincide() {
        // With a single outcome, fused == isolated (paper: "during the
        // first two steps, DDM+IF and isolated DDM prediction outcomes
        // coincide").
        let (_, eval) = small_eval();
        let rates = eval.misclassification_by_step();
        assert_eq!(rates[0].timestep, 1);
        assert!((rates[0].isolated - rates[0].fused).abs() < 1e-12);
    }

    #[test]
    fn uncertainty_orderings_hold_per_case() {
        let (_, eval) = small_eval();
        for c in &eval.cases {
            assert!(c.u_naive <= c.u_opportune + 1e-12);
            assert!(c.u_opportune <= c.u_worst + 1e-12);
            assert!(c.u_opportune <= c.u_stateless + 1e-12);
            assert!(c.u_stateless <= c.u_worst + 1e-12);
            for a in Approach::ALL {
                let u = c.uncertainty(a);
                assert!((0.0..=1.0).contains(&u));
            }
        }
    }

    #[test]
    fn decompositions_compute_for_all_approaches() {
        let (_, eval) = small_eval();
        for a in Approach::ALL {
            let d = eval.decomposition(a).unwrap();
            assert!(d.brier >= 0.0 && d.brier <= 1.0, "{a}: brier {}", d.brier);
            assert!(d.variance >= 0.0);
            // Variance is shared by all fused approaches.
        }
        let d_if = eval.decomposition(Approach::IfNoUf).unwrap();
        let d_ta = eval.decomposition(Approach::IfTauw).unwrap();
        assert!((d_if.variance - d_ta.variance).abs() < 1e-12);
    }

    #[test]
    fn lowest_uncertainty_share_is_consistent() {
        let (_, eval) = small_eval();
        let (min_u, share) = eval.lowest_uncertainty_share(Approach::IfTauw);
        assert!(min_u > 0.0 && min_u < 1.0);
        assert!(share > 0.0 && share <= 1.0);
        let us = eval.uncertainties(Approach::IfTauw);
        let manual_min = us.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(min_u, manual_min);
    }

    #[test]
    fn engine_replay_matches_sequential_sessions_bitwise() {
        // The batched multi-stream replay must be indistinguishable from
        // one dedicated session per series.
        let (ctx, eval) = small_eval();
        let mut session = ctx.tauw.new_session();
        let mut idx = 0usize;
        for series in &ctx.test {
            session.begin_series();
            for step in &series.steps {
                let out = session.step(&step.quality_factors, step.outcome).unwrap();
                let case = &eval.cases[idx];
                assert_eq!(case.u_tauw.to_bits(), out.uncertainty.to_bits());
                assert_eq!(
                    case.u_stateless.to_bits(),
                    out.stateless_uncertainty.to_bits()
                );
                assert_eq!(case.fused_failed, out.fused_outcome != series.true_outcome);
                idx += 1;
            }
        }
        assert_eq!(idx, eval.cases.len());
    }

    #[test]
    fn level_profile_counts_distinct_levels() {
        let (levels, gap) = level_profile(&[0.25, 0.25, 0.5, 1.0]);
        assert_eq!(levels, 3);
        assert!(gap > 0.0);
        assert_eq!(level_profile(&[0.4]), (1, 0.0));
    }

    #[test]
    fn indicator_coverage_counts_only_uncovered_failures() {
        let forecasts = [0.2, 1.0, 0.3, 0.9];
        let failures = [false, true, true, false];
        // Case 2 fails under a non-vacuous bound; everything else covers.
        assert_eq!(indicator_coverage(&forecasts, &failures), 0.75);
        assert_eq!(indicator_coverage(&[], &[]), 0.0);
    }

    #[test]
    fn summary_matches_the_per_metric_computations() {
        let (_, eval) = small_eval();
        let s = eval.summary(Approach::IfTauw).unwrap();
        let (forecasts, failures) = eval.forecasts(Approach::IfTauw);
        let d = eval.decomposition(Approach::IfTauw).unwrap();
        assert_eq!(s.auc, auc(&forecasts, &failures).unwrap());
        assert_eq!((s.brier, s.unreliability), (d.brier, d.unreliability));
        assert_eq!((s.levels, s.median_gap), level_profile(&forecasts));
        assert_eq!(s.coverage, indicator_coverage(&forecasts, &failures));
        assert!(s.mean_bound > 0.0 && s.mean_bound < 1.0);
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Approach::IfTauw.paper_label(), "IF + taUW");
        assert_eq!(Approach::ALL.len(), 6);
        assert!(!Approach::StatelessNoIf.scores_fused_outcome());
        assert!(Approach::IfNaive.scores_fused_outcome());
    }
}
