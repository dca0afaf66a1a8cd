//! Extension study: do features *beyond* the paper's taQF1–4 help?
//!
//! The paper closes RQ3 with "experiments on other datasets are required to
//! determine whether the results are stable and whether there is an overall
//! best set of timeseries-aware features". This experiment probes two
//! candidate features on the synthetic substrate — the trailing agreement
//! streak and an exponentially recency-weighted agreement ratio — by
//! assembling taQIMs manually through the public `CalibratedForestQim`
//! API, one tree each.

use crate::report::{fmt_prob, section, Report, TextTable};
use crate::ExperimentContext;
use tauw_core::buffer::TimeseriesBuffer;
use tauw_core::calibration::CalibratedForestQim;
use tauw_core::taqf::{extra, TaqfVector};
use tauw_core::training::TrainingSeries;
use tauw_core::wrapper::UncertaintyWrapper;
use tauw_dtree::{Dataset, Forest, TreeBuilder};
use tauw_fusion::info::{InformationFusion, MajorityVote};
use tauw_stats::brier::brier_score;

/// Which feature block a variant uses on top of the stateless QFs.
#[derive(Clone, Copy, PartialEq)]
enum FeatureSet {
    /// The paper's taQF1–4.
    Paper,
    /// taQF1–4 plus streak and recency-weighted ratio.
    Extended,
    /// Only the two extension features.
    ExtrasOnly,
}

impl FeatureSet {
    fn label(self) -> &'static str {
        match self {
            FeatureSet::Paper => "taQF1-4 (paper)",
            FeatureSet::Extended => "taQF1-4 + streak + recency-ratio",
            FeatureSet::ExtrasOnly => "streak + recency-ratio only",
        }
    }

    fn column_names(self, stateless: &[String]) -> Vec<String> {
        let mut names = stateless.to_vec();
        if matches!(self, FeatureSet::Paper | FeatureSet::Extended) {
            names.extend(
                tauw_core::taqf::TaqfKind::ALL
                    .iter()
                    .map(|k| k.name().to_string()),
            );
        }
        if matches!(self, FeatureSet::Extended | FeatureSet::ExtrasOnly) {
            names.push("taqf_streak".to_string());
            names.push("taqf_recency_ratio".to_string());
        }
        names
    }
}

const RECENCY_LAMBDA: f64 = 0.7;

/// Replays series, emitting `(features, fused_failed)` rows for a variant.
fn replay_rows(
    stateless: &UncertaintyWrapper,
    batch: &[TrainingSeries],
    set: FeatureSet,
) -> Vec<(Vec<f64>, bool)> {
    let mut rows = Vec::new();
    let mut buffer = TimeseriesBuffer::new();
    for series in batch {
        buffer.clear();
        for step in &series.steps {
            let u = stateless
                .uncertainty(&step.quality_factors)
                .expect("estimate");
            buffer.push(step.outcome, u);
            let fused = MajorityVote
                .fuse(&buffer.outcomes(), &buffer.certainties())
                .expect("non-empty buffer");
            let mut features = step.quality_factors.clone();
            if matches!(set, FeatureSet::Paper | FeatureSet::Extended) {
                let taqf = TaqfVector::compute(&buffer, fused).expect("non-empty buffer");
                features.extend([
                    taqf.ratio,
                    taqf.length,
                    taqf.unique_outcomes,
                    taqf.cumulative_certainty,
                ]);
            }
            if matches!(set, FeatureSet::Extended | FeatureSet::ExtrasOnly) {
                features.push(extra::trailing_agreement_streak(&buffer, fused));
                features.push(extra::recency_weighted_ratio(
                    &buffer,
                    fused,
                    RECENCY_LAMBDA,
                ));
            }
            rows.push((features, fused != series.true_outcome));
        }
    }
    rows
}

pub fn run(ctx: &ExperimentContext) -> Report {
    let stateless = ctx.tauw.stateless();

    let mut out = String::new();
    out.push_str(&section(
        "extended taQF study (beyond the paper's four factors)",
    ));
    let mut table = TextTable::new(vec!["feature set", "taQIM leaves", "brier", "min u"]);

    let mut briers = Vec::new();
    for set in [
        FeatureSet::Paper,
        FeatureSet::Extended,
        FeatureSet::ExtrasOnly,
    ] {
        // Train.
        let train_rows = replay_rows(stateless, &ctx.train, set);
        let mut ds = Dataset::new(set.column_names(&ctx.feature_names), 2).expect("dataset");
        ds.reserve(train_rows.len());
        for (features, failed) in &train_rows {
            ds.push_row(features, u32::from(*failed)).expect("row");
        }
        let tree = TreeBuilder::new().max_depth(8).fit(&ds).expect("tree");
        let one_tree = Forest::from_trees(vec![tree]).expect("one tree");
        // Calibrate.
        let calib_rows = replay_rows(stateless, &ctx.calib, set);
        let qim = CalibratedForestQim::calibrate(one_tree, &calib_rows, ctx.calibration)
            .expect("calibration");
        // Evaluate.
        let test_rows = replay_rows(stateless, &ctx.test, set);
        let mut forecasts = Vec::with_capacity(test_rows.len());
        let mut failures = Vec::with_capacity(test_rows.len());
        for (features, failed) in &test_rows {
            forecasts.push(qim.uncertainty(features).expect("uncertainty"));
            failures.push(*failed);
        }
        let brier = brier_score(&forecasts, &failures).expect("brier");
        briers.push((set, brier));
        table.row(vec![
            set.label().to_string(),
            qim.trees()[0].n_leaves().to_string(),
            fmt_prob(brier),
            fmt_prob(qim.min_uncertainty()),
        ]);
    }
    out.push_str(&table.render());

    let brier_of = |s: FeatureSet| {
        briers
            .iter()
            .find(|(set, _)| *set == s)
            .map(|(_, b)| *b)
            .expect("measured")
    };
    out.push_str(&section("findings"));
    let paper = brier_of(FeatureSet::Paper);
    let extended = brier_of(FeatureSet::Extended);
    let extras = brier_of(FeatureSet::ExtrasOnly);
    out.push_str(&format!(
        "extension features change the Brier score by {:+.4} on top of taQF1-4\n\
         (paper set {paper:.4} -> extended {extended:.4}); on their own they reach {extras:.4}.\n\
         A small or zero delta supports the paper's redundancy finding: the four\n\
         proposed factors already capture the buffer's signal on this substrate.\n",
        extended - paper
    ));

    Report::from(out)
}
