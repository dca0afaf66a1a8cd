//! Scenario family: correlated multi-source evidence streams.
//!
//! Every test frame is replicated into three interleaved evidence
//! sources (in the spirit of the Time Evidence Fusion Network): source 0
//! is the original DDM output, secondary sources carry independently
//! noised observations and outcomes correlated with the primary through
//! a single `correlation` parameter. The fusion layer's majority vote is
//! the component under stress:
//!
//! 1. structurally, the family triples every series;
//! 2. near-independent sources help — the end-of-series fused
//!    misclassification drops below the single-source baseline, because
//!    systematic within-series error runs get diluted by fresh evidence;
//! 3. correlation erodes that gain — highly correlated sources are
//!    mostly replicas, so their end-of-series error stays above the
//!    near-independent case;
//! 4. fusion still beats isolated per-frame outcomes inside the
//!    multi-source world.
//!
//! The experiment gates: `run_all` exits 1 if any shape check is
//! VIOLATED.

use crate::eval::{evaluate, TestEvaluation};
use crate::report::{fmt_pct, section, Report, ShapeChecks, TextTable};
use crate::ExperimentContext;
use tauw_core::training::TrainingSeries;
use tauw_sim::scenario::{MultiSourceParams, ScenarioFamily};

/// End-of-series fused misclassification: the fraction of series whose
/// *final* fused outcome is wrong — the decision a deployment would act
/// on after seeing all the evidence.
fn final_step_error(test: &[TrainingSeries], eval: &TestEvaluation) -> f64 {
    let mut idx = 0usize;
    let mut wrong = 0usize;
    for series in test {
        idx += series.steps.len();
        if eval.cases[idx - 1].fused_failed {
            wrong += 1;
        }
    }
    wrong as f64 / test.len().max(1) as f64
}

struct Row {
    series_len: usize,
    final_err: f64,
    fused_err: f64,
    isolated_err: f64,
}

fn assess(ctx: &ExperimentContext, test: &[TrainingSeries]) -> Row {
    let eval = evaluate(&ctx.tauw, test).expect("evaluation runs");
    Row {
        series_len: test.first().map_or(0, |s| s.steps.len()),
        final_err: final_step_error(test, &eval),
        fused_err: eval.fused_misclassification(),
        isolated_err: eval.isolated_misclassification(),
    }
}

pub fn run(ctx: &ExperimentContext) -> Report {
    let multi_source = |correlation: f64| {
        ScenarioFamily::MultiSource(MultiSourceParams {
            correlation,
            ..Default::default()
        })
    };
    let low_corr_test = ctx
        .scenario_test(multi_source(0.15))
        .expect("scenario test builds");
    let high_corr_test = ctx
        .scenario_test(multi_source(0.9))
        .expect("scenario test builds");

    let rows = [
        ("single source (baseline)", assess(ctx, &ctx.test)),
        ("3 sources, correlation 0.15", assess(ctx, &low_corr_test)),
        ("3 sources, correlation 0.90", assess(ctx, &high_corr_test)),
    ];

    let mut out = String::new();
    out.push_str(&section(
        "scenario: correlated multi-source evidence (majority-vote fusion)",
    ));
    out.push_str(
        "secondary sources disagree with a correct primary with p=0.1 when\n\
         uncorrelated, and are coin-flip informative on primary errors —\n\
         so independent sources dilute the DDM's systematic error runs,\n\
         while correlated sources just replicate them.\n\n",
    );
    let mut table = TextTable::new(vec![
        "evidence",
        "series length",
        "final-step error",
        "fused error (all steps)",
        "isolated error (all steps)",
    ]);
    for (name, r) in &rows {
        table.row(vec![
            name.to_string(),
            r.series_len.to_string(),
            fmt_pct(r.final_err),
            fmt_pct(r.fused_err),
            fmt_pct(r.isolated_err),
        ]);
    }
    out.push_str(&table.render());

    let [baseline, low, high] = rows.map(|(_, row)| row);
    let mut checks = ShapeChecks::new();
    checks.check(
        "multi-source series carry 3x the evidence (structural)",
        low.series_len == baseline.series_len * 3 && high.series_len == baseline.series_len * 3,
    );
    checks.check(
        "near-independent sources beat the single-source baseline (final step)",
        low.final_err < baseline.final_err,
    );
    checks.check(
        "correlation erodes the fusion gain (low-corr <= high-corr final error)",
        low.final_err <= high.final_err,
    );
    checks.check(
        "fusion beats isolated outcomes inside the multi-source world",
        low.fused_err <= low.isolated_err,
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}
