//! Distribution-free head-to-head: the split-conformal taQIM against the
//! paper's single tree and a K = 16 boundary-smoothed forest.
//!
//! All three variants share the same stateless wrapper, replay rows and
//! session/engine wave path — they differ *only* in the `TaQim` backend
//! shape. The conformal backend promises one-sided
//! distribution-free coverage: with confidence 1 − α, the served bound
//! covers the realized failure indicator (`y ≤ bound`) on exchangeable
//! data, with no assumption on the quality-factor distribution. The tree
//! backends promise per-leaf Clopper–Pearson bounds on the failure *rate*
//! instead, so the indicator-coverage column is only shape-checked against
//! its nominal level on the conformal row. Reported per variant: Brier
//! score (and its unreliability term), AUC, distinct uncertainty levels
//! with the median gap, mean served bound, and empirical indicator
//! coverage on the held-out test windows.

use crate::eval::evaluate;
use crate::report::{fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::{Approach, ExperimentContext, CONFORMAL_CONFIDENCE};
use tauw_core::conformal::ConformalOptions;

pub fn run(ctx: &ExperimentContext) -> Report {
    let conformal_tauw = ctx
        .tauw_conformal_variant(ConformalOptions::default(), CONFORMAL_CONFIDENCE)
        .expect("conformal variant builds");
    let forest_tauw = ctx
        .tauw_forest_variant(16, ctx.seed ^ 16)
        .expect("forest variant builds");
    let variants: [(&str, &_, Option<f64>); 3] = [
        ("single tree (paper)", &ctx.tauw, None),
        ("forest K=16", &forest_tauw, None),
        (
            "split conformal",
            &conformal_tauw,
            Some(CONFORMAL_CONFIDENCE),
        ),
    ];

    let results = variants.map(|(name, tauw, nominal)| {
        let eval = evaluate(tauw, &ctx.test).expect("evaluation runs");
        let summary = eval.summary(Approach::IfTauw).expect("summary computes");
        (name, summary, nominal)
    });

    let mut out = String::new();
    out.push_str(&section(
        "split-conformal taQIM vs tree and forest backends (IF + taUW rows)",
    ));
    let mut table = TextTable::new(vec![
        "taQIM backend",
        "u levels",
        "median level gap",
        "Brier",
        "unreliability",
        "AUC",
        "mean bound",
        "coverage",
        "nominal",
    ]);
    for (name, r, nominal) in &results {
        table.row(vec![
            name.to_string(),
            r.levels.to_string(),
            fmt_prob(r.median_gap),
            fmt_prob(r.brier),
            fmt_prob(r.unreliability),
            format!("{:.4}", r.auc),
            fmt_prob(r.mean_bound),
            format!("{:.4}", r.coverage),
            nominal.map_or_else(|| "—".to_string(), fmt_prob),
        ]);
    }
    out.push_str(&table.render());

    let [tree, forest, conformal] = results.map(|(_, summary, _)| summary);
    let mut checks = ShapeChecks::new();
    checks.check(
        "conformal empirical coverage meets its nominal level (>= 1 - alpha)",
        conformal.coverage >= CONFORMAL_CONFIDENCE,
    );
    checks.check(
        "conformal bound is informative, not vacuous (mean bound < 1)",
        conformal.mean_bound < 1.0 - 1e-9,
    );
    checks.check(
        "conformal emits multiple distinct uncertainty levels",
        conformal.levels > 1,
    );
    checks.check(
        "conformal ranking is informative (AUC > 0.5)",
        conformal.auc > 0.5,
    );
    checks.check(
        "conformal granularity at least matches the tree backends",
        conformal.levels >= tree.levels && conformal.levels >= forest.levels,
    );
    checks.check(
        "distribution-free bounds stay competitive (Brier within 0.02 of the tree)",
        (conformal.brier - tree.brier).abs() < 0.02,
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn conformal_coverage_meets_nominal_on_held_out_windows() {
        // The acceptance bar of the head-to-head: on the held-out test
        // split, the conformal backend's empirical indicator coverage must
        // reach its nominal 1 − α — the distribution-free guarantee,
        // exercised through the same engine wave path the report uses.
        let ctx = ExperimentContext::build(0.05, DEFAULT_SEED).unwrap();
        let tauw = ctx
            .tauw_conformal_variant(ConformalOptions::default(), CONFORMAL_CONFIDENCE)
            .unwrap();
        let eval = evaluate(&tauw, &ctx.test).unwrap();
        let summary = eval.summary(Approach::IfTauw).unwrap();
        assert!(
            summary.coverage >= CONFORMAL_CONFIDENCE,
            "empirical coverage {} below nominal {CONFORMAL_CONFIDENCE}",
            summary.coverage
        );
        // And the bound is informative, not the vacuous all-ones answer.
        assert!(
            summary.mean_bound < 1.0 - 1e-9,
            "mean served bound {} is vacuous",
            summary.mean_bound
        );
    }
}
