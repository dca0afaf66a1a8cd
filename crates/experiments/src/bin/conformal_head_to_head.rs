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

use tauw_core::conformal::ConformalOptions;
use tauw_experiments::eval::evaluate;
use tauw_experiments::report::{emit, fmt_prob, section, TextTable};
use tauw_experiments::{Approach, CliOptions, ExperimentContext};
use tauw_stats::roc::auc;

/// The conformal miscoverage level α: confidence 0.9 gives the backend a
/// comfortable calibration-split budget at every world scale (rank
/// ⌈(n+1)·0.9⌉ is attainable from n = 9 samples up).
const CONFORMAL_CONFIDENCE: f64 = 0.9;

/// Distinct estimate levels (tolerance 1e-12) and the median gap between
/// adjacent levels, as in the forest ablation.
fn level_profile(mut values: Vec<f64>) -> (usize, f64) {
    values.sort_by(f64::total_cmp);
    values.dedup_by(|a, b| (*a - *b).abs() <= 1e-12);
    let mut gaps: Vec<f64> = values.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_by(f64::total_cmp);
    let median_gap = if gaps.is_empty() {
        0.0
    } else {
        gaps[gaps.len() / 2]
    };
    (values.len(), median_gap)
}

/// Fraction of test cases whose one-sided bound covers the realized
/// failure indicator: `y ≤ bound`, i.e. non-failures are always covered
/// and failures only by a (numerically) vacuous bound.
fn indicator_coverage(forecasts: &[f64], failures: &[bool]) -> f64 {
    let covered = forecasts
        .iter()
        .zip(failures)
        .filter(|(&bound, &failed)| !failed || bound >= 1.0 - 1e-12)
        .count();
    covered as f64 / forecasts.len().max(1) as f64
}

struct VariantResult {
    name: String,
    /// Nominal indicator-coverage level, if the variant promises one.
    nominal: Option<f64>,
    levels: usize,
    median_gap: f64,
    brier: f64,
    unreliability: f64,
    auc: f64,
    mean_bound: f64,
    coverage: f64,
}

fn main() {
    let opts = CliOptions::from_env();
    let ctx =
        ExperimentContext::build(opts.scale, opts.seed).expect("experiment context must build");

    let conformal_tauw = ctx
        .tauw_conformal_variant(ConformalOptions::default(), CONFORMAL_CONFIDENCE)
        .expect("conformal variant builds");
    let forest_tauw = ctx
        .tauw_forest_variant(16, opts.seed ^ 16)
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

    let mut results: Vec<VariantResult> = Vec::new();
    for (name, tauw, nominal) in variants {
        let eval = evaluate(tauw, &ctx.test).expect("evaluation runs");
        let (forecasts, failures) = eval.forecasts(Approach::IfTauw);
        let decomposition = eval
            .decomposition(Approach::IfTauw)
            .expect("decomposition computes");
        let ranking = auc(&forecasts, &failures).expect("both outcome classes present");
        let coverage = indicator_coverage(&forecasts, &failures);
        let mean_bound = forecasts.iter().sum::<f64>() / forecasts.len().max(1) as f64;
        let (levels, median_gap) = level_profile(forecasts);
        results.push(VariantResult {
            name: name.to_string(),
            nominal,
            levels,
            median_gap,
            brier: decomposition.brier,
            unreliability: decomposition.unreliability,
            auc: ranking,
            mean_bound,
            coverage,
        });
    }

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
    for r in &results {
        table.row(vec![
            r.name.clone(),
            r.levels.to_string(),
            fmt_prob(r.median_gap),
            fmt_prob(r.brier),
            fmt_prob(r.unreliability),
            format!("{:.4}", r.auc),
            fmt_prob(r.mean_bound),
            format!("{:.4}", r.coverage),
            r.nominal.map_or_else(|| "—".to_string(), fmt_prob),
        ]);
    }
    out.push_str(&table.render());

    let tree = &results[0];
    let forest = &results[1];
    let conformal = &results[2];
    out.push_str(&section("shape checks"));
    let mut checks = TextTable::new(vec!["check", "status"]);
    let mut check = |label: &str, holds: bool| {
        checks.row(vec![
            label.to_string(),
            if holds { "HOLDS" } else { "VIOLATED" }.to_string(),
        ]);
    };
    check(
        "conformal empirical coverage meets its nominal level (>= 1 - alpha)",
        conformal.coverage >= conformal.nominal.expect("conformal row carries a nominal"),
    );
    check(
        "conformal bound is informative, not vacuous (mean bound < 1)",
        conformal.mean_bound < 1.0 - 1e-9,
    );
    check(
        "conformal emits multiple distinct uncertainty levels",
        conformal.levels > 1,
    );
    check(
        "conformal ranking is informative (AUC > 0.5)",
        conformal.auc > 0.5,
    );
    check(
        "conformal granularity at least matches the tree backends",
        conformal.levels >= tree.levels && conformal.levels >= forest.levels,
    );
    check(
        "distribution-free bounds stay competitive (Brier within 0.02 of the tree)",
        (conformal.brier - tree.brier).abs() < 0.02,
    );
    out.push_str(&checks.render());

    emit(&opts.out_dir, "conformal_head_to_head.txt", &out).expect("write results");
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauw_experiments::DEFAULT_SEED;

    #[test]
    fn conformal_coverage_meets_nominal_on_held_out_windows() {
        // The acceptance bar of the head-to-head: on the held-out test
        // split, the conformal backend's empirical indicator coverage must
        // reach its nominal 1 − α — the distribution-free guarantee,
        // exercised through the same engine wave path the binary reports.
        let ctx = ExperimentContext::build(0.05, DEFAULT_SEED).unwrap();
        let tauw = ctx
            .tauw_conformal_variant(ConformalOptions::default(), CONFORMAL_CONFIDENCE)
            .unwrap();
        let eval = evaluate(&tauw, &ctx.test).unwrap();
        let (forecasts, failures) = eval.forecasts(Approach::IfTauw);
        let coverage = indicator_coverage(&forecasts, &failures);
        assert!(
            coverage >= CONFORMAL_CONFIDENCE,
            "empirical coverage {coverage} below nominal {CONFORMAL_CONFIDENCE}"
        );
        // And the bound is informative, not the vacuous all-ones answer.
        let mean = forecasts.iter().sum::<f64>() / forecasts.len() as f64;
        assert!(mean < 1.0 - 1e-9, "mean served bound {mean} is vacuous");
    }

    #[test]
    fn level_profile_counts_distinct_levels() {
        let (levels, gap) = level_profile(vec![0.25, 0.25, 0.5, 1.0]);
        assert_eq!(levels, 3);
        assert!(gap > 0.0);
        assert_eq!(level_profile(vec![0.4]), (1, 0.0));
    }

    #[test]
    fn indicator_coverage_counts_only_uncovered_failures() {
        let forecasts = [0.2, 1.0, 0.3, 0.9];
        let failures = [false, true, true, false];
        // Case 2 fails under a non-vacuous bound; everything else covers.
        assert_eq!(indicator_coverage(&forecasts, &failures), 0.75);
        assert_eq!(indicator_coverage(&[], &[]), 0.0);
    }
}
