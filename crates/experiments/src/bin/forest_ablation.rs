//! Boundary-smoothing ablation: the paper's single-tree taQIM against
//! calibrated bootstrap forests of K = 4 and K = 16 members.
//!
//! A single decision tree's uncertainty estimate jumps discontinuously at
//! its split thresholds — the *hard boundary* problem Gerber, Jöckel &
//! Kläs study ("A Study on Mitigating Hard Boundaries of
//! Decision-Tree-based Uncertainty Estimates for AI Models"), where
//! ensembles smooth the estimate. This experiment quantifies that effect
//! on the synthetic substrate: every variant shares the same stateless
//! wrapper, replay rows and calibration procedure, so the only difference
//! is the taQIM estimator family. Reported per variant: Brier score (and
//! its unreliability term), AUC (pure failure ranking), the number of
//! distinct uncertainty levels the estimator emits, and the median jump
//! between adjacent levels — the granularity measures a hard boundary
//! shows up in.
//!
//! The binary exits non-zero if any shape check is VIOLATED, so CI can
//! assert the verdicts.

use tauw_experiments::eval::evaluate;
use tauw_experiments::report::{emit, fmt_prob, section, TextTable};
use tauw_experiments::{Approach, CliOptions, ExperimentContext};
use tauw_stats::roc::auc;

/// Distinct estimate levels (tolerance 1e-12) and the median gap between
/// adjacent levels — a coarse estimator has few levels with large typical
/// steps. (The *widest* gap is not a smoothness measure: an ensemble mean
/// legitimately keeps one large jump where every member agrees.)
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

struct VariantResult {
    name: String,
    trees: usize,
    levels: usize,
    median_gap: f64,
    brier: f64,
    unreliability: f64,
    auc: f64,
}

fn main() {
    let opts = CliOptions::from_env();
    let ctx =
        ExperimentContext::build(opts.scale, opts.seed).expect("experiment context must build");

    let variants: [(&str, usize); 3] = [
        ("single tree (paper)", 1),
        ("forest K=4", 4),
        ("forest K=16", 16),
    ];

    let mut results: Vec<VariantResult> = Vec::new();
    for (name, k) in variants {
        // K = 1 is the paper's taQIM itself, whose one tree trains on every
        // replay row rather than on a bootstrap resample.
        let tauw = if k == 1 {
            ctx.tauw.clone()
        } else {
            ctx.tauw_forest_variant(k, opts.seed ^ (k as u64))
                .expect("forest variant builds")
        };
        let eval = evaluate(&tauw, &ctx.test).expect("evaluation runs");
        let (forecasts, failures) = eval.forecasts(Approach::IfTauw);
        let decomposition = eval
            .decomposition(Approach::IfTauw)
            .expect("decomposition computes");
        let ranking = auc(&forecasts, &failures).expect("both outcome classes present");
        let (levels, median_gap) = level_profile(forecasts);
        results.push(VariantResult {
            name: name.to_string(),
            trees: k,
            levels,
            median_gap,
            brier: decomposition.brier,
            unreliability: decomposition.unreliability,
            auc: ranking,
        });
    }

    let mut out = String::new();
    out.push_str(&section(
        "boundary-smoothed forest taQIM vs single tree (IF + taUW rows)",
    ));
    let mut table = TextTable::new(vec![
        "taQIM variant",
        "trees",
        "u levels",
        "median level gap",
        "Brier",
        "unreliability",
        "AUC",
    ]);
    for r in &results {
        table.row(vec![
            r.name.clone(),
            r.trees.to_string(),
            r.levels.to_string(),
            fmt_prob(r.median_gap),
            fmt_prob(r.brier),
            fmt_prob(r.unreliability),
            format!("{:.4}", r.auc),
        ]);
    }
    out.push_str(&table.render());

    let tree = &results[0];
    let forest4 = &results[1];
    let forest16 = &results[2];
    out.push_str(&section("shape checks"));
    let mut checks = TextTable::new(vec!["check", "status"]);
    let mut violations = 0usize;
    let mut check = |label: &str, holds: bool| {
        if !holds {
            violations += 1;
        }
        checks.row(vec![
            label.to_string(),
            if holds { "HOLDS" } else { "VIOLATED" }.to_string(),
        ]);
    };
    check(
        "forests emit more distinct uncertainty levels than the single tree",
        forest4.levels >= tree.levels && forest16.levels >= tree.levels,
    );
    check(
        "more members, finer granularity (K=16 levels >= K=4 levels)",
        forest16.levels >= forest4.levels,
    );
    check(
        "forests shrink the typical (median) jump between adjacent levels",
        forest16.median_gap <= forest4.median_gap + 1e-12
            && forest4.median_gap <= tree.median_gap + 1e-12,
    );
    check(
        "smoothing does not wreck ranking (forest AUC within 0.05 of the tree)",
        (forest4.auc - tree.auc).abs() < 0.05 && (forest16.auc - tree.auc).abs() < 0.05,
    );
    check(
        "smoothing does not wreck calibration (forest Brier within 0.02 of the tree)",
        (forest4.brier - tree.brier).abs() < 0.02 && (forest16.brier - tree.brier).abs() < 0.02,
    );
    out.push_str(&checks.render());

    emit(&opts.out_dir, "forest_ablation.txt", &out).expect("write results");
    if violations > 0 {
        eprintln!("forest_ablation: {violations} shape check(s) VIOLATED");
        std::process::exit(1);
    }
}
