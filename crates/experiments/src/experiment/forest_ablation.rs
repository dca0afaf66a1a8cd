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
//! The experiment gates: `run_all` exits 1 if any shape check is
//! VIOLATED, so CI can assert the verdicts.

use crate::eval::evaluate;
use crate::report::{fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::{Approach, ExperimentContext};

pub fn run(ctx: &ExperimentContext) -> Report {
    let variants: [(&str, usize); 3] = [
        ("single tree (paper)", 1),
        ("forest K=4", 4),
        ("forest K=16", 16),
    ];

    let results = variants.map(|(name, k)| {
        // K = 1 is the paper's taQIM itself, whose one tree trains on every
        // replay row rather than on a bootstrap resample.
        let tauw = if k == 1 {
            ctx.tauw.clone()
        } else {
            ctx.tauw_forest_variant(k, ctx.seed ^ (k as u64))
                .expect("forest variant builds")
        };
        let eval = evaluate(&tauw, &ctx.test).expect("evaluation runs");
        (
            name,
            k,
            eval.summary(Approach::IfTauw).expect("summary computes"),
        )
    });

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
    for (name, trees, r) in &results {
        table.row(vec![
            name.to_string(),
            trees.to_string(),
            r.levels.to_string(),
            fmt_prob(r.median_gap),
            fmt_prob(r.brier),
            fmt_prob(r.unreliability),
            format!("{:.4}", r.auc),
        ]);
    }
    out.push_str(&table.render());

    let [tree, forest4, forest16] = results.map(|(_, _, summary)| summary);
    let mut checks = ShapeChecks::new();
    checks.check(
        "forests emit more distinct uncertainty levels than the single tree",
        forest4.levels >= tree.levels && forest16.levels >= tree.levels,
    );
    checks.check(
        "more members, finer granularity (K=16 levels >= K=4 levels)",
        forest16.levels >= forest4.levels,
    );
    checks.check(
        "forests shrink the typical (median) jump between adjacent levels",
        forest16.median_gap <= forest4.median_gap + 1e-12
            && forest4.median_gap <= tree.median_gap + 1e-12,
    );
    checks.check(
        "smoothing does not wreck ranking (forest AUC within 0.05 of the tree)",
        (forest4.auc - tree.auc).abs() < 0.05 && (forest16.auc - tree.auc).abs() < 0.05,
    );
    checks.check(
        "smoothing does not wreck calibration (forest Brier within 0.02 of the tree)",
        (forest4.brier - tree.brier).abs() < 0.02 && (forest16.brier - tree.brier).abs() < 0.02,
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}
