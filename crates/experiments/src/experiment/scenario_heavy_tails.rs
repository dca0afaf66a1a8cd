//! Scenario family: heavy-tailed noise bursts on the quality features.
//!
//! Symmetric Pareto bursts hit every quality factor for runs of steps.
//! The family's default application transforms **calibration and test**
//! together, so exchangeability between the two splits survives — which
//! is exactly the regime where split-conformal's distribution-free
//! guarantee must keep holding:
//!
//! 1. with bursts on calibration *and* test, conformal empirical
//!    indicator coverage stays ≥ its nominal level;
//! 2. the conformal bound stays informative (mean bound < 1) and the
//!    wrapper keeps a useful ranking (AUC > 0.5, several levels);
//! 3. recalibrating on bursty data repairs what a clean-calibrated
//!    wrapper loses when only the test split is bursty (broken
//!    exchangeability): paired coverage ≥ broken coverage.
//!
//! The experiment gates: `run_all` exits 1 if any shape check is
//! VIOLATED.

use crate::eval::{evaluate, BackendSummary};
use crate::report::{fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::{Approach, ExperimentContext, CONFORMAL_CONFIDENCE};
use tauw_core::conformal::ConformalOptions;
use tauw_core::tauw::TimeseriesAwareWrapper;
use tauw_core::training::TrainingSeries;
use tauw_sim::scenario::{BurstParams, ScenarioFamily};

/// The IF + taUW summary of `tauw` on `test`.
fn assess(tauw: &TimeseriesAwareWrapper, test: &[TrainingSeries]) -> BackendSummary {
    let eval = evaluate(tauw, test).expect("evaluation runs");
    eval.summary(Approach::IfTauw).expect("summary computes")
}

pub fn run(ctx: &ExperimentContext) -> Report {
    let family = ScenarioFamily::HeavyTails(BurstParams::default());

    // The shared clean world is the baseline; the paired-burst world has
    // bursts on calib+test.
    let burst_ctx = ctx
        .scenario_world(family)
        .expect("scenario context must build");

    let conformal_clean = ctx
        .tauw_conformal_variant(ConformalOptions::default(), CONFORMAL_CONFIDENCE)
        .expect("conformal variant builds");
    let conformal_paired = burst_ctx
        .tauw_conformal_variant(ConformalOptions::default(), CONFORMAL_CONFIDENCE)
        .expect("conformal variant builds");
    // Broken exchangeability: calibrated clean, served bursty.
    let broken_test = ctx.scenario_test(family).expect("scenario test builds");

    let rows = [
        (
            "conformal / clean world",
            assess(&conformal_clean, &ctx.test),
        ),
        (
            "conformal / bursts on calib+test",
            assess(&conformal_paired, &burst_ctx.test),
        ),
        (
            "conformal / bursts on test only",
            assess(&conformal_clean, &broken_test),
        ),
        ("tree / clean world", assess(&ctx.tauw, &ctx.test)),
        (
            "tree / bursts on calib+test",
            assess(&burst_ctx.tauw, &burst_ctx.test),
        ),
    ];

    let mut out = String::new();
    out.push_str(&section(
        "scenario: heavy-tailed bursts on the quality features (IF + taUW rows)",
    ));
    out.push_str(&format!(
        "burst params: gate {} / mean run {} / alpha {} / scale {}.\n\
         conformal nominal coverage: {CONFORMAL_CONFIDENCE}.\n\n",
        BurstParams::default().gate_prob,
        BurstParams::default().mean_run,
        BurstParams::default().tail_alpha,
        BurstParams::default().scale,
    ));
    let mut table = TextTable::new(vec![
        "backend / world",
        "coverage",
        "mean bound",
        "AUC",
        "u levels",
    ]);
    for (name, r) in &rows {
        table.row(vec![
            name.to_string(),
            format!("{:.4}", r.coverage),
            fmt_prob(r.mean_bound),
            format!("{:.4}", r.auc),
            r.levels.to_string(),
        ]);
    }
    out.push_str(&table.render());

    let [_, paired, broken, _, tree_burst] = rows.map(|(_, summary)| summary);
    let mut checks = ShapeChecks::new();
    checks.check(
        "conformal coverage stays >= nominal under paired bursts",
        paired.coverage >= CONFORMAL_CONFIDENCE,
    );
    checks.check(
        "paired conformal bound stays informative (mean bound < 1)",
        paired.mean_bound < 1.0 - 1e-9,
    );
    checks.check(
        "recalibration repairs broken exchangeability (paired >= test-only coverage)",
        paired.coverage >= broken.coverage,
    );
    checks.check(
        "tree wrapper stays informative under bursts (AUC > 0.5, several levels)",
        tree_burst.auc > 0.5 && tree_burst.levels > 1,
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}
