//! Scenario family: sensor dropout + multi-rate sensing.
//!
//! The wrapper is trained and calibrated on the clean world, then served
//! a test split whose *quality observations* suffer dropout runs (stale
//! or dead sensors) and multi-rate refresh — while the DDM outcomes are
//! untouched, because the latent world never changed. The paper's shape
//! claims under this family:
//!
//! 1. the fused misclassification rate is **exactly** unchanged (the
//!    transform never touches outcomes, only what the wrapper sees);
//! 2. the wrapper's failure ranking degrades (AUC drops) because its
//!    inputs went stale;
//! 3. stale sensors (hold last value) hurt less than dead sensors
//!    (read zero), since a recent reading still carries signal.
//!
//! The experiment gates: `run_all` exits 1 if any shape check is
//! VIOLATED, so CI can assert the verdicts.

use crate::eval::{evaluate, BackendSummary};
use crate::report::{fmt_pct, fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::{Approach, ExperimentContext};
use tauw_core::training::TrainingSeries;
use tauw_sim::scenario::{DropoutParams, ScenarioFamily};

/// The IF + taUW summary and the fused misclassification on `test`.
fn assess(ctx: &ExperimentContext, test: &[TrainingSeries]) -> (BackendSummary, f64) {
    let eval = evaluate(&ctx.tauw, test).expect("evaluation runs");
    let summary = eval.summary(Approach::IfTauw).expect("summary computes");
    (summary, eval.fused_misclassification())
}

pub fn run(ctx: &ExperimentContext) -> Report {
    let dropout = |stale_prob: f64| {
        ScenarioFamily::SensorDropout(DropoutParams {
            stale_prob,
            ..Default::default()
        })
    };
    let mixed_test = ctx
        .scenario_test(dropout(0.5))
        .expect("scenario test builds");
    let stale_test = ctx
        .scenario_test(dropout(1.0))
        .expect("scenario test builds");
    let dead_test = ctx
        .scenario_test(dropout(0.0))
        .expect("scenario test builds");

    let rows = [
        ("clean sensors (baseline)", assess(ctx, &ctx.test)),
        ("dropout, mixed stale/dead", assess(ctx, &mixed_test)),
        ("dropout, stale holds", assess(ctx, &stale_test)),
        ("dropout, dead zeros", assess(ctx, &dead_test)),
    ];

    let mut out = String::new();
    out.push_str(&section(
        "scenario: sensor dropout + multi-rate sensing (IF + taUW rows)",
    ));
    out.push_str(
        "wrapper trained + calibrated on the clean world; only the test\n\
         observations are transformed. outcomes never change, so any metric\n\
         movement is the wrapper losing input signal, not the DDM failing\n\
         more.\n\n",
    );
    let mut table = TextTable::new(vec![
        "test sensors",
        "AUC",
        "Brier",
        "mean bound",
        "fused misclassification",
    ]);
    for (name, (r, fused_err)) in &rows {
        table.row(vec![
            name.to_string(),
            format!("{:.4}", r.auc),
            fmt_prob(r.brier),
            fmt_prob(r.mean_bound),
            fmt_pct(*fused_err),
        ]);
    }
    out.push_str(&table.render());

    let fused_errs = rows.map(|(_, (_, fused_err))| fused_err);
    let [clean, mixed, stale, dead] = rows.map(|(_, (summary, _))| summary);
    let mut checks = ShapeChecks::new();
    checks.check(
        "fused misclassification is exactly unchanged (outcomes untouched)",
        fused_errs.iter().all(|&e| e == fused_errs[0]),
    );
    checks.check(
        "dropout degrades the wrapper's failure ranking (AUC drops)",
        mixed.auc < clean.auc,
    );
    checks.check(
        "stale sensors hurt less than dead sensors (AUC)",
        stale.auc >= dead.auc,
    );
    checks.check(
        "the wrapper stays informative under dropout (AUC > 0.5)",
        mixed.auc > 0.5,
    );
    out.push_str(&checks.render());
    out.push_str(
        "\nnote: the mean served bound may move in either direction — dead\n\
         sensors read zero deficits, which routes to *low*-uncertainty\n\
         leaves; the dependable-bound promise is only as good as the\n\
         inputs, which is exactly what this family demonstrates.\n",
    );

    Report { text: out, checks }
}
