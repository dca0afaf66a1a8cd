//! Regenerates **Fig. 6**: the calibration plot. Quantiles of predicted
//! certainty (1 − uncertainty) are plotted against observed correctness in
//! 10% steps for the naïve, worst-case, opportune and taUW models.

use crate::eval::{evaluate, Approach};
use crate::report::{section, Report, ShapeChecks, TextTable};
use crate::ExperimentContext;
use tauw_stats::calibration::spiegelhalter_z;

const CURVE_APPROACHES: [Approach; 4] = [
    Approach::IfNaive,
    Approach::IfWorstCase,
    Approach::IfOpportune,
    Approach::IfTauw,
];

pub fn run(ctx: &ExperimentContext) -> Report {
    let eval = evaluate(&ctx.tauw, &ctx.test).expect("evaluation must succeed");

    let mut out = String::new();
    out.push_str(&section(
        "Fig. 6 — calibration plot (predicted certainty quantiles vs observed correctness)",
    ));
    out.push_str(
        "gap = observed correctness - predicted certainty;\n\
         negative gap = overconfident, positive gap = underconfident\n\n",
    );

    let mut summary = TextTable::new(vec![
        "model",
        "mean signed gap",
        "ECE",
        "MCE",
        "certainty range",
        "overconfident bins",
        "Spiegelhalter Z",
    ]);
    for approach in CURVE_APPROACHES {
        let curve = eval.calibration_curve(approach, 10).expect("curve");
        out.push_str(&format!("{}:\n", approach.paper_label()));
        let mut table = TextTable::new(vec![
            "quantile",
            "predicted certainty",
            "observed correctness",
            "gap",
        ]);
        for (i, p) in curve.points.iter().enumerate() {
            table.row(vec![
                format!("{}%", (i + 1) * 10),
                format!("{:.4}", p.predicted_certainty),
                format!("{:.4}", p.observed_correctness),
                format!("{:+.4}", p.gap()),
            ]);
        }
        out.push_str(&table.render());
        out.push('\n');
        let (forecasts, failures) = eval.forecasts(approach);
        let z = spiegelhalter_z(&forecasts, &failures)
            .map(|z| format!("{z:+.1}"))
            .unwrap_or_else(|_| "n/a".to_string());
        summary.row(vec![
            approach.paper_label().to_string(),
            format!("{:+.5}", curve.mean_signed_gap()),
            format!("{:.5}", curve.ece()),
            format!("{:.5}", curve.mce()),
            format!("{:.4}", curve.certainty_range()),
            format!(
                "{}/{}",
                curve.points.iter().filter(|p| p.gap() < -0.002).count(),
                curve.points.len()
            ),
            z,
        ]);
    }

    out.push_str(&section("summary"));
    out.push_str(&summary.render());

    let naive = eval
        .calibration_curve(Approach::IfNaive, 10)
        .expect("curve");
    let worst = eval
        .calibration_curve(Approach::IfWorstCase, 10)
        .expect("curve");
    let opportune = eval
        .calibration_curve(Approach::IfOpportune, 10)
        .expect("curve");
    let tauw = eval.calibration_curve(Approach::IfTauw, 10).expect("curve");
    let mut checks = ShapeChecks::new();
    checks.check(
        "naive UF is overconfident (negative mean gap)",
        naive.mean_signed_gap() < 0.0,
    );
    checks.check(
        "worst-case UF is the most conservative (largest positive mean gap)",
        worst.mean_signed_gap() >= naive.mean_signed_gap()
            && worst.mean_signed_gap() >= opportune.mean_signed_gap()
            && worst.mean_signed_gap() >= tauw.mean_signed_gap(),
    );
    checks.check(
        "taUW is better calibrated than naive and worst-case (lower ECE)",
        tauw.ece() < naive.ece() && tauw.ece() < worst.ece(),
    );
    checks.check(
        "taUW has the largest range of predicted certainties",
        CURVE_APPROACHES.iter().all(|&a| {
            eval.calibration_curve(a, 10)
                .expect("curve")
                .certainty_range()
                <= tauw.certainty_range() + 1e-12
        }),
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}
