//! Regenerates **Fig. 4**: misclassification rate over timesteps for
//! isolated predictions vs information fusion (majority voting).

use crate::eval::evaluate;
use crate::paper::{fig4_shape_holds, headline};
use crate::report::{bar, fmt_pct, section, verdict, Report, TextTable};
use crate::ExperimentContext;

pub fn run(ctx: &ExperimentContext) -> Report {
    let eval = evaluate(&ctx.tauw, &ctx.test).expect("evaluation must succeed");

    let mut out = String::new();
    out.push_str(&section("Fig. 4 — misclassification rate over timesteps"));
    let rates = eval.misclassification_by_step();
    let max_rate = rates
        .iter()
        .map(|r| r.isolated.max(r.fused))
        .fold(0.0, f64::max);
    let mut table = TextTable::new(vec![
        "timestep",
        "isolated",
        "fused (IF)",
        "n",
        "isolated bar",
        "fused bar",
    ]);
    for r in &rates {
        table.row(vec![
            r.timestep.to_string(),
            fmt_pct(r.isolated),
            fmt_pct(r.fused),
            r.n.to_string(),
            bar(r.isolated, max_rate, 30),
            bar(r.fused, max_rate, 30),
        ]);
    }
    out.push_str(&table.render());

    out.push_str(&section("paper vs measured"));
    let mut cmp = TextTable::new(vec!["quantity", "paper", "measured"]);
    cmp.row(vec![
        "DDM misclassification (all steps)".to_string(),
        fmt_pct(headline::DDM_MISCLASSIFICATION),
        fmt_pct(eval.isolated_misclassification()),
    ]);
    cmp.row(vec![
        "fused misclassification (all steps)".to_string(),
        fmt_pct(headline::FUSED_MISCLASSIFICATION),
        fmt_pct(eval.fused_misclassification()),
    ]);
    let step10 = rates.last().expect("non-empty rates");
    cmp.row(vec![
        format!("fused misclassification (step {})", step10.timestep),
        fmt_pct(headline::FUSED_MISCLASSIFICATION_STEP10),
        fmt_pct(step10.fused),
    ]);
    out.push_str(&cmp.render());

    out.push_str(&format!(
        "\nshape check (coincide at step 1, fused <= isolated from step 3, declining): {}\n",
        verdict(fig4_shape_holds(&rates))
    ));

    Report::from(out)
}
