//! Future-work experiment from the paper's RQ1 discussion: "Even after ten
//! images, the improvement in accuracy does not appear to reach saturation.
//! Thus, with longer timeseries, an even better result could be achieved."
//!
//! Sweeps the subsampled window length and reports how information fusion
//! and the taUW's uncertainty quality scale with series length.

use crate::eval::{evaluate, Approach};
use crate::report::{fmt_pct, fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::ExperimentContext;

pub fn run(ctx: &ExperimentContext) -> Report {
    let mut out = String::new();
    out.push_str(&section("window-length sweep (paper: length 10 only)"));
    let mut table = TextTable::new(vec![
        "window",
        "isolated miscls",
        "fused miscls",
        "fused @ last step",
        "taUW brier",
        "taUW min u",
    ]);

    let mut final_step_rates = Vec::new();
    for window_len in [5usize, 10, 15, 20] {
        let mut config = ctx.config.clone();
        config.window_len = window_len;
        let world = ctx.with_config(config).expect("context builds");
        let eval = evaluate(&world.tauw, &world.test).expect("evaluation");
        let rates = eval.misclassification_by_step();
        let last = rates.last().expect("non-empty");
        let tauw = eval.decomposition(Approach::IfTauw).expect("decomposition");
        final_step_rates.push(last.fused);
        table.row(vec![
            window_len.to_string(),
            fmt_pct(eval.isolated_misclassification()),
            fmt_pct(eval.fused_misclassification()),
            fmt_pct(last.fused),
            fmt_prob(tauw.brier),
            fmt_prob(world.tauw.min_uncertainty()),
        ]);
    }
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    let monotone = final_step_rates.windows(2).all(|w| w[1] <= w[0] + 0.004);
    checks.check(
        "fused misclassification at the final step keeps falling with longer windows",
        monotone,
    );
    checks.check(
        "no saturation: window 20 beats window 10 at the final step",
        final_step_rates[3] < final_step_rates[1],
    );
    out.push_str(&checks.render());
    out.push_str(
        "\nnote: longer windows start earlier in the approach (the full series has 30\n\
         frames), so their *average* step is further from the sign; the informative\n\
         comparison is the final-step rate, where all evidence has accumulated.\n",
    );

    Report { text: out, checks }
}
