//! Sensitivity study: verifies that the Table I *ordering* (taUW best;
//! naive most overconfident; worst-case most conservative) is a property
//! of the method, not an artifact of one simulator tuning, by sweeping the
//! within-series error-correlation strength.

use crate::eval::{evaluate, Approach};
use crate::report::{fmt_pct, fmt_prob, section, Report, TextTable};
use crate::ExperimentContext;

pub fn run(ctx: &ExperimentContext) -> Report {
    let mut out = String::new();
    out.push_str(&section(
        "sensitivity: Table I ordering vs within-series error correlation",
    ));
    let mut table = TextTable::new(vec![
        "copula phi",
        "series sigma",
        "ddm miscls",
        "fused miscls",
        "tauw best brier",
        "naive most overconf",
        "worst most unreliable",
    ]);

    for (phi, sigma) in [(0.0, 0.3), (0.4, 0.7), (0.72, 1.05), (0.9, 1.4)] {
        let mut config = ctx.config.clone();
        config.ddm_error_copula_phi = phi;
        config.ddm_series_sigma = sigma;
        let world = ctx.with_config(config).expect("context builds");
        let eval = evaluate(&world.tauw, &world.test).expect("evaluation");

        let d = |a: Approach| eval.decomposition(a).expect("decomposition");
        let tauw = d(Approach::IfTauw);
        let naive = d(Approach::IfNaive);
        let worst = d(Approach::IfWorstCase);
        let tauw_best = Approach::ALL
            .iter()
            .all(|&a| tauw.brier <= d(a).brier + 1e-12);
        let naive_overconf = Approach::ALL
            .iter()
            .all(|&a| naive.overconfidence >= d(a).overconfidence - 1e-12);
        let worst_unreliable = Approach::ALL
            .iter()
            .all(|&a| worst.unreliability >= d(a).unreliability - 1e-12);
        table.row(vec![
            format!("{phi:.2}"),
            format!("{sigma:.2}"),
            fmt_pct(eval.isolated_misclassification()),
            fmt_pct(eval.fused_misclassification()),
            (if tauw_best { "HOLDS" } else { "violated" }).to_string(),
            (if naive_overconf { "HOLDS" } else { "violated" }).to_string(),
            (if worst_unreliable {
                "HOLDS"
            } else {
                "violated"
            })
            .to_string(),
        ]);
        out.push_str(&format!(
            "phi={phi:.2}: naive overconfidence {} vs taUW {}\n",
            fmt_prob(naive.overconfidence),
            fmt_prob(tauw.overconfidence)
        ));
    }
    out.push('\n');
    out.push_str(&table.render());
    out.push_str(
        "\nexpectation: with phi = 0 (independent errors) the naive product is close to\n\
         valid, so its overconfidence advantage shrinks; as correlation grows, naive\n\
         becomes severely overconfident while the taUW ordering is stable. At extreme\n\
         correlation (phi = 0.9) naive unreliability can overtake even the worst-case\n\
         rule's, so the 'worst-case most unreliable' column may read 'violated' there —\n\
         that is the naive rule degrading, not the taUW result changing.\n",
    );

    Report::from(out)
}
