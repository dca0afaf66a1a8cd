//! Regenerates **Table I**: Brier loss score and its components (variance,
//! unspecificity, unreliability) plus overconfidence for the six
//! uncertainty-estimation approaches.

use crate::eval::{evaluate, Approach};
use crate::paper::PAPER_TABLE1;
use crate::report::{fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::ExperimentContext;

pub fn run(ctx: &ExperimentContext) -> Report {
    let eval = evaluate(&ctx.tauw, &ctx.test).expect("evaluation must succeed");

    let mut out = String::new();
    out.push_str(&section(
        "Table I — evaluation of different uncertainty models (measured)",
    ));
    let mut table = TextTable::new(vec![
        "approach",
        "brier",
        "variance",
        "unspecificity",
        "unreliability",
        "overconfidence",
        "AUC",
    ]);
    let mut measured = Vec::new();
    for approach in Approach::ALL {
        let d = eval.decomposition(approach).expect("decomposition");
        let (forecasts, failures) = eval.forecasts(approach);
        let auc = tauw_stats::roc::auc(&forecasts, &failures)
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|_| "n/a".to_string());
        table.row(vec![
            approach.paper_label().to_string(),
            fmt_prob(d.brier),
            fmt_prob(d.variance),
            fmt_prob(d.unspecificity),
            fmt_prob(d.unreliability),
            fmt_prob(d.overconfidence),
            auc,
        ]);
        measured.push((approach, d));
    }
    out.push_str(&table.render());

    out.push_str(&section("Table I — paper reference values"));
    let mut paper = TextTable::new(vec![
        "approach",
        "brier",
        "variance",
        "unspecificity",
        "unreliability",
        "overconfidence",
    ]);
    for row in PAPER_TABLE1 {
        paper.row(vec![
            row.approach.paper_label().to_string(),
            fmt_prob(row.brier),
            fmt_prob(row.variance),
            fmt_prob(row.unspecificity),
            fmt_prob(row.unreliability),
            fmt_prob(row.overconfidence),
        ]);
    }
    out.push_str(&paper.render());

    // Shape checks that define a successful reproduction.
    let get = |a: Approach| {
        measured
            .iter()
            .find(|(m, _)| *m == a)
            .map(|(_, d)| d.clone())
            .expect("all approaches measured")
    };
    let tauw = get(Approach::IfTauw);
    let stateless = get(Approach::StatelessNoIf);
    let naive = get(Approach::IfNaive);
    let worst = get(Approach::IfWorstCase);
    let opportune = get(Approach::IfOpportune);
    let if_no_uf = get(Approach::IfNoUf);

    let mut checks = ShapeChecks::new();
    checks.check(
        "taUW has the best (lowest) Brier score of all six approaches",
        Approach::ALL
            .iter()
            .all(|&a| tauw.brier <= get(a).brier + 1e-12),
    );
    checks.check(
        "IF reduces the variance component vs isolated predictions",
        if_no_uf.variance < stateless.variance,
    );
    checks.check(
        "naive UF has by far the highest overconfidence",
        Approach::ALL
            .iter()
            .filter(|&&a| a != Approach::IfNaive)
            .all(|&a| naive.overconfidence > 3.0 * get(a).overconfidence.max(1e-9)),
    );
    checks.check(
        "worst-case UF has the highest unreliability but tiny overconfidence",
        Approach::ALL
            .iter()
            .all(|&a| worst.unreliability >= get(a).unreliability - 1e-12)
            && worst.overconfidence < 0.1 * worst.unreliability,
    );
    checks.check(
        "taUW has the lowest unspecificity (best resolution)",
        Approach::ALL
            .iter()
            .all(|&a| tauw.unspecificity <= get(a).unspecificity + 1e-12),
    );
    checks.check(
        "opportune beats IF+noUF on Brier but is more overconfident",
        opportune.brier <= if_no_uf.brier + 1e-12
            && opportune.overconfidence >= if_no_uf.overconfidence,
    );
    checks.check(
        "taUW overconfidence is (near) zero",
        tauw.overconfidence < 1e-4,
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}
