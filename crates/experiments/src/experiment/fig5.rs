//! Regenerates **Fig. 5**: the distribution of dependable uncertainty
//! across cases for the classical stateless UW (top) vs the proposed
//! taUW + IF (bottom), including the share of cases at the lowest
//! guaranteed uncertainty.

use crate::eval::{evaluate, Approach};
use crate::paper::headline;
use crate::report::{bar, fmt_pct, fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::ExperimentContext;
use tauw_stats::descriptive::Histogram;

fn histogram_block(label: &str, values: &[f64]) -> String {
    let mut h = Histogram::new(0.0, 0.5, 25).expect("valid histogram");
    for &v in values {
        h.push(v);
    }
    let max = h.counts().iter().copied().max().unwrap_or(1) as f64;
    let mut out = format!("{label} (n = {}):\n", values.len());
    for i in 0..h.counts().len() {
        let (lo, hi) = h.bin_edges(i);
        let count = h.counts()[i];
        if count == 0 {
            continue;
        }
        out.push_str(&format!(
            "  u in [{lo:.3}, {hi:.3}): {:>7}  {}\n",
            count,
            bar(count as f64, max, 40)
        ));
    }
    if h.overflow() > 0 {
        out.push_str(&format!("  u >= 0.500          : {:>7}\n", h.overflow()));
    }
    out
}

pub fn run(ctx: &ExperimentContext) -> Report {
    let eval = evaluate(&ctx.tauw, &ctx.test).expect("evaluation must succeed");

    let mut out = String::new();
    out.push_str(&section(
        "Fig. 5 — distribution of uncertainty across cases",
    ));
    out.push_str(&histogram_block(
        "classical stateless UW",
        &eval.uncertainties(Approach::StatelessNoIf),
    ));
    out.push('\n');
    out.push_str(&histogram_block(
        "taUW + IF",
        &eval.uncertainties(Approach::IfTauw),
    ));

    let (min_stateless, share_stateless) = eval.lowest_uncertainty_share(Approach::StatelessNoIf);
    let (min_tauw, share_tauw) = eval.lowest_uncertainty_share(Approach::IfTauw);

    out.push_str(&section("lowest guaranteed uncertainty (99.9% confidence)"));
    let mut table = TextTable::new(vec!["model", "lowest u", "share of cases at lowest u"]);
    table.row(vec![
        "stateless UW".to_string(),
        fmt_prob(min_stateless),
        fmt_pct(share_stateless),
    ]);
    table.row(vec![
        "taUW + IF".to_string(),
        fmt_prob(min_tauw),
        fmt_pct(share_tauw),
    ]);
    table.row(vec![
        "taUW + IF (paper)".to_string(),
        fmt_prob(headline::TAUW_MIN_UNCERTAINTY),
        fmt_pct(headline::TAUW_MIN_UNCERTAINTY_SHARE),
    ]);
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    checks.check(
        "taUW guarantees a lower minimum uncertainty than the stateless UW",
        min_tauw <= min_stateless,
    );
    checks.check(
        "the share of cases at the lowest uncertainty grows substantially (paper: ~2x)",
        share_tauw > 1.2 * share_stateless,
    );
    checks.check(
        "majority of cases get better than 99% certainty with taUW",
        eval.uncertainties(Approach::IfTauw)
            .iter()
            .filter(|&&u| u < 0.01 + 1e-12)
            .count() as f64
            > 0.4 * eval.cases.len() as f64,
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}
