//! Regenerates **Fig. 7**: the feature-importance study. For every subset
//! of the four timeseries-aware quality factors a taQIM is trained,
//! calibrated and evaluated; the Brier scores are reported grouped by
//! subset size.

use crate::eval::{evaluate, Approach};
use crate::report::{fmt_prob, section, Report, ShapeChecks, TextTable};
use crate::ExperimentContext;
use tauw_core::taqf::TaqfSet;

pub fn run(ctx: &ExperimentContext) -> Report {
    let mut out = String::new();
    out.push_str(&section("Fig. 7 — Brier score per taQF subset"));

    let mut results: Vec<(TaqfSet, f64)> = Vec::new();
    for set in TaqfSet::all_subsets() {
        let variant = ctx.tauw_variant(set).expect("variant fits");
        let eval = evaluate(&variant, &ctx.test).expect("evaluation");
        let d = eval.decomposition(Approach::IfTauw).expect("decomposition");
        results.push((set, d.brier));
    }

    let mut table = TextTable::new(vec!["#features", "subset", "brier"]);
    for size in 0..=4usize {
        for (set, brier) in results.iter().filter(|(s, _)| s.len() == size) {
            table.row(vec![size.to_string(), set.label(), fmt_prob(*brier)]);
        }
    }
    out.push_str(&table.render());

    // Named lookups for the shape checks.
    let brier_of = |set: TaqfSet| {
        results
            .iter()
            .find(|(s, _)| *s == set)
            .map(|(_, b)| *b)
            .expect("all subsets evaluated")
    };
    use tauw_core::taqf::TaqfKind::*;
    let empty = brier_of(TaqfSet::EMPTY);
    let full = brier_of(TaqfSet::FULL);
    let ratio = brier_of(TaqfSet::from_kinds(&[Ratio]));
    let length = brier_of(TaqfSet::from_kinds(&[Length]));
    let size_f = brier_of(TaqfSet::from_kinds(&[UniqueOutcomes]));
    let certainty = brier_of(TaqfSet::from_kinds(&[CumulativeCertainty]));
    let ratio_certainty = brier_of(TaqfSet::from_kinds(&[Ratio, CumulativeCertainty]));
    let best = results
        .iter()
        .map(|(_, b)| *b)
        .fold(f64::INFINITY, f64::min);

    out.push_str(&section("single-feature ranking"));
    let mut singles = TextTable::new(vec!["feature", "brier", "improvement vs no taQF"]);
    let mut single_list = vec![
        ("ratio", ratio),
        ("length", length),
        ("size", size_f),
        ("certainty", certainty),
    ];
    single_list.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (name, b) in &single_list {
        singles.row(vec![
            name.to_string(),
            fmt_prob(*b),
            format!("{:+.4}", empty - b),
        ]);
    }
    out.push_str(&singles.render());

    let mut checks = ShapeChecks::new();
    checks.check(
        "using taQFs improves the Brier score over the stateless feature set",
        full < empty,
    );
    checks.check(
        "ratio is the strongest single feature",
        single_list[0].0 == "ratio",
    );
    checks.check(
        "size is the second-best single feature (paper Sec. V RQ3)",
        single_list[1].0 == "size",
    );
    checks.check(
        "certainty has predictive power on its own",
        certainty < empty - 1e-4,
    );
    let best_length_pair = results
        .iter()
        .filter(|(s, _)| s.len() == 2 && s.contains(Length))
        .map(|(_, b)| *b)
        .fold(f64::INFINITY, f64::min);
    checks.check(
        "length combined with one other feature does improve",
        best_length_pair < length - 1e-4,
    );
    checks.check(
        "{ratio, certainty} already achieves (near-)optimal Brier",
        ratio_certainty <= best + 0.002,
    );
    checks.check(
        "length alone yields no improvement",
        length >= empty - 0.002,
    );
    checks.check(
        "the full set is not better than the best pair (redundancy)",
        full >= best - 0.002,
    );
    out.push_str(&checks.render());

    out.push_str(
        "\npaper reference: best Brier 0.0356 reached already by {ratio, certainty};\n\
         length alone gives no improvement; size is the second-best single feature.\n",
    );

    Report { text: out, checks }
}
