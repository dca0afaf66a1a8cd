//! Information-fusion ablation: the paper uses plain majority voting with
//! most-recent tie-breaking and notes that "empirical evidence shows that
//! there is no overall best combining rule" (Duin & Tax). This experiment compares
//! the implemented IF strategies — majority vote, certainty-weighted vote,
//! windowed vote, latest-only — on fused accuracy over the test windows.

use crate::report::{fmt_pct, section, Report, ShapeChecks, TextTable};
use crate::ExperimentContext;
use tauw_core::buffer::TimeseriesBuffer;
use tauw_fusion::info::{
    CertaintyWeightedVote, InformationFusion, LatestOnly, MajorityVote, WindowedMajorityVote,
};

pub fn run(ctx: &ExperimentContext) -> Report {
    let stateless = ctx.tauw.stateless();

    let strategies: Vec<(&str, Box<dyn InformationFusion<u32>>)> = vec![
        ("majority vote (paper)", Box::new(MajorityVote)),
        ("certainty-weighted vote", Box::new(CertaintyWeightedVote)),
        (
            "windowed majority (last 5)",
            Box::new(WindowedMajorityVote::new(5)),
        ),
        (
            "windowed majority (last 3)",
            Box::new(WindowedMajorityVote::new(3)),
        ),
        ("latest only (no fusion)", Box::new(LatestOnly)),
    ];

    let mut out = String::new();
    out.push_str(&section(
        "information-fusion strategy ablation (fused misclassification)",
    ));
    let mut table = TextTable::new(vec!["strategy", "all steps", "final step", "vs paper IF"]);

    let mut results: Vec<(String, f64, f64)> = Vec::new();
    for (name, strategy) in &strategies {
        let mut buffer = TimeseriesBuffer::new();
        let mut wrong = 0usize;
        let mut total = 0usize;
        let mut wrong_final = 0usize;
        let mut total_final = 0usize;
        for series in &ctx.test {
            buffer.clear();
            for (j, step) in series.steps.iter().enumerate() {
                let u = stateless
                    .uncertainty(&step.quality_factors)
                    .expect("estimate");
                buffer.push(step.outcome, u);
                let fused = strategy
                    .fuse(&buffer.outcomes(), &buffer.certainties())
                    .expect("non-empty buffer");
                total += 1;
                let failed = fused != series.true_outcome;
                wrong += usize::from(failed);
                if j + 1 == series.steps.len() {
                    total_final += 1;
                    wrong_final += usize::from(failed);
                }
            }
        }
        results.push((
            name.to_string(),
            wrong as f64 / total as f64,
            wrong_final as f64 / total_final as f64,
        ));
    }
    let paper_rate = results[0].1;
    for (name, rate, final_rate) in &results {
        table.row(vec![
            name.clone(),
            fmt_pct(*rate),
            fmt_pct(*final_rate),
            format!("{:+.2}pp", (rate - paper_rate) * 100.0),
        ]);
    }
    out.push_str(&table.render());

    let rate_of = |label: &str| {
        results
            .iter()
            .find(|(n, _, _)| n.starts_with(label))
            .map(|(_, r, _)| *r)
            .expect("row")
    };
    let mut checks = ShapeChecks::new();
    checks.check(
        "every fusion strategy beats latest-only",
        results[..4]
            .iter()
            .all(|(_, r, _)| *r < rate_of("latest only")),
    );
    checks.check(
        "full-history voting beats the 3-step window (evidence accumulates)",
        rate_of("majority vote") < rate_of("windowed majority (last 3"),
    );
    checks.check(
        "no strategy dominates majority voting by a large margin (paper [23])",
        results[..4].iter().all(|(_, r, _)| *r > paper_rate - 0.01),
    );
    out.push_str(&checks.render());

    Report { text: out, checks }
}
