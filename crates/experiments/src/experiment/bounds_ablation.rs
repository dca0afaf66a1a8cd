//! Ablation: how does the choice of binomial bound method and the minimum
//! calibration count per leaf affect the wrapper's guarantees? (A design
//! choice called out in `DESIGN.md` §5; not a paper figure.)

use crate::report::{fmt_prob, section, Report, TextTable};
use crate::ExperimentContext;
use tauw_core::calibration::{CalibratedForestQim, CalibrationOptions};
use tauw_core::training::flatten_stateless;
use tauw_dtree::{Forest, TreeBuilder};
use tauw_stats::binomial::BoundMethod;
use tauw_stats::brier::{brier_score, Grouping};
use tauw_stats::BrierDecomposition;

pub fn run(ctx: &ExperimentContext) -> Report {
    // Retrain the stateless tree once; recalibrate per (method, min-count).
    let train_rows = flatten_stateless(&ctx.train);
    let calib_rows = flatten_stateless(&ctx.calib);
    let test_rows = flatten_stateless(&ctx.test);
    let mut ds = tauw_dtree::Dataset::new(ctx.feature_names.clone(), 2).expect("dataset");
    for (f, failed) in &train_rows {
        ds.push_row(f, u32::from(*failed)).expect("row");
    }
    let tree = TreeBuilder::new().max_depth(8).fit(&ds).expect("tree fits");

    let mut out = String::new();
    out.push_str(&section(
        "bound method x min-leaf-count ablation (stateless QIM)",
    ));
    let mut table = TextTable::new(vec![
        "method",
        "min/leaf",
        "leaves",
        "min u",
        "mean u",
        "brier",
        "overconfidence",
    ]);

    let base_min = ctx.calibration.min_samples_per_leaf;
    for method in BoundMethod::ALL {
        for factor in [0.25, 0.5, 1.0, 2.0] {
            let min_count = ((base_min as f64 * factor).round() as u64).max(10);
            let options = CalibrationOptions {
                min_samples_per_leaf: min_count,
                confidence: 0.999,
                method,
            };
            let one_tree = Forest::from_trees(vec![tree.clone()]).expect("one tree");
            let qim = match CalibratedForestQim::calibrate(one_tree, &calib_rows, options) {
                Ok(q) => q,
                Err(e) => {
                    table.row(vec![
                        method.name().to_string(),
                        min_count.to_string(),
                        format!("infeasible: {e}"),
                    ]);
                    continue;
                }
            };
            let mut forecasts = Vec::with_capacity(test_rows.len());
            let mut failures = Vec::with_capacity(test_rows.len());
            for (f, failed) in &test_rows {
                forecasts.push(qim.uncertainty(f).expect("uncertainty"));
                failures.push(*failed);
            }
            let brier = brier_score(&forecasts, &failures).expect("brier");
            let decomp = BrierDecomposition::compute(
                &forecasts,
                &failures,
                Grouping::UniqueValues { tolerance: 1e-9 },
            )
            .expect("decomposition");
            let mean_u = forecasts.iter().sum::<f64>() / forecasts.len() as f64;
            table.row(vec![
                method.name().to_string(),
                min_count.to_string(),
                qim.trees()[0].n_leaves().to_string(),
                fmt_prob(qim.min_uncertainty()),
                fmt_prob(mean_u),
                fmt_prob(brier),
                fmt_prob(decomp.overconfidence),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nreading guide: Hoeffding is distribution-free and loosest (highest min u);\n\
         Jeffreys/Wilson are tighter than Clopper-Pearson but only approximately valid;\n\
         larger min-leaf counts trade resolution (fewer leaves) for tighter bounds.\n",
    );

    Report::from(out)
}
