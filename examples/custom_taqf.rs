//! Choosing a taQF subset: the paper's RQ3 found that {ratio, certainty}
//! already matches the full four-factor model. This example fits several
//! subsets on one shared stateless wrapper and compares their Brier
//! scores, mirroring the Fig. 7 study through the public API.
//!
//! ```text
//! cargo run --release --example custom_taqf
//! ```

use tauw_suite::core::taqf::{TaqfKind, TaqfSet};
use tauw_suite::core::tauw::{replay, TauwBuilder};
use tauw_suite::core::training::{flatten_stateless, TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;
use tauw_suite::core::CalibrationOptions;
use tauw_suite::sim::{DatasetBuilder, QualityObservation, SeriesRecord, SimConfig};
use tauw_suite::stats::brier::brier_score;

fn convert(records: &[SeriesRecord]) -> Vec<TrainingSeries> {
    records
        .iter()
        .map(|r| TrainingSeries {
            true_outcome: u32::from(r.true_class.id()),
            steps: r
                .frames
                .iter()
                .map(|f| TrainingStep {
                    quality_factors: f.observation.feature_vector().to_vec(),
                    outcome: u32::from(f.outcome.id()),
                })
                .collect(),
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SimConfig::scaled(0.15);
    let data = DatasetBuilder::new(config, 5)
        .map_err(std::io::Error::other)?
        .build();
    let train = convert(&data.train);
    let calib = convert(&data.calib);
    let test = convert(&data.test);

    // Fit the stateless wrapper once and replay the series once; every
    // subset variant reuses both.
    let calibration = CalibrationOptions {
        min_samples_per_leaf: 100,
        confidence: 0.999,
        ..Default::default()
    };
    let mut wrapper_builder = WrapperBuilder::new();
    wrapper_builder.max_depth(8).calibration(calibration);
    let stateless = wrapper_builder.fit(
        QualityObservation::feature_names(),
        &flatten_stateless(&train),
        &flatten_stateless(&calib),
    )?;
    let train_replay = replay(&stateless, &train)?;
    let calib_replay = replay(&stateless, &calib)?;

    let subsets = [
        TaqfSet::EMPTY,
        TaqfSet::from_kinds(&[TaqfKind::Length]),
        TaqfSet::from_kinds(&[TaqfKind::UniqueOutcomes]),
        TaqfSet::from_kinds(&[TaqfKind::Ratio]),
        TaqfSet::from_kinds(&[TaqfKind::CumulativeCertainty]),
        TaqfSet::from_kinds(&[TaqfKind::Ratio, TaqfKind::CumulativeCertainty]),
        TaqfSet::FULL,
    ];
    println!("{:<36} {:>8}", "taQF subset", "brier");
    for set in subsets {
        let mut builder = TauwBuilder::new();
        let mut wb = WrapperBuilder::new();
        wb.max_depth(8).calibration(calibration);
        builder.wrapper(wb).taqf_set(set);
        let variant =
            builder.fit_reusing_stateless(stateless.clone(), &train_replay, &calib_replay)?;
        // Score the fused outcome's uncertainty on the test windows.
        let mut forecasts = Vec::new();
        let mut failures = Vec::new();
        let mut session = variant.new_session();
        for series in &test {
            session.begin_series();
            for step in &series.steps {
                let out = session.step(&step.quality_factors, step.outcome)?;
                forecasts.push(out.uncertainty);
                failures.push(out.fused_outcome != series.true_outcome);
            }
        }
        println!(
            "{:<36} {:>8.4}",
            set.label(),
            brier_score(&forecasts, &failures)?
        );
    }
    println!(
        "\npaper shape: ratio & certainty are the strongest factors; their pair is\n\
         already as good as the full set; length alone adds nothing. (Rankings are\n\
         noisy at this reduced scale — run `cargo run -p tauw-experiments --release\n\
         --bin run_all -- fig7` for the paper-sized study.)"
    );
    Ok(())
}
