//! Train → save → deploy: the offline/online split of a real deployment.
//!
//! Training and calibration are development-time activities; the vehicle
//! only ever loads a frozen, reviewable JSON artifact. This example trains
//! a taUW, round-trips it through the artifact format, and shows that the
//! deployed copy produces bit-identical estimates.
//!
//! ```text
//! cargo run --release --example save_load_deploy
//! ```

use tauw_suite::core::persist::Artifact;
use tauw_suite::core::tauw::{TauwBuilder, TimeseriesAwareWrapper};
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;
use tauw_suite::core::CalibrationOptions;
use tauw_suite::sim::{DatasetBuilder, QualityObservation, SeriesRecord, SimConfig};

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
    // --- development time ---
    let config = SimConfig::scaled(0.15);
    let data = DatasetBuilder::new(config, 42)
        .map_err(std::io::Error::other)?
        .build();
    let mut wrapper_builder = WrapperBuilder::new();
    wrapper_builder
        .max_depth(8)
        .calibration(CalibrationOptions {
            min_samples_per_leaf: 100,
            confidence: 0.999,
            ..Default::default()
        });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wrapper_builder);
    let trained = builder.fit(
        QualityObservation::feature_names(),
        &convert(&data.train),
        &convert(&data.calib),
    )?;

    let artifact_path = std::env::temp_dir().join("tauw_artifact.json");
    trained.save(&artifact_path)?;
    let size = std::fs::metadata(&artifact_path)?.len();
    println!(
        "artifact written: {} ({size} bytes)",
        artifact_path.display()
    );

    // The artifact is plain JSON a safety assessor can diff and review.
    let json = trained.to_artifact_json()?;
    println!(
        "artifact head: {}...",
        &json
            .chars()
            .take(120)
            .collect::<String>()
            .replace('\n', " ")
    );

    // --- deployment time ---
    let deployed = TimeseriesAwareWrapper::load(&artifact_path)?;
    println!(
        "loaded taUW: {} taQIM leaves, min uncertainty {:.4}",
        deployed.taqim().n_leaves(),
        deployed.min_uncertainty()
    );

    // Identical estimates, frame for frame.
    let test = convert(&data.test);
    let mut dev_session = trained.new_session();
    let mut car_session = deployed.new_session();
    let mut checked = 0;
    for series in test.iter().take(20) {
        dev_session.begin_series();
        car_session.begin_series();
        for step in &series.steps {
            let a = dev_session.step(&step.quality_factors, step.outcome)?;
            let b = car_session.step(&step.quality_factors, step.outcome)?;
            assert_eq!(
                a, b,
                "deployed artifact must reproduce training-time estimates"
            );
            checked += 1;
        }
    }
    println!("verified {checked} runtime estimates are bit-identical after the round-trip");
    std::fs::remove_file(&artifact_path)?;
    Ok(())
}
