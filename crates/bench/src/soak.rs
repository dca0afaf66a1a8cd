//! The one-factor model the serving ledger's `cohort_100k` workload
//! serves. Its trained trees fix that workload's output fingerprint, so
//! its training data and options must not move.

use tauw_core::calibration::CalibrationOptions;
use tauw_core::tauw::{TauwBuilder, TimeseriesAwareWrapper};
use tauw_core::training::{TrainingSeries, TrainingStep};
use tauw_core::wrapper::WrapperBuilder;
use tauw_stats::bootstrap::SplitMix64;

/// Trains the small deterministic wrapper (one quality factor, outcomes
/// drawn from `{3, 7}`).
pub fn soak_wrapper() -> TimeseriesAwareWrapper {
    let make_series = |n: usize, seed: u64| -> Vec<TrainingSeries> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let q = rng.next_f64();
                let bias = if rng.next_f64() < 0.5 { 1.3 } else { 0.5 };
                let steps = (0..10)
                    .map(|_| {
                        let failed = rng.next_f64() < (q * bias).min(0.95);
                        TrainingStep {
                            quality_factors: vec![q],
                            outcome: if failed { 3 } else { 7 },
                        }
                    })
                    .collect();
                TrainingSeries {
                    true_outcome: 7,
                    steps,
                }
            })
            .collect()
    };
    let train = make_series(300, 0x50AC_0001);
    let calib = make_series(300, 0x50AC_0002);
    let mut wb = WrapperBuilder::new();
    wb.max_depth(3).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    builder
        .fit(vec!["q".into()], &train, &calib)
        .expect("soak wrapper fits")
}
