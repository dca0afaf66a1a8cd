//! Cross-crate integration tests: the full pipeline from synthetic world
//! through training, calibration and runtime sessions, checking the
//! *semantic* guarantees the paper relies on.

use tauw_suite::core::calibration::CalibrationOptions;
use tauw_suite::core::tauw::{TauwBuilder, TimeseriesAwareWrapper};
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;
use tauw_suite::fusion::majority_vote;
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

struct World {
    tauw: TimeseriesAwareWrapper,
    test: Vec<TrainingSeries>,
}

fn build_world(seed: u64) -> World {
    build_world_at(seed, 0.1)
}

fn build_world_at(seed: u64, scale: f64) -> World {
    let config = SimConfig::scaled(scale);
    let data = DatasetBuilder::new(config, seed).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(8).calibration(CalibrationOptions {
        min_samples_per_leaf: 100,
        confidence: 0.999,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();
    World {
        tauw,
        test: convert(&data.test),
    }
}

#[test]
fn information_fusion_does_not_hurt_accuracy() {
    let w = build_world(1);
    let mut isolated_wrong = 0usize;
    let mut fused_wrong = 0usize;
    let mut total = 0usize;
    let mut session = w.tauw.new_session();
    for series in &w.test {
        session.begin_series();
        for (j, step) in series.steps.iter().enumerate() {
            let out = session.step(&step.quality_factors, step.outcome).unwrap();
            total += 1;
            isolated_wrong += usize::from(series.is_failure(j));
            fused_wrong += usize::from(out.fused_outcome != series.true_outcome);
        }
    }
    assert!(total > 500, "world too small for a meaningful check");
    assert!(
        fused_wrong <= isolated_wrong,
        "fusion made things worse: {fused_wrong} vs {isolated_wrong} of {total}"
    );
}

#[test]
fn session_fusion_matches_offline_majority_vote() {
    let w = build_world(2);
    let mut session = w.tauw.new_session();
    for series in w.test.iter().take(50) {
        session.begin_series();
        let mut outcomes = Vec::new();
        for step in &series.steps {
            outcomes.push(step.outcome);
            let out = session.step(&step.quality_factors, step.outcome).unwrap();
            // The session must agree with the standalone majority-vote
            // function (most-recent tie-breaking) at every prefix.
            assert_eq!(Some(out.fused_outcome), majority_vote(&outcomes));
        }
    }
}

#[test]
fn dependable_bounds_cover_observed_failure_rates() {
    // The taUW's per-leaf bounds are 99.9%-confidence upper bounds derived
    // from calibration data. On the (exchangeable) test split the observed
    // failure rate among cases predicted at uncertainty <= u must not
    // dramatically exceed u on average — this is the core "dependability"
    // property.
    let w = build_world_at(3, 0.2);
    let mut session = w.tauw.new_session();
    let mut records: Vec<(f64, bool)> = Vec::new();
    for series in &w.test {
        session.begin_series();
        for step in &series.steps {
            let out = session.step(&step.quality_factors, step.outcome).unwrap();
            records.push((out.uncertainty, out.fused_outcome != series.true_outcome));
        }
    }
    // Group by predicted bound; compare observed rate to the bound.
    records.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut i = 0usize;
    let mut violations = 0usize;
    let mut groups = 0usize;
    while i < records.len() {
        let u = records[i].0;
        let mut j = i;
        let mut failures = 0usize;
        while j < records.len() && (records[j].0 - u).abs() < 1e-12 {
            failures += usize::from(records[j].1);
            j += 1;
        }
        let n = j - i;
        if n >= 25 {
            groups += 1;
            let observed = failures as f64 / n as f64;
            // Allow sampling slack: binomial std-dev above the bound.
            let slack = 3.0 * (u.max(0.01) * (1.0 - u.max(0.01)) / n as f64).sqrt();
            if observed > u + slack {
                violations += 1;
            }
        }
        i = j;
    }
    assert!(
        groups >= 2,
        "expected several distinct bound levels, got {groups}"
    );
    assert!(
        violations * 5 <= groups,
        "{violations} of {groups} bound groups violated their guarantee"
    );
}

#[test]
fn tauw_brier_beats_stateless_brier() {
    let w = build_world(4);
    let mut session = w.tauw.new_session();
    let mut stateless = Vec::new();
    let mut tauw_scores = Vec::new();
    for series in &w.test {
        session.begin_series();
        for (j, step) in series.steps.iter().enumerate() {
            let out = session.step(&step.quality_factors, step.outcome).unwrap();
            let isolated_failed = series.is_failure(j);
            let fused_failed = out.fused_outcome != series.true_outcome;
            stateless.push((out.stateless_uncertainty, isolated_failed));
            tauw_scores.push((out.uncertainty, fused_failed));
        }
    }
    let brier = |rows: &[(f64, bool)]| {
        rows.iter()
            .map(|&(u, y)| {
                let o = if y { 1.0 } else { 0.0 };
                (u - o) * (u - o)
            })
            .sum::<f64>()
            / rows.len() as f64
    };
    let b_stateless = brier(&stateless);
    let b_tauw = brier(&tauw_scores);
    assert!(
        b_tauw < b_stateless,
        "taUW ({b_tauw:.4}) must beat the stateless wrapper ({b_stateless:.4})"
    );
}

#[test]
fn buffer_reset_isolates_series() {
    // Running two different series with a reset in between must give the
    // same estimates as running the second series in a fresh session.
    let w = build_world(5);
    let series_a = &w.test[0];
    let series_b = &w.test[1];

    let mut long_session = w.tauw.new_session();
    long_session.begin_series();
    for step in &series_a.steps {
        long_session
            .step(&step.quality_factors, step.outcome)
            .unwrap();
    }
    long_session.begin_series();
    let mut with_reset = Vec::new();
    for step in &series_b.steps {
        with_reset.push(
            long_session
                .step(&step.quality_factors, step.outcome)
                .unwrap(),
        );
    }

    let mut fresh_session = w.tauw.new_session();
    fresh_session.begin_series();
    let mut fresh = Vec::new();
    for step in &series_b.steps {
        fresh.push(
            fresh_session
                .step(&step.quality_factors, step.outcome)
                .unwrap(),
        );
    }
    assert_eq!(with_reset, fresh, "buffer reset must fully isolate series");
}

#[test]
fn qim_trees_are_exportable_and_transparent() {
    let w = build_world(6);
    let tree = &w
        .tauw
        .taqim()
        .as_forest()
        .expect("default taQIM is a one-member forest")
        .trees()[0];
    let text = tauw_suite::dtree::export::to_text(tree);
    assert!(text.contains("leaf"));
    // taQF columns appear in the learned tree's export when they carry
    // signal (the ratio feature practically always does).
    let dot = tauw_suite::dtree::export::to_dot(tree);
    assert!(dot.starts_with("digraph"));
    let json = tauw_suite::dtree::export::to_json(tree);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // Importances are a distribution over features.
    let imp = tauw_suite::dtree::importance::feature_importances(tree);
    let sum: f64 = imp.iter().sum();
    assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
}

#[test]
fn adaptive_session_closes_coverage_gap_under_regime_switch_family() {
    use tauw_suite::core::adaptive::{AdaptiveConfig, DriftSignal};
    use tauw_suite::sim::{RegimeParams, ScenarioConfig, ScenarioFamily, SplitKind};

    // Train and calibrate on the clean world, then serve a test split the
    // regime-switch family has shifted: past the switch position, a
    // fraction of series become systematically confused — every frame
    // reports the same wrong class while the quality sensors read clean.
    let config = SimConfig::scaled(0.1);
    let seed = 20230627;
    let data = DatasetBuilder::new(config.clone(), seed).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(8).calibration(CalibrationOptions {
        min_samples_per_leaf: 100,
        confidence: 0.999,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    let mut shifted_records = data.test.clone();
    let scenario = ScenarioConfig::new(
        config,
        ScenarioFamily::RegimeSwitch(RegimeParams::default()),
    );
    scenario.apply_split(SplitKind::Test, &mut shifted_records, seed, 2);
    let shifted = convert(&shifted_records);
    let switch_at = shifted.len() / 2;

    let total_steps: usize = shifted.iter().map(|s| s.steps.len()).sum();
    let window = (total_steps / 20).clamp(20, 200);
    let adaptive_config = AdaptiveConfig {
        window,
        min_observations: (window / 4).max(1),
        rate: 0.05,
        max_inflation_steps: 200,
        ..Default::default()
    };
    let mut session = tauw.new_adaptive_session(adaptive_config).unwrap();

    let mut frozen_bounds = Vec::with_capacity(total_steps);
    let mut adapted_bounds = Vec::with_capacity(total_steps);
    let mut failures = Vec::with_capacity(total_steps);
    let mut drift = Vec::with_capacity(total_steps);
    let mut post_switch_from = usize::MAX;
    for (i, series) in shifted.iter().enumerate() {
        if i == switch_at {
            post_switch_from = frozen_bounds.len();
        }
        session.begin_series();
        for step in &series.steps {
            let failed = step.outcome != series.true_outcome;
            let out = session
                .step(&step.quality_factors, step.outcome, failed)
                .unwrap();
            frozen_bounds.push(out.uncertainty);
            adapted_bounds.push(out.adapted_uncertainty);
            failures.push(failed);
            drift.push(out.drift != DriftSignal::Stable);
        }
    }

    // Judge coverage on the final quarter, where adaptation has had the
    // whole post-switch stream to converge.
    let q4 = 3 * frozen_bounds.len() / 4;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let failure_rate =
        failures[q4..].iter().filter(|&&f| f).count() as f64 / (failures.len() - q4) as f64;
    let frozen_gap = (failure_rate - mean(&frozen_bounds[q4..])).max(0.0);
    let adaptive_gap = (failure_rate - mean(&adapted_bounds[q4..])).max(0.0);
    assert!(
        frozen_gap > 0.05,
        "frozen bounds should undercover the confused regime by more than \
         5 points (failure rate {failure_rate:.3}, gap {frozen_gap:.3})"
    );
    assert!(
        adaptive_gap <= 0.05,
        "adaptation should close the coverage gap to within 5 points \
         (got {adaptive_gap:.3} vs frozen {frozen_gap:.3})"
    );

    // Drift signals concentrate after the switch.
    let pre = drift[..post_switch_from].iter().filter(|&&d| d).count();
    let post = drift[post_switch_from..].iter().filter(|&&d| d).count();
    assert!(
        post > 2 * pre,
        "drift signals should concentrate post-switch (pre {pre}, post {post})"
    );
}
