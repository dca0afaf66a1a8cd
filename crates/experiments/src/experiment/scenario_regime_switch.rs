//! Scenario family: mid-stream regime switch in the DDM error model.
//!
//! Unlike `drift_adaptation` (which injects failures into the *feedback*
//! channel), this experiment drives the switch through the first-class
//! [`ScenarioFamily::RegimeSwitch`] workload: past the switch position a
//! fraction of series become systematically confused — every frame
//! reports the same wrong class, invisibly to the quality sensors and
//! with full self-consistency, so outcome-agreement features read the
//! failure as confidence. The wrapper is trained and calibrated on the
//! clean world and serves the shifted stream through the adaptive
//! session, which reports both the frozen and the adapted bound per
//! step.
//!
//! Shape claims:
//!
//! 1. the first half of the stream is bit-identical to the baseline
//!    world (the family transforms only post-switch series);
//! 2. in the final quarter, frozen bounds undercover by more than 5
//!    points — the paper's dependability argument breaks under drift;
//! 3. the adaptive coverage gap closes to within 5 points;
//! 4. drift signals concentrate after the switch.
//!
//! The experiment gates: `run_all` exits 1 if any shape check is
//! VIOLATED.

use crate::report::{section, Report, ShapeChecks};
use crate::stream::AdaptiveReplay;
use crate::ExperimentContext;
use tauw_sim::scenario::{RegimeParams, ScenarioFamily};

pub fn run(ctx: &ExperimentContext) -> Report {
    let params = RegimeParams::default();
    let shifted = ctx
        .scenario_test(ScenarioFamily::RegimeSwitch(params))
        .expect("scenario test builds");

    let n_series = shifted.len();
    let switch_at = (params.switch_at * n_series as f64).ceil() as usize;
    let first_half_identical =
        ctx.test[..switch_at.min(ctx.test.len())] == shifted[..switch_at.min(shifted.len())];

    let replay = AdaptiveReplay::run(&ctx.tauw, &shifted, switch_at, |_, failed| failed)
        .expect("stream serves");
    let total_steps = replay.served.len();
    let config = &replay.config;

    let mut out = String::new();
    out.push_str(&section(
        "scenario: regime switch (first-class workload family)",
    ));
    out.push_str(&format!(
        "stream: {total_steps} steps over {n_series} series; the regime-switch\n\
         family makes each series systematically confused with p={} from\n\
         series {switch_at} on. quality factors are untouched — only the\n\
         ground-truth feedback channel reveals the shift.\n\
         adaptive config: window {}, min observations {}, rate {}.\n\n",
        params.flip_prob, config.window, config.min_observations, config.rate,
    ));
    out.push_str(&replay.quarter_table());
    let last = replay.quarters()[3];
    let (pre_drift, post_drift) = replay.drift_counts();

    let mut checks = ShapeChecks::new();
    checks.check(
        "pre-switch stream is bit-identical to the baseline world",
        first_half_identical,
    );
    checks.check(
        "final quarter: frozen bounds undercover by more than 5 points",
        last.frozen_gap() > 0.05,
    );
    checks.check(
        "final quarter: adaptive coverage gap closes to within 5 points",
        last.adaptive_gap() <= 0.05,
    );
    checks.check(
        "drift signals concentrate after the regime switch",
        post_drift > pre_drift,
    );
    out.push_str(&checks.render());
    out.push_str(&format!(
        "\ndrift signals: {pre_drift} before the switch, {post_drift} after.\n"
    ));

    Report { text: out, checks }
}
