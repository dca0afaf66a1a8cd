//! Streaming drift-adaptation study (beyond the paper's frozen wrappers).
//!
//! The paper calibrates once and serves frozen bounds; its dependability
//! argument silently assumes the deployment distribution matches the
//! calibration distribution. This experiment injects a mid-stream regime
//! switch — after the first half of the test stream, the ground truth
//! silently drifts so unmodeled failures appear with probability ~0.35
//! while the quality factors look unchanged — and compares the frozen
//! bounds against the adaptive layer's coverage-tracked, multiplicatively
//! inflated bounds.
//!
//! The headline check: in the final quarter of the stream the *adaptive*
//! coverage gap (observed failure rate minus mean promised failure bound,
//! clamped at zero) closes to within 5 points, while the *frozen* gap does
//! not.
//!
//! The experiment gates: `run_all` exits 1 if any shape check is
//! VIOLATED.

use crate::report::{section, Report, ShapeChecks};
use crate::stream::AdaptiveReplay;
use crate::ExperimentContext;
use tauw_stats::bootstrap::SplitMix64;

pub fn run(ctx: &ExperimentContext) -> Report {
    let n_series = ctx.test.len();
    let switch_at = n_series / 2;

    // Unmodeled post-switch failures: with p ~ 0.35, the ground truth
    // silently drifts away from whatever the DDM reports. The DDM's
    // outputs — and therefore every quality factor and taQF the wrapper
    // routes on — are unchanged, so a frozen wrapper cannot see this at
    // all; only delayed ground-truth feedback (the `failed` flag) reveals
    // it, which is exactly what the adaptive coverage ring consumes. The
    // draw happens on every post-switch step, whatever the outcome.
    let mut rng = SplitMix64::new(ctx.seed ^ 0xD21F);
    let replay = AdaptiveReplay::run(&ctx.tauw, &ctx.test, switch_at, |after, failed| {
        (after && rng.next_f64() < 0.35) || failed
    })
    .expect("stream serves");
    let total_steps = replay.served.len();
    let config = &replay.config;

    let mut out = String::new();
    out.push_str(&section("drift adaptation (regime switch at mid-stream)"));
    out.push_str(&format!(
        "stream: {total_steps} steps over {n_series} series; silent unmodeled\n\
         failures injected with p=0.35 from series {switch_at} on (quality\n\
         factors unchanged — only ground-truth feedback reveals them).\n\
         adaptive config: window {}, min observations {}, rate {}.\n\n",
        config.window, config.min_observations, config.rate,
    ));

    out.push_str(&replay.quarter_table());
    let last = replay.quarters()[3];
    let (pre_drift, post_drift) = replay.drift_counts();

    let mut checks = ShapeChecks::new();
    checks.check(
        "final quarter: adaptive coverage gap closes to within 5 points",
        last.adaptive_gap() <= 0.05,
    );
    checks.check(
        "final quarter: frozen bounds still undercover by more than 5 points",
        last.frozen_gap() > 0.05,
    );
    checks.check(
        "drift signals concentrate after the regime switch",
        post_drift > pre_drift,
    );
    out.push_str(&checks.render());
    out.push_str(&format!(
        "\ndrift signals: {pre_drift} before the switch, {post_drift} after.\n\
         note: the frozen bound is the same wrapper serving without the\n\
         adaptive layer (the adaptive session reports both), so the two\n\
         columns differ only in the coverage-driven inflation.\n",
    ));

    Report { text: out, checks }
}
