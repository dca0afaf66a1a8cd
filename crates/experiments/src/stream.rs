//! Adaptive replay of a test split as one long stream, with the
//! quarter-by-quarter coverage accounting the drift studies report.
//!
//! The series are concatenated into one stream. The fusion window still
//! resets at every series boundary (`begin_series`), but the adaptive
//! coverage ring deliberately survives those resets: drift is a property
//! of the stream, not of any single series.

use crate::report::{fmt_pct, fmt_prob, TextTable};
use tauw_core::adaptive::{AdaptiveConfig, DriftSignal};
use tauw_core::tauw::TimeseriesAwareWrapper;
use tauw_core::training::TrainingSeries;
use tauw_core::CoreError;

/// One served step of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// The frozen (calibration-time) bound.
    pub frozen_bound: f64,
    /// The coverage-tracked, inflated bound.
    pub adapted_bound: f64,
    /// The ground-truth feedback the session consumed.
    pub failed: bool,
    /// Whether the adaptive layer signalled drift.
    pub drifting: bool,
    /// Whether the step's series lies past the regime switch.
    pub in_regime_switch: bool,
}

/// Coverage accounting over one quarter of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quarter {
    /// Observed failure rate.
    pub failure_rate: f64,
    /// Mean frozen bound.
    pub frozen_bound: f64,
    /// Mean adapted bound.
    pub adapted_bound: f64,
    /// Steps that signalled drift.
    pub drift_signals: usize,
}

impl Quarter {
    /// How far the failure rate overshoots the mean frozen bound (≥ 0).
    pub fn frozen_gap(&self) -> f64 {
        (self.failure_rate - self.frozen_bound).max(0.0)
    }

    /// How far the failure rate overshoots the mean adapted bound (≥ 0).
    pub fn adaptive_gap(&self) -> f64 {
        (self.failure_rate - self.adapted_bound).max(0.0)
    }
}

/// The served steps of one adaptive replay and the config it ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReplay {
    /// The adaptive config derived from the stream length.
    pub config: AdaptiveConfig,
    /// Every served step, in stream order.
    pub served: Vec<Served>,
}

impl AdaptiveReplay {
    /// Serves `series` as one stream through an adaptive session of
    /// `tauw`. Series `switch_at..` lie past the regime switch.
    ///
    /// `feedback(in_regime_switch, failed)` returns the ground truth the
    /// session consumes for each step, given whether the step's fused
    /// outcome really was wrong; it is called once per step, in order.
    ///
    /// The coverage window is a twentieth of the stream, clamped to
    /// 20..=200 steps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid config or feature-arity
    /// mismatch.
    pub fn run(
        tauw: &TimeseriesAwareWrapper,
        series: &[TrainingSeries],
        switch_at: usize,
        mut feedback: impl FnMut(bool, bool) -> bool,
    ) -> Result<Self, CoreError> {
        let total_steps: usize = series.iter().map(|s| s.steps.len()).sum();
        let window = (total_steps / 20).clamp(20, 200);
        let config = AdaptiveConfig {
            window,
            min_observations: (window / 4).max(1),
            rate: 0.05,
            max_inflation_steps: 200,
            ..Default::default()
        };
        let mut session = tauw.new_adaptive_session(config)?;
        let mut served = Vec::with_capacity(total_steps);
        for (i, s) in series.iter().enumerate() {
            let in_regime_switch = i >= switch_at;
            session.begin_series();
            for step in &s.steps {
                let failed = feedback(in_regime_switch, step.outcome != s.true_outcome);
                let out = session.step(&step.quality_factors, step.outcome, failed)?;
                served.push(Served {
                    frozen_bound: out.uncertainty,
                    adapted_bound: out.adapted_uncertainty,
                    failed,
                    drifting: out.drift != DriftSignal::Stable,
                    in_regime_switch,
                });
            }
        }
        Ok(AdaptiveReplay { config, served })
    }

    /// The stream in four quarters; the last one takes the remainder.
    pub fn quarters(&self) -> [Quarter; 4] {
        let quarter = self.served.len() / 4;
        std::array::from_fn(|q| {
            let hi = if q == 3 {
                self.served.len()
            } else {
                (q + 1) * quarter
            };
            let slice = &self.served[q * quarter..hi];
            let n = slice.len().max(1) as f64;
            Quarter {
                failure_rate: slice.iter().filter(|s| s.failed).count() as f64 / n,
                frozen_bound: slice.iter().map(|s| s.frozen_bound).sum::<f64>() / n,
                adapted_bound: slice.iter().map(|s| s.adapted_bound).sum::<f64>() / n,
                drift_signals: slice.iter().filter(|s| s.drifting).count(),
            }
        })
    }

    /// The quarter table: failure rate, mean bounds, gaps and drift
    /// signals per quarter.
    pub fn quarter_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "quarter",
            "failure rate",
            "frozen bound",
            "adaptive bound",
            "frozen gap",
            "adaptive gap",
            "drift signals",
        ]);
        for (q, quarter) in self.quarters().iter().enumerate() {
            table.row(vec![
                format!("Q{}", q + 1),
                fmt_pct(quarter.failure_rate),
                fmt_prob(quarter.frozen_bound),
                fmt_prob(quarter.adapted_bound),
                fmt_pct(quarter.frozen_gap()),
                fmt_pct(quarter.adaptive_gap()),
                quarter.drift_signals.to_string(),
            ]);
        }
        table.render()
    }

    /// Drift signals `(before, after)` the regime switch.
    pub fn drift_counts(&self) -> (usize, usize) {
        let count = |after: bool| {
            self.served
                .iter()
                .filter(|s| s.drifting && s.in_regime_switch == after)
                .count()
        };
        (count(false), count(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentContext;

    #[test]
    fn replay_serves_every_step_and_splits_the_quarters() {
        let ctx = ExperimentContext::build(0.02, 11).unwrap();
        let switch_at = ctx.test.len() / 2;
        let mut calls = 0usize;
        let replay = AdaptiveReplay::run(&ctx.tauw, &ctx.test, switch_at, |after, failed| {
            calls += 1;
            failed || after
        })
        .unwrap();
        let total: usize = ctx.test.iter().map(|s| s.steps.len()).sum();
        assert_eq!((replay.served.len(), calls), (total, total));
        assert_eq!(replay.config.window, (total / 20).clamp(20, 200));
        // Every post-switch step was fed back as a failure.
        assert!(replay
            .served
            .iter()
            .filter(|s| s.in_regime_switch)
            .all(|s| s.failed));
        let quarters = replay.quarters();
        let signals: usize = quarters.iter().map(|q| q.drift_signals).sum();
        let (before, after) = replay.drift_counts();
        assert_eq!(signals, before + after);
        assert_eq!(quarters[3].failure_rate, 1.0);
        assert_eq!(replay.quarter_table().lines().count(), 6);
    }
}
