//! Online adaptive calibration: tracks observed per-stream coverage over a
//! sliding window and nudges served bounds when the stream drifts away from
//! the calibration distribution.
//!
//! The paper freezes leaf bounds at calibration time; production traffic
//! drifts. This layer wraps the serving path with a per-stream feedback
//! loop:
//!
//! 1. **Serve** the adapted bound for the current step (calibrated bound
//!    inflated by the current correction factor).
//! 2. **Observe** whether the step actually failed, pushing the pair
//!    (failed?, served bound) into a bounded [`TimeseriesBuffer`] — the
//!    *coverage window* — reusing the exact integer-grid ring aggregates
//!    from the fusion buffer verbatim.
//! 3. **Adapt**: when the windowed failure count exceeds the failure mass
//!    the served bounds promised, raise the correction one notch; when
//!    coverage holds again, lower it one notch. One notch multiplies the
//!    served *certainty deficit* by `1 + rate`, so bounds move at a bounded
//!    multiplicative per-step rate and recover symmetrically.
//!
//! The undercoverage test is exact integer arithmetic on the 2⁻⁵³ grid
//! (`failures · 2⁵³ > Σ promised failure units`), so the incremental O(1)
//! path and the O(window) [`AdaptiveState::coverage_reference`] recompute
//! are bitwise identical by construction — the same flat-vs-reference
//! verification pattern the buffer and taQF aggregates use.
//!
//! Alongside adaptation the layer classifies *why* coverage broke as a
//! [`DriftSignal`]: undercoverage on a leaf combination that calibration
//! barely populated is flagged epistemic (the model has not seen this
//! regime), while undercoverage on well-supported leaves is aleatoric
//! noise ([`DriftSignal::Noisy`]). A leafless backend reports
//! [`crate::calibration::RouteSupport::Unsupported`], and the split
//! degrades to the explicit [`DriftSignal::SupportUnavailable`] instead of
//! silently defaulting to either side.

use crate::buffer::{certainty_units_to_f64, TimeseriesBuffer, CERTAINTY_UNIT_ONE};
use crate::calibration::RouteSupport;
use crate::error::CoreError;
use crate::tauw::TauwSession;
use serde::{Deserialize, Serialize};

/// Per-stream drift/regime classification served with every adaptive step.
///
/// `Stable` is the quiet state: the coverage window is either too young to
/// judge ([`AdaptiveConfig::min_observations`] not yet reached) or coverage
/// holds with no residual correction. The two drifting states distinguish
/// the *source* of miscoverage (the epistemic-vs-aleatoric split from the
/// deep-learning-UQ literature):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DriftSignal {
    /// Coverage holds (or the window is too young to judge).
    #[default]
    Stable,
    /// The stream has left the regime the bounds were fit for. With
    /// `epistemic: true` the current leaf combination was rarely seen in
    /// calibration — the model *does not know* this input region and the
    /// divergence is a knowledge gap. With `epistemic: false` coverage
    /// currently holds but a residual inflation from a recent episode is
    /// still decaying.
    Drifting {
        /// Whether the divergence points at a calibration knowledge gap
        /// (thinly-populated leaves) rather than irreducible noise.
        epistemic: bool,
    },
    /// Coverage diverges on *well-populated* leaves: the input region was
    /// densely calibrated, so the divergence is aleatoric — the world got
    /// noisier, not the model blinder.
    Noisy,
    /// Coverage diverges but the backend cannot report calibration support
    /// ([`crate::calibration::RouteSupport::Unsupported`], e.g. the
    /// leafless conformal model), so the epistemic-vs-aleatoric split is
    /// undecidable — reported explicitly instead of defaulting to either
    /// side.
    SupportUnavailable,
}

/// Windowed coverage aggregates read from the coverage ring in O(1).
///
/// All three counters live on the exact integer grid, so equality between
/// the incremental path and the [`AdaptiveState::coverage_reference`]
/// recompute is bitwise, not approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageStats {
    /// Steps currently in the coverage window.
    pub observations: usize,
    /// How many of them actually failed.
    pub failures: usize,
    /// Total failure mass the served bounds promised, in 2⁻⁵³ units
    /// (`Σ served_bound` over the window, exactly).
    pub promised_failure_units: u128,
}

impl CoverageStats {
    /// The exact undercoverage test: did the window fail more often than
    /// the served bounds promised? Computed as
    /// `failures · 2⁵³ > promised_failure_units` — pure integer
    /// arithmetic, no rounding point.
    pub fn undercovered(&self) -> bool {
        (self.failures as u128) * CERTAINTY_UNIT_ONE > self.promised_failure_units
    }

    /// Observed failure rate over the window (0 when empty).
    pub fn observed_failure_rate(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.failures as f64 / self.observations as f64
        }
    }

    /// The promised failure mass as an `f64` (single rounding point, via
    /// [`certainty_units_to_f64`]).
    pub fn promised_failure_mass(&self) -> f64 {
        certainty_units_to_f64(self.promised_failure_units)
    }
}

/// Tuning knobs of the adaptive layer. All validated by
/// [`AdaptiveConfig::validate`] before any state is built.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Coverage-window length in steps (the bounded ring's capacity).
    pub window: usize,
    /// Per-notch multiplicative rate: one inflation notch multiplies the
    /// served certainty deficit `1 − bound` shrink factor by `1 + rate`.
    pub rate: f64,
    /// Minimum observations in the window before adaptation (or drift
    /// classification) engages; must not exceed `window`.
    pub min_observations: usize,
    /// Hard cap on the inflation notch count — bounds the total
    /// correction at `(1 + rate)^max_inflation_steps`.
    pub max_inflation_steps: u32,
    /// Calibration-support threshold separating epistemic drift (current
    /// leaves routed fewer than this many calibration samples) from
    /// aleatoric noise.
    pub thin_support: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 20,
            rate: 0.05,
            min_observations: 10,
            max_inflation_steps: 128,
            thin_support: 400,
        }
    }
}

impl AdaptiveConfig {
    /// Checks every field, with an error naming the offending knob.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when `window` is zero,
    /// `min_observations` is zero or exceeds `window`, `rate` is
    /// non-finite, non-positive, or above 1, `max_inflation_steps` is
    /// zero, or `thin_support` is zero.
    pub fn validate(&self) -> Result<(), CoreError> {
        let invalid = |reason: String| CoreError::InvalidInput { reason };
        if self.window == 0 {
            return Err(invalid(
                "adaptive config: `window` must be at least 1 step".into(),
            ));
        }
        if self.min_observations == 0 {
            return Err(invalid(
                "adaptive config: `min_observations` must be at least 1".into(),
            ));
        }
        if self.min_observations > self.window {
            return Err(invalid(format!(
                "adaptive config: `min_observations` ({}) exceeds `window` ({}) — adaptation would never engage",
                self.min_observations, self.window
            )));
        }
        if !self.rate.is_finite() || self.rate <= 0.0 || self.rate > 1.0 {
            return Err(invalid(format!(
                "adaptive config: `rate` must be a finite value in (0, 1], got {}",
                self.rate
            )));
        }
        if self.max_inflation_steps == 0 {
            return Err(invalid(
                "adaptive config: `max_inflation_steps` must be at least 1".into(),
            ));
        }
        if self.thin_support == 0 {
            return Err(invalid(
                "adaptive config: `thin_support` must be at least 1 calibration sample".into(),
            ));
        }
        Ok(())
    }
}

/// The per-stream adaptive state: coverage window + correction notch +
/// last drift classification.
///
/// Deterministic and `O(1)` per [`AdaptiveState::observe`]; persistable as
/// its own artifact kind (see [`crate::persist`]) so a serving process
/// restarts without losing adaptation.
///
/// # Examples
///
/// ```
/// use tauw_core::adaptive::{AdaptiveConfig, AdaptiveState};
///
/// let config = AdaptiveConfig { window: 4, min_observations: 2, ..Default::default() };
/// let mut state = AdaptiveState::new(config).unwrap();
/// // Promise 10% failures, deliver 100%: the correction ratchets up...
/// for _ in 0..4 {
///     let served = state.adapted_bound(0.1);
///     state.observe(served, true);
/// }
/// assert!(state.inflation_steps() > 0);
/// assert!(state.adapted_bound(0.1) > 0.1);
/// // ...and decays once coverage holds again (the notch keeps rising
/// // while old failures are still inside the window, then unwinds one
/// // notch per covered step).
/// for _ in 0..10 {
///     let served = state.adapted_bound(0.1);
///     state.observe(served, false);
/// }
/// assert_eq!(state.inflation_steps(), 0);
/// assert_eq!(state.adapted_bound(0.1), 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveState {
    config: AdaptiveConfig,
    /// Coverage ring: outcome 1 = the step failed, 0 = it did not; the
    /// entry's `uncertainty` slot holds the *served* (adapted) bound, so
    /// the ring's exact certainty aggregates are exactly the promised
    /// failure mass complement.
    coverage: TimeseriesBuffer,
    /// Current correction notch count `k`; the served deficit shrinks by
    /// `(1 + rate)^k`.
    inflation_steps: u32,
    last_drift: DriftSignal,
}

impl AdaptiveState {
    /// Creates a fresh state (empty coverage window, no correction).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the config is invalid
    /// (see [`AdaptiveConfig::validate`]).
    pub fn new(config: AdaptiveConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(AdaptiveState::fresh(config))
    }

    /// [`AdaptiveState::new`] for a config that has already passed
    /// [`AdaptiveConfig::validate`].
    pub(crate) fn fresh(config: AdaptiveConfig) -> Self {
        AdaptiveState {
            config,
            coverage: TimeseriesBuffer::bounded(config.window),
            inflation_steps: 0,
            last_drift: DriftSignal::Stable,
        }
    }

    /// Rebuilds a state from its parts (the deserialization funnel), with
    /// full cross-field validation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the config is invalid,
    /// the coverage ring's capacity differs from `config.window`, any
    /// coverage entry carries an outcome other than 0/1, or
    /// `inflation_steps` exceeds `config.max_inflation_steps`.
    pub fn from_parts(
        config: AdaptiveConfig,
        coverage: TimeseriesBuffer,
        inflation_steps: u32,
        last_drift: DriftSignal,
    ) -> Result<Self, CoreError> {
        let invalid = |reason: String| CoreError::InvalidInput { reason };
        config.validate()?;
        if coverage.capacity() != Some(config.window) {
            return Err(invalid(format!(
                "adaptive state: coverage window capacity {:?} does not match the configured window {}",
                coverage.capacity(),
                config.window
            )));
        }
        if let Some((i, e)) = coverage.iter().enumerate().find(|(_, e)| e.outcome > 1) {
            return Err(invalid(format!(
                "adaptive state: coverage entry {i} carries outcome {} (must be 0 = covered or 1 = failed)",
                e.outcome
            )));
        }
        if inflation_steps > config.max_inflation_steps {
            return Err(invalid(format!(
                "adaptive state: inflation step count {inflation_steps} exceeds the configured cap {}",
                config.max_inflation_steps
            )));
        }
        Ok(AdaptiveState {
            config,
            coverage,
            inflation_steps,
            last_drift,
        })
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Current correction notch count `k`.
    pub fn inflation_steps(&self) -> u32 {
        self.inflation_steps
    }

    /// The current multiplicative deficit shrink factor
    /// `(1 + rate)^k` (1.0 when unadapted).
    pub fn inflation_factor(&self) -> f64 {
        (1.0 + self.config.rate).powi(self.inflation_steps as i32)
    }

    /// Read access to the coverage ring (diagnostics, persistence).
    pub fn coverage_window(&self) -> &TimeseriesBuffer {
        &self.coverage
    }

    /// The drift classification of the most recent adaptive step.
    pub fn last_drift(&self) -> DriftSignal {
        self.last_drift
    }

    /// Windowed coverage aggregates in O(1), read straight off the ring's
    /// running per-outcome counters: failures are the outcome-1 count, and
    /// the promised failure mass is `len·1 − Σ certainty` (each entry
    /// promised `bound = 1 − certainty` failure mass, exactly on the
    /// integer grid).
    pub fn coverage(&self) -> CoverageStats {
        let observations = self.coverage.len();
        let certainty_sum =
            self.coverage.certainty_units_sum(0) + self.coverage.certainty_units_sum(1);
        CoverageStats {
            observations,
            failures: self.coverage.agreement_count(1),
            promised_failure_units: (observations as u128) * CERTAINTY_UNIT_ONE - certainty_sum,
        }
    }

    /// O(window) full recompute of [`AdaptiveState::coverage`] — the
    /// verification reference, bitwise identical by construction (both
    /// paths sum the same `u64` unit values).
    pub fn coverage_reference(&self) -> CoverageStats {
        let mut stats = CoverageStats {
            observations: 0,
            failures: 0,
            promised_failure_units: 0,
        };
        for e in self.coverage.iter() {
            stats.observations += 1;
            stats.failures += usize::from(e.outcome != 0);
            stats.promised_failure_units += CERTAINTY_UNIT_ONE - u128::from(e.certainty_units());
        }
        stats
    }

    /// The served bound for a calibrated uncertainty `u`: the certainty
    /// surplus `1 − u` is divided by the inflation factor, pulling the
    /// bound toward 1 without ever crossing it. At `k = 0` this returns
    /// `u` bit-identically (no `1 − (1 − u)` round trip).
    pub fn adapted_bound(&self, uncertainty: f64) -> f64 {
        if self.inflation_steps == 0 {
            uncertainty
        } else {
            1.0 - (1.0 - uncertainty) / self.inflation_factor()
        }
    }

    /// Records one serve/outcome pair and adapts: pushes (failed?, served
    /// bound) into the coverage ring, then moves the correction notch by
    /// at most one — up when the window is undercovered, down when
    /// coverage holds again. O(1) via the incremental
    /// [`AdaptiveState::coverage`] aggregates.
    pub fn observe(&mut self, served_bound: f64, failed: bool) {
        self.coverage.push(u32::from(failed), served_bound);
        let stats = self.coverage();
        self.update_inflation(&stats);
    }

    /// The O(window) verification twin of [`AdaptiveState::observe`]: same
    /// push and notch logic, but driven by
    /// [`AdaptiveState::coverage_reference`]. Bitwise identical by
    /// construction.
    pub fn observe_reference(&mut self, served_bound: f64, failed: bool) {
        self.coverage.push(u32::from(failed), served_bound);
        let stats = self.coverage_reference();
        self.update_inflation(&stats);
    }

    fn update_inflation(&mut self, stats: &CoverageStats) {
        if stats.observations < self.config.min_observations {
            return;
        }
        if stats.undercovered() {
            self.inflation_steps = (self.inflation_steps + 1).min(self.config.max_inflation_steps);
        } else if self.inflation_steps > 0 {
            self.inflation_steps -= 1;
        }
    }

    /// Classifies the stream's current regime given the calibration
    /// support of the leaves the current step routed to (see
    /// [`crate::calibration::TaQim::route_support`]). When the backend
    /// cannot report support ([`RouteSupport::Unsupported`]) and the
    /// window is undercovered, the epistemic-vs-aleatoric split is
    /// undecidable and the explicit [`DriftSignal::SupportUnavailable`]
    /// is returned.
    pub fn classify(&self, support: RouteSupport) -> DriftSignal {
        let stats = self.coverage();
        if stats.observations < self.config.min_observations {
            return DriftSignal::Stable;
        }
        if stats.undercovered() {
            match support {
                RouteSupport::Samples(n) if n < self.config.thin_support => {
                    DriftSignal::Drifting { epistemic: true }
                }
                RouteSupport::Samples(_) => DriftSignal::Noisy,
                RouteSupport::Unsupported => DriftSignal::SupportUnavailable,
            }
        } else if self.inflation_steps > 0 {
            DriftSignal::Drifting { epistemic: false }
        } else {
            DriftSignal::Stable
        }
    }

    /// Remembers the drift classification the serving path just computed
    /// (so [`AdaptiveState::last_drift`] and the engine's
    /// [`crate::sharded::ShardedEngine::stream_drift`] reflect the latest
    /// step).
    pub(crate) fn record_drift(&mut self, drift: DriftSignal) {
        self.last_drift = drift;
    }

    /// Drops all adaptation: clears the coverage window, zeroes the
    /// correction notch, returns the drift signal to
    /// [`DriftSignal::Stable`].
    pub fn reset(&mut self) {
        self.coverage.clear();
        self.inflation_steps = 0;
        self.last_drift = DriftSignal::Stable;
    }
}

// Serialization uses a canonical field layout and funnels deserialization
// through `from_parts`, so loaded adaptive state cannot bypass the
// cross-field invariants — the same pattern `TimeseriesBuffer` uses.

impl Serialize for AdaptiveState {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("config".to_string(), self.config.serialize()),
            ("coverage".to_string(), self.coverage.serialize()),
            (
                "inflation_steps".to_string(),
                self.inflation_steps.serialize(),
            ),
            ("last_drift".to_string(), self.last_drift.serialize()),
        ])
    }
}

impl Deserialize for AdaptiveState {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "AdaptiveState")?;
        let config = AdaptiveConfig::deserialize(serde::__field(map, "config", "AdaptiveState")?)?;
        let coverage =
            TimeseriesBuffer::deserialize(serde::__field(map, "coverage", "AdaptiveState")?)?;
        let inflation_steps =
            u32::deserialize(serde::__field(map, "inflation_steps", "AdaptiveState")?)?;
        let last_drift =
            DriftSignal::deserialize(serde::__field(map, "last_drift", "AdaptiveState")?)?;
        AdaptiveState::from_parts(config, coverage, inflation_steps, last_drift)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// A single-stream adaptive serving session: a [`TauwSession`]'s fusion
/// buffer plus an [`AdaptiveState`] feedback loop, stepped through the
/// same core as a plain session and every engine wave.
pub type AdaptiveTauwSession<'w> = TauwSession<'w, AdaptiveState>;

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: usize, min_observations: usize) -> AdaptiveConfig {
        AdaptiveConfig {
            window,
            min_observations,
            ..Default::default()
        }
    }

    #[test]
    fn fresh_state_serves_calibrated_bounds_bit_identically() {
        let state = AdaptiveState::new(AdaptiveConfig::default()).unwrap();
        for &u in &[0.0, 0.12345, 0.5, 0.999, 1.0] {
            assert_eq!(state.adapted_bound(u).to_bits(), u.to_bits());
        }
    }

    #[test]
    fn undercoverage_ratchets_inflation_up_and_recovery_decays_it() {
        let mut state = AdaptiveState::new(config(4, 2)).unwrap();
        for _ in 0..6 {
            let served = state.adapted_bound(0.1);
            state.observe(served, true);
        }
        let peak = state.inflation_steps();
        assert!(peak > 0);
        assert!(state.adapted_bound(0.1) > 0.1);
        assert!(state.adapted_bound(0.1) < 1.0);
        for _ in 0..20 {
            let served = state.adapted_bound(0.1);
            state.observe(served, false);
        }
        assert_eq!(state.inflation_steps(), 0);
        assert_eq!(state.adapted_bound(0.1).to_bits(), 0.1f64.to_bits());
    }

    #[test]
    fn inflation_respects_the_configured_cap() {
        let mut state = AdaptiveState::new(AdaptiveConfig {
            window: 4,
            min_observations: 1,
            max_inflation_steps: 3,
            ..Default::default()
        })
        .unwrap();
        for _ in 0..50 {
            state.observe(0.0, true);
        }
        assert_eq!(state.inflation_steps(), 3);
        assert!(state.adapted_bound(0.5) < 1.0);
    }

    #[test]
    fn incremental_coverage_matches_reference() {
        let mut state = AdaptiveState::new(config(5, 2)).unwrap();
        let bounds = [0.1, 0.9, 0.25, 0.0, 1.0, 0.33, 0.77, 0.5];
        for (i, &b) in bounds.iter().enumerate() {
            state.observe(b, i % 3 == 0);
            assert_eq!(state.coverage(), state.coverage_reference());
        }
    }

    #[test]
    fn adaptation_waits_for_min_observations() {
        let mut state = AdaptiveState::new(config(10, 5)).unwrap();
        for _ in 0..4 {
            state.observe(0.0, true);
            assert_eq!(state.inflation_steps(), 0);
            assert_eq!(
                state.classify(RouteSupport::Samples(0)),
                DriftSignal::Stable
            );
        }
        state.observe(0.0, true);
        assert_eq!(state.inflation_steps(), 1);
    }

    #[test]
    fn classify_separates_epistemic_from_aleatoric() {
        let mut state = AdaptiveState::new(AdaptiveConfig {
            window: 4,
            min_observations: 2,
            thin_support: 100,
            ..Default::default()
        })
        .unwrap();
        for _ in 0..4 {
            state.observe(0.05, true);
        }
        assert!(state.coverage().undercovered());
        assert_eq!(
            state.classify(RouteSupport::Samples(10)),
            DriftSignal::Drifting { epistemic: true }
        );
        assert_eq!(
            state.classify(RouteSupport::Samples(500)),
            DriftSignal::Noisy
        );
        // A leafless backend can't feed the split: the outcome is the
        // explicit SupportUnavailable, not a silent default.
        assert_eq!(
            state.classify(RouteSupport::Unsupported),
            DriftSignal::SupportUnavailable
        );
        // Recover: plenty of successes; residual inflation → non-epistemic drift.
        for _ in 0..4 {
            state.observe(1.0, false);
        }
        assert!(!state.coverage().undercovered());
        assert!(state.inflation_steps() > 0);
        assert_eq!(
            state.classify(RouteSupport::Samples(500)),
            DriftSignal::Drifting { epistemic: false }
        );
        // Outside the undercovered window the split never consults
        // support, so Unsupported stays a quiet non-event.
        assert_eq!(
            state.classify(RouteSupport::Unsupported),
            DriftSignal::Drifting { epistemic: false }
        );
    }

    #[test]
    fn reset_returns_to_the_fresh_state() {
        let mut state = AdaptiveState::new(config(4, 1)).unwrap();
        for _ in 0..6 {
            state.observe(0.0, true);
        }
        assert!(state.inflation_steps() > 0);
        state.reset();
        let fresh = AdaptiveState::new(config(4, 1)).unwrap();
        assert_eq!(state, fresh);
        assert_eq!(state.last_drift(), DriftSignal::Stable);
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        let cases: [(AdaptiveConfig, &str); 6] = [
            (
                AdaptiveConfig {
                    window: 0,
                    ..Default::default()
                },
                "`window`",
            ),
            (
                AdaptiveConfig {
                    min_observations: 0,
                    ..Default::default()
                },
                "`min_observations`",
            ),
            (
                AdaptiveConfig {
                    window: 5,
                    min_observations: 6,
                    ..Default::default()
                },
                "`min_observations`",
            ),
            (
                AdaptiveConfig {
                    rate: f64::NAN,
                    ..Default::default()
                },
                "`rate`",
            ),
            (
                AdaptiveConfig {
                    max_inflation_steps: 0,
                    ..Default::default()
                },
                "`max_inflation_steps`",
            ),
            (
                AdaptiveConfig {
                    thin_support: 0,
                    ..Default::default()
                },
                "`thin_support`",
            ),
        ];
        for (cfg, field) in cases {
            let err = AdaptiveState::new(cfg).unwrap_err().to_string();
            assert!(err.contains(field), "{err} should mention {field}");
        }
        assert!(AdaptiveState::new(AdaptiveConfig {
            rate: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(AdaptiveState::new(AdaptiveConfig {
            rate: 1.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn from_parts_rejects_inconsistent_state() {
        let cfg = config(4, 2);
        // Capacity mismatch.
        let err =
            AdaptiveState::from_parts(cfg, TimeseriesBuffer::bounded(5), 0, DriftSignal::Stable)
                .unwrap_err()
                .to_string();
        assert!(err.contains("coverage window capacity"), "{err}");
        // Non-binary outcome in the coverage ring.
        let mut bad = TimeseriesBuffer::bounded(4);
        bad.push(2, 0.5);
        let err = AdaptiveState::from_parts(cfg, bad, 0, DriftSignal::Stable)
            .unwrap_err()
            .to_string();
        assert!(err.contains("outcome 2"), "{err}");
        // Inflation count above the cap.
        let err = AdaptiveState::from_parts(
            cfg,
            TimeseriesBuffer::bounded(4),
            cfg.max_inflation_steps + 1,
            DriftSignal::Stable,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("inflation step count"), "{err}");
    }

    #[test]
    fn serde_round_trips_through_from_parts() {
        let mut state = AdaptiveState::new(config(6, 3)).unwrap();
        for i in 0..10 {
            state.observe(0.2 + 0.05 * i as f64, i % 2 == 0);
        }
        state.record_drift(DriftSignal::Drifting { epistemic: true });
        let value = state.serialize();
        let back = AdaptiveState::deserialize(&value).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.last_drift(), DriftSignal::Drifting { epistemic: true });
    }

    #[test]
    fn drift_signal_serde_covers_all_variants() {
        for signal in [
            DriftSignal::Stable,
            DriftSignal::Noisy,
            DriftSignal::Drifting { epistemic: true },
            DriftSignal::Drifting { epistemic: false },
            DriftSignal::SupportUnavailable,
        ] {
            let back = DriftSignal::deserialize(&signal.serialize()).unwrap();
            assert_eq!(back, signal);
        }
    }
}
