//! Timeseries-aware quality factors taQF1–taQF4 (paper Section III).
//!
//! All four factors are derived from the timeseries buffer and the current
//! fused outcome; they are deliberately use-case agnostic ("independent of
//! the specific use case of TSR"):
//!
//! * **taQF1 — ratio**: fraction of buffered outcomes agreeing with the
//!   current fused outcome,
//! * **taQF2 — length**: the series length `i + 1` so far,
//! * **taQF3 — size**: number of distinct outcomes so far,
//! * **taQF4 — cumulative certainty**: sum of certainties `1 − u_j` of the
//!   steps whose outcome agrees with the fused outcome (others count 0).
//!
//! # Window semantics
//!
//! Under an unbounded buffer (the paper's setting) all four factors see the
//! whole series. Under a **bounded** buffer the factors deliberately split:
//! taQF1/taQF3/taQF4 are computed over the sliding window (stale evidence
//! ages out), while **taQF2 stays the lifetime series length `i + 1`** via
//! the buffer's eviction-surviving step counter — a window must cap memory
//! and cost, not rewind how long the object has been tracked.
//!
//! # Cost model
//!
//! [`TaqfVector::compute`] reads the buffer's running aggregates — O(1) in
//! the window length (linear only in the distinct classes present). The
//! O(window) scan is kept as [`TaqfVector::compute_reference`] and the two
//! are asserted bit-identical by the proptest and determinism suites.

use crate::buffer::{certainty_units_to_f64, TimeseriesBuffer};
use serde::{Deserialize, Serialize};

/// Identifier of one timeseries-aware quality factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaqfKind {
    /// taQF1: agreement ratio with the fused outcome.
    Ratio,
    /// taQF2: series length so far.
    Length,
    /// taQF3: number of unique outcomes so far.
    UniqueOutcomes,
    /// taQF4: cumulative certainty of agreeing steps.
    CumulativeCertainty,
}

impl TaqfKind {
    /// All factors in taQF1..taQF4 order.
    pub const ALL: [TaqfKind; 4] = [
        TaqfKind::Ratio,
        TaqfKind::Length,
        TaqfKind::UniqueOutcomes,
        TaqfKind::CumulativeCertainty,
    ];

    /// Stable snake_case feature/column name.
    pub fn name(self) -> &'static str {
        match self {
            TaqfKind::Ratio => "taqf_ratio",
            TaqfKind::Length => "taqf_length",
            TaqfKind::UniqueOutcomes => "taqf_unique_outcomes",
            TaqfKind::CumulativeCertainty => "taqf_cumulative_certainty",
        }
    }

    /// The paper's short label ("ratio", "length", "size", "certainty").
    pub fn paper_label(self) -> &'static str {
        match self {
            TaqfKind::Ratio => "ratio",
            TaqfKind::Length => "length",
            TaqfKind::UniqueOutcomes => "size",
            TaqfKind::CumulativeCertainty => "certainty",
        }
    }
}

impl std::fmt::Display for TaqfKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_label())
    }
}

/// The four factor values for one timestep.
///
/// # Window semantics
///
/// Under an unbounded buffer (the paper's setting) every factor sees the
/// whole series. Under a **bounded** (sliding-window) buffer the factors
/// deliberately split — a window caps memory and per-step cost, but must
/// not rewind how long the object has been tracked:
///
/// | Factor | Field | Meaning | Bounded-buffer scope |
/// |---|---|---|---|
/// | taQF1 | [`ratio`](TaqfVector::ratio) | agreement with the fused outcome | window |
/// | taQF2 | [`length`](TaqfVector::length) | series length `i + 1` | **lifetime** ([`TimeseriesBuffer::total_steps`], survives eviction) |
/// | taQF3 | [`unique_outcomes`](TaqfVector::unique_outcomes) | distinct outcomes | window |
/// | taQF4 | [`cumulative_certainty`](TaqfVector::cumulative_certainty) | cumulative agreeing certainty | window |
///
/// The majority vote that produces the fused outcome likewise fuses over
/// the window. taQF2 once reported the window size on a full buffer; it
/// now reports the paper's lifetime series length via the buffer's
/// eviction-surviving step counter
/// ([`crate::tauw::TauwStep::series_length`] follows the same
/// convention).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaqfVector {
    /// taQF1 in `[0, 1]`.
    pub ratio: f64,
    /// taQF2 (≥ 1).
    pub length: f64,
    /// taQF3 (≥ 1).
    pub unique_outcomes: f64,
    /// taQF4 (≥ 0, ≤ length).
    pub cumulative_certainty: f64,
}

impl TaqfVector {
    /// Computes all four factors from the buffer and the current fused
    /// outcome. Returns `None` for an empty buffer (no series context yet).
    ///
    /// # Examples
    ///
    /// ```
    /// use tauw_core::{buffer::TimeseriesBuffer, taqf::TaqfVector};
    ///
    /// let mut buf = TimeseriesBuffer::new();
    /// buf.push(7, 0.1); // agrees with the fused outcome below
    /// buf.push(3, 0.2); // disagrees
    /// buf.push(7, 0.0); // agrees
    /// let taqf = TaqfVector::compute(&buf, 7).unwrap();
    /// assert!((taqf.ratio - 2.0 / 3.0).abs() < 1e-12);
    /// assert_eq!(taqf.length, 3.0);
    /// assert_eq!(taqf.unique_outcomes, 2.0);
    /// assert!((taqf.cumulative_certainty - 1.9).abs() < 1e-12);
    /// ```
    pub fn compute(buffer: &TimeseriesBuffer, fused_outcome: u32) -> Option<TaqfVector> {
        if buffer.is_empty() {
            return None;
        }
        // O(1) in the window length: every term is a running aggregate the
        // buffer maintains on push/evict/clear.
        let window = buffer.len() as f64;
        Some(TaqfVector {
            ratio: buffer.agreement_count(fused_outcome) as f64 / window,
            length: buffer.total_steps() as f64,
            unique_outcomes: buffer.unique_outcomes() as f64,
            cumulative_certainty: certainty_units_to_f64(buffer.certainty_units_sum(fused_outcome)),
        })
    }

    /// Full-recompute reference for [`TaqfVector::compute`]: an O(window)
    /// scan over the buffered entries, kept aboard (mirroring the
    /// flat-vs-pointer tree pattern) so the incremental aggregates can be
    /// verified. Certainty accumulation uses the same exact 2⁻⁵³-unit
    /// integer arithmetic, so the result is **bit-identical** to the O(1)
    /// path for every push/evict/clear history.
    pub fn compute_reference(buffer: &TimeseriesBuffer, fused_outcome: u32) -> Option<TaqfVector> {
        if buffer.is_empty() {
            return None;
        }
        let window = buffer.len() as f64;
        let mut agree = 0usize;
        let mut units: u128 = 0;
        let mut seen: Vec<u32> = Vec::new();
        for e in buffer.iter() {
            if e.outcome == fused_outcome {
                agree += 1;
                units += u128::from(e.certainty_units());
            }
            if !seen.contains(&e.outcome) {
                seen.push(e.outcome);
            }
        }
        Some(TaqfVector {
            ratio: agree as f64 / window,
            length: buffer.total_steps() as f64,
            unique_outcomes: seen.len() as f64,
            cumulative_certainty: certainty_units_to_f64(units),
        })
    }

    /// The factor value for one kind.
    pub fn get(&self, kind: TaqfKind) -> f64 {
        match kind {
            TaqfKind::Ratio => self.ratio,
            TaqfKind::Length => self.length,
            TaqfKind::UniqueOutcomes => self.unique_outcomes,
            TaqfKind::CumulativeCertainty => self.cumulative_certainty,
        }
    }
}

/// A subset of the four taQFs (bitmask), used by the RQ3 feature study and
/// to configure which factors a taQIM consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaqfSet(u8);

impl TaqfSet {
    /// The empty set (degenerates the taQIM to a stateless QIM over the
    /// current step's quality factors).
    pub const EMPTY: TaqfSet = TaqfSet(0);
    /// All four factors (the paper's full taUW).
    pub const FULL: TaqfSet = TaqfSet(0b1111);

    /// Builds a set from the given kinds.
    pub fn from_kinds(kinds: &[TaqfKind]) -> Self {
        let mut mask = 0u8;
        for k in kinds {
            mask |= 1 << Self::bit(*k);
        }
        TaqfSet(mask)
    }

    /// All 16 subsets (including empty), in mask order — the Fig. 7 sweep.
    pub fn all_subsets() -> impl Iterator<Item = TaqfSet> {
        (0u8..16).map(TaqfSet)
    }

    /// Whether the set contains a factor.
    pub fn contains(self, kind: TaqfKind) -> bool {
        self.0 & (1 << Self::bit(kind)) != 0
    }

    /// Number of factors in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether every set bit names one of the four factors; a mask read
    /// from an artifact can carry stray high bits.
    pub(crate) fn is_valid(self) -> bool {
        self.0 & !Self::FULL.0 == 0
    }

    /// The contained kinds in taQF1..taQF4 order.
    pub fn kinds(self) -> Vec<TaqfKind> {
        TaqfKind::ALL
            .iter()
            .copied()
            .filter(|k| self.contains(*k))
            .collect()
    }

    /// Extracts the selected factor values in [`TaqfSet::kinds`] order.
    pub fn select(self, v: &TaqfVector) -> Vec<f64> {
        self.kinds().into_iter().map(|k| v.get(k)).collect()
    }

    /// Human-readable label like `"{ratio, certainty}"`.
    pub fn label(self) -> String {
        if self.is_empty() {
            return "{}".to_string();
        }
        let names: Vec<&str> = self
            .kinds()
            .into_iter()
            .map(TaqfKind::paper_label)
            .collect();
        format!("{{{}}}", names.join(", "))
    }

    fn bit(kind: TaqfKind) -> u8 {
        match kind {
            TaqfKind::Ratio => 0,
            TaqfKind::Length => 1,
            TaqfKind::UniqueOutcomes => 2,
            TaqfKind::CumulativeCertainty => 3,
        }
    }
}

impl Default for TaqfSet {
    fn default() -> Self {
        TaqfSet::FULL
    }
}

impl std::fmt::Display for TaqfSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Experimental timeseries features beyond the paper's taQF1–4, for the
/// `extended_taqf` study (the paper closes RQ3 with "experiments on other
/// datasets are required to determine ... whether there is an overall best
/// set of timeseries-aware features" — these probe that direction on the
/// synthetic substrate).
pub mod extra {
    use crate::buffer::TimeseriesBuffer;

    /// Length of the current *trailing streak* of outcomes equal to the
    /// fused outcome (0 if the most recent outcome disagrees). Rationale: a
    /// long unbroken run of agreement is stronger evidence than the same
    /// agreement count scattered across the series.
    pub fn trailing_agreement_streak(buffer: &TimeseriesBuffer, fused_outcome: u32) -> f64 {
        buffer
            .iter()
            .rev()
            .take_while(|e| e.outcome == fused_outcome)
            .count() as f64
    }

    /// Exponentially recency-weighted agreement ratio with decay `lambda`
    /// (0 < lambda ≤ 1; 1 recovers taQF1). Rationale: under drifting
    /// conditions, recent agreement should count more than stale agreement.
    ///
    /// A NaN `lambda` is rejected and falls back to the unweighted ratio
    /// (`lambda = 1`) instead of propagating NaN through `clamp` (the one
    /// input that used to poison the result); other out-of-range values
    /// clamp into `[1e-6, 1]`. The weights are summed newest-first with a
    /// multiplicative decay, which makes the denominator *structurally*
    /// ≥ 1 — the newest step's weight is the first term, before any
    /// underflow can occur — rather than relying on `powf(0.0) == 1.0`
    /// somewhere mid-scan; the walk stops once the decayed weight
    /// underflows to zero, so long series with a small `lambda` no longer
    /// pay one `powf` per buffered step for entries that cannot move
    /// either sum.
    pub fn recency_weighted_ratio(
        buffer: &TimeseriesBuffer,
        fused_outcome: u32,
        lambda: f64,
    ) -> f64 {
        if buffer.is_empty() {
            return 0.0;
        }
        let lambda = if lambda.is_nan() {
            1.0
        } else {
            lambda.clamp(1e-6, 1.0)
        };
        let mut weighted_agree = 0.0;
        let mut total_weight = 0.0;
        let mut w = 1.0;
        for e in buffer.iter().rev() {
            if w == 0.0 {
                // All remaining (older) weights underflowed: they cannot
                // move either sum.
                break;
            }
            total_weight += w;
            if e.outcome == fused_outcome {
                weighted_agree += w;
            }
            w *= lambda;
        }
        debug_assert!(total_weight >= 1.0, "the newest step always weighs 1");
        weighted_agree / total_weight
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn buffer(entries: &[(u32, f64)]) -> TimeseriesBuffer {
            let mut b = TimeseriesBuffer::new();
            for &(o, u) in entries {
                b.push(o, u);
            }
            b
        }

        #[test]
        fn streak_counts_trailing_agreement_only() {
            let b = buffer(&[(1, 0.1), (1, 0.1), (2, 0.1), (1, 0.1), (1, 0.1)]);
            assert_eq!(trailing_agreement_streak(&b, 1), 2.0);
            assert_eq!(trailing_agreement_streak(&b, 2), 0.0);
        }

        #[test]
        fn streak_spans_whole_series_when_unanimous() {
            let b = buffer(&[(7, 0.2); 6]);
            assert_eq!(trailing_agreement_streak(&b, 7), 6.0);
        }

        #[test]
        fn streak_of_empty_buffer_is_zero() {
            assert_eq!(trailing_agreement_streak(&TimeseriesBuffer::new(), 1), 0.0);
        }

        #[test]
        fn recency_weighting_with_lambda_one_is_plain_ratio() {
            let b = buffer(&[(1, 0.1), (2, 0.1), (1, 0.1)]);
            let r = recency_weighted_ratio(&b, 1, 1.0);
            assert!((r - 2.0 / 3.0).abs() < 1e-12);
        }

        #[test]
        fn recent_agreement_outweighs_stale_agreement() {
            // Agreement only at the start vs only at the end.
            let stale = buffer(&[(1, 0.1), (1, 0.1), (2, 0.1), (2, 0.1)]);
            let fresh = buffer(&[(2, 0.1), (2, 0.1), (1, 0.1), (1, 0.1)]);
            let lambda = 0.5;
            assert!(
                recency_weighted_ratio(&fresh, 1, lambda)
                    > recency_weighted_ratio(&stale, 1, lambda)
            );
        }

        #[test]
        fn recency_ratio_survives_weight_underflow_on_long_series() {
            // With a small lambda and a long series, all but the newest few
            // weights underflow to zero. The newest-first scan keeps the
            // denominator structurally >= 1 and cuts off once the weight
            // hits zero, so the ratio stays finite, exact, and cheap.
            let mut b = TimeseriesBuffer::new();
            for i in 0..100_000u32 {
                b.push(if i % 3 == 0 { 1 } else { 2 }, 0.1);
            }
            for lambda in [1e-6, 1e-3, 0.5, f64::MIN_POSITIVE, 0.0, -4.0] {
                for class in [1, 2, 9] {
                    let r = recency_weighted_ratio(&b, class, lambda);
                    assert!(r.is_finite(), "lambda={lambda} class={class}: {r}");
                    assert!((0.0..=1.0).contains(&r));
                }
            }
            // At lambda = 1e-6 only the most recent steps carry weight: the
            // last outcome dominates the ratio.
            let last = b.iter().next_back().unwrap().outcome;
            assert!(recency_weighted_ratio(&b, last, 1e-6) > 0.999_998);
        }

        #[test]
        fn nan_lambda_is_rejected_and_falls_back_to_the_plain_ratio() {
            let b = buffer(&[(1, 0.1), (2, 0.1), (1, 0.1)]);
            let nan = recency_weighted_ratio(&b, 1, f64::NAN);
            assert!(!nan.is_nan(), "NaN lambda must not poison the ratio");
            assert_eq!(nan, recency_weighted_ratio(&b, 1, 1.0));
            // Infinities clamp into range instead of propagating.
            assert!((0.0..=1.0).contains(&recency_weighted_ratio(&b, 1, f64::INFINITY)));
            assert!((0.0..=1.0).contains(&recency_weighted_ratio(&b, 1, f64::NEG_INFINITY)));
        }

        #[test]
        fn recency_ratio_stays_in_unit_interval() {
            let b = buffer(&[(1, 0.1), (2, 0.3), (3, 0.5), (1, 0.0)]);
            for lambda in [0.1, 0.5, 0.9, 1.0] {
                for class in [1, 2, 3, 9] {
                    let r = recency_weighted_ratio(&b, class, lambda);
                    assert!((0.0..=1.0).contains(&r));
                }
            }
            assert_eq!(
                recency_weighted_ratio(&TimeseriesBuffer::new(), 1, 0.5),
                0.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer(entries: &[(u32, f64)]) -> TimeseriesBuffer {
        let mut b = TimeseriesBuffer::new();
        for &(o, u) in entries {
            b.push(o, u);
        }
        b
    }

    #[test]
    fn empty_buffer_has_no_taqf() {
        assert!(TaqfVector::compute(&TimeseriesBuffer::new(), 0).is_none());
    }

    #[test]
    fn single_agreeing_step() {
        let b = buffer(&[(4, 0.2)]);
        let t = TaqfVector::compute(&b, 4).unwrap();
        assert_eq!(t.ratio, 1.0);
        assert_eq!(t.length, 1.0);
        assert_eq!(t.unique_outcomes, 1.0);
        assert!((t.cumulative_certainty - 0.8).abs() < 1e-12);
    }

    #[test]
    fn disagreeing_steps_contribute_zero_certainty() {
        // Paper: "previous outcomes that disagree with the current fused
        // outcome are assumed to have a certainty of zero".
        let b = buffer(&[(1, 0.0), (2, 0.0), (2, 0.5)]);
        let t = TaqfVector::compute(&b, 2).unwrap();
        assert!((t.cumulative_certainty - 1.5).abs() < 1e-12);
        assert!((t.ratio - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unique_outcomes_tracks_variety() {
        let b = buffer(&[(1, 0.1), (2, 0.1), (3, 0.1), (1, 0.1)]);
        let t = TaqfVector::compute(&b, 1).unwrap();
        assert_eq!(t.unique_outcomes, 3.0);
        assert_eq!(t.length, 4.0);
    }

    #[test]
    fn incremental_compute_matches_reference_bitwise() {
        let mut bounded = TimeseriesBuffer::bounded(3);
        let mut unbounded = TimeseriesBuffer::new();
        for (i, &(o, u)) in [
            (1u32, 0.123),
            (2, 0.456),
            (1, 0.789),
            (3, 0.0),
            (1, 1.0),
            (2, 0.333),
        ]
        .iter()
        .enumerate()
        {
            for b in [&mut bounded, &mut unbounded] {
                b.push(o, u);
                for fused in [1u32, 2, 3, 9] {
                    let fast = TaqfVector::compute(b, fused).unwrap();
                    let slow = TaqfVector::compute_reference(b, fused).unwrap();
                    assert_eq!(fast.ratio.to_bits(), slow.ratio.to_bits(), "step {i}");
                    assert_eq!(fast.length.to_bits(), slow.length.to_bits(), "step {i}");
                    assert_eq!(
                        fast.unique_outcomes.to_bits(),
                        slow.unique_outcomes.to_bits(),
                        "step {i}"
                    );
                    assert_eq!(
                        fast.cumulative_certainty.to_bits(),
                        slow.cumulative_certainty.to_bits(),
                        "step {i}"
                    );
                }
            }
        }
        assert!(TaqfVector::compute_reference(&TimeseriesBuffer::new(), 0).is_none());
    }

    #[test]
    fn taqf2_survives_window_eviction() {
        // Regression: a bounded buffer used to report the window size as
        // taQF2; the paper's series length `i + 1` must keep growing.
        let mut b = TimeseriesBuffer::bounded(2);
        for i in 0..6u32 {
            b.push(7, 0.1 * f64::from(i % 3));
        }
        let t = TaqfVector::compute(&b, 7).unwrap();
        assert_eq!(t.length, 6.0, "lifetime length, not the window size");
        assert_eq!(t.ratio, 1.0, "ratio stays windowed");
        assert_eq!(t.unique_outcomes, 1.0);
        b.clear();
        b.push(7, 0.0);
        assert_eq!(TaqfVector::compute(&b, 7).unwrap().length, 1.0);
    }

    #[test]
    fn get_matches_fields() {
        let b = buffer(&[(1, 0.25), (1, 0.25)]);
        let t = TaqfVector::compute(&b, 1).unwrap();
        assert_eq!(t.get(TaqfKind::Ratio), t.ratio);
        assert_eq!(t.get(TaqfKind::Length), t.length);
        assert_eq!(t.get(TaqfKind::UniqueOutcomes), t.unique_outcomes);
        assert_eq!(t.get(TaqfKind::CumulativeCertainty), t.cumulative_certainty);
    }

    #[test]
    fn subsets_enumerate_sixteen() {
        let all: Vec<TaqfSet> = TaqfSet::all_subsets().collect();
        assert_eq!(all.len(), 16);
        assert_eq!(all[0], TaqfSet::EMPTY);
        assert_eq!(all[15], TaqfSet::FULL);
        // Sizes follow the binomial distribution 1,4,6,4,1.
        let mut by_size = [0usize; 5];
        for s in all {
            by_size[s.len()] += 1;
        }
        assert_eq!(by_size, [1, 4, 6, 4, 1]);
    }

    #[test]
    fn select_orders_by_kind() {
        let b = buffer(&[(1, 0.5), (2, 0.5)]);
        let t = TaqfVector::compute(&b, 1).unwrap();
        let set = TaqfSet::from_kinds(&[TaqfKind::CumulativeCertainty, TaqfKind::Ratio]);
        let selected = set.select(&t);
        assert_eq!(selected, vec![t.ratio, t.cumulative_certainty]);
        assert_eq!(
            set.kinds(),
            vec![TaqfKind::Ratio, TaqfKind::CumulativeCertainty]
        );
    }

    #[test]
    fn labels_read_like_the_paper() {
        let set = TaqfSet::from_kinds(&[TaqfKind::Ratio, TaqfKind::CumulativeCertainty]);
        assert_eq!(set.label(), "{ratio, certainty}");
        assert_eq!(TaqfSet::EMPTY.label(), "{}");
        assert_eq!(TaqfSet::FULL.label(), "{ratio, length, size, certainty}");
    }

    #[test]
    fn default_is_full() {
        assert_eq!(TaqfSet::default(), TaqfSet::FULL);
    }
}
