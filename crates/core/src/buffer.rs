//! The timeseries buffer (paper Section III): the state added to the
//! otherwise stateless uncertainty wrapper. It stores, for the *current*
//! series only, the per-step DDM outcomes and the per-step stateless
//! uncertainty estimates; it is cleared whenever the tracking component
//! signals a new measurement object.
//!
//! # Per-step cost model
//!
//! The buffer is the per-step hot state of every monitored stream, so its
//! operations must not scale with the series length:
//!
//! * storage is a **head-indexed ring**: a bounded buffer evicts its oldest
//!   entry by overwriting one slot and advancing `head` — no `remove(0)`
//!   shift, so `push` is O(1) in the window length;
//! * every `push`/evict/`clear` maintains **running aggregates** — one
//!   `OutcomeStats` record per distinct outcome in the window (count,
//!   exact certainty sum, last-seen step) plus a lifetime step counter —
//!   so the taQF1–4 vector and the majority-vote fused outcome are O(1)
//!   lookups in the window length (linear only in the number of *distinct
//!   classes* in the window, which is bounded by the DDM's class alphabet,
//!   not by the series).
//!
//! Certainty sums are held **exactly**: a clamped uncertainty always yields
//! a certainty `1 − u` that is an integer multiple of 2⁻⁵³ (see
//! [`BufferEntry::certainty_units`]), so sums are integer arithmetic and
//! eviction is exact subtraction. The incremental aggregates are therefore
//! *bit-identical* to a full recompute over the window — asserted against
//! the reference scans ([`crate::taqf::TaqfVector::compute_reference`],
//! [`TimeseriesBuffer::fused_outcome_reference`]) by the proptest and
//! determinism suites.

use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use tauw_fusion::info::{InformationFusion, MajorityVote};

/// The fixed-point scale of exact certainty accumulation: one unit is 2⁻⁵³.
const CERTAINTY_UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// One buffered timestep: the DDM outcome and the stateless wrapper's
/// uncertainty estimate for that step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferEntry {
    /// DDM outcome (class id) at this step.
    pub outcome: u32,
    /// Stateless uncertainty estimate `u_j` for this step.
    pub uncertainty: f64,
}

impl BufferEntry {
    /// Certainty `c_j = 1 − u_j`.
    pub fn certainty(&self) -> f64 {
        1.0 - self.uncertainty
    }

    /// The certainty as an exact count of 2⁻⁵³ units.
    ///
    /// For any uncertainty in `[0, 1]` (the invariant [`TimeseriesBuffer::push`]
    /// enforces), `1 − u` is an exact integer multiple of 2⁻⁵³: for
    /// `u ≥ 0.5` the subtraction is exact (Sterbenz) and `u` itself sits on
    /// the 2⁻⁵³ grid, for `u < 0.5` the rounded result lies in `[0.5, 1]`
    /// whose representable values are that grid. Integer sums of these
    /// units are therefore exact and order-independent, which is what makes
    /// the buffer's incremental certainty aggregates bit-identical to a
    /// full recompute.
    pub fn certainty_units(&self) -> u64 {
        (self.certainty() * CERTAINTY_UNIT_SCALE) as u64
    }
}

/// Converts a sum of 2⁻⁵³ certainty units back to an `f64` certainty sum.
///
/// This is the single rounding point of the exact accumulation scheme: the
/// integer total (exact by construction) is converted once, so any two ways
/// of arriving at the same window contents produce the same bits.
pub fn certainty_units_to_f64(units: u128) -> f64 {
    (units as f64) / CERTAINTY_UNIT_SCALE
}

/// One full unit of probability mass (`1.0`) on the 2⁻⁵³ integer grid —
/// the exact number of units a single entry with certainty `1.0`
/// contributes. Consumers comparing *counts* against *certainty sums*
/// (e.g. the adaptive coverage tracker testing `failures · 1.0 >
/// Σ promised failure mass`) multiply by this constant so the comparison
/// stays in exact integer arithmetic.
pub const CERTAINTY_UNIT_ONE: u128 = 1u128 << 53;

/// Running aggregates for one distinct outcome currently in the window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OutcomeStats {
    /// The outcome (class id).
    outcome: u32,
    /// Occurrences of the outcome in the window.
    count: usize,
    /// Exact certainty sum of those occurrences, in 2⁻⁵³ units.
    certainty_units: u128,
    /// Lifetime step number (1-based) of the outcome's most recent
    /// occurrence — the majority-vote recency tie-breaker. The most recent
    /// occurrence is never evicted before older ones, so this stays valid
    /// under window eviction.
    last_seen: u64,
}

/// Interim-result store for the current timeseries.
///
/// An **unbounded** buffer ([`TimeseriesBuffer::new`]) keeps every step of
/// the current series — the paper's setting, where tracking clears the
/// buffer on every new object. A **bounded** buffer
/// ([`TimeseriesBuffer::bounded`]) keeps only the most recent `capacity`
/// steps as a true ring (head index, overwrite-on-evict); long-running
/// streams (the engine's "millions of users" shape) use it to cap
/// per-stream memory *and* per-step cost.
///
/// # Examples
///
/// ```
/// use tauw_core::buffer::TimeseriesBuffer;
///
/// let mut buf = TimeseriesBuffer::new();
/// buf.push(2, 0.1);
/// buf.push(2, 0.05);
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.outcomes(), vec![2, 2]);
/// assert_eq!(buf.fused_outcome(), Some(2)); // O(1) majority vote
/// buf.clear(); // new physical object detected
/// assert!(buf.is_empty());
///
/// let mut window = TimeseriesBuffer::bounded(2);
/// window.push(1, 0.1);
/// window.push(2, 0.2);
/// window.push(3, 0.3); // evicts outcome 1 in O(1)
/// assert_eq!(window.outcomes(), vec![2, 3]);
/// assert_eq!(window.total_steps(), 3, "the lifetime counter survives eviction");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeseriesBuffer {
    /// Ring storage. Temporal order is `entries[head..]` then
    /// `entries[..head]`; `head` is non-zero only for a bounded buffer that
    /// has wrapped.
    entries: Vec<BufferEntry>,
    /// Index of the oldest entry.
    head: usize,
    /// Sliding-window bound; `None` keeps the full series.
    capacity: Option<usize>,
    /// Lifetime pushes since the last [`TimeseriesBuffer::clear`] — the
    /// paper's series length `i + 1`, which eviction must not shrink
    /// (taQF2).
    total_steps: u64,
    /// Per-outcome running aggregates over the current window.
    stats: Vec<OutcomeStats>,
}

impl TimeseriesBuffer {
    /// Creates an empty unbounded buffer.
    pub fn new() -> Self {
        TimeseriesBuffer::default()
    }

    /// Creates an empty unbounded buffer with reserved capacity (series
    /// length is usually known to be ~10–30 steps). The hint only
    /// pre-allocates; it does not bound the buffer.
    pub fn with_capacity(capacity: usize) -> Self {
        TimeseriesBuffer {
            entries: Vec::with_capacity(capacity),
            ..TimeseriesBuffer::default()
        }
    }

    /// Creates an empty **bounded** buffer holding at most `capacity`
    /// entries (clamped to ≥ 1). Once full, each push evicts the oldest
    /// entry by overwriting its ring slot, so the buffer always holds the
    /// most recent `capacity` steps in temporal order.
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TimeseriesBuffer {
            entries: Vec::with_capacity(capacity),
            capacity: Some(capacity),
            ..TimeseriesBuffer::default()
        }
    }

    /// Rebuilds a buffer from its serialized parts, enforcing every `push`
    /// invariant (this is the only way deserialized state enters the
    /// process, so a crafted artifact cannot smuggle in out-of-range
    /// uncertainties or an over-full window).
    ///
    /// `entries` must be in temporal order; `total_steps` is the lifetime
    /// counter at snapshot time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when `capacity` is zero, the
    /// entries exceed the capacity, any uncertainty is non-finite or
    /// outside `[0, 1]`, or `total_steps` is smaller than the entry count
    /// or above 2⁵³ (taQF2 reads the counter as an `f64`, exact only up to
    /// 2⁵³; a larger counter is no state serving reaches, and would
    /// overflow on the next pushes).
    pub fn from_parts(
        entries: Vec<BufferEntry>,
        capacity: Option<usize>,
        total_steps: u64,
    ) -> Result<Self, CoreError> {
        let invalid = |reason: String| CoreError::InvalidInput { reason };
        if capacity == Some(0) {
            return Err(invalid(
                "timeseries buffer: bounded capacity must be at least 1".into(),
            ));
        }
        if let Some(cap) = capacity {
            if entries.len() > cap {
                return Err(invalid(format!(
                    "timeseries buffer: {} entries exceed the capacity bound {cap}",
                    entries.len()
                )));
            }
        }
        if total_steps < entries.len() as u64 {
            return Err(invalid(format!(
                "timeseries buffer: lifetime step counter {total_steps} is smaller than the {} buffered entries",
                entries.len()
            )));
        }
        if total_steps > 1 << 53 {
            return Err(invalid(format!(
                "timeseries buffer: lifetime step counter {total_steps} exceeds 2^53"
            )));
        }
        for (i, e) in entries.iter().enumerate() {
            if !e.uncertainty.is_finite() || !(0.0..=1.0).contains(&e.uncertainty) {
                return Err(invalid(format!(
                    "timeseries buffer: entry {i} carries uncertainty {} outside [0, 1]",
                    e.uncertainty
                )));
            }
        }
        let mut buffer = TimeseriesBuffer {
            // Reserve only what the snapshot holds — a crafted artifact
            // declaring a huge capacity must not drive the allocation.
            entries: Vec::with_capacity(entries.len()),
            head: 0,
            capacity,
            // Seed with the steps that were evicted before the snapshot
            // (the entries are the window *suffix* of the series); the
            // replay below advances the counter back to `total_steps`.
            total_steps: total_steps - entries.len() as u64,
            stats: Vec::new(),
        };
        // Replay through `push` itself so deserialized buffers are built by
        // exactly the code that maintains live ones (the validation above
        // guarantees no clamping fires, and eviction cannot trigger since
        // the entry count fits the bound).
        for e in entries {
            buffer.push(e.outcome, e.uncertainty);
        }
        debug_assert_eq!(buffer.total_steps, total_steps);
        Ok(buffer)
    }

    /// The sliding-window bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether a bounded buffer has reached its capacity (always `false`
    /// for unbounded buffers).
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|cap| self.entries.len() >= cap)
    }

    /// Records one timestep; a full bounded buffer wraps around by
    /// overwriting its oldest entry (O(1) — no shifting).
    ///
    /// The uncertainty is clamped to `[0, 1]`; a NaN uncertainty is mapped
    /// to `1.0` (an unknown estimate is treated as fully uncertain), so the
    /// buffer never stores a non-finite value and every downstream
    /// aggregate stays finite.
    pub fn push(&mut self, outcome: u32, uncertainty: f64) {
        let uncertainty = if uncertainty.is_nan() {
            1.0
        } else {
            uncertainty.clamp(0.0, 1.0)
        };
        let entry = BufferEntry {
            outcome,
            uncertainty,
        };
        match self.capacity {
            Some(cap) if self.entries.len() >= cap => {
                let evicted = self.entries[self.head];
                self.record_evict(evicted);
                self.entries[self.head] = entry;
                self.head = (self.head + 1) % cap;
            }
            _ => self.entries.push(entry),
        }
        self.total_steps += 1;
        self.record_push(entry);
    }

    /// Clears the buffer at the onset of a new timeseries (resets the
    /// lifetime step counter too — a new series restarts `i + 1`).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.total_steps = 0;
        self.stats.clear();
    }

    /// Number of buffered steps (the window occupancy — at most the
    /// capacity for bounded buffers; see [`TimeseriesBuffer::total_steps`]
    /// for the paper's series length `i + 1`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no steps.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime number of pushes since the last clear — the paper's series
    /// length `i + 1`, which a sliding window must not shrink (taQF2).
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// The buffered entries in temporal order as (older, newer) slices;
    /// the first slice starts at the oldest entry, the second is empty
    /// unless a bounded buffer has wrapped.
    pub fn as_slices(&self) -> (&[BufferEntry], &[BufferEntry]) {
        let (newer, older) = self.entries.split_at(self.head);
        (older, newer)
    }

    /// Iterates the buffered entries in temporal order (oldest first).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &BufferEntry> + '_ {
        let (older, newer) = self.as_slices();
        older.iter().chain(newer.iter())
    }

    /// The buffered outcomes `o_0..=o_i` in temporal order.
    pub fn outcomes(&self) -> Vec<u32> {
        self.iter().map(|e| e.outcome).collect()
    }

    /// The buffered uncertainties `u_0..=u_i` in temporal order.
    pub fn uncertainties(&self) -> Vec<f64> {
        self.iter().map(|e| e.uncertainty).collect()
    }

    /// The buffered certainties `c_j = 1 − u_j` in temporal order.
    pub fn certainties(&self) -> Vec<f64> {
        self.iter().map(BufferEntry::certainty).collect()
    }

    /// Number of distinct outcomes in the window (the basis of taQF3) —
    /// O(1) from the running aggregates.
    pub fn unique_outcomes(&self) -> usize {
        self.stats.len()
    }

    /// Occurrences of `outcome` in the window — O(distinct classes), not
    /// O(window).
    pub fn agreement_count(&self, outcome: u32) -> usize {
        self.stat(outcome).map_or(0, |s| s.count)
    }

    /// Exact certainty sum (in 2⁻⁵³ units) of the window entries whose
    /// outcome equals `outcome` — O(distinct classes), not O(window).
    pub fn certainty_units_sum(&self, outcome: u32) -> u128 {
        self.stat(outcome).map_or(0, |s| s.certainty_units)
    }

    /// The majority-vote fused outcome `o_i^(if)` over the window, with the
    /// paper's most-recent tie-breaking — O(distinct classes) from the
    /// running aggregates instead of an O(window) scan. `None` on an empty
    /// buffer.
    ///
    /// Bit-identical to [`TimeseriesBuffer::fused_outcome_reference`]: vote
    /// weights are integer counts and the tie-breaker compares strictly
    /// increasing push indices, so the argmax is unique and agrees with the
    /// reference scan's left-to-right selection.
    pub fn fused_outcome(&self) -> Option<u32> {
        let mut best: Option<&OutcomeStats> = None;
        for s in &self.stats {
            let wins = match best {
                None => true,
                Some(b) => s.count > b.count || (s.count == b.count && s.last_seen > b.last_seen),
            };
            if wins {
                best = Some(s);
            }
        }
        best.map(|s| s.outcome)
    }

    /// Full-recompute reference for [`TimeseriesBuffer::fused_outcome`]:
    /// the O(window) majority-vote scan over the materialized outcome and
    /// certainty vectors — exactly the seed serving path, kept aboard so
    /// the incremental path can be verified against it (mirroring the
    /// flat-vs-pointer tree pattern).
    pub fn fused_outcome_reference(&self) -> Option<u32> {
        MajorityVote.fuse(&self.outcomes(), &self.certainties())
    }

    fn stat(&self, outcome: u32) -> Option<&OutcomeStats> {
        // Distinct outcomes per window are tiny (bounded by the class
        // alphabet), so a linear scan beats hashing — same reasoning as
        // the fusion crate's vote loop.
        self.stats.iter().find(|s| s.outcome == outcome)
    }

    fn record_push(&mut self, entry: BufferEntry) {
        let units = u128::from(entry.certainty_units());
        match self.stats.iter_mut().find(|s| s.outcome == entry.outcome) {
            Some(s) => {
                s.count += 1;
                s.certainty_units += units;
                s.last_seen = self.total_steps;
            }
            None => self.stats.push(OutcomeStats {
                outcome: entry.outcome,
                count: 1,
                certainty_units: units,
                last_seen: self.total_steps,
            }),
        }
    }

    fn record_evict(&mut self, entry: BufferEntry) {
        let units = u128::from(entry.certainty_units());
        let idx = self
            .stats
            .iter()
            .position(|s| s.outcome == entry.outcome)
            .expect("every window entry has an aggregate");
        let s = &mut self.stats[idx];
        s.count -= 1;
        s.certainty_units -= units;
        if s.count == 0 {
            debug_assert_eq!(s.certainty_units, 0, "exact sums drain to zero");
            self.stats.swap_remove(idx);
        }
    }
}

/// Semantic equality: same bound, same lifetime counter, same window
/// contents in temporal order — independent of the ring rotation (two
/// buffers that went through different eviction histories but hold the
/// same state compare equal).
impl PartialEq for TimeseriesBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.total_steps == other.total_steps
            && self.entries.len() == other.entries.len()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

// Serialization uses a canonical temporal-order layout (never the raw ring)
// and funnels deserialization through `from_parts`, so loaded state cannot
// bypass the push invariants. Written against the vendored serde stub's
// `Value` model, like the derives it replaces.

impl Serialize for TimeseriesBuffer {
    fn serialize(&self) -> serde::Value {
        let entries: Vec<BufferEntry> = self.iter().copied().collect();
        serde::Value::Map(vec![
            ("entries".to_string(), entries.serialize()),
            ("capacity".to_string(), self.capacity.serialize()),
            ("total_steps".to_string(), self.total_steps.serialize()),
        ])
    }
}

impl Deserialize for TimeseriesBuffer {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "TimeseriesBuffer")?;
        let entries =
            Vec::<BufferEntry>::deserialize(serde::__field(map, "entries", "TimeseriesBuffer")?)?;
        let capacity =
            Option::<usize>::deserialize(serde::__field(map, "capacity", "TimeseriesBuffer")?)?;
        let total_steps =
            u64::deserialize(serde::__field(map, "total_steps", "TimeseriesBuffer")?)?;
        TimeseriesBuffer::from_parts(entries, capacity, total_steps)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl Extend<BufferEntry> for TimeseriesBuffer {
    fn extend<T: IntoIterator<Item = BufferEntry>>(&mut self, iter: T) {
        for e in iter {
            self.push(e.outcome, e.uncertainty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_accumulates_in_order() {
        let mut b = TimeseriesBuffer::new();
        b.push(1, 0.3);
        b.push(2, 0.2);
        b.push(1, 0.1);
        assert_eq!(b.len(), 3);
        assert_eq!(b.outcomes(), vec![1, 2, 1]);
        assert_eq!(b.uncertainties(), vec![0.3, 0.2, 0.1]);
        assert_eq!(b.total_steps(), 3);
    }

    #[test]
    fn certainties_complement_uncertainties() {
        let mut b = TimeseriesBuffer::new();
        b.push(5, 0.25);
        assert_eq!(b.certainties(), vec![0.75]);
        assert_eq!(b.iter().next().unwrap().certainty(), 0.75);
    }

    #[test]
    fn clear_resets_for_new_series() {
        let mut b = TimeseriesBuffer::new();
        b.push(1, 0.5);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.unique_outcomes(), 0);
        assert_eq!(b.total_steps(), 0, "a new series restarts i + 1");
        assert_eq!(b.fused_outcome(), None);
    }

    #[test]
    fn unique_outcomes_counts_distinct() {
        let mut b = TimeseriesBuffer::new();
        for (o, u) in [(1, 0.1), (1, 0.1), (2, 0.1), (3, 0.1), (2, 0.1)] {
            b.push(o, u);
        }
        assert_eq!(b.unique_outcomes(), 3);
        assert_eq!(b.agreement_count(1), 2);
        assert_eq!(b.agreement_count(2), 2);
        assert_eq!(b.agreement_count(3), 1);
        assert_eq!(b.agreement_count(9), 0);
    }

    #[test]
    fn uncertainties_are_clamped() {
        let mut b = TimeseriesBuffer::new();
        b.push(1, 1.7);
        b.push(2, -0.5);
        assert_eq!(b.uncertainties(), vec![1.0, 0.0]);
    }

    #[test]
    fn nan_uncertainty_is_treated_as_fully_uncertain() {
        let mut b = TimeseriesBuffer::new();
        b.push(1, f64::NAN);
        assert_eq!(b.uncertainties(), vec![1.0]);
        assert_eq!(b.certainty_units_sum(1), 0);
        assert_eq!(b.certainties(), vec![0.0]);
    }

    #[test]
    fn certainty_units_are_exact_for_clamped_uncertainties() {
        // Every representable clamped uncertainty maps to an integer number
        // of 2^-53 units that reconstructs the certainty bit-for-bit.
        let mut u = 0.0f64;
        while u < 1.0 {
            let e = BufferEntry {
                outcome: 0,
                uncertainty: u,
            };
            let back = certainty_units_to_f64(u128::from(e.certainty_units()));
            assert_eq!(back.to_bits(), e.certainty().to_bits(), "u = {u}");
            // Stride through the unit interval including awkward values.
            u += 0.000_037;
        }
        for u in [0.0, 1.0, 0.5, f64::EPSILON, 1.0 - f64::EPSILON, 1e-300] {
            let e = BufferEntry {
                outcome: 0,
                uncertainty: u,
            };
            let back = certainty_units_to_f64(u128::from(e.certainty_units()));
            assert_eq!(back.to_bits(), e.certainty().to_bits(), "u = {u}");
        }
    }

    #[test]
    fn extend_appends_entries() {
        let mut b = TimeseriesBuffer::with_capacity(4);
        b.extend([BufferEntry {
            outcome: 9,
            uncertainty: 0.4,
        }]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.outcomes(), vec![9]);
    }

    #[test]
    fn unbounded_buffers_report_no_capacity() {
        let b = TimeseriesBuffer::with_capacity(4);
        assert_eq!(b.capacity(), None);
        assert!(!b.is_full());
        let mut b = TimeseriesBuffer::new();
        for i in 0..100 {
            b.push(i, 0.1);
        }
        assert_eq!(b.len(), 100, "unbounded buffers never evict");
        assert!(!b.is_full());
        assert_eq!(b.total_steps(), 100);
    }

    #[test]
    fn capacity_one_buffer_keeps_only_the_latest_step() {
        let mut b = TimeseriesBuffer::bounded(1);
        assert_eq!(b.capacity(), Some(1));
        assert!(!b.is_full());
        b.push(1, 0.3);
        assert!(b.is_full());
        assert_eq!(b.outcomes(), vec![1]);
        b.push(2, 0.7);
        assert_eq!(b.len(), 1);
        assert_eq!(b.outcomes(), vec![2]);
        assert_eq!(b.uncertainties(), vec![0.7]);
        assert_eq!(b.unique_outcomes(), 1);
        assert_eq!(b.total_steps(), 2, "eviction must not shrink i + 1");
        assert_eq!(b.fused_outcome(), Some(2));
    }

    #[test]
    fn bounded_buffer_wraps_after_exactly_capacity_pushes() {
        let cap = 5;
        let mut b = TimeseriesBuffer::bounded(cap);
        for i in 0..cap as u32 {
            assert!(!b.is_full(), "not full before push {i}");
            b.push(i, i as f64 / 10.0);
        }
        // After exactly `capacity` pushes: full, nothing evicted yet.
        assert!(b.is_full());
        assert_eq!(b.len(), cap);
        assert_eq!(b.outcomes(), vec![0, 1, 2, 3, 4]);
        // Push `capacity + 1` wraps around: oldest entry leaves, temporal
        // order of the survivors is preserved.
        b.push(99, 0.9);
        assert_eq!(b.len(), cap);
        assert_eq!(b.outcomes(), vec![1, 2, 3, 4, 99]);
        assert_eq!(b.iter().next().unwrap().outcome, 1);
        assert!((b.uncertainties()[4] - 0.9).abs() < 1e-15);
        assert_eq!(b.total_steps(), 6);
    }

    #[test]
    fn ring_slices_cover_the_window_in_temporal_order() {
        let mut b = TimeseriesBuffer::bounded(3);
        for i in 0..5u32 {
            b.push(i, 0.1);
        }
        let (front, tail) = b.as_slices();
        let stitched: Vec<u32> = front.iter().chain(tail).map(|e| e.outcome).collect();
        assert_eq!(stitched, vec![2, 3, 4]);
        assert_eq!(b.iter().count(), 3);
        let reversed: Vec<u32> = b.iter().rev().map(|e| e.outcome).collect();
        assert_eq!(reversed, vec![4, 3, 2]);
    }

    #[test]
    fn taqf_on_a_not_yet_full_bounded_buffer_uses_the_true_length() {
        use crate::taqf::TaqfVector;
        let mut b = TimeseriesBuffer::bounded(10);
        b.push(7, 0.2);
        b.push(3, 0.4);
        b.push(7, 0.0);
        assert!(!b.is_full());
        let taqf = TaqfVector::compute(&b, 7).expect("non-empty buffer");
        // length is the number of buffered steps, not the capacity.
        assert_eq!(taqf.length, 3.0);
        assert!((taqf.ratio - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(taqf.unique_outcomes, 2.0);
        assert!((taqf.cumulative_certainty - 1.8).abs() < 1e-12);
    }

    #[test]
    fn bounded_buffer_clear_resets_but_keeps_the_bound() {
        let mut b = TimeseriesBuffer::bounded(2);
        b.push(1, 0.1);
        b.push(2, 0.2);
        b.push(3, 0.3);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), Some(2));
        assert_eq!(b.total_steps(), 0);
        b.push(4, 0.4);
        b.push(5, 0.5);
        b.push(6, 0.6);
        assert_eq!(b.outcomes(), vec![5, 6]);
        assert_eq!(b.total_steps(), 3);
    }

    #[test]
    fn extend_respects_the_bound() {
        let mut b = TimeseriesBuffer::bounded(2);
        b.extend((0..5).map(|i| BufferEntry {
            outcome: i,
            uncertainty: 0.1,
        }));
        assert_eq!(b.outcomes(), vec![3, 4]);
    }

    #[test]
    fn fused_outcome_matches_the_reference_vote() {
        let mut b = TimeseriesBuffer::new();
        for (o, u) in [(1, 0.1), (2, 0.2), (2, 0.3), (1, 0.4), (3, 0.0)] {
            b.push(o, u);
            assert_eq!(b.fused_outcome(), b.fused_outcome_reference());
        }
        // Tie between 1 and 2 (two each): most recent occurrence wins.
        assert_eq!(b.agreement_count(1), 2);
        assert_eq!(b.agreement_count(2), 2);
        assert_eq!(b.fused_outcome(), Some(1));
    }

    #[test]
    fn fused_outcome_tracks_eviction() {
        let mut b = TimeseriesBuffer::bounded(3);
        b.push(7, 0.1);
        b.push(7, 0.1);
        b.push(3, 0.1);
        assert_eq!(b.fused_outcome(), Some(7));
        b.push(3, 0.1); // evicts a 7: now {7, 3, 3}
        assert_eq!(b.fused_outcome(), Some(3));
        assert_eq!(b.fused_outcome(), b.fused_outcome_reference());
        b.push(5, 0.1); // evicts a 7: now {3, 3, 5}
        assert_eq!(b.fused_outcome(), Some(3));
        assert_eq!(b.unique_outcomes(), 2);
    }

    #[test]
    fn aggregates_drain_exactly_on_eviction() {
        let mut b = TimeseriesBuffer::bounded(2);
        b.push(1, 0.123456);
        b.push(1, 0.654321);
        b.push(2, 0.5); // evicts the first 1
        b.push(2, 0.5); // evicts the second 1
        assert_eq!(b.agreement_count(1), 0);
        assert_eq!(b.certainty_units_sum(1), 0, "exact sums drain to zero");
        assert_eq!(b.unique_outcomes(), 1);
    }

    #[test]
    fn semantic_equality_ignores_ring_rotation() {
        // Same window contents via different histories.
        let mut a = TimeseriesBuffer::bounded(2);
        a.push(9, 0.9); // will be evicted
        a.push(1, 0.1);
        a.push(2, 0.2);
        let mut b = TimeseriesBuffer::bounded(2);
        b.push(8, 0.8); // will be evicted
        b.push(1, 0.1);
        b.push(2, 0.2);
        assert_eq!(a, b);
        let mut c = TimeseriesBuffer::bounded(2);
        c.push(1, 0.1);
        c.push(2, 0.2);
        assert_ne!(a, c, "lifetime counters differ (3 vs 2 steps)");
    }

    #[test]
    fn from_parts_rebuilds_and_validates() {
        let entries = vec![
            BufferEntry {
                outcome: 1,
                uncertainty: 0.25,
            },
            BufferEntry {
                outcome: 2,
                uncertainty: 0.5,
            },
        ];
        let b = TimeseriesBuffer::from_parts(entries.clone(), Some(3), 10).unwrap();
        assert_eq!(b.total_steps(), 10);
        assert_eq!(b.outcomes(), vec![1, 2]);
        assert_eq!(b.fused_outcome(), Some(2));

        let bad_cap = TimeseriesBuffer::from_parts(entries.clone(), Some(0), 10);
        assert!(matches!(bad_cap, Err(CoreError::InvalidInput { .. })));
        let overfull = TimeseriesBuffer::from_parts(entries.clone(), Some(1), 10);
        assert!(matches!(overfull, Err(CoreError::InvalidInput { .. })));
        let short_life = TimeseriesBuffer::from_parts(entries.clone(), None, 1);
        assert!(matches!(short_life, Err(CoreError::InvalidInput { .. })));
        assert!(TimeseriesBuffer::from_parts(entries.clone(), None, 1 << 53).is_ok());
        let endless = TimeseriesBuffer::from_parts(entries.clone(), None, (1 << 53) + 1);
        assert!(matches!(endless, Err(CoreError::InvalidInput { .. })));
        let out_of_range = TimeseriesBuffer::from_parts(
            vec![BufferEntry {
                outcome: 1,
                uncertainty: 7.0,
            }],
            None,
            1,
        );
        assert!(matches!(out_of_range, Err(CoreError::InvalidInput { .. })));
        let non_finite = TimeseriesBuffer::from_parts(
            vec![BufferEntry {
                outcome: 1,
                uncertainty: f64::NAN,
            }],
            None,
            1,
        );
        assert!(matches!(non_finite, Err(CoreError::InvalidInput { .. })));
    }

    #[test]
    fn serde_roundtrip_preserves_semantics_even_mid_wrap() {
        let mut b = TimeseriesBuffer::bounded(3);
        for i in 0..7u32 {
            b.push(i % 2, 0.1 * f64::from(i));
        }
        let back = TimeseriesBuffer::deserialize(&b.serialize()).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.total_steps(), 7);
        assert_eq!(back.fused_outcome(), b.fused_outcome());
        // Future behavior matches too: same pushes, same aggregates.
        let mut a = b.clone();
        let mut c = back;
        for i in 0..5u32 {
            a.push(i, 0.3);
            c.push(i, 0.3);
            assert_eq!(a, c);
            assert_eq!(a.fused_outcome(), c.fused_outcome());
            assert_eq!(
                a.certainty_units_sum(a.fused_outcome().unwrap()),
                c.certainty_units_sum(c.fused_outcome().unwrap())
            );
        }
    }

    #[test]
    fn serde_rejects_invariant_violations() {
        // A crafted payload must not bypass the push invariants.
        let good = TimeseriesBuffer::deserialize(&{
            let mut b = TimeseriesBuffer::bounded(2);
            b.push(1, 0.5);
            b.serialize()
        });
        assert!(good.is_ok());

        let craft = |entries: serde::Value, capacity: serde::Value, total: serde::Value| {
            serde::Value::Map(vec![
                ("entries".to_string(), entries),
                ("capacity".to_string(), capacity),
                ("total_steps".to_string(), total),
            ])
        };
        let entry = |u: serde::Value| {
            serde::Value::Map(vec![
                ("outcome".to_string(), serde::Value::I64(1)),
                ("uncertainty".to_string(), u),
            ])
        };
        // Uncertainty outside [0, 1].
        let bad = craft(
            serde::Value::Seq(vec![entry(serde::Value::F64(7.0))]),
            serde::Value::Null,
            serde::Value::I64(1),
        );
        assert!(TimeseriesBuffer::deserialize(&bad).is_err());
        // Non-finite uncertainty (JSON null → NaN).
        let bad = craft(
            serde::Value::Seq(vec![entry(serde::Value::Null)]),
            serde::Value::Null,
            serde::Value::I64(1),
        );
        assert!(TimeseriesBuffer::deserialize(&bad).is_err());
        // More entries than the declared capacity.
        let bad = craft(
            serde::Value::Seq(vec![
                entry(serde::Value::F64(0.1)),
                entry(serde::Value::F64(0.2)),
            ]),
            serde::Value::I64(1),
            serde::Value::I64(2),
        );
        assert!(TimeseriesBuffer::deserialize(&bad).is_err());
        // Zero capacity.
        let bad = craft(
            serde::Value::Seq(vec![]),
            serde::Value::I64(0),
            serde::Value::I64(0),
        );
        assert!(TimeseriesBuffer::deserialize(&bad).is_err());
        // Lifetime counter smaller than the window.
        let bad = craft(
            serde::Value::Seq(vec![entry(serde::Value::F64(0.1))]),
            serde::Value::Null,
            serde::Value::I64(0),
        );
        assert!(TimeseriesBuffer::deserialize(&bad).is_err());
    }
}
