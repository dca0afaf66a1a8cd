//! Information fusion over successive classification outcomes.
//!
//! The paper fuses the DDM outcomes of a timeseries with **majority
//! voting**, resolving ties in favour of the *most recent* outcome
//! (Section IV-C.3). Variants used by the `if_ablation` experiment are
//! provided alongside.

/// A strategy for fusing the outcomes `o_0..=o_i` observed so far into one
/// fused outcome `o_i^(if)`.
///
/// `certainties[j]` is the certainty `1 − u_j` attached to outcome `j` by
/// the per-step uncertainty estimator; strategies that do not use
/// certainties ignore the slice (it must still be of equal length).
pub trait InformationFusion<T: PartialEq + Copy> {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Fuses the outcomes; returns `None` for empty input or mismatched
    /// slice lengths.
    fn fuse(&self, outcomes: &[T], certainties: &[f64]) -> Option<T>;
}

/// Majority voting with most-recent tie-breaking (the paper's approach:
/// "the mode of the number of momentaneous predictions per class is chosen
/// ... to resolve ties, the most recent momentaneous prediction is chosen").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MajorityVote;

impl<T: PartialEq + Copy> InformationFusion<T> for MajorityVote {
    fn name(&self) -> &'static str {
        "majority-vote"
    }

    fn fuse(&self, outcomes: &[T], certainties: &[f64]) -> Option<T> {
        if outcomes.is_empty() || outcomes.len() != certainties.len() {
            return None;
        }
        Some(vote(outcomes, |_| 1.0))
    }
}

/// Certainty-weighted voting: each outcome votes with weight `1 − u_j`,
/// ties again broken by recency. Reduces to majority voting when all
/// certainties are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CertaintyWeightedVote;

impl<T: PartialEq + Copy> InformationFusion<T> for CertaintyWeightedVote {
    fn name(&self) -> &'static str {
        "certainty-weighted-vote"
    }

    fn fuse(&self, outcomes: &[T], certainties: &[f64]) -> Option<T> {
        if outcomes.is_empty() || outcomes.len() != certainties.len() {
            return None;
        }
        Some(vote(outcomes, |j| certainties[j].max(0.0)))
    }
}

/// No fusion: always the latest outcome (the "isolated prediction"
/// baseline of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatestOnly;

impl<T: PartialEq + Copy> InformationFusion<T> for LatestOnly {
    fn name(&self) -> &'static str {
        "latest-only"
    }

    fn fuse(&self, outcomes: &[T], certainties: &[f64]) -> Option<T> {
        if outcomes.is_empty() || outcomes.len() != certainties.len() {
            return None;
        }
        outcomes.last().copied()
    }
}

/// Majority voting restricted to the most recent `window` outcomes: a
/// bounded-memory variant for very long series where stale evidence (e.g.
/// from before a lighting change) should age out. With `window >= series
/// length` it reduces to [`MajorityVote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedMajorityVote {
    /// Number of most recent outcomes considered (must be ≥ 1).
    pub window: usize,
}

impl WindowedMajorityVote {
    /// Creates a windowed vote over the last `window` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        WindowedMajorityVote { window }
    }
}

impl<T: PartialEq + Copy> InformationFusion<T> for WindowedMajorityVote {
    fn name(&self) -> &'static str {
        "windowed-majority-vote"
    }

    fn fuse(&self, outcomes: &[T], certainties: &[f64]) -> Option<T> {
        if outcomes.is_empty() || outcomes.len() != certainties.len() {
            return None;
        }
        let start = outcomes.len().saturating_sub(self.window);
        Some(vote(&outcomes[start..], |_| 1.0))
    }
}

/// Weighted vote over the distinct values in `outcomes`; ties go to the
/// value whose *latest* occurrence is most recent.
fn vote<T: PartialEq + Copy>(outcomes: &[T], weight: impl Fn(usize) -> f64) -> T {
    // Distinct values with accumulated weight and last-seen index. The
    // number of distinct outcomes per series is tiny (≤ a handful), so a
    // linear scan beats hashing and needs no Hash/Ord bounds.
    let mut entries: Vec<(T, f64, usize)> = Vec::new();
    for (j, &o) in outcomes.iter().enumerate() {
        match entries.iter_mut().find(|(v, _, _)| *v == o) {
            Some(entry) => {
                entry.1 += weight(j);
                entry.2 = j;
            }
            None => entries.push((o, weight(j), j)),
        }
    }
    let mut best = entries[0];
    for &e in &entries[1..] {
        let wins = e.1 > best.1 + 1e-12 || ((e.1 - best.1).abs() <= 1e-12 && e.2 > best.2);
        if wins {
            best = e;
        }
    }
    best.0
}

/// Convenience free function: majority vote with most-recent tie-breaking
/// over plain outcomes.
///
/// # Examples
///
/// ```
/// use tauw_fusion::info::majority_vote;
///
/// assert_eq!(majority_vote(&[1, 2, 2, 1, 2]), Some(2));
/// // 1 and 2 are tied; the most recent of the tied classes wins.
/// assert_eq!(majority_vote(&[1, 2, 2, 1]), Some(1));
/// assert_eq!(majority_vote::<u32>(&[]), None);
/// ```
pub fn majority_vote<T: PartialEq + Copy>(outcomes: &[T]) -> Option<T> {
    if outcomes.is_empty() {
        return None;
    }
    Some(vote(outcomes, |_| 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn majority_picks_the_mode() {
        let m = MajorityVote;
        assert_eq!(m.fuse(&[3u32, 3, 5, 3, 5], &ones(5)), Some(3));
        assert_eq!(m.fuse(&[7u32], &ones(1)), Some(7));
    }

    #[test]
    fn majority_tie_breaks_to_most_recent() {
        let m = MajorityVote;
        // 1 appears at indices {0, 3}, 2 at {1, 2}: tie, latest occurrence
        // of 1 (index 3) is more recent than of 2 (index 2).
        assert_eq!(m.fuse(&[1u32, 2, 2, 1], &ones(4)), Some(1));
        // Symmetric case.
        assert_eq!(m.fuse(&[2u32, 1, 1, 2], &ones(4)), Some(2));
        // Three-way tie: the class seen last wins.
        assert_eq!(m.fuse(&[1u32, 2, 3], &ones(3)), Some(3));
    }

    #[test]
    fn majority_rejects_empty_and_mismatched() {
        let m = MajorityVote;
        assert_eq!(m.fuse(&[] as &[u32], &[]), None);
        assert_eq!(m.fuse(&[1u32, 2], &ones(3)), None);
    }

    #[test]
    fn weighted_vote_respects_certainties() {
        let w = CertaintyWeightedVote;
        // Two votes for class 1 at low certainty lose to one confident vote
        // for class 2.
        assert_eq!(w.fuse(&[1u32, 1, 2], &[0.3, 0.3, 0.9]), Some(2));
        // With equal certainties it degenerates to majority voting.
        assert_eq!(w.fuse(&[1u32, 1, 2], &[0.5, 0.5, 0.5]), Some(1));
    }

    #[test]
    fn weighted_vote_tie_breaks_to_most_recent() {
        let w = CertaintyWeightedVote;
        assert_eq!(w.fuse(&[1u32, 2], &[0.5, 0.5]), Some(2));
    }

    #[test]
    fn latest_only_is_the_isolated_baseline() {
        let l = LatestOnly;
        assert_eq!(l.fuse(&[4u32, 5, 6], &ones(3)), Some(6));
        assert_eq!(l.fuse(&[] as &[u32], &[]), None);
    }

    #[test]
    fn free_function_matches_trait_object() {
        let outcomes = [9u32, 9, 1, 1, 1, 9];
        let m: &dyn InformationFusion<u32> = &MajorityVote;
        assert_eq!(majority_vote(&outcomes), m.fuse(&outcomes, &ones(6)));
    }

    #[test]
    fn fusion_is_prefix_stable() {
        // Fusing a growing prefix never panics and always returns a member
        // of the prefix.
        let outcomes = [1u32, 2, 2, 3, 2, 1, 1, 1];
        for i in 1..=outcomes.len() {
            let fused = majority_vote(&outcomes[..i]).unwrap();
            assert!(outcomes[..i].contains(&fused));
        }
    }

    #[test]
    fn works_with_non_integer_outcome_types() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Sign {
            Stop,
            Yield,
        }
        assert_eq!(
            majority_vote(&[Sign::Stop, Sign::Yield, Sign::Stop]),
            Some(Sign::Stop)
        );
    }

    #[test]
    fn windowed_vote_forgets_old_evidence() {
        let w = WindowedMajorityVote::new(3);
        // Full history favours 1 (4 vs 3); the last 3 outcomes favour 2.
        let outcomes = [1u32, 1, 1, 1, 2, 2, 2];
        assert_eq!(w.fuse(&outcomes, &ones(7)), Some(2));
        assert_eq!(majority_vote(&outcomes), Some(1));
    }

    #[test]
    fn windowed_vote_with_large_window_is_plain_majority() {
        let w = WindowedMajorityVote::new(100);
        let outcomes = [3u32, 3, 5, 3, 5];
        assert_eq!(w.fuse(&outcomes, &ones(5)), majority_vote(&outcomes));
    }

    #[test]
    fn windowed_vote_handles_short_series() {
        let w = WindowedMajorityVote::new(5);
        assert_eq!(w.fuse(&[7u32], &ones(1)), Some(7));
        assert_eq!(w.fuse(&[] as &[u32], &[]), None);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_panics() {
        let _ = WindowedMajorityVote::new(0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            InformationFusion::<u32>::name(&MajorityVote),
            "majority-vote"
        );
        assert_eq!(InformationFusion::<u32>::name(&LatestOnly), "latest-only");
        assert_eq!(
            InformationFusion::<u32>::name(&CertaintyWeightedVote),
            "certainty-weighted-vote"
        );
    }
}
