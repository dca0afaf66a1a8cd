//! Gini impurity, the split-quality criterion of CART training.
//!
//! The paper's quality impact models are trained with the **gini index as an
//! approximation for entropy** (Section IV-C.2), so gini is the only
//! criterion the learner evaluates.

/// Gini impurity `1 − Σ p_c²` of a node given per-class counts.
///
/// Returns 0 for an empty node.
///
/// # Examples
///
/// ```
/// use tauw_dtree::criterion::gini_impurity;
///
/// // A 50/50 binary node has maximal gini impurity 0.5.
/// let g = gini_impurity(&[10, 10]);
/// assert!((g - 0.5).abs() < 1e-12);
/// ```
pub fn gini_impurity(counts: &[u64]) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let sum_sq: f64 = counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum();
    1.0 - sum_sq
}

/// Weighted gini impurity of a candidate split: `(n_l·i_l + n_r·i_r) / n`.
pub fn gini_split_impurity(left: &[u64], right: &[u64]) -> f64 {
    let nl: u64 = left.iter().sum();
    let nr: u64 = right.iter().sum();
    let n = nl + nr;
    if n == 0 {
        return 0.0;
    }
    (nl as f64 * gini_impurity(left) + nr as f64 * gini_impurity(right)) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_nodes_have_zero_impurity() {
        assert_eq!(gini_impurity(&[10, 0]), 0.0);
        assert_eq!(gini_impurity(&[0, 7]), 0.0);
        assert_eq!(gini_impurity(&[0, 0, 42]), 0.0);
    }

    #[test]
    fn empty_node_is_zero() {
        assert_eq!(gini_impurity(&[0, 0]), 0.0);
        assert_eq!(gini_impurity(&[]), 0.0);
    }

    #[test]
    fn gini_maximum_for_uniform() {
        // Binary uniform: 0.5; 4-class uniform: 0.75.
        assert!((gini_impurity(&[5, 5]) - 0.5).abs() < 1e-12);
        assert!((gini_impurity(&[3, 3, 3, 3]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn impurity_is_scale_invariant() {
        let a = gini_impurity(&[3, 7]);
        let b = gini_impurity(&[30, 70]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn perfect_split_has_zero_weighted_impurity() {
        assert_eq!(gini_split_impurity(&[10, 0], &[0, 10]), 0.0);
    }

    #[test]
    fn useless_split_preserves_impurity() {
        let parent = gini_impurity(&[10, 10]);
        let split = gini_split_impurity(&[5, 5], &[5, 5]);
        assert!((parent - split).abs() < 1e-12);
    }

    #[test]
    fn split_impurity_weighted_correctly() {
        // Left: pure (4 samples), right: 50/50 (16 samples).
        let v = gini_split_impurity(&[4, 0], &[8, 8]);
        assert!((v - 16.0 / 20.0 * 0.5).abs() < 1e-12);
    }
}
