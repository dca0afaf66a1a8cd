//! Calibration-driven pruning.
//!
//! After training, the paper prunes the quality impact model so that *every*
//! leaf holds at least a minimum number of **calibration** samples (200 in
//! the study): statistical guarantees computed from too few samples would be
//! vacuously wide. A subtree whose leaves cannot all reach the minimum is
//! collapsed into its parent, bottom-up, until the invariant holds.

use crate::error::DtreeError;
use crate::tree::{DecisionTree, NodeId, NodeKind};

/// Outcome of a pruning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneReport {
    /// Leaves before pruning.
    pub n_leaves_before: usize,
    /// Leaves after pruning.
    pub n_leaves_after: usize,
    /// Number of collapse operations performed.
    pub collapsed: usize,
}

/// Prunes `tree` so that every leaf contains at least `min_count` of the
/// calibration samples whose per-node pass-through counts are given in
/// `node_counts` (as produced by
/// [`DecisionTree::node_sample_counts`]).
///
/// The tree is compacted afterwards, so previously held [`NodeId`]s are
/// invalidated.
///
/// # Errors
///
/// Returns [`DtreeError::CalibrationInfeasible`] if even the root holds
/// fewer than `min_count` samples, and
/// [`DtreeError::InvalidHyperParameter`] if `node_counts` does not match
/// the arena size.
///
/// # Examples
///
/// ```
/// use tauw_dtree::{builder::TreeBuilder, data::Dataset, prune::prune_to_min_count};
///
/// let mut ds = Dataset::new(vec!["x".into()], 2)?;
/// for i in 0..100 {
///     ds.push_row(&[i as f64], u32::from(i >= 50))?;
/// }
/// let mut tree = TreeBuilder::new().max_depth(6).fit(&ds)?;
/// // Calibrate with only 10 samples: deep leaves can't hold 5 each, so the
/// // tree must shrink.
/// let calib: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 10.0]).collect();
/// let counts = tree.node_sample_counts(calib.iter().map(|r| r.as_slice()))?;
/// let report = prune_to_min_count(&mut tree, &counts, 5)?;
/// assert!(report.n_leaves_after <= report.n_leaves_before);
/// for leaf in tree.leaf_ids() {
///     // every remaining leaf now has >= 5 calibration samples
/// }
/// # Ok::<(), tauw_dtree::DtreeError>(())
/// ```
pub fn prune_to_min_count(
    tree: &mut DecisionTree,
    node_counts: &[u64],
    min_count: u64,
) -> Result<PruneReport, DtreeError> {
    if node_counts.len() != tree.n_nodes() {
        return Err(DtreeError::InvalidHyperParameter {
            constraint: "node_counts length must equal the number of tree nodes",
        });
    }
    if node_counts[0] < min_count {
        return Err(DtreeError::CalibrationInfeasible {
            reason: "root holds fewer calibration samples than the per-leaf minimum",
        });
    }
    let n_leaves_before = tree.n_leaves();
    let mut collapsed = 0usize;
    ensure_supported(tree, 0, node_counts, min_count, &mut collapsed);
    tree.compact();
    Ok(PruneReport {
        n_leaves_before,
        n_leaves_after: tree.n_leaves(),
        collapsed,
    })
}

/// Returns whether the subtree rooted at `id` can satisfy the minimum after
/// (possibly) collapsing descendants; collapses `id` itself when a child
/// cannot.
fn ensure_supported(
    tree: &mut DecisionTree,
    id: NodeId,
    node_counts: &[u64],
    min_count: u64,
    collapsed: &mut usize,
) -> bool {
    match tree.node(id).kind {
        NodeKind::Leaf => node_counts[id] >= min_count,
        NodeKind::Internal { left, right, .. } => {
            let left_ok = ensure_supported(tree, left, node_counts, min_count, collapsed);
            let right_ok = ensure_supported(tree, right, node_counts, min_count, collapsed);
            if left_ok && right_ok {
                true
            } else {
                tree.collapse_to_leaf(id);
                *collapsed += 1;
                node_counts[id] >= min_count
            }
        }
    }
}

/// Minimal cost-complexity pruning (classic CART, Breiman et al. ch. 3):
/// repeatedly collapses the internal node with the weakest link — the
/// smallest per-leaf training-impurity increase
/// `alpha(t) = (R(t) − R(T_t)) / (|leaves(T_t)| − 1)` — until every
/// remaining internal node's weakest-link value exceeds `alpha`.
///
/// This is the standard alternative to the paper's calibration-driven
/// pruning; the two compose (cost-complexity first, calibration second).
///
/// The tree is compacted afterwards, invalidating previous [`NodeId`]s.
pub fn prune_cost_complexity(tree: &mut DecisionTree, alpha: f64) -> PruneReport {
    let n_leaves_before = tree.n_leaves();
    let mut collapsed = 0usize;
    let total = tree.node(0).info.n as f64;
    loop {
        // Find the internal node with the smallest weakest-link alpha.
        let mut weakest: Option<(NodeId, f64)> = None;
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            if let NodeKind::Internal { left, right, .. } = tree.node(id).kind {
                stack.push(left);
                stack.push(right);
                let node_risk = tree.node(id).info.impurity * tree.node(id).info.n as f64 / total;
                let (subtree_risk, subtree_leaves) = subtree_risk(tree, id, total);
                if subtree_leaves < 2 {
                    continue;
                }
                let link = (node_risk - subtree_risk) / (subtree_leaves as f64 - 1.0);
                if weakest.is_none_or(|(_, best)| link < best) {
                    weakest = Some((id, link));
                }
            }
        }
        match weakest {
            Some((id, link)) if link <= alpha => {
                tree.collapse_to_leaf(id);
                collapsed += 1;
            }
            _ => break,
        }
    }
    tree.compact();
    PruneReport {
        n_leaves_before,
        n_leaves_after: tree.n_leaves(),
        collapsed,
    }
}

/// Training risk (count-weighted impurity) and leaf count of the subtree
/// rooted at `id`.
fn subtree_risk(tree: &DecisionTree, id: NodeId, total: f64) -> (f64, usize) {
    match tree.node(id).kind {
        NodeKind::Leaf => (
            tree.node(id).info.impurity * tree.node(id).info.n as f64 / total,
            1,
        ),
        NodeKind::Internal { left, right, .. } => {
            let (rl, nl) = subtree_risk(tree, left, total);
            let (rr, nr) = subtree_risk(tree, right, total);
            (rl + rr, nl + nr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::data::Dataset;

    fn staircase_dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..n {
            // Alternating blocks make the tree split repeatedly.
            let label = u32::from((i / 8) % 2 == 0);
            ds.push_row(&[i as f64], label).unwrap();
        }
        ds
    }

    fn rows(values: &[f64]) -> Vec<Vec<f64>> {
        values.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn every_leaf_meets_minimum_after_prune() {
        let ds = staircase_dataset(128);
        let mut tree = TreeBuilder::new().max_depth(10).fit(&ds).unwrap();
        assert!(tree.n_leaves() > 4);
        // Calibration set: 64 evenly spread points.
        let calib = rows(&(0..64).map(|i| i as f64 * 2.0).collect::<Vec<_>>());
        let counts = tree
            .node_sample_counts(calib.iter().map(|r| r.as_slice()))
            .unwrap();
        let report = prune_to_min_count(&mut tree, &counts, 10).unwrap();
        assert!(report.n_leaves_after < report.n_leaves_before);
        // Recount on the pruned tree: every leaf ≥ 10.
        let counts = tree
            .node_sample_counts(calib.iter().map(|r| r.as_slice()))
            .unwrap();
        for leaf in tree.leaf_ids() {
            assert!(
                counts[leaf] >= 10,
                "leaf {leaf} has only {} samples",
                counts[leaf]
            );
        }
    }

    #[test]
    fn prune_is_noop_when_all_leaves_are_rich() {
        let ds = staircase_dataset(64);
        let mut tree = TreeBuilder::new().max_depth(2).fit(&ds).unwrap();
        let calib = rows(&(0..640).map(|i| i as f64 / 10.0).collect::<Vec<_>>());
        let counts = tree
            .node_sample_counts(calib.iter().map(|r| r.as_slice()))
            .unwrap();
        let before = tree.n_leaves();
        let report = prune_to_min_count(&mut tree, &counts, 5).unwrap();
        assert_eq!(report.collapsed, 0);
        assert_eq!(report.n_leaves_after, before);
    }

    #[test]
    fn prune_collapses_to_root_when_data_is_scarce() {
        let ds = staircase_dataset(128);
        let mut tree = TreeBuilder::new().max_depth(10).fit(&ds).unwrap();
        let calib = rows(&[1.0, 50.0, 100.0, 120.0, 3.0, 77.0]);
        let counts = tree
            .node_sample_counts(calib.iter().map(|r| r.as_slice()))
            .unwrap();
        let report = prune_to_min_count(&mut tree, &counts, 6).unwrap();
        assert_eq!(
            report.n_leaves_after, 1,
            "6 samples with min 6 forces a single leaf"
        );
        assert_eq!(tree.n_nodes(), 1, "compact must drop unreachable nodes");
    }

    #[test]
    fn infeasible_minimum_is_an_error() {
        let ds = staircase_dataset(64);
        let mut tree = TreeBuilder::new().max_depth(4).fit(&ds).unwrap();
        let calib = rows(&[1.0, 2.0]);
        let counts = tree
            .node_sample_counts(calib.iter().map(|r| r.as_slice()))
            .unwrap();
        assert!(matches!(
            prune_to_min_count(&mut tree, &counts, 3),
            Err(DtreeError::CalibrationInfeasible { .. })
        ));
    }

    #[test]
    fn wrong_counts_length_is_an_error() {
        let ds = staircase_dataset(64);
        let mut tree = TreeBuilder::new().max_depth(4).fit(&ds).unwrap();
        assert!(matches!(
            prune_to_min_count(&mut tree, &[1, 2, 3], 1),
            Err(DtreeError::InvalidHyperParameter { .. })
        ));
    }

    #[test]
    fn cost_complexity_zero_alpha_keeps_useful_splits() {
        let ds = staircase_dataset(128);
        let mut tree = TreeBuilder::new().max_depth(8).fit(&ds).unwrap();
        let before = tree.n_leaves();
        let report = prune_cost_complexity(&mut tree, 0.0);
        // alpha = 0 only removes splits with zero impurity decrease.
        assert_eq!(report.n_leaves_after, tree.n_leaves());
        assert!(tree.n_leaves() <= before);
        assert!(
            tree.n_leaves() > 1,
            "informative splits must survive alpha 0"
        );
    }

    #[test]
    fn cost_complexity_large_alpha_collapses_to_root() {
        let ds = staircase_dataset(128);
        let mut tree = TreeBuilder::new().max_depth(8).fit(&ds).unwrap();
        let report = prune_cost_complexity(&mut tree, 1.0);
        assert_eq!(report.n_leaves_after, 1);
        assert_eq!(tree.n_nodes(), 1);
        assert!(report.collapsed > 0);
    }

    #[test]
    fn cost_complexity_is_monotone_in_alpha() {
        let ds = staircase_dataset(256);
        let base = TreeBuilder::new().max_depth(10).fit(&ds).unwrap();
        let mut prev_leaves = usize::MAX;
        for alpha in [0.0, 0.001, 0.01, 0.05, 0.5] {
            let mut tree = base.clone();
            prune_cost_complexity(&mut tree, alpha);
            assert!(
                tree.n_leaves() <= prev_leaves,
                "larger alpha must not grow the tree (alpha {alpha})"
            );
            prev_leaves = tree.n_leaves();
        }
    }

    #[test]
    fn cost_complexity_preserves_accuracy_at_small_alpha() {
        // Greedily separable nested thresholds (a balanced staircase would
        // defeat greedy CART before pruning is even involved).
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..256 {
            let x = i as f64 / 256.0;
            let label = u32::from(x > 0.75 || (x > 0.25 && x <= 0.5));
            ds.push_row(&[x], label).unwrap();
        }
        let mut tree = TreeBuilder::new().max_depth(10).fit(&ds).unwrap();
        let accuracy = |tree: &crate::tree::DecisionTree| {
            (0..ds.n_samples())
                .filter(|&i| tree.predict(ds.row(i)).unwrap() == ds.label(i))
                .count()
        };
        assert_eq!(
            accuracy(&tree),
            256,
            "tree must separate the data before pruning"
        );
        prune_cost_complexity(&mut tree, 1e-4);
        assert_eq!(
            accuracy(&tree),
            256,
            "tiny alpha must not collapse informative splits"
        );
        // But a large alpha trades accuracy for size.
        prune_cost_complexity(&mut tree, 0.2);
        assert!(tree.n_leaves() < 4);
        assert!(accuracy(&tree) < 256);
    }

    #[test]
    fn pruned_tree_still_predicts() {
        let ds = staircase_dataset(128);
        let mut tree = TreeBuilder::new().max_depth(10).fit(&ds).unwrap();
        let calib = rows(&(0..32).map(|i| i as f64 * 4.0).collect::<Vec<_>>());
        let counts = tree
            .node_sample_counts(calib.iter().map(|r| r.as_slice()))
            .unwrap();
        prune_to_min_count(&mut tree, &counts, 8).unwrap();
        // Prediction still routes and returns a valid class.
        for x in [0.0, 31.0, 64.0, 127.0] {
            let c = tree.predict(&[x]).unwrap();
            assert!(c < 2);
        }
    }
}
