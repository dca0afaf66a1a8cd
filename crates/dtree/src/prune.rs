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
