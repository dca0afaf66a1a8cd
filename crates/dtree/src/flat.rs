//! Flattened struct-of-arrays routing representation.
//!
//! A trained [`DecisionTree`] is a pointer-style arena: every routing step
//! loads a whole [`crate::tree::Node`] (statistics included) just to read a
//! feature index and a threshold. This module lowers a tree into a
//! [`FlatTree`]: contiguous per-node arrays (feature index, threshold,
//! child offsets) plus a `LeafId → NodeId` table, so the per-sample hot
//! path touches only the three small arrays it actually needs.
//!
//! A flat tree is a router, nothing more: it answers "which leaf?", and
//! everything attached to a leaf (class counts, calibrated bounds) stays
//! with the pointer tree or in the caller's own leaf-indexed tables. Two
//! properties make it the serving representation:
//!
//! * **Stable leaf IDs.** Reachable leaves are numbered `0..n_leaves` in
//!   depth-first (left-before-right) order — the same order
//!   [`DecisionTree::leaf_ids`] reports. A [`LeafId`] is therefore a dense
//!   array index, which lets callers attach per-leaf metadata (calibrated
//!   uncertainty bounds, routing counters) as plain `Vec`s instead of
//!   node-indexed option tables. Leaf identity — not just the leaf's
//!   probability — is the semantic unit of a tree-backed uncertainty
//!   estimate, so it gets a first-class, cheap representation.
//! * **Bit-identical routing.** [`FlatTree::predict_leaf_id`] reproduces
//!   [`DecisionTree::leaf_id`] exactly, including the `<=`-goes-left
//!   boundary rule and NaN queries routing right, and
//!   [`FlatTree::leaf_node`] maps the leaf back to its arena node
//!   (asserted by the determinism suite and by proptests over random
//!   trees). Class predictions stay on the pointer tree
//!   ([`DecisionTree::predict`]).

use crate::error::DtreeError;
use crate::tree::{DecisionTree, NodeId, NodeKind};

/// Dense, stable identifier of a reachable leaf: its position in the
/// depth-first (left-before-right) leaf order, i.e.
/// `flat.leaf_node(k) == tree.leaf_ids()[k]`.
pub type LeafId = u32;

/// Sentinel in the `feature` array marking a leaf node.
const LEAF_SENTINEL: u32 = u32::MAX;

/// A compiled, struct-of-arrays lowering of a trained [`DecisionTree`].
///
/// Nodes are renumbered in depth-first pre-order (left before right),
/// dropping any arena entries unreachable from the root, and split into
/// parallel arrays: `feature[i]` (or a leaf sentinel), `threshold[i]`, and
/// a 2-wide `children` table indexed by the branch direction. Routing is a
/// tight loop of one comparison and one indexed load per level.
///
/// # Examples
///
/// ```
/// use tauw_dtree::flat::FlatTree;
/// use tauw_dtree::{Dataset, TreeBuilder};
///
/// let mut ds = Dataset::new(vec!["x".into()], 2)?;
/// for i in 0..100 {
///     ds.push_row(&[i as f64], u32::from(i >= 50))?;
/// }
/// let tree = TreeBuilder::new().max_depth(3).fit(&ds)?;
/// let flat = FlatTree::from_tree(&tree);
///
/// // Same routing, leaf identity exposed as a dense id.
/// let leaf = flat.predict_leaf_id(&[10.0])?;
/// assert_eq!(flat.leaf_node(leaf), tree.leaf_id(&[10.0])?);
/// assert_eq!(flat.n_leaves(), tree.n_leaves());
/// # Ok::<(), tauw_dtree::DtreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    /// Per-node split feature; `LEAF_SENTINEL` marks a leaf.
    feature: Vec<u32>,
    /// Per-node split threshold (`<=` goes left); unused for leaves.
    threshold: Vec<f64>,
    /// Per-node `[left, right]` child offsets, indexed by the branch
    /// direction bit. For a leaf, both entries hold the [`LeafId`] instead.
    children: Vec<[u32; 2]>,
    /// Arena id in the source [`DecisionTree`] of each leaf, indexed by
    /// [`LeafId`].
    leaf_nodes: Vec<NodeId>,
    n_features: usize,
}

impl FlatTree {
    /// Lowers a trained tree into the flat form. Only nodes reachable from
    /// the root are emitted; leaf ids follow the depth-first order of
    /// [`DecisionTree::leaf_ids`].
    pub fn from_tree(tree: &DecisionTree) -> Self {
        let mut flat = FlatTree {
            feature: Vec::with_capacity(tree.n_nodes()),
            threshold: Vec::with_capacity(tree.n_nodes()),
            children: Vec::with_capacity(tree.n_nodes()),
            leaf_nodes: Vec::new(),
            n_features: tree.n_features(),
        };
        // Pre-order, left before right — the same order
        // [`DecisionTree::compact`] uses, so flat offsets are stable and
        // readable. An explicit stack of (node, parent slot, side) keeps
        // arbitrarily deep trees off the call stack.
        let mut stack: Vec<(NodeId, Option<(usize, usize)>)> = vec![(0, None)];
        while let Some((id, parent)) = stack.pop() {
            let slot = flat.feature.len();
            if let Some((parent, side)) = parent {
                flat.children[parent][side] = slot as u32;
            }
            flat.feature.push(LEAF_SENTINEL);
            flat.threshold.push(0.0);
            flat.children.push([0, 0]);
            match tree.node(id).kind {
                NodeKind::Leaf => {
                    let leaf_id = flat.leaf_nodes.len() as u32;
                    flat.leaf_nodes.push(id);
                    flat.children[slot] = [leaf_id, leaf_id];
                }
                NodeKind::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    flat.feature[slot] = feature as u32;
                    flat.threshold[slot] = threshold;
                    stack.push((right, Some((slot, 1))));
                    stack.push((left, Some((slot, 0))));
                }
            }
        }
        flat
    }

    /// Number of features the source tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of nodes in the flat form (reachable nodes only).
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Number of leaves, i.e. the exclusive upper bound of the dense
    /// [`LeafId`] range.
    pub fn n_leaves(&self) -> usize {
        self.leaf_nodes.len()
    }

    /// Arena id of a leaf in the source [`DecisionTree`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn leaf_node(&self, id: LeafId) -> NodeId {
        self.leaf_nodes[id as usize]
    }

    /// The arena id of every leaf, indexed by [`LeafId`] — the tree's
    /// [`DecisionTree::leaf_ids`] in the same order.
    pub fn leaf_nodes(&self) -> &[NodeId] {
        &self.leaf_nodes
    }

    /// Routes a feature vector to its leaf: one comparison and one indexed
    /// load per level. This is the single traversal routine behind every
    /// flat lookup (and, via `tauw-core`, behind every wrapper/session/
    /// engine step).
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::PredictArityMismatch`] if `x` has the wrong
    /// number of features.
    #[inline]
    pub fn predict_leaf_id(&self, x: &[f64]) -> Result<LeafId, DtreeError> {
        self.check_arity(x.len())?;
        Ok(self.route(x))
    }

    /// The branch-light traversal core. `x` must have the right arity.
    ///
    /// The direction bit mirrors the pointer tree exactly: `x[f] <= t`
    /// goes left, everything else — including NaN — goes right. Private:
    /// every caller goes through [`FlatTree::predict_leaf_id`], which
    /// checks arity first.
    ///
    /// The three node arrays have one length by construction; slicing
    /// `threshold` and `children` to it up front lets the per-level bound
    /// checks on them fold into the one on `feature`.
    #[inline(always)]
    fn route(&self, x: &[f64]) -> LeafId {
        let features = &self.feature[..];
        let thresholds = &self.threshold[..features.len()];
        let children = &self.children[..features.len()];
        let mut node = 0usize;
        let mut feature = features[0];
        while feature != LEAF_SENTINEL {
            let go_left = x[feature as usize] <= thresholds[node];
            node = children[node][usize::from(!go_left)] as usize;
            feature = features[node];
        }
        children[node][0]
    }

    #[inline]
    fn check_arity(&self, actual: usize) -> Result<(), DtreeError> {
        if actual != self.n_features {
            return Err(DtreeError::PredictArityMismatch {
                expected: self.n_features,
                actual,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::data::Dataset;
    use crate::tree::{Node, NodeInfo};

    /// The same hand-made tree as the `tree` module tests:
    ///
    /// ```text
    ///        [0] f0 <= 1.0
    ///        /          \
    ///   [1] leaf     [2] f1 <= 5.0
    ///                 /        \
    ///            [3] leaf   [4] leaf
    /// ```
    fn toy_tree() -> DecisionTree {
        let mk_info = |n: u64, counts: Vec<u64>, depth: usize| NodeInfo {
            n,
            counts,
            impurity: 0.5,
            depth,
        };
        let nodes = vec![
            Node {
                info: mk_info(10, vec![5, 5], 0),
                kind: NodeKind::Internal {
                    feature: 0,
                    threshold: 1.0,
                    left: 1,
                    right: 2,
                },
            },
            Node {
                info: mk_info(4, vec![4, 0], 1),
                kind: NodeKind::Leaf,
            },
            Node {
                info: mk_info(6, vec![1, 5], 1),
                kind: NodeKind::Internal {
                    feature: 1,
                    threshold: 5.0,
                    left: 3,
                    right: 4,
                },
            },
            Node {
                info: mk_info(3, vec![1, 2], 2),
                kind: NodeKind::Leaf,
            },
            Node {
                info: mk_info(3, vec![0, 3], 2),
                kind: NodeKind::Leaf,
            },
        ];
        DecisionTree::from_parts(nodes, 2, 2, vec!["f0".into(), "f1".into()]).unwrap()
    }

    #[test]
    fn leaf_ids_are_dense_and_depth_first() {
        let tree = toy_tree();
        let flat = FlatTree::from_tree(&tree);
        assert_eq!(flat.n_nodes(), 5);
        assert_eq!(flat.n_leaves(), 3);
        assert_eq!(
            flat.leaf_nodes(),
            tree.leaf_ids(),
            "leaf order matches the DFS"
        );
        assert_eq!(flat.leaf_node(0), 1);
        assert_eq!(flat.leaf_node(1), 3);
        assert_eq!(flat.leaf_node(2), 4);
    }

    #[test]
    fn routing_matches_the_pointer_tree_including_boundaries() {
        let tree = toy_tree();
        let flat = FlatTree::from_tree(&tree);
        for q in [
            [0.5, 0.0],
            [1.0, 0.0], // <= goes left at the boundary
            [2.0, 4.0],
            [2.0, 5.0],
            [2.0, 6.0],
            [f64::NAN, 6.0], // NaN routes right, like the pointer tree
            [2.0, f64::NAN],
        ] {
            let lid = flat.predict_leaf_id(&q).unwrap();
            assert_eq!(flat.leaf_node(lid), tree.leaf_id(&q).unwrap(), "{q:?}");
        }
    }

    #[test]
    fn degenerate_single_leaf_tree_flattens() {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        ds.push_row(&[1.0], 1).unwrap();
        let tree = TreeBuilder::new().fit(&ds).unwrap();
        let flat = FlatTree::from_tree(&tree);
        assert_eq!(flat.n_nodes(), 1);
        assert_eq!(flat.n_leaves(), 1);
        assert_eq!(flat.predict_leaf_id(&[123.0]).unwrap(), 0);
        assert_eq!(flat.leaf_node(0), 0);
    }

    #[test]
    fn a_100k_deep_chain_lowers_on_a_2_mib_stack() {
        // Level d splits `x <= d` into a leaf (left) and level d + 1.
        let depth = 100_000;
        let leaf = |class: usize| Node {
            info: NodeInfo {
                n: 1,
                counts: if class == 0 { vec![1, 0] } else { vec![0, 1] },
                impurity: 0.0,
                depth: 0,
            },
            kind: NodeKind::Leaf,
        };
        let mut nodes = Vec::with_capacity(2 * depth + 1);
        for d in 0..depth {
            nodes.push(Node {
                info: NodeInfo {
                    n: 2,
                    counts: vec![1, 1],
                    impurity: 0.5,
                    depth: d,
                },
                kind: NodeKind::Internal {
                    feature: 0,
                    threshold: d as f64,
                    left: 2 * d + 1,
                    right: 2 * d + 2,
                },
            });
            nodes.push(leaf(d % 2));
        }
        nodes.push(leaf(1));
        let tree = DecisionTree::from_parts(nodes, 1, 2, vec!["x".into()]).unwrap();
        let flat = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || FlatTree::from_tree(&tree))
            .unwrap()
            .join()
            .expect("lowering a deep chain must not overflow the stack");
        assert_eq!(flat.n_nodes(), 2 * depth + 1);
        assert_eq!(flat.n_leaves(), depth + 1);
        assert_eq!(flat.predict_leaf_id(&[0.0]).unwrap(), 0);
        assert_eq!(flat.predict_leaf_id(&[2.5]).unwrap(), 3);
        assert_eq!(flat.predict_leaf_id(&[1e9]).unwrap(), depth as LeafId);
    }

    #[test]
    fn unreachable_arena_nodes_are_dropped() {
        let mut tree = toy_tree();
        tree.collapse_to_leaf(2); // nodes 3 and 4 become unreachable
        let flat = FlatTree::from_tree(&tree);
        assert_eq!(flat.n_nodes(), 3, "only reachable nodes are lowered");
        assert_eq!(flat.n_leaves(), 2);
        assert_eq!(flat.leaf_node(1), 2);
        assert_eq!(
            flat.leaf_node(flat.predict_leaf_id(&[2.0, 6.0]).unwrap()),
            tree.leaf_id(&[2.0, 6.0]).unwrap()
        );
    }

    #[test]
    fn arity_mismatch_is_rejected_before_any_work() {
        let flat = FlatTree::from_tree(&toy_tree());
        assert!(matches!(
            flat.predict_leaf_id(&[1.0]),
            Err(DtreeError::PredictArityMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn trained_tree_agrees_everywhere_on_a_grid() {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], 3).unwrap();
        for i in 0..300 {
            let a = (i % 17) as f64 / 17.0;
            let b = (i % 13) as f64 / 13.0;
            ds.push_row(&[a, b], (i % 3) as u32).unwrap();
        }
        let tree = TreeBuilder::new().max_depth(6).fit(&ds).unwrap();
        let flat = FlatTree::from_tree(&tree);
        for i in 0..40 {
            for j in 0..40 {
                let q = [i as f64 / 39.0, j as f64 / 39.0];
                let lid = flat.predict_leaf_id(&q).unwrap();
                assert_eq!(flat.leaf_node(lid), tree.leaf_id(&q).unwrap());
            }
        }
    }
}
