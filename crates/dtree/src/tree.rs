//! The decision-tree structure: an arena of nodes with class-count
//! statistics, prediction, traversal, and structural editing (collapse /
//! compact) used by calibration-driven pruning.

use crate::error::DtreeError;
use serde::{Deserialize, Serialize};

/// Index of a node within the tree arena.
pub type NodeId = usize;

/// Per-node statistics retained for transparency, pruning and calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Number of training samples that reached this node.
    pub n: u64,
    /// Per-class training sample counts at this node.
    pub counts: Vec<u64>,
    /// Training gini impurity of this node (weighted sample counts).
    pub impurity: f64,
    /// Depth of the node (root = 0).
    pub depth: usize,
}

/// Structural role of a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Internal decision node: goes left when `x[feature] <= threshold`.
    Internal {
        /// Feature column tested by this node.
        feature: usize,
        /// Split threshold; `<=` goes left.
        threshold: f64,
        /// Left child id.
        left: NodeId,
        /// Right child id.
        right: NodeId,
    },
    /// Terminal node.
    Leaf,
}

/// A single tree node: statistics plus structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Statistics for this node.
    pub info: NodeInfo,
    /// Internal/leaf role.
    pub kind: NodeKind,
}

/// A trained CART decision tree.
///
/// Trees are built by [`crate::builder::TreeBuilder`]; this type owns the
/// node arena and provides prediction and structural editing. The root is
/// always node `0`.
///
/// Deserialization funnels through [`DecisionTree::from_parts`], so a
/// crafted payload cannot smuggle in a node graph that is not a tree.
/// Persist trees after [`DecisionTree::compact`]: an arena that still
/// holds nodes unreachable from the root does not load.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: u32,
    feature_names: Vec<String>,
}

impl Deserialize for DecisionTree {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "DecisionTree")?;
        let field = |name| serde::__field(map, name, "DecisionTree");
        DecisionTree::from_parts(
            Vec::<Node>::deserialize(field("nodes")?)?,
            usize::deserialize(field("n_features")?)?,
            u32::deserialize(field("n_classes")?)?,
            Vec::<String>::deserialize(field("feature_names")?)?,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl DecisionTree {
    /// Assembles a tree from raw parts. Intended for the builder and for
    /// deserialization paths; validates the structural invariants every
    /// traversal relies on.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError`] if the arena is empty, there is not one
    /// feature name per feature, a child index or feature is out of
    /// bounds, a threshold is not finite, or the nodes do not form one tree
    /// rooted at node `0` (the root has a parent, or another node has no
    /// parent or several — which also rules out cycles).
    pub fn from_parts(
        nodes: Vec<Node>,
        n_features: usize,
        n_classes: u32,
        feature_names: Vec<String>,
    ) -> Result<Self, DtreeError> {
        let invalid = |constraint| Err(DtreeError::InvalidHyperParameter { constraint });
        if nodes.is_empty() {
            return Err(DtreeError::EmptyDataset);
        }
        if feature_names.len() != n_features {
            return invalid("one feature name per feature");
        }
        for node in &nodes {
            if let NodeKind::Internal {
                left,
                right,
                feature,
                threshold,
            } = node.kind
            {
                if left >= nodes.len() || right >= nodes.len() || feature >= n_features {
                    return invalid("node references out of bounds");
                }
                if !threshold.is_finite() {
                    return invalid("split thresholds must be finite");
                }
            }
        }
        // A walk from the root meets every node exactly once iff the arena
        // is one tree: a node met twice has two parents (or closes a
        // cycle), and a node never met has none.
        let mut seen = vec![false; nodes.len()];
        let mut stack = vec![0];
        let mut n_seen = 0;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id], true) {
                return invalid("every node but the root must have exactly one parent");
            }
            n_seen += 1;
            if let NodeKind::Internal { left, right, .. } = nodes[id].kind {
                stack.push(right);
                stack.push(left);
            }
        }
        if n_seen != nodes.len() {
            return invalid("every node must be reachable from the root");
        }
        Ok(DecisionTree {
            nodes,
            n_features,
            n_classes,
            feature_names,
        })
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Feature names in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Total number of nodes in the arena (including any unreachable nodes
    /// prior to [`DecisionTree::compact`]).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Ids of all reachable leaves, in depth-first order.
    pub fn leaf_ids(&self) -> Vec<NodeId> {
        let mut leaves = Vec::new();
        let mut stack = vec![0];
        while let Some(id) = stack.pop() {
            match self.nodes[id].kind {
                NodeKind::Leaf => leaves.push(id),
                NodeKind::Internal { left, right, .. } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        leaves
    }

    /// Number of reachable leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaf_ids().len()
    }

    /// Maximum depth over reachable nodes (root = 0, so a stump has depth 1).
    pub fn depth(&self) -> usize {
        let mut max_depth = 0;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((id, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            if let NodeKind::Internal { left, right, .. } = self.nodes[id].kind {
                stack.push((left, d + 1));
                stack.push((right, d + 1));
            }
        }
        max_depth
    }

    /// Routes a feature vector to its leaf and returns the leaf id.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::PredictArityMismatch`] if `x` has the wrong
    /// number of features.
    pub fn leaf_id(&self, x: &[f64]) -> Result<NodeId, DtreeError> {
        if x.len() != self.n_features {
            return Err(DtreeError::PredictArityMismatch {
                expected: self.n_features,
                actual: x.len(),
            });
        }
        let mut id = 0;
        loop {
            match self.nodes[id].kind {
                NodeKind::Leaf => return Ok(id),
                NodeKind::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if x[feature] <= threshold { left } else { right };
                }
            }
        }
    }

    /// The decision path from root to leaf for a feature vector.
    ///
    /// # Errors
    ///
    /// Same as [`DecisionTree::leaf_id`].
    pub fn decision_path(&self, x: &[f64]) -> Result<Vec<NodeId>, DtreeError> {
        if x.len() != self.n_features {
            return Err(DtreeError::PredictArityMismatch {
                expected: self.n_features,
                actual: x.len(),
            });
        }
        let mut path = vec![0];
        let mut id = 0;
        while let NodeKind::Internal {
            feature,
            threshold,
            left,
            right,
        } = self.nodes[id].kind
        {
            id = if x[feature] <= threshold { left } else { right };
            path.push(id);
        }
        Ok(path)
    }

    /// Class probabilities at the leaf reached by `x` (training-count
    /// proportions).
    ///
    /// # Errors
    ///
    /// Same as [`DecisionTree::leaf_id`].
    pub fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>, DtreeError> {
        let leaf = self.leaf_id(x)?;
        let info = &self.nodes[leaf].info;
        let total = info.n.max(1) as f64;
        Ok(info.counts.iter().map(|&c| c as f64 / total).collect())
    }

    /// Majority-class prediction at the leaf reached by `x` (ties broken by
    /// the lowest class id, matching scikit-learn).
    ///
    /// # Errors
    ///
    /// Same as [`DecisionTree::leaf_id`].
    pub fn predict(&self, x: &[f64]) -> Result<u32, DtreeError> {
        let leaf = self.leaf_id(x)?;
        let counts = &self.nodes[leaf].info.counts;
        let mut best = 0u32;
        let mut best_count = 0u64;
        for (c, &count) in counts.iter().enumerate() {
            if count > best_count {
                best = c as u32;
                best_count = count;
            }
        }
        Ok(best)
    }

    /// Counts how many of the given rows pass through each node; the result
    /// is indexed by [`NodeId`]. Used by calibration-driven pruning.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::PredictArityMismatch`] if any row has the wrong
    /// arity.
    pub fn node_sample_counts<'a, I>(&self, rows: I) -> Result<Vec<u64>, DtreeError>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut counts = vec![0u64; self.nodes.len()];
        for row in rows {
            for id in self.decision_path(row)? {
                counts[id] += 1;
            }
        }
        Ok(counts)
    }

    /// Turns the node `id` into a leaf. Its descendants become unreachable
    /// (call [`DecisionTree::compact`] to drop them from the arena).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn collapse_to_leaf(&mut self, id: NodeId) {
        self.nodes[id].kind = NodeKind::Leaf;
    }

    /// Rebuilds the arena keeping only nodes reachable from the root,
    /// renumbering ids in depth-first order. Returns the mapping from old
    /// ids to new ids (`None` for dropped nodes).
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let mut mapping = vec![None; self.nodes.len()];
        let mut new_nodes = Vec::new();
        // Depth-first, left before right, so ids are stable and readable.
        fn visit(
            nodes: &[Node],
            id: NodeId,
            mapping: &mut [Option<NodeId>],
            out: &mut Vec<Node>,
        ) -> NodeId {
            let new_id = out.len();
            mapping[id] = Some(new_id);
            out.push(nodes[id].clone());
            if let NodeKind::Internal {
                feature,
                threshold,
                left,
                right,
            } = nodes[id].kind
            {
                let new_left = visit(nodes, left, mapping, out);
                let new_right = visit(nodes, right, mapping, out);
                out[new_id].kind = NodeKind::Internal {
                    feature,
                    threshold,
                    left: new_left,
                    right: new_right,
                };
            }
            new_id
        }
        visit(&self.nodes, 0, &mut mapping, &mut new_nodes);
        self.nodes = new_nodes;
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a small hand-made tree:
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
    fn routing_follows_thresholds() {
        let t = toy_tree();
        assert_eq!(t.leaf_id(&[0.5, 0.0]).unwrap(), 1);
        assert_eq!(
            t.leaf_id(&[1.0, 0.0]).unwrap(),
            1,
            "<= goes left at the boundary"
        );
        assert_eq!(t.leaf_id(&[2.0, 4.0]).unwrap(), 3);
        assert_eq!(t.leaf_id(&[2.0, 6.0]).unwrap(), 4);
    }

    #[test]
    fn decision_path_is_root_to_leaf() {
        let t = toy_tree();
        assert_eq!(t.decision_path(&[2.0, 6.0]).unwrap(), vec![0, 2, 4]);
        assert_eq!(t.decision_path(&[0.0, 0.0]).unwrap(), vec![0, 1]);
    }

    #[test]
    fn predict_and_proba() {
        let t = toy_tree();
        assert_eq!(t.predict(&[0.0, 0.0]).unwrap(), 0);
        assert_eq!(t.predict(&[2.0, 6.0]).unwrap(), 1);
        let p = t.predict_proba(&[2.0, 4.0]).unwrap();
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn structure_queries() {
        let t = toy_tree();
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.leaf_ids(), vec![1, 3, 4]);
        assert_eq!(t.n_nodes(), 5);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let t = toy_tree();
        assert!(matches!(
            t.leaf_id(&[1.0]),
            Err(DtreeError::PredictArityMismatch {
                expected: 2,
                actual: 1
            })
        ));
        assert!(t.predict(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn node_sample_counts_accumulate_along_paths() {
        let t = toy_tree();
        let rows: Vec<Vec<f64>> = vec![vec![0.0, 0.0], vec![2.0, 4.0], vec![2.0, 6.0]];
        let counts = t
            .node_sample_counts(rows.iter().map(|r| r.as_slice()))
            .unwrap();
        assert_eq!(counts, vec![3, 1, 2, 1, 1]);
    }

    #[test]
    fn collapse_and_compact() {
        let mut t = toy_tree();
        t.collapse_to_leaf(2);
        assert_eq!(t.n_leaves(), 2);
        let mapping = t.compact();
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(mapping[0], Some(0));
        assert_eq!(mapping[3], None, "dropped nodes map to None");
        // Tree still routes correctly after renumbering.
        assert_eq!(t.predict(&[2.0, 6.0]).unwrap(), 1);
        assert_eq!(t.predict(&[0.0, 0.0]).unwrap(), 0);
    }

    #[test]
    fn from_parts_validates_structure() {
        let bad = vec![Node {
            info: NodeInfo {
                n: 1,
                counts: vec![1, 0],
                impurity: 0.0,
                depth: 0,
            },
            kind: NodeKind::Internal {
                feature: 0,
                threshold: 0.0,
                left: 5,
                right: 6,
            },
        }];
        assert!(DecisionTree::from_parts(bad, 1, 2, vec!["f0".into()]).is_err());
        assert!(DecisionTree::from_parts(vec![], 1, 2, vec!["f0".into()]).is_err());
        // The arity a loaded tree serves at is the one its names give.
        let names = |n: usize| (0..n).map(|i| format!("f{i}")).collect();
        assert!(DecisionTree::from_parts(toy_tree().nodes, 2, 2, names(2)).is_ok());
        for (n_features, n_names) in [(2, 1), (2, 3), (1 << 32, 2)] {
            assert!(matches!(
                DecisionTree::from_parts(toy_tree().nodes, n_features, 2, names(n_names)),
                Err(DtreeError::InvalidHyperParameter { .. })
            ));
        }
    }

    #[test]
    fn from_parts_and_deserialization_reject_graphs_that_are_not_one_tree() {
        let parts = |tree: &DecisionTree| tree.nodes.clone();
        let rebuild = |nodes: Vec<Node>| {
            DecisionTree::from_parts(nodes, 2, 2, vec!["f0".into(), "f1".into()])
        };
        let set_children = |nodes: &mut Vec<Node>, id: NodeId, l: NodeId, r: NodeId| {
            if let NodeKind::Internal { left, right, .. } = &mut nodes[id].kind {
                (*left, *right) = (l, r);
            }
        };
        let tree = toy_tree();
        let mut defects: Vec<(&str, Vec<Node>)> = Vec::new();
        // Node 2 splits into 3 and 4; point its left child back at the
        // root (a cycle through a root with a parent) or at itself.
        let mut back_edge = parts(&tree);
        set_children(&mut back_edge, 2, 0, 4);
        defects.push(("back-edge to the root", back_edge));
        let mut self_loop = parts(&tree);
        set_children(&mut self_loop, 2, 2, 4);
        defects.push(("self loop", self_loop));
        let mut shared = parts(&tree);
        set_children(&mut shared, 2, 3, 3);
        defects.push(("shared child", shared));
        let mut orphan = parts(&tree);
        orphan.push(orphan[4].clone());
        defects.push(("orphan", orphan));
        let mut infinite = parts(&tree);
        if let NodeKind::Internal { threshold, .. } = &mut infinite[0].kind {
            *threshold = f64::INFINITY;
        }
        defects.push(("infinite threshold", infinite));
        for (defect, nodes) in defects {
            assert!(rebuild(nodes.clone()).is_err(), "{defect}");
            let mut tampered = tree.clone();
            tampered.nodes = nodes;
            let json = serde_json::to_string(&tampered).unwrap();
            assert!(
                serde_json::from_str::<DecisionTree>(&json).is_err(),
                "{defect} must not deserialize"
            );
        }
        let json = serde_json::to_string(&tree).unwrap();
        assert_eq!(serde_json::from_str::<DecisionTree>(&json).unwrap(), tree);
    }

    #[test]
    fn tie_breaks_to_lowest_class() {
        let nodes = vec![Node {
            info: NodeInfo {
                n: 4,
                counts: vec![2, 2],
                impurity: 0.5,
                depth: 0,
            },
            kind: NodeKind::Leaf,
        }];
        let t = DecisionTree::from_parts(nodes, 1, 2, vec!["f0".into()]).unwrap();
        assert_eq!(t.predict(&[0.0]).unwrap(), 0);
    }
}
