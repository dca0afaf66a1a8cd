//! Flattened struct-of-arrays inference representation.
//!
//! A trained [`DecisionTree`] is a pointer-style arena: every routing step
//! loads a whole [`crate::tree::Node`] (statistics included) just to read a
//! feature index and a threshold. This module lowers a tree into a
//! [`FlatTree`]: contiguous per-node arrays (feature index, threshold,
//! child offsets) plus a dense table of leaf payloads, so the per-sample
//! hot path touches only the three small arrays it actually needs.
//!
//! Two properties make the flat form the serving representation:
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
//!   boundary rule and NaN queries routing right. [`FlatTree::predict`]
//!   and [`FlatTree::predict_proba`] recompute the leaf payload with the
//!   same arithmetic as the pointer tree, so every flat prediction is
//!   bit-for-bit equal to its pointer counterpart (asserted by the
//!   determinism suite and by proptests over random trees).

use crate::error::DtreeError;
use crate::tree::{DecisionTree, NodeId, NodeKind};

/// Dense, stable identifier of a reachable leaf: its position in the
/// depth-first (left-before-right) leaf order, i.e. `flat.leaf(k).node_id
/// == tree.leaf_ids()[k]`.
pub type LeafId = u32;

/// Sentinel in the `feature` array marking a leaf node.
const LEAF_SENTINEL: u32 = u32::MAX;

/// Payload of one reachable leaf, retained for transparency and for
/// recomputing class predictions exactly as the pointer tree does.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatLeaf {
    /// Arena id of this leaf in the source [`DecisionTree`].
    pub node_id: NodeId,
    /// Number of training samples that reached this leaf.
    pub n: u64,
    /// Per-class training sample counts at this leaf.
    pub counts: Vec<u64>,
    /// Majority class (ties broken by the lowest class id, matching
    /// [`DecisionTree::predict`]).
    pub class: u32,
}

impl FlatLeaf {
    /// Class probabilities at this leaf — training-count proportions,
    /// computed exactly like [`DecisionTree::predict_proba`].
    pub fn proba(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.counts.len());
        self.proba_into(&mut out);
        out
    }

    /// Appends the class probabilities to `out` (one entry per class), the
    /// allocation-free form of [`FlatLeaf::proba`] for callers that reuse a
    /// buffer across lookups. Same arithmetic, bit-identical values.
    pub fn proba_into(&self, out: &mut Vec<f64>) {
        let total = self.n.max(1) as f64;
        out.extend(self.counts.iter().map(|&c| c as f64 / total));
    }
}

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
/// // Same routing, same prediction, leaf identity exposed as a dense id.
/// let leaf = flat.predict_leaf_id(&[10.0])?;
/// assert_eq!(flat.leaf(leaf).node_id, tree.leaf_id(&[10.0])?);
/// assert_eq!(flat.predict(&[10.0])?, tree.predict(&[10.0])?);
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
    /// Leaf payloads indexed by [`LeafId`].
    leaves: Vec<FlatLeaf>,
    n_features: usize,
    n_classes: u32,
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
            leaves: Vec::new(),
            n_features: tree.n_features(),
            n_classes: tree.n_classes(),
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
                    let info = &tree.node(id).info;
                    let leaf_id = flat.leaves.len() as u32;
                    // Majority class with ties to the lowest id — the exact
                    // argmax loop of `DecisionTree::predict`.
                    let mut class = 0u32;
                    let mut best_count = 0u64;
                    for (c, &count) in info.counts.iter().enumerate() {
                        if count > best_count {
                            class = c as u32;
                            best_count = count;
                        }
                    }
                    flat.leaves.push(FlatLeaf {
                        node_id: id,
                        n: info.n,
                        counts: info.counts.clone(),
                        class,
                    });
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
        self.leaves.len()
    }

    /// Payload of a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn leaf(&self, id: LeafId) -> &FlatLeaf {
        &self.leaves[id as usize]
    }

    /// All leaf payloads, indexed by [`LeafId`].
    pub fn leaves(&self) -> &[FlatLeaf] {
        &self.leaves
    }

    /// Routes a feature vector to its leaf: one comparison and one indexed
    /// load per level. This is the single traversal routine behind every
    /// flat prediction (and, via `tauw-core`, behind every wrapper/session/
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

    /// Majority-class prediction at the leaf reached by `x` — bit-identical
    /// to [`DecisionTree::predict`].
    ///
    /// # Errors
    ///
    /// Same as [`FlatTree::predict_leaf_id`].
    pub fn predict(&self, x: &[f64]) -> Result<u32, DtreeError> {
        Ok(self.leaf(self.predict_leaf_id(x)?).class)
    }

    /// Class probabilities at the leaf reached by `x` — bit-identical to
    /// [`DecisionTree::predict_proba`].
    ///
    /// # Errors
    ///
    /// Same as [`FlatTree::predict_leaf_id`].
    pub fn predict_proba(&self, x: &[f64]) -> Result<Vec<f64>, DtreeError> {
        let mut out = Vec::with_capacity(self.n_classes as usize);
        self.predict_proba_into(x, &mut out)?;
        Ok(out)
    }

    /// Appends the class probabilities at the leaf reached by `x` to `out`
    /// — the allocation-free form of [`FlatTree::predict_proba`], same
    /// values bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same as [`FlatTree::predict_leaf_id`]; `out` is untouched on error.
    pub fn predict_proba_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), DtreeError> {
        self.leaf(self.predict_leaf_id(x)?).proba_into(out);
        Ok(())
    }

    /// Batched leaf routing: appends one [`LeafId`] per row to `out`, in
    /// input order, fanning contiguous row chunks out over up to `threads`
    /// workers (the deterministic chunking of
    /// [`parallel::par_zip_chunks_mut`], so the result is identical for
    /// every thread budget). Each chunk routes its rows one at a time
    /// through [`FlatTree::predict_leaf_id`], writing leaf ids straight
    /// into `out` — no intermediate buffer. Serving routes per sample
    /// instead.
    ///
    /// On error `out` is untouched (observably: the appended region is
    /// rolled back before returning), and the reported error is the first
    /// offending row in input order.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::PredictArityMismatch`] if any row has the
    /// wrong number of features.
    pub fn predict_leaf_ids_into<R>(
        &self,
        threads: usize,
        rows: &[R],
        out: &mut Vec<LeafId>,
    ) -> Result<(), DtreeError>
    where
        R: AsRef<[f64]> + Sync,
    {
        let start = out.len();
        out.resize(start + rows.len(), 0);
        let chunk_results =
            parallel::par_zip_chunks_mut(threads, rows, &mut out[start..], |chunk, slots| {
                for (row, slot) in chunk.iter().zip(slots) {
                    *slot = self.predict_leaf_id(row.as_ref())?;
                }
                Ok(())
            });
        // Chunks are contiguous and reported in order, and each chunk
        // routes its rows left-to-right, so the first chunk error is the
        // globally first offending row — matching the per-sample contract.
        if let Some(err) = chunk_results.into_iter().find_map(Result::err) {
            out.truncate(start);
            return Err(err);
        }
        Ok(())
    }

    /// Allocating convenience around [`FlatTree::predict_leaf_ids_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::PredictArityMismatch`] if any row has the
    /// wrong number of features.
    pub fn predict_leaf_ids<R>(&self, threads: usize, rows: &[R]) -> Result<Vec<LeafId>, DtreeError>
    where
        R: AsRef<[f64]> + Sync,
    {
        let mut out = Vec::with_capacity(rows.len());
        self.predict_leaf_ids_into(threads, rows, &mut out)?;
        Ok(out)
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
        let node_ids: Vec<NodeId> = flat.leaves().iter().map(|l| l.node_id).collect();
        assert_eq!(node_ids, tree.leaf_ids(), "leaf order matches the DFS");
        assert_eq!(flat.leaf(0).node_id, 1);
        assert_eq!(flat.leaf(1).node_id, 3);
        assert_eq!(flat.leaf(2).node_id, 4);
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
            assert_eq!(flat.leaf(lid).node_id, tree.leaf_id(&q).unwrap(), "{q:?}");
            assert_eq!(flat.predict(&q).unwrap(), tree.predict(&q).unwrap());
            let fp = flat.predict_proba(&q).unwrap();
            let tp = tree.predict_proba(&q).unwrap();
            assert_eq!(fp.len(), tp.len());
            for (a, b) in fp.iter().zip(&tp) {
                assert_eq!(a.to_bits(), b.to_bits(), "{q:?}");
            }
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
        assert_eq!(flat.predict(&[-5.0]).unwrap(), 1);
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
        assert_eq!(flat.leaf(1).node_id, 2);
        assert_eq!(
            flat.leaf(flat.predict_leaf_id(&[2.0, 6.0]).unwrap())
                .node_id,
            tree.leaf_id(&[2.0, 6.0]).unwrap()
        );
    }

    #[test]
    fn batched_routing_is_order_preserving_for_every_thread_budget() {
        let tree = toy_tree();
        let flat = FlatTree::from_tree(&tree);
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i % 5) as f64, (i % 11) as f64])
            .collect();
        let serial = flat.predict_leaf_ids(1, &rows).unwrap();
        assert_eq!(serial.len(), rows.len());
        for (row, &lid) in rows.iter().zip(&serial) {
            assert_eq!(flat.leaf(lid).node_id, tree.leaf_id(row).unwrap());
        }
        for threads in [2usize, 4, 8] {
            assert_eq!(flat.predict_leaf_ids(threads, &rows).unwrap(), serial);
        }
        // `_into` appends without clobbering.
        let mut out = vec![99u32];
        flat.predict_leaf_ids_into(4, &rows, &mut out).unwrap();
        assert_eq!(out[0], 99);
        assert_eq!(&out[1..], serial.as_slice());
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
        let rows = vec![vec![1.0, 2.0], vec![1.0]];
        let mut out = Vec::new();
        assert!(flat.predict_leaf_ids_into(4, &rows, &mut out).is_err());
        assert!(out.is_empty(), "failed batch must not write partial output");
        // Pre-existing content survives a failed batch too.
        let mut out = vec![42u32];
        assert!(flat.predict_leaf_ids_into(4, &rows, &mut out).is_err());
        assert_eq!(out, vec![42], "error must roll back to the prior content");
    }

    #[test]
    fn batched_errors_report_the_first_offending_row() {
        let flat = FlatTree::from_tree(&toy_tree());
        // Bad rows in chunks 2 and 0 (at threads=4 the 8-row batch splits
        // into chunks of 2): the reported arity must come from the earliest
        // bad row in *input* order, not whichever chunk finishes first.
        let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 0.0]).collect();
        rows[5] = vec![1.0, 2.0, 3.0];
        rows[1] = vec![1.0];
        for threads in [1usize, 2, 4, 8] {
            let mut out = Vec::new();
            match flat.predict_leaf_ids_into(threads, &rows, &mut out) {
                Err(DtreeError::PredictArityMismatch { actual, .. }) => {
                    assert_eq!(actual, 1, "threads={threads}: first bad row is row 1");
                }
                other => panic!("expected arity error, got {other:?}"),
            }
        }
    }

    #[test]
    fn batched_routing_matches_per_sample_routing_with_nan() {
        let tree = toy_tree();
        let flat = FlatTree::from_tree(&tree);
        let rows: Vec<Vec<f64>> = (0..97)
            .map(|i| {
                let a = if i % 13 == 0 {
                    f64::NAN
                } else {
                    (i % 5) as f64
                };
                let b = if i % 17 == 0 {
                    f64::NAN
                } else {
                    (i % 11) as f64
                };
                vec![a, b]
            })
            .collect();
        for threads in [1usize, 4] {
            let routed = flat.predict_leaf_ids(threads, &rows).unwrap();
            for (row, &lid) in rows.iter().zip(&routed) {
                assert_eq!(lid, flat.predict_leaf_id(row).unwrap());
            }
        }
    }

    #[test]
    fn batched_routing_handles_single_leaf_and_ragged_batches() {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        ds.push_row(&[1.0], 1).unwrap();
        let flat = FlatTree::from_tree(&TreeBuilder::new().fit(&ds).unwrap());
        assert_eq!(flat.n_leaves(), 1);
        // Batch sizes 0, 1, and many against the degenerate root-leaf tree.
        let empty: Vec<Vec<f64>> = Vec::new();
        assert_eq!(flat.predict_leaf_ids(4, &empty).unwrap(), Vec::<u32>::new());
        assert_eq!(flat.predict_leaf_ids(4, &[vec![5.0]]).unwrap(), vec![0]);
        let rows: Vec<Vec<f64>> = (0..33).map(|i| vec![i as f64]).collect();
        assert_eq!(flat.predict_leaf_ids(4, &rows).unwrap(), vec![0; 33]);
    }

    #[test]
    fn predict_proba_into_appends_without_allocating_results() {
        let flat = FlatTree::from_tree(&toy_tree());
        let mut out = vec![0.5f64];
        flat.predict_proba_into(&[0.0, 0.0], &mut out).unwrap();
        let direct = flat.predict_proba(&[0.0, 0.0]).unwrap();
        assert_eq!(out[0], 0.5, "append semantics keep prior content");
        assert_eq!(&out[1..], direct.as_slice());
        // Error leaves the buffer untouched.
        let before = out.clone();
        assert!(flat.predict_proba_into(&[0.0], &mut out).is_err());
        assert_eq!(out, before);
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
                assert_eq!(flat.leaf(lid).node_id, tree.leaf_id(&q).unwrap());
                assert_eq!(flat.predict(&q).unwrap(), tree.predict(&q).unwrap());
            }
        }
    }
}
