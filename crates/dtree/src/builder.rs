//! CART tree construction: gini impurity, exact split search, and two
//! stopping controls (`max_depth`, `min_samples_leaf`).
//!
//! The paper trains its quality impact models with the gini index "up to a
//! maximum depth of 8 without pruning during this phase" (Section IV-C.2) —
//! pruning happens later against the calibration set (see
//! [`crate::prune`]). A node stays a leaf when it is pure, at the depth
//! limit, or when no split leaves `min_samples_leaf` samples on each side
//! with a positive gain.
//!
//! # Presorted construction
//!
//! A fit sorts each feature's row indices once (SLIQ-style presorting) and
//! never sorts again. Memory is one `u32` row order per feature (`4 ·
//! n_rows · n_features` bytes, feature-major), one side flag per row, one
//! packed weight-and-label word per row, and one partition buffer per
//! partition lane (`4 · n_rows` bytes each), plus a `16 · n_rows`-byte
//! sort buffer while the presort runs; values are read from the dataset's
//! feature columns in place, with no sorted-value copy. A node owns the
//! same sub-range of every feature's order, its **segments**; each segment
//! lists the node's rows in that feature's value order. The split search
//! scans the segments ([`crate::splitter`]). Each row's side
//! (`x[feature] <= threshold`) is then flagged, and every segment is stably
//! partitioned by the flags into left rows then right rows, staging the
//! right rows in the lane's partition buffer. Both halves keep their order,
//! so they are the children's segments as they stand.
//!
//! Rows may carry integer weights (a row of weight `w` stands for `w`
//! identical samples; [`crate::forest`] passes bootstrap draw counts).
//! Node counts, `min_samples_leaf` and the split search all count weighted
//! samples, so a weighted fit equals the fit on the materialized
//! duplicates. Together with the tie argument in [`crate::splitter`], the
//! tree is `==` to the one a per-node sort of the samples builds: same
//! [`NodeInfo`]s, splits, thresholds and node ids.
//!
//! Construction runs on a thread budget ([`TreeBuilder::threads`]): the
//! split search and the partition fan out across features on the worker
//! pool, and large sibling subtrees build concurrently on disjoint segment
//! halves and disjoint halves of the partition buffer.
//! Parallel builds are **bit-identical** to serial ones — concurrently
//! built subtrees are spliced back into the exact pre-order node layout
//! the serial recursion would have produced, and every floating-point
//! reduction keeps its serial order.

use crate::criterion::gini_impurity;
use crate::data::Dataset;
use crate::error::DtreeError;
use crate::splitter::{best_split, pack_weights, row_orders, PARALLEL_SPLIT_MIN_WORK};
use crate::tree::{DecisionTree, Node, NodeInfo, NodeKind};
use std::sync::atomic::{AtomicBool, Ordering};

/// Sibling subtrees build concurrently only when **both** children hold at
/// least this many samples; below it, handing a subtree to a pool worker
/// costs more than building it on the current lane.
const PARALLEL_FIT_MIN_SAMPLES: usize = 1024;

/// Non-consuming builder for [`DecisionTree`]s.
///
/// # Examples
///
/// ```
/// use tauw_dtree::{builder::TreeBuilder, data::Dataset};
///
/// let mut ds = Dataset::new(vec!["x".into()], 2)?;
/// for i in 0..10 {
///     ds.push_row(&[i as f64], u32::from(i >= 5))?;
/// }
/// let tree = TreeBuilder::new().max_depth(8).fit(&ds)?;
/// assert_eq!(tree.predict(&[0.0])?, 0);
/// assert_eq!(tree.predict(&[9.0])?, 1);
/// # Ok::<(), tauw_dtree::DtreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBuilder {
    max_depth: Option<usize>,
    min_samples_leaf: usize,
    n_threads: Option<usize>,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        TreeBuilder {
            max_depth: None,
            min_samples_leaf: 1,
            n_threads: None,
        }
    }
}

impl TreeBuilder {
    /// Creates a builder with CART defaults (unlimited depth, one sample
    /// per leaf, the process-wide thread budget).
    pub fn new() -> Self {
        Self::default()
    }

    /// Limits tree depth (root = depth 0). The paper uses 8.
    pub fn max_depth(&mut self, depth: usize) -> &mut Self {
        self.max_depth = Some(depth);
        self
    }

    /// Minimum samples that must land in each child (default 1).
    pub fn min_samples_leaf(&mut self, n: usize) -> &mut Self {
        self.min_samples_leaf = n.max(1);
        self
    }

    /// Pins the thread budget for [`TreeBuilder::fit`] (clamped to ≥ 1).
    /// Unpinned builders use [`parallel::max_threads`]. The trained tree is
    /// bit-identical for every budget; only wall time changes.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.n_threads = Some(n.max(1));
        self
    }

    /// Trains a tree on the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::EmptyDataset`] if `data` has no samples and
    /// [`DtreeError::InvalidHyperParameter`] if it has more than
    /// `u32::MAX`.
    pub fn fit(&self, data: &Dataset) -> Result<DecisionTree, DtreeError> {
        let mut orders = row_orders(data)?;
        let mut weights = vec![1; data.n_samples()];
        self.fit_weighted(data, &mut orders, &mut weights, &mut Vec::new())
    }

    /// Trains on per-row integer `weights` (a row of weight `w` counts as
    /// `w` identical samples). `orders` are the presorted row orders of
    /// [`row_orders`] with the rows of weight 0 removed from every block;
    /// they become the root's segments and are left permuted. The weights
    /// are packed in place into the search's words
    /// ([`pack_weights`]), and `scratch` is the fit's partition buffer
    /// (resized here, so a caller fitting many trees allocates it once).
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::EmptyDataset`] if every weight is 0 and
    /// [`DtreeError::InvalidHyperParameter`] if a weight does not fit 31
    /// bits.
    pub(crate) fn fit_weighted(
        &self,
        data: &Dataset,
        orders: &mut [u32],
        weights: &mut [u32],
        scratch: &mut Vec<u32>,
    ) -> Result<DecisionTree, DtreeError> {
        let n_rows = weights.iter().filter(|&&w| w > 0).count();
        if n_rows == 0 {
            return Err(DtreeError::EmptyDataset);
        }
        pack_weights(weights, data.labels())?;
        let ctx = FitContext {
            data,
            words: weights,
            goes_left: (0..data.n_samples())
                .map(|_| AtomicBool::new(false))
                .collect(),
        };
        let threads = self.n_threads.unwrap_or_else(parallel::max_threads).max(1);
        scratch.clear();
        scratch.resize(partition_buffer_len(threads, n_rows, data.n_features()), 0);
        let segments: Vec<&mut [u32]> = orders.chunks_exact_mut(n_rows).collect();
        let mut nodes: Vec<Node> = Vec::new();
        self.build_node(&ctx, segments, scratch, 0, &mut nodes, threads);
        DecisionTree::from_parts(
            nodes,
            data.n_features(),
            data.n_classes(),
            data.feature_names().to_vec(),
        )
    }

    /// Recursively builds the subtree over the node's rows into `nodes`
    /// (pre-order: parent, left block, right block); returns the node id.
    ///
    /// `segments[f]` holds the node's rows sorted by feature `f`. After the split search, every
    /// segment is stably partitioned into the rows going left followed by
    /// the rows going right; both halves keep their order, so they are the
    /// children's segments as they stand.
    ///
    /// `threads` is the budget available to this subtree: the split search
    /// and the partition fan out across features with it, and when both
    /// children are large enough the budget is halved over two
    /// concurrently built sibling subtrees. `scratch` holds at least
    /// [`partition_buffer_len`] rows for this node; children built in turn
    /// reuse it, and children built concurrently split it.
    fn build_node(
        &self,
        ctx: &FitContext<'_>,
        mut segments: Vec<&mut [u32]>,
        scratch: &mut [u32],
        depth: usize,
        nodes: &mut Vec<Node>,
        threads: usize,
    ) -> usize {
        let (data, words) = (ctx.data, ctx.words);
        let mut counts = vec![0u64; data.n_classes() as usize];
        for &row in segments[0].iter() {
            counts[data.label(row as usize) as usize] += u64::from(words[row as usize] >> 1);
        }
        let n: u64 = counts.iter().sum();
        let impurity = gini_impurity(&counts);
        let id = nodes.len();
        nodes.push(Node {
            info: NodeInfo {
                n,
                counts: counts.clone(),
                impurity,
                depth,
            },
            kind: NodeKind::Leaf,
        });

        let depth_ok = self.max_depth.is_none_or(|d| depth < d);
        if !depth_ok || impurity <= 0.0 {
            return id;
        }
        let Some(split) = best_split(
            data,
            words,
            &segments,
            &counts,
            self.min_samples_leaf,
            threads,
        ) else {
            return id;
        };

        // Flag each row's side, then stably partition every segment by the
        // flags: left rows first, each side keeping its order.
        let n_rows = segments[0].len();
        let column = data.column(split.feature);
        let mut n_left = 0;
        for &row in segments[0].iter() {
            let left = column[row as usize] <= split.threshold;
            ctx.goes_left[row as usize].store(left, Ordering::Relaxed);
            n_left += usize::from(left);
        }
        if n_left == 0 || n_left == n_rows {
            // Degenerate split (can only happen through FP pathologies);
            // keep the node as a leaf rather than recurse forever.
            return id;
        }
        // One right-side buffer of `n_rows` per partition lane.
        let n_features = segments.len();
        let n_lanes = partition_lanes(threads, n_rows, n_features);
        let mut lanes: Vec<(&mut [&mut [u32]], &mut [u32])> = segments
            .chunks_mut(n_features.div_ceil(n_lanes))
            .zip(scratch[..n_lanes * n_rows].chunks_exact_mut(n_rows))
            .collect();
        parallel::par_map_mut(threads, &mut lanes, |(lane_segments, right)| {
            for segment in lane_segments.iter_mut() {
                let lane_left = stable_partition(segment, &ctx.goes_left, right);
                debug_assert_eq!(lane_left, n_left);
            }
        });

        let (left_segments, right_segments): (Vec<&mut [u32]>, Vec<&mut [u32]>) = segments
            .into_iter()
            .map(|segment| segment.split_at_mut(n_left))
            .unzip();
        let fork = threads > 1
            && n_left >= PARALLEL_FIT_MIN_SAMPLES
            && n_rows - n_left >= PARALLEL_FIT_MIN_SAMPLES;
        let (left, right) = if fork {
            // Build the sibling subtrees concurrently into local pre-order
            // vectors, then splice them back at exactly the ids the serial
            // recursion would have assigned (left block first, then right).
            let left_budget = threads.div_ceil(2);
            let right_budget = threads / 2;
            // Neither side has more lanes than this node and their rows add
            // up to its rows, so both buffers fit side by side in this one.
            let (left_scratch, right_scratch) =
                scratch.split_at_mut(partition_buffer_len(left_budget, n_left, n_features));
            let (left_sub, right_sub) = parallel::join(
                threads,
                || self.build_subtree(ctx, left_segments, left_scratch, depth + 1, left_budget),
                || self.build_subtree(ctx, right_segments, right_scratch, depth + 1, right_budget),
            );
            let left = splice_subtree(nodes, left_sub);
            let right = splice_subtree(nodes, right_sub);
            (left, right)
        } else {
            let left = self.build_node(ctx, left_segments, scratch, depth + 1, nodes, threads);
            let right = self.build_node(ctx, right_segments, scratch, depth + 1, nodes, threads);
            (left, right)
        };
        nodes[id].kind = NodeKind::Internal {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        id
    }

    /// Builds a detached subtree with local (zero-based) node ids.
    fn build_subtree(
        &self,
        ctx: &FitContext<'_>,
        segments: Vec<&mut [u32]>,
        scratch: &mut [u32],
        depth: usize,
        threads: usize,
    ) -> Vec<Node> {
        let mut nodes = Vec::new();
        self.build_node(ctx, segments, scratch, depth, &mut nodes, threads);
        nodes
    }
}

/// Inputs shared by every node of one fit.
struct FitContext<'a> {
    data: &'a Dataset,
    /// Per-row packed words ([`pack_weights`]): the sample weight
    /// (bootstrap multiplicity; 1 for a plain fit) and the label bit.
    words: &'a [u32],
    /// Side of each row at the node being partitioned (`true` = left),
    /// indexed by row. A node writes its rows' flags before it partitions
    /// (posting the partition to a pool worker goes through the worker's
    /// task mutex, which orders those writes before the worker's reads),
    /// and concurrently built subtrees own disjoint rows, so the flags
    /// publish nothing else and `Relaxed` suffices.
    goes_left: Vec<AtomicBool>,
}

/// Lanes a node's partition fans its segments out over: the thread budget,
/// at most one per feature, or 1 when the node is too small to fan out.
fn partition_lanes(threads: usize, n_rows: usize, n_features: usize) -> usize {
    if threads > 1 && n_rows * n_features >= PARALLEL_SPLIT_MIN_WORK {
        threads.min(n_features)
    } else {
        1
    }
}

/// Rows of partition buffer a node of `n_rows` needs: one right side per
/// lane. It never grows down the tree, and two children that split a
/// node's budget need no more than the node together, so a fit sizes it
/// once.
fn partition_buffer_len(threads: usize, n_rows: usize, n_features: usize) -> usize {
    partition_lanes(threads, n_rows, n_features) * n_rows
}

/// Moves the rows flagged left to the front of `segment` and the others
/// behind them, each side in its original order, staging the right side
/// in `right` (at least `segment.len()` long); returns the left count.
fn stable_partition(segment: &mut [u32], goes_left: &[AtomicBool], right: &mut [u32]) -> usize {
    // Branch-free: each row is written to both sides and only its own
    // side's cursor advances (`n_left <= k`, so no unread row is lost).
    let (mut n_left, mut n_right) = (0, 0);
    for k in 0..segment.len() {
        let row = segment[k];
        let left = goes_left[row as usize].load(Ordering::Relaxed);
        segment[n_left] = row;
        right[n_right] = row;
        n_left += usize::from(left);
        n_right += usize::from(!left);
    }
    segment[n_left..].copy_from_slice(&right[..n_right]);
    n_left
}

/// Appends a locally-indexed subtree to `nodes`, rebasing child ids; the
/// subtree root lands at the returned id (`nodes.len()` before the append),
/// which matches the id the serial pre-order recursion would have used.
fn splice_subtree(nodes: &mut Vec<Node>, subtree: Vec<Node>) -> usize {
    let offset = nodes.len();
    nodes.reserve(subtree.len());
    for mut node in subtree {
        if let NodeKind::Internal { left, right, .. } = &mut node.kind {
            *left += offset;
            *right += offset;
        }
        nodes.push(node);
    }
    offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::find_best_split;
    use proptest::prelude::*;

    /// The builder the presorted one replaced: at every node it sorts the
    /// node's samples afresh ([`find_best_split`]) and partitions the
    /// sample indices in place. Serial; the tree under test must equal it
    /// at every thread budget.
    fn reference_fit(b: &TreeBuilder, data: &Dataset) -> DecisionTree {
        fn build(
            b: &TreeBuilder,
            data: &Dataset,
            idx: &mut [usize],
            depth: usize,
            nodes: &mut Vec<Node>,
        ) -> usize {
            let mut counts = vec![0u64; data.n_classes() as usize];
            for &i in idx.iter() {
                counts[data.label(i) as usize] += 1;
            }
            let impurity = gini_impurity(&counts);
            let id = nodes.len();
            nodes.push(Node {
                info: NodeInfo {
                    n: idx.len() as u64,
                    counts: counts.clone(),
                    impurity,
                    depth,
                },
                kind: NodeKind::Leaf,
            });
            let depth_ok = b.max_depth.is_none_or(|d| depth < d);
            if !depth_ok || impurity <= 0.0 {
                return id;
            }
            let Some(split) = find_best_split(data, idx, b.min_samples_leaf) else {
                return id;
            };
            let (mut lo, mut hi) = (0, idx.len());
            while lo < hi {
                if data.value(idx[lo], split.feature) <= split.threshold {
                    lo += 1;
                } else {
                    hi -= 1;
                    idx.swap(lo, hi);
                }
            }
            if lo == 0 || lo == idx.len() {
                return id;
            }
            let (left_idx, right_idx) = idx.split_at_mut(lo);
            let left = build(b, data, left_idx, depth + 1, nodes);
            let right = build(b, data, right_idx, depth + 1, nodes);
            nodes[id].kind = NodeKind::Internal {
                feature: split.feature,
                threshold: split.threshold,
                left,
                right,
            };
            id
        }
        let mut idx: Vec<usize> = (0..data.n_samples()).collect();
        let mut nodes = Vec::new();
        build(b, data, &mut idx, 0, &mut nodes);
        DecisionTree::from_parts(
            nodes,
            data.n_features(),
            data.n_classes(),
            data.feature_names().to_vec(),
        )
        .unwrap()
    }

    /// Feature values on a coarse grid: heavy ties, both signed zeros.
    const GRID: [f64; 6] = [-2.0, -0.0, 0.0, 0.5, 1.0, 7.25];

    /// `rows` drawn as grid indices plus a continuous value, repeated
    /// `copies` times (duplicate rows), labels folded into `n_classes`.
    fn tied_dataset(rows: &[(usize, usize, f64, u32)], copies: usize, n_classes: u32) -> Dataset {
        let names = vec!["a".into(), "b".into(), "c".into()];
        let mut ds = Dataset::new(names, n_classes).unwrap();
        for _ in 0..copies {
            for &(a, b, c, label) in rows {
                let label = if GRID[a] > 0.0 {
                    label % 2
                } else {
                    label % n_classes
                };
                ds.push_row(&[GRID[a], GRID[b], (c * 8.0).floor()], label)
                    .unwrap();
            }
        }
        ds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn presorted_fit_is_bit_identical_to_per_node_sort_reference(
            rows in prop::collection::vec((0usize..6, 0usize..6, 0.0f64..1.0, 0u32..5), 1..300),
            shape in (1usize..12, prop::bool::ANY, 0usize..9),
            min_samples_leaf in 1usize..6,
        ) {
            let (copies, five_classes, depth) = shape;
            let n_classes = if five_classes { 5 } else { 2 };
            let ds = tied_dataset(&rows, copies, n_classes);
            let mut b = TreeBuilder::new();
            b.min_samples_leaf(min_samples_leaf);
            if depth > 0 {
                b.max_depth(depth);
            }
            let reference = reference_fit(&b, &ds);
            for threads in [1usize, 2, 8] {
                let tree = b.clone().threads(threads).fit(&ds).unwrap();
                prop_assert!(tree == reference, "threads={}", threads);
            }
        }
    }

    #[test]
    fn presorted_fit_matches_reference_through_forks_and_fan_out() {
        // Large enough that the split search fans out and sibling subtrees
        // fork at budgets 2 and 8.
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<(usize, usize, f64, u32)> = (0..3000)
            .map(|_| {
                let (a, b, c) = ((next() * 6.0) as usize, (next() * 6.0) as usize, next());
                let label = u32::from(GRID[a] + c > 0.9) ^ u32::from(next() < 0.1);
                (a, b, c, label)
            })
            .collect();
        for n_classes in [2, 5] {
            let ds = tied_dataset(&rows, 2, n_classes);
            let mut b = TreeBuilder::new();
            b.min_samples_leaf(3);
            let reference = reference_fit(&b, &ds);
            assert!(reference.n_nodes() > 15, "tree must actually grow");
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    b.clone().threads(threads).fit(&ds).unwrap(),
                    reference,
                    "threads={threads}"
                );
            }
        }
    }

    fn xor_like_dataset() -> Dataset {
        // Class = (x > 0.35) XOR (y > 0.25): needs depth 2 to separate.
        // The asymmetric thresholds keep the root split informative (a
        // perfectly balanced XOR has zero gain for every single split and
        // defeats any greedy CART, including scikit-learn's).
        let mut ds = Dataset::new(vec!["x".into(), "y".into()], 2).unwrap();
        for i in 0..10 {
            for j in 0..10 {
                let x = i as f64 / 10.0;
                let y = j as f64 / 10.0;
                let label = u32::from((x > 0.35) ^ (y > 0.25));
                ds.push_row(&[x, y], label).unwrap();
            }
        }
        ds
    }

    #[test]
    fn fits_xor_perfectly_with_enough_depth() {
        let ds = xor_like_dataset();
        let tree = TreeBuilder::new().max_depth(3).fit(&ds).unwrap();
        let mut errors = 0;
        for i in 0..ds.n_samples() {
            let row = [ds.value(i, 0), ds.value(i, 1)];
            if tree.predict(&row).unwrap() != ds.label(i) {
                errors += 1;
            }
        }
        assert_eq!(errors, 0, "XOR should be perfectly separable at depth 3");
    }

    #[test]
    fn depth_limit_is_respected() {
        let ds = xor_like_dataset();
        for limit in [1usize, 2, 3, 5] {
            let tree = TreeBuilder::new().max_depth(limit).fit(&ds).unwrap();
            assert!(
                tree.depth() <= limit,
                "depth {} exceeds limit {limit}",
                tree.depth()
            );
        }
    }

    #[test]
    fn depth_zero_yields_single_leaf() {
        let ds = xor_like_dataset();
        let tree = TreeBuilder::new().max_depth(0).fit(&ds).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn min_samples_leaf_bounds_every_leaf() {
        let ds = xor_like_dataset();
        let tree = TreeBuilder::new().min_samples_leaf(20).fit(&ds).unwrap();
        for leaf in tree.leaf_ids() {
            assert!(tree.node(leaf).info.n >= 20);
        }
    }

    #[test]
    fn pure_dataset_yields_stump() {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..50 {
            ds.push_row(&[i as f64], 1).unwrap();
        }
        let tree = TreeBuilder::new().fit(&ds).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[3.0]).unwrap(), 1);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let ds = Dataset::new(vec!["x".into()], 2).unwrap();
        assert_eq!(TreeBuilder::new().fit(&ds), Err(DtreeError::EmptyDataset));
    }

    #[test]
    fn node_counts_sum_to_children() {
        let ds = xor_like_dataset();
        let tree = TreeBuilder::new().max_depth(4).fit(&ds).unwrap();
        for id in 0..tree.n_nodes() {
            if let NodeKind::Internal { left, right, .. } = tree.node(id).kind {
                assert_eq!(
                    tree.node(id).info.n,
                    tree.node(left).info.n + tree.node(right).info.n
                );
                for c in 0..2 {
                    assert_eq!(
                        tree.node(id).info.counts[c],
                        tree.node(left).info.counts[c] + tree.node(right).info.counts[c]
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_fit_matches_serial_fit_on_small_data() {
        // Small data never crosses the fork threshold, but the whole code
        // path (budget plumbing, split fan-out guard) must stay identical.
        let ds = xor_like_dataset();
        let serial = TreeBuilder::new().max_depth(4).threads(1).fit(&ds).unwrap();
        for threads in [2usize, 8] {
            let par = TreeBuilder::new()
                .max_depth(4)
                .threads(threads)
                .fit(&ds)
                .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn threaded_fit_matches_serial_fit_above_fork_threshold() {
        // Enough samples that the root split forks sibling subtree builds.
        let mut ds = Dataset::new(vec!["x".into(), "y".into()], 2).unwrap();
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..6000 {
            let (x, y) = (next(), next());
            let label = u32::from(x + 0.3 * y > 0.6);
            ds.push_row(&[x, y], label).unwrap();
        }
        let serial = TreeBuilder::new().max_depth(6).threads(1).fit(&ds).unwrap();
        for threads in [2usize, 8] {
            let par = TreeBuilder::new()
                .max_depth(6)
                .threads(threads)
                .fit(&ds)
                .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
        assert!(serial.n_nodes() > 3, "tree must actually have forked");
    }

    #[test]
    fn multiclass_training_works() {
        let mut ds = Dataset::new(vec!["x".into()], 3).unwrap();
        for i in 0..30 {
            let label = (i / 10) as u32;
            ds.push_row(&[i as f64], label).unwrap();
        }
        let tree = TreeBuilder::new().fit(&ds).unwrap();
        assert_eq!(tree.predict(&[5.0]).unwrap(), 0);
        assert_eq!(tree.predict(&[15.0]).unwrap(), 1);
        assert_eq!(tree.predict(&[25.0]).unwrap(), 2);
    }
}
