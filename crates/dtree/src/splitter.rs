//! Exact CART split search: a scan over every threshold between distinct
//! feature values. The `baseline` bench binary times it through a full fit
//! (`fit_exact_depth8`).
//!
//! # Presorted exact search
//!
//! A node is searched from **presorted segments**: for every feature, the
//! node's rows as `u32` row indices in ascending order of that feature's
//! value (`f64::total_cmp`). [`crate::builder::TreeBuilder`] sorts each
//! feature once per fit and stably partitions every segment as the tree
//! grows (SLIQ-style), so no node ever sorts. The search walks a feature's
//! segment once, accumulating per-class counts and evaluating the split
//! impurity at every boundary between distinct values. Values stay in the
//! dataset's feature column, with no sorted copy.
//!
//! Rows carry integer **weights** (multiplicities): a row of weight `w`
//! counts as `w` identical samples. Unit weights are a plain fit; a forest
//! member fits on its bootstrap draw counts
//! ([`crate::forest::ForestBuilder`]). The search reads each row's weight
//! from one packed `u32` **word**, `weight << 1 | label bit`
//! (`pack_weights`), so a weight must fit 31 bits.
//!
//! # The two-class kernel
//!
//! Two-class nodes, the paper's case, scan a segment in blocks of 256 rows:
//!
//! 1. **Gather** each row's value from the feature's column and its word.
//!    The loop has no data-dependent branch, so the cache-missing loads of
//!    a block overlap.
//! 2. **Record** every admissible boundary, again without a branch: before
//!    a row joins the left side, its `(l0, l1, prev_v, v)` is written to the
//!    next slot, and the slot is kept when `v > prev_v` and both sides hold
//!    `min_samples_leaf`. `prev_v` and the counts carry over block edges.
//! 3. **Evaluate** `gini2_split_impurity` straight through the recorded
//!    boundaries and keep the first minimum (strict `<`), across blocks.
//!
//! The kernel's floating-point operations are exactly those of
//! [`gini_split_impurity`], and the candidates are met in segment order, so
//! it picks what a one-pass scan evaluating every boundary picks.
//! Multi-class nodes run that one-pass scan, calling
//! [`gini_split_impurity`] directly.
//!
//! # Why the presorted search is bit-identical to a per-node sort
//!
//! Feature values are finite, and `total_cmp` treats two finite values as
//! equal exactly when their bits are equal. A segment is therefore the
//! same sequence of value bits as sorting the node's (weight-expanded)
//! samples afresh; only rows with bit-equal values can appear in another
//! order. The scan evaluates a split only where the next value is
//! strictly greater (`-0.0`/`+0.0` are not a boundary), so the counts at
//! every evaluated boundary sum over whole tie groups and cannot depend on
//! the order inside one. A weight adds to the counts exactly what `w`
//! materialized duplicates would. Every candidate thus sees the same
//! counts, the same impurity bits and the same `v`/`next_v` for its
//! threshold, in the same order, as the per-node sort of
//! [`find_best_split`].
//!
//! The search fans out across features on a thread budget, on the worker
//! pool. Per-feature candidates are computed independently and reduced
//! sequentially in feature order with the same comparison as the serial
//! loop, so the selected split is **bit-identical** for every thread count.

use crate::criterion::{gini_impurity, gini_split_impurity};
use crate::data::Dataset;
use crate::error::DtreeError;
use std::ops::Deref;

/// Below this node workload (`rows × features`) the parallel fan-out is
/// pure overhead and the search stays serial regardless of budget.
pub(crate) const PARALLEL_SPLIT_MIN_WORK: usize = 8_192;

/// The best split found at a node, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct BestSplit {
    /// Feature column to split on.
    pub feature: usize,
    /// Threshold; `<=` routes left.
    pub threshold: f64,
    /// Impurity decrease achieved (parent impurity minus weighted child
    /// impurity).
    pub gain: f64,
    /// Number of samples routed left.
    pub n_left: usize,
}

/// Searches for the best split of the node containing `idx`, considering
/// every midpoint between consecutive distinct feature values (classical
/// CART; what scikit-learn's `best` splitter does). It sorts the node's
/// samples afresh for every feature and scans them one at a time through
/// [`gini_split_impurity`]. The tree builder never calls it (it keeps
/// presorted segments and runs the blocked kernel instead); it is the
/// per-node reference the presorted search is tested against, and a
/// standalone entry point.
///
/// The node's per-class counts are taken from the labels of `idx`.
/// Returns `None` when no split satisfies `min_samples_leaf` or yields
/// positive gain.
///
/// # Panics
///
/// Panics if an index in `idx` is out of bounds.
pub fn find_best_split(
    data: &Dataset,
    idx: &[usize],
    min_samples_leaf: usize,
) -> Option<BestSplit> {
    let mut parent_counts = vec![0u64; data.n_classes() as usize];
    for &i in idx {
        parent_counts[data.label(i) as usize] += 1;
    }
    let parent_impurity = gini_impurity(&parent_counts);
    if parent_impurity <= 0.0 {
        return None;
    }
    let n = idx.len();
    let mut best: Option<BestSplit> = None;
    for feature in 0..data.n_features() {
        let column = data.column(feature);
        let mut sorted = idx.to_vec();
        sorted.sort_by(|&a, &b| column[a].total_cmp(&column[b]));
        let mut left = vec![0u64; parent_counts.len()];
        let mut right = parent_counts.clone();
        let mut feature_best: Option<Candidate> = None;
        for (n_left, pair) in (1..).zip(sorted.windows(2)) {
            let label = data.label(pair[0]) as usize;
            left[label] += 1;
            right[label] -= 1;
            let (prev_v, v) = (column[pair[0]], column[pair[1]]);
            if v > prev_v && n_left >= min_samples_leaf && n - n_left >= min_samples_leaf {
                let impurity = gini_split_impurity(&left, &right);
                if feature_best
                    .as_ref()
                    .is_none_or(|b| impurity < b.weighted_impurity)
                {
                    feature_best = Some(Candidate::new(prev_v, v, impurity, n_left as u64));
                }
            }
        }
        if let Some(split) = feature_best.and_then(|c| c.into_split(feature, parent_impurity)) {
            if best.as_ref().is_none_or(|b| split.gain > b.gain) {
                best = Some(split);
            }
        }
    }
    best
}

/// The row orders a fit starts from, as equal blocks of `n_samples` row
/// indices: one block per feature, block `f` in ascending `total_cmp`
/// order of feature `f` with ties broken by row index (presorting).
///
/// Features sort one after another through one `(key, row)` buffer, which
/// keeps the transient memory of a fit at `16 · n_samples` bytes on top of
/// the orders.
///
/// # Errors
///
/// Returns [`DtreeError::EmptyDataset`] for an empty dataset and
/// [`DtreeError::InvalidHyperParameter`] if row indices do not fit `u32`.
pub(crate) fn row_orders(data: &Dataset) -> Result<Vec<u32>, DtreeError> {
    let n = data.n_samples();
    if n == 0 {
        return Err(DtreeError::EmptyDataset);
    }
    let Ok(n_u32) = u32::try_from(n) else {
        return Err(DtreeError::InvalidHyperParameter {
            constraint: "a tree trains on at most u32::MAX samples",
        });
    };
    let mut orders = Vec::with_capacity(n * data.n_features());
    let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n);
    for feature in 0..data.n_features() {
        let column = data.column(feature);
        keyed.clear();
        keyed.extend(
            (0..n_u32)
                .zip(column)
                .map(|(i, &v)| (total_order_key(v), i)),
        );
        keyed.sort_unstable();
        orders.extend(keyed.iter().map(|&(_, row)| row));
    }
    Ok(orders)
}

/// Maps `f64` bits to a `u64` whose unsigned order is `f64::total_cmp`.
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Packs per-row weights in place into the words the search reads:
/// `weight << 1 | (label & 1)`. The low bit is the label of a two-class
/// fit; the multi-class scan reads labels from the dataset instead.
///
/// # Errors
///
/// Returns [`DtreeError::InvalidHyperParameter`], with `weights` left
/// unchanged, if a weight does not fit 31 bits.
pub(crate) fn pack_weights(weights: &mut [u32], labels: &[u32]) -> Result<(), DtreeError> {
    if weights.iter().any(|&w| w > u32::MAX >> 1) {
        return Err(DtreeError::InvalidHyperParameter {
            constraint: "a row weight must fit 31 bits",
        });
    }
    for (w, &label) in weights.iter_mut().zip(labels) {
        *w = *w << 1 | (label & 1);
    }
    Ok(())
}

/// Searches a node given as segments holding its rows, with per-row packed
/// `words` ([`pack_weights`]), fanning the features out over up to
/// `threads` pool lanes. `segments[f]` holds the node's rows sorted by
/// feature `f`.
///
/// The result is bit-identical for every budget: each feature's candidate
/// is computed independently and the winner is reduced sequentially in
/// ascending feature order, preferring the lower feature index on equal
/// gain exactly like a serial loop.
pub(crate) fn best_split<S>(
    data: &Dataset,
    words: &[u32],
    segments: &[S],
    parent_counts: &[u64],
    min_samples_leaf: usize,
    threads: usize,
) -> Option<BestSplit>
where
    S: Deref<Target = [u32]> + Sync,
{
    let parent_impurity = gini_impurity(parent_counts);
    if parent_impurity <= 0.0 {
        return None;
    }
    let node = NodeScan {
        data,
        words,
        parent_counts,
        min_samples_leaf: min_samples_leaf as u64,
    };
    let search_feature = |feature: usize| -> Option<BestSplit> {
        node.exact(&segments[feature], feature)
            .and_then(|c| c.into_split(feature, parent_impurity))
    };

    let n_features = data.n_features();
    let n_rows = segments[0].len();
    let per_feature: Vec<Option<BestSplit>> =
        if threads > 1 && n_features > 1 && n_rows * n_features >= PARALLEL_SPLIT_MIN_WORK {
            let mut features: Vec<usize> = (0..n_features).collect();
            parallel::par_map_mut(threads, &mut features, |feature| search_feature(*feature))
        } else {
            (0..n_features).map(search_feature).collect()
        };

    // Deterministic reduction: ascending feature order, strict improvement
    // required — identical tie-breaking to the serial loop.
    let mut best: Option<BestSplit> = None;
    for candidate in per_feature.into_iter().flatten() {
        if best.as_ref().is_none_or(|b| candidate.gain > b.gain) {
            best = Some(candidate);
        }
    }
    best
}

/// Two-class Gini split impurity of the counts `(l0, l1) | (r0, r1)`.
///
/// Performs exactly the floating-point operations of
/// [`gini_split_impurity`] on `&[l0, l1]`, `&[r0, r1]` (same conversions,
/// divisions, products and summation order), so the result is equal bit
/// for bit — without the slice sums and the iterator plumbing.
#[inline]
fn gini2_split_impurity(l0: u64, l1: u64, r0: u64, r1: u64) -> f64 {
    #[inline]
    fn gini(a: u64, b: u64, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        let (pa, pb) = (a as f64 / n, b as f64 / n);
        1.0 - (pa * pa + pb * pb)
    }
    let (nl, nr) = (l0 + l1, r0 + r1);
    let n = nl + nr;
    if n == 0 {
        return 0.0;
    }
    (nl as f64 * gini(l0, l1, nl) + nr as f64 * gini(r0, r1, nr)) / n as f64
}

/// One feature's best boundary.
struct Candidate {
    threshold: f64,
    weighted_impurity: f64,
    n_left: u64,
}

impl Candidate {
    /// The boundary between the values `prev_v < v`.
    fn new(prev_v: f64, v: f64, weighted_impurity: f64, n_left: u64) -> Self {
        // Midpoint threshold, like CART; falls back to the left value if
        // the midpoint rounds onto the right value.
        let mut threshold = 0.5 * (prev_v + v);
        if threshold >= v {
            threshold = prev_v;
        }
        Candidate {
            threshold,
            weighted_impurity,
            n_left,
        }
    }

    /// The split on `feature`, if it decreases the parent's impurity.
    fn into_split(self, feature: usize, parent_impurity: f64) -> Option<BestSplit> {
        let gain = parent_impurity - self.weighted_impurity;
        (gain > 1e-12).then_some(BestSplit {
            feature,
            threshold: self.threshold,
            gain,
            n_left: self.n_left as usize,
        })
    }
}

/// The per-node inputs every feature's scan shares.
struct NodeScan<'a> {
    data: &'a Dataset,
    words: &'a [u32],
    parent_counts: &'a [u64],
    min_samples_leaf: u64,
}

/// Rows per block of the two-class scan: small enough that a block's
/// gathered rows and recorded boundaries stay in L1.
const SCAN_BLOCK: usize = 256;

/// A boundary the two-class scan's first pass recorded: the left counts
/// before the row at `v` joins them, and the values either side.
#[derive(Clone, Copy, Default)]
struct Boundary {
    l0: u64,
    l1: u64,
    prev_v: f64,
    v: f64,
}

impl NodeScan<'_> {
    /// Exact scan over a segment sorted by `feature`.
    fn exact(&self, rows: &[u32], feature: usize) -> Option<Candidate> {
        let column = self.data.column(feature);
        match *self.parent_counts {
            [p0, p1] => self.scan2(rows, column, p0, p1),
            _ => self.scan(rows, column),
        }
    }

    /// The two-class kernel: gather, record and evaluate per block of
    /// [`SCAN_BLOCK`] rows (see the module docs).
    fn scan2(&self, rows: &[u32], column: &[f64], p0: u64, p1: u64) -> Option<Candidate> {
        let (n, min_leaf) = (p0 + p1, self.min_samples_leaf);
        let mut values = [0.0f64; SCAN_BLOCK];
        let mut words = [0u32; SCAN_BLOCK];
        let mut boundaries = [Boundary::default(); SCAN_BLOCK];
        let (mut l0, mut l1) = (0u64, 0u64);
        // No value exceeds +inf, so the first row never closes a boundary.
        let mut prev_v = f64::INFINITY;
        let mut best: Option<(f64, Boundary)> = None;
        for chunk in rows.chunks(SCAN_BLOCK) {
            let len = chunk.len();
            for ((value, word), &row) in values.iter_mut().zip(&mut words).zip(chunk) {
                *value = column[row as usize];
                *word = self.words[row as usize];
            }
            let mut recorded = 0;
            for (&v, &word) in values[..len].iter().zip(&words[..len]) {
                let n_left = l0 + l1;
                boundaries[recorded] = Boundary { l0, l1, prev_v, v };
                // `v > prev_v` is a boundary between distinct values;
                // bit-different equal values (-0.0, +0.0) are not.
                let admissible = (v > prev_v) & (n_left >= min_leaf) & (n - n_left >= min_leaf);
                recorded += usize::from(admissible);
                let (w, label) = (u64::from(word >> 1), u64::from(word & 1));
                l1 += w * label;
                l0 += w - w * label;
                prev_v = v;
            }
            for b in &boundaries[..recorded] {
                let impurity = gini2_split_impurity(b.l0, b.l1, p0 - b.l0, p1 - b.l1);
                if best.as_ref().is_none_or(|&(i, _)| impurity < i) {
                    best = Some((impurity, *b));
                }
            }
        }
        best.map(|(impurity, b)| Candidate::new(b.prev_v, b.v, impurity, b.l0 + b.l1))
    }

    /// Any class count: one pass in ascending value order, evaluating every
    /// boundary between distinct values before the row after it joins the
    /// left side.
    fn scan(&self, rows: &[u32], column: &[f64]) -> Option<Candidate> {
        let labels = self.data.labels();
        let n: u64 = self.parent_counts.iter().sum();
        let mut left = vec![0u64; self.parent_counts.len()];
        let mut right = self.parent_counts.to_vec();
        let mut n_left = 0;
        let mut best: Option<Candidate> = None;
        let mut prev_v = f64::INFINITY;
        for &row in rows {
            let row = row as usize;
            let v = column[row];
            if v > prev_v && n_left >= self.min_samples_leaf && n - n_left >= self.min_samples_leaf
            {
                let impurity = gini_split_impurity(&left, &right);
                if best.as_ref().is_none_or(|b| impurity < b.weighted_impurity) {
                    best = Some(Candidate::new(prev_v, v, impurity, n_left));
                }
            }
            let (label, w) = (labels[row] as usize, u64::from(self.words[row] >> 1));
            left[label] += w;
            right[label] -= w;
            n_left += w;
            prev_v = v;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    fn two_cluster_data() -> (Dataset, Vec<usize>) {
        // Class 0 at x ≈ 0, class 1 at x ≈ 10; second feature is noise.
        let mut ds = Dataset::new(vec!["x".into(), "noise".into()], 2).unwrap();
        for i in 0..20 {
            let x = if i < 10 {
                i as f64 * 0.1
            } else {
                10.0 + (i - 10) as f64 * 0.1
            };
            let label = u32::from(i >= 10);
            ds.push_row(&[x, (i % 3) as f64], label).unwrap();
        }
        let idx: Vec<usize> = (0..20).collect();
        (ds, idx)
    }

    #[test]
    fn exact_finds_separating_threshold() {
        let (ds, idx) = two_cluster_data();
        let split = find_best_split(&ds, &idx, 1).expect("split must exist");
        assert_eq!(split.feature, 0);
        assert!(split.threshold > 0.9 && split.threshold < 10.0);
        assert_eq!(split.n_left, 10);
        assert!(
            (split.gain - 0.5).abs() < 1e-12,
            "perfect split removes all gini impurity"
        );
    }

    #[test]
    fn pure_node_yields_no_split() {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..5 {
            ds.push_row(&[i as f64], 0).unwrap();
        }
        let idx: Vec<usize> = (0..5).collect();
        assert!(find_best_split(&ds, &idx, 1).is_none());
    }

    #[test]
    fn constant_features_yield_no_split() {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..6 {
            ds.push_row(&[1.0], u32::from(i % 2 == 0)).unwrap();
        }
        let idx: Vec<usize> = (0..6).collect();
        assert!(find_best_split(&ds, &idx, 1).is_none());
    }

    #[test]
    fn min_samples_leaf_constrains_split() {
        let (ds, idx) = two_cluster_data();
        // Requiring 11 samples per side makes the 10/10 split infeasible.
        assert!(find_best_split(&ds, &idx, 11).is_none());
    }

    #[test]
    fn threshold_routes_boundary_left() {
        // Values 0 and 1; the threshold must be strictly below 1 so that
        // a query at 1.0 goes right of a 0/1 boundary... i.e. `<=` semantics
        // with a midpoint threshold of 0.5.
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        ds.push_row(&[0.0], 0).unwrap();
        ds.push_row(&[1.0], 1).unwrap();
        let split = find_best_split(&ds, &[0, 1], 1).unwrap();
        assert!((split.threshold - 0.5).abs() < 1e-12);
    }

    #[test]
    fn subset_of_indices_is_respected() {
        let (ds, _) = two_cluster_data();
        // Only class-0 samples: node is pure, no split.
        let idx: Vec<usize> = (0..10).collect();
        assert!(find_best_split(&ds, &idx, 1).is_none());
    }

    #[test]
    fn node_counts_come_from_the_node_rows() {
        // Rows 0..3 label [0, 0, 1] over x = 0, 1, 2: the pure-left cut
        // is between x = 1 and x = 2, with two rows on the left. The rows
        // outside `idx` (two more class-1 rows) must not enter the counts.
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for (x, label) in [(0.0, 0), (1.0, 0), (2.0, 1), (3.0, 1), (4.0, 1)] {
            ds.push_row(&[x], label).unwrap();
        }
        let split = find_best_split(&ds, &[0, 1, 2], 1).expect("the node is mixed");
        assert_eq!(split.feature, 0);
        assert_eq!(split.threshold, 1.5);
        assert_eq!(split.n_left, 2);
        assert_eq!(split.gain.to_bits(), (4.0f64 / 9.0).to_bits());
    }

    /// SplitMix64 stream for test data.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The presort blocks as one segment per feature.
    fn presorted_segments(ds: &Dataset) -> Vec<Vec<u32>> {
        let orders = row_orders(ds).unwrap();
        orders.chunks(ds.n_samples()).map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn row_orders_presort_each_feature_by_total_cmp() {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], 2).unwrap();
        for (i, v) in [0.0, -0.0, 3.5, -1.0, 0.0, -0.0, 3.5]
            .into_iter()
            .enumerate()
        {
            ds.push_row(&[v, -(i as f64)], (i % 2) as u32).unwrap();
        }
        let segments = presorted_segments(&ds);
        // Ties keep row order; -0.0 sorts before +0.0.
        assert_eq!(segments[0], vec![3, 1, 5, 0, 4, 2, 6]);
        assert_eq!(segments[1], vec![6, 5, 4, 3, 2, 1, 0]);
        let empty = Dataset::new(vec!["a".into()], 2).unwrap();
        assert_eq!(row_orders(&empty), Err(DtreeError::EmptyDataset));
    }

    #[test]
    fn gini2_kernel_matches_split_impurity_bitwise() {
        let reference =
            |l0: u64, l1: u64, r0: u64, r1: u64| gini_split_impurity(&[l0, l1], &[r0, r1]);
        // Exhaustive small counts, empty sides included.
        for l0 in 0..=12 {
            for l1 in 0..=12 {
                for r0 in 0..=12 {
                    for r1 in 0..=12 {
                        let kernel = gini2_split_impurity(l0, l1, r0, r1);
                        let generic = reference(l0, l1, r0, r1);
                        assert_eq!(kernel.to_bits(), generic.to_bits(), "{l0} {l1} | {r0} {r1}");
                    }
                }
            }
        }
        // Random large counts, one side occasionally empty.
        let mut next = rng(0xC0FFEE);
        for case in 0..200_000u64 {
            let mut count = || next() % (1 << (next() % 40));
            let (mut l0, mut l1, mut r0, mut r1) = (count(), count(), count(), count());
            match case % 8 {
                0 => (l0, l1) = (0, 0),
                1 => (r0, r1) = (0, 0),
                _ => {}
            }
            let kernel = gini2_split_impurity(l0, l1, r0, r1);
            let generic = reference(l0, l1, r0, r1);
            assert_eq!(kernel.to_bits(), generic.to_bits(), "{l0} {l1} | {r0} {r1}");
        }
    }

    /// The presorted search over `ds` with per-row `weights` (rows of
    /// weight 0 dropped from the segments), checked bit for bit against
    /// [`find_best_split`] on the materialized samples at budgets 1, 2 and
    /// 8; returns the split.
    fn presorted_matches_materialized(
        ds: &Dataset,
        weights: &[u32],
        min_leaf: usize,
    ) -> Option<BestSplit> {
        let mut materialized = Dataset::new(ds.feature_names().to_vec(), ds.n_classes()).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            let row: Vec<f64> = (0..ds.n_features()).map(|f| ds.value(i, f)).collect();
            for _ in 0..w {
                materialized.push_row(&row, ds.label(i)).unwrap();
            }
        }
        let idx: Vec<usize> = (0..materialized.n_samples()).collect();
        let counts = materialized.class_counts();
        let reference = find_best_split(&materialized, &idx, min_leaf);
        let segments: Vec<Vec<u32>> = presorted_segments(ds)
            .into_iter()
            .map(|s| s.into_iter().filter(|&r| weights[r as usize] > 0).collect())
            .collect();
        let mut words = weights.to_vec();
        pack_weights(&mut words, ds.labels()).unwrap();
        for threads in [1usize, 2, 8] {
            let presorted = best_split(ds, &words, &segments, &counts, min_leaf, threads);
            let what = format!(
                "{} classes, min_leaf {min_leaf}, threads {threads}",
                ds.n_classes()
            );
            assert_eq!(reference, presorted, "{what}");
            if let (Some(r), Some(p)) = (&reference, &presorted) {
                assert_eq!(r.gain.to_bits(), p.gain.to_bits(), "{what}");
                assert_eq!(r.threshold.to_bits(), p.threshold.to_bits(), "{what}");
                assert_eq!(r.n_left, p.n_left, "{what}");
            }
        }
        reference
    }

    /// One feature plus `n_constant` all-zero features (which never split
    /// but push the node over [`PARALLEL_SPLIT_MIN_WORK`]), two classes.
    fn one_feature(values: &[f64], labels: &[u32], n_constant: usize) -> Dataset {
        let mut ds = Dataset::with_anonymous_features(1 + n_constant, 2).unwrap();
        for (&v, &label) in values.iter().zip(labels) {
            let mut row = vec![0.0; 1 + n_constant];
            row[0] = v;
            ds.push_row(&row, label).unwrap();
        }
        ds
    }

    #[test]
    fn presorted_weighted_search_matches_materialized_search_for_every_budget() {
        // Heavy ties (values on a coarse grid, -0.0 and +0.0 both present)
        // and large enough to clear PARALLEL_SPLIT_MIN_WORK with 3 features.
        let mut next = rng(7);
        let grid = [-2.0, -0.0, 0.0, 0.5, 1.0, 7.25];
        for n_classes in [2u32, 5] {
            let mut ds = Dataset::new(vec!["a".into(), "b".into(), "c".into()], n_classes).unwrap();
            let mut weights = Vec::new();
            for _ in 0..3000 {
                let row = [
                    grid[(next() % 6) as usize],
                    (next() % 50) as f64 / 10.0,
                    (next() >> 11) as f64 / (1u64 << 53) as f64,
                ];
                let label = if row[0] + row[1] > 2.0 {
                    (next() % 3 == 0) as u32
                } else {
                    (next() % u64::from(n_classes)) as u32
                };
                ds.push_row(&row, label).unwrap();
                weights.push((next() % 4) as u32);
            }
            for min_leaf in [1usize, 40] {
                assert!(presorted_matches_materialized(&ds, &weights, min_leaf).is_some());
            }
        }
    }

    #[test]
    fn a_block_edge_boundary_takes_its_left_value_from_the_previous_block() {
        // Rows 0..2048 are class 0, the rest class 1: the only pure split
        // is the boundary before row 2048, the first row of a block.
        let n = 4200;
        let values: Vec<f64> = (0..n).map(f64::from).collect();
        let labels: Vec<u32> = (0..n).map(|i| u32::from(i >= 2048)).collect();
        let ds = one_feature(&values, &labels, 1);
        let split = presorted_matches_materialized(&ds, &vec![1; n as usize], 1).unwrap();
        assert_eq!((split.feature, split.n_left), (0, 2048));
        assert_eq!(split.threshold, 2047.5);
    }

    #[test]
    fn impurity_ties_across_blocks_go_to_the_earlier_boundary() {
        // Classes 0 | 1 | 0 in thirds of 1000 rows: the boundaries before
        // rows 1000 (block 3) and 2000 (block 7) both weigh 2000 · 0.5 over
        // 3000 samples, bit for bit; the first must win.
        let values: Vec<f64> = (0..3000).map(f64::from).collect();
        let labels: Vec<u32> = (0..3000)
            .map(|i| u32::from((1000..2000).contains(&i)))
            .collect();
        let ds = one_feature(&values, &labels, 2);
        let left = gini2_split_impurity(1000, 0, 1000, 1000);
        assert_eq!(
            left.to_bits(),
            gini2_split_impurity(1000, 1000, 1000, 0).to_bits()
        );
        let split = presorted_matches_materialized(&ds, &vec![1; 3000], 1).unwrap();
        assert_eq!((split.n_left, split.threshold), (1000, 999.5));
    }

    #[test]
    fn signed_zeros_across_a_block_edge_are_not_a_boundary() {
        // Sorted, rows 200..256 hold -0.0 (class 0) and rows 256..300 hold
        // +0.0 (class 1), so the zeros meet at a block edge. Counting them
        // as a boundary would split the classes perfectly there.
        let mut values: Vec<f64> = (0..200).map(|i| -f64::from(200 - i)).collect();
        values.extend([-0.0; 56]);
        values.extend([0.0; 44]);
        values.extend((1..=300).map(f64::from));
        let labels: Vec<u32> = (0..600).map(|i| u32::from(i >= 256)).collect();
        // Shuffled rows: the presort, not the push order, places the zeros.
        let order: Vec<usize> = (0..600).map(|i| i * 7 % 600).collect();
        let values: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        let labels: Vec<u32> = order.iter().map(|&i| labels[i]).collect();
        let ds = one_feature(&values, &labels, 0);
        let split = presorted_matches_materialized(&ds, &vec![1; 600], 1).unwrap();
        assert_ne!(split.n_left, 256);
        assert!(split.threshold != 0.0, "{split:?}");
    }

    #[test]
    fn min_samples_leaf_masks_boundaries_at_both_ends() {
        // Five class-1 rows at each end of 600; the middle is class 0
        // except every third row of 250..350. Rows carry weights 1-3 so
        // the masks count weighted samples, across both block edges.
        let values: Vec<f64> = (0..600).map(f64::from).collect();
        let labels: Vec<u32> = (0..600)
            .map(|i| u32::from(!(5..595).contains(&i) || ((250..350).contains(&i) && i % 3 == 0)))
            .collect();
        let weights: Vec<u32> = (0..600).map(|i| 1 + i % 3).collect();
        let ds = one_feature(&values, &labels, 0);
        let n: usize = weights.iter().map(|&w| w as usize).sum();
        let unmasked = presorted_matches_materialized(&ds, &weights, 1).unwrap();
        assert!(
            unmasked.n_left < 20 || unmasked.n_left > n - 20,
            "{unmasked:?}"
        );
        for min_leaf in [20usize, 300] {
            let masked = presorted_matches_materialized(&ds, &weights, min_leaf).unwrap();
            assert!(masked.n_left >= min_leaf && n - masked.n_left >= min_leaf);
        }
        assert!(presorted_matches_materialized(&ds, &weights, n / 2 + 1).is_none());
    }

    #[test]
    fn a_weight_above_31_bits_is_a_typed_error() {
        let ds = one_feature(&[0.0, 1.0], &[0, 1], 0);
        let mut weights = vec![1, 1 << 31];
        let too_heavy = DtreeError::InvalidHyperParameter {
            constraint: "a row weight must fit 31 bits",
        };
        assert_eq!(
            pack_weights(&mut weights, ds.labels()),
            Err(too_heavy.clone())
        );
        assert_eq!(weights, [1, 1 << 31], "a refused pack leaves the weights");
        let mut orders = row_orders(&ds).unwrap();
        let fit = TreeBuilder::new().fit_weighted(&ds, &mut orders, &mut weights, &mut Vec::new());
        assert_eq!(fit, Err(too_heavy));
        weights[1] = u32::MAX >> 1;
        let mut orders = row_orders(&ds).unwrap();
        let tree = TreeBuilder::new()
            .fit_weighted(&ds, &mut orders, &mut weights, &mut Vec::new())
            .unwrap();
        assert_eq!(tree.node(0).info.counts, [1, u64::from(u32::MAX >> 1)]);
    }
}
