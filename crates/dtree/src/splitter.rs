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
//! grows (SLIQ-style), so no node ever sorts. The exact search walks a
//! feature's segment once, accumulating per-class counts and evaluating
//! the split impurity at every boundary between distinct values. Rows are
//! gathered in blocks of 256 (value, label, weight) before the scan, so
//! the random reads of a block overlap; values stay in the dataset, with
//! no sorted copy. Two-class nodes, the paper's case, run through an
//! inline Gini kernel whose floating-point operations are exactly those of
//! [`gini_split_impurity`]; multi-class nodes call it directly.
//!
//! Rows carry integer **weights** (multiplicities): a row of weight `w`
//! counts as `w` identical samples. Unit weights are a plain fit; a forest
//! member fits on its bootstrap draw counts
//! ([`crate::forest::ForestBuilder`]).
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
//! The search fans out across features on a thread budget. Per-feature
//! candidates are computed independently and reduced sequentially in
//! feature order with the same comparison as the serial loop, so the
//! selected split is **bit-identical** for every thread count.

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
/// CART; what scikit-learn's `best` splitter does) and sorting the node's
/// samples afresh for every feature. The tree builder never calls
/// it (it keeps presorted segments instead); it is the per-node reference
/// the presorted search is tested against, and a standalone entry point.
///
/// `parent_counts` are the per-class counts over `idx` (precomputed by the
/// caller). Returns `None` when no split satisfies `min_samples_leaf` or
/// yields positive gain.
///
/// # Panics
///
/// Panics if an index in `idx` is out of bounds or above `u32::MAX`.
pub fn find_best_split(
    data: &Dataset,
    idx: &[usize],
    parent_counts: &[u64],
    min_samples_leaf: usize,
) -> Option<BestSplit> {
    let rows: Vec<u32> = idx
        .iter()
        .map(|&i| u32::try_from(i).expect("row index exceeds u32::MAX"))
        .collect();
    let segments: Vec<Vec<u32>> = (0..data.n_features())
        .map(|feature| {
            let mut segment = rows.clone();
            segment.sort_by(|&a, &b| {
                data.value(a as usize, feature)
                    .total_cmp(&data.value(b as usize, feature))
            });
            segment
        })
        .collect();
    let weights = vec![1u32; data.n_samples()];
    best_split(
        data,
        &weights,
        &segments,
        parent_counts,
        min_samples_leaf,
        1,
    )
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
        keyed.clear();
        keyed.extend((0..n_u32).map(|i| (total_order_key(data.value(i as usize, feature)), i)));
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

/// Searches a node given as segments holding its rows, with per-row
/// `weights`, fanning the features out over up to `threads` workers.
/// `segments[f]` holds the node's rows sorted by feature `f`.
///
/// The result is bit-identical for every budget: each feature's candidate
/// is computed independently and the winner is reduced sequentially in
/// ascending feature order, preferring the lower feature index on equal
/// gain exactly like a serial loop.
pub(crate) fn best_split<S>(
    data: &Dataset,
    weights: &[u32],
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
        weights,
        parent_counts,
        min_samples_leaf: min_samples_leaf as u64,
    };
    let search_feature = |feature: usize| -> Option<BestSplit> {
        node.exact(&segments[feature], feature).and_then(|c| {
            let gain = parent_impurity - c.weighted_impurity;
            (gain > 1e-12).then_some(BestSplit {
                feature,
                threshold: c.threshold,
                gain,
                n_left: c.n_left as usize,
            })
        })
    };

    let n_features = data.n_features();
    let n_rows = segments[0].len();
    let per_feature: Vec<Option<BestSplit>> =
        if threads > 1 && n_features > 1 && n_rows * n_features >= PARALLEL_SPLIT_MIN_WORK {
            let features: Vec<usize> = (0..n_features).collect();
            parallel::par_map(threads, &features, |&feature| search_feature(feature))
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

struct Candidate {
    threshold: f64,
    weighted_impurity: f64,
    n_left: u64,
}

/// The per-node inputs every feature's scan shares.
struct NodeScan<'a> {
    data: &'a Dataset,
    weights: &'a [u32],
    parent_counts: &'a [u64],
    min_samples_leaf: u64,
}

/// Rows gathered per block of the exact scan. The gather loop has no
/// data-dependent branches, so the (cache-missing) loads of a whole block
/// overlap; the scan then branches over values already in L1.
const SCAN_BLOCK: usize = 256;

/// Left/right class counts of a scan in progress.
trait ScanCounts {
    /// Moves `w` samples of class `label` from the right side to the left.
    fn add(&mut self, label: u32, w: u64);
    /// Samples on the left.
    fn n_left(&self) -> u64;
    /// Weighted child impurity of the current left/right counts.
    fn split_impurity(&self) -> f64;
}

/// Two-class Gini counts, evaluated by [`gini2_split_impurity`].
struct Gini2 {
    left: [u64; 2],
    parent: [u64; 2],
}

impl ScanCounts for Gini2 {
    #[inline]
    fn add(&mut self, label: u32, w: u64) {
        self.left[label as usize] += w;
    }

    #[inline]
    fn n_left(&self) -> u64 {
        self.left[0] + self.left[1]
    }

    #[inline]
    fn split_impurity(&self) -> f64 {
        let [l0, l1] = self.left;
        let [p0, p1] = self.parent;
        gini2_split_impurity(l0, l1, p0 - l0, p1 - l1)
    }
}

/// Any class count, through [`gini_split_impurity`].
struct Generic {
    left: Vec<u64>,
    right: Vec<u64>,
    n_left: u64,
}

impl ScanCounts for Generic {
    fn add(&mut self, label: u32, w: u64) {
        self.left[label as usize] += w;
        self.right[label as usize] -= w;
        self.n_left += w;
    }

    fn n_left(&self) -> u64 {
        self.n_left
    }

    fn split_impurity(&self) -> f64 {
        gini_split_impurity(&self.left, &self.right)
    }
}

impl NodeScan<'_> {
    /// Exact scan over a segment sorted by `feature`.
    fn exact(&self, rows: &[u32], feature: usize) -> Option<Candidate> {
        match *self.parent_counts {
            [p0, p1] => self.scan(
                rows,
                feature,
                Gini2 {
                    left: [0; 2],
                    parent: [p0, p1],
                },
            ),
            ref parent => self.scan(
                rows,
                feature,
                Generic {
                    left: vec![0; parent.len()],
                    right: parent.to_vec(),
                    n_left: 0,
                },
            ),
        }
    }

    /// Walks the segment in ascending value order, evaluating every
    /// boundary between distinct values before the row after it joins the
    /// left side.
    fn scan<C: ScanCounts>(
        &self,
        rows: &[u32],
        feature: usize,
        mut counts: C,
    ) -> Option<Candidate> {
        let (data, labels) = (self.data, self.data.labels());
        let n: u64 = self.parent_counts.iter().sum();
        let mut best: Option<Candidate> = None;
        // No value exceeds +inf, so the first row never closes a boundary.
        let mut prev_v = f64::INFINITY;
        let mut block = [(0.0f64, 0u32, 0u32); SCAN_BLOCK];
        for chunk in rows.chunks(SCAN_BLOCK) {
            for (slot, &row) in block.iter_mut().zip(chunk) {
                let row = row as usize;
                *slot = (data.value(row, feature), labels[row], self.weights[row]);
            }
            for &(v, label, w) in &block[..chunk.len()] {
                // `v > prev_v` is a boundary between distinct values;
                // bit-different equal values (-0.0, +0.0) are not.
                if v > prev_v {
                    let n_left = counts.n_left();
                    if n_left >= self.min_samples_leaf && n - n_left >= self.min_samples_leaf {
                        let w = counts.split_impurity();
                        if best.as_ref().is_none_or(|b| w < b.weighted_impurity) {
                            // Midpoint threshold, like CART; falls back to
                            // the left value if the midpoint rounds onto
                            // the right value.
                            let mut threshold = 0.5 * (prev_v + v);
                            if threshold >= v {
                                threshold = prev_v;
                            }
                            best = Some(Candidate {
                                threshold,
                                weighted_impurity: w,
                                n_left,
                            });
                        }
                    }
                }
                counts.add(label, u64::from(w));
                prev_v = v;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let counts = ds.class_counts();
        let split = find_best_split(&ds, &idx, &counts, 1).expect("split must exist");
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
        let counts = ds.class_counts();
        assert!(find_best_split(&ds, &idx, &counts, 1).is_none());
    }

    #[test]
    fn constant_features_yield_no_split() {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..6 {
            ds.push_row(&[1.0], u32::from(i % 2 == 0)).unwrap();
        }
        let idx: Vec<usize> = (0..6).collect();
        let counts = ds.class_counts();
        assert!(find_best_split(&ds, &idx, &counts, 1).is_none());
    }

    #[test]
    fn min_samples_leaf_constrains_split() {
        let (ds, idx) = two_cluster_data();
        let counts = ds.class_counts();
        // Requiring 11 samples per side makes the 10/10 split infeasible.
        assert!(find_best_split(&ds, &idx, &counts, 11).is_none());
    }

    #[test]
    fn threshold_routes_boundary_left() {
        // Values 0 and 1; the threshold must be strictly below 1 so that
        // a query at 1.0 goes right of a 0/1 boundary... i.e. `<=` semantics
        // with a midpoint threshold of 0.5.
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        ds.push_row(&[0.0], 0).unwrap();
        ds.push_row(&[1.0], 1).unwrap();
        let counts = ds.class_counts();
        let split = find_best_split(&ds, &[0, 1], &counts, 1).unwrap();
        assert!((split.threshold - 0.5).abs() < 1e-12);
    }

    #[test]
    fn subset_of_indices_is_respected() {
        let (ds, _) = two_cluster_data();
        // Only class-0 samples: node is pure, no split.
        let idx: Vec<usize> = (0..10).collect();
        let mut counts = vec![0u64; 2];
        for &i in &idx {
            counts[ds.label(i) as usize] += 1;
        }
        assert!(find_best_split(&ds, &idx, &counts, 1).is_none());
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

    #[test]
    fn presorted_weighted_search_matches_materialized_search_for_every_budget() {
        // Heavy ties (values on a coarse grid, -0.0 and +0.0 both present)
        // and large enough to clear PARALLEL_SPLIT_MIN_WORK with 3 features.
        let mut next = rng(7);
        let grid = [-2.0, -0.0, 0.0, 0.5, 1.0, 7.25];
        for n_classes in [2u32, 5] {
            let names = vec!["a".into(), "b".into(), "c".into()];
            let mut ds = Dataset::new(names.clone(), n_classes).unwrap();
            let mut weights = Vec::new();
            let mut materialized = Dataset::new(names, n_classes).unwrap();
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
                let w = (next() % 4) as u32;
                weights.push(w);
                for _ in 0..w {
                    materialized.push_row(&row, label).unwrap();
                }
            }
            let idx: Vec<usize> = (0..materialized.n_samples()).collect();
            let counts = materialized.class_counts();
            let segments: Vec<Vec<u32>> = presorted_segments(&ds)
                .into_iter()
                .map(|s| s.into_iter().filter(|&r| weights[r as usize] > 0).collect())
                .collect();
            for min_leaf in [1usize, 40] {
                let reference = find_best_split(&materialized, &idx, &counts, min_leaf).unwrap();
                for threads in [1usize, 2, 8] {
                    let presorted =
                        best_split(&ds, &weights, &segments, &counts, min_leaf, threads).unwrap();
                    let what = format!("{n_classes} {min_leaf} {threads}");
                    assert_eq!(reference, presorted, "{what}");
                    assert_eq!(reference.gain.to_bits(), presorted.gain.to_bits(), "{what}");
                    assert_eq!(
                        reference.threshold.to_bits(),
                        presorted.threshold.to_bits(),
                        "{what}"
                    );
                }
            }
        }
    }
}
