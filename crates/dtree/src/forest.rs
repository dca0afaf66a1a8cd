//! Bootstrap tree ensembles: many CART trees, one smoother estimate.
//!
//! A single decision tree partitions the feature space with hard axis
//! splits, so any estimate attached to its leaves jumps discontinuously at
//! the split thresholds. Gerber, Jöckel & Kläs ("A Study on Mitigating
//! Hard Boundaries of Decision-Tree-based Uncertainty Estimates for AI
//! Models") show that *ensembles* of trees mitigate this: each member draws
//! its thresholds from a different bootstrap resample, so the averaged
//! estimate steps through many small boundaries instead of a few large
//! ones.
//!
//! This module provides the ensemble machinery the calibrated forest
//! quality impact model in `tauw-core` is built on:
//!
//! * [`ForestBuilder`] — trains `K` trees on **deterministic bootstrap
//!   resamples**: every tree's resample indices come from a private
//!   SplitMix64 stream seeded from `(root seed, tree index)`, and the
//!   per-tree fits fan out over [`parallel::par_map`] with input-order
//!   reduction, so the trained forest is **bit-identical for every thread
//!   budget** (the same contract [`TreeBuilder::fit`] honours).
//!   A resample is never materialized: the draws become per-row
//!   multiplicities (`u32` weights) and the member fits the original rows
//!   with them, which counts exactly as the drawn duplicates would. The
//!   feature orders are presorted once per forest; each member keeps the
//!   rows it drew (weight > 0) from them, so a member holds `u32` row
//!   orders, packed weights and a partition buffer, never a copy of the
//!   dataset, and each worker reuses one set of these buffers for all of
//!   its members.
//! * [`Forest`] — the trained pointer-tree ensemble (the transparent,
//!   reviewable form). `tauw-core` lowers each calibrated member to a
//!   [`crate::flat::FlatTree`] and serves the ensemble through its own
//!   lockstep kernel, packed from the members.

use crate::builder::TreeBuilder;
use crate::data::Dataset;
use crate::error::DtreeError;
use crate::splitter::row_orders;
use crate::tree::DecisionTree;

/// Minimal SplitMix64 PRNG (Steele et al. 2014), duplicated from
/// `tauw-stats` so `tauw-dtree` stays a leaf crate. Deterministic and more
/// than adequate for bootstrap index resampling; **not** cryptographic.
#[derive(Debug, Clone, Copy)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)` via Lemire's multiply-shift.
    fn next_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Builder/trainer for [`Forest`]s: `K` trees on deterministic bootstrap
/// resamples of the training data.
///
/// Per-tree hyper-parameters come from a [`TreeBuilder`] template; the
/// forest fans the member fits out over the thread budget (each member fit
/// runs serially — the parallelism is across trees), and the result is
/// bit-identical for every budget because member seeds are derived up
/// front and [`parallel::par_map`] reduces in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestBuilder {
    tree: TreeBuilder,
    n_trees: usize,
    seed: u64,
    n_threads: Option<usize>,
}

impl ForestBuilder {
    /// Creates a builder for `n_trees` members resampled from the root
    /// `seed`, with default [`TreeBuilder`] hyper-parameters.
    pub fn new(n_trees: usize, seed: u64) -> Self {
        ForestBuilder {
            tree: TreeBuilder::new(),
            n_trees,
            seed,
            n_threads: None,
        }
    }

    /// Sets the per-member tree hyper-parameters (depth, leaf minimum).
    /// Any thread budget pinned on the template is ignored: member fits
    /// run serially inside the forest fan-out.
    pub fn tree(&mut self, builder: TreeBuilder) -> &mut Self {
        self.tree = builder;
        self
    }

    /// Pins the thread budget for [`ForestBuilder::fit`] (clamped to ≥ 1).
    /// Unpinned builders use [`parallel::max_threads`]. The trained forest
    /// is bit-identical for every budget; only wall time changes.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.n_threads = Some(n.max(1));
        self
    }

    /// Trains the forest: member `t` fits on a bootstrap resample
    /// (`data.n_samples()` draws with replacement, applied as per-row
    /// multiplicities) whose indices come from a SplitMix64 stream seeded
    /// deterministically from `(seed, t)`.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::EmptyDataset`] if `data` has no samples and
    /// [`DtreeError::InvalidHyperParameter`] if `n_trees` is zero or `data`
    /// has more than `u32::MAX` samples.
    pub fn fit(&self, data: &Dataset) -> Result<Forest, DtreeError> {
        if self.n_trees == 0 {
            return Err(DtreeError::InvalidHyperParameter {
                constraint: "a forest needs at least one tree",
            });
        }
        // Derive every member's seed up front, serially, so the fan-out
        // below cannot perturb the resamples regardless of scheduling.
        let mut seeder = SplitMix64::new(self.seed);
        let member_seeds: Vec<u64> = (0..self.n_trees).map(|_| seeder.next_u64()).collect();

        let mut template = self.tree.clone();
        template.threads(1); // parallelism lives across members, not within
        let threads = self.n_threads.unwrap_or_else(parallel::max_threads).max(1);
        let orders = row_orders(data)?;
        // One contiguous run of members per worker, so each worker reuses
        // its weight, order and partition buffers from member to member (a
        // stable peak memory); the runs concatenate in seed order.
        let runs: Vec<&[u64]> = member_seeds
            .chunks(self.n_trees.div_ceil(threads))
            .collect();
        let members: Vec<Vec<Result<DecisionTree, DtreeError>>> =
            parallel::par_map(threads, &runs, |seeds| {
                let mut weights = vec![0u32; data.n_samples()];
                // Sized once for the largest possible resample: grown by
                // doubling instead, every reallocation would copy them and
                // leave the old blocks behind as holes in the heap.
                let mut member_orders = Vec::with_capacity(orders.len());
                let mut partition = Vec::with_capacity(data.n_samples());
                seeds
                    .iter()
                    .map(|&seed| {
                        bootstrap_weights(&mut weights, seed);
                        member_orders.clear();
                        member_orders
                            .extend(orders.iter().filter(|&&row| weights[row as usize] > 0));
                        template.fit_weighted(
                            data,
                            &mut member_orders,
                            &mut weights,
                            &mut partition,
                        )
                    })
                    .collect()
            });
        let mut trees = Vec::with_capacity(self.n_trees);
        for member in members.into_iter().flatten() {
            trees.push(member?);
        }
        Ok(Forest { trees })
    }
}

/// Bootstrap multiplicities: `weights.len()` draws with replacement from
/// as many rows, written as each row's draw count.
fn bootstrap_weights(weights: &mut [u32], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    weights.fill(0);
    for _ in 0..weights.len() {
        weights[rng.next_index(weights.len())] += 1;
    }
}

/// A trained bootstrap ensemble of pointer trees — the transparent,
/// reviewable form (each member exports/prints like any
/// [`DecisionTree`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    trees: Vec<DecisionTree>,
}

impl Forest {
    /// Assembles a forest from already-trained trees, validating that the
    /// members agree on feature arity and class count.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::InvalidHyperParameter`] for an empty member
    /// list or members trained on incompatible shapes.
    pub fn from_trees(trees: Vec<DecisionTree>) -> Result<Self, DtreeError> {
        let Some(first) = trees.first() else {
            return Err(DtreeError::InvalidHyperParameter {
                constraint: "a forest needs at least one tree",
            });
        };
        for tree in &trees {
            if tree.n_features() != first.n_features() || tree.n_classes() != first.n_classes() {
                return Err(DtreeError::InvalidHyperParameter {
                    constraint: "all forest members must share feature arity and class count",
                });
            }
        }
        Ok(Forest { trees })
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// All member trees, in training order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Consumes the forest, returning the member trees.
    pub fn into_trees(self) -> Vec<DecisionTree> {
        self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatTree;

    /// Draws `data.n_samples()` rows with replacement into a fresh
    /// dataset: the materialized resample the multiplicity bootstrap must
    /// reproduce.
    fn bootstrap_resample(data: &Dataset, seed: u64) -> Dataset {
        let n = data.n_samples();
        let mut rng = SplitMix64::new(seed);
        let mut resample = Dataset::new(data.feature_names().to_vec(), data.n_classes()).unwrap();
        for _ in 0..n {
            let i = rng.next_index(n);
            let row: Vec<f64> = (0..data.n_features()).map(|f| data.value(i, f)).collect();
            resample.push_row(&row, data.label(i)).unwrap();
        }
        resample
    }

    /// The forest as it was built before multiplicity weights: member `t`
    /// fits a materialized resample, serially.
    fn reference_forest(builder: &ForestBuilder, data: &Dataset) -> Forest {
        let mut seeder = SplitMix64::new(builder.seed);
        let trees = (0..builder.n_trees)
            .map(|_| {
                let resample = bootstrap_resample(data, seeder.next_u64());
                builder.tree.clone().threads(1).fit(&resample).unwrap()
            })
            .collect();
        Forest::from_trees(trees).unwrap()
    }

    #[test]
    fn multiplicity_bootstrap_matches_materialized_resamples() {
        // Two tied features (a coarse grid with both signed zeros) and one
        // continuous one; three classes so the multi-class scan runs too.
        let mut state = 17u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let grid = [-1.0, -0.0, 0.0, 0.5, 2.0];
        for n_classes in [2, 3] {
            let mut ds = Dataset::new(vec!["a".into(), "b".into(), "c".into()], n_classes).unwrap();
            for _ in 0..1500 {
                let row = [
                    grid[(next() * 5.0) as usize],
                    (next() * 6.0).floor(),
                    next(),
                ];
                let label = if row[0] + row[2] > 0.8 {
                    u32::from(next() < 0.8)
                } else {
                    (next() * f64::from(n_classes)) as u32
                };
                ds.push_row(&row, label).unwrap();
            }
            for n_trees in [1usize, 16] {
                let mut b = ForestBuilder::new(n_trees, 0xB007 + n_trees as u64);
                b.tree(TreeBuilder::new().max_depth(6).clone());
                let reference = reference_forest(&b, &ds);
                for threads in [1usize, 2, 8] {
                    let forest = b.clone().threads(threads).fit(&ds).unwrap();
                    assert_eq!(forest, reference, "{n_trees} trees, threads={threads}");
                }
            }
        }
    }

    /// Failure iff x > 0.5, with a pinch of label noise so bootstrap
    /// resamples actually produce distinct trees.
    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..n {
            let x = i as f64 / n as f64;
            let noisy = i % 37 == 0;
            ds.push_row(&[x], u32::from((x > 0.5) ^ noisy)).unwrap();
        }
        ds
    }

    fn builder(k: usize, seed: u64) -> ForestBuilder {
        let mut b = ForestBuilder::new(k, seed);
        b.tree(TreeBuilder::new().max_depth(4).clone());
        b
    }

    #[test]
    fn forest_training_is_bit_identical_across_thread_budgets() {
        let ds = dataset(400);
        let serial = builder(8, 42).threads(1).fit(&ds).unwrap();
        let serial_json = serde_json::to_string(&serial.trees().to_vec()).unwrap();
        for threads in [2usize, 4, 8] {
            let par = builder(8, 42).threads(threads).fit(&ds).unwrap();
            assert_eq!(serial, par, "threads={threads}");
            assert_eq!(
                serial_json,
                serde_json::to_string(&par.trees().to_vec()).unwrap()
            );
        }
    }

    #[test]
    fn bootstrap_members_differ_but_seeds_reproduce() {
        let ds = dataset(400);
        let forest = builder(6, 1).fit(&ds).unwrap();
        assert_eq!(forest.n_trees(), 6);
        assert!(
            forest.trees().windows(2).any(|w| w[0] != w[1]),
            "distinct resamples should yield at least one distinct member"
        );
        let again = builder(6, 1).fit(&ds).unwrap();
        assert_eq!(forest, again, "same root seed, same forest");
        let other = builder(6, 2).fit(&ds).unwrap();
        assert_ne!(forest, other, "different root seed, different resamples");
    }

    #[test]
    fn lowered_members_route_like_their_pointer_trees() {
        let ds = dataset(300);
        let forest = builder(5, 9).fit(&ds).unwrap();
        // NaN rows route right in every member, like the pointer members.
        let rows = (0..50).map(|i| [i as f64 / 49.0]).chain([[f64::NAN]]);
        for row in rows {
            for tree in forest.trees() {
                let flat = FlatTree::from_tree(tree);
                let leaf = flat.predict_leaf_id(&row).unwrap();
                assert_eq!(flat.leaf_node(leaf), tree.leaf_id(&row).unwrap());
            }
        }
    }

    #[test]
    fn degenerate_configurations_are_rejected() {
        let ds = dataset(50);
        assert!(matches!(
            ForestBuilder::new(0, 1).fit(&ds),
            Err(DtreeError::InvalidHyperParameter { .. })
        ));
        let empty = Dataset::new(vec!["x".into()], 2).unwrap();
        assert_eq!(
            ForestBuilder::new(2, 1).fit(&empty),
            Err(DtreeError::EmptyDataset)
        );
        assert!(matches!(
            Forest::from_trees(Vec::new()),
            Err(DtreeError::InvalidHyperParameter { .. })
        ));
    }

    #[test]
    fn from_trees_rejects_mismatched_members() {
        let one = TreeBuilder::new().fit(&dataset(80)).unwrap();
        let mut two_features = Dataset::new(vec!["a".into(), "b".into()], 2).unwrap();
        for i in 0..80 {
            two_features
                .push_row(&[i as f64, 0.0], u32::from(i >= 40))
                .unwrap();
        }
        let other = TreeBuilder::new().fit(&two_features).unwrap();
        assert!(matches!(
            Forest::from_trees(vec![one.clone(), other]),
            Err(DtreeError::InvalidHyperParameter { .. })
        ));
        // A single-member forest is the degenerate-but-valid case.
        let single = Forest::from_trees(vec![one]).unwrap();
        assert_eq!(single.n_trees(), 1);
    }
}
