//! Calibrated quality impact models: decision trees (and bootstrap
//! ensembles of them) whose leaves carry dependable (one-sided,
//! high-confidence) failure-probability bounds.
//!
//! The paper's procedure (Section IV-C.2): train a CART tree on the
//! training data, prune on the *calibration* set so every leaf keeps at
//! least 200 calibration samples, then compute a statistical uncertainty
//! guarantee per leaf at confidence 0.999.
//!
//! [`CalibratedForestQim`] applies that per-tree procedure to every member
//! of a [`Forest`] and reports the **mean** of the members' bounds — the
//! hard-boundary mitigation of Gerber, Jöckel & Kläs: one tree's estimate
//! jumps discontinuously at its split thresholds, while an ensemble
//! average steps through many small boundaries. The paper's single tree is
//! the one-member model (`Forest::from_trees(vec![tree])`): the mean of one
//! bound is that bound, and it serves through the tree's own flat walk.
//!
//! **The backend seam.** [`TaQim`] is the closed set of backend shapes a
//! wrapper serves — a plain enum, so every lookup is a statically
//! dispatched `match`. Its per-sample methods are the one serving surface:
//! [`TaQim::uncertainty`] (the bound), [`TaQim::uncertainty_with_support`]
//! (the bound plus its [`RouteSupport`] from one traversal, what the
//! adaptive step calls), a bitwise [`TaQim::uncertainty_reference`]
//! recompute, and structural [`TaQim::validate`]. The split-conformal
//! backend ([`ConformalQim`]) is the non-tree member of the set.
//!
//! **Adding a backend.** A new tree-shaped estimator is not a new backend:
//! build its trees into a [`Forest`] and calibrate a
//! [`CalibratedForestQim`]. Any other model type implements those
//! per-sample methods (plus a deterministic `calibrate` constructor) and
//! adds a [`TaQim`] variant and its dispatch arms, a `BackendSpec` variant
//! in `crate::tauw`, an `ArtifactKind` in `crate::persist` with
//! round-trip/tamper/version tests, and a case in the backend proptests in
//! `tests/properties.rs`. The engine and session layers need no changes —
//! they only call [`TaQim`].

use crate::conformal::ConformalQim;
use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use tauw_dtree::prune::prune_to_min_count;
use tauw_dtree::{DecisionTree, DtreeError, FlatTree, Forest, NodeId, NodeKind};
use tauw_stats::binomial::{upper_bound, BoundMethod};

/// Calibration statistics and the resulting bound for one leaf.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibratedLeaf {
    /// Observed failures among the calibration samples routed to the leaf.
    pub failures: u64,
    /// Calibration samples routed to the leaf.
    pub total: u64,
    /// One-sided upper confidence bound on the failure probability: the
    /// *dependable uncertainty* reported for inputs landing in this leaf.
    pub uncertainty_bound: f64,
}

impl CalibratedLeaf {
    /// Point estimate `failures / total`.
    pub fn point_estimate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.failures as f64 / self.total as f64
        }
    }
}

/// Hyper-parameters of the calibration step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationOptions {
    /// Minimum calibration samples per leaf (paper: 200).
    pub min_samples_per_leaf: u64,
    /// Confidence level of the per-leaf bound (paper: 0.999).
    pub confidence: f64,
    /// Bound construction method (paper: exact/Clopper–Pearson).
    pub method: BoundMethod,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            min_samples_per_leaf: 200,
            confidence: 0.999,
            method: BoundMethod::ClopperPearson,
        }
    }
}

impl CalibrationOptions {
    /// Checks the options are usable *before* calibration starts, so a
    /// bad `confidence` fails at the entry point with an error naming the
    /// field instead of surfacing deep inside the binomial bound
    /// computation mid-calibration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when `confidence` is
    /// non-finite, ≤ 0, or ≥ 1 (a one-sided confidence level must lie
    /// strictly inside the open unit interval).
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.confidence.is_finite() || self.confidence <= 0.0 || self.confidence >= 1.0 {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "calibration options: `confidence` must be a finite value strictly between \
                     0 and 1, got {}",
                    self.confidence
                ),
            });
        }
        Ok(())
    }
}

/// Caller-owned reusable buffer for the serving hot path.
///
/// The per-step routines assemble a `[stateless QFs ‖ selected taQFs]`
/// feature row. Keeping it in a `ServingScratch` that outlives the step
/// loop makes the steady-state serving path allocation-free: the row
/// grows to its working size on the first step and is reused verbatim
/// afterwards.
///
/// A fresh (default) scratch is always valid — every routine clears the
/// row before filling it, so no state leaks between steps, sessions, or
/// models. Sessions and engine wave slots own one scratch each;
/// standalone callers create one next to their step loop.
#[derive(Debug, Clone, Default)]
pub struct ServingScratch {
    /// The assembled taQIM feature row `[stateless QFs ‖ selected taQFs]`.
    pub(crate) features: Vec<f64>,
}

impl ServingScratch {
    /// Creates an empty scratch; the buffers grow on first use and are
    /// reused from then on.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Calibration support behind a served bound, as reported by
/// [`TaQim::uncertainty_with_support`] and [`TaQim::route_support`].
///
/// Tree-shaped backends know exactly how many calibration samples routed
/// to the leaf that produced a bound and report
/// [`RouteSupport::Samples`]. Leafless backends (e.g. the split-conformal
/// model, whose quantile is a property of the whole calibration split)
/// have no per-region figure to report and say so **explicitly** with
/// [`RouteSupport::Unsupported`] — the adaptive layer then classifies
/// undercoverage as
/// [`DriftSignal::SupportUnavailable`](crate::adaptive::DriftSignal)
/// instead of silently defaulting the epistemic/aleatoric split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteSupport {
    /// The routed region's calibration-sample count.
    Samples(u64),
    /// The backend keeps no per-region calibration counts.
    Unsupported,
}

impl RouteSupport {
    /// The sample count, or `None` for [`RouteSupport::Unsupported`].
    pub fn samples(self) -> Option<u64> {
        match self {
            RouteSupport::Samples(n) => Some(n),
            RouteSupport::Unsupported => None,
        }
    }
}

/// The canonical ordering key of one calibrated member: the serialized
/// pruned tree. Members are stored (and summed) in ascending key order, so
/// the assembled model — and therefore every served estimate, bit for bit
/// — is independent of the order the trees were supplied in.
fn member_key(tree: &DecisionTree) -> String {
    serde_json::to_string(tree).expect("a decision tree always serializes")
}

/// A calibrated quality impact model: `K ≥ 1` routing trees, each pruned
/// and bounded by the paper's per-tree procedure, whose served uncertainty
/// is the **mean of the members' calibrated leaf bounds**. At `K = 1` this
/// is the paper's single calibrated tree.
///
/// Why a forest: a single tree's bound jumps discontinuously at its split
/// thresholds (the *hard boundary* problem — an input 1 mm either side of
/// a threshold can see a very different guarantee). Averaging `K`
/// bootstrap-trained members replaces the few large jumps with many small
/// ones, smoothing the estimate while each member's bound keeps its
/// per-leaf statistical pedigree.
///
/// The model is stored once, as its source: the pruned pointer
/// [`DecisionTree`] members with their [`NodeId`]-indexed calibration
/// records (the transparent form for review, export, explanations and the
/// bitwise reference path), the calibration options and the served
/// minimum. These four fields are all an artifact carries. Every serving
/// form is derived from them, by calibration and by loading alike: one
/// compiled [`FlatTree`] per member with a dense
/// [`LeafId`](tauw_dtree::LeafId)-indexed bound array, and from `K = 2` on
/// the lockstep kernel.
///
/// Determinism contract:
///
/// * members are stored in a **canonical order** (sorted by serialized
///   form at calibration), so the mean — summed left-to-right over that
///   order — is bit-identical no matter how the input [`Forest`] ordered
///   its trees;
/// * at `K = 1` the mean degenerates to `bound / 1.0`, which is exactly
///   the member's bound, so the one-member model serves through member 0's
///   flat walk and one bound load (asserted bitwise against the pointer
///   reference by proptest);
/// * from `K = 2` on, serving walks all members in lockstep over one packed
///   node array derived from the members, then reads each member's bound
///   and calibration support
///   from one leaf table — one walk plus one load per member, no
///   allocation; the pointer members stay aboard as the per-member
///   references ([`CalibratedForestQim::uncertainty_reference`]).
///
/// # Examples
///
/// ```
/// use tauw_core::calibration::{CalibratedForestQim, CalibrationOptions};
/// use tauw_dtree::{Dataset, ForestBuilder, TreeBuilder};
///
/// // Failure iff x > 0.5; train a 4-member bootstrap forest on it.
/// let mut ds = Dataset::new(vec!["x".into()], 2)?;
/// for i in 0..400 {
///     let x = i as f64 / 400.0;
///     ds.push_row(&[x], u32::from(x > 0.5))?;
/// }
/// let mut builder = ForestBuilder::new(4, 7);
/// builder.tree(TreeBuilder::new().max_depth(4).clone());
/// let forest = builder.fit(&ds)?;
///
/// // Calibrate every member on held-out samples, then query the mean
/// // of the per-member dependable bounds.
/// let calib: Vec<(Vec<f64>, bool)> = (0..1000)
///     .map(|i| {
///         let x = (i as f64 + 0.5) / 1000.0;
///         (vec![x], x > 0.5)
///     })
///     .collect();
/// let qim = CalibratedForestQim::calibrate(
///     forest,
///     &calib,
///     CalibrationOptions { min_samples_per_leaf: 100, ..Default::default() },
/// )?;
/// assert_eq!(qim.n_trees(), 4);
/// let low = qim.uncertainty(&[0.1])?;
/// let high = qim.uncertainty(&[0.9])?;
/// assert!(low < 0.2 && high > 0.8, "low {low}, high {high}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedForestQim {
    /// Pruned pointer members in canonical order (transparency/reference).
    trees: Vec<DecisionTree>,
    /// Per-member [`NodeId`]-indexed calibration records.
    leaves: Vec<Vec<Option<CalibratedLeaf>>>,
    options: CalibrationOptions,
    /// The smallest uncertainty the ensemble *actually served* over the
    /// calibration set (min over calibration-sample routings) — the
    /// attainable floor [`CalibratedForestQim::min_uncertainty`] reports.
    min_served_bound: f64,
    /// Derived: the compiled form, one flat tree per member.
    flat: Vec<FlatTree>,
    /// Derived: per-member uncertainty bounds indexed by
    /// [`LeafId`](tauw_dtree::LeafId).
    leaf_bounds: Vec<Vec<f64>>,
    /// Derived: the lockstep serving form for `K ≥ 2`; `None` for a
    /// one-member model.
    kernel: Option<ForestKernel>,
}

impl Serialize for CalibratedForestQim {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("trees".to_string(), self.trees.serialize()),
            ("leaves".to_string(), self.leaves.serialize()),
            ("options".to_string(), self.options.serialize()),
            (
                "min_served_bound".to_string(),
                self.min_served_bound.serialize(),
            ),
        ])
    }
}

impl Deserialize for CalibratedForestQim {
    /// Reads the four stored fields, runs
    /// [`CalibratedForestQim::validate`] on them, and only then derives the
    /// serving forms, so a hostile payload never reaches a serving walk.
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "CalibratedForestQim")?;
        let field = |name| serde::__field(map, name, "CalibratedForestQim");
        let stored = CalibratedForestQim {
            trees: Deserialize::deserialize(field("trees")?)?,
            leaves: Deserialize::deserialize(field("leaves")?)?,
            options: Deserialize::deserialize(field("options")?)?,
            min_served_bound: Deserialize::deserialize(field("min_served_bound")?)?,
            flat: Vec::new(),
            leaf_bounds: Vec::new(),
            kernel: None,
        };
        stored
            .validate()
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(stored.assemble())
    }
}

/// Members walked together by [`ForestKernel`]: a fixed block width, so a
/// block's lanes live in one stack array and every level is one pass over
/// its live lanes, whose loads do not depend on each other.
const LANES: usize = 8;

/// One node of [`ForestKernel`]'s packed array. A split sends
/// `x[feature] <= threshold` to `children[0]` and everything else — NaN
/// included — to `children[1]`, the pointer tree's rule. A leaf points both
/// children back at itself and reads feature 0, so a walk that has reached
/// it stays there.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedNode {
    threshold: f64,
    feature: u32,
    children: [u32; 2],
}

/// Up to [`LANES`] consecutive members (in canonical order) walked in
/// lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LaneBlock {
    /// Root slot per lane; lanes past `lanes` are never walked.
    roots: [u32; LANES],
    /// Live lanes, i.e. members in this block.
    lanes: usize,
    /// Levels walked: the depth of the block's deepest member, after which
    /// every lane sits on its leaf.
    depth: usize,
}

/// The forest's serving form: every member's reachable nodes in one
/// packed array (pre-order per member), walked [`LANES`] members at a time
/// for a fixed number of levels with no leaf-exit branch, plus one
/// slot-indexed leaf table of `(uncertainty bound, calibration samples)`.
///
/// Derived from a validated model by [`ForestKernel::build`]; it holds
/// nothing the serialized fields do not determine.
#[derive(Debug, Clone, PartialEq)]
struct ForestKernel {
    nodes: Vec<PackedNode>,
    /// `(uncertainty_bound, total)` per slot; read at leaf slots only.
    leaves: Vec<(f64, u64)>,
    blocks: Vec<LaneBlock>,
    n_features: usize,
    n_members: usize,
}

impl ForestKernel {
    /// Packs the members of a model that has passed
    /// [`CalibratedForestQim::validate`]: every reachable leaf carries a
    /// calibration record and a bound at its depth-first [`LeafId`](tauw_dtree::LeafId).
    ///
    /// Returns `None` for a one-member model. Its flat walk stops at the
    /// leaf, while a one-lane block walks to the tree's full depth: on the
    /// depth-8 wrapper trees that measured 1.5-2x slower per lookup on a
    /// 2-vCPU guest.
    fn build(qim: &CalibratedForestQim) -> Option<Self> {
        if qim.trees.len() < 2 {
            return None;
        }
        let mut kernel = ForestKernel {
            nodes: Vec::new(),
            leaves: Vec::new(),
            blocks: Vec::with_capacity(qim.trees.len().div_ceil(LANES)),
            n_features: qim.n_features(),
            n_members: qim.trees.len(),
        };
        let members = qim.trees.iter().zip(&qim.leaves).zip(&qim.leaf_bounds);
        for (t, ((tree, records), bounds)) in members.enumerate() {
            if t % LANES == 0 {
                kernel.blocks.push(LaneBlock {
                    roots: [0; LANES],
                    lanes: 0,
                    depth: 0,
                });
            }
            let block = kernel.blocks.last_mut().expect("pushed above");
            block.roots[block.lanes] = kernel.nodes.len() as u32;
            block.lanes += 1;
            // Pre-order, left before right, so leaves meet their `LeafId`s
            // in order, as in `FlatTree::from_tree`. Entries are (node,
            // parent slot, side, depth); the root has no parent slot.
            let mut leaf_id = 0;
            let mut stack: Vec<(NodeId, usize, usize, usize)> = vec![(0, usize::MAX, 0, 0)];
            while let Some((id, parent, side, depth)) = stack.pop() {
                let slot = kernel.nodes.len();
                if parent != usize::MAX {
                    kernel.nodes[parent].children[side] = slot as u32;
                }
                block.depth = block.depth.max(depth);
                match tree.node(id).kind {
                    NodeKind::Leaf => {
                        kernel.nodes.push(PackedNode {
                            threshold: 0.0,
                            feature: 0,
                            children: [slot as u32; 2],
                        });
                        let total = records[id].map_or(0, |leaf| leaf.total);
                        kernel.leaves.push((bounds[leaf_id], total));
                        leaf_id += 1;
                    }
                    NodeKind::Internal {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        kernel.nodes.push(PackedNode {
                            threshold,
                            feature: feature as u32,
                            children: [0, 0],
                        });
                        kernel.leaves.push((0.0, 0));
                        stack.push((right, slot, 1, depth + 1));
                        stack.push((left, slot, 0, depth + 1));
                    }
                }
            }
        }
        Some(kernel)
    }

    /// Walks `x` through every member and returns the mean of the members'
    /// bounds, summed left to right in canonical order, and the minimum of
    /// their calibration supports.
    ///
    /// Kept out of line: inlined, the walk's register saves and stack frame
    /// land on the one-member lookup that shares its caller.
    #[inline(never)]
    fn serve(&self, x: &[f64]) -> Result<(f64, u64), CoreError> {
        if x.len() != self.n_features {
            return Err(DtreeError::PredictArityMismatch {
                expected: self.n_features,
                actual: x.len(),
            }
            .into());
        }
        let mut sum = 0.0;
        let mut support = u64::MAX;
        for block in &self.blocks {
            let mut at = block.roots;
            for _ in 0..block.depth {
                for slot in &mut at[..block.lanes] {
                    let node = &self.nodes[*slot as usize];
                    let go_left = x[node.feature as usize] <= node.threshold;
                    *slot = node.children[usize::from(!go_left)];
                }
            }
            for &slot in &at[..block.lanes] {
                let (bound, total) = self.leaves[slot as usize];
                sum += bound;
                support = support.min(total);
            }
        }
        Ok((sum / self.n_members as f64, support))
    }
}

impl CalibratedForestQim {
    /// Calibrates every member of a trained forest against a calibration
    /// set — the single-tree procedure (route, prune to the per-leaf
    /// minimum, bound at the configured confidence), applied per member —
    /// and stores the members in canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the options are invalid (see
    /// [`CalibrationOptions::validate`]), the calibration set is empty, too
    /// small for any member's root to satisfy the minimum, or rows have the
    /// wrong arity.
    pub fn calibrate(
        forest: Forest,
        samples: &[(Vec<f64>, bool)],
        options: CalibrationOptions,
    ) -> Result<Self, CoreError> {
        options.validate()?;
        if samples.is_empty() {
            return Err(CoreError::InvalidInput {
                reason: "calibration set is empty".into(),
            });
        }
        let rows: Vec<&[f64]> = samples.iter().map(|(f, _)| f.as_slice()).collect();
        let mut members = Vec::with_capacity(forest.n_trees());
        for mut tree in forest.into_trees() {
            // 1. Route the calibration samples and prune.
            let counts = tree.node_sample_counts(rows.iter().copied())?;
            prune_to_min_count(&mut tree, &counts, options.min_samples_per_leaf)?;

            // 2. Re-route the calibration set on the pruned tree to collect
            // per-leaf failure stats, and bound every reachable leaf.
            let mut failures = vec![0u64; tree.n_nodes()];
            let mut totals = vec![0u64; tree.n_nodes()];
            for (features, failed) in samples {
                let leaf = tree.leaf_id(features)?;
                totals[leaf] += 1;
                failures[leaf] += u64::from(*failed);
            }
            let mut records = vec![None; tree.n_nodes()];
            for leaf in tree.leaf_ids() {
                records[leaf] = Some(CalibratedLeaf {
                    failures: failures[leaf],
                    total: totals[leaf],
                    uncertainty_bound: upper_bound(
                        options.method,
                        failures[leaf],
                        totals[leaf],
                        options.confidence,
                    )?,
                });
            }
            members.push((member_key(&tree), tree, records));
        }
        // Canonical member order: ascending serialized-tree key. Equal keys
        // are identical members (same tree, same calibration data, same
        // bounds), so their relative order cannot affect the sum.
        members.sort_by(|a, b| a.0.cmp(&b.0));
        let (trees, leaves) = members
            .into_iter()
            .map(|(_, tree, records)| (tree, records))
            .unzip();
        let mut qim = CalibratedForestQim {
            trees,
            leaves,
            options,
            min_served_bound: 1.0,
            flat: Vec::new(),
            leaf_bounds: Vec::new(),
            kernel: None,
        }
        .assemble();
        // The attainable serving floor: the smallest mean-of-member-bounds
        // any *calibration sample* actually receives. Unlike the mean of
        // per-member minima (which no single input generally attains —
        // each member routes it to a different leaf), every value in this
        // minimum is a real served estimate.
        let mut min_served = 1.0f64;
        for (features, _) in samples {
            min_served = min_served.min(qim.uncertainty(features)?);
        }
        qim.min_served_bound = min_served;
        Ok(qim)
    }

    /// Derives every serving form from the stored fields: each member
    /// lowered once to its [`FlatTree`], the leaf-id bound tables read from
    /// the calibration records, and from `K = 2` on the lockstep kernel.
    /// Calibration and deserialization both build the model through here;
    /// every reachable leaf must carry a calibration record.
    fn assemble(mut self) -> Self {
        self.flat = self.trees.iter().map(FlatTree::from_tree).collect();
        self.leaf_bounds = (self.flat.iter().zip(&self.leaves))
            .map(|(member, records)| {
                let calibrated =
                    |id: NodeId| records[id].expect("every reachable leaf was calibrated");
                member
                    .leaf_nodes()
                    .iter()
                    .map(|&node| calibrated(node).uncertainty_bound)
                    .collect()
            })
            .collect();
        self.kernel = ForestKernel::build(&self);
        self
    }

    /// Dependable uncertainty for a feature vector, bit-identical
    /// regardless of the order the forest's trees were supplied in (the
    /// canonical order is part of the model). A one-member model takes one
    /// flat walk to the leaf id and one bound load; from `K = 2` on, one
    /// lockstep walk of all members, one leaf-table load per member, one
    /// left-to-right sum over the canonical member order and one division.
    /// No allocation either way.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    #[inline]
    pub fn uncertainty(&self, features: &[f64]) -> Result<f64, CoreError> {
        match &self.kernel {
            None => Ok(self.leaf_bounds[0][self.flat[0].predict_leaf_id(features)? as usize]),
            Some(kernel) => Ok(kernel.serve(features)?.0),
        }
    }

    /// [`CalibratedForestQim::uncertainty`] and its calibration support
    /// from the same walk: the same bound, and the **minimum** over members
    /// of the routed leaf's calibration-sample count (the ensemble's
    /// estimate is only as grounded as its least-supported member).
    #[inline]
    pub(crate) fn uncertainty_with_support(
        &self,
        features: &[f64],
    ) -> Result<(f64, u64), CoreError> {
        let Some(kernel) = &self.kernel else {
            let flat = &self.flat[0];
            let leaf = flat.predict_leaf_id(features)?;
            let support = self.leaves[0][flat.leaf_node(leaf)].map_or(0, |l| l.total);
            return Ok((self.leaf_bounds[0][leaf as usize], support));
        };
        kernel.serve(features)
    }

    /// Reference implementation of [`CalibratedForestQim::uncertainty`]
    /// over the pointer members: same member order, same summation, routed
    /// through each member's arena tree. Kept for bit-identity
    /// verification — not a serving path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn uncertainty_reference(&self, features: &[f64]) -> Result<f64, CoreError> {
        let mut sum = 0.0;
        for (tree, leaves) in self.trees.iter().zip(&self.leaves) {
            let leaf = tree.leaf_id(features)?;
            sum += leaves[leaf]
                .as_ref()
                .expect("every reachable leaf was calibrated")
                .uncertainty_bound;
        }
        Ok(sum / self.trees.len() as f64)
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the members route on.
    pub fn n_features(&self) -> usize {
        self.trees[0].n_features()
    }

    /// The pruned pointer members in canonical order, for
    /// transparency/export.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The compiled members in canonical order, each the lowering of its
    /// pointer member — derived, never stored.
    pub fn flat(&self) -> &[FlatTree] {
        &self.flat
    }

    /// Per-member dependable bounds indexed by [`LeafId`](tauw_dtree::LeafId) — the lookup
    /// tables the serving path reads after routing.
    pub fn leaf_bounds(&self) -> &[Vec<f64>] {
        &self.leaf_bounds
    }

    /// Calibration options used (shared by every member).
    pub fn options(&self) -> CalibrationOptions {
        self.options
    }

    /// Calibration statistics of member `t`'s leaf at arena node `node`,
    /// or `None` for internal/unknown nodes or an out-of-range member.
    pub fn calibrated_leaf(&self, t: usize, node: NodeId) -> Option<CalibratedLeaf> {
        self.leaves.get(t)?.get(node).copied().flatten()
    }

    /// The smallest uncertainty the ensemble **actually serves**: the
    /// minimum of `uncertainty(x)` over the calibration samples, computed
    /// once at calibration time. Every value entering this minimum is a
    /// real served estimate, so `min_uncertainty() <= uncertainty(x)`
    /// holds for every calibration sample `x`. At `K = 1` it is the
    /// smallest leaf bound, since calibration bounds only leaves that
    /// calibration samples reach. (The mean of the members' smallest
    /// bounds, by contrast, is generally attained by no input: no single
    /// feature vector routes every member to its own best leaf at once.)
    pub fn min_uncertainty(&self) -> f64 {
        self.min_served_bound
    }

    /// Checks the stored fields, the only ones an artifact carries: one
    /// calibration table per member (at least one), valid options, one
    /// routing shape, a record on every reachable leaf whose bound is, bit
    /// for bit, the bound its counts give at the options (so the number an
    /// assessor reviews is the number served), the canonical member order
    /// (a permutation would change the served sum) and the served minimum.
    /// Deserialization runs it before deriving anything.
    ///
    /// At `K = 1` the served minimum must be the smallest leaf bound, since
    /// calibration reaches every leaf. From `K = 2` on it must lie between
    /// the means of the members' smallest and largest leaf bounds; which
    /// leaves an input reaches together depends on the calibration samples,
    /// which the model does not keep, so nothing tighter can be checked.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.trees.is_empty() {
            return Err(CoreError::InvalidInput {
                reason: "calibrated forest QIM: no members".into(),
            });
        }
        if self.leaves.len() != self.trees.len() {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "calibrated forest QIM: {} trees but {} leaf tables",
                    self.trees.len(),
                    self.leaves.len()
                ),
            });
        }
        self.options.validate()?;
        let mut previous_key: Option<String> = None;
        // Sums over members of each member's smallest and largest bound.
        let (mut floor, mut ceiling) = (0.0, 0.0);
        for (t, tree) in self.trees.iter().enumerate() {
            // Members must agree on the routing shape; otherwise a loaded
            // model would pass per-member checks yet fail (arity mismatch)
            // on every serve call.
            if tree.n_features() != self.trees[0].n_features()
                || tree.n_classes() != self.trees[0].n_classes()
            {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "calibrated forest QIM: member {t} routes on {} features / {} classes, \
                         member 0 on {} / {}",
                        tree.n_features(),
                        tree.n_classes(),
                        self.trees[0].n_features(),
                        self.trees[0].n_classes()
                    ),
                });
            }
            let member = |what: String| CoreError::InvalidInput {
                reason: format!("calibrated forest QIM member {t}: {what}"),
            };
            let (mut lowest, mut highest) = (1.0f64, 0.0f64);
            for id in tree.leaf_ids() {
                let Some(leaf) = self.calibrated_leaf(t, id) else {
                    return Err(member(format!(
                        "leaf node {id} carries no calibration record"
                    )));
                };
                let (method, confidence) = (self.options.method, self.options.confidence);
                let bound = upper_bound(method, leaf.failures, leaf.total, confidence)
                    .map_err(|e| member(format!("leaf node {id}: {e}")))?;
                if leaf.uncertainty_bound.to_bits() != bound.to_bits() {
                    return Err(member(format!(
                        "leaf node {id} carries bound {} but {} failures in {} samples give \
                         {bound} ({method:?} at confidence {confidence})",
                        leaf.uncertainty_bound, leaf.failures, leaf.total
                    )));
                }
                lowest = lowest.min(bound);
                highest = highest.max(bound);
            }
            floor += lowest;
            ceiling += highest;
            let key = member_key(tree);
            if previous_key.as_ref().is_some_and(|prev| *prev > key) {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "calibrated forest QIM: member {t} violates the canonical member order"
                    ),
                });
            }
            previous_key = Some(key);
        }
        let served = self.min_served_bound;
        let k = self.trees.len() as f64;
        let (floor, ceiling) = (floor / k, ceiling / k);
        if self.trees.len() == 1 && served.to_bits() != floor.to_bits() {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "calibrated forest QIM: served minimum bound {served} is not the smallest \
                     leaf bound {floor}"
                ),
            });
        }
        // Any served value is a mean of per-member bounds, each between its
        // member's smallest and largest bound; f64 addition and division
        // are monotone, so the means of minima and maxima enclose every
        // servable value.
        if served.is_nan() || served < floor {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "calibrated forest QIM: served minimum bound {served} undercuts the \
                     member-minima floor {floor}"
                ),
            });
        }
        if served > ceiling {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "calibrated forest QIM: served minimum bound {served} exceeds the \
                     member-maxima ceiling {ceiling}"
                ),
            });
        }
        Ok(())
    }
}

/// The closed set of quality-impact-model shapes a timeseries-aware
/// wrapper can serve: a calibrated forest of `K ≥ 1` trees (`K = 1` is the
/// paper's single calibrated tree, larger `K` smooths its boundaries) or a
/// leafless split-conformal model. Every serving, reference and validation
/// entry point dispatches on the shape — a plain `match`, so the hot path
/// stays statically dispatched — and wrapper, session and engine code is
/// shape-agnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaQim {
    /// A calibrated forest (mean of per-member bounds); one member is the
    /// paper's taQIM.
    Forest(CalibratedForestQim),
    /// A split-conformal model (distribution-free one-sided bounds).
    Conformal(ConformalQim),
}

impl TaQim {
    /// Dependable uncertainty via the shape's flat serving form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn uncertainty(&self, features: &[f64]) -> Result<f64, CoreError> {
        match self {
            TaQim::Forest(qim) => qim.uncertainty(features),
            TaQim::Conformal(qim) => qim.uncertainty(features),
        }
    }

    /// [`TaQim::uncertainty`] and [`TaQim::route_support`] from a single
    /// traversal, bit for bit: one flat route for a one-member forest, one
    /// lockstep walk of the members from `K = 2` on, and the bound plus
    /// [`RouteSupport::Unsupported`] for a leafless backend. The adaptive
    /// step serves through this lookup.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn uncertainty_with_support(
        &self,
        features: &[f64],
    ) -> Result<(f64, RouteSupport), CoreError> {
        match self {
            TaQim::Forest(qim) => qim
                .uncertainty_with_support(features)
                .map(|(bound, n)| (bound, RouteSupport::Samples(n))),
            TaQim::Conformal(qim) => Ok((qim.uncertainty(features)?, RouteSupport::Unsupported)),
        }
    }

    /// Pointer-representation recompute of [`TaQim::uncertainty`], for
    /// bit-identity verification.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn uncertainty_reference(&self, features: &[f64]) -> Result<f64, CoreError> {
        match self {
            TaQim::Forest(qim) => qim.uncertainty_reference(features),
            TaQim::Conformal(qim) => qim.uncertainty_reference(features),
        }
    }

    /// Internal-consistency check of the underlying model (see
    /// [`CalibratedForestQim::validate`] / [`ConformalQim::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on an inconsistent model.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            TaQim::Forest(qim) => qim.validate(),
            TaQim::Conformal(qim) => qim.validate(),
        }
    }

    /// Number of routing trees (0 for leafless backends).
    pub fn n_trees(&self) -> usize {
        match self {
            TaQim::Forest(qim) => qim.n_trees(),
            TaQim::Conformal(_) => 0,
        }
    }

    /// Total reachable leaves across all routing trees (0 for leafless
    /// backends).
    pub fn n_leaves(&self) -> usize {
        match self {
            TaQim::Forest(qim) => qim.flat().iter().map(FlatTree::n_leaves).sum(),
            TaQim::Conformal(_) => 0,
        }
    }

    /// Number of features the model reads.
    pub fn n_features(&self) -> usize {
        match self {
            TaQim::Forest(qim) => qim.n_features(),
            TaQim::Conformal(qim) => qim.n_features(),
        }
    }

    /// The smallest uncertainty the model actually serves — for a forest
    /// the minimum served mean over the calibration set, which at `K = 1`
    /// is the minimum leaf bound (see
    /// [`CalibratedForestQim::min_uncertainty`]).
    pub fn min_uncertainty(&self) -> f64 {
        match self {
            TaQim::Forest(qim) => qim.min_uncertainty(),
            TaQim::Conformal(qim) => qim.min_uncertainty(),
        }
    }

    /// Calibration support behind the bound served for this feature
    /// vector: the routed leaf's calibration-sample count (minimum over
    /// members for a forest), or [`RouteSupport::Unsupported`] for a
    /// leafless backend — the support half of
    /// [`TaQim::uncertainty_with_support`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn route_support(&self, features: &[f64]) -> Result<RouteSupport, CoreError> {
        Ok(self.uncertainty_with_support(features)?.1)
    }

    /// The forest model, if this is the forest shape.
    pub fn as_forest(&self) -> Option<&CalibratedForestQim> {
        match self {
            TaQim::Forest(qim) => Some(qim),
            _ => None,
        }
    }

    /// The split-conformal model, if this is the conformal shape.
    pub fn as_conformal(&self) -> Option<&ConformalQim> {
        match self {
            TaQim::Conformal(qim) => Some(qim),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauw_dtree::{Dataset, TreeBuilder};

    /// Training data: failure iff x > 0.5, with x uniform on a grid.
    fn trained_tree(n: usize) -> DecisionTree {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..n {
            let x = i as f64 / n as f64;
            ds.push_row(&[x], u32::from(x > 0.5)).unwrap();
        }
        TreeBuilder::new().max_depth(4).fit(&ds).unwrap()
    }

    fn calib_samples(n: usize, failure_rule: impl Fn(f64) -> bool) -> Vec<(Vec<f64>, bool)> {
        (0..n)
            .map(|i| {
                let x = (i as f64 + 0.5) / n as f64;
                (vec![x], failure_rule(x))
            })
            .collect()
    }

    /// The paper's single tree, calibrated as the one-member model.
    fn one_member(
        tree: DecisionTree,
        calib: &[(Vec<f64>, bool)],
        options: CalibrationOptions,
    ) -> Result<CalibratedForestQim, CoreError> {
        CalibratedForestQim::calibrate(Forest::from_trees(vec![tree])?, calib, options)
    }

    /// The means of the members' smallest and largest leaf bounds: every
    /// servable value lies between them.
    fn member_envelope(qim: &CalibratedForestQim) -> (f64, f64) {
        let k = qim.n_trees() as f64;
        let (mut floor, mut ceiling) = (0.0, 0.0);
        for bounds in qim.leaf_bounds() {
            floor += bounds.iter().copied().fold(1.0, f64::min);
            ceiling += bounds.iter().copied().fold(0.0, f64::max);
        }
        (floor / k, ceiling / k)
    }

    /// Member 0's calibrated leaves in depth-first order.
    fn member_leaves(qim: &CalibratedForestQim) -> Vec<CalibratedLeaf> {
        qim.trees()[0]
            .leaf_ids()
            .into_iter()
            .map(|id| qim.calibrated_leaf(0, id).unwrap())
            .collect()
    }

    #[test]
    fn calibrated_bounds_cover_observed_rates() {
        let calib = calib_samples(1000, |x| x > 0.5);
        let qim = one_member(trained_tree(400), &calib, CalibrationOptions::default()).unwrap();
        for leaf in member_leaves(&qim) {
            assert!(leaf.total >= 200);
            assert!(leaf.uncertainty_bound >= leaf.point_estimate());
            assert!(leaf.uncertainty_bound <= 1.0);
        }
    }

    #[test]
    fn low_risk_region_gets_low_bound() {
        let calib = calib_samples(2000, |x| x > 0.5);
        let qim = one_member(trained_tree(400), &calib, CalibrationOptions::default()).unwrap();
        let low = qim.uncertainty(&[0.1]).unwrap();
        let high = qim.uncertainty(&[0.9]).unwrap();
        assert!(low < 0.05, "clean region bound {low}");
        assert!(high > 0.9, "failing region bound {high}");
        assert_eq!(qim.min_uncertainty(), low.min(high));
    }

    #[test]
    fn min_samples_forces_pruning() {
        let tree = trained_tree(400);
        let n_leaves_before = tree.n_leaves();
        let calib = calib_samples(450, |x| x > 0.5);
        let opts = CalibrationOptions {
            min_samples_per_leaf: 200,
            ..Default::default()
        };
        let qim = one_member(tree, &calib, opts).unwrap();
        assert!(qim.trees()[0].n_leaves() <= n_leaves_before);
        assert!(
            qim.trees()[0].n_leaves() <= 2,
            "450 samples / 200 per leaf allows at most 2 leaves"
        );
    }

    #[test]
    fn higher_confidence_widens_bounds() {
        let tree = trained_tree(400);
        let calib = calib_samples(2000, |x| x > 0.5);
        let with_confidence = |confidence| {
            let opts = CalibrationOptions {
                confidence,
                ..Default::default()
            };
            one_member(tree.clone(), &calib, opts).unwrap()
        };
        let (loose, tight) = (with_confidence(0.9), with_confidence(0.9999));
        assert!(tight.uncertainty(&[0.1]).unwrap() > loose.uncertainty(&[0.1]).unwrap());
    }

    #[test]
    fn empty_calibration_is_rejected() {
        assert!(matches!(
            one_member(trained_tree(100), &[], CalibrationOptions::default()),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn tiny_calibration_is_infeasible() {
        let calib = calib_samples(50, |x| x > 0.5);
        assert!(matches!(
            one_member(trained_tree(100), &calib, CalibrationOptions::default()),
            Err(CoreError::Tree(
                tauw_dtree::DtreeError::CalibrationInfeasible { .. }
            ))
        ));
    }

    #[test]
    fn arity_mismatch_at_query_time() {
        let calib = calib_samples(500, |x| x > 0.5);
        let qim = one_member(trained_tree(200), &calib, CalibrationOptions::default()).unwrap();
        assert!(qim.uncertainty(&[0.5, 0.5]).is_err());
        assert!(qim.uncertainty_with_support(&[0.5, 0.5]).is_err());
        assert!(qim.uncertainty_reference(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn one_member_model_serves_its_tree_flat_walk() {
        let calib = calib_samples(2000, |x| x > 0.5);
        let qim = one_member(trained_tree(400), &calib, CalibrationOptions::default()).unwrap();
        assert_eq!(qim.n_trees(), 1);
        assert!(qim.kernel.is_none(), "one member builds no lockstep kernel");
        let flat = &qim.flat()[0];
        assert_eq!(flat.n_leaves(), qim.trees()[0].n_leaves());
        assert_eq!(qim.leaf_bounds()[0].len(), flat.n_leaves());
        for i in 0..200 {
            let q = [i as f64 / 199.0];
            let served = qim.uncertainty(&q).unwrap();
            let leaf_id = flat.predict_leaf_id(&q).unwrap();
            let leaf = qim.calibrated_leaf(0, flat.leaf_node(leaf_id)).unwrap();
            assert!(leaf.total >= 200);
            assert_eq!(
                served.to_bits(),
                qim.leaf_bounds()[0][leaf_id as usize].to_bits()
            );
            assert_eq!(served.to_bits(), leaf.uncertainty_bound.to_bits());
            let reference = qim.uncertainty_reference(&q).unwrap();
            assert_eq!(served.to_bits(), reference.to_bits(), "x={}", q[0]);
            let (fused, support) = qim.uncertainty_with_support(&q).unwrap();
            assert_eq!((fused.to_bits(), support), (served.to_bits(), leaf.total));
        }
        let min_leaf = qim.leaf_bounds()[0].iter().copied().fold(1.0, f64::min);
        assert_eq!(qim.min_uncertainty().to_bits(), min_leaf.to_bits());
    }

    /// A small bootstrap forest over the same toy world as the tree tests.
    fn trained_forest(k: usize, seed: u64, n: usize) -> tauw_dtree::Forest {
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for i in 0..n {
            let x = i as f64 / n as f64;
            let noisy = i % 31 == 0;
            ds.push_row(&[x], u32::from((x > 0.5) ^ noisy)).unwrap();
        }
        let mut builder = tauw_dtree::ForestBuilder::new(k, seed);
        builder.tree(TreeBuilder::new().max_depth(4).clone());
        builder.fit(&ds).unwrap()
    }

    #[test]
    fn forest_calibration_is_permutation_invariant_in_tree_order() {
        let forest = trained_forest(5, 3, 500);
        let calib = calib_samples(2000, |x| x > 0.5);
        let in_order = CalibratedForestQim::calibrate(
            tauw_dtree::Forest::from_trees(forest.trees().to_vec()).unwrap(),
            &calib,
            CalibrationOptions::default(),
        )
        .unwrap();
        let mut reversed_trees = forest.trees().to_vec();
        reversed_trees.reverse();
        let reversed = CalibratedForestQim::calibrate(
            tauw_dtree::Forest::from_trees(reversed_trees).unwrap(),
            &calib,
            CalibrationOptions::default(),
        )
        .unwrap();
        assert_eq!(in_order, reversed, "canonical order erases input order");
        for i in 0..100 {
            let q = [i as f64 / 99.0];
            assert_eq!(
                in_order.uncertainty(&q).unwrap().to_bits(),
                reversed.uncertainty(&q).unwrap().to_bits()
            );
        }
        in_order.validate().unwrap();
    }

    #[test]
    fn forest_serving_matches_pointer_reference_and_member_envelope() {
        let forest = trained_forest(6, 9, 600);
        let calib = calib_samples(3000, |x| x > 0.5);
        let qim =
            CalibratedForestQim::calibrate(forest, &calib, CalibrationOptions::default()).unwrap();
        assert_eq!(qim.n_trees(), 6);
        assert!(
            qim.kernel.is_some(),
            "K >= 2 serves through the lockstep kernel"
        );
        assert_eq!(qim.leaf_bounds().len(), 6);
        for i in 0..200 {
            let q = [i as f64 / 199.0];
            let fast = qim.uncertainty(&q).unwrap();
            let reference = qim.uncertainty_reference(&q).unwrap();
            assert_eq!(fast.to_bits(), reference.to_bits(), "x={}", q[0]);
            // The mean lies inside the envelope of the member bounds.
            let member_bounds: Vec<f64> = (0..qim.n_trees())
                .map(|t| {
                    let leaf = qim.flat()[t].predict_leaf_id(&q).unwrap();
                    qim.leaf_bounds()[t][leaf as usize]
                })
                .collect();
            let lo = member_bounds.iter().copied().fold(1.0, f64::min);
            let hi = member_bounds.iter().copied().fold(0.0, f64::max);
            assert!(fast >= lo - 1e-15 && fast <= hi + 1e-15);
        }
        assert!(qim.min_uncertainty() > 0.0);
        assert!(qim.min_uncertainty() <= qim.uncertainty(&[0.1]).unwrap());
    }

    #[test]
    fn forest_rejects_empty_calibration_and_wrong_arity() {
        let forest = trained_forest(2, 1, 200);
        assert!(matches!(
            CalibratedForestQim::calibrate(
                tauw_dtree::Forest::from_trees(forest.trees().to_vec()).unwrap(),
                &[],
                CalibrationOptions::default()
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        let calib = calib_samples(800, |x| x > 0.5);
        let qim =
            CalibratedForestQim::calibrate(forest, &calib, CalibrationOptions::default()).unwrap();
        assert!(qim.uncertainty(&[0.5, 0.5]).is_err());
        assert!(qim.uncertainty_reference(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn forest_validate_catches_tampering() {
        let forest = trained_forest(3, 5, 400);
        let calib = calib_samples(1500, |x| x > 0.5);
        let qim =
            CalibratedForestQim::calibrate(forest, &calib, CalibrationOptions::default()).unwrap();
        qim.validate().unwrap();

        // A permuted member order (all tables swapped consistently) must be
        // rejected: the canonical order is part of the model.
        let mut permuted = qim.clone();
        permuted.trees.swap(0, qim.n_trees() - 1);
        permuted.leaves.swap(0, qim.n_trees() - 1);
        if permuted.trees != qim.trees {
            let err = permuted.validate().unwrap_err();
            let CoreError::InvalidInput { reason } = err else {
                panic!("expected InvalidInput");
            };
            assert!(reason.contains("canonical member order"), "{reason}");
        }

        // A leaf bound its calibration counts do not give must be rejected
        // by the per-member bound check.
        let mut tampered = qim.clone();
        let leaf = qim.trees()[1].leaf_ids()[0];
        tampered.leaves[1][leaf].as_mut().unwrap().uncertainty_bound += 0.25;
        let err = tampered.validate().unwrap_err();
        let CoreError::InvalidInput { reason } = err else {
            panic!("expected InvalidInput");
        };
        assert!(
            reason.contains("calibrated forest QIM member 1"),
            "{reason}"
        );

        // A member routing on a different shape must be rejected before a
        // serve call can hit the arity mismatch at runtime.
        let mut two_features = Dataset::new(vec!["a".into(), "b".into()], 2).unwrap();
        for i in 0..400 {
            two_features
                .push_row(&[i as f64 / 400.0, 0.0], u32::from(i >= 200))
                .unwrap();
        }
        let alien = TreeBuilder::new().max_depth(2).fit(&two_features).unwrap();
        let mut mismatched = qim.clone();
        mismatched.trees[1] = alien;
        let err = mismatched.validate().unwrap_err();
        let CoreError::InvalidInput { reason } = err else {
            panic!("expected InvalidInput");
        };
        assert!(reason.contains("member 1 routes on 2 features"), "{reason}");
    }

    #[test]
    fn taqim_dispatch_matches_the_underlying_models() {
        let calib = calib_samples(1000, |x| x > 0.5);
        let single = one_member(trained_tree(400), &calib, CalibrationOptions::default()).unwrap();
        let forest_qim = CalibratedForestQim::calibrate(
            trained_forest(3, 2, 400),
            &calib,
            CalibrationOptions::default(),
        )
        .unwrap();
        let one_tree = TaQim::Forest(single.clone());
        let as_forest = TaQim::Forest(forest_qim.clone());
        assert_eq!(one_tree.n_trees(), 1);
        assert_eq!(as_forest.n_trees(), 3);
        assert_eq!(one_tree.n_features(), 1);
        assert_eq!(one_tree.n_leaves(), single.flat()[0].n_leaves());
        assert_eq!(
            as_forest.n_leaves(),
            forest_qim.trees().iter().map(DecisionTree::n_leaves).sum()
        );
        assert!(one_tree.as_forest().is_some() && as_forest.as_forest().is_some());
        for q in [[0.1], [0.5], [0.9]] {
            assert_eq!(
                one_tree.uncertainty(&q).unwrap().to_bits(),
                single.uncertainty(&q).unwrap().to_bits()
            );
            assert_eq!(
                as_forest.uncertainty(&q).unwrap().to_bits(),
                forest_qim.uncertainty(&q).unwrap().to_bits()
            );
            assert_eq!(
                as_forest.uncertainty_reference(&q).unwrap().to_bits(),
                forest_qim.uncertainty_reference(&q).unwrap().to_bits()
            );
        }
        one_tree.validate().unwrap();
        as_forest.validate().unwrap();
        assert_eq!(one_tree.min_uncertainty(), single.min_uncertainty());
        assert_eq!(as_forest.min_uncertainty(), forest_qim.min_uncertainty());

        // The leafless backend dispatches through the same arms.
        let conformal = crate::conformal::ConformalQim::calibrate(
            &calib_samples(600, |x| x > 0.5),
            &calib,
            CalibrationOptions::default(),
            crate::conformal::ConformalOptions::default(),
        )
        .unwrap();
        let as_conf = TaQim::Conformal(conformal.clone());
        assert_eq!(as_conf.n_trees(), 0);
        assert_eq!(as_conf.n_leaves(), 0);
        assert_eq!(as_conf.n_features(), 1);
        assert!(as_conf.as_conformal().is_some() && as_conf.as_forest().is_none());
        assert!(one_tree.as_conformal().is_none() && as_forest.as_conformal().is_none());
        for q in [[0.1], [0.5], [0.9]] {
            assert_eq!(
                as_conf.uncertainty(&q).unwrap().to_bits(),
                conformal.uncertainty(&q).unwrap().to_bits()
            );
            assert_eq!(
                as_conf.uncertainty_reference(&q).unwrap().to_bits(),
                conformal.uncertainty_reference(&q).unwrap().to_bits()
            );
        }
        as_conf.validate().unwrap();
        assert_eq!(as_conf.min_uncertainty(), conformal.min_uncertainty());
        assert_eq!(
            as_conf.route_support(&[0.3]).unwrap(),
            RouteSupport::Unsupported
        );
        assert!(as_conf.route_support(&[0.1, 0.2]).is_err());
    }

    /// Drives every backend through the [`TaQim`] serving surface: the
    /// per-sample bound, its reference recompute, the fused lookup, the
    /// support shape, the served floor and the arity check.
    #[test]
    fn every_taqim_shape_serves_through_the_enum() {
        let calib = calib_samples(1000, |x| x > 0.5);
        let single = one_member(trained_tree(400), &calib, CalibrationOptions::default()).unwrap();
        let forest_qim = CalibratedForestQim::calibrate(
            trained_forest(3, 2, 400),
            &calib,
            CalibrationOptions::default(),
        )
        .unwrap();
        let conformal = crate::conformal::ConformalQim::calibrate(
            &calib_samples(600, |x| x > 0.5),
            &calib,
            CalibrationOptions::default(),
            crate::conformal::ConformalOptions::default(),
        )
        .unwrap();
        for backend in [
            TaQim::Forest(single),
            TaQim::Forest(forest_qim),
            TaQim::Conformal(conformal),
        ] {
            assert_eq!(backend.n_features(), 1);
            backend.validate().unwrap();
            let rows = [[0.1], [0.5], [0.9]];
            for row in &rows {
                let served = backend.uncertainty(row).unwrap();
                assert_eq!(
                    served.to_bits(),
                    backend.uncertainty_reference(row).unwrap().to_bits()
                );
                let (fused, support) = backend.uncertainty_with_support(row).unwrap();
                assert_eq!(fused.to_bits(), served.to_bits());
                assert_eq!(support, backend.route_support(row).unwrap());
            }
            match backend.route_support(&rows[0]).unwrap() {
                RouteSupport::Samples(n) => assert!(n >= 1),
                RouteSupport::Unsupported => assert!(backend.as_conformal().is_some()),
            }
            assert!(backend.min_uncertainty() <= backend.uncertainty(&rows[0]).unwrap());
            assert!(backend.route_support(&[0.1, 0.2]).is_err());
            assert!(backend.uncertainty_with_support(&[0.1, 0.2]).is_err());
        }
    }

    #[test]
    fn calibration_shift_is_detected_in_bounds() {
        // Tree learned "failure iff x > 0.5" but calibration data fails
        // everywhere: bounds must reflect calibration, not training.
        let calib = calib_samples(800, |_| true);
        let qim = one_member(trained_tree(200), &calib, CalibrationOptions::default()).unwrap();
        for leaf in member_leaves(&qim) {
            assert!(leaf.uncertainty_bound > 0.98);
        }
    }

    /// Satellite regression test: the forest's reported minimum must be
    /// *attainable* — `min_uncertainty() <= uncertainty(x)` for every
    /// calibration sample, with equality at some sample. (The old mean of
    /// per-member minima generally undercut every servable value.)
    #[test]
    fn forest_min_uncertainty_is_attained_on_a_calibration_sample() {
        let forest = trained_forest(5, 11, 600);
        let calib = calib_samples(2500, |x| x > 0.5);
        let qim =
            CalibratedForestQim::calibrate(forest, &calib, CalibrationOptions::default()).unwrap();
        let mut attained = false;
        for (features, _) in &calib {
            let served = qim.uncertainty(features).unwrap();
            assert!(
                qim.min_uncertainty() <= served,
                "min {} exceeds served {} at x={}",
                qim.min_uncertainty(),
                served,
                features[0]
            );
            attained |= served.to_bits() == qim.min_uncertainty().to_bits();
        }
        assert!(attained, "the minimum must be a real served value");
        // The mean of the members' smallest bounds is a floor below it.
        assert!(member_envelope(&qim).0 <= qim.min_uncertainty());
        qim.validate().unwrap();
    }

    #[test]
    fn invalid_confidence_is_rejected_before_calibration() {
        let assert_names_field = |err: CoreError| {
            let CoreError::InvalidInput { reason } = err else {
                panic!("expected InvalidInput");
            };
            assert!(reason.contains("`confidence`"), "{reason}");
        };
        let calib = calib_samples(1000, |x| x > 0.5);
        for confidence in [0.0, -0.5, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            let opts = CalibrationOptions {
                confidence,
                ..Default::default()
            };
            assert_names_field(one_member(trained_tree(400), &calib, opts).unwrap_err());
            assert_names_field(
                CalibratedForestQim::calibrate(trained_forest(2, 1, 400), &calib, opts)
                    .unwrap_err(),
            );
        }
    }

    #[test]
    fn route_support_reports_calibration_sample_counts() {
        let calib = calib_samples(1000, |x| x > 0.5);
        let single = one_member(trained_tree(400), &calib, CalibrationOptions::default()).unwrap();
        // Single tree: support is exactly the routed leaf's total, wrapped
        // in `RouteSupport::Samples`.
        let tree = TaQim::Forest(single.clone());
        let flat = &single.flat()[0];
        for q in [[0.1], [0.5], [0.9]] {
            let node = flat.leaf_node(flat.predict_leaf_id(&q).unwrap());
            let leaf = single.calibrated_leaf(0, node).unwrap();
            assert_eq!(
                tree.route_support(&q).unwrap(),
                RouteSupport::Samples(leaf.total)
            );
            assert!(leaf.total >= 200, "pruning floor guarantees support");
        }

        // Forest: support is the min over members' routed-leaf totals.
        let qim = CalibratedForestQim::calibrate(
            trained_forest(4, 3, 500),
            &calib,
            CalibrationOptions::default(),
        )
        .unwrap();
        let forest = TaQim::Forest(qim.clone());
        for q in [[0.1], [0.5], [0.9]] {
            let expected = (0..qim.n_trees())
                .map(|t| {
                    let leaf = qim.flat()[t].predict_leaf_id(&q).unwrap();
                    let node = qim.flat()[t].leaf_node(leaf);
                    qim.calibrated_leaf(t, node).unwrap().total
                })
                .min()
                .unwrap();
            assert_eq!(forest.route_support(&q).unwrap().samples(), Some(expected));
        }
        assert_eq!(RouteSupport::Unsupported.samples(), None);
        // Arity mismatches surface as errors, not panics.
        assert!(tree.route_support(&[0.1, 0.2]).is_err());
        assert!(forest.route_support(&[0.1, 0.2]).is_err());
    }

    #[test]
    fn forest_validate_rejects_an_undercutting_served_minimum() {
        let forest = trained_forest(3, 5, 400);
        let calib = calib_samples(1500, |x| x > 0.5);
        let qim =
            CalibratedForestQim::calibrate(forest, &calib, CalibrationOptions::default()).unwrap();
        // Below the member-minima floor: provably unservable.
        let mut tampered = qim.clone();
        let (floor, ceiling) = member_envelope(&qim);
        tampered.min_served_bound = floor / 2.0;
        let err = tampered.validate().unwrap_err();
        let CoreError::InvalidInput { reason } = err else {
            panic!("expected InvalidInput");
        };
        assert!(reason.contains("calibrated forest QIM"), "{reason}");
        assert!(reason.contains("undercuts"), "{reason}");
        // Outside [0, 1] entirely.
        let mut tampered = qim.clone();
        tampered.min_served_bound = f64::NAN;
        assert!(tampered.validate().is_err());
        // Above the mean of the members' largest bounds: no input is served
        // that much.
        let mut tampered = qim.clone();
        tampered.min_served_bound = f64::from_bits(ceiling.to_bits() + 1);
        let err = tampered.validate().unwrap_err();
        assert!(err.to_string().contains("member-maxima ceiling"), "{err}");
        // Inside the envelope, in either direction: loads.
        let mut moved = qim.clone();
        moved.min_served_bound = floor;
        moved.validate().unwrap();
    }

    #[test]
    fn one_member_served_minimum_must_be_the_smallest_leaf_bound() {
        let calib = calib_samples(1000, |x| x > 0.5);
        let qim = one_member(trained_tree(400), &calib, CalibrationOptions::default()).unwrap();
        qim.validate().unwrap();
        let smallest = qim.leaf_bounds()[0].iter().copied().fold(1.0, f64::min);
        assert_eq!(qim.min_uncertainty().to_bits(), smallest.to_bits());
        // Any other value — even one inside [0, 1], even the largest leaf
        // bound — is not what the one-member model serves at its floor.
        for wrong in [1.0, smallest * 2.0, f64::from_bits(smallest.to_bits() + 1)] {
            let mut tampered = qim.clone();
            tampered.min_served_bound = wrong;
            let err = tampered.validate().unwrap_err();
            assert!(err.to_string().contains("smallest leaf bound"), "{err}");
        }
    }

    #[test]
    fn leaf_records_are_checked_against_their_counts_and_options() {
        let calib = calib_samples(1500, |x| x > 0.5);
        let qim =
            CalibratedForestQim::calibrate(trained_forest(3, 5, 400), &calib, Default::default())
                .unwrap();
        let leaf = qim.trees()[0].leaf_ids()[0];
        let reason = |tampered: CalibratedForestQim| match tampered.validate() {
            Err(CoreError::InvalidInput { reason }) => reason,
            other => panic!("expected InvalidInput, got {other:?}"),
        };
        let edit_record = |edit: fn(&mut CalibratedLeaf)| {
            let mut tampered = qim.clone();
            edit(tampered.leaves[0][leaf].as_mut().unwrap());
            reason(tampered)
        };
        // The bound, the counts behind it, or the options it was computed at.
        for edit in [
            (|leaf| leaf.uncertainty_bound = 7.5) as fn(&mut CalibratedLeaf),
            |leaf| leaf.failures += 1,
            |leaf| leaf.failures = leaf.total + 1,
            |leaf| leaf.total = 0,
        ] {
            assert!(edit_record(edit).contains("member 0: leaf node"));
        }
        let mut tampered = qim.clone();
        tampered.options.confidence = 0.99;
        assert!(reason(tampered).contains("member 0: leaf node"));
        let mut tampered = qim.clone();
        tampered.options.confidence = 1.5;
        assert!(reason(tampered).contains("`confidence`"));
        // A reachable leaf without a record.
        let mut tampered = qim.clone();
        tampered.leaves[0][leaf] = None;
        assert!(reason(tampered).contains("carries no calibration record"));
        let mut tampered = qim.clone();
        tampered.leaves.pop();
        assert!(reason(tampered).contains("3 trees but 2 leaf tables"));
    }
}
