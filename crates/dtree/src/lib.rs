//! # tauw-dtree
//!
//! CART decision trees built from scratch for the taUW reproduction. The
//! paper's quality impact models are CART trees trained with the gini index
//! (maximum depth 8), later pruned so every leaf retains at least 200
//! calibration samples, then annotated with binomial confidence bounds.
//! None of the thin ML crates in the ecosystem expose the calibration-driven
//! pruning and per-leaf routing this requires, so the tree is hand-built:
//!
//! * [`data::Dataset`] — dense feature-major matrix with named columns.
//! * [`criterion`] — gini impurity, the paper's split criterion.
//! * [`splitter`] — exact split search over presorted feature orders,
//!   with a blocked two-pass Gini kernel for two-class nodes.
//! * [`builder::TreeBuilder`] — recursive gini CART construction with a
//!   depth limit and a per-leaf sample minimum.
//! * [`tree::DecisionTree`] — the arena-based tree: prediction, decision
//!   paths, per-node routing counts, collapse/compact editing.
//! * [`flat::FlatTree`] — the compiled struct-of-arrays router:
//!   branch-light per-sample routing to dense, stable leaf IDs,
//!   bit-identical to the pointer tree.
//! * [`forest`] — bootstrap tree ensembles that smooth the hard split
//!   boundaries of a single tree: deterministic per-tree bootstrap
//!   multiplicities fanned over the thread budget.
//! * [`prune`] — calibration-driven bottom-up pruning.
//! * [`export`] — text / DOT / JSON rendering for expert review.
//! * [`importance`] — mean-decrease-in-impurity feature importances.
//!
//! ## Quickstart
//!
//! ```
//! use tauw_dtree::{builder::TreeBuilder, data::Dataset};
//!
//! let mut ds = Dataset::new(vec!["rain".into(), "blur".into()], 2)?;
//! for i in 0..100 {
//!     let rain = (i % 10) as f64 / 10.0;
//!     let blur = (i % 7) as f64 / 7.0;
//!     let failed = u32::from(rain + blur > 1.0);
//!     ds.push_row(&[rain, blur], failed)?;
//! }
//! let tree = TreeBuilder::new().max_depth(8).fit(&ds)?;
//! let p = tree.predict_proba(&[0.9, 0.9])?;
//! assert!(p[1] > 0.5, "heavy rain + blur should look risky");
//! # Ok::<(), tauw_dtree::DtreeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
pub mod criterion;
pub mod data;
pub mod error;
pub mod export;
pub mod flat;
pub mod forest;
pub mod importance;
pub mod prune;
pub mod splitter;
pub mod tree;

pub use builder::TreeBuilder;
pub use data::Dataset;
pub use error::DtreeError;
pub use flat::{FlatTree, LeafId};
pub use forest::{Forest, ForestBuilder};
pub use tree::{DecisionTree, Node, NodeId, NodeInfo, NodeKind};
