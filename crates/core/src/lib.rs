//! # tauw-core
//!
//! The uncertainty wrapper framework and its timeseries-aware extension
//! (taUW) — the primary contribution of the reproduced paper.
//!
//! * [`wrapper`] — the classical **stateless** uncertainty wrapper:
//!   decision-tree quality impact model with calibrated, dependable
//!   per-leaf uncertainty bounds, plus an optional scope compliance model.
//! * [`buffer`] — the **timeseries buffer** storing per-step outcomes and
//!   uncertainties for the current measurement object.
//! * [`taqf`] — the four **timeseries-aware quality factors** (ratio,
//!   length, size, cumulative certainty).
//! * [`tauw`] — the **timeseries-aware wrapper**: stateless wrapper +
//!   information fusion + taQIM, exposed as a runtime session.
//! * [`engine`] — the **multi-stream inference engine**: one trained
//!   wrapper serving many concurrent series from a dense stream table,
//!   stepped in batched waves through one wave core.
//! * [`sharded`] — **shards** of that table: hash partitions keyed by a
//!   deterministic stream hash, with typed admission control and live
//!   per-shard snapshot/restore.
//! * [`adaptive`] — **online adaptive calibration**: a per-stream coverage
//!   window over the served bounds, bounded multiplicative bound
//!   adaptation when empirical coverage diverges, and an
//!   epistemic-vs-aleatoric drift signal.
//! * [`calibration`] — calibrated quality impact models (prune to a
//!   minimum calibration count, bound each leaf at high confidence); the
//!   serving path is a compiled [`tauw_dtree::FlatTree`] plus a leaf-ID →
//!   bound lookup table, bit-identical to the pointer tree. The paper's
//!   tree is a one-member [`calibration::CalibratedForestQim`]; the taQIM
//!   can also be a bootstrap **forest** of `K ≥ 2` members (mean of
//!   per-member bounds, served by one lockstep walk of all members over a
//!   packed node array) that smooths the hard split boundaries of a single
//!   tree. All taQIM backends are shapes of one closed
//!   [`calibration::TaQim`] enum, served per sample.
//! * [`conformal`] — the first leafless taQIM backend: a **split-conformal**
//!   model serving distribution-free bounds from a histogram base scorer
//!   plus a one-sided conformal quantile shift.
//! * [`scope`] — boundary-check scope compliance.
//! * [`monitor`] — a simplex-style runtime gate over the estimates.
//! * [`persist`] — versioned JSON artifacts: train offline, deploy frozen.
//! * [`training`] — the series-shaped training-data representation.
//!
//! ## Quickstart
//!
//! ```
//! use tauw_core::calibration::CalibrationOptions;
//! use tauw_core::tauw::TauwBuilder;
//! use tauw_core::training::{TrainingSeries, TrainingStep};
//! use tauw_core::wrapper::WrapperBuilder;
//!
//! // A toy world with one quality factor; outcome 1 is a misreading of
//! // the true class 0 that happens when quality degrades.
//! let series = |q: f64, outcomes: &[u32]| TrainingSeries {
//!     true_outcome: 0,
//!     steps: outcomes
//!         .iter()
//!         .map(|&o| TrainingStep { quality_factors: vec![q], outcome: o })
//!         .collect(),
//! };
//! let mut train = Vec::new();
//! let mut calib = Vec::new();
//! for i in 0..120 {
//!     let q = (i % 12) as f64 / 12.0;
//!     let outcomes: Vec<u32> = (0..10).map(|j| u32::from(q > 0.6 && j % 3 == 0)).collect();
//!     train.push(series(q, &outcomes));
//!     calib.push(series(q, &outcomes));
//! }
//! let mut wb = WrapperBuilder::new();
//! wb.max_depth(3).calibration(CalibrationOptions {
//!     min_samples_per_leaf: 50,
//!     confidence: 0.99,
//!     ..Default::default()
//! });
//! let tauw = TauwBuilder::new().wrapper(wb).fit(vec!["q".into()], &train, &calib)?;
//!
//! let mut session = tauw.new_session();
//! session.begin_series();
//! let step = session.step(&[0.1], 0)?;
//! assert_eq!(step.fused_outcome, 0);
//! assert!(step.uncertainty < 0.5);
//! # Ok::<(), tauw_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adaptive;
pub mod buffer;
pub mod calibration;
pub mod conformal;
pub mod engine;
pub mod error;
pub mod monitor;
pub mod persist;
pub mod scope;
pub mod sharded;
pub mod taqf;
pub mod tauw;
pub mod training;
pub mod wrapper;

pub use adaptive::{
    AdaptiveConfig, AdaptiveState, AdaptiveTauwSession, CoverageStats, DriftSignal,
};
pub use buffer::{BufferEntry, TimeseriesBuffer};
pub use calibration::{
    CalibratedForestQim, CalibratedLeaf, CalibrationOptions, RouteSupport, ServingScratch, TaQim,
};
pub use conformal::{ConformalOptions, ConformalQim};
pub use engine::{StreamId, TauwEngine};
pub use error::CoreError;
pub use monitor::{MonitorDecision, MonitorStats, UncertaintyMonitor};
pub use scope::{ScopeComplianceModel, ScopeVerdict};
pub use sharded::{Admission, AdmissionReason, EngineShardState, ShardedEngine, StreamState};
pub use taqf::{TaqfKind, TaqfSet, TaqfVector};
pub use tauw::{
    replay, BackendSpec, ReplayRow, TauwBuilder, TauwSession, TauwStep, TimeseriesAwareWrapper,
};
pub use training::{TrainingSeries, TrainingStep};
pub use wrapper::{Explanation, UncertaintyEstimate, UncertaintyWrapper, WrapperBuilder};
