//! # tauw-stats
//!
//! Statistical substrate for the timeseries-aware uncertainty wrapper (taUW)
//! reproduction. Everything here is implemented from scratch on top of `std`
//! because the Rust ecosystem's statistics crates are thin and the paper's
//! guarantees hinge on the exact semantics of these routines:
//!
//! * [`special`] — log-gamma, regularized incomplete beta/gamma, error
//!   function and the normal distribution, all accurate to ~1e-12 in the
//!   ranges used by the bounds below.
//! * [`binomial`] — one-sided binomial confidence bounds (Clopper–Pearson,
//!   Wilson, Jeffreys, Hoeffding). These produce the "dependable" per-leaf
//!   uncertainty guarantees of the uncertainty wrapper.
//! * [`brier`] — Brier score and its Murphy decomposition into
//!   variance/resolution/reliability, plus the paper's *unspecificity* and
//!   *overconfidence* derived metrics (Table I of the paper).
//! * [`calibration`] — quantile-binned calibration curves (Fig. 6 of the
//!   paper), expected/maximum calibration error.
//! * [`descriptive`] — streaming moments, quantiles, histograms.
//! * [`bootstrap`] — a dependency-free deterministic PRNG for resampling.
//! * [`roc`] — ROC curves and AUC: pure discrimination diagnostics for
//!   uncertainty estimates.
//!
//! ## Quickstart
//!
//! ```
//! use tauw_stats::binomial::{BoundMethod, upper_bound};
//!
//! // 3 failures observed in 500 samples: what failure probability can be
//! // guaranteed not to be exceeded with 99.9% confidence?
//! let u = upper_bound(BoundMethod::ClopperPearson, 3, 500, 0.999).unwrap();
//! assert!(u > 3.0 / 500.0 && u < 0.05);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod binomial;
pub mod bootstrap;
pub mod brier;
pub mod calibration;
pub mod descriptive;
pub mod error;
pub mod roc;
pub mod special;

pub use binomial::{lower_bound, upper_bound, BoundMethod};
pub use brier::{BrierDecomposition, Grouping};
pub use calibration::{CalibrationCurve, CalibrationPoint};
pub use error::StatsError;
