//! The `baseline` binary's machine-readable [`report`] schema, and the
//! one-factor [`soak`] model the serving ledger's `cohort_100k` workload
//! serves.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod report;
pub mod soak;
