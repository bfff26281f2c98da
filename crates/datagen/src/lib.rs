//! # cots-datagen
//!
//! Synthetic data-stream generation for the CoTS experiments.
//!
//! The paper evaluates on zipfian streams: "The frequency of the elements in
//! the distribution varies as `f_i = N / (i^α ζ(α))` where
//! `ζ(α) = Σ_{i=1}^{|A|} 1/i^α`" (§6). This crate provides:
//!
//! * [`zipf`] — exact-CDF and O(1) alias-method samplers for that law;
//! * [`stream`] — reproducible stream materialization from a
//!   [`StreamSpec`] (zipf, uniform, and adversarial
//!   patterns);
//! * [`partition`] — the stream partitioners used to feed worker threads;
//! * [`truth`] — an exact hash-map counter and accuracy metrics for
//!   validating the approximate algorithms against ground truth.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod partition;
pub mod stream;
pub mod truth;
pub mod zipf;

pub use stream::{Distribution, StreamSpec};
pub use truth::{AccuracyReport, ExactCounter};
pub use zipf::{AliasTable, Zipf};
