//! # cots-sequential
//!
//! The sequential frequency-counting algorithms the CoTS paper evaluates,
//! both behind the `cots-core` traits:
//!
//! * [`summary::StreamSummary`] — the Stream Summary structure (Fig. 2):
//!   frequency-sorted elements at O(1) per update. The substrate of Space
//!   Saving and the thing the naive shared parallelization locks.
//! * [`space_saving::SpaceSaving`] — the paper's primary algorithm (§3.3).
//! * [`lossy_counting::LossyCounting`] — Manku–Motwani rounds-based counting
//!   (§5.3 adapts it into CoTS).
//!
//! The sequential `SpaceSaving` here is the baseline of Table 2 and the
//! 1-thread reference of Figures 3, 6 and 7.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod lossy_counting;
pub mod space_saving;
pub mod summary;

pub use lossy_counting::LossyCounting;
pub use space_saving::SpaceSaving;
pub use summary::{NodeId, StreamSummary};
