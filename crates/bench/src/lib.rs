//! # cots-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! CoTS paper's evaluation. Each experiment is one spec row of
//! [`repro::SPECS`]; the `repro [NAME…]` binary runs them in process,
//! prints each measured point and writes CSV and JSON under
//! `target/repro/`, plus a `SUMMARY.md` digest. `tests/claims.rs` runs the
//! same specs at reduced scale and asserts the paper's counter-keyed shape
//! claims. `perf-gate` and `soak` are the two other binaries.
//!
//! ## Scaling
//!
//! The paper ran streams of 1M–100M elements on a dedicated quad-core; this
//! harness defaults to laptop/container-friendly sizes and scales with the
//! `REPRO_SCALE` environment variable (a multiplier on stream lengths) and
//! `REPRO_REPEATS` (median-of-`k` wall-clock repeats; work counters are
//! deterministic per run and reported from the median run).
//!
//! ## Reading the numbers
//!
//! Wall-clock on a shared single-vCPU container is noisy and cannot show
//! true parallel speedup; every experiment therefore also reports the
//! hardware-independent *work counters* (combining factor, summary
//! operations per element, lock contentions, merge volume) that carry the
//! paper's qualitative claims. See `DESIGN.md` §4 and `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod engines;
pub mod harness;
pub mod repro;

pub use harness::Scale;
