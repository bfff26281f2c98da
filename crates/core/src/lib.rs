//! # cots-core
//!
//! Common vocabulary for the CoTS frequency-counting suite: the element and
//! counter abstractions, the query model of the paper (§3.2), multiplicative
//! hashing, the merge algebra used by the shared-nothing designs, engine
//! configuration, and machine-readable run reports.
//!
//! Every engine in the workspace — the sequential algorithms in
//! `cots-sequential`, the naive parallelizations in `cots-naive`, and the
//! CoTS framework in `cots` — implements the traits defined here, so the
//! benchmark harness and the examples can drive them interchangeably.
//!
//! ## Crate map
//!
//! * [`element`] — the [`Element`] trait satisfied by
//!   stream items.
//! * [`hash`] — Knuth multiplicative hashing, the hash family the paper
//!   recommends for the search structure.
//! * [`counter`] — [`CounterEntry`] (item, count,
//!   error) and [`Snapshot`], the sorted summary view all
//!   engines can export.
//! * [`merge`] — the Space-Saving merge algebra used by the
//!   independent-structures design.
//! * [`query`] — Queries 1–4 of the paper: point/set × one-shot/interval.
//! * [`ql`] — a parser for the paper's SQL-like query dialect
//!   (`Select S.element From Stream S Where … Every …`).
//! * [`traits`] — [`FrequencyCounter`] (sequential
//!   engines) and [`ConcurrentCounter`] (shared
//!   engines).
//! * [`config`] — capacity/ε configuration shared by all engines.
//! * [`report`] — JSON-serializable run statistics and hardware-independent
//!   work counters.
//! * [`json`] — the dependency-free JSON model those reports serialize
//!   through ([`ToJson`] / [`FromJson`]).
//! * [`error`] — the crate error type.
//! * [`invariants`] — structural self-auditing for summary structures
//!   (feature `invariants`, on by default).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod counter;
pub mod element;
pub mod error;
pub mod hash;
#[cfg(feature = "invariants")]
pub mod invariants;
pub mod json;
pub mod merge;
pub mod ql;
pub mod query;
pub mod report;
pub mod traits;

pub use config::{CotsConfig, SummaryConfig};
pub use counter::{CounterEntry, Snapshot};
pub use element::Element;
pub use error::{CotsError, Result};
pub use hash::{MulHash, SeededMulHash};
#[cfg(feature = "invariants")]
pub use invariants::{CheckInvariants, Violation};
pub use json::{FromJson, Json, ToJson};
pub use query::{PointQuery, QueryAnswer, SetQuery, Threshold};
pub use report::{
    ClusterReport, MemberReport, PersistReport, RecoveryReport, ReplReport, RunStats,
    ServiceReport, ShardReport, WorkCounters,
};
pub use traits::{ConcurrentCounter, FrequencyCounter, QueryableSummary};
