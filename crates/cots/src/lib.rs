//! # cots — Cooperative Thread Scheduling
//!
//! A from-scratch Rust implementation of the **CoTS** framework of Das,
//! Antony, Agrawal and El Abbadi (ICDE 2009): parallel frequency counting
//! over data streams built on the principle of threads *cooperating* rather
//! than *contending*.
//!
//! Instead of waiting for a contended resource, a CoTS thread **logs its
//! request with the current holder and moves on** (*delegation*); a thread
//! that holds a resource never blocks on another (*minimal existence*).
//! Delegation happens at two levels:
//!
//! * **element level** — an atomic per-entry counter in the search
//!   structure turns concurrent updates of the same (hot) element into one
//!   *bulk increment* applied by a single thread;
//! * **bucket level** — each frequency bucket of the concurrent stream
//!   summary carries a lock-free request queue drained by whichever thread
//!   owns the bucket.
//!
//! For skewed streams this turns the contention points of a locked shared
//! design into combining points — the mechanism behind the paper's 2–4×
//! advantage over even the sequential implementation.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use cots::{CotsEngine, runtime};
//! use cots_core::{ConcurrentCounter, CotsConfig, QueryableSummary, Threshold};
//!
//! let engine = Arc::new(CotsEngine::<u64>::new(
//!     CotsConfig::for_capacity(1000).unwrap()).unwrap());
//! let stream: Vec<u64> = (0..100_000).map(|i| i % 100).collect();
//! runtime::run(&engine, &stream, runtime::RuntimeOptions {
//!     threads: 4, batch: 1024, adaptive: false }).unwrap();
//! let top = engine.snapshot().top_k(10);
//! assert_eq!(top.len(), 10);
//! assert!(engine.point_query(cots_core::PointQuery::IsFrequent {
//!     item: 5, threshold: Threshold::Fraction(0.005) }));
//! ```
//!
//! ## Crate map
//!
//! * [`node`] — the shared node (hash entry + summary element) and the
//!   `pending` delegation counter of Algorithm 2.
//! * [`hashtable`] — the lock-free-read, insert-locked, lazily-deleted
//!   search structure (§5.2.1), laid out as cache-line stripes.
//! * [`combiner`] — the batch-scoped combining front-end that
//!   pre-aggregates a batch's occurrences before they touch the table.
//! * [`bucket`] — frequency buckets with per-bucket request queues
//!   (§5.2.2, Fig. 10).
//! * [`engine`] — the request state machine (Algorithms 3–6), garbage
//!   collection, queries.
//! * [`policy`] — Space Saving vs Lossy Counting (§5.3).
//! * [`scheduler`] — the thread pool gate with σ/ρ thresholds (§5.2.3).
//! * [`runtime`] — the measurement driver.
//! * [`publish`] — epoch-stamped snapshot publishing for live serving.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bucket;
pub mod combiner;
pub mod engine;
pub mod hashtable;
pub mod node;
pub mod policy;
pub mod publish;
pub mod runtime;
pub mod scheduler;
pub mod sync_shim;

pub use engine::CotsEngine;
pub use policy::Policy;
pub use publish::{SnapshotPublisher, StampedSnapshot};
pub use runtime::{run, RuntimeOptions};
pub use scheduler::{SchedulerHook, ThreadGate};
