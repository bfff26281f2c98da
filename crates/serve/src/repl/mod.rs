//! Primary/standby replication.
//!
//! A primary running with a data directory already writes every ingested
//! batch to a segmented WAL (`cots-persist`). This module turns one
//! durable log into two: a **WAL shipper** thread ([`shipper`], started
//! by `cots-serve --peer`) tails the primary's committed segments and
//! streams them to a standby over the existing framed protocol
//! (`REPL_SUBSCRIBE` / `REPL_BATCH` / `REPL_SNAPSHOT`), and [`plan`]
//! chunks tailed batches into bounded wire frames.
//!
//! The standby side is [`replica`] (`cots-serve --standby`): the service
//! applies shipped batches through the same `log → apply` path local
//! ingest uses, so its WAL copy is byte-for-byte replayable and its
//! in-memory summary obeys the same `count ≥ true ≥ count − error`
//! envelope. Acks carry the standby's durable watermark (its own
//! `next_seq`), which makes retransmission idempotent and lets the
//! primary prune shipped segments only once they are safe on two disks.
//!
//! Failover is the coordinator's job ([`crate::cluster`]): on primary
//! death it sends `REPL_PROMOTE`, the standby flips to primary in place,
//! and the federated staleness bound widens by exactly the un-acked WAL
//! tail the shipper reports — counted once, never double-counted.

#![forbid(unsafe_code)]

pub mod plan;
pub mod replica;
pub mod shipper;

pub use plan::{expected_ack, is_contiguous, plan_chunks, runs_for};
pub use shipper::{spawn, ShipperConfig, ShipperHandle};
