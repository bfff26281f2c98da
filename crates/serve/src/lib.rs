//! # cots-serve
//!
//! A network-facing streaming ingest + live-query service: the deployment
//! shape the paper's line-rate argument is about.
//! Clients stream batched keys over TCP and ask `frequent(φ)` / top-k /
//! point-frequency questions of the live summary without ever stopping
//! ingestion.
//!
//! ## Architecture
//!
//! ```text
//! clients ──frames──▶ reactor threads (epoll) ──SPSC rings──▶ shard workers
//!                        │    ▲                                   │ apply own keys
//!                      QUERY  │ answer                            ▼
//!                        ▼    │                  one Space Saving summary per worker
//!                   SnapshotPublisher ◀──capture── merge_disjoint
//! ```
//!
//! * **Wire protocol** ([`frame`], [`protocol`], [`bin1`]):
//!   length-prefixed frames carrying externally-tagged JSON
//!   (`cots_core::json`): `INGEST`, `QUERY`, `STATS`, `SNAPSHOT`,
//!   `SHUTDOWN`. Peers that negotiate the `"bin"` feature at `HELLO`
//!   may carry the bulk ops (`INGEST`, `REPL_BATCH`, `SNAPSHOT_PAGE`)
//!   as BIN1 fixed-LE binary payloads instead.
//! * **Connection rules** ([`session`]): the `HELLO` gate, BIN1
//!   admission, encode-in-kind, snapshot pinning and the frame-cap
//!   fallback, written once over an [`Endpoint`] trait that this crate's
//!   [`Service`] and the [`cluster`] coordinator both implement.
//! * **Event-driven front-end** ([`reactor`], [`server`]): a small fixed
//!   pool of reactor threads drives every connection via readiness
//!   polling (epoll on Linux, `poll(2)` on other Unix) and incremental
//!   frame assembly, so N connections cost N buffers rather than N OS
//!   threads.
//! * **Sharded ingest** ([`spsc`], [`shard`]): per-(producer, shard)
//!   bounded SPSC rings feed workers, each counting its own
//!   hash-partitioned keys in a private Space Saving summary; a full
//!   ring parks the connection that found it full (backpressure by not
//!   reading) instead of buffering unboundedly, a frame held past
//!   [`reactor::conn::HOLD`] is answered `OVERLOADED`, and shutdown
//!   drains every ring. Each reactor *thread*
//!   is one producer (R×shards rings).
//! * **Live queries** ([`service`], `cots::publish`): captures merge the
//!   worker summaries into a consistent [`cots_core::Snapshot`] behind an
//!   epoch-stamped publisher, by progress (every `16 × shards ×
//!   capacity` applied keys) and at least every `--refresh-ms`; every
//!   answer reports its epoch and staleness bound.
//! * **Durability** ([`persistence`], `cots-persist`): with `--data-dir`
//!   the service group-commits every drained batch to a segmented WAL,
//!   checkpoints the summary on a cadence (and on the `CHECKPOINT`
//!   wire op), and on restart seeds the summaries from the checkpoint and
//!   replays the WAL tail *before* the listener opens, keeping the
//!   Space-Saving error envelope over everything recovered.
//! * **Replication** ([`repl`]): `--standby` makes a node a warm
//!   standby; `--peer` starts a WAL shipper streaming this node's
//!   committed log to one.
//! * **Federation** ([`cluster`]): the `cots-coord` coordinator
//!   key-routes ingest across member `cots-serve` nodes, merges their
//!   summaries and fails replica pairs over.
//! * **Binaries**: `cots-serve` (the server; its command line is
//!   [`cli`]) and `cots-coord` (the coordinator). Load is driven by
//!   `benchmark/` and by the e2e suites through [`Client`], waiting on
//!   [`loadgen::await_quiescence`] before checking answers against exact
//!   truth.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bin1;
pub mod cli;
pub mod client;
pub mod cluster;
pub mod frame;
pub mod loadgen;
pub mod persistence;
pub mod protocol;
pub mod reactor;
pub mod repl;
pub mod server;
pub mod service;
pub mod session;
pub mod shard;
pub mod spsc;

pub use bin1::Bin1Error;
pub use client::Client;
pub use frame::{FrameAssembler, FrameError, Payload, BIN1_MAGIC, MAX_FRAME};
pub use persistence::{PersistOptions, Persistence};
pub use protocol::{
    QueryReq, QueryStamp, ReplFrame, Request, Response, MAX_PAGE_ENTRIES, MIN_PROTO_VERSION,
    PROTO_VERSION,
};
pub use server::{IoConfig, Server};
pub use service::{Service, ServiceConfig};
pub use session::{ConnState, Endpoint, Reply};
pub use shard::{Backend, SendOutcome, ShardPool, ShardSender};
