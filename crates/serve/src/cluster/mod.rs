//! Multi-node federation: one **coordinator** (`cots-coord`) fronts N
//! **members** (each a standard `cots-serve` instance), scaling ingest
//! beyond one machine while keeping every answer inside an explicit
//! error envelope.
//!
//! ```text
//! clients ──INGEST──▶ cots-coord ──MulHash·N >> 64──▶ member 0..N
//!    │                    │  ▲                            │
//!    │ QUERY/STATS/       │  └── SNAPSHOT_PAGE deltas ────┘
//!    │ CLUSTER_STATS      ▼       (streamed, paged)
//!    └─────────── federated SnapshotPublisher
//!                  (cots_core::merge across members)
//! ```
//!
//! * [`topology`] — the member list and the key-routing function (the
//!   same multiplicative hash the single-node shard router uses).
//! * [`fetch`] — streamed snapshot pulls: member summaries move as
//!   `SNAPSHOT_PAGE` frames (never near the 16 MiB frame cap) pinned to
//!   one member epoch, with `unchanged` delta short-circuits.
//! * [`federate`] — the merge and answer path: `cots_core::merge`
//!   across members keeps `count ≥ true ≥ count − error` under *any*
//!   key partition, which is what makes spillover routing sound.
//! * [`member`] — per-member health, exponential backoff, and the last
//!   good snapshot (degraded members keep contributing their last pull
//!   while the widened staleness bound reports the gap).
//! * [`coord`] — the coordinator: per-connection ingest routers,
//!   per-member pullers, federated publishing, cluster staleness math.
//! * [`front`] — the coordinator's TCP front-end; same wire protocol
//!   and `HELLO` handshake as `cots-serve`, so every client works
//!   unchanged.
//!
//! Answers carry a conservative cluster envelope: for every reported
//! key, `count − error ≤ true ≤ count + staleness`, where staleness
//! counts acknowledged keys not yet pulled into the federated merge —
//! including, after a member crash, the permanently lost tail, so
//! degraded answers never silently under-report.
//!
//! Members may be **replica pairs** (`--members PRIMARY/STANDBY`): the
//! primary ships its WAL to the standby ([`crate::repl`], started by
//! `cots-serve --peer`), and when the coordinator's health checks see
//! the primary dead it sends `REPL_PROMOTE` to the standby and flips
//! the slot's routing to it — no restarts, answers keep flowing, and
//! the staleness envelope widens by exactly the un-acked WAL tail the
//! standby never received (counted once, through the same
//! forwarded-vs-captured difference as every other loss). See
//! `docs/replication.md`.

pub mod coord;
pub mod federate;
pub mod fetch;
pub mod front;
pub mod member;
pub mod topology;

pub use coord::{CoordConfig, Coordinator, Router};
pub use fetch::{fetch_snapshot, Fetched, FetchedSnapshot};
pub use front::CoordServer;
pub use member::MemberTracker;
pub use topology::{parse_member_spec, parse_members, Topology};
