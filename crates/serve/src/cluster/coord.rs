//! The coordinator: key-routed ingest fan-out, periodic member
//! snapshot pulls, and federated answers.
//!
//! ```text
//! clients ──INGEST──▶ Router (per conn) ──key-route──▶ member A
//!    │                      │  spillover when down ──▶ member B
//!    │ QUERY/STATS          ▼
//!    └──────────▶ SnapshotPublisher ◀─merge─ pullers (1/member,
//!                   (federated)               SNAPSHOT_PAGE deltas)
//! ```
//!
//! **Staleness accounting.** `forwarded` counts keys some member
//! acknowledged. The federated snapshot's `captured_total` sums what
//! the merged member snapshots had applied at capture. Their difference
//! is the cluster staleness bound stamped on every answer: an
//! acknowledged key is either inside the summary or inside that bound.
//! When a member dies with acknowledged-but-not-yet-durable keys, the
//! bound stops shrinking to zero — the permanent floor is exactly the
//! (bounded) loss, so degraded answers stay honest instead of quietly
//! under-reporting.
//!
//! **Delivery semantics.** A batch is routed per key into per-member
//! coalescing buffers and acknowledged as *accepted* — `forwarded`
//! counts the keys immediately, so the staleness bound covers them
//! from the ack onward. A buffer at the coalesce threshold (or any
//! buffered key, once a read/stats/connection-end barrier hits) is
//! delivered as one full-size frame to its primary or, when the
//! primary cannot be reached *before anything was sent* (connect
//! refused), spilled to the next live member — sound because the merge
//! envelope holds under any key partition. If a connection dies
//! mid-request, the part's fate is unknown; the coordinator reports an
//! error rather than re-sending (re-delivery would silently
//! double-count), and the accepted-but-lost keys stay inside the
//! staleness bound forever. `OVERLOADED` from a member is absorbed by
//! bounded retry here and never causes re-routing of a delivered
//! batch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use cots::publish::SnapshotPublisher;
use cots_core::{ClusterReport, CotsError, Result, ServiceReport, ShardReport};

use crate::{Client, QueryReq, QueryStamp, Request, Response};

use super::federate;
use super::fetch::{fetch_snapshot, Fetched};
use super::member::MemberTracker;
use super::topology::{parse_members, Topology};

/// Consecutive failed contacts before the coordinator promotes a
/// slot's standby. One failure is routinely a blip (restart, GC-less
/// but still slow fsync, transient refusal under backoff); two in a
/// row with backoff between them means the primary is really gone.
const PROMOTE_AFTER: u32 = 2;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Member specs (`host:port`, or `PRIMARY/STANDBY` for a replica
    /// pair — see [`super::topology::parse_member_spec`]), index order
    /// = routing order.
    pub members: Vec<String>,
    /// Counter budget of the federated summary.
    pub capacity: usize,
    /// Pause between snapshot pulls per member.
    pub pull_interval: Duration,
    /// Read timeout on member connections.
    pub io_timeout: Duration,
    /// How long one batch part may retry `OVERLOADED` before the
    /// coordinator gives up on that member and spills.
    pub forward_deadline: Duration,
    /// Keys buffered per member before a forward flush (`0` = deliver
    /// every batch immediately). With coalescing on, `INGEST` acks mean
    /// *accepted*: the keys are inside the staleness bound from that
    /// moment, and a query, stats call, or connection end flushes them.
    /// Without it, frames forwarded to each member shrink as `1/N`
    /// members, which caps per-member drain-group size and erases the
    /// cluster's throughput headroom.
    pub coalesce_keys: usize,
}

impl Default for CoordConfig {
    fn default() -> Self {
        Self {
            members: Vec::new(),
            capacity: 1_000,
            pull_interval: Duration::from_millis(50),
            io_timeout: Duration::from_secs(2),
            forward_deadline: Duration::from_secs(10),
            coalesce_keys: 0,
        }
    }
}

/// A running coordinator: trackers, pullers, and the federated
/// publisher.
pub struct Coordinator {
    topology: Topology,
    members: Vec<Arc<MemberTracker>>,
    publisher: Arc<SnapshotPublisher<u64>>,
    capacity: usize,
    io_timeout: Duration,
    forward_deadline: Duration,
    coalesce_keys: usize,
    forwarded: AtomicU64,
    ingest_frames: AtomicU64,
    rejected_frames: AtomicU64,
    queries: AtomicU64,
    merges: AtomicU64,
    merge_lock: Mutex<()>,
    shutdown: AtomicBool,
    pullers: Mutex<Vec<JoinHandle<()>>>,
}

/// Outcome of one delivery attempt to one member.
enum SendOutcome {
    /// The member acknowledged every key.
    Acked,
    /// Could not reach the member; nothing was sent (safe to spill).
    Down,
    /// The member is alive but kept answering `OVERLOADED` past the
    /// deadline (safe to spill — an overload rejection enqueues
    /// nothing).
    Saturated,
    /// The connection died after the request was sent; the part may or
    /// may not have been applied (NOT safe to re-send).
    Uncertain,
}

impl Coordinator {
    /// Validate the config and spawn one puller thread per member.
    pub fn start(config: CoordConfig) -> Result<Arc<Self>> {
        if config.capacity == 0 {
            return Err(CotsError::InvalidConfig(
                "coordinator capacity must be positive".into(),
            ));
        }
        // A socket refuses a zero read timeout, and the member calls drop
        // that error: a hung member would block its puller forever.
        if config.io_timeout.is_zero() {
            return Err(CotsError::InvalidConfig(
                "coordinator I/O timeout must be positive".into(),
            ));
        }
        let (primaries, standbys) = parse_members(&config.members)?;
        let topology = Topology::new(primaries.clone())?;
        let members: Vec<Arc<MemberTracker>> = primaries
            .into_iter()
            .zip(standbys)
            .enumerate()
            .map(|(i, (addr, standby))| Arc::new(MemberTracker::new(i, addr, standby)))
            .collect();
        let coord = Arc::new(Self {
            topology,
            members,
            publisher: Arc::new(SnapshotPublisher::new()),
            capacity: config.capacity,
            io_timeout: config.io_timeout,
            forward_deadline: config.forward_deadline,
            coalesce_keys: config.coalesce_keys,
            forwarded: AtomicU64::new(0),
            ingest_frames: AtomicU64::new(0),
            rejected_frames: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            merge_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            pullers: Mutex::new(Vec::new()),
        });
        let mut pullers = Vec::new();
        for idx in 0..coord.members.len() {
            let c = coord.clone();
            let interval = config.pull_interval;
            pullers.push(
                std::thread::Builder::new()
                    .name(format!("cots-puller-{idx}"))
                    .spawn(move || c.puller_loop(idx, interval))
                    .map_err(|e| CotsError::Report(format!("spawn puller: {e}")))?,
            );
        }
        *coord.pullers.lock() = pullers;
        Ok(coord)
    }

    /// The member topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Has a shutdown been requested?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Flag shutdown; pullers notice within one pull interval.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Flag shutdown and join the puller threads.
    pub fn drain(&self) {
        self.begin_shutdown();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.pullers.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// A fresh per-connection router (owns its member connections and
    /// coalescing buffers).
    pub fn router(&self) -> Router {
        Router {
            conns: (0..self.members.len()).map(|_| None).collect(),
            conn_addrs: (0..self.members.len()).map(|_| String::new()).collect(),
            pending: (0..self.members.len()).map(|_| Vec::new()).collect(),
        }
    }

    /// One puller: keep a connection to the slot's current primary,
    /// pull snapshot deltas, re-merge on change. The health checks live
    /// here too: repeated failures hand the slot to [`Self::maybe_promote`],
    /// and because the connection target is re-read from the tracker on
    /// every reconnect, a completed promotion flips this puller (and
    /// every ingest router) to the new primary without restarts.
    fn puller_loop(&self, idx: usize, interval: Duration) {
        let Some(tracker) = self.members.get(idx).cloned() else {
            return;
        };
        let mut conn: Option<Client> = None;
        let mut conn_addr = String::new();
        while !self.shutdown_requested() {
            if !tracker.ready(Instant::now()) {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            let addr = tracker.addr();
            if conn_addr != addr {
                conn = None;
            }
            if conn.is_none() {
                match Client::connect(&addr) {
                    Ok(mut c) => {
                        let _ = c.set_timeout(Some(self.io_timeout));
                        conn = Some(c);
                        conn_addr = addr;
                    }
                    Err(_) => {
                        tracker.record_failure(Instant::now());
                        self.maybe_promote(&tracker);
                        continue;
                    }
                }
            }
            let Some(client) = conn.as_mut() else { continue };
            match fetch_snapshot(client, tracker.last_epoch()) {
                Ok(Fetched::Changed(fetched)) => {
                    tracker.record_pull(fetched);
                    self.remerge();
                }
                Ok(Fetched::Unchanged { .. }) => tracker.record_unchanged(),
                Err(_) => {
                    conn = None;
                    tracker.record_failure(Instant::now());
                    self.maybe_promote(&tracker);
                    continue;
                }
            }
            // Piggyback a STATS pull on the same connection: the
            // primary's reported un-acked replication tail is what a
            // promotion would lose, so it must be current when the
            // primary dies, not reconstructed after.
            if let Some(client) = conn.as_mut() {
                if let Ok(stats) = client.stats() {
                    tracker.record_repl_unacked(
                        stats.repl.as_ref().map_or(0, |r| r.unacked_keys),
                    );
                }
            }
            std::thread::sleep(interval);
        }
    }

    /// Promote the slot's standby once the primary looks dead. The
    /// standby must acknowledge `REPL_PROMOTE` before routing flips —
    /// a dead standby leaves the slot degraded-but-honest (its keys
    /// stay inside the staleness bound) rather than routed into a
    /// void. After the flip the staleness envelope widens by exactly
    /// the un-acked WAL tail, automatically: the slot's `forwarded`
    /// counter is untouched while the promoted standby's
    /// `captured_total` is missing the tail the old primary never
    /// shipped — the difference *is* the loss, counted once.
    fn maybe_promote(&self, tracker: &MemberTracker) {
        if tracker.consecutive_failures() < PROMOTE_AFTER {
            return;
        }
        let Some(standby) = tracker.standby() else {
            return;
        };
        let Ok(mut client) = Client::connect(&standby) else {
            return;
        };
        let _ = client.set_timeout(Some(self.io_timeout));
        if let Ok(Response::ReplAck { .. }) = client.call(&Request::ReplPromote) {
            if tracker.complete_promotion() {
                self.remerge();
            }
        }
    }

    /// Merge every member's last good snapshot and publish the result.
    fn remerge(&self) {
        // Serialize merges so (snapshot, captured_total) pairs publish
        // in a consistent order.
        let _guard = self.merge_lock.lock();
        let mut parts = Vec::new();
        let mut captured = 0u64;
        for member in &self.members {
            if let Some(fetched) = member.last() {
                parts.push(fetched.snapshot.clone());
                captured = captured.saturating_add(fetched.captured_total);
            }
        }
        if let Ok(merged) = federate::federate(&parts, self.capacity) {
            self.publisher.publish(merged, captured, None);
            self.merges.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Route one `INGEST` batch across the membership.
    ///
    /// Keys land in the router's per-member buffers; a buffer at or
    /// over the coalesce threshold is delivered as one full-size frame.
    /// The ack means *accepted*: `forwarded` counts the keys from this
    /// moment, so the staleness bound covers them while they sit in a
    /// buffer, in flight, or in a member's queue — and keeps covering
    /// them forever if a later flush fails, which is exactly the
    /// permanent floor degraded answers are stamped with.
    pub fn forward(&self, router: &mut Router, keys: &[u64]) -> Response {
        self.ingest_frames.fetch_add(1, Ordering::Relaxed);
        if keys.is_empty() {
            return Response::IngestAck { enqueued: 0 };
        }
        for &key in keys {
            router.pending[self.topology.member_of(key)].push(key);
        }
        self.forwarded.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let threshold = self.coalesce_keys.max(1);
        let deadline = Instant::now() + self.forward_deadline;
        for primary in 0..router.pending.len() {
            if router.pending[primary].len() < threshold {
                continue;
            }
            let mut part = std::mem::take(&mut router.pending[primary]);
            let delivery = self.deliver(router, primary, &part, deadline);
            // Hand the allocation back: the buffer keeps its high-water
            // capacity across flushes instead of re-growing from empty.
            part.clear();
            router.pending[primary] = part;
            if let Err(message) = delivery {
                self.rejected_frames.fetch_add(1, Ordering::Relaxed);
                return Response::Error { message };
            }
        }
        Response::IngestAck {
            enqueued: keys.len() as u64,
        }
    }

    /// Deliver every key still buffered in `router` — the barrier
    /// before reads, stats, shutdown, and at connection end, so a
    /// client that stops ingesting never strands accepted keys.
    ///
    /// A failed part is *not* retried here: its keys were counted into
    /// `forwarded` at accept time, so the staleness bound carries the
    /// (bounded) loss instead of an answer quietly under-reporting.
    pub fn flush(&self, router: &mut Router) -> std::result::Result<(), String> {
        let deadline = Instant::now() + self.forward_deadline;
        let mut first_err = None;
        for primary in 0..router.pending.len() {
            if router.pending[primary].is_empty() {
                continue;
            }
            let mut part = std::mem::take(&mut router.pending[primary]);
            let delivery = self.deliver(router, primary, &part, deadline);
            // Same capacity-preserving return as `forward`.
            part.clear();
            router.pending[primary] = part;
            if let Err(message) = delivery {
                self.rejected_frames.fetch_add(1, Ordering::Relaxed);
                first_err.get_or_insert(message);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Deliver one part to its primary or a spillover target.
    fn deliver(
        &self,
        router: &mut Router,
        primary: usize,
        keys: &[u64],
        deadline: Instant,
    ) -> std::result::Result<(), String> {
        let mut attempted = false;
        // Pass 1 honors backoff (skip members in their retry window);
        // pass 2 runs only if that skipped everyone — a batch must not
        // fail just because every member was momentarily backed off.
        for honor_backoff in [true, false] {
            for target in self.topology.route_order(primary) {
                let Some(tracker) = self.members.get(target) else {
                    continue;
                };
                if honor_backoff && !tracker.ready(Instant::now()) {
                    continue;
                }
                attempted = true;
                match self.try_send(router, target, keys, deadline) {
                    SendOutcome::Acked => {
                        tracker.record_forward(keys.len() as u64, target != primary);
                        return Ok(());
                    }
                    SendOutcome::Down => tracker.record_failure(Instant::now()),
                    SendOutcome::Saturated => {}
                    SendOutcome::Uncertain => {
                        tracker.record_failure(Instant::now());
                        return Err(format!(
                            "delivery uncertain: connection to member {target} \
                             ({}) died mid-request with {} keys in flight",
                            tracker.addr(),
                            keys.len()
                        ));
                    }
                }
            }
            if attempted {
                break;
            }
        }
        Err(format!(
            "no member reachable for {} keys routed to member {primary}",
            keys.len()
        ))
    }

    /// One attempt against one member, absorbing `OVERLOADED` with
    /// bounded retry.
    fn try_send(
        &self,
        router: &mut Router,
        target: usize,
        keys: &[u64],
        deadline: Instant,
    ) -> SendOutcome {
        let Some(slot) = router.conns.get_mut(target) else {
            return SendOutcome::Down;
        };
        // Resolve the address through the tracker, not the static
        // topology: after a promotion the slot's primary is the old
        // standby, and routers must follow the flip. An open connection
        // to a since-replaced address is dropped here even if it is
        // still healthy — a falsely-suspected primary can outlive its
        // demotion, and ingest must follow the flip, not the socket.
        let addr = self
            .members
            .get(target)
            .map(|t| t.addr())
            .unwrap_or_default();
        if slot.is_some()
            && router.conn_addrs.get(target).map(String::as_str) != Some(addr.as_str())
        {
            *slot = None;
        }
        if slot.is_none() {
            match Client::connect(&addr) {
                Ok(mut c) => {
                    let _ = c.set_timeout(Some(self.io_timeout));
                    *slot = Some(c);
                    if let Some(a) = router.conn_addrs.get_mut(target) {
                        *a = addr;
                    }
                }
                Err(_) => return SendOutcome::Down,
            }
        }
        // Encode once per member attempt — straight from the raw key
        // run to BIN1 — and resend the same buffer across OVERLOADED
        // retries instead of re-encoding.
        let payload = match slot.as_ref() {
            Some(client) => client.encode_ingest(keys),
            None => return SendOutcome::Down,
        };
        let mut retries = 0u64;
        loop {
            let Some(client) = slot.as_mut() else {
                return SendOutcome::Down;
            };
            match client
                .send_payload(&payload)
                .and_then(|()| client.recv())
            {
                Ok(Response::IngestAck { enqueued }) if enqueued == keys.len() as u64 => {
                    return SendOutcome::Acked;
                }
                Ok(Response::Overloaded) => {
                    if Instant::now() > deadline {
                        return SendOutcome::Saturated;
                    }
                    retries += 1;
                    std::thread::sleep(Duration::from_micros((50 * retries).min(5_000)));
                }
                Ok(_) | Err(_) => {
                    // Partial ack, protocol surprise, or a dead socket
                    // after the request went out: fate unknown.
                    *slot = None;
                    return SendOutcome::Uncertain;
                }
            }
        }
    }

    /// Answer one query from the federated snapshot.
    pub fn answer(&self, q: QueryReq) -> Response {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let current = self.publisher.current();
        let stamp = self.stamp_for(current.epoch, current.captured_total);
        crate::protocol::answer(&current.snapshot, q, stamp)
    }

    /// The federated snapshot (for `SNAPSHOT` and `SNAPSHOT_PAGE`
    /// serving).
    pub fn published(&self) -> Arc<cots::publish::StampedSnapshot<u64>> {
        self.publisher.current()
    }

    /// Stamp an answer computed from a snapshot with the given
    /// provenance: cluster staleness = acknowledged keys the snapshot
    /// does not yet account for.
    pub fn stamp_for(&self, epoch: u64, captured_total: u64) -> QueryStamp {
        QueryStamp {
            epoch,
            captured_total,
            staleness: self
                .forwarded
                .load(Ordering::Relaxed)
                .saturating_sub(captured_total),
            rotations: None,
        }
    }

    /// Service-shaped statistics, so single-node clients (and the load
    /// generator's quiescence logic) work unchanged: one synthetic
    /// "shard" per member whose `keys` is that member's merged
    /// contribution.
    pub fn stats(&self) -> ServiceReport {
        let current = self.publisher.current();
        let shards = self
            .members
            .iter()
            .map(|m| {
                let r = m.report();
                ShardReport {
                    shard: r.member,
                    batches: r.pulls,
                    keys: r.captured_total,
                    max_queue_depth: 0,
                    idle_parks: 0,
                }
            })
            .collect();
        ServiceReport {
            ingested_keys: self.forwarded.load(Ordering::Relaxed),
            ingest_frames: self.ingest_frames.load(Ordering::Relaxed),
            rejected_frames: self.rejected_frames.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            snapshot_epoch: current.epoch,
            staleness: self
                .forwarded
                .load(Ordering::Relaxed)
                .saturating_sub(current.captured_total),
            monitored: current.snapshot.len(),
            shards,
            recovery: None,
            persist: None,
            repl: None,
        }
    }

    /// The cluster-wide report for `CLUSTER_STATS`.
    pub fn cluster_report(&self) -> ClusterReport {
        let current = self.publisher.current();
        let members: Vec<_> = self.members.iter().map(|m| m.report()).collect();
        let degraded: Vec<_> = members.iter().filter(|m| !m.healthy).collect();
        ClusterReport {
            epoch: current.epoch,
            captured_total: current.captured_total,
            forwarded_keys: self.forwarded.load(Ordering::Relaxed),
            staleness: self
                .forwarded
                .load(Ordering::Relaxed)
                .saturating_sub(current.captured_total),
            degraded_members: degraded.len(),
            degraded_staleness: degraded.iter().map(|m| m.staleness).sum(),
            merges: self.merges.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            promotions: members.iter().map(|m| m.promotions).sum(),
            repl_unacked_keys: members.iter().map(|m| m.repl_unacked_keys).sum(),
            members,
        }
    }
}

/// Per-connection forwarding state: one lazily opened connection per
/// member, so concurrent client connections never serialize on shared
/// sockets, plus one coalescing buffer per member so forwarded frames
/// stay full-size no matter how many ways a client batch splits.
pub struct Router {
    conns: Vec<Option<Client>>,
    /// Address each open connection was made to; a promotion changes
    /// the tracker's address, and `try_send` drops any connection whose
    /// recorded address no longer matches (same discipline as the
    /// puller's `conn_addr`).
    conn_addrs: Vec<String>,
    pending: Vec<Vec<u64>>,
}

impl Router {
    /// Keys accepted but not yet delivered to any member.
    pub fn buffered(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_refuses_a_zero_io_timeout() {
        let config = CoordConfig {
            members: vec!["127.0.0.1:1".into()],
            io_timeout: Duration::ZERO,
            ..CoordConfig::default()
        };
        match Coordinator::start(config) {
            Err(CotsError::InvalidConfig(message)) => assert!(message.contains("timeout")),
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("a zero I/O timeout was accepted"),
        }
    }
}
