//! The service: one summary per shard worker, one shard pool, one
//! snapshot publisher, and the member's [`Endpoint`] — how it answers
//! every request the shared connection layer ([`crate::session`]) passes
//! on.
//!
//! Queries never touch the counting structures: they are answered from
//! the most recently *published* snapshot, so a query burst cannot block
//! ingestion (and vice versa — the publisher thread is the only reader
//! doing capture work). Every answer carries the snapshot's epoch and a
//! staleness bound: the number of items applied since that snapshot was
//! captured.
//!
//! Publishes follow progress: the publisher thread publishes at least
//! every `refresh`, and a shard worker publishes inline as soon as the
//! keys applied since the last capture reach [`PUBLISH_BUDGET_PER_ENTRY`]
//! × `shards` × `capacity`, so faster ingest means more publishes rather
//! than staler answers.
//!
//! One Space Saving summary per shard worker ([`Partitioned`]) is the
//! only counting structure a service holds. With persistence enabled
//! (`--data-dir`), startup recovers the durable state
//! *before* any listener opens: the newest valid checkpoint **seeds** the
//! per-shard summaries, each shard taking its own keys under the
//! checkpoint's admission floor ([`Partitioned::seed`]), and the WAL tail
//! replays on top from the runs it was logged as, one thread per shard
//! ([`Partitioned::replay`]), so post-recovery answers are the summaries'
//! own — the same `count ≥ true ≥ count − error` envelope, no merge with
//! a frozen base on the way out. A standby's
//! catch-up snapshot seeds its empty summaries the same way, and from then
//! on [`Persistence::log_and_apply`] is the only way in.
//!
//! AUDIT: locks — the request path must never block behind I/O holding a
//! lock; enforced by `cargo xtask audit` (lint-locks).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use cots::SnapshotPublisher;
use cots_core::{CotsError, RecoveryReport, ReplReport, Result, ServiceReport, Snapshot};
use cots_profiling::IngestTally;

use crate::persistence::{self, PersistOptions, Persistence};
use crate::protocol::{self, QueryStamp, ReplFrame, Request, Response};
use crate::repl::replica::{Admission, Offer, Replica};
use crate::session::{self, ConnState, Endpoint};
use crate::shard::{Partitioned, Refresher, RoomWaker, SendOutcome, ShardPool, ShardSender};

/// Feature flags a member instance advertises in `HELLO_ACK`: none.
const MEMBER_FEATURES: &[&str] = &[];

/// Keys applied per summary entry a capture copies before a publish is
/// due ahead of the timer. A capture copies at most `shards × capacity`
/// entries, so a budget of this many keys per entry keeps publish work at
/// no more than 1/16 of an entry copied per key applied.
pub const PUBLISH_BUDGET_PER_ENTRY: u64 = 16;

/// Service deployment knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shard worker threads, 1 to [`MAX_SHARDS`](crate::shard::MAX_SHARDS).
    pub shards: usize,
    /// Counter budget of the summary (`m`).
    pub capacity: usize,
    /// Longest interval between publishes. Ingest publishes sooner: every
    /// [`PUBLISH_BUDGET_PER_ENTRY`] × `shards` × `capacity` applied keys.
    pub refresh: Duration,
    /// Ring capacity per (connection, shard), in batches.
    pub queue_batches: usize,
    /// Durable checkpoints + WAL under a data directory.
    pub persist: Option<PersistOptions>,
    /// Start as a replication standby: refuse `INGEST`, accept the
    /// `REPL_*` stream from a primary, stay promotable. Requires
    /// `persist` (the standby keeps its own durable WAL copy).
    pub standby: bool,
    /// Replication peer: the standby this node's WAL shipper streams to
    /// (`--peer`). `STATS` reports it, and `cots-serve` starts the
    /// shipper ([`crate::repl::spawn`]) when it is set. Requires
    /// `persist` (the shipper tails the WAL).
    pub repl_peer: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            capacity: 1_000,
            refresh: Duration::from_millis(20),
            queue_batches: 64,
            persist: None,
            standby: false,
            repl_peer: None,
        }
    }
}

/// A running service instance (workers + publisher thread).
pub struct Service {
    summaries: Arc<Partitioned>,
    pool: Arc<ShardPool>,
    publisher: Arc<SnapshotPublisher<u64>>,
    /// Captures and publishes, on the timer and by progress.
    refresher: Arc<Refresher>,
    /// The timer-driven publisher thread, woken at shutdown.
    publisher_thread: std::thread::Thread,
    tally: Arc<IngestTally>,
    shutdown: Arc<AtomicBool>,
    /// Join handles of everything [`Service::start`] spawned, taken
    /// (once) by [`Service::drain`].
    threads: Mutex<Option<Vec<JoinHandle<()>>>>,
    persistence: Option<Arc<Persistence>>,
    /// Watermark of the checkpoint the summaries were seeded from: the
    /// first WAL sequence it did *not* cover. Everything below it is only
    /// available as part of a catch-up snapshot, never as individual WAL
    /// batches.
    base_watermark: AtomicU64,
    recovery: Option<RecoveryReport>,
    replica: Replica,
}

impl Service {
    /// Recover durable state (when configured), build the summaries, and
    /// spawn shard workers plus the publisher and checkpointer threads.
    pub fn start(config: ServiceConfig) -> Result<Self> {
        if config.standby && config.persist.is_none() {
            return Err(CotsError::InvalidConfig(
                "standby mode requires --data-dir: a standby keeps its own \
                 durable WAL copy of the replicated stream"
                    .into(),
            ));
        }
        let publisher = Arc::new(SnapshotPublisher::new());
        let mut recovery: Option<RecoveryReport> = None;
        let mut persistence: Option<Arc<Persistence>> = None;
        let mut base_watermark = 0u64;
        let mut lineage = 0u64;

        let summaries = Arc::new(Partitioned::new(config.shards, config.capacity)?);
        if let Some(opts) = &config.persist {
            let started = Instant::now();
            let mut rec = cots_persist::recover_runs(&opts.data_dir)?;
            if let Some(ckpt) = &rec.base {
                let snap = ckpt.snapshot();
                summaries.seed(&persistence::fit_summary(
                    snap,
                    Some(ckpt.capacity),
                    config.capacity,
                )?)?;
                publisher.resume_from(ckpt.epoch);
                base_watermark = ckpt.watermark;
            }
            summaries.replay(&rec.batches)?;
            rec.report.elapsed_secs = started.elapsed().as_secs_f64();
            #[cfg(feature = "invariants")]
            summaries.check_invariants();
            persistence = Some(Arc::new(Persistence::new(
                opts,
                rec.next_seq,
                config.capacity,
            )?));
            lineage = cots_persist::load_lineage(&opts.data_dir);
            recovery = Some(rec.report);
        }

        // Publish the recovered (or empty) state synchronously so the
        // first query ever answered already sees it.
        let budget = PUBLISH_BUDGET_PER_ENTRY * (config.shards * config.capacity) as u64;
        let refresher = Arc::new(Refresher::new(summaries.clone(), publisher.clone(), budget));
        refresher.publish();

        let pool = ShardPool::new(config.shards, config.queue_batches);
        let mut threads = pool.spawn_workers(&summaries, persistence.clone(), &refresher);
        let shutdown = Arc::new(AtomicBool::new(false));
        let timer = {
            let refresher = refresher.clone();
            let shutdown = shutdown.clone();
            let refresh = config.refresh;
            std::thread::Builder::new()
                .name("cots-publisher".into())
                .spawn(move || {
                    // The timer is the ceiling; progress publishes come
                    // from the shard workers in between, and shutdown
                    // unparks this early.
                    while !shutdown.load(Ordering::Acquire) {
                        refresher.tick();
                        std::thread::park_timeout(refresh);
                    }
                    // One final publish so post-drain queries see the
                    // quiescent state with zero staleness.
                    refresher.tick();
                })
                .map_err(|e| CotsError::Report(format!("spawn publisher: {e}")))?
        };
        let checkpointer = match (&persistence, &config.persist) {
            (Some(p), Some(opts)) if !opts.checkpoint_every.is_zero() => {
                let p = p.clone();
                let summaries = summaries.clone();
                let publisher = publisher.clone();
                let shutdown = shutdown.clone();
                let every = opts.checkpoint_every;
                Some(
                    std::thread::Builder::new()
                        .name("cots-checkpointer".into())
                        .spawn(move || {
                            let mut last = Instant::now();
                            while !shutdown.load(Ordering::Acquire) {
                                std::thread::sleep(Duration::from_millis(20));
                                if last.elapsed() < every {
                                    continue;
                                }
                                last = Instant::now();
                                if let Err(e) = p.checkpoint(&summaries, &publisher) {
                                    eprintln!("cots-serve: background checkpoint failed: {e}");
                                }
                            }
                        })
                        .map_err(|e| CotsError::Report(format!("spawn checkpointer: {e}")))?,
                )
            }
            _ => None,
        };
        let publisher_thread = timer.thread().clone();
        threads.push(timer);
        threads.extend(checkpointer);
        Ok(Self {
            summaries,
            pool,
            publisher,
            refresher,
            publisher_thread,
            tally: Arc::new(IngestTally::new()),
            shutdown,
            threads: Mutex::new(Some(threads)),
            persistence,
            base_watermark: AtomicU64::new(base_watermark),
            recovery,
            replica: Replica::new(
                config.standby,
                lineage,
                config.repl_peer.unwrap_or_default(),
            ),
        })
    }

    /// The recovery accounting from startup, when persistence is on.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Whether this instance is currently a replication standby.
    pub fn is_standby(&self) -> bool {
        self.replica.is_standby()
    }

    /// Times this instance has been promoted from standby to primary.
    pub fn promotions(&self) -> u64 {
        self.replica.promotions()
    }

    /// This node's replication lineage (promotion generation). A fresh
    /// data directory starts at 0; every promotion bumps it durably.
    pub fn lineage(&self) -> u64 {
        self.replica.lineage()
    }

    /// The persistence layer, when running with a data directory. The
    /// WAL shipper tails its directory and pins its prune floor.
    pub fn persistence(&self) -> Option<&Arc<Persistence>> {
        self.persistence.as_ref()
    }

    /// Install the primary-side replication report the WAL shipper
    /// maintains; it is merged into every `STATS` answer.
    pub fn set_repl_report(&self, report: ReplReport) {
        self.replica.set_shipped(report);
    }

    /// The lowest WAL sequence this instance can ship as individual
    /// batches: the seeding checkpoint's watermark or the oldest
    /// surviving WAL segment, whichever is higher. A standby acknowledged
    /// below this floor needs a catch-up snapshot first.
    pub fn repl_floor(&self) -> u64 {
        let base = self.base_watermark.load(Ordering::Acquire);
        let oldest = match &self.persistence {
            Some(p) => match cots_persist::oldest_segment_seq(p.dir()) {
                Ok(Some(seq)) => seq,
                Ok(None) => p.next_seq(),
                Err(_) => p.next_seq(),
            },
            None => 0,
        };
        base.max(oldest)
    }

    /// Cut a consistent `(watermark, summary)` pair for a catch-up
    /// `REPL_SNAPSHOT` — a durable checkpoint whose summary is handed
    /// back instead of thrown away. Requires persistence.
    pub fn repl_cut(&self) -> Result<(u64, Snapshot<u64>)> {
        let p = self
            .persistence
            .as_ref()
            .ok_or_else(|| CotsError::Report("replication snapshot requires --data-dir".into()))?;
        let cut = p.checkpoint(&self.summaries, &self.publisher)?;
        Ok((cut.watermark, cut.summary))
    }

    /// Register a new in-process sender with the shard pool: it gets
    /// [`Response::Overloaded`] for a batch the rings have no room for and
    /// retries on its own.
    pub fn connect(&self) -> ShardSender {
        self.pool.connect(None)
    }

    /// Register a reactor's sender with the shard pool: `room` is called
    /// when a ring the sender waits on has room again.
    pub(crate) fn connect_woken(&self, room: RoomWaker) -> ShardSender {
        self.pool.connect(Some(room))
    }

    /// Count an INGEST answered `OVERLOADED`: a reactor's frame held past
    /// its hold, or an in-process one refused at once.
    pub(crate) fn rejected(&self) {
        self.tally.reject();
    }

    /// Whether graceful shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Request graceful shutdown (idempotent). Connections observe it via
    /// [`Service::shutdown_requested`] and close; closing their rings
    /// lets the (also signalled) shard workers drain and exit.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.pool.begin_shutdown();
        self.publisher_thread.unpark();
    }

    /// Handle one request in process, on a connection that needs no
    /// handshake: the same path a socket takes through
    /// [`session::serve_request`], minus the `HELLO` gate.
    pub fn handle(&self, request: Request, sender: &mut ShardSender) -> Response {
        let response =
            session::serve_request(self, &mut ConnState::pre_greeted(), request, sender).response;
        if matches!(response, Response::Overloaded) {
            self.rejected();
        }
        response
    }
}

impl Endpoint for Service {
    type Link = ShardSender;

    fn features(&self) -> &'static [&'static str] {
        MEMBER_FEATURES
    }

    fn current(&self, _sender: &mut ShardSender) -> Arc<cots::StampedSnapshot<u64>> {
        self.publisher.current()
    }

    fn stamp(&self, snap: &cots::StampedSnapshot<u64>) -> QueryStamp {
        QueryStamp {
            epoch: snap.epoch,
            captured_total: snap.captured_total,
            staleness: self
                .summaries
                .processed()
                .saturating_sub(snap.captured_total),
            rotations: snap.rotations,
        }
    }

    fn dispatch(&self, request: Request, sender: &mut ShardSender) -> Response {
        match request {
            Request::Hello { .. } | Request::SnapshotPage { .. } => session::not_dispatched(),
            Request::Ingest { keys } => {
                if self.is_standby() {
                    return Response::Error {
                        message: "this instance is a replication standby and refuses \
                                  INGEST; write to its primary"
                            .into(),
                    };
                }
                match sender.send(&keys) {
                    SendOutcome::Enqueued => {
                        self.tally.ingest(keys.len() as u64);
                        Response::IngestAck {
                            enqueued: keys.len() as u64,
                        }
                    }
                    // Not counted here: a reactor holds the frame and
                    // answers it only if the hold runs out.
                    SendOutcome::Overloaded => Response::Overloaded,
                }
            }
            Request::Query(q) => {
                self.tally.query();
                let (snap, stamp) = self.published();
                protocol::answer(&snap, q, stamp)
            }
            Request::Stats => Response::Stats(self.stats()),
            Request::ClusterStats => Response::Error {
                message: "this instance is a member, not a coordinator \
                          (CLUSTER_STATS is answered by cots-coord)"
                    .into(),
            },
            Request::Checkpoint => match &self.persistence {
                Some(p) => match p.checkpoint(&self.summaries, &self.publisher) {
                    Ok(cut) => Response::Checkpointed {
                        watermark: cut.watermark,
                        total: cut.summary.total(),
                        bytes: cut.bytes,
                    },
                    Err(e) => Response::Error {
                        message: format!("checkpoint failed: {e}"),
                    },
                },
                None => Response::Error {
                    message: "service has no data directory (start with --data-dir)".into(),
                },
            },
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Request::ReplSubscribe {
                start_seq: _,
                lineage,
                next_seq,
            } => self.standby_op(|p| {
                let offer = Offer::Stream {
                    primary_next: next_seq,
                };
                self.admit(p, offer, lineage)?;
                self.replica.established(p.dir(), offer, lineage);
                Ok(p.next_seq())
            }),
            // A mismatched lineage must never be acked: a cumulative ack
            // over unseen batches is exactly the silent divergence the
            // lineage exists to prevent.
            Request::ReplBatch { lineage, batches } => self.standby_op(|p| {
                if lineage != self.lineage() {
                    return Err(format!(
                        "replication batch refused: primary lineage {lineage} \
                         does not match standby lineage {}",
                        self.lineage()
                    ));
                }
                self.apply_repl_batches(p, &batches);
                Ok(p.next_seq())
            }),
            Request::ReplSnapshot {
                lineage,
                watermark,
                snapshot,
            } => self.standby_op(|p| {
                let offer = Offer::Snapshot { watermark };
                if self.admit(p, offer, lineage)? == Admission::Duplicate {
                    return Ok(p.next_seq());
                }
                // Seed the empty summaries and write the shipped cut as
                // this node's own checkpoint, in one `ckpt_lock` section.
                p.install_base(
                    watermark,
                    self.publisher.epoch(),
                    &snapshot,
                    &self.summaries,
                )
                .map_err(|e| format!("catch-up snapshot install failed: {e}"))?;
                self.base_watermark.store(watermark, Ordering::Release);
                self.replica.established(p.dir(), offer, lineage);
                Ok(watermark)
            }),
            Request::ReplPromote => {
                let p = self.persistence.as_ref();
                self.replica.promote(p.map(|p| p.dir()));
                Response::ReplAck {
                    ack_seq: p.map_or(0, |p| p.next_seq()),
                }
            }
        }
    }
}

impl Service {
    /// Run one `REPL_*` stream operation against the persistence handle
    /// it applies through — only a standby with a data directory accepts
    /// the stream — and answer its ack, or its refusal as an error.
    fn standby_op(
        &self,
        op: impl FnOnce(&Persistence) -> std::result::Result<u64, String>,
    ) -> Response {
        let outcome = if self.is_standby() {
            let p = self.persistence.as_deref();
            p.ok_or_else(|| "standby has no data directory".to_string())
                .and_then(op)
        } else {
            Err("this instance is not a replication standby \
                 (REPL_* streams are only accepted in --standby mode)"
                .into())
        };
        match outcome {
            Ok(ack_seq) => Response::ReplAck { ack_seq },
            Err(message) => Response::Error { message },
        }
    }

    /// Put a primary's offer to the divergence gate with this node's
    /// watermark and whether it already holds state.
    fn admit(
        &self,
        p: &Persistence,
        offer: Offer,
        lineage: u64,
    ) -> std::result::Result<Admission, String> {
        let my_next = p.next_seq();
        let holds_state = self.summaries.processed() > 0 || my_next > 0;
        self.replica.admit(offer, lineage, my_next, holds_state)
    }

    /// Apply one `REPL_BATCH` frame: skip (and count) the prefix the log
    /// already holds, then log and apply the contiguous run that starts
    /// at the watermark as one record — one commit, one gate section. A
    /// gap ends the run; the unchanged ack tells the shipper where to
    /// rewind to.
    fn apply_repl_batches(&self, p: &Persistence, batches: &[ReplFrame]) {
        let next = p.next_seq();
        let duplicates = batches.iter().take_while(|f| f.seq < next).count();
        let run: Vec<&[u64]> = (batches.iter().skip(duplicates).zip(next..))
            .take_while(|(f, seq)| f.seq == *seq)
            .map(|(f, _)| f.keys.as_slice())
            .collect();
        self.replica.duplicates(duplicates as u64);
        if !run.is_empty() && p.log_and_apply(Some(next), &run, &self.summaries) {
            let keys: usize = run.iter().map(|keys| keys.len()).sum();
            self.replica.streamed(run.len() as u64, keys as u64);
            self.refresher.progressed();
        }
    }

    /// The current published snapshot plus its provenance stamp.
    fn published(&self) -> (Arc<cots::StampedSnapshot<u64>>, QueryStamp) {
        let snap = self.publisher.current();
        let stamp = self.stamp(&snap);
        (snap, stamp)
    }

    /// Current service statistics.
    pub fn stats(&self) -> ServiceReport {
        let (snap, stamp) = self.published();
        let mut report = self.tally.report(
            &self.pool.tallies,
            snap.epoch,
            stamp.staleness,
            self.summaries.monitored(),
            self.recovery.clone(),
            self.persistence.as_ref().map(|p| p.tally.snapshot()),
        );
        let watermark = self.persistence.as_ref().map_or(0, |p| p.next_seq());
        report.repl = self.replica.report(watermark);
        report
    }

    /// Drain and stop: signal shutdown, wait for shard workers (all
    /// connections must already be closed for their rings to close),
    /// and publish a final exact snapshot.
    ///
    /// Call after every [`ShardSender`] for this service has been
    /// dropped; workers wait for live rings to close before exiting.
    /// Other handles to the service (a WAL shipper's, a test's) may
    /// stay alive. Only the first call drains; later ones return at
    /// once.
    pub fn drain(&self) {
        self.begin_shutdown();
        let taken = self.threads.lock().take();
        let Some(threads) = taken else {
            return;
        };
        for t in threads {
            let _ = t.join();
        }
        self.refresher.publish();
        // Workers are gone, so the final checkpoint captures the exact
        // quiescent state; a clean restart replays an empty WAL tail.
        if let Some(p) = &self.persistence {
            if let Err(e) = p.checkpoint(&self.summaries, &self.publisher) {
                eprintln!("cots-serve: final checkpoint failed: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::QueryReq;

    fn drive(service: &Service, sender: &mut ShardSender, keys: &[u64], batch: usize) {
        let mut sent = 0;
        while sent < keys.len() {
            let end = (sent + batch).min(keys.len());
            match service.handle(
                Request::Ingest {
                    keys: keys[sent..end].to_vec(),
                },
                sender,
            ) {
                Response::IngestAck { enqueued } => {
                    assert_eq!(enqueued as usize, end - sent);
                    sent = end;
                }
                Response::Overloaded => std::thread::yield_now(),
                other => panic!("unexpected ingest response: {other:?}"),
            }
        }
    }

    fn await_applied(service: &Service, n: u64) {
        for _ in 0..10_000 {
            let stats = service.stats();
            if stats.applied_keys() == n && stats.staleness == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("service did not quiesce at {n} applied keys");
    }

    #[test]
    fn ingest_then_query_round_trip() {
        let service = Service::start(ServiceConfig {
            shards: 2,
            capacity: 64,
            refresh: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        let keys: Vec<u64> = (0..20_000u64).map(|i| i % 40).collect();
        drive(&service, &mut sender, &keys, 512);
        await_applied(&service, 20_000);

        match service.handle(Request::Query(QueryReq::Point { key: 7 }), &mut sender) {
            Response::Answer {
                entries,
                total,
                stamp,
            } => {
                assert_eq!(total, 20_000);
                assert_eq!(stamp.staleness, 0);
                assert!(stamp.epoch > 0);
                let e = &entries[0];
                // 20_000 / 40 occurrences of each key; Space Saving
                // guarantee at quiescence with capacity > distinct keys.
                assert_eq!(e.count - e.error, 500);
            }
            other => panic!("unexpected: {other:?}"),
        }

        match service.handle(
            Request::Query(QueryReq::Frequent { phi: 0.02 }),
            &mut sender,
        ) {
            Response::Answer { entries, .. } => {
                assert_eq!(entries.len(), 40, "all keys hold exactly 2.5% mass");
            }
            other => panic!("unexpected: {other:?}"),
        }

        match service.handle(Request::Query(QueryReq::TopK { k: 5 }), &mut sender) {
            Response::Answer { entries, .. } => assert_eq!(entries.len(), 5),
            other => panic!("unexpected: {other:?}"),
        }

        match service.handle(Request::Stats, &mut sender) {
            Response::Stats(report) => {
                assert_eq!(report.ingested_keys, 20_000);
                assert_eq!(report.applied_keys(), 20_000);
                assert_eq!(report.queries, 3);
                assert_eq!(report.shards.len(), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }

        match service.handle(Request::Shutdown, &mut sender) {
            Response::ShuttingDown => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(service.shutdown_requested());
        drop(sender);
        service.drain();
    }

    /// The gate itself is `session`'s (and tested there); what is the
    /// member's own is what it advertises and that a greeted connection
    /// reaches its dispatch, including the close after `SHUTDOWN`.
    #[test]
    fn greeted_connection_reaches_member_dispatch() {
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 16,
            refresh: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        let mut conn = ConnState::new();
        let hello = Request::Hello {
            proto_version: crate::PROTO_VERSION,
            features: vec![],
        };
        match session::serve_request(&service, &mut conn, hello, &mut sender).response {
            Response::HelloAck { features, .. } => assert_eq!(features, MEMBER_FEATURES),
            other => panic!("unexpected: {other:?}"),
        }
        let reply = session::serve_request(&service, &mut conn, Request::Stats, &mut sender);
        assert!(matches!(reply.response, Response::Stats(_)));
        assert!(!reply.close);
        let reply = session::serve_request(&service, &mut conn, Request::Shutdown, &mut sender);
        assert!(matches!(reply.response, Response::ShuttingDown));
        assert!(reply.close);
        assert!(service.shutdown_requested());
        drop(sender);
        service.drain();
    }

    /// Pinning is `session`'s (and tested there); the member's part is
    /// stamping a pinned snapshot honestly: staleness keeps counting
    /// what was applied after the pin.
    #[test]
    fn pinned_snapshot_is_stamped_with_honest_staleness() {
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 64,
            refresh: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        let mut conn = ConnState::pre_greeted();
        let keys: Vec<u64> = (0..1_000u64).map(|i| i % 10).collect();
        drive(&service, &mut sender, &keys, 128);
        await_applied(&service, 1_000);
        let mut page = |offset| {
            let request = Request::SnapshotPage {
                since_epoch: 0,
                offset,
                limit: 4,
            };
            match session::serve_request(&service, &mut conn, request, &mut sender).response {
                Response::SnapshotPage { total, stamp, .. } => (total, stamp),
                other => panic!("unexpected: {other:?}"),
            }
        };
        let (_, first) = page(0);
        assert_eq!(first.staleness, 0);

        drive(&service, &mut service.connect(), &keys, 128);
        await_applied(&service, 2_000);
        let (total, second) = page(4);
        assert_eq!(
            second.epoch, first.epoch,
            "transfer stays on the pinned epoch"
        );
        assert_eq!(total, 1_000, "pinned mass, not the republished one");
        assert_eq!(second.staleness, 1_000);
        drop(sender);
        service.drain();
    }

    #[test]
    fn invalid_phi_is_an_error_response() {
        let service = Service::start(ServiceConfig::default()).unwrap();
        let mut sender = service.connect();
        for phi in [0.0, 1.0, -0.5, f64::NAN] {
            match service.handle(Request::Query(QueryReq::Frequent { phi }), &mut sender) {
                Response::Error { .. } => {}
                other => panic!("phi={phi} should error, got {other:?}"),
            }
        }
        drop(sender);
        service.drain();
    }

    fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "cots-serve-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn persistent_service_recovers_across_restart() {
        let dir = temp_data_dir("svc");
        let persist = || {
            let mut opts = PersistOptions::new(dir.clone());
            // Keep the test deterministic: only explicit checkpoints.
            opts.checkpoint_every = Duration::ZERO;
            opts
        };
        let config = || ServiceConfig {
            shards: 2,
            capacity: 64,
            refresh: Duration::from_millis(2),
            persist: Some(persist()),
            ..Default::default()
        };

        // First life: ingest, checkpoint over the wire op, ingest more.
        let service = Service::start(config()).unwrap();
        assert_eq!(
            service.recovery_report().unwrap().recovered_items,
            0,
            "fresh directory recovers nothing"
        );
        let mut sender = service.connect();
        let keys: Vec<u64> = (0..10_000u64).map(|i| i % 25).collect();
        drive(&service, &mut sender, &keys, 256);
        await_applied(&service, 10_000);
        match service.handle(Request::Checkpoint, &mut sender) {
            Response::Checkpointed {
                watermark, total, ..
            } => {
                assert!(watermark > 0);
                assert_eq!(total, 10_000);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let more: Vec<u64> = (0..5_000u64).map(|i| i % 25).collect();
        drive(&service, &mut sender, &more, 256);
        await_applied(&service, 15_000);
        let epoch_before = service.publisher.epoch();
        drop(sender);
        service.drain();

        // Second life: everything durable comes back before queries run.
        let service = Service::start(config()).unwrap();
        let rec = service.recovery_report().unwrap().clone();
        assert_eq!(
            rec.recovered_items, 15_000,
            "drain checkpoint + WAL tail cover the full stream: {rec:?}"
        );
        assert_eq!(rec.torn_frames, 0);
        let mut sender = service.connect();
        match service.handle(Request::Query(QueryReq::Point { key: 7 }), &mut sender) {
            Response::Answer {
                entries,
                total,
                stamp,
            } => {
                assert_eq!(total, 15_000, "recovered mass is queryable immediately");
                assert_eq!(stamp.staleness, 0);
                assert!(
                    stamp.epoch > epoch_before,
                    "epochs stay monotone across restart ({} → {})",
                    epoch_before,
                    stamp.epoch
                );
                assert_eq!(entries[0].count - entries[0].error, 600);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // New ingest keeps counting on top of the recovered base.
        let tail: Vec<u64> = (0..2_500u64).map(|i| i % 25).collect();
        drive(&service, &mut sender, &tail, 256);
        await_applied(&service, 2_500);
        match service.handle(Request::Query(QueryReq::Point { key: 7 }), &mut sender) {
            Response::Answer { entries, total, .. } => {
                assert_eq!(total, 17_500);
                assert_eq!(entries[0].count - entries[0].error, 700);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let stats = service.stats();
        let persist_stats = stats.persist.expect("persist tally present");
        assert!(persist_stats.wal_records > 0);
        assert!(stats.recovery.is_some());
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard count past `MAX_SHARDS` is refused before any summary is
    /// allocated or any thread spawned.
    #[test]
    fn too_many_shards_are_refused_before_anything_starts() {
        use crate::shard::MAX_SHARDS;
        let start = |shards| {
            Service::start(ServiceConfig {
                shards,
                capacity: 8,
                ..Default::default()
            })
        };
        let err = start(MAX_SHARDS + 1).err().expect("refused");
        assert!(err.to_string().contains(&MAX_SHARDS.to_string()), "{err}");
        assert!(start(0).is_err());
    }

    /// A data directory written at 2 shards restarts at 1 and at 4: each
    /// 2-shard batch in the WAL tail is split across the new owners (or
    /// merged into one), and the recovered summary keeps the exact total
    /// and the envelope against exact truth.
    #[test]
    fn restart_at_a_different_shard_count_keeps_the_envelope() {
        use cots_core::merge::absent_bound;
        use cots_datagen::{ExactCounter, StreamSpec};

        const CAPACITY: usize = 64;
        let stream = StreamSpec::zipf(60_000, 5_000, 1.1, 7).generate();
        let truth = ExactCounter::from_stream(&stream);
        // Written the way two durable shard workers write it: each batch
        // owned by one of 2 shards and sorted, a checkpoint partway, and
        // no final checkpoint, so the restart replays a WAL tail.
        let write_dir = |tag: &str| {
            let dir = temp_data_dir(tag);
            let mut opts = PersistOptions::new(dir.clone());
            opts.checkpoint_every = Duration::ZERO;
            let p = Persistence::new(&opts, 0, CAPACITY).unwrap();
            let summaries = Partitioned::new(2, CAPACITY).unwrap();
            for (i, frame) in stream.chunks(1_000).enumerate() {
                for shard in 0..2 {
                    let mut batch: Vec<u64> = frame
                        .iter()
                        .copied()
                        .filter(|&k| ShardSender::shard_of(k, 2) == shard)
                        .collect();
                    batch.sort_unstable();
                    p.log_and_apply_sorted(shard, &[batch], &summaries);
                }
                if i == 20 {
                    p.checkpoint(&summaries, &SnapshotPublisher::new()).unwrap();
                }
            }
            dir
        };
        for shards in [1, 4] {
            let dir = write_dir("reshard");
            let service = Service::start(ServiceConfig {
                shards,
                capacity: CAPACITY,
                persist: Some(PersistOptions::new(dir.clone())),
                ..Default::default()
            })
            .unwrap();
            let rec = service.recovery_report().unwrap().clone();
            assert!(
                rec.checkpoint_watermark.is_some() && rec.replayed_batches > 0,
                "{rec:?}"
            );
            assert_eq!(rec.recovered_items, stream.len() as u64);
            let (snap, _) = service.published();
            assert_eq!(snap.total(), stream.len() as u64, "at {shards} shards");
            assert_eq!(service.summaries.processed(), stream.len() as u64);
            for e in snap.entries() {
                let t = truth.count(&e.item);
                assert!(
                    e.count - e.error <= t && t <= e.count,
                    "at {shards} shards, key {}: truth {t} outside [{}, {}]",
                    e.item,
                    e.count - e.error,
                    e.count
                );
            }
            let absent = absent_bound(&snap.snapshot, CAPACITY);
            for &key in &stream {
                if snap.get(&key).is_none() {
                    assert!(
                        truth.count(&key) <= absent,
                        "at {shards} shards, omitted key {key}"
                    );
                }
            }
            service.drain();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Wait until the publisher has observed everything the summaries
    /// applied (repl-applied keys bypass the shard tallies, so
    /// `await_applied` does not cover them).
    fn await_settled(service: &Service, total: u64) {
        for _ in 0..10_000 {
            let (snap, stamp) = service.published();
            if snap.total() == total && stamp.staleness == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("service never published total {total}");
    }

    #[test]
    fn standby_applies_repl_stream_and_promotes() {
        let dir = temp_data_dir("stdby");
        let mut opts = PersistOptions::new(dir.clone());
        opts.checkpoint_every = Duration::ZERO;
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 64,
            refresh: Duration::from_millis(2),
            persist: Some(opts),
            standby: true,
            repl_peer: Some("127.0.0.1:0".into()),
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        assert!(service.is_standby());

        // A standby refuses writes from clients...
        match service.handle(
            Request::Ingest {
                keys: vec![1, 2, 3],
            },
            &mut sender,
        ) {
            Response::Error { message } => assert!(message.contains("standby")),
            other => panic!("unexpected: {other:?}"),
        }

        // ...but applies the replicated WAL stream, exactly once.
        let frames = |seqs: &[u64]| Request::ReplBatch {
            lineage: 0,
            batches: seqs
                .iter()
                .map(|&seq| ReplFrame {
                    seq,
                    keys: vec![7, 7, 9],
                })
                .collect(),
        };
        match service.handle(frames(&[0, 1]), &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 2),
            other => panic!("unexpected: {other:?}"),
        }
        // A duplicate run re-acks without double-counting; a gap stops
        // the run at the unchanged watermark.
        match service.handle(frames(&[0, 1, 2, 5]), &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 3, "gap at 5 stops the run"),
            other => panic!("unexpected: {other:?}"),
        }
        await_settled(&service, 9);
        match service.handle(Request::Query(QueryReq::Point { key: 7 }), &mut sender) {
            Response::Answer { entries, total, .. } => {
                assert_eq!(total, 9);
                assert_eq!(entries[0].count - entries[0].error, 6);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let repl = service.stats().repl.expect("standby reports repl state");
        assert_eq!(repl.role, "standby");
        assert_eq!(repl.streamed_batches, 3);
        assert_eq!(repl.duplicates, 2);

        // Promotion flips the role and reopens INGEST, without restart.
        match service.handle(Request::ReplPromote, &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 3),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(!service.is_standby());
        assert_eq!(service.promotions(), 1);
        assert_eq!(service.lineage(), 1, "promotion bumps the lineage");
        match service.handle(Request::Ingest { keys: vec![9] }, &mut sender) {
            Response::IngestAck { enqueued } => assert_eq!(enqueued, 1),
            other => panic!("unexpected: {other:?}"),
        }
        // A promoted primary no longer accepts the stream.
        match service.handle(frames(&[3]), &mut sender) {
            Response::Error { message } => assert!(message.contains("standby")),
            other => panic!("unexpected: {other:?}"),
        }
        drop(sender);
        service.drain();

        // The standby's own WAL copy is durable: a restart (as primary)
        // recovers everything that was acked.
        let mut opts = PersistOptions::new(dir.clone());
        opts.checkpoint_every = Duration::ZERO;
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 64,
            refresh: Duration::from_millis(2),
            persist: Some(opts),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(service.recovery_report().unwrap().recovered_items, 10);
        assert_eq!(service.lineage(), 1, "the lineage bump survives restart");
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// CRC records in `dir`'s WAL segments, as `(weighted run, other)`
    /// counts.
    fn wal_record_forms(dir: &std::path::Path) -> (usize, usize) {
        let (mut run, mut legacy) = (0, 0);
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if cots_persist::parse_segment_name(&path).is_none() {
                continue;
            }
            let bytes = std::fs::read(&path).unwrap();
            let mut off = cots_persist::WAL_MAGIC.len();
            while off < bytes.len() {
                let (payload, used) = cots_persist::decode_record(&bytes[off..]).unwrap();
                if payload.starts_with(cots_persist::WEIGHTED_RUN_MAGIC) {
                    run += 1;
                } else {
                    legacy += 1;
                }
                off += used;
            }
        }
        (run, legacy)
    }

    #[test]
    fn primary_and_standby_write_only_run_records() {
        let config = |dir: &std::path::Path, standby| {
            let mut opts = PersistOptions::new(dir.to_path_buf());
            opts.checkpoint_every = Duration::ZERO;
            ServiceConfig {
                shards: 2,
                capacity: 64,
                refresh: Duration::from_millis(2),
                persist: Some(opts),
                standby,
                ..Default::default()
            }
        };

        // A primary: single-batch and multi-batch drains alike.
        let primary_dir = temp_data_dir("forms-primary");
        let service = Service::start(config(&primary_dir, false)).unwrap();
        let mut sender = service.connect();
        let keys: Vec<u64> = (0..4_000u64).map(|i| i % 25).collect();
        drive(&service, &mut sender, &keys[..1], 1);
        await_applied(&service, 1);
        drive(&service, &mut sender, &keys[1..], 64);
        await_applied(&service, 4_000);
        drop(sender);
        service.drain();
        let (run, legacy) = wal_record_forms(&primary_dir);
        assert!(run > 0, "the primary logged something");
        assert_eq!(legacy, 0, "primary wrote {legacy} per-batch records");

        // A standby: the contiguous run of a frame is one run record.
        let standby_dir = temp_data_dir("forms-standby");
        let service = Service::start(config(&standby_dir, true)).unwrap();
        let mut sender = service.connect();
        let batches = (0..3)
            .map(|seq| ReplFrame {
                seq,
                keys: vec![7, 7, 9],
            })
            .collect();
        match service.handle(
            Request::ReplBatch {
                lineage: 0,
                batches,
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 3),
            other => panic!("unexpected: {other:?}"),
        }
        drop(sender);
        service.drain();
        assert_eq!(wal_record_forms(&standby_dir), (1, 0));

        for dir in [primary_dir, standby_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn persistent(
        dir: &std::path::Path,
        capacity: usize,
        fsync: cots_persist::FsyncPolicy,
    ) -> ServiceConfig {
        let mut opts = PersistOptions::new(dir.to_path_buf());
        opts.checkpoint_every = Duration::ZERO;
        opts.fsync = fsync;
        ServiceConfig {
            shards: 1,
            capacity,
            refresh: Duration::from_millis(2),
            persist: Some(opts),
            ..Default::default()
        }
    }

    fn point(service: &Service, sender: &mut ShardSender, key: u64) -> Option<(u64, u64)> {
        match service.handle(Request::Query(QueryReq::Point { key }), sender) {
            Response::Answer { entries, .. } => entries.first().map(|e| (e.count, e.error)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// A checkpoint that was full at capacity 2 has evicted keys it no
    /// longer names; under capacity 4 it would look "not full" and a
    /// re-admitted key would be answered below its true count.
    #[test]
    fn growing_capacity_over_a_full_checkpoint_is_refused() {
        let dir = temp_data_dir("grow");
        let grouped = cots_persist::FsyncPolicy::default();
        let service = Service::start(persistent(&dir, 2, grouped)).unwrap();
        let mut sender = service.connect();
        // One key per frame: a batch of one bypasses the combiner, so
        // the summary is the sequential Space Saving one, {a:3, c:3/2}.
        let (a, b, c) = (1u64, 2u64, 3u64);
        for key in [a, a, a, b, b, c] {
            drive(&service, &mut sender, &[key], 1);
        }
        await_applied(&service, 6);
        assert!(matches!(
            service.handle(Request::Checkpoint, &mut sender),
            Response::Checkpointed { total: 6, .. }
        ));
        drop(sender);
        service.drain();

        let err = match Service::start(persistent(&dir, 4, grouped)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("capacity 4 over a checkpoint full at 2 must be refused"),
        };
        assert!(
            err.contains("capacity 2") && err.contains("--capacity 4"),
            "{err}"
        );

        // The same capacity loads as before, and `b` (true count 3 after
        // one more occurrence) is answered inside the envelope.
        let service = Service::start(persistent(&dir, 2, grouped)).unwrap();
        let mut sender = service.connect();
        drive(&service, &mut sender, &[b], 1);
        await_applied(&service, 1);
        await_settled(&service, 7);
        let (count, error) = point(&service, &mut sender, b).expect("b is the newest admission");
        assert!(
            count - error <= 3 && 3 <= count,
            "b: {count}/{error} vs truth 3"
        );
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A smaller capacity keeps the checkpoint's top entries.
    #[test]
    fn shrinking_capacity_cuts_the_checkpoint_to_its_top_entries() {
        let dir = temp_data_dir("shrink");
        let grouped = cots_persist::FsyncPolicy::default();
        let service = Service::start(persistent(&dir, 8, grouped)).unwrap();
        let mut sender = service.connect();
        let keys: Vec<u64> = (1..=6u64)
            .flat_map(|k| vec![k; (10 * k) as usize])
            .collect();
        drive(&service, &mut sender, &keys, 64);
        await_applied(&service, keys.len() as u64);
        drop(sender);
        service.drain();

        let service = Service::start(persistent(&dir, 3, grouped)).unwrap();
        let mut sender = service.connect();
        assert_eq!(service.stats().monitored, 3);
        assert_eq!(point(&service, &mut sender, 6), Some((60, 0)));
        assert_eq!(point(&service, &mut sender, 4), Some((40, 0)));
        assert_eq!(point(&service, &mut sender, 3), None);
        // A dropped key comes back over-counted by the kept minimum.
        drive(&service, &mut sender, &[3], 1);
        await_applied(&service, 1);
        await_settled(&service, keys.len() as u64 + 1);
        assert_eq!(point(&service, &mut sender, 3), Some((41, 40)));
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After a restart the recovered counters live in the summary, so a
    /// flood of cold keys churns the minimum around the hot key instead
    /// of charging it the live summary's minimum on every answer.
    #[test]
    fn recovered_hot_key_keeps_error_zero_under_a_cold_flood() {
        let dir = temp_data_dir("seeded");
        let grouped = cots_persist::FsyncPolicy::default();
        let service = Service::start(persistent(&dir, 16, grouped)).unwrap();
        let mut sender = service.connect();
        drive(&service, &mut sender, &[42; 1_000], 100);
        await_applied(&service, 1_000);
        assert!(matches!(
            service.handle(Request::Checkpoint, &mut sender),
            Response::Checkpointed { total: 1_000, .. }
        ));
        drop(sender);
        service.drain();

        let service = Service::start(persistent(&dir, 16, grouped)).unwrap();
        let mut sender = service.connect();
        let cold: Vec<u64> = (1_000..1_064u64).collect();
        drive(&service, &mut sender, &cold, 8);
        drive(&service, &mut sender, &[42; 10], 10);
        await_applied(&service, 74);
        await_settled(&service, 1_074);
        assert_eq!(point(&service, &mut sender, 42), Some((1_010, 0)));
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Five keys, three owned by shard 0 and two by shard 1 of two, so no
    /// shard of capacity 4 ever evicts; counted 50, 40, 30, 20, 10.
    fn five_keys_over_two_shards() -> Vec<(u64, u64)> {
        let pick = |shard, n| {
            (1u64..)
                .filter(move |&k| ShardSender::shard_of(k, 2) == shard)
                .take(n)
        };
        let mut keys: Vec<u64> = pick(0, 3).chain(pick(1, 2)).collect();
        keys.sort_unstable();
        keys.into_iter().zip([50, 40, 30, 20, 10]).collect()
    }

    /// A full checkpoint cut at capacity 4 drops a key counted 10; spread
    /// over two shards on restart it leaves free slots. Re-sent 25 times
    /// it outranks the cut's minimum (20), and must be answered with its
    /// truth, 35, inside the envelope — admitted at error 0 it would read
    /// 25.
    #[test]
    fn a_key_the_checkpoint_cut_is_readmitted_at_the_floor() {
        let dir = temp_data_dir("floor-ckpt");
        let config = || ServiceConfig {
            shards: 2,
            ..persistent(&dir, 4, cots_persist::FsyncPolicy::default())
        };
        let counted = five_keys_over_two_shards();
        let keys: Vec<u64> = counted
            .iter()
            .flat_map(|&(k, n)| vec![k; n as usize])
            .collect();
        let service = Service::start(config()).unwrap();
        let mut sender = service.connect();
        drive(&service, &mut sender, &keys, 64);
        await_applied(&service, 150);
        drop(sender);
        service.drain();

        let service = Service::start(config()).unwrap();
        let mut sender = service.connect();
        let (dropped, _) = counted[4];
        assert_eq!(
            point(&service, &mut sender, dropped),
            None,
            "the cut dropped it"
        );
        assert_eq!(point(&service, &mut sender, counted[3].0), Some((20, 0)));
        drive(&service, &mut sender, &[dropped; 25], 5);
        await_applied(&service, 25);
        await_settled(&service, 175);
        let (count, error) = point(&service, &mut sender, dropped).expect("re-admitted");
        assert!(
            count >= 35 && count - error <= 35,
            "{count}/{error} vs truth 35"
        );
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same through `REPL_SNAPSHOT` into an empty two-shard standby.
    #[test]
    fn a_key_the_repl_snapshot_cut_is_readmitted_at_the_floor() {
        let dir = temp_data_dir("floor-repl");
        let service = Service::start(ServiceConfig {
            shards: 2,
            standby: true,
            ..persistent(&dir, 4, cots_persist::FsyncPolicy::default())
        })
        .unwrap();
        let mut sender = service.connect();
        let counted = five_keys_over_two_shards();
        let cut = counted[..4]
            .iter()
            .map(|&(k, n)| cots_core::CounterEntry::new(k, n, 0))
            .collect();
        let snapshot = Snapshot::new(cut, 150);
        match service.handle(
            Request::ReplSnapshot {
                lineage: 3,
                watermark: 12,
                snapshot,
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 12),
            other => panic!("unexpected: {other:?}"),
        }
        let (dropped, _) = counted[4];
        let batches = vec![ReplFrame {
            seq: 12,
            keys: vec![dropped; 25],
        }];
        match service.handle(
            Request::ReplBatch {
                lineage: 3,
                batches,
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 13),
            other => panic!("unexpected: {other:?}"),
        }
        await_settled(&service, 175);
        let (count, error) = point(&service, &mut sender, dropped).expect("re-admitted");
        assert!(
            count >= 35 && count - error <= 35,
            "{count}/{error} vs truth 35"
        );
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With the timer out of reach (60 s), only progress publishes: ten
    /// budgets of keys earn at least five epochs, and no answer is ever
    /// staler than the budget plus one drain burst.
    #[test]
    fn ingest_publishes_by_progress_not_by_timer() {
        let (shards, capacity, frame) = (2, 64, 64);
        let service = Service::start(ServiceConfig {
            shards,
            capacity,
            refresh: Duration::from_secs(60),
            ..Default::default()
        })
        .unwrap();
        let budget = PUBLISH_BUDGET_PER_ENTRY * (shards * capacity) as u64;
        let burst = (crate::shard::DRAIN_BURST * frame) as u64;
        let mut sender = service.connect();
        let keys: Vec<u64> = (0..10 * budget).map(|i| i % 40).collect();
        let first = service.publisher.epoch();
        for (i, chunk) in keys.chunks(frame).enumerate() {
            drive(&service, &mut sender, chunk, frame);
            let sent = ((i + 1) * frame) as u64;
            while service.stats().applied_keys() < sent {
                std::thread::yield_now();
            }
            match service.handle(Request::Query(QueryReq::TopK { k: 1 }), &mut sender) {
                Response::Answer { stamp, .. } => assert!(
                    stamp.staleness <= budget + burst,
                    "staleness {} after {sent} keys (budget {budget})",
                    stamp.staleness
                ),
                other => panic!("unexpected: {other:?}"),
            }
        }
        let epochs = service.publisher.epoch() - first;
        assert!(epochs >= 5, "{epochs} publishes over ten budgets");
        drop(sender);
        let started = Instant::now();
        service.drain();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "shutdown wakes the publisher"
        );
    }

    /// Once ingest stops the epoch freezes after one confirming publish,
    /// which is what lets `SNAPSHOT_PAGE { since_epoch }` pulls answer
    /// `unchanged`.
    #[test]
    fn a_quiet_service_holds_its_epoch_after_one_confirming_publish() {
        let service = Service::start(ServiceConfig {
            shards: 2,
            capacity: 64,
            refresh: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        let keys: Vec<u64> = (0..5_000u64).map(|i| i % 40).collect();
        drive(&service, &mut sender, &keys, 256);
        await_applied(&service, 5_000);
        let settled = service.publisher.epoch();
        std::thread::sleep(Duration::from_millis(60));
        let held = service.publisher.epoch();
        assert!(
            held <= settled + 1,
            "{settled} → {held}: more than one confirming publish"
        );
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(
            service.publisher.epoch(),
            held,
            "the epoch moved with nothing ingested"
        );
        drop(sender);
        service.drain();
    }

    /// A `REPL_BATCH` frame is one group commit on the standby, as a
    /// drained burst is on a primary.
    #[test]
    fn standby_commits_a_repl_frame_as_one_run() {
        let dir = temp_data_dir("group");
        let service = Service::start(ServiceConfig {
            standby: true,
            ..persistent(&dir, 64, cots_persist::FsyncPolicy::Always)
        })
        .unwrap();
        let mut sender = service.connect();
        let frame = |seqs: &[u64]| Request::ReplBatch {
            lineage: 0,
            batches: seqs
                .iter()
                .map(|&seq| ReplFrame {
                    seq,
                    keys: vec![seq, 7],
                })
                .collect(),
        };
        let before = service.stats().persist.unwrap();
        match service.handle(frame(&[0, 1, 2, 3, 4, 5, 6, 7]), &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 8),
            other => panic!("unexpected: {other:?}"),
        }
        let after = service.stats().persist.unwrap();
        assert_eq!(
            after.wal_syncs - before.wal_syncs,
            1,
            "one fsync for the frame"
        );
        assert_eq!(
            after.wal_records - before.wal_records,
            8,
            "records stay logical batches"
        );
        assert_eq!(wal_record_forms(&dir), (1, 0));

        // First batch a duplicate, fifth opens a gap: batches 2–4 (seqs
        // 8, 9, 10) are logged as one record, nothing else.
        match service.handle(frame(&[7, 8, 9, 10, 12, 13]), &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 11),
            other => panic!("unexpected: {other:?}"),
        }
        let last = service.stats().persist.unwrap();
        assert_eq!(last.wal_syncs - after.wal_syncs, 1);
        assert_eq!(last.wal_records - after.wal_records, 3);
        assert_eq!(wal_record_forms(&dir), (2, 0));
        let repl = service.stats().repl.unwrap();
        assert_eq!((repl.streamed_batches, repl.duplicates), (11, 1));
        await_settled(&service, 22);
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repl_snapshot_catches_up_an_empty_standby() {
        let dir = temp_data_dir("catchup");
        let mut opts = PersistOptions::new(dir.clone());
        opts.checkpoint_every = Duration::ZERO;
        // Capacity 2: the shipped summary carries an error, so its source
        // was full at two counters.
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 2,
            refresh: Duration::from_millis(2),
            persist: Some(opts),
            standby: true,
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        assert_eq!(service.repl_floor(), 0);

        let snap = Snapshot::new(
            vec![
                cots_core::CounterEntry::new(7u64, 40, 2),
                cots_core::CounterEntry::new(9u64, 10, 0),
            ],
            50,
        );
        match service.handle(
            Request::ReplSnapshot {
                lineage: 3,
                watermark: 12,
                snapshot: snap.clone(),
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 12),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(service.repl_floor(), 12, "floor tracks the installed base");
        assert_eq!(service.lineage(), 3, "an empty standby adopts the lineage");
        // Re-sending the same snapshot is a duplicate, not an error.
        match service.handle(
            Request::ReplSnapshot {
                lineage: 3,
                watermark: 12,
                snapshot: snap,
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 12),
            other => panic!("unexpected: {other:?}"),
        }
        // The WAL tail continues from the watermark.
        match service.handle(
            Request::ReplBatch {
                lineage: 3,
                batches: vec![ReplFrame {
                    seq: 12,
                    keys: vec![7, 7],
                }],
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 13),
            other => panic!("unexpected: {other:?}"),
        }
        await_settled(&service, 52);
        match service.handle(Request::Query(QueryReq::Point { key: 7 }), &mut sender) {
            Response::Answer { entries, total, .. } => {
                assert_eq!(total, 52, "snapshot mass plus the shipped tail");
                assert_eq!(entries[0].count, 42);
            }
            other => panic!("unexpected: {other:?}"),
        }
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Catch-up goes through the capacity rule a restart does: a summary
    /// that has evicted (`c: 3/2`) proves its source was full at two
    /// counters, so a capacity-4 standby — which would re-admit the
    /// evicted `b` with error 0 — refuses it and stays empty; a
    /// capacity-1 standby keeps the top entry.
    #[test]
    fn repl_snapshot_obeys_the_capacity_rule() {
        let standby = |tag: &str, capacity: usize| {
            let dir = temp_data_dir(tag);
            let mut opts = PersistOptions::new(dir.clone());
            opts.checkpoint_every = Duration::ZERO;
            let service = Service::start(ServiceConfig {
                shards: 1,
                capacity,
                refresh: Duration::from_millis(2),
                persist: Some(opts),
                standby: true,
                ..Default::default()
            })
            .unwrap();
            (service, dir)
        };
        let ship = |service: &Service, sender: &mut ShardSender| {
            let snapshot = Snapshot::new(
                vec![
                    cots_core::CounterEntry::new(1u64, 3, 0),
                    cots_core::CounterEntry::new(3u64, 3, 2),
                ],
                6,
            );
            service.handle(
                Request::ReplSnapshot {
                    lineage: 3,
                    watermark: 6,
                    snapshot,
                },
                sender,
            )
        };

        let (service, dir) = standby("catchup-grow", 4);
        let mut sender = service.connect();
        match ship(&service, &mut sender) {
            Response::Error { message } => assert!(
                message.contains("capacity 2") && message.contains("--capacity 4"),
                "{message}"
            ),
            other => panic!("a full summary must not seed free slots: {other:?}"),
        }
        assert_eq!(
            service.stats().monitored,
            0,
            "refused before anything was seeded"
        );
        assert_eq!(service.repl_floor(), 0, "and before anything was written");
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);

        let (service, dir) = standby("catchup-shrink", 1);
        let mut sender = service.connect();
        match ship(&service, &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 6),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(service.stats().monitored, 1);
        await_settled(&service, 6);
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diverged_standby_refuses_stream_instead_of_acking() {
        let dir = temp_data_dir("diverge");
        let mut opts = PersistOptions::new(dir.clone());
        opts.checkpoint_every = Duration::ZERO;
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 64,
            refresh: Duration::from_millis(2),
            persist: Some(opts),
            standby: true,
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();

        // Seed the standby with three applied batches (watermark 3).
        match service.handle(
            Request::ReplBatch {
                lineage: 0,
                batches: (0..3)
                    .map(|seq| ReplFrame {
                        seq,
                        keys: vec![1, 2],
                    })
                    .collect(),
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 3),
            other => panic!("unexpected: {other:?}"),
        }

        // Same lineage, primary watermark behind ours: the primary lost
        // a durable suffix. Refuse — acking would mark batches we never
        // saw as replicated.
        match service.handle(
            Request::ReplSubscribe {
                start_seq: 0,
                lineage: 0,
                next_seq: 1,
            },
            &mut sender,
        ) {
            Response::Error { message } => assert!(message.contains("ahead")),
            other => panic!("unexpected: {other:?}"),
        }
        let repl = service.stats().repl.expect("repl section present");
        assert!(repl.resync_required, "divergence is operator-visible");

        // Newer lineage against a standby that holds state: the classic
        // rejoined ex-primary. Refused with the fresh-dir instruction.
        match service.handle(
            Request::ReplSubscribe {
                start_seq: 0,
                lineage: 1,
                next_seq: 10,
            },
            &mut sender,
        ) {
            Response::Error { message } => assert!(message.contains("fresh data directory")),
            other => panic!("unexpected: {other:?}"),
        }

        // A mismatched-lineage batch is refused, never acked.
        match service.handle(
            Request::ReplBatch {
                lineage: 1,
                batches: vec![ReplFrame {
                    seq: 3,
                    keys: vec![9],
                }],
            },
            &mut sender,
        ) {
            Response::Error { message } => assert!(message.contains("lineage")),
            other => panic!("unexpected: {other:?}"),
        }

        // An older-lineage primary (pre-promotion ghost) is also refused
        // once this standby has moved on. Promote first to bump us to 1…
        // (use a fresh view: promotion flips the role, so re-subscribe
        // checks come from the would-be old primary's shipper)
        match service.handle(Request::ReplPromote, &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 3),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(service.lineage(), 1);
        let repl = service.stats().repl.expect("repl section present");
        assert!(!repl.resync_required, "promotion clears the flag");

        drop(sender);
        service.drain();

        // Restart with --standby on the same dir: lineage 1 persists,
        // and a lineage-0 primary is refused as stale.
        let mut opts = PersistOptions::new(dir.clone());
        opts.checkpoint_every = Duration::ZERO;
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 64,
            refresh: Duration::from_millis(2),
            persist: Some(opts),
            standby: true,
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        assert_eq!(service.lineage(), 1);
        match service.handle(
            Request::ReplSubscribe {
                start_seq: 0,
                lineage: 0,
                next_seq: 100,
            },
            &mut sender,
        ) {
            Response::Error { message } => assert!(message.contains("stale")),
            other => panic!("unexpected: {other:?}"),
        }
        // A same-lineage primary at or past our watermark streams fine,
        // and the subscribe clears any lingering resync flag.
        match service.handle(
            Request::ReplSubscribe {
                start_seq: 0,
                lineage: 1,
                next_seq: 3,
            },
            &mut sender,
        ) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 3),
            other => panic!("unexpected: {other:?}"),
        }
        let repl = service.stats().repl.expect("repl section present");
        assert!(!repl.resync_required);
        drop(sender);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn primary_refuses_repl_stream() {
        let service = Service::start(ServiceConfig {
            shards: 1,
            capacity: 16,
            refresh: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        match service.handle(
            Request::ReplSubscribe {
                start_seq: 0,
                lineage: 0,
                next_seq: 0,
            },
            &mut sender,
        ) {
            Response::Error { message } => assert!(message.contains("--standby")),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(service.stats().repl.is_none(), "no repl section until used");
        drop(sender);
        service.drain();
    }

    #[test]
    fn standby_without_persistence_is_rejected() {
        let err = Service::start(ServiceConfig {
            standby: true,
            ..Default::default()
        });
        assert!(err.is_err(), "standby requires --data-dir");
    }
}
