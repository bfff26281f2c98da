//! The service: one backend, one shard pool, one snapshot publisher, and
//! the member's [`Endpoint`] — how it answers every request the shared
//! connection layer ([`crate::session`]) passes on.
//!
//! Queries never touch the counting structures: they are answered from
//! the most recently *published* snapshot, so a query burst cannot block
//! ingestion (and vice versa — the publisher thread is the only reader
//! doing capture work). Every answer carries the snapshot's epoch and a
//! staleness bound: the number of items applied since that snapshot was
//! captured.
//!
//! With persistence enabled (`--data-dir`), startup recovers the durable
//! state *before* any listener opens: the newest valid checkpoint becomes
//! an immutable **base snapshot**, the WAL tail replays into the fresh
//! engine, and every published snapshot merges base + live through the
//! Space-Saving merge algebra — so post-recovery answers keep the
//! `count ≥ true ≥ count − error` envelope over everything recovered.
//!
//! AUDIT: locks — the request path must never block behind I/O holding a
//! lock; enforced by `cargo xtask audit` (lint-locks).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use cots::{CotsEngine, JumpingWindow, SnapshotPublisher};
use cots_core::merge::merge_snapshots;
use cots_core::{
    CotsConfig, CotsError, RecoveryReport, ReplReport, Result, ServiceReport, Snapshot, Threshold,
};
use cots_persist::Checkpoint;
use cots_profiling::IngestTally;

use crate::persistence::{PersistOptions, Persistence};
use crate::protocol::{QueryReq, QueryStamp, ReplFrame, Request, Response};
use crate::session::{self, ConnState, Endpoint};
use crate::shard::{Backend, SendOutcome, ShardPool, ShardSender};

/// Feature flags a member instance advertises in `HELLO_ACK`.
const MEMBER_FEATURES: &[&str] = &["snapshot-page", "bin"];

/// Service deployment knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shard worker threads.
    pub shards: usize,
    /// Counter budget of the summary (`m`).
    pub capacity: usize,
    /// `Some(w)` serves a jumping window of `w` elements instead of the
    /// full history.
    pub window: Option<u64>,
    /// Snapshot publish cadence.
    pub refresh: Duration,
    /// Ring capacity per (connection, shard), in batches.
    pub queue_batches: usize,
    /// Durable checkpoints + WAL under a data directory. Not supported
    /// together with `window` (only the full-history engine persists).
    pub persist: Option<PersistOptions>,
    /// Start as a replication standby: refuse `INGEST`, accept the
    /// `REPL_*` stream from a primary, stay promotable. Requires
    /// `persist` (the standby keeps its own durable WAL copy).
    pub standby: bool,
    /// Replication peer address, for `STATS` reporting only (the wiring
    /// itself is the shipper's job).
    pub repl_peer: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            capacity: 1_000,
            window: None,
            refresh: Duration::from_millis(20),
            queue_batches: 64,
            persist: None,
            standby: false,
            repl_peer: None,
        }
    }
}

/// The recovery base snapshot, shared mutably so a standby can install
/// a shipped catch-up snapshot after startup. Readers (publisher,
/// checkpointer, query path) grab the `Arc` and drop the guard — no
/// work happens under the lock.
#[derive(Default)]
struct BaseState {
    snapshot: RwLock<Option<Arc<Snapshot<u64>>>>,
    total: AtomicU64,
}

impl BaseState {
    /// The current base, if any, plus the stream mass it accounts for.
    fn get(&self) -> (Option<Arc<Snapshot<u64>>>, u64) {
        let snap = self.snapshot.read().clone();
        (snap, self.total.load(Ordering::Acquire))
    }

    fn install(&self, snapshot: Arc<Snapshot<u64>>, total: u64) {
        let mut slot = self.snapshot.write();
        self.total.store(total, Ordering::Release);
        *slot = Some(snapshot);
    }

    fn is_empty(&self) -> bool {
        self.snapshot.read().is_none()
    }
}

/// Standby-side replication counters (the shipper keeps the primary
/// side and pushes whole reports via [`Service::set_repl_report`]).
#[derive(Default)]
struct ReplCounters {
    streamed_batches: AtomicU64,
    streamed_keys: AtomicU64,
    duplicates: AtomicU64,
    snapshots: AtomicU64,
    /// Set when a stream is refused because histories diverged (needs
    /// an operator to resync the standby from a fresh data directory);
    /// cleared when a stream establishes cleanly.
    resync_required: AtomicBool,
}

/// A running service instance (workers + publisher thread).
pub struct Service {
    backend: Backend,
    pool: Arc<ShardPool>,
    publisher: Arc<SnapshotPublisher<u64>>,
    tally: Arc<IngestTally>,
    shutdown: Arc<AtomicBool>,
    /// Join handles of everything [`Service::start`] spawned, taken
    /// (once) by [`Service::drain`].
    threads: Mutex<Option<Vec<JoinHandle<()>>>>,
    persistence: Option<Arc<Persistence>>,
    /// Recovered (or replication-installed) checkpoint summary, merged
    /// into every published snapshot.
    base: Arc<BaseState>,
    /// Watermark of the base checkpoint: the first WAL sequence *not*
    /// covered by `base`. Everything below it is only available as part
    /// of a catch-up snapshot, never as individual WAL batches.
    base_watermark: AtomicU64,
    recovery: Option<RecoveryReport>,
    capacity: usize,
    /// Replication role: `true` while this instance is a standby.
    standby: AtomicBool,
    /// Times this instance was promoted from standby to primary.
    promotions: AtomicU64,
    /// Replication lineage (promotion generation) of this node's data:
    /// loaded from the `repl-lineage` file at startup, bumped durably
    /// on every promotion, and carried on every REPL wire op so a
    /// divergent pair refuses to stream instead of silently acking.
    lineage: AtomicU64,
    repl_counters: ReplCounters,
    /// Primary-side replication report, pushed by the WAL shipper.
    repl_report: Mutex<Option<ReplReport>>,
    repl_peer: String,
}

/// Capture the backend and merge the recovery base in, returning
/// `(snapshot, captured_total, rotations)` in publishable form.
fn capture_merged(
    backend: &Backend,
    base: &BaseState,
    capacity: usize,
) -> (Snapshot<u64>, u64, Option<u64>) {
    let (live, live_total, rotations) = backend.capture();
    match base.get() {
        (Some(b), base_total) => (
            merge_snapshots(&[(*b).clone(), live], capacity),
            base_total + live_total,
            rotations,
        ),
        (None, _) => (live, live_total, rotations),
    }
}

impl Service {
    /// Recover durable state (when configured), build the backend, and
    /// spawn shard workers plus the publisher and checkpointer threads.
    pub fn start(config: ServiceConfig) -> Result<Self> {
        if config.standby && config.persist.is_none() {
            return Err(CotsError::InvalidConfig(
                "standby mode requires --data-dir: a standby keeps its own \
                 durable WAL copy of the replicated stream"
                    .into(),
            ));
        }
        let engine_config = CotsConfig::for_capacity(config.capacity)?;
        let publisher = Arc::new(SnapshotPublisher::new());
        let base = Arc::new(BaseState::default());
        let mut recovery: Option<RecoveryReport> = None;
        let mut persistence: Option<Arc<Persistence>> = None;
        let mut base_watermark = 0u64;
        let mut lineage = 0u64;

        let backend = match (&config.persist, config.window) {
            (Some(_), Some(_)) => {
                return Err(CotsError::InvalidConfig(
                    "persistence (--data-dir) is not supported with --window: \
                     only the full-history engine checkpoints"
                        .into(),
                ))
            }
            (Some(opts), None) => {
                let rec = cots_persist::recover(&opts.data_dir)?;
                let engine = Arc::new(CotsEngine::new(engine_config)?);
                for batch in &rec.batches {
                    engine.delegate_batch(&batch.keys);
                }
                engine.finalize();
                #[cfg(feature = "invariants")]
                engine.check_quiescent_invariants();
                if let Some(ckpt) = &rec.base {
                    publisher.resume_from(ckpt.epoch);
                    let snap = ckpt.snapshot();
                    #[cfg(feature = "invariants")]
                    {
                        use cots_core::CheckInvariants;
                        let violations = snap.violations();
                        if let Some(v) = violations.first() {
                            return Err(CotsError::Report(format!(
                                "recovered checkpoint failed invariant audit: {v}"
                            )));
                        }
                    }
                    let total = snap.total();
                    base.install(Arc::new(snap), total);
                    base_watermark = ckpt.watermark;
                }
                persistence = Some(Arc::new(Persistence::new(
                    opts,
                    rec.next_seq,
                    config.capacity,
                )?));
                lineage = cots_persist::load_lineage(&opts.data_dir);
                recovery = Some(rec.report);
                Backend::Engine(engine)
            }
            (None, None) => Backend::Engine(Arc::new(CotsEngine::new(engine_config)?)),
            (None, Some(w)) => Backend::Window(Arc::new(JumpingWindow::new(engine_config, w)?)),
        };

        // Publish the recovered (or empty) state synchronously so the
        // first query ever answered already sees it.
        {
            let (snapshot, total, rotations) =
                capture_merged(&backend, &base, config.capacity);
            publisher.publish(snapshot, total, rotations);
        }

        let pool = ShardPool::new(config.shards, config.queue_batches);
        let mut threads = pool.spawn_workers(&backend, persistence.clone());
        let shutdown = Arc::new(AtomicBool::new(false));
        let refresher = {
            let backend = backend.clone();
            let publisher = publisher.clone();
            let shutdown = shutdown.clone();
            let base = base.clone();
            let capacity = config.capacity;
            let refresh = config.refresh;
            std::thread::Builder::new()
                .name("cots-publisher".into())
                .spawn(move || {
                    // Hold the epoch steady once the service quiesces:
                    // that is what lets delta pullers (`SNAPSHOT_PAGE {
                    // since_epoch }`) get a tiny `unchanged` answer
                    // instead of the full summary. One *confirming*
                    // publish still happens after the counters settle,
                    // because a capture can race in-flight batch
                    // application (snapshot vs. counter reads are not
                    // one atomic step) — the confirmation replaces any
                    // such torn capture with a clean one before the
                    // epoch freezes.
                    let mut last: Option<(u64, Option<u64>)> = None;
                    let mut confirmed = false;
                    while !shutdown.load(Ordering::Acquire) {
                        let (snapshot, total, rotations) =
                            capture_merged(&backend, &base, capacity);
                        if last != Some((total, rotations)) {
                            publisher.publish(snapshot, total, rotations);
                            last = Some((total, rotations));
                            confirmed = false;
                        } else if !confirmed {
                            publisher.publish(snapshot, total, rotations);
                            confirmed = true;
                        }
                        std::thread::sleep(refresh);
                    }
                    // One final publish so post-drain queries see the
                    // quiescent state with zero staleness.
                    let (snapshot, total, rotations) =
                        capture_merged(&backend, &base, capacity);
                    if last != Some((total, rotations)) || !confirmed {
                        publisher.publish(snapshot, total, rotations);
                    }
                })
                .map_err(|e| CotsError::Report(format!("spawn publisher: {e}")))?
        };
        let checkpointer = match (&persistence, &config.persist) {
            (Some(p), Some(opts)) if !opts.checkpoint_every.is_zero() => {
                let p = p.clone();
                let backend = backend.clone();
                let publisher = publisher.clone();
                let shutdown = shutdown.clone();
                let base = base.clone();
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
                                let (b, _) = base.get();
                                if let Err(e) = p.checkpoint(&backend, b.as_deref(), &publisher) {
                                    eprintln!("cots-serve: background checkpoint failed: {e}");
                                }
                            }
                        })
                        .map_err(|e| CotsError::Report(format!("spawn checkpointer: {e}")))?,
                )
            }
            _ => None,
        };
        threads.push(refresher);
        threads.extend(checkpointer);
        Ok(Self {
            backend,
            pool,
            publisher,
            tally: Arc::new(IngestTally::new()),
            shutdown,
            threads: Mutex::new(Some(threads)),
            persistence,
            base,
            base_watermark: AtomicU64::new(base_watermark),
            recovery,
            capacity: config.capacity,
            standby: AtomicBool::new(config.standby),
            promotions: AtomicU64::new(0),
            lineage: AtomicU64::new(lineage),
            repl_counters: ReplCounters::default(),
            repl_report: Mutex::new(None),
            repl_peer: config.repl_peer.unwrap_or_default(),
        })
    }

    /// The recovery accounting from startup, when persistence is on.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Total items the service accounts for: recovered base mass plus
    /// everything the backend applied since this process started.
    fn total_processed(&self) -> u64 {
        self.base.total.load(Ordering::Acquire) + self.backend.processed()
    }

    /// Whether this instance is currently a replication standby.
    pub fn is_standby(&self) -> bool {
        self.standby.load(Ordering::Acquire)
    }

    /// Times this instance has been promoted from standby to primary.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Acquire)
    }

    /// This node's replication lineage (promotion generation). A fresh
    /// data directory starts at 0; every promotion bumps it durably.
    pub fn lineage(&self) -> u64 {
        self.lineage.load(Ordering::Acquire)
    }

    /// The persistence layer, when running with a data directory. The
    /// WAL shipper tails its directory and pins its prune floor.
    pub fn persistence(&self) -> Option<&Arc<Persistence>> {
        self.persistence.as_ref()
    }

    /// Install the primary-side replication report the WAL shipper
    /// maintains; it is merged into every `STATS` answer.
    pub fn set_repl_report(&self, report: ReplReport) {
        *self.repl_report.lock() = Some(report);
    }

    /// The lowest WAL sequence this instance can ship as individual
    /// batches: the base checkpoint's watermark or the oldest surviving
    /// WAL segment, whichever is higher. A standby acknowledged below
    /// this floor needs a catch-up snapshot first.
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

    /// Cut a consistent `(watermark, merged summary)` pair for a
    /// catch-up `REPL_SNAPSHOT` — a durable checkpoint whose summary is
    /// handed back instead of thrown away. Requires persistence.
    pub fn repl_cut(&self) -> Result<(u64, Snapshot<u64>)> {
        let p = self.persistence.as_ref().ok_or_else(|| {
            CotsError::Report("replication snapshot requires --data-dir".into())
        })?;
        let (b, _) = self.base.get();
        let cut = p.checkpoint(&self.backend, b.as_deref(), &self.publisher)?;
        Ok((cut.watermark, cut.summary))
    }

    /// Register a new connection with the shard pool.
    pub fn connect(&self) -> ShardSender {
        self.pool.connect()
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
    }

    /// Handle one request in process, on a connection that needs no
    /// handshake: the same path a socket takes through
    /// [`session::serve_request`], minus the `HELLO` gate.
    pub fn handle(&self, request: Request, sender: &mut ShardSender) -> Response {
        session::serve_request(self, &mut ConnState::pre_greeted(), request, sender).response
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
            staleness: self.total_processed().saturating_sub(snap.captured_total),
            rotations: snap.rotations,
        }
    }

    fn dispatch(&self, request: Request, sender: &mut ShardSender) -> Response {
        match request {
            Request::Hello { .. } | Request::Snapshot | Request::SnapshotPage { .. } => {
                session::not_dispatched()
            }
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
                    SendOutcome::Overloaded => {
                        self.tally.reject();
                        Response::Overloaded
                    }
                }
            }
            Request::Query(q) => {
                self.tally.query();
                self.answer(q)
            }
            Request::Stats => Response::Stats(self.stats()),
            Request::ClusterStats => Response::Error {
                message: "this instance is a member, not a coordinator \
                          (CLUSTER_STATS is answered by cots-coord)"
                    .into(),
            },
            Request::Checkpoint => match &self.persistence {
                Some(p) => {
                    let (b, _) = self.base.get();
                    match p.checkpoint(&self.backend, b.as_deref(), &self.publisher) {
                        Ok(cut) => Response::Checkpointed {
                            watermark: cut.watermark,
                            total: cut.summary.total(),
                            bytes: cut.bytes,
                        },
                        Err(e) => Response::Error {
                            message: format!("checkpoint failed: {e}"),
                        },
                    }
                }
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
            } => match self.repl_persistence() {
                Ok(p) => self.accept_subscribe(&p, lineage, next_seq),
                Err(resp) => resp,
            },
            Request::ReplBatch { lineage, batches } => match self.repl_persistence() {
                Ok(p) => {
                    // A mismatched lineage must never be acked: a
                    // cumulative ack over unseen batches is exactly the
                    // silent divergence the lineage exists to prevent.
                    if lineage != self.lineage() {
                        Response::Error {
                            message: format!(
                                "replication batch refused: primary lineage {lineage} \
                                 does not match standby lineage {}",
                                self.lineage()
                            ),
                        }
                    } else {
                        self.apply_repl_batches(&p, &batches);
                        Response::ReplAck {
                            ack_seq: p.next_seq(),
                        }
                    }
                }
                Err(resp) => resp,
            },
            Request::ReplSnapshot {
                lineage,
                watermark,
                snapshot,
            } => match self.repl_persistence() {
                Ok(p) => self.install_repl_snapshot(&p, lineage, watermark, snapshot),
                Err(resp) => resp,
            },
            Request::ReplPromote => {
                if self.standby.swap(false, Ordering::AcqRel) {
                    self.promotions.fetch_add(1, Ordering::Release);
                    let promoted = self.lineage.fetch_add(1, Ordering::AcqRel) + 1;
                    self.repl_counters
                        .resync_required
                        .store(false, Ordering::Release);
                    if let Some(p) = &self.persistence {
                        // Best-effort durability: a lost bump means the
                        // node restarts with the pre-promotion lineage
                        // and is refused by newer peers — safe (it must
                        // resync), never silently divergent.
                        let _ = cots_persist::store_lineage(p.dir(), promoted);
                    }
                }
                Response::ReplAck {
                    ack_seq: self
                        .persistence
                        .as_ref()
                        .map(|p| p.next_seq())
                        .unwrap_or(0),
                }
            }
        }
    }

}

impl Service {
    /// The persistence handle a `REPL_*` stream operation applies
    /// through, or the refusal to send back: only a standby with a data
    /// directory accepts the stream.
    fn repl_persistence(&self) -> std::result::Result<Arc<Persistence>, Response> {
        if !self.is_standby() {
            return Err(Response::Error {
                message: "this instance is not a replication standby \
                          (REPL_* streams are only accepted in --standby mode)"
                    .into(),
            });
        }
        match &self.persistence {
            Some(p) => Ok(p.clone()),
            None => Err(Response::Error {
                message: "standby has no data directory".into(),
            }),
        }
    }

    /// Decide whether a primary may open (or reopen) the replication
    /// stream. This is the divergence gate: a cumulative ack is only
    /// safe when both sides agree on the history below the watermark,
    /// so the standby refuses — instead of acking — whenever the
    /// lineages or watermarks prove the histories have split.
    fn accept_subscribe(
        &self,
        p: &Persistence,
        primary_lineage: u64,
        primary_next: u64,
    ) -> Response {
        let mine = self.lineage();
        let my_next = p.next_seq();
        if primary_lineage < mine {
            // A pre-promotion ex-primary (or a primary on older data)
            // is trying to ship history this node has already moved
            // past. Its data is the divergent copy, not ours.
            return Response::Error {
                message: format!(
                    "replication refused: primary lineage {primary_lineage} is \
                     behind standby lineage {mine}; the primary's history is \
                     stale"
                ),
            };
        }
        let holds_state =
            !self.base.is_empty() || self.backend.processed() > 0 || my_next > 0;
        if primary_lineage > mine {
            if holds_state {
                // This standby's data predates the primary's promotion
                // — e.g. a dead ex-primary restarted with --standby on
                // its old data dir. Its local tail was never replicated
                // and cannot be reconciled; acking the new stream would
                // silently keep the divergent tail.
                self.repl_counters
                    .resync_required
                    .store(true, Ordering::Release);
                return Response::Error {
                    message: format!(
                        "replication refused: primary lineage {primary_lineage} \
                         diverges from this standby's lineage {mine} and the \
                         standby already holds state; restart the standby with \
                         a fresh data directory to resync"
                    ),
                };
            }
            // Empty standby: adopt the primary's lineage (best-effort
            // durably — a lost write re-adopts on the next subscribe).
            let _ = cots_persist::store_lineage(p.dir(), primary_lineage);
            self.lineage.store(primary_lineage, Ordering::Release);
        } else if my_next > primary_next {
            // Same lineage but this standby's WAL is ahead of the
            // primary's: the primary lost a durable suffix (e.g. it was
            // restored from older media). Acking would mark batches the
            // standby never saw as replicated.
            self.repl_counters
                .resync_required
                .store(true, Ordering::Release);
            return Response::Error {
                message: format!(
                    "replication refused: standby watermark {my_next} is ahead \
                     of primary watermark {primary_next} at lineage {mine}; \
                     histories have diverged"
                ),
            };
        }
        self.repl_counters
            .resync_required
            .store(false, Ordering::Release);
        Response::ReplAck { ack_seq: my_next }
    }

    /// Apply an in-order run of replicated batches: duplicates are
    /// counted and skipped, a gap stops the run (the unchanged ack tells
    /// the shipper where to rewind to).
    fn apply_repl_batches(&self, p: &Persistence, batches: &[ReplFrame]) {
        for frame in batches {
            let expected = p.next_seq();
            if frame.seq < expected {
                self.repl_counters.duplicates.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if frame.seq > expected
                || !p.log_external_and_apply(frame.seq, &frame.keys, &self.backend)
            {
                break;
            }
            self.repl_counters.streamed_batches.fetch_add(1, Ordering::Relaxed);
            self.repl_counters
                .streamed_keys
                .fetch_add(frame.keys.len() as u64, Ordering::Relaxed);
        }
    }

    /// Install a catch-up base snapshot into an empty standby, adopting
    /// the primary's lineage; a same-lineage watermark the log already
    /// covers is acked as a duplicate.
    fn install_repl_snapshot(
        &self,
        p: &Persistence,
        lineage: u64,
        watermark: u64,
        snapshot: Snapshot<u64>,
    ) -> Response {
        let mine = self.lineage();
        if lineage < mine {
            return Response::Error {
                message: format!(
                    "catch-up snapshot refused: primary lineage {lineage} is \
                     behind standby lineage {mine}; the primary's history is \
                     stale"
                ),
            };
        }
        if lineage == mine && p.next_seq() >= watermark {
            self.repl_counters.duplicates.fetch_add(1, Ordering::Relaxed);
            return Response::ReplAck {
                ack_seq: p.next_seq(),
            };
        }
        if !self.base.is_empty() || self.backend.processed() > 0 || p.next_seq() > 0 {
            self.repl_counters
                .resync_required
                .store(true, Ordering::Release);
            return Response::Error {
                message: "catch-up snapshot refused: this standby already holds \
                          state; restart it with a fresh data directory to resync"
                    .into(),
            };
        }
        let epoch = self.publisher.epoch();
        let ckpt = Checkpoint::from_snapshot(watermark, epoch, self.capacity, &snapshot);
        match p.install_base(&ckpt) {
            Ok(_) => {
                if lineage > mine {
                    let _ = cots_persist::store_lineage(p.dir(), lineage);
                    self.lineage.store(lineage, Ordering::Release);
                }
                let total = snapshot.total();
                self.base.install(Arc::new(snapshot), total);
                self.base_watermark.store(watermark, Ordering::Release);
                self.repl_counters.snapshots.fetch_add(1, Ordering::Relaxed);
                self.repl_counters
                    .resync_required
                    .store(false, Ordering::Release);
                Response::ReplAck { ack_seq: watermark }
            }
            Err(e) => Response::Error {
                message: format!("catch-up snapshot install failed: {e}"),
            },
        }
    }

    /// Answer a query from the published snapshot.
    fn answer(&self, q: QueryReq) -> Response {
        let (snap, stamp) = self.published();
        let entries = match q {
            QueryReq::Point { key } => snap.get(&key).into_iter().copied().collect(),
            QueryReq::Frequent { phi } => {
                if !(phi > 0.0 && phi < 1.0) {
                    return Response::Error {
                        message: format!("phi must be in (0, 1), got {phi}"),
                    };
                }
                snap.frequent(Threshold::Fraction(phi))
            }
            QueryReq::TopK { k } => snap.top_k(k),
        };
        Response::Answer {
            entries,
            total: snap.total(),
            stamp,
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
        let snap = self.publisher.current();
        let staleness = self.total_processed().saturating_sub(snap.captured_total);
        let mut report = self.tally.report(
            &self.pool.tallies,
            snap.epoch,
            staleness,
            self.backend.monitored(),
            self.recovery.clone(),
            self.persistence.as_ref().map(|p| p.tally.snapshot()),
        );
        report.repl = self.build_repl_report();
        report
    }

    /// Assemble the replication section of `STATS`: the shipper's report
    /// when one is live (primary side), synthesized from the applier
    /// counters otherwise (standby side); role and promotion count are
    /// always this instance's own.
    fn build_repl_report(&self) -> Option<ReplReport> {
        let c = &self.repl_counters;
        let streamed_batches = c.streamed_batches.load(Ordering::Relaxed);
        let streamed_keys = c.streamed_keys.load(Ordering::Relaxed);
        let duplicates = c.duplicates.load(Ordering::Relaxed);
        let snapshots = c.snapshots.load(Ordering::Relaxed);
        let shipped = self.repl_report.lock().clone();
        let mut report = match shipped {
            Some(r) => r,
            None => {
                if !self.is_standby()
                    && streamed_batches == 0
                    && snapshots == 0
                    && self.promotions() == 0
                {
                    return None;
                }
                let watermark = self
                    .persistence
                    .as_ref()
                    .map(|p| p.next_seq())
                    .unwrap_or(0);
                ReplReport {
                    peer: self.repl_peer.clone(),
                    streamed_batches,
                    streamed_keys,
                    acked_seq: watermark,
                    next_seq: watermark,
                    ..ReplReport::default()
                }
            }
        };
        report.role = if self.is_standby() { "standby" } else { "primary" }.to_string();
        report.promotions = self.promotions();
        report.duplicates = report.duplicates.saturating_add(duplicates);
        report.snapshots = report.snapshots.saturating_add(snapshots);
        report.lineage = self.lineage();
        report.resync_required =
            report.resync_required || c.resync_required.load(Ordering::Acquire);
        Some(report)
    }

    /// Drain and stop: signal shutdown, wait for shard workers (all
    /// connections must already be closed for their rings to close),
    /// quiesce the backend, and publish a final exact snapshot.
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
        self.backend.finalize();
        let (snapshot, total, rotations) =
            capture_merged(&self.backend, &self.base, self.capacity);
        self.publisher.publish(snapshot, total, rotations);
        // Workers are gone, so the final checkpoint captures the exact
        // quiescent state; a clean restart replays an empty WAL tail.
        if let Some(p) = &self.persistence {
            let (b, _) = self.base.get();
            if let Err(e) = p.checkpoint(&self.backend, b.as_deref(), &self.publisher) {
                eprintln!("cots-serve: final checkpoint failed: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(second.epoch, first.epoch, "transfer stays on the pinned epoch");
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

    #[test]
    fn window_service_reports_rotations() {
        let service = Service::start(ServiceConfig {
            shards: 2,
            capacity: 64,
            window: Some(1_000),
            refresh: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let mut sender = service.connect();
        let keys: Vec<u64> = (0..5_000u64).map(|i| i % 10).collect();
        drive(&service, &mut sender, &keys, 256);
        // Wait for full application (window applied counts live in the
        // shard tallies, not the window total, which also counts them).
        for _ in 0..10_000 {
            if service.stats().applied_keys() == 5_000 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Let the publisher observe the quiescent window.
        std::thread::sleep(Duration::from_millis(10));
        match service.handle(Request::Query(QueryReq::TopK { k: 10 }), &mut sender) {
            Response::Answer { stamp, total, .. } => {
                assert!(
                    stamp.rotations.unwrap() >= 9,
                    "5000 items over W=1000 rotate ≥9 times, saw {:?}",
                    stamp.rotations
                );
                assert!(total <= 1_000, "window bounds the answer mass");
            }
            other => panic!("unexpected: {other:?}"),
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

    /// Wait until the publisher has observed everything the backend
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
        match service.handle(Request::Ingest { keys: vec![1, 2, 3] }, &mut sender) {
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

    /// CRC records in `dir`'s WAL segments, as `(run, legacy)` counts.
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
                if payload.starts_with(cots_persist::RUN_MAGIC) {
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

        // A standby: every replicated batch is a run of one.
        let standby_dir = temp_data_dir("forms-standby");
        let service = Service::start(config(&standby_dir, true)).unwrap();
        let mut sender = service.connect();
        let batches = (0..3).map(|seq| ReplFrame { seq, keys: vec![7, 7, 9] }).collect();
        match service.handle(Request::ReplBatch { lineage: 0, batches }, &mut sender) {
            Response::ReplAck { ack_seq } => assert_eq!(ack_seq, 3),
            other => panic!("unexpected: {other:?}"),
        }
        drop(sender);
        service.drain();
        assert_eq!(wal_record_forms(&standby_dir), (3, 0));

        for dir in [primary_dir, standby_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn repl_snapshot_catches_up_an_empty_standby() {
        let dir = temp_data_dir("catchup");
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

    #[test]
    fn window_plus_persistence_is_rejected() {
        let dir = temp_data_dir("win");
        let err = Service::start(ServiceConfig {
            window: Some(1_000),
            persist: Some(PersistOptions::new(dir.clone())),
            ..Default::default()
        });
        assert!(err.is_err(), "window + persistence must be refused");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
