//! The sharded ingest pipeline: per-shard summaries, per-shard workers,
//! and the per-connection senders that feed them.
//!
//! Topology: the service runs `shards` worker threads, and for full
//! history **one Space Saving summary per worker** ([`Partitioned`]). Keys
//! are partitioned to workers by multiplicative hash, so every occurrence
//! of a key is applied by the same worker to the same summary: no two
//! workers ever count the same key, a worker's batch takes one
//! uncontended lock, and a capture merges the per-worker copies by the
//! disjoint rule ([`cots_core::merge::merge_disjoint`]) — the paper's §4
//! independent structures, with the merge paid once per publish rather
//! than once per query. The CoTS engine stays the reproduction artefact
//! in `crates/cots`.
//!
//! Each connection gets one bounded SPSC ring *per shard* (strict
//! single-producer/single-consumer, no locks on the hot path). Workers
//! adopt newly registered rings from a small mutex-protected inbox,
//! drop rings whose connection has closed, and exit once shutdown is
//! signalled and every ring has drained — the graceful-drain guarantee.
//! After each batch a worker asks the [`Refresher`] whether ingest has
//! moved a key budget past the last capture, and if so publishes inline.
//!
//! A batch is counted by its runs: sorted before the summary lock is
//! taken, then under the lock each distinct key is applied once, weighted
//! by its run length. A skewed batch holds few distinct keys (about 179
//! of 2 048 at Zipf 1.5), so the lock is held for a fraction of the
//! per-key work; a batch of distinct keys pays the sort for nothing.
//! Every way into the summaries ends in that one loop (`count_runs`),
//! fed three ways:
//!
//! * [`Partitioned::apply`] — the standby stream: a copy of the batch,
//!   split by owner when it is mixed, sorted;
//! * `Partitioned::apply_sorted` — the shard workers, which sort the batch
//!   they own in place (the durable one before logging it): counted as it
//!   is, no copy, no second hash;
//! * [`Partitioned::replay`] — WAL recovery: the logged runs, split by
//!   owner, sorted and merged per batch, on one thread per shard (at most
//!   one per CPU). Each shard sees exactly the `process_weighted` sequence
//!   `apply` would have given it on the expanded keys.
//!
//! Workers run `WORKER_NICE` nice levels behind the reactors (Linux
//! only): with more busy threads than cores, a reactor holding a query or
//! an ack takes the CPU before a worker counting a batch.
//!
//! A worker whose rings are all empty parks, and the push that gives it
//! work unparks it: no worker wakes on a timer. The handshake is
//! Dekker's: the worker sets its `parked` flag, fences, and looks at its
//! rings once more; a producer pushes, fences, and reads the flag. With
//! both fences `SeqCst`, at least one of them sees the other's store, so
//! either the worker finds the batch or the producer unparks it.
//! Shutdown and a closing sender wake every worker the same way.
//!
//! The rings are bounded, and a full one is waited on rather than grown:
//! a sender that finds a ring full announces it on that ring
//! ([`Producer::wait_for_room`]) and reports [`SendOutcome::Overloaded`];
//! the worker, after every pop, asks whether a wait is owed a wake
//! ([`Consumer::room_wanted`]) and calls the sender's [`RoomWaker`] — for a
//! reactor, one byte down its wakeup channel. The volatile worker pops one
//! batch per apply, so room comes back a slot at a time; the durable one
//! drains up to `DRAIN_BURST` batches into one WAL commit.
//!
//! AUDIT: locks — the registry and summary mutexes are held for in-memory
//! work only and must stay I/O-free; enforced by `cargo xtask audit`
//! (lint-locks).

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use parking_lot::Mutex;

use cots::{CotsEngine, SnapshotPublisher};
use cots_core::merge::{absent_bound, merge_disjoint};
use cots_core::{CotsError, FrequencyCounter, MulHash, QueryableSummary, Snapshot, SummaryConfig};
use cots_persist::WalRuns;
use cots_profiling::ShardTally;
use cots_sequential::SpaceSaving;

use crate::persistence::Persistence;
use crate::spsc::{ring, Consumer, Pop, Producer};

/// What a worker calls when a ring whose sender waits for room has room
/// again (see [`ShardPool::connect`]).
pub type RoomWaker = Arc<dyn Fn() + Send + Sync>;

/// Batches a worker drains from its rings before logging/applying them
/// as one group (one WAL commit, one gate section).
pub(crate) const DRAIN_BURST: usize = 32;

/// Most shards a service runs. Each shard is a worker thread (and a
/// replay thread at recovery), so the count is bounded before anything
/// is allocated or spawned.
pub const MAX_SHARDS: usize = 1024;

/// Nice levels a shard worker lowers its own priority by when it starts,
/// so the reactors answering queries and writing acks win the CPU over
/// the counting (see [`crate::reactor::sys::lower_thread_priority`]).
const WORKER_NICE: i32 = 5;

/// The engine capture the benchmark's layer replay times. No serving
/// path builds it: the service holds [`Partitioned`] and calls it
/// directly. Yardstick v2 (ROADMAP 2(b)) deletes this shim together with
/// the `cots` dependency.
#[derive(Clone)]
pub enum Backend {
    /// Unbounded history on one shared CoTS engine.
    Engine(Arc<CotsEngine<u64>>),
}

impl Backend {
    /// Capture a queryable view: `(snapshot, captured_total, rotations)`.
    ///
    /// Reads the engine's *applied* counter — elements whose delegation
    /// call has returned — before draining and snapshotting, so
    /// `captured_total` never exceeds the mass the snapshot covers (its
    /// `processed()` is bumped before a batch is applied, so reading it
    /// instead would over-claim while batches are in flight). Safe while
    /// producers run. `rotations` is always `None`.
    pub fn capture(&self) -> (Snapshot<u64>, u64, Option<u64>) {
        let Backend::Engine(e) = self;
        let total = e.applied();
        e.drain_pending();
        (QueryableSummary::snapshot(&**e), total, None)
    }
}

/// One Space Saving summary per shard, each at the full capacity, over
/// the disjoint key domains hash partitioning gives the shard workers.
///
/// A capture copies one shard at a time and merges the copies with
/// [`merge_disjoint`], cut to `capacity`: every key keeps its owner's
/// count and error, so the merged envelope is exactly the owners'.
pub struct Partitioned {
    shards: Vec<ShardSummary>,
    capacity: usize,
    /// Mass of the snapshot the backend was seeded from, attributed to
    /// no shard.
    seeded: AtomicU64,
}

/// One shard's summary plus the gauges read without its lock. Aligned so
/// two workers' gauges never share a cache line.
#[repr(align(128))]
struct ShardSummary {
    summary: Mutex<SpaceSaving<u64>>,
    /// Keys applied to `summary`, stored before its lock is released.
    applied: AtomicU64,
    /// Counters `summary` monitors, stored with `applied`.
    monitored: AtomicUsize,
}

impl Partitioned {
    /// `shards` empty summaries of `capacity` counters each; `shards` is
    /// at least 1 and at most [`MAX_SHARDS`].
    pub fn new(shards: usize, capacity: usize) -> cots_core::Result<Self> {
        let config = SummaryConfig::with_capacity(capacity)?;
        if shards == 0 || shards > MAX_SHARDS {
            return Err(CotsError::InvalidConfig(format!(
                "{shards} shards: between 1 and {MAX_SHARDS}"
            )));
        }
        Ok(Self {
            shards: (0..shards)
                .map(|_| ShardSummary {
                    summary: Mutex::new(SpaceSaving::new(config)),
                    applied: AtomicU64::new(0),
                    monitored: AtomicUsize::new(0),
                })
                .collect(),
            capacity,
            seeded: AtomicU64::new(0),
        })
    }

    /// Apply a batch, routing each key to its owner by
    /// [`ShardSender::shard_of`]. A batch a primary's worker logged with
    /// the same shard count is all one shard's keys and takes that one
    /// lock; a mixed batch is split first. Each part is copied, sorted and
    /// counted by its runs.
    pub fn apply(&self, keys: &[u64]) {
        let n = self.shards.len();
        let Some(&first) = keys.first() else {
            return;
        };
        let home = ShardSender::shard_of(first, n);
        if keys.iter().all(|&k| ShardSender::shard_of(k, n) == home) {
            self.apply_owned(home, keys.to_vec());
            return;
        }
        let mut parts = vec![Vec::new(); n];
        for &key in keys {
            parts[ShardSender::shard_of(key, n)].push(key);
        }
        for (shard, part) in parts.into_iter().enumerate() {
            if !part.is_empty() {
                self.apply_owned(shard, part);
            }
        }
    }

    /// Sort `keys`, which all belong to `shard`, and count them by their
    /// runs.
    fn apply_owned(&self, shard: usize, mut keys: Vec<u64>) {
        keys.sort_unstable();
        self.apply_sorted(shard, &keys);
    }

    /// Count `keys` — sorted, and all owned by `shard` — by their runs of
    /// equal keys, straight from the slice: the durable worker sorts its
    /// batch before logging it, and this counts it without a copy or a
    /// second sort.
    pub(crate) fn apply_sorted(&self, shard: usize, keys: &[u64]) {
        debug_assert!(keys.is_sorted(), "apply_sorted takes sorted keys");
        debug_assert!(
            keys.iter()
                .all(|&k| ShardSender::shard_of(k, self.shards.len()) == shard),
            "apply_sorted takes keys shard {shard} owns"
        );
        let runs = keys
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64));
        self.count_runs(shard, runs);
    }

    /// Replay recovered WAL batches, in WAL order, from the runs they were
    /// logged as. `min(shards, available_parallelism)` threads each own a
    /// fixed set of shards (`t`, `t + threads`, …) and apply every batch's
    /// part for them; the threads have joined when this returns. Each
    /// shard receives the `process_weighted` sequence that
    /// [`apply`](Partitioned::apply) on the batch's expanded keys would
    /// give it, so the summaries come out bit-identical.
    pub fn replay(&self, batches: &[WalRuns]) -> cots_core::Result<()> {
        let n = self.shards.len();
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(n));
        std::thread::scope(|scope| {
            for t in 1..threads {
                std::thread::Builder::new()
                    .name(format!("cots-recover-{t}"))
                    .spawn_scoped(scope, move || self.replay_shards(batches, t, threads))
                    .map_err(|e| CotsError::Report(format!("spawn replay thread: {e}")))?;
            }
            self.replay_shards(batches, 0, threads);
            Ok(())
        })
    }

    /// Replay thread `t` of `threads`: for every batch in order, the runs
    /// of each shard it owns, hashed once each, sorted by key with equal
    /// keys merged — the distinct keys and counts an expand, sort and
    /// run-length pass would give, unsorted and mixed-owner batches
    /// included.
    fn replay_shards(&self, batches: &[WalRuns], t: usize, threads: usize) {
        let n = self.shards.len();
        let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for batch in batches {
            for &(key, weight) in &batch.runs {
                let shard = ShardSender::shard_of(key, n);
                if shard % threads == t {
                    parts[shard].push((key, u64::from(weight)));
                }
            }
            for shard in (t..n).step_by(threads) {
                let part = &mut parts[shard];
                if part.is_empty() {
                    continue;
                }
                part.sort_unstable_by_key(|&(key, _)| key);
                part.dedup_by(|next, kept| {
                    let same = next.0 == kept.0;
                    if same {
                        kept.1 += next.1;
                    }
                    same
                });
                self.count_runs(shard, part.drain(..));
            }
        }
    }

    /// The one loop into a shard's summary: under its lock, one
    /// `process_weighted(key, weight)` per run — the paper's §5 bulk
    /// increment. `runs` yields ascending, distinct keys. Weighted Space
    /// Saving keeps the envelope and `Σ counts == N`.
    fn count_runs(&self, shard: usize, runs: impl Iterator<Item = (u64, u64)>) {
        let s = &self.shards[shard];
        let mut summary = s.summary.lock();
        let mut last = None;
        for (key, weight) in runs {
            debug_assert!(last < Some(key), "runs ascend by distinct key");
            last = Some(key);
            summary.process_weighted(key, weight);
        }
        // Stored under the lock: a capture that sees these keys in the
        // summary also sees them counted, so `processed()` read after a
        // capture is never below its total.
        s.applied.store(summary.processed(), Ordering::Release);
        s.monitored.store(summary.monitored(), Ordering::Release);
    }

    /// Seed an empty backend from `snapshot` (already fitted to
    /// `capacity` by `persistence::fit_summary`): each shard takes its
    /// own entries, and the snapshot's total is counted once, for no
    /// shard.
    ///
    /// Every shard is seeded with the admission floor
    /// `absent_bound(snapshot, capacity)`. A snapshot that was full may
    /// have dropped keys whose truth is up to its minimum; spread over
    /// the shards it leaves free slots, and a dropped key re-admitted into
    /// one with error 0 would be answered below its truth. With the floor
    /// it enters as `floor + w` with error `floor`, the charge a full
    /// summary's overwrite would make. Every seeded count is at least the
    /// floor, so the merged view keeps `absent_bound` sound.
    pub fn seed(&self, snapshot: &Snapshot<u64>) -> cots_core::Result<()> {
        if self.processed() != 0 || self.monitored() != 0 {
            return Err(CotsError::InvalidConfig(
                "cannot seed: the backend has already applied keys".into(),
            ));
        }
        if snapshot.len() > self.capacity {
            return Err(CotsError::InvalidConfig(
                "cannot seed: the snapshot holds more entries than the capacity".into(),
            ));
        }
        let n = self.shards.len();
        let mut parts = vec![Vec::new(); n];
        for e in snapshot.entries() {
            parts[ShardSender::shard_of(e.item, n)].push(*e);
        }
        // Seed fresh summaries first, so a refusal leaves every shard as
        // it was.
        let floor = absent_bound(snapshot, self.capacity);
        let config = SummaryConfig::with_capacity(self.capacity)?;
        let mut fresh = Vec::with_capacity(n);
        for part in &parts {
            let mut summary = SpaceSaving::new(config);
            summary.seed(part, floor)?;
            fresh.push(summary);
        }
        for (s, summary) in self.shards.iter().zip(fresh) {
            s.monitored.store(summary.monitored(), Ordering::Release);
            *s.summary.lock() = summary;
        }
        self.seeded.store(snapshot.total(), Ordering::Release);
        Ok(())
    }

    /// Keys counted so far: the seeded mass plus every shard's applied
    /// keys.
    pub fn processed(&self) -> u64 {
        let applied: u64 = self
            .shards
            .iter()
            .map(|s| s.applied.load(Ordering::Acquire))
            .sum();
        self.seeded.load(Ordering::Acquire) + applied
    }

    /// Counters monitored across all shards.
    pub fn monitored(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.monitored.load(Ordering::Acquire))
            .sum()
    }

    /// Copy each shard's summary under its own lock, one shard at a time,
    /// and merge the copies, cut to `capacity`. The snapshot's total is
    /// exactly the mass the copies hold (plus the seeded mass).
    pub fn capture(&self) -> Snapshot<u64> {
        let mut parts = Vec::with_capacity(self.shards.len() + 1);
        parts.push(Snapshot::new(
            Vec::new(),
            self.seeded.load(Ordering::Acquire),
        ));
        for s in &self.shards {
            let copy = s.summary.lock().snapshot();
            parts.push(copy);
        }
        merge_disjoint(&parts, self.capacity)
    }

    /// Check every shard summary's invariants (panics on a violation).
    pub fn check_invariants(&self) {
        for s in &self.shards {
            s.summary.lock().check_invariants();
        }
    }
}

/// Captures the summaries and publishes what it captured: on the service's
/// refresh timer, and — publish by progress — inline on the shard worker
/// whose batch brings the keys applied since the last capture to a
/// budget. One capture-and-publish runs at a time, so published totals
/// only grow, and a worker that finds one running skips its own.
pub struct Refresher {
    summaries: Arc<Partitioned>,
    publisher: Arc<SnapshotPublisher<u64>>,
    /// Keys applied past the last capture that earn a publish now.
    budget: u64,
    /// `captured_total` of the last capture.
    captured: AtomicU64,
    /// What the last publish carried and whether it is confirmed.
    last: Mutex<LastPublish>,
}

/// The `captured_total` the last publish carried, and whether a later
/// capture has confirmed it unchanged.
#[derive(Default)]
struct LastPublish {
    view: Option<u64>,
    confirmed: bool,
}

impl Refresher {
    /// A refresher publishing `summaries` into `publisher`, early every
    /// `budget` applied keys.
    pub fn new(
        summaries: Arc<Partitioned>,
        publisher: Arc<SnapshotPublisher<u64>>,
        budget: u64,
    ) -> Self {
        Self {
            summaries,
            publisher,
            budget,
            captured: AtomicU64::new(0),
            last: Mutex::new(LastPublish::default()),
        }
    }

    /// Capture and publish unconditionally (start-up, drain).
    pub fn publish(&self) {
        let mut last = self.last.lock();
        self.refresh(&mut last, true);
    }

    /// The timer's tick: capture, and publish when the view moved. A view
    /// that stopped moving is published once more to confirm it — a
    /// capture can race in-flight batches, and the confirmation replaces
    /// such a torn capture with a clean one — and then the epoch holds,
    /// which is what lets delta pullers (`SNAPSHOT_PAGE { since_epoch }`)
    /// get a tiny `unchanged` answer instead of the full summary.
    pub fn tick(&self) {
        let mut last = self.last.lock();
        self.refresh(&mut last, false);
    }

    /// Ingest side, after a batch (or a logged run) is applied: publish
    /// now if the summaries are a budget past the last capture, unless a
    /// publish is running.
    pub fn progressed(&self) {
        let behind = self
            .summaries
            .processed()
            .saturating_sub(self.captured.load(Ordering::Acquire));
        if behind < self.budget {
            return;
        }
        if let Some(mut last) = self.last.try_lock() {
            self.refresh(&mut last, false);
        }
    }

    /// A capture's total is exactly the mass its copies hold, and a
    /// later `processed()` is never below it, so the staleness a client
    /// computes from it (`processed − captured_total`) bounds what the
    /// snapshot is missing.
    fn refresh(&self, last: &mut LastPublish, force: bool) {
        let snapshot = self.summaries.capture();
        let total = snapshot.total();
        self.captured.store(total, Ordering::Release);
        let moved = last.view != Some(total);
        if force || moved || !last.confirmed {
            self.publisher.publish(snapshot, total, None);
            last.view = Some(total);
            last.confirmed = !moved;
        }
    }
}

/// One batch in flight between a connection and a shard worker.
type Batch = Vec<u64>;

/// A worker's end of one sender's ring, with that sender's waker.
struct Feed {
    rx: Consumer<Batch>,
    room: Option<RoomWaker>,
}

impl Feed {
    /// Pop one batch, and wake the sender if it waits for the room this
    /// pop made.
    fn pop(&mut self) -> Pop<Batch> {
        let popped = self.rx.pop();
        if matches!(popped, Pop::Item(_)) && self.rx.room_wanted() {
            if let Some(wake) = &self.room {
                wake();
            }
        }
        popped
    }
}

/// How one shard worker waits: it parks, and whoever gives it work
/// unparks it.
#[derive(Default)]
struct Waker {
    /// The worker's thread, set once when it starts.
    thread: OnceLock<Thread>,
    /// Set by the worker before its last look at its rings; cleared by
    /// the worker when it runs again, or by the waker that unparks it.
    parked: AtomicBool,
}

impl Waker {
    /// Unpark the worker if it is parked or about to park. The caller has
    /// stored its work and then run `fence(SeqCst)`: if the worker's last
    /// look missed that work, this load sees `parked`.
    fn wake(&self) {
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::Acquire) {
            // The worker stored `parked` after setting `thread`, with
            // Release: the swap that read it sees `thread` set.
            if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }
}

/// The shard fan-in: ring registries, per-shard tallies, shutdown flag.
pub struct ShardPool {
    /// Per-shard inbox of newly connected rings, adopted by the worker.
    registries: Vec<Mutex<Vec<Feed>>>,
    /// Per-shard park/wake handshake.
    wakers: Vec<Waker>,
    /// Per-shard work counters.
    pub tallies: Vec<ShardTally>,
    /// Ring capacity, in batches, for each (connection, shard) ring.
    queue_batches: usize,
    /// Set to begin draining; workers exit when drained.
    shutdown: AtomicBool,
}

impl ShardPool {
    /// A pool of `shards` shards whose rings hold `queue_batches` batches;
    /// `shards` is at least 1 and at most [`MAX_SHARDS`].
    pub fn new(shards: usize, queue_batches: usize) -> Arc<Self> {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "1 to {MAX_SHARDS} shards"
        );
        Arc::new(Self {
            registries: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            wakers: (0..shards).map(|_| Waker::default()).collect(),
            tallies: (0..shards).map(|_| ShardTally::new()).collect(),
            queue_batches,
            shutdown: AtomicBool::new(false),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.registries.len()
    }

    /// Keys applied across all shards.
    pub fn applied(&self) -> u64 {
        self.tallies.iter().map(|t| t.keys_applied()).sum()
    }

    /// Create a sender: one fresh ring per shard, consumers handed to the
    /// workers. A worker calls `room` when one of these rings the sender
    /// waits on has room again; a sender without one retries on its own.
    pub fn connect(self: &Arc<Self>, room: Option<RoomWaker>) -> ShardSender {
        let mut producers = Vec::with_capacity(self.shards());
        for registry in &self.registries {
            let (tx, rx) = ring::<Batch>(self.queue_batches);
            registry.lock().push(Feed {
                rx,
                room: room.clone(),
            });
            producers.push(tx);
        }
        ShardSender {
            producers,
            owners: Vec::new(),
            counts: vec![0; self.shards()],
            batches: vec![Vec::new(); self.shards()],
            pool: self.clone(),
        }
    }

    /// Signal workers to finish what is queued and exit.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake_all();
    }

    /// Wake every worker after a store it must see (shutdown, closed
    /// rings).
    fn wake_all(&self) {
        fence(Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Spawn the shard workers over `summaries`; with `persist` set, every
    /// drained group is written to the WAL before it is applied, and
    /// after every group `refresher` may publish (see
    /// [`Refresher::progressed`]).
    pub fn spawn_workers(
        self: &Arc<Self>,
        summaries: &Arc<Partitioned>,
        persist: Option<Arc<Persistence>>,
        refresher: &Arc<Refresher>,
    ) -> Vec<JoinHandle<()>> {
        (0..self.shards())
            .map(|shard| {
                let pool = self.clone();
                let summaries = summaries.clone();
                let persist = persist.clone();
                let refresher = refresher.clone();
                std::thread::Builder::new()
                    .name(format!("cots-shard-{shard}"))
                    .spawn(move || pool.worker(shard, &summaries, persist, &refresher))
                    .expect("spawn shard worker")
            })
            .collect()
    }

    /// The worker loop for one shard: a pass over this shard's rings
    /// (see [`apply_each`](Self::apply_each) and
    /// [`log_burst`](Self::log_burst)), and a park when none had work.
    fn worker(
        &self,
        shard: usize,
        summaries: &Partitioned,
        persist: Option<Arc<Persistence>>,
        refresher: &Refresher,
    ) {
        let waker = &self.wakers[shard];
        waker
            .thread
            .set(std::thread::current())
            .expect("one worker per shard");
        crate::reactor::sys::lower_thread_priority(WORKER_NICE);
        let mut rings: Vec<Feed> = Vec::new();
        let mut burst: Vec<Batch> = Vec::with_capacity(DRAIN_BURST);
        loop {
            // Adopt rings registered since the last pass.
            {
                let mut inbox = self.registries[shard].lock();
                rings.append(&mut inbox);
            }
            let worked = match &persist {
                Some(p) => self.log_burst(shard, &mut rings, &mut burst, p, summaries, refresher),
                None => self.apply_each(shard, &mut rings, summaries, refresher),
            };
            if worked {
                continue;
            }
            if self.is_shutting_down()
                && rings.is_empty()
                && self.registries[shard].lock().is_empty()
            {
                return; // drained: every connection closed and applied
            }
            // Nothing to do: announce the park, then look once more (the
            // worker's half of the handshake on `Waker`). No lock is held
            // across the park.
            waker.parked.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            if self.quiet(shard, &rings) {
                self.tallies[shard].idle_park();
                std::thread::park();
            }
            // Relaxed: clearing the flag publishes nothing; a push that
            // still reads `true` only costs one spurious unpark.
            waker.parked.store(false, Ordering::Relaxed);
        }
    }

    /// The volatile pass: one batch from each ring in turn, sorted in
    /// place and counted as soon as it is popped, so a full ring frees a
    /// slot per apply rather than a burst of them at once. Whether any
    /// ring had a batch.
    fn apply_each(
        &self,
        shard: usize,
        rings: &mut Vec<Feed>,
        summaries: &Partitioned,
        refresher: &Refresher,
    ) -> bool {
        let tally = &self.tallies[shard];
        let mut worked = false;
        let mut i = 0;
        while let Some(feed) = rings.get_mut(i) {
            tally.observe_depth(feed.rx.len() as u64);
            match feed.pop() {
                Pop::Item(mut batch) => {
                    batch.sort_unstable();
                    summaries.apply_sorted(shard, &batch);
                    tally.batch(batch.len() as u64);
                    applied(refresher, rings);
                    worked = true;
                    i += 1;
                }
                Pop::Empty => i += 1,
                Pop::Closed => {
                    rings.remove(i);
                }
            }
        }
        worked
    }

    /// The durable pass: drain up to `DRAIN_BURST` batches across the
    /// rings, sort each, and log-and-apply them as one group (one WAL
    /// commit, one gate section). Whether any ring had a batch.
    fn log_burst(
        &self,
        shard: usize,
        rings: &mut Vec<Feed>,
        burst: &mut Vec<Batch>,
        persist: &Persistence,
        summaries: &Partitioned,
        refresher: &Refresher,
    ) -> bool {
        let tally = &self.tallies[shard];
        rings.retain_mut(|feed| {
            tally.observe_depth(feed.rx.len() as u64);
            while burst.len() < DRAIN_BURST {
                match feed.pop() {
                    Pop::Item(batch) => burst.push(batch),
                    Pop::Empty => return true,
                    Pop::Closed => return false,
                }
            }
            true // leftovers wait for the next pass
        });
        if burst.is_empty() {
            return false;
        }
        // Sorted outside both locks: the WAL then logs each batch as its
        // runs of equal keys, and the apply counts those runs without
        // sorting again. Workers allocate the next sequences, which cannot
        // be refused.
        for batch in burst.iter_mut() {
            batch.sort_unstable();
        }
        persist.log_and_apply_sorted(shard, burst, summaries);
        for batch in burst.drain(..) {
            tally.batch(batch.len() as u64);
        }
        applied(refresher, rings);
        true
    }

    /// Whether worker `shard` has nothing to do: no ring to adopt, every
    /// ring open and empty, and no drained shutdown to exit on.
    fn quiet(&self, shard: usize, rings: &[Feed]) -> bool {
        !(self.is_shutting_down() && rings.is_empty())
            && rings.iter().all(|f| f.rx.is_empty() && !f.rx.is_closed())
            && self.registries[shard].lock().is_empty()
    }
}

/// After every apply: publish if a budget of keys has built up, then give
/// way if more work waits. On a host with fewer cores than busy threads, a
/// worker counting on holds a CPU for a scheduler slice while a reactor
/// with a query waits behind it. With every ring empty the worker parks
/// next, which gives way anyway.
fn applied(refresher: &Refresher, rings: &[Feed]) {
    refresher.progressed();
    if rings.iter().any(|f| !f.rx.is_empty()) {
        std::thread::yield_now();
    }
}

/// A connection's handle for feeding the shard queues.
pub struct ShardSender {
    producers: Vec<Producer<Batch>>,
    /// Owner shard of each key of the batch being sent (reused;
    /// [`MAX_SHARDS`] fits a `u16`).
    owners: Vec<u16>,
    /// Keys of the batch being sent per shard (reused).
    counts: Vec<usize>,
    /// Each shard's part of the batch being sent, allocated at its final
    /// size and moved into the ring.
    batches: Vec<Batch>,
    /// The pool whose workers this sender wakes.
    pool: Arc<ShardPool>,
}

/// Outcome of a [`ShardSender::send`].
#[derive(Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Every shard accepted its partition.
    Enqueued,
    /// At least one shard ring was full; nothing was enqueued, and the
    /// sender waits on every full ring the batch needs: its
    /// [`RoomWaker`] is called once one of them has room.
    Overloaded,
}

impl ShardSender {
    /// Shard index for a key.
    #[inline]
    pub fn shard_of(key: u64, shards: usize) -> usize {
        (MulHash::hash(&key) % shards as u64) as usize
    }

    /// Partition `keys` by shard and enqueue, all-or-nothing: if any
    /// shard's ring lacks room for its partition the whole batch is
    /// refused, so it can be sent again whole, without splitting or
    /// reordering. Sound under concurrency because this sender is the only
    /// producer on its rings: observed free space only grows.
    ///
    /// Each key is hashed once: the owners are counted first, the room
    /// checked, and only then is each shard's part allocated at its final
    /// size and filled, so a refused batch allocates nothing.
    pub fn send(&mut self, keys: &[u64]) -> SendOutcome {
        let shards = self.producers.len();
        self.counts.fill(0);
        self.owners.clear();
        for &key in keys {
            let shard = Self::shard_of(key, shards);
            self.counts[shard] += 1;
            self.owners.push(shard as u16);
        }
        let mut full = false;
        for (producer, &count) in self.producers.iter_mut().zip(&self.counts) {
            // Every full ring the batch needs is waited on, not just the
            // first: the retry then finds them all with room.
            if count > 0 && producer.free() == 0 && !producer.wait_for_room() {
                full = true;
            }
        }
        if full {
            return SendOutcome::Overloaded;
        }
        for (batch, &count) in self.batches.iter_mut().zip(&self.counts) {
            batch.reserve_exact(count);
        }
        for (&key, &shard) in keys.iter().zip(&self.owners) {
            self.batches[usize::from(shard)].push(key);
        }
        for (shard, part) in self.batches.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            let batch = std::mem::take(part);
            self.producers[shard]
                .try_push(batch)
                .expect("free space checked and only we produce");
            // The producer's half of the handshake on `Waker`.
            fence(Ordering::SeqCst);
            self.pool.wakers[shard].wake();
        }
        SendOutcome::Enqueued
    }
}

impl Drop for ShardSender {
    /// Close this sender's rings, then wake every worker so it retires
    /// them (and, when shutting down, exits) without waiting for other
    /// work.
    fn drop(&mut self) {
        self.producers.clear();
        self.pool.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::{Duration, Instant};

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn partitioned(shards: usize, capacity: usize) -> Arc<Partitioned> {
        Arc::new(Partitioned::new(shards, capacity).unwrap())
    }

    /// `(snapshot, captured_total, rotations)` as the refresher publishes
    /// it.
    fn capture(p: &Partitioned) -> (Snapshot<u64>, u64, Option<u64>) {
        let snapshot = p.capture();
        let total = snapshot.total();
        (snapshot, total, None)
    }

    #[test]
    fn pipeline_applies_all_keys() {
        let backend = partitioned(4, 64);
        let pool = ShardPool::new(4, 16);
        let refresher = Refresher::new(
            backend.clone(),
            Arc::new(SnapshotPublisher::new()),
            u64::MAX,
        );
        let workers = pool.spawn_workers(&backend, None, &Arc::new(refresher));
        let mut sender = pool.connect(None);
        let keys: Vec<u64> = (0..10_000u64).map(|i| i % 50).collect();
        let mut sent = 0;
        while sent < keys.len() {
            let end = (sent + 512).min(keys.len());
            match sender.send(&keys[sent..end]) {
                SendOutcome::Enqueued => sent = end,
                SendOutcome::Overloaded => std::thread::yield_now(),
            }
        }
        drop(sender);
        pool.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(pool.applied(), 10_000);
        assert_eq!(backend.processed(), 10_000);
        let (snap, total, rotations) = capture(&backend);
        assert_eq!(total, 10_000);
        assert_eq!(rotations, None);
        let sum: u64 = snap.entries().iter().map(|e| e.count).sum();
        assert_eq!(sum, 10_000, "no key lost in the pipeline");
        assert_eq!(backend.monitored(), 50);
    }

    /// Two workers apply while a third thread captures: every capture's
    /// total is exactly the mass its copies hold, never more than
    /// `processed()` read afterwards, and never behind the last one.
    #[test]
    fn capture_under_load_is_exact_and_monotone() {
        let backend = partitioned(2, 64);
        // 40 keys fit every shard and the merge, so nothing is evicted or
        // cut and Σ counts must equal the captured total.
        let owned = |shard| -> Vec<u64> {
            (0..40u64)
                .filter(|&k| ShardSender::shard_of(k, 2) == shard)
                .collect()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|shard| {
                let backend = backend.clone();
                let stop = stop.clone();
                let keys = owned(shard);
                std::thread::spawn(move || {
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Acquire) || rounds < 100 {
                        backend.apply(&keys);
                        rounds += 1;
                    }
                    rounds * keys.len() as u64
                })
            })
            .collect();
        let mut last = 0;
        for _ in 0..2_000 {
            let (snap, total, _) = capture(&backend);
            let processed = backend.processed();
            assert_eq!(snap.total(), total);
            assert_eq!(snap.entries().iter().map(|e| e.count).sum::<u64>(), total);
            assert!(
                total <= processed,
                "captured {total} > processed {processed}"
            );
            assert!(total >= last, "capture went back from {last} to {total}");
            last = total;
        }
        stop.store(true, Ordering::Release);
        let applied: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(capture(&backend).1, applied);
        backend.check_invariants();
    }

    /// A mixed batch is split to the owners; each shard's summary then
    /// holds only its own keys.
    #[test]
    fn mixed_batches_are_routed_to_their_owners() {
        let p = Partitioned::new(3, 16).unwrap();
        let keys: Vec<u64> = (0..300u64).map(|i| i % 12).collect();
        p.apply(&keys);
        p.apply(&[]);
        assert_eq!(p.processed(), 300);
        assert_eq!(p.monitored(), 12);
        for (shard, s) in p.shards.iter().enumerate() {
            for e in s.summary.lock().snapshot().entries() {
                assert_eq!(ShardSender::shard_of(e.item, 3), shard);
            }
        }
        let snap = p.capture();
        assert!(snap.entries().iter().all(|e| (e.count, e.error) == (25, 0)));
    }

    /// One batch for the run-wise apply: heavy repeats, keys that are
    /// all distinct, a single key over and over, or a light mix.
    fn batch() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![
            vec(0u64..8, 1..300),
            (0u64..1_000_000, 1u64..300).prop_map(|(base, n)| (base..base + n).collect()),
            (0u64..64, 1usize..300).prop_map(|(key, n)| vec![key; n]),
            vec(0u64..64, 0..300),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Counting by runs stays in the Space Saving envelope against
        /// exact truth after every batch, with capacities small enough to
        /// evict, and a run of one monitored key adds exactly its length.
        #[test]
        fn run_wise_apply_keeps_the_envelope(
            shards in prop_oneof![Just(1usize), Just(2), Just(4)],
            capacity in 2usize..12,
            batches in vec(batch(), 1..20),
            repeat in 1usize..100,
        ) {
            let p = Partitioned::new(shards, capacity).unwrap();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for keys in &batches {
                p.apply(keys);
                for &k in keys {
                    *truth.entry(k).or_default() += 1;
                }
                let mut mass = 0;
                for s in &p.shards {
                    let snap = s.summary.lock().snapshot();
                    mass += snap.entries().iter().map(|e| e.count).sum::<u64>();
                }
                let applied: u64 = truth.values().sum();
                prop_assert_eq!(mass, applied, "Σ counts == N");
                prop_assert_eq!(p.processed(), applied);
                let snap = p.capture();
                for e in snap.entries() {
                    let t = truth.get(&e.item).copied().unwrap_or(0);
                    prop_assert!(e.count - e.error <= t && t <= e.count);
                }
                let absent = absent_bound(&snap, capacity);
                for (k, &t) in &truth {
                    if snap.get(k).is_none() {
                        prop_assert!(t <= absent, "{k}: {t} > absent {absent}");
                    }
                }
                // A run of one monitored key raises its count by exactly
                // the run's length and leaves its error alone.
                let Some(top) = snap.entries().first().copied() else {
                    continue;
                };
                let owner = &p.shards[ShardSender::shard_of(top.item, shards)];
                let before = owner.summary.lock().estimate(&top.item);
                p.apply(&vec![top.item; repeat]);
                *truth.get_mut(&top.item).unwrap() += repeat as u64;
                let after = owner.summary.lock().estimate(&top.item);
                prop_assert_eq!(
                    after,
                    before.map(|(count, error)| (count + repeat as u64, error))
                );
            }
            p.check_invariants();
        }
    }

    /// A cut snapshot spread over two shards leaves free slots; a key it
    /// dropped is re-admitted at the cut's minimum, never below it.
    #[test]
    fn seeding_a_cut_snapshot_admits_at_the_floor() {
        let entries = (1..=4u64)
            .map(|k| cots_core::CounterEntry::new(k, 10 * k, 0))
            .collect();
        let cut = Snapshot::new(entries, 120);
        let backend = partitioned(2, 4);
        backend.seed(&cut).unwrap();
        assert!(backend.seed(&cut).is_err(), "a seeded backend is not empty");
        let (snap, total, _) = capture(&backend);
        assert_eq!(
            (snap.clone(), total),
            (cut.clone(), 120),
            "the seed captures as itself"
        );
        assert_eq!(backend.monitored(), 4);
        backend.apply(&[99]);
        assert_eq!(backend.processed(), 121);
        let (snap, total, _) = capture(&backend);
        assert_eq!(total, 121);
        let e = snap.get(&99).copied().expect("99 outranks the floor entry");
        assert_eq!((e.count, e.error), (11, 10), "admitted at the floor 10");
        // An exact (not full) seed has no floor.
        let roomy = partitioned(2, 8);
        roomy.seed(&cut).unwrap();
        roomy.apply(&[99]);
        assert_eq!(
            capture(&roomy).0.get(&99).map(|e| (e.count, e.error)),
            Some((1, 0))
        );
        // A refused seed leaves the backend untouched.
        let bad = Snapshot::new(vec![cots_core::CounterEntry::new(5u64, 1, 0); 2], 2);
        let fresh = partitioned(1, 8);
        assert!(fresh.seed(&bad).is_err());
        assert_eq!((fresh.processed(), fresh.monitored()), (0, 0));
    }

    /// Spin until `done`, failing after a 5 s deadline: a lost wakeup
    /// fails the test instead of hanging it.
    fn within_deadline(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "not within 5 s: {what}");
            std::thread::yield_now();
        }
    }

    /// Wait until worker `shard` has announced its park, then give it a
    /// moment to reach `park()`. Only the likely interleaving depends on
    /// the sleep: a wake that lands before `park()` must work too.
    fn until_parked(pool: &ShardPool, shard: usize) {
        within_deadline("worker never parked", || {
            pool.wakers[shard].parked.load(Ordering::Acquire)
        });
        std::thread::sleep(Duration::from_millis(5));
    }

    fn join_within_deadline(workers: Vec<JoinHandle<()>>, what: &str) {
        within_deadline(what, || workers.iter().all(|w| w.is_finished()));
        for w in workers {
            w.join().unwrap();
        }
    }

    fn spawn(pool: &Arc<ShardPool>) -> Vec<JoinHandle<()>> {
        let backend = partitioned(pool.shards(), 64);
        let refresher = Refresher::new(
            backend.clone(),
            Arc::new(SnapshotPublisher::new()),
            u64::MAX,
        );
        pool.spawn_workers(&backend, None, &Arc::new(refresher))
    }

    /// Every one-key send wakes the worker that owns the key: each is
    /// applied before the next is sent, so the worker parks between them
    /// and a missed wake stalls the count. Also wakes parked workers on
    /// shutdown and on a sender's drop.
    #[test]
    fn every_push_wakes_a_parked_worker() {
        let pool = ShardPool::new(2, 4);
        let workers = spawn(&pool);
        let mut sender = pool.connect(None);
        for key in 0..10_000u64 {
            assert_eq!(sender.send(&[key]), SendOutcome::Enqueued);
            within_deadline("send not applied", || pool.applied() == key + 1);
        }
        // Parked with a live sender at shutdown: the drop must wake it.
        until_parked(&pool, 0);
        pool.begin_shutdown();
        until_parked(&pool, 0);
        drop(sender);
        join_within_deadline(workers, "sender dropped while parked");

        // Parked with no ring at all: shutdown must wake it.
        let pool = ShardPool::new(2, 4);
        let workers = spawn(&pool);
        until_parked(&pool, 0);
        until_parked(&pool, 1);
        pool.begin_shutdown();
        join_within_deadline(workers, "shutdown while parked");
    }

    /// Idle workers park once and stay parked: `idle_parks` counts parks,
    /// not timer ticks.
    #[test]
    fn idle_workers_park_instead_of_polling() {
        let pool = ShardPool::new(2, 4);
        let workers = spawn(&pool);
        let mut sender = pool.connect(None);
        let keys: Vec<u64> = (0..64).collect();
        assert_eq!(sender.send(&keys), SendOutcome::Enqueued);
        within_deadline("batch not applied", || pool.applied() == 64);
        let parks = |shard: usize| pool.tallies[shard].report(shard).idle_parks;
        let before: Vec<u64> = (0..2).map(parks).collect();
        std::thread::sleep(Duration::from_millis(100));
        for (shard, before) in before.into_iter().enumerate() {
            let grew = parks(shard) - before;
            assert!(grew < 10, "shard {shard} parked {grew} times while idle");
        }
        drop(sender);
        pool.begin_shutdown();
        join_within_deadline(workers, "idle pool shutdown");
    }

    #[test]
    fn overload_rejects_all_or_nothing() {
        let pool = ShardPool::new(1, 2);
        // No workers: the single ring (capacity 2) fills and stays full.
        let mut sender = pool.connect(None);
        assert_eq!(sender.send(&[1, 2, 3]), SendOutcome::Enqueued);
        assert_eq!(sender.send(&[4]), SendOutcome::Enqueued);
        assert_eq!(sender.send(&[5]), SendOutcome::Overloaded);
        assert_eq!(sender.send(&[6]), SendOutcome::Overloaded, "still full");
    }

    #[test]
    fn shard_partition_is_stable() {
        for key in 0..1_000u64 {
            let a = ShardSender::shard_of(key, 4);
            let b = ShardSender::shard_of(key, 4);
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }
}
