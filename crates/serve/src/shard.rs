//! The sharded ingest pipeline: counting backend, per-shard workers, and
//! the per-connection senders that feed them.
//!
//! Topology: the service runs **one** shared counting backend (the CoTS
//! engine is concurrent by design — that is the paper's contribution) and
//! `shards` worker threads. Keys are partitioned to workers by
//! multiplicative hash, so every occurrence of a key is applied by the
//! same worker: a batch's repeats of a hot key meet in that worker's
//! batch-scoped combiner, and no two workers ever delegate the same
//! element. What the workers do share is the engine's bucket list: a
//! request left on a bucket a worker did not win is the winner's to
//! finish (no drain helps another bucket; see the `cots::engine` module
//! docs), and `Backend::capture`'s `drain_pending` sweeps before every
//! publish.
//!
//! Each connection gets one bounded SPSC ring *per shard* (strict
//! single-producer/single-consumer, no locks on the hot path). Workers
//! adopt newly registered rings from a small mutex-protected inbox,
//! drop rings whose connection has closed, and exit once shutdown is
//! signalled and every ring has drained — the graceful-drain guarantee.
//!
//! AUDIT: locks — the registry mutexes are touched off the hot path only
//! and must stay I/O-free; enforced by `cargo xtask audit` (lint-locks).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use cots::{CotsEngine, JumpingWindow};
use cots_core::{ConcurrentCounter, MulHash, Snapshot};
use cots_profiling::ShardTally;

use crate::persistence::Persistence;
use crate::spsc::{ring, Consumer, Pop, Producer};

/// Batches a worker drains from its rings before logging/applying them
/// as one group (one WAL commit, one gate section).
const DRAIN_BURST: usize = 32;

/// The counting structure behind the service.
#[derive(Clone)]
pub enum Backend {
    /// Unbounded history: one shared CoTS engine.
    Engine(Arc<CotsEngine<u64>>),
    /// Recency-scoped: a jumping window over an engine pair.
    Window(Arc<JumpingWindow<u64>>),
}

impl Backend {
    /// Apply a batch of keys.
    pub fn apply(&self, keys: &[u64]) {
        match self {
            Backend::Engine(e) => e.delegate_batch(keys),
            Backend::Window(w) => w.process_slice(keys),
        }
    }

    /// Install a recovered or shipped snapshot as the starting state of
    /// a backend that has applied nothing (see [`CotsEngine::seed`]); the
    /// window backend holds no durable state to resume from.
    pub fn seed(&self, snapshot: &Snapshot<u64>) -> cots_core::Result<()> {
        match self {
            Backend::Engine(e) => e.seed(snapshot),
            Backend::Window(_) => Err(cots_core::CotsError::InvalidConfig(
                "a jumping window cannot be seeded from a snapshot".into(),
            )),
        }
    }

    /// Items applied so far.
    pub fn processed(&self) -> u64 {
        match self {
            Backend::Engine(e) => e.processed(),
            Backend::Window(w) => w.processed(),
        }
    }

    /// Capture a queryable view: `(snapshot, captured_total, rotations)`.
    ///
    /// `captured_total` is the backend's *applied* counter — elements
    /// whose delegation call has returned — read *before* the drain and
    /// snapshot. Every element it counts was already flushed into the
    /// summary when it was read, so the snapshot taken afterwards covers
    /// at least that mass, and the staleness a client computes from it
    /// (`processed − captured_total`) is an upper bound on what the
    /// snapshot is missing. Reading `processed()` here instead would be
    /// unsound: that counter is bumped *before* a batch is applied, so a
    /// capture racing in-flight batches would over-claim and staleness
    /// could read 0 while heavy hitters are still short the in-flight
    /// mass. Safe (and designed to be called) while producers run.
    pub fn capture(&self) -> (Snapshot<u64>, u64, Option<u64>) {
        match self {
            Backend::Engine(e) => {
                let total = e.applied();
                e.drain_pending();
                (cots_core::QueryableSummary::snapshot(&**e), total, None)
            }
            Backend::Window(w) => {
                let total = w.applied();
                let snap = w.snapshot();
                let rotations = snap.rotations;
                (snap.snapshot, total, Some(rotations))
            }
        }
    }

    /// Counters currently monitored (0 reported for the window path,
    /// where the pair's membership is only defined at merge time).
    pub fn monitored(&self) -> usize {
        match self {
            Backend::Engine(e) => e.monitored(),
            Backend::Window(_) => 0,
        }
    }

    /// Quiesce the backend: apply everything logged but not yet applied.
    /// Call only after all ingest workers have exited.
    pub fn finalize(&self) {
        match self {
            Backend::Engine(e) => e.finalize(),
            Backend::Window(w) => {
                // The window has no finalize; a snapshot drains both
                // engines' pending queues.
                let _ = w.snapshot();
            }
        }
    }
}

/// One batch in flight between a connection and a shard worker.
type Batch = Vec<u64>;

/// The shard fan-in: ring registries, per-shard tallies, shutdown flag.
pub struct ShardPool {
    /// Per-shard inbox of newly connected rings, adopted by the worker.
    registries: Vec<Mutex<Vec<Consumer<Batch>>>>,
    /// Per-shard work counters.
    pub tallies: Vec<ShardTally>,
    /// Ring capacity, in batches, for each (connection, shard) ring.
    queue_batches: usize,
    /// Set to begin draining; workers exit when drained.
    shutdown: AtomicBool,
}

impl ShardPool {
    /// A pool of `shards` shards whose rings hold `queue_batches` batches.
    pub fn new(shards: usize, queue_batches: usize) -> Arc<Self> {
        assert!(shards > 0, "at least one shard");
        Arc::new(Self {
            registries: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
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

    /// Create the sender for a new connection: one fresh ring per shard,
    /// consumers handed to the workers.
    pub fn connect(self: &Arc<Self>) -> ShardSender {
        let mut producers = Vec::with_capacity(self.shards());
        for registry in &self.registries {
            let (tx, rx) = ring::<Batch>(self.queue_batches);
            registry.lock().push(rx);
            producers.push(tx);
        }
        ShardSender {
            producers,
            scratch: vec![Vec::new(); self.shards()],
        }
    }

    /// Signal workers to finish what is queued and exit.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Spawn the shard workers over `backend`; with `persist` set, every
    /// drained group is written to the WAL before it is applied.
    pub fn spawn_workers(
        self: &Arc<Self>,
        backend: &Backend,
        persist: Option<Arc<Persistence>>,
    ) -> Vec<JoinHandle<()>> {
        (0..self.shards())
            .map(|shard| {
                let pool = self.clone();
                let backend = backend.clone();
                let persist = persist.clone();
                std::thread::Builder::new()
                    .name(format!("cots-shard-{shard}"))
                    .spawn(move || pool.worker(shard, backend, persist))
                    .expect("spawn shard worker")
            })
            .collect()
    }

    /// The worker loop for one shard: drain up to [`DRAIN_BURST`] batches
    /// across this shard's rings, then log-and-apply them as one group.
    fn worker(&self, shard: usize, backend: Backend, persist: Option<Arc<Persistence>>) {
        let tally = &self.tallies[shard];
        let mut rings: Vec<Consumer<Batch>> = Vec::new();
        let mut burst: Vec<Batch> = Vec::with_capacity(DRAIN_BURST);
        loop {
            // Adopt rings registered since the last pass.
            {
                let mut inbox = self.registries[shard].lock();
                rings.append(&mut inbox);
            }
            rings.retain_mut(|rx| {
                tally.observe_depth(rx.len() as u64);
                loop {
                    if burst.len() >= DRAIN_BURST {
                        return true; // leftovers wait for the next pass
                    }
                    match rx.pop() {
                        Pop::Item(batch) => burst.push(batch),
                        Pop::Empty => return true,
                        Pop::Closed => return false,
                    }
                }
            });
            if !burst.is_empty() {
                match &persist {
                    // `None`: workers allocate the next sequences, which
                    // cannot be refused.
                    Some(p) => {
                        p.log_and_apply(None, &burst, &backend);
                    }
                    None => burst.iter().for_each(|batch| backend.apply(batch)),
                }
                for batch in burst.drain(..) {
                    tally.batch(batch.len() as u64);
                }
                continue;
            }
            if self.is_shutting_down() && rings.is_empty() && self.registries[shard].lock().is_empty()
            {
                return; // drained: every connection closed and applied
            }
            tally.idle_park();
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// A connection's handle for feeding the shard queues.
pub struct ShardSender {
    producers: Vec<Producer<Batch>>,
    /// Reused per-shard partition buffers.
    scratch: Vec<Vec<u64>>,
}

/// Outcome of a [`ShardSender::send`].
#[derive(Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Every shard accepted its partition.
    Enqueued,
    /// At least one shard ring was full; nothing was enqueued.
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
    /// rejected so the client can back off and resend without splitting
    /// or reordering. Sound under concurrency because this connection is
    /// the only producer on its rings: observed free space only grows.
    pub fn send(&mut self, keys: &[u64]) -> SendOutcome {
        let shards = self.producers.len();
        for bucket in &mut self.scratch {
            bucket.clear();
        }
        for &key in keys {
            self.scratch[Self::shard_of(key, shards)].push(key);
        }
        for (shard, bucket) in self.scratch.iter().enumerate() {
            if !bucket.is_empty() && self.producers[shard].free() < 1 {
                return SendOutcome::Overloaded;
            }
        }
        for (shard, bucket) in self.scratch.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let batch = std::mem::take(bucket);
            self.producers[shard]
                .try_push(batch)
                .expect("free space checked and only we produce");
        }
        SendOutcome::Enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cots_core::CotsConfig;

    fn engine_backend(capacity: usize) -> Backend {
        Backend::Engine(Arc::new(
            CotsEngine::new(CotsConfig::for_capacity(capacity).unwrap()).unwrap(),
        ))
    }

    #[test]
    fn pipeline_applies_all_keys() {
        let backend = engine_backend(64);
        let pool = ShardPool::new(4, 16);
        let workers = pool.spawn_workers(&backend, None);
        let mut sender = pool.connect();
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
        backend.finalize();
        assert_eq!(pool.applied(), 10_000);
        assert_eq!(backend.processed(), 10_000);
        let (snap, total, rotations) = backend.capture();
        assert_eq!(total, 10_000);
        assert_eq!(rotations, None);
        let sum: u64 = snap.entries().iter().map(|e| e.count).sum();
        assert_eq!(sum, 10_000, "no key lost in the pipeline");
    }

    #[test]
    fn overload_rejects_all_or_nothing() {
        let pool = ShardPool::new(1, 2);
        // No workers: the single ring (capacity 2) fills and stays full.
        let mut sender = pool.connect();
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

    #[test]
    fn window_backend_rotates_and_reports() {
        let w = JumpingWindow::new(CotsConfig::for_capacity(32).unwrap(), 1_000).unwrap();
        let backend = Backend::Window(Arc::new(w));
        let keys: Vec<u64> = (0..2_500u64).map(|i| i % 10).collect();
        backend.apply(&keys);
        let (snap, total, rotations) = backend.capture();
        assert_eq!(total, 2_500);
        assert!(rotations.unwrap() >= 4);
        let sum: u64 = snap.entries().iter().map(|e| e.count).sum();
        assert!(sum <= 1_000, "window bounds the reported mass");
    }
}
