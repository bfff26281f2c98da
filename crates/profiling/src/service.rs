//! Lock-free counters for the `cots-serve` ingest/query pipeline.
//!
//! Each shard worker owns one [`ShardTally`]; the acceptor/query threads
//! share one [`IngestTally`]. All counters are relaxed atomics — they are
//! statistics, not synchronization — and freeze into the serializable
//! [`ShardReport`]/[`ServiceReport`] types from `cots_core` on demand.

use std::sync::atomic::{AtomicU64, Ordering};

use cots_core::{PersistReport, RecoveryReport, ServiceReport, ShardReport};

/// Per-shard worker counters.
#[derive(Debug, Default)]
pub struct ShardTally {
    batches: AtomicU64,
    keys: AtomicU64,
    max_queue_depth: AtomicU64,
    idle_parks: AtomicU64,
}

impl ShardTally {
    /// Fresh tally with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one drained batch of `keys` keys.
    #[inline]
    pub fn batch(&self, keys: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.keys.fetch_add(keys, Ordering::Relaxed);
    }

    /// Record an observed queue depth; keeps the high-water mark.
    #[inline]
    pub fn observe_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one park on empty queues.
    #[inline]
    pub fn idle_park(&self) {
        self.idle_parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Keys applied so far.
    pub fn keys_applied(&self) -> u64 {
        self.keys.load(Ordering::Relaxed)
    }

    /// Freeze into the wire report for shard `shard`.
    pub fn report(&self, shard: usize) -> ShardReport {
        ShardReport {
            shard,
            batches: self.batches.load(Ordering::Relaxed),
            keys: self.keys.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            idle_parks: self.idle_parks.load(Ordering::Relaxed),
        }
    }
}

/// Service-level ingest/query counters shared by connection threads.
#[derive(Debug, Default)]
pub struct IngestTally {
    ingested_keys: AtomicU64,
    ingest_frames: AtomicU64,
    rejected_frames: AtomicU64,
    queries: AtomicU64,
}

impl IngestTally {
    /// Fresh tally with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an accepted INGEST frame carrying `keys` keys.
    #[inline]
    pub fn ingest(&self, keys: u64) {
        self.ingest_frames.fetch_add(1, Ordering::Relaxed);
        self.ingested_keys.fetch_add(keys, Ordering::Relaxed);
    }

    /// Record an INGEST frame rejected with OVERLOADED.
    #[inline]
    pub fn reject(&self) {
        self.rejected_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one answered QUERY frame.
    #[inline]
    pub fn query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Keys accepted into shard queues so far.
    pub fn keys_ingested(&self) -> u64 {
        self.ingested_keys.load(Ordering::Relaxed)
    }

    /// Freeze into a [`ServiceReport`], combining the per-shard tallies
    /// and the publisher/backend/persistence state supplied by the caller.
    pub fn report(
        &self,
        shards: &[ShardTally],
        snapshot_epoch: u64,
        staleness: u64,
        monitored: usize,
        recovery: Option<RecoveryReport>,
        persist: Option<PersistReport>,
    ) -> ServiceReport {
        ServiceReport {
            ingested_keys: self.ingested_keys.load(Ordering::Relaxed),
            ingest_frames: self.ingest_frames.load(Ordering::Relaxed),
            rejected_frames: self.rejected_frames.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            snapshot_epoch,
            staleness,
            monitored,
            shards: shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.report(i))
                .collect(),
            recovery,
            persist,
            repl: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_tally_accumulates() {
        let t = ShardTally::new();
        t.batch(100);
        t.batch(50);
        t.observe_depth(3);
        t.observe_depth(1);
        t.idle_park();
        let r = t.report(2);
        assert_eq!(r.shard, 2);
        assert_eq!(r.batches, 2);
        assert_eq!(r.keys, 150);
        assert_eq!(r.max_queue_depth, 3, "keeps the high-water mark");
        assert_eq!(r.idle_parks, 1);
        assert_eq!(t.keys_applied(), 150);
    }

    #[test]
    fn ingest_tally_builds_service_report() {
        let shards = vec![ShardTally::new(), ShardTally::new()];
        shards[0].batch(60);
        shards[1].batch(40);
        let t = IngestTally::new();
        t.ingest(100);
        t.reject();
        t.query();
        t.query();
        let r = t.report(&shards, 7, 12, 99, None, None);
        assert_eq!(r.ingested_keys, 100);
        assert_eq!(r.ingest_frames, 1);
        assert_eq!(r.rejected_frames, 1);
        assert_eq!(r.queries, 2);
        assert_eq!(r.snapshot_epoch, 7);
        assert_eq!(r.staleness, 12);
        assert_eq!(r.monitored, 99);
        assert_eq!(r.applied_keys(), 100);
        assert_eq!(r.shards[1].shard, 1);
        assert!(r.recovery.is_none() && r.persist.is_none());
    }

    #[test]
    fn tallies_are_thread_safe() {
        let t = std::sync::Arc::new(IngestTally::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        t.ingest(2);
                    }
                });
            }
        });
        assert_eq!(t.keys_ingested(), 8_000);
    }
}
