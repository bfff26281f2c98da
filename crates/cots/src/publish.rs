//! Epoch-stamped snapshot publishing for live query serving.
//!
//! A server answering frequency queries cannot afford to materialize a
//! fresh [`Snapshot`] per request — capture walks the whole summary (in
//! `cots-serve`, merging one summary per shard worker). It instead runs a
//! *publisher*: a single refresher captures snapshots at its own cadence
//! and swaps them behind an [`Arc`]; query threads clone the current
//! `Arc` wait-free (a `parking_lot` read lock held for one pointer
//! clone) and answer from it. Every published snapshot is stamped with a
//! monotone epoch and the backend's processed count at capture time, so
//! each response can report exactly how stale it is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use cots_core::{Element, Snapshot};

/// A published snapshot with its provenance stamp.
#[derive(Debug, Clone)]
pub struct StampedSnapshot<K: Element> {
    /// Publisher epoch: increments by one per publish, starting at 0 for
    /// the empty pre-ingest snapshot.
    pub epoch: u64,
    /// The summary view.
    pub snapshot: Snapshot<K>,
    /// Backend `processed()` at capture time. Staleness of a query answer
    /// is the backend's current processed count minus this.
    pub captured_total: u64,
    /// Window rotation count at capture, when the backend is a
    /// [`JumpingWindow`](crate::JumpingWindow); `None` for the plain
    /// engine.
    pub rotations: Option<u64>,
}

impl<K: Element> std::ops::Deref for StampedSnapshot<K> {
    type Target = Snapshot<K>;

    fn deref(&self) -> &Snapshot<K> {
        &self.snapshot
    }
}

/// Single-writer, many-reader snapshot slot.
///
/// The refresher thread calls [`publish`](Self::publish); any number of
/// query threads call [`current`](Self::current). Readers never block the
/// writer for longer than an `Arc` clone.
pub struct SnapshotPublisher<K: Element> {
    slot: RwLock<Arc<StampedSnapshot<K>>>,
    epoch: AtomicU64,
}

impl<K: Element> SnapshotPublisher<K> {
    /// Start with an empty snapshot at epoch 0.
    pub fn new() -> Self {
        Self {
            slot: RwLock::new(Arc::new(StampedSnapshot {
                epoch: 0,
                snapshot: Snapshot::new(Vec::new(), 0),
                captured_total: 0,
                rotations: None,
            })),
            epoch: AtomicU64::new(0),
        }
    }

    /// Publish a freshly captured snapshot; returns the epoch it was
    /// stamped with.
    pub fn publish(
        &self,
        snapshot: Snapshot<K>,
        captured_total: u64,
        rotations: Option<u64>,
    ) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let stamped = Arc::new(StampedSnapshot {
            epoch,
            snapshot,
            captured_total,
            rotations,
        });
        *self.slot.write() = stamped;
        epoch
    }

    /// The most recently published snapshot (wait-free for readers:
    /// one `Arc` clone under a read lock).
    pub fn current(&self) -> Arc<StampedSnapshot<K>> {
        self.slot.read().clone()
    }

    /// Epoch of the most recent publish.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Fast-forward the epoch counter to at least `epoch`.
    ///
    /// Used after crash recovery: the restarted publisher resumes from
    /// the checkpointed epoch, so client-visible epochs stay monotone
    /// across the restart instead of restarting from zero. Call before
    /// the first post-recovery [`publish`](Self::publish); the next
    /// publish is stamped `epoch + 1`.
    pub fn resume_from(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }
}

impl<K: Element> Default for SnapshotPublisher<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_at_epoch_zero() {
        let p = SnapshotPublisher::<u64>::new();
        let s = p.current();
        assert_eq!(s.epoch, 0);
        assert_eq!(s.captured_total, 0);
        assert_eq!(s.entries().len(), 0);
        assert_eq!(p.epoch(), 0);
    }

    #[test]
    fn publish_advances_epoch_and_swaps() {
        let p = SnapshotPublisher::<u64>::new();
        let snap = Snapshot::new(vec![cots_core::CounterEntry::new(7u64, 3, 0)], 3);
        let e1 = p.publish(snap.clone(), 3, None);
        assert_eq!(e1, 1);
        let cur = p.current();
        assert_eq!(cur.epoch, 1);
        assert_eq!(cur.captured_total, 3);
        assert!(cur.get(&7).is_some());
        let e2 = p.publish(snap, 6, Some(2));
        assert_eq!(e2, 2);
        assert_eq!(p.current().rotations, Some(2));
    }

    #[test]
    fn resume_from_keeps_epochs_monotone_across_restart() {
        let p = SnapshotPublisher::<u64>::new();
        p.resume_from(41);
        assert_eq!(p.epoch(), 41);
        let e = p.publish(Snapshot::new(Vec::new(), 0), 0, None);
        assert_eq!(e, 42, "first post-recovery publish continues the sequence");
        // Resuming backwards never regresses.
        p.resume_from(10);
        assert_eq!(p.epoch(), 42);
    }

    #[test]
    fn readers_see_a_consistent_arc_under_concurrency() {
        let p = Arc::new(SnapshotPublisher::<u64>::new());
        let writer = {
            let p = p.clone();
            std::thread::spawn(move || {
                for i in 1..=500u64 {
                    let snap = Snapshot::new(vec![cots_core::CounterEntry::new(1u64, i, 0)], i);
                    p.publish(snap, i, None);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..2_000 {
                        let s = p.current();
                        // Epochs are monotone from any single reader's view,
                        // and each snapshot matches its stamp.
                        assert!(s.epoch >= last);
                        last = s.epoch;
                        if s.epoch > 0 {
                            assert_eq!(s.get(&1).unwrap().count, s.captured_total);
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(p.epoch(), 500);
    }
}
