//! Jumping-window frequency counting on top of the CoTS engine.
//!
//! The paper's motivating applications (click accounting, fraud and
//! network monitoring, §1) usually ask about *recent* traffic — "the top-25
//! most clicked ads today", "sources exceeding 1% of the last million
//! packets" — rather than all history. The standard bounded-memory answer
//! is a **jumping window**: the stream is cut into sub-windows of `W/2`
//! elements, counted by two engines in a rotation; queries merge the
//! active pair, covering between `W/2` and `W` of the most recent elements
//! at all times.
//!
//! The rotation is coordinated with an atomic element budget, so any
//! number of threads can feed the window concurrently; rotation swaps in a
//! pre-built spare engine and retires the oldest one out of band.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use cots_core::merge::merge_snapshots;
use cots_core::{CotsConfig, CotsError, Element, Result, Snapshot};

use crate::engine::CotsEngine;

/// A window snapshot stamped with the rotation count it was taken at, so
/// clients polling the window can detect turnover between two reads.
///
/// Derefs to the underlying [`Snapshot`], so all query helpers
/// (`get`, `entries`, `frequent`, `top_k`, …) work directly on it.
#[derive(Debug, Clone)]
pub struct WindowSnapshot<K: Element> {
    /// The merged previous+current sub-window summary.
    pub snapshot: Snapshot<K>,
    /// Rotations completed when this snapshot was captured.
    pub rotations: u64,
    /// Whether the rotation count was unchanged across the capture — a
    /// `stable` snapshot is guaranteed to merge one consistent engine pair;
    /// an unstable one may straddle a rotation (still a valid summary of
    /// recent traffic, just with a fuzzier cut).
    pub stable: bool,
}

impl<K: Element> std::ops::Deref for WindowSnapshot<K> {
    type Target = Snapshot<K>;

    fn deref(&self) -> &Snapshot<K> {
        &self.snapshot
    }
}

/// A jumping window of (at most) `window` elements over a CoTS engine pair.
///
/// # Example
///
/// ```
/// use cots::JumpingWindow;
/// use cots_core::CotsConfig;
///
/// let w = JumpingWindow::<u64>::new(CotsConfig::for_capacity(16)?, 100)?;
/// for _ in 0..40 { w.process(7); }   // old traffic
/// for _ in 0..110 { w.process(9); }  // two rotations later...
/// let snap = w.snapshot();
/// assert!(snap.get(&7).is_none(), "old element aged out");
/// assert!(snap.get(&9).is_some());
/// # Ok::<(), cots_core::CotsError>(())
/// ```
pub struct JumpingWindow<K: Element> {
    config: CotsConfig,
    /// Elements per sub-window (`window / 2`).
    sub: u64,
    /// The engine pair: `[previous, current]`.
    engines: RwLock<[Arc<CotsEngine<K>>; 2]>,
    /// Elements admitted into the current sub-window.
    fill: AtomicU64,
    /// Total processed over the window's lifetime.
    total: AtomicU64,
    /// Elements whose `process` call has returned (trails `total`, which
    /// counts up front). See [`JumpingWindow::applied`].
    applied: AtomicU64,
    /// Rotations performed.
    rotations: AtomicU64,
}

impl<K: Element> JumpingWindow<K> {
    /// Build a window of `window` elements (two sub-windows of half that),
    /// each sub-window counted by an engine with `config`.
    pub fn new(config: CotsConfig, window: u64) -> Result<Self> {
        if window < 2 {
            return Err(CotsError::InvalidConfig("window must be at least 2".into()));
        }
        config.validate()?;
        Ok(Self {
            config,
            sub: window / 2,
            engines: RwLock::new([
                Arc::new(CotsEngine::new(config)?),
                Arc::new(CotsEngine::new(config)?),
            ]),
            fill: AtomicU64::new(0),
            total: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
        })
    }

    /// Process one element into the current sub-window, rotating when it
    /// fills.
    pub fn process(&self, item: K) {
        self.total.fetch_add(1, Ordering::AcqRel);
        loop {
            // Draw the ticket and pick the engine under one read lock: a
            // rotation takes the write lock, so it cannot slip in between
            // and send this element to the next sub-window on top of that
            // sub-window's own `sub` tickets.
            let engines = self.engines.read();
            let ticket = self.fill.fetch_add(1, Ordering::AcqRel);
            let current = (ticket < self.sub).then(|| engines[1].clone());
            drop(engines);
            if let Some(current) = current {
                current.delegate(item);
                self.applied.fetch_add(1, Ordering::AcqRel);
                return;
            }
            if ticket == self.sub {
                // We drew the rotation ticket: swap in a fresh engine.
                self.rotate();
                // Fall through and retry (fill was reset by rotate).
                continue;
            }
            // Rotation in progress on another thread; help by spinning
            // briefly — rotation is O(1) (an engine swap).
            std::hint::spin_loop();
            if self.fill.load(Ordering::Acquire) > self.sub {
                std::thread::yield_now();
            }
        }
    }

    /// Force a rotation (end the current sub-window early). Also used
    /// internally when the sub-window fills. Concurrent rotations are
    /// permitted (each retires one more sub-window early); elements
    /// delegated while a rotation is in flight land in whichever
    /// sub-window their engine handle belongs to — the window covers
    /// between `W/2` and `W` recent elements by construction, so this only
    /// shifts where inside that range the cut falls.
    pub fn rotate(&self) {
        let fresh = Arc::new(CotsEngine::new(self.config).expect("validated config"));
        {
            let mut engines = self.engines.write();
            engines[0] = engines[1].clone(); // current becomes previous
            engines[1] = fresh; // old previous is dropped
        }
        self.rotations.fetch_add(1, Ordering::AcqRel);
        self.fill.store(0, Ordering::Release);
    }

    /// Process a slice of elements into the window (rotating as sub-windows
    /// fill). Convenience wrapper over [`process`](Self::process) for batch
    /// ingest.
    pub fn process_slice(&self, items: &[K]) {
        for item in items {
            self.process(*item);
        }
    }

    /// Snapshot covering the window: the merge of the previous and current
    /// sub-windows (between `W/2` and `W` most-recent elements), stamped
    /// with the rotation count so clients can detect window turnover.
    ///
    /// Like every query in the suite this is best-effort while producers
    /// are running and exact at quiescence (after all `process` calls have
    /// returned). The capture retries once if a rotation lands mid-merge;
    /// if rotations are arriving faster than the merge completes it gives
    /// up and marks the result `stable: false`.
    pub fn snapshot(&self) -> WindowSnapshot<K> {
        for _ in 0..2 {
            let before = self.rotations.load(Ordering::Acquire);
            let snapshot = self.capture();
            let after = self.rotations.load(Ordering::Acquire);
            if before == after {
                return WindowSnapshot {
                    snapshot,
                    rotations: after,
                    stable: true,
                };
            }
        }
        let rotations = self.rotations.load(Ordering::Acquire);
        WindowSnapshot {
            snapshot: self.capture(),
            rotations,
            stable: false,
        }
    }

    /// Merge the active engine pair into one summary.
    fn capture(&self) -> Snapshot<K> {
        let engines = self.engines.read();
        let (prev, cur) = (engines[0].clone(), engines[1].clone());
        drop(engines);
        // Apply any logged-but-unapplied requests so quiescent snapshots
        // are exact. `drain_pending` is safe (and cheap) concurrently with
        // producers; it simply drains whatever is queued at this moment.
        prev.drain_pending();
        cur.drain_pending();
        let snaps = [
            cots_core::QueryableSummary::snapshot(&*prev),
            cots_core::QueryableSummary::snapshot(&*cur),
        ];
        merge_snapshots(&snaps, self.config.summary.capacity)
    }

    /// Elements processed over the window's lifetime.
    pub fn processed(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }

    /// Elements whose `process` call has returned — each is flushed into
    /// its sub-window engine, so a snapshot taken *after* reading this
    /// covers at least this much lifetime mass. `processed() − applied()`
    /// bounds the in-flight mass a concurrent snapshot may be missing.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Completed rotations.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Acquire)
    }

    /// Upper bound on the number of elements the snapshot covers.
    pub fn window(&self) -> u64 {
        self.sub * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(capacity: usize, w: u64) -> JumpingWindow<u64> {
        JumpingWindow::new(CotsConfig::for_capacity(capacity).unwrap(), w).unwrap()
    }

    #[test]
    fn rejects_degenerate_windows() {
        assert!(JumpingWindow::<u64>::new(CotsConfig::for_capacity(8).unwrap(), 1).is_err());
    }

    #[test]
    fn forgets_old_traffic() {
        let w = window(64, 1_000);
        // Phase 1: element 1 dominates.
        for _ in 0..600 {
            w.process(1);
        }
        // Phase 2: element 2 dominates; phase 1 traffic ages out after two
        // sub-windows.
        for _ in 0..1_100 {
            w.process(2);
        }
        let snap = w.snapshot();
        let c1 = snap.get(&1).map(|e| e.count).unwrap_or(0);
        let c2 = snap.get(&2).map(|e| e.count).unwrap_or(0);
        assert!(c2 > c1 * 3, "recent element must dominate: c1={c1} c2={c2}");
        assert!(w.rotations() >= 2);
        // The window never reports more than W elements' worth of mass.
        let sum: u64 = snap.entries().iter().map(|e| e.count).sum();
        assert!(sum <= w.window());
    }

    #[test]
    fn explicit_rotation() {
        let w = window(16, 100);
        for i in 0..30u64 {
            w.process(i % 3);
        }
        w.rotate();
        w.rotate();
        // After two forced rotations everything has aged out.
        assert_eq!(w.snapshot().entries().len(), 0);
        assert_eq!(w.processed(), 30);
    }

    #[test]
    fn snapshot_carries_rotation_stamp() {
        let w = window(16, 100);
        let s0 = w.snapshot();
        assert_eq!(s0.rotations, 0);
        assert!(s0.stable);
        w.process_slice(&[1u64; 120]);
        let s1 = w.snapshot();
        assert!(s1.rotations >= 2, "120 items over W=100 must rotate twice");
        assert!(s1.stable, "no producers running: capture must be stable");
        // A client comparing stamps detects the turnover.
        assert_ne!(s0.rotations, s1.rotations);
        // Deref gives full Snapshot access.
        assert!(s1.get(&1).is_some());
        assert_eq!(s1.rotations, w.rotations());
    }

    #[test]
    fn concurrent_feeding_conserves_window_mass() {
        let w = Arc::new(window(128, 10_000));
        let threads = 4;
        let per = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = w.clone();
                s.spawn(move || {
                    for i in 0..per {
                        w.process((t as u64 + i) % 64);
                    }
                });
            }
        });
        assert_eq!(w.processed(), threads as u64 * per);
        let snap = w.snapshot();
        let sum: u64 = snap.entries().iter().map(|e| e.count).sum();
        // The active pair holds between W/2 and W elements (modulo the
        // rotation in flight at the end).
        assert!(sum <= w.window(), "sum {sum} beyond window {}", w.window());
        assert!(sum > 0);
        assert!(w.rotations() >= 10);
    }
}
