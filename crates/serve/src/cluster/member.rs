//! Per-member connection state: health, backoff, and the last good
//! snapshot.
//!
//! One [`MemberTracker`] exists per topology slot and is shared by the
//! puller thread (which feeds it snapshots and failures), every ingest
//! router (which consults health for spillover and records forwarded
//! keys), and the stats path. The inner mutex guards only plain data —
//! all sockets live with the threads that use them, so no I/O ever
//! happens under the lock and the critical sections are a handful of
//! field writes.
//!
//! Failure handling is the whole point: a failed pull or forward marks
//! the member unhealthy and schedules the next attempt on an
//! exponential backoff (100 ms doubling to a 5 s cap). While unhealthy,
//! the member's *last good snapshot* keeps contributing to federated
//! answers — the coordinator degrades by widening the reported
//! staleness bound, never by dropping the member's mass. A successful
//! pull (e.g. after the member restarts and recovers its WAL) clears
//! the backoff and rejoins it to the merge at full fidelity.
//!
//! AUDIT: locks — enforced by `cargo xtask audit` (lint-locks).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use cots_core::MemberReport;

use super::fetch::FetchedSnapshot;

/// First retry delay after a failure.
const BACKOFF_BASE: Duration = Duration::from_millis(100);
/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Mutable member state (mutex-guarded; plain data only).
struct Inner {
    /// Where this slot's *current primary* listens. Promotion swaps the
    /// standby address in here — that single write is the atomic
    /// routing flip every router and puller observes.
    addr: String,
    /// Standby address, when this slot is a replica pair. Consumed by
    /// promotion (a promoted slot has no standby until an ex-primary
    /// rejoins out of band).
    standby: Option<String>,
    /// Last contact attempt succeeded.
    healthy: bool,
    /// Consecutive failures, for backoff sizing.
    failures: u32,
    /// Earliest next contact attempt; `None` = ready now.
    retry_at: Option<Instant>,
    /// Last successfully pulled snapshot (survives the member dying).
    last: Option<Arc<FetchedSnapshot>>,
}

/// Shared tracking for one cluster member.
pub struct MemberTracker {
    index: usize,
    inner: Mutex<Inner>,
    forwarded: AtomicU64,
    spilled: AtomicU64,
    pulls: AtomicU64,
    pull_failures: AtomicU64,
    /// Times this slot's standby was promoted to primary.
    promotions: AtomicU64,
    /// Un-acked replication tail last reported by the slot's primary
    /// (`STATS` → `repl.unacked_keys`). On promotion this freezes into
    /// the loss attribution: keys the old primary acknowledged but the
    /// promoted standby never received. Informational — the keys are
    /// already inside the coordinator's forwarded-vs-captured staleness
    /// bound, never added on top of it.
    repl_unacked: AtomicU64,
    /// Frozen-at-promotion loss attribution (see `repl_unacked`).
    lost_unacked: AtomicU64,
}

impl MemberTracker {
    /// A fresh tracker: healthy, ready, nothing pulled yet.
    pub fn new(index: usize, addr: String, standby: Option<String>) -> Self {
        Self {
            index,
            inner: Mutex::new(Inner {
                addr,
                standby,
                healthy: true,
                failures: 0,
                retry_at: None,
                last: None,
            }),
            forwarded: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            pulls: AtomicU64::new(0),
            pull_failures: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            repl_unacked: AtomicU64::new(0),
            lost_unacked: AtomicU64::new(0),
        }
    }

    /// The slot's current primary address.
    pub fn addr(&self) -> String {
        self.inner.lock().addr.clone()
    }

    /// The slot's standby address, if it still has one.
    pub fn standby(&self) -> Option<String> {
        self.inner.lock().standby.clone()
    }

    /// Consecutive failed contact attempts (0 after any success).
    pub fn consecutive_failures(&self) -> u32 {
        self.inner.lock().failures
    }

    /// Times this slot's standby was promoted.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Record the un-acked replication tail the primary reported in its
    /// last `STATS` pull.
    pub fn record_repl_unacked(&self, keys: u64) {
        self.repl_unacked.store(keys, Ordering::Relaxed);
    }

    /// Flip routing to the standby after it acknowledged `REPL_PROMOTE`:
    /// the standby address becomes the slot's primary address, the slot
    /// loses its standby, health resets so pullers reconnect
    /// immediately, and the last reported un-acked tail freezes as this
    /// slot's loss attribution. Returns `false` (and changes nothing)
    /// when the slot has no standby — a lost promotion race.
    pub fn complete_promotion(&self) -> bool {
        let mut inner = self.inner.lock();
        let Some(standby) = inner.standby.take() else {
            return false;
        };
        inner.addr = standby;
        inner.healthy = true;
        inner.failures = 0;
        inner.retry_at = None;
        drop(inner);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        let lost = self.repl_unacked.swap(0, Ordering::Relaxed);
        self.lost_unacked.fetch_add(lost, Ordering::Relaxed);
        true
    }

    /// Record `keys` acknowledged by this member; `spilled` marks keys
    /// absorbed on behalf of an unreachable primary.
    pub fn record_forward(&self, keys: u64, spilled: bool) {
        self.forwarded.fetch_add(keys, Ordering::Relaxed);
        if spilled {
            self.spilled.fetch_add(keys, Ordering::Relaxed);
        }
    }

    /// Keys this member has acknowledged so far.
    pub fn forwarded_keys(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// A pull succeeded with fresh data: store it, clear the backoff.
    pub fn record_pull(&self, fetched: FetchedSnapshot) {
        self.pulls.fetch_add(1, Ordering::Relaxed);
        let snapshot = Arc::new(fetched);
        let mut inner = self.inner.lock();
        inner.healthy = true;
        inner.failures = 0;
        inner.retry_at = None;
        inner.last = Some(snapshot);
    }

    /// A pull succeeded but the member was unchanged: still proof of
    /// life, so clear the backoff.
    pub fn record_unchanged(&self) {
        self.pulls.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.healthy = true;
        inner.failures = 0;
        inner.retry_at = None;
    }

    /// A pull or forward attempt failed: mark degraded and push the
    /// next attempt out exponentially.
    pub fn record_failure(&self, now: Instant) {
        self.pull_failures.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.healthy = false;
        inner.failures = inner.failures.saturating_add(1);
        let exp = inner.failures.saturating_sub(1).min(6);
        let delay = BACKOFF_BASE.saturating_mul(1u32 << exp).min(BACKOFF_CAP);
        inner.retry_at = Some(now + delay);
    }

    /// Is a contact attempt due?
    pub fn ready(&self, now: Instant) -> bool {
        let inner = self.inner.lock();
        inner.retry_at.is_none_or(|t| now >= t)
    }

    /// Did the last contact attempt succeed?
    pub fn healthy(&self) -> bool {
        self.inner.lock().healthy
    }

    /// The last good snapshot, if any pull ever succeeded.
    pub fn last(&self) -> Option<Arc<FetchedSnapshot>> {
        self.inner.lock().last.clone()
    }

    /// Epoch of the last good snapshot (0 = never pulled), for
    /// `since_epoch` delta pulls.
    pub fn last_epoch(&self) -> u64 {
        self.inner.lock().last.as_ref().map_or(0, |f| f.epoch)
    }

    /// Point-in-time report for `STATS` / `CLUSTER_STATS`.
    pub fn report(&self) -> MemberReport {
        let forwarded = self.forwarded.load(Ordering::Relaxed);
        let inner = self.inner.lock();
        let (epoch, captured_total) = inner
            .last
            .as_ref()
            .map_or((0, 0), |f| (f.epoch, f.captured_total));
        MemberReport {
            member: self.index,
            addr: inner.addr.clone(),
            standby: inner.standby.clone(),
            healthy: inner.healthy,
            epoch,
            captured_total,
            forwarded_keys: forwarded,
            spilled_keys: self.spilled.load(Ordering::Relaxed),
            pulls: self.pulls.load(Ordering::Relaxed),
            pull_failures: self.pull_failures.load(Ordering::Relaxed),
            staleness: forwarded.saturating_sub(captured_total),
            promotions: self.promotions.load(Ordering::Relaxed),
            repl_unacked_keys: self
                .lost_unacked
                .load(Ordering::Relaxed)
                .saturating_add(self.repl_unacked.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cots_core::Snapshot;

    fn fetched(epoch: u64, captured: u64) -> FetchedSnapshot {
        FetchedSnapshot {
            snapshot: Snapshot::new(Vec::new(), captured),
            epoch,
            captured_total: captured,
        }
    }

    #[test]
    fn failures_back_off_exponentially_and_success_clears() {
        let t = MemberTracker::new(0, "127.0.0.1:1".into(), None);
        let now = Instant::now();
        assert!(t.ready(now) && t.healthy());

        t.record_failure(now);
        assert!(!t.healthy());
        assert!(!t.ready(now));
        assert!(t.ready(now + Duration::from_millis(150)));

        t.record_failure(now);
        assert!(!t.ready(now + Duration::from_millis(150)));
        assert!(t.ready(now + Duration::from_millis(250)));

        // Repeated failures cap at 5 s.
        for _ in 0..20 {
            t.record_failure(now);
        }
        assert!(t.ready(now + Duration::from_secs(5)));

        t.record_pull(fetched(3, 10));
        assert!(t.healthy() && t.ready(now));
        assert_eq!(t.last_epoch(), 3);
    }

    #[test]
    fn degraded_member_keeps_its_last_snapshot() {
        let t = MemberTracker::new(1, "127.0.0.1:2".into(), None);
        t.record_forward(25, false);
        t.record_forward(5, true);
        t.record_pull(fetched(7, 20));
        t.record_failure(Instant::now());

        let r = t.report();
        assert!(!r.healthy);
        assert_eq!(r.epoch, 7);
        assert_eq!(r.captured_total, 20);
        assert_eq!(r.forwarded_keys, 30);
        assert_eq!(r.spilled_keys, 5);
        assert_eq!(r.staleness, 10);
        assert!(t.last().is_some(), "last good snapshot survives failure");
    }

    #[test]
    fn unchanged_pull_is_proof_of_life() {
        let t = MemberTracker::new(0, "m".into(), None);
        t.record_failure(Instant::now());
        assert!(!t.healthy());
        t.record_unchanged();
        assert!(t.healthy());
        assert_eq!(t.report().pulls, 1);
    }

    #[test]
    fn promotion_flips_routing_and_freezes_the_unacked_tail() {
        let t = MemberTracker::new(0, "primary:1".into(), Some("standby:2".into()));
        t.record_repl_unacked(40);
        t.record_failure(Instant::now());
        assert!(!t.healthy());

        assert!(t.complete_promotion());
        assert_eq!(t.addr(), "standby:2", "routing flipped to the standby");
        assert_eq!(t.standby(), None, "promoted slot has no standby left");
        assert!(t.healthy() && t.consecutive_failures() == 0);

        let r = t.report();
        assert_eq!(r.promotions, 1);
        assert_eq!(r.repl_unacked_keys, 40, "lost tail stays attributed");

        // Fresh repl reports from the new primary add on top of the
        // frozen loss, but a second promotion without a standby is a
        // no-op.
        t.record_repl_unacked(3);
        assert_eq!(t.report().repl_unacked_keys, 43);
        assert!(!t.complete_promotion(), "no standby left to promote");
        assert_eq!(t.report().promotions, 1);
    }
}
