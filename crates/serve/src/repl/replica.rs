//! The replication role of one instance: standby or primary, the
//! lineage of its data, and what it tells `STATS` about either side of
//! a WAL-shipping pair.
//!
//! Everything that decides *whether* a primary may stream to, or catch
//! up, this node lives in [`Replica::admit`]; the service only carries
//! out what was admitted (log the run, install the snapshot).
//!
//! AUDIT: locks — the shipper's report slot is read on the `STATS` path
//! and must never be held across I/O; enforced by `cargo xtask audit`
//! (lint-locks).

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use cots_core::ReplReport;

/// What a primary asks of a standby when it opens the stream.
#[derive(Debug, Clone, Copy)]
pub enum Offer {
    /// `REPL_SUBSCRIBE`: stream WAL batches; the primary's own log ends
    /// just below `primary_next`.
    Stream {
        /// The primary's next WAL sequence.
        primary_next: u64,
    },
    /// `REPL_SNAPSHOT`: install a summary cut at `watermark` in place of
    /// the WAL prefix below it.
    Snapshot {
        /// WAL sequence the snapshot accounts for (exclusive).
        watermark: u64,
    },
}

/// An offer [`Replica::admit`] did not refuse.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Go ahead; call [`Replica::established`] once it is carried out.
    Proceed,
    /// The log already covers the offered snapshot: ack, install nothing.
    Duplicate,
}

/// Role, lineage and replication counters of a running service.
pub struct Replica {
    /// `true` while this instance is a standby.
    standby: AtomicBool,
    /// Times this instance was promoted from standby to primary.
    promotions: AtomicU64,
    /// Promotion generation of this node's data: loaded from the
    /// `repl-lineage` file at startup, bumped durably on every promotion,
    /// and carried on every REPL wire op so a divergent pair refuses to
    /// stream instead of silently acking.
    lineage: AtomicU64,
    streamed_batches: AtomicU64,
    streamed_keys: AtomicU64,
    duplicates: AtomicU64,
    snapshots: AtomicU64,
    /// Set when an offer is refused because histories diverged (an
    /// operator must resync the standby from a fresh data directory);
    /// cleared when a stream establishes cleanly or on promotion.
    resync_required: AtomicBool,
    /// Primary-side report, pushed by the WAL shipper.
    shipped: Mutex<Option<ReplReport>>,
    /// Replication peer address, for `STATS` only.
    peer: String,
}

impl Replica {
    /// The role state of a starting instance.
    pub fn new(standby: bool, lineage: u64, peer: String) -> Self {
        Self {
            standby: AtomicBool::new(standby),
            promotions: AtomicU64::new(0),
            lineage: AtomicU64::new(lineage),
            streamed_batches: AtomicU64::new(0),
            streamed_keys: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            resync_required: AtomicBool::new(false),
            shipped: Mutex::new(None),
            peer,
        }
    }

    /// Whether this instance is currently a standby.
    pub fn is_standby(&self) -> bool {
        self.standby.load(Ordering::Acquire)
    }

    /// Times this instance has been promoted.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Acquire)
    }

    /// This node's lineage. A fresh data directory starts at 0.
    pub fn lineage(&self) -> u64 {
        self.lineage.load(Ordering::Acquire)
    }

    /// Install the report the WAL shipper maintains (primary side).
    pub fn set_shipped(&self, report: ReplReport) {
        *self.shipped.lock() = Some(report);
    }

    /// Count a replicated run that was logged and applied.
    pub fn streamed(&self, batches: u64, keys: u64) {
        self.streamed_batches.fetch_add(batches, Ordering::Relaxed);
        self.streamed_keys.fetch_add(keys, Ordering::Relaxed);
    }

    /// Count batches the log already held.
    pub fn duplicates(&self, n: u64) {
        self.duplicates.fetch_add(n, Ordering::Relaxed);
    }

    /// The divergence gate. A cumulative ack is only safe when both
    /// sides agree on the history below the watermark, so an offer is
    /// refused — with the message to send back, never an ack — whenever
    /// lineages or watermarks prove the histories have split:
    ///
    /// * the primary's lineage is behind ours: it is a pre-promotion
    ///   ex-primary (or runs on older data) shipping history this node
    ///   has moved past — its copy is the stale one;
    /// * a newer-lineage stream, or any snapshot, against a standby that
    ///   `holds_state`: e.g. a dead ex-primary restarted with `--standby`
    ///   on its old directory. Its local tail was never replicated and
    ///   cannot be reconciled;
    /// * same lineage but our log (`my_next`) is ahead of the primary's:
    ///   the primary lost a durable suffix, and acking would mark
    ///   batches the standby never saw as replicated.
    ///
    /// The last two set `resync_required` for the operator.
    pub fn admit(
        &self,
        offer: Offer,
        primary_lineage: u64,
        my_next: u64,
        holds_state: bool,
    ) -> Result<Admission, String> {
        let mine = self.lineage();
        if primary_lineage < mine {
            let what = match offer {
                Offer::Stream { .. } => "replication",
                Offer::Snapshot { .. } => "catch-up snapshot",
            };
            return Err(format!(
                "{what} refused: primary lineage {primary_lineage} is behind \
                 standby lineage {mine}; the primary's history is stale"
            ));
        }
        let diverged = match offer {
            Offer::Snapshot { watermark } if primary_lineage == mine && my_next >= watermark => {
                self.duplicates(1);
                return Ok(Admission::Duplicate);
            }
            Offer::Snapshot { .. } if holds_state => Some(
                "catch-up snapshot refused: this standby already holds state; \
                 restart it with a fresh data directory to resync"
                    .to_string(),
            ),
            Offer::Stream { .. } if primary_lineage > mine && holds_state => Some(format!(
                "replication refused: primary lineage {primary_lineage} diverges \
                 from this standby's lineage {mine} and the standby already holds \
                 state; restart the standby with a fresh data directory to resync"
            )),
            Offer::Stream { primary_next } if primary_lineage == mine && my_next > primary_next => {
                Some(format!(
                    "replication refused: standby watermark {my_next} is ahead of \
                     primary watermark {primary_next} at lineage {mine}; histories \
                     have diverged"
                ))
            }
            _ => None,
        };
        match diverged {
            Some(message) => {
                self.resync_required.store(true, Ordering::Release);
                Err(message)
            }
            None => Ok(Admission::Proceed),
        }
    }

    /// An admitted offer was carried out: an empty standby adopts the
    /// primary's newer lineage (best-effort durably — a lost write
    /// re-adopts on the next subscribe), a snapshot install is counted,
    /// and the resync flag clears.
    pub fn established(&self, dir: &Path, offer: Offer, primary_lineage: u64) {
        if primary_lineage > self.lineage() {
            let _ = cots_persist::store_lineage(dir, primary_lineage);
            self.lineage.store(primary_lineage, Ordering::Release);
        }
        if matches!(offer, Offer::Snapshot { .. }) {
            self.snapshots.fetch_add(1, Ordering::Relaxed);
        }
        self.resync_required.store(false, Ordering::Release);
    }

    /// Stop being a standby; a no-op on a primary. The lineage bump is
    /// stored best-effort: a lost write means the node restarts with the
    /// pre-promotion lineage and is refused by newer peers — safe (it
    /// must resync), never silently divergent.
    pub fn promote(&self, dir: Option<&Path>) {
        if self.standby.swap(false, Ordering::AcqRel) {
            self.promotions.fetch_add(1, Ordering::Release);
            let promoted = self.lineage.fetch_add(1, Ordering::AcqRel) + 1;
            self.resync_required.store(false, Ordering::Release);
            if let Some(dir) = dir {
                let _ = cots_persist::store_lineage(dir, promoted);
            }
        }
    }

    /// The replication section of `STATS`: the shipper's report when one
    /// is live (primary side), synthesized from the applier counters at
    /// this node's `watermark` otherwise (standby side), `None` for an
    /// instance replication never touched; role, lineage and promotion
    /// count are always this instance's own.
    pub fn report(&self, watermark: u64) -> Option<ReplReport> {
        let streamed_batches = self.streamed_batches.load(Ordering::Relaxed);
        let snapshots = self.snapshots.load(Ordering::Relaxed);
        let shipped = self.shipped.lock().clone();
        let mut report = match shipped {
            Some(r) => r,
            None => {
                let untouched = !self.is_standby()
                    && streamed_batches == 0
                    && snapshots == 0
                    && self.promotions() == 0;
                if untouched {
                    return None;
                }
                ReplReport {
                    peer: self.peer.clone(),
                    streamed_batches,
                    streamed_keys: self.streamed_keys.load(Ordering::Relaxed),
                    acked_seq: watermark,
                    next_seq: watermark,
                    ..ReplReport::default()
                }
            }
        };
        report.role = if self.is_standby() {
            "standby"
        } else {
            "primary"
        }
        .to_string();
        report.promotions = self.promotions();
        report.duplicates = report
            .duplicates
            .saturating_add(self.duplicates.load(Ordering::Relaxed));
        report.snapshots = report.snapshots.saturating_add(snapshots);
        report.lineage = self.lineage();
        report.resync_required =
            report.resync_required || self.resync_required.load(Ordering::Acquire);
        Some(report)
    }
}
