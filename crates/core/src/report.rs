//! Run statistics and hardware-independent work counters.
//!
//! The paper reports wall-clock execution times on a quad-core machine. This
//! reproduction runs on whatever hardware it is given (a single-core
//! container in the reference environment), so alongside wall-clock numbers
//! every engine also accumulates *work counters* — counts of the logical
//! operations whose frequency the paper's arguments are actually about
//! (summary operations saved by bulk increments, lock hand-offs, merge
//! volume). These reproduce the qualitative claims deterministically,
//! independent of the core count.

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::json::{FromJson, Json, JsonResult, ToJson};
use crate::json_record;

json_record! {
    /// Plain, serializable work-counter totals.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WorkCounters {
        /// Stream elements processed.
        pub elements: u64,
        /// Operations applied to a stream-summary structure (add / increment /
        /// overwrite executions, bulk or not).
        pub summary_ops: u64,
        /// Times a thread crossed the search-structure → summary boundary with
        /// exclusive rights on an element (CoTS) or entered the summary under
        /// locks (naive shared).
        pub boundary_crossings: u64,
        /// Delegation actions that logged mass with the element's current
        /// owner instead of crossing the boundary (CoTS) — the "bulk
        /// increment" sources. A combining-front-end flush logs its whole
        /// aggregate as *one* action; the occurrences beyond the first are
        /// counted in [`WorkCounters::combined_increments`], so
        /// `boundary_crossings + delegated_increments + combined_increments`
        /// partitions `elements` exactly.
        pub delegated_increments: u64,
        /// Stream occurrences absorbed by the thread-local combining front-end
        /// before ever touching the shared search structure (occurrences beyond
        /// the first per distinct key per flush window).
        pub combined_increments: u64,
        /// Aggregated `(key, count)` flushes the combining front-end pushed
        /// through the delegation protocol.
        pub combiner_flushes: u64,
        /// Requests delegated at bucket level (enqueued for another owner).
        pub delegated_requests: u64,
        /// Lock acquisitions (naive shared design; hash-bucket insert locks in
        /// CoTS).
        pub lock_acquisitions: u64,
        /// Lock acquisitions that observed contention (had to wait/spin).
        pub lock_contentions: u64,
        /// Merge operations executed (independent design).
        pub merges: u64,
        /// Counters examined across all merges.
        pub merged_counters: u64,
        /// Lock-free read traversals that had to abort and restart.
        pub read_restarts: u64,
        /// Frequency buckets garbage-collected.
        pub gc_buckets: u64,
        /// Overwrite operations executed (Space Saving eviction).
        pub overwrites: u64,
        /// Overwrite requests deferred because every candidate was busy.
        pub overwrite_deferrals: u64,
    }

    /// Shared, thread-safe tally of work counters.
    ///
    /// Engines hold one `WorkTally` and bump it from any thread with relaxed
    /// atomics (the counts are statistics, not synchronization); `snapshot`
    /// freezes the totals.
    tally WorkTally;
}

impl WorkCounters {
    /// Average number of stream increments covered by one boundary
    /// crossing: `elements / boundary_crossings`. A combining factor of 1
    /// means no cooperation happened; large factors are the mechanism behind
    /// the paper's super-linear scaling for skewed data (§6).
    pub fn combining_factor(&self) -> f64 {
        if self.boundary_crossings == 0 {
            return 1.0;
        }
        self.elements as f64 / self.boundary_crossings as f64
    }

    /// Boundary crossings per processed element — the shared-structure
    /// pressure each stream element exerts; the inverse of the combining
    /// factor, and the primary metric the perf gate tracks.
    pub fn crossings_per_element(&self) -> f64 {
        if self.elements == 0 {
            return 0.0;
        }
        self.boundary_crossings as f64 / self.elements as f64
    }

    /// Summary operations per processed element — the work the summary
    /// structure actually absorbed.
    pub fn summary_ops_per_element(&self) -> f64 {
        if self.elements == 0 {
            return 0.0;
        }
        self.summary_ops as f64 / self.elements as f64
    }

    /// Merge two totals (e.g. across threads).
    pub fn merge(&mut self, other: &WorkCounters) {
        self.elements += other.elements;
        self.summary_ops += other.summary_ops;
        self.boundary_crossings += other.boundary_crossings;
        self.delegated_increments += other.delegated_increments;
        self.combined_increments += other.combined_increments;
        self.combiner_flushes += other.combiner_flushes;
        self.delegated_requests += other.delegated_requests;
        self.lock_acquisitions += other.lock_acquisitions;
        self.lock_contentions += other.lock_contentions;
        self.merges += other.merges;
        self.merged_counters += other.merged_counters;
        self.read_restarts += other.read_restarts;
        self.gc_buckets += other.gc_buckets;
        self.overwrites += other.overwrites;
        self.overwrite_deferrals += other.overwrite_deferrals;
    }
}

/// Outcome of one measured engine run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Engine label ("sequential", "shared-mutex", "independent-serial",
    /// "cots", …).
    pub engine: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Stream length processed.
    pub elements: u64,
    /// Wall-clock duration of the counting phase. Serialized as fractional
    /// seconds, matching the paper's tables.
    pub elapsed: Duration,
    /// Logical work performed.
    pub work: WorkCounters,
}

impl RunStats {
    /// Elements per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.elements as f64 / secs
    }

    /// Speed-up of this run relative to a baseline run.
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        let own = self.elapsed.as_secs_f64();
        if own == 0.0 {
            return f64::INFINITY;
        }
        baseline.elapsed.as_secs_f64() / own
    }
}

json_record! {
    /// Per-shard ingest progress of the `cots-serve` pipeline, reported in
    /// `STATS` responses and the service benchmark artifact.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ShardReport {
        /// Shard index (0-based).
        pub shard: usize,
        /// Ingest batches drained from this shard's queues.
        pub batches: u64,
        /// Keys applied to the backend by this shard's worker.
        pub keys: u64,
        /// High-water mark of queued batches observed by the worker.
        pub max_queue_depth: u64,
        /// Times the worker parked because every queue was empty.
        pub idle_parks: u64,
    }
}

json_record! {
    /// What one crash-recovery pass found and restored (`cots-persist`).
    ///
    /// Every count here is conservative by construction: `replayed_items`
    /// covers only WAL records whose CRC verified, and `torn_frames` /
    /// `dropped_bytes` quantify the tail that was *not* restored. The
    /// recovered summary therefore never over-reports durable data — any
    /// answer it gives is within the usual Space-Saving envelope of the
    /// `recovered_items`-item durable multiset.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RecoveryReport {
        /// WAL sequence watermark of the checkpoint recovery started from
        /// (`None` when no valid checkpoint was found and recovery replayed
        /// the WAL from sequence 0).
        pub checkpoint_watermark: Option<u64>,
        /// Stream items contained in the restored checkpoint.
        pub base_items: u64,
        /// WAL batches replayed on top of the checkpoint.
        pub replayed_batches: u64,
        /// Stream items replayed from the WAL.
        pub replayed_items: u64,
        /// Total durable items after recovery (`base_items + replayed_items`).
        pub recovered_items: u64,
        /// WAL segment files scanned.
        pub segments_scanned: u64,
        /// Bytes examined across checkpoint and WAL files.
        pub bytes_scanned: u64,
        /// Torn or corrupt frames encountered (each ends one segment's valid
        /// prefix; everything after it in that segment is dropped).
        pub torn_frames: u64,
        /// Bytes discarded as unreadable (torn tails, bad magic, CRC
        /// mismatches).
        pub dropped_bytes: u64,
        /// Checkpoint files that failed CRC or semantic validation and were
        /// skipped in favour of an older one.
        pub corrupt_checkpoints: u64,
        /// Wall-clock seconds the recovery took: checkpoint load and WAL
        /// scan, and — in a service's report — seeding and replay too.
        pub elapsed_secs: f64,
    }
}

json_record! {
    /// Live persistence-pipeline counters for a `cots-serve` instance running
    /// with `--data-dir`.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct PersistReport {
        /// Checkpoints committed (atomic rename completed) since start.
        pub checkpoints: u64,
        /// WAL sequence watermark of the newest committed checkpoint.
        pub last_watermark: u64,
        /// Batch records appended to the WAL.
        pub wal_records: u64,
        /// Stream keys appended to the WAL.
        pub wal_keys: u64,
        /// Bytes appended to the WAL (framing included).
        pub wal_bytes: u64,
        /// Group commits that reached `fsync` (policy `always`, plus the
        /// barrier sync before every checkpoint).
        pub wal_syncs: u64,
        /// WAL or checkpoint I/O errors absorbed (logged, never fatal to
        /// ingest), and batches too large for any WAL record (applied,
        /// not logged).
        pub io_errors: u64,
    }

    /// Shared counters of the durability pipeline: bumped by the shard
    /// workers (WAL appends) and the checkpointer, frozen by `STATS`.
    tally PersistTally;
}

json_record! {
    /// Live replication state of one member of a primary/standby pair
    /// (`cots_serve::repl`), reported in `STATS` responses.
    ///
    /// On a primary the counters describe the WAL shipper: batches tailed
    /// from the local log and streamed to the standby, and the ack
    /// watermark the standby has confirmed durable. `unacked_keys` is the
    /// loss bound of this instant: if the primary dies *right now*, the
    /// promoted standby is missing exactly the keys logged locally past
    /// `acked_seq` — no more, no less. On a standby the same counters
    /// describe the apply side: batches received, logged to its own WAL
    /// copy, and applied to the warm engine.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ReplReport {
        /// `"primary"` (shipping) or `"standby"` (applying).
        pub role: String,
        /// Peer address of the pair (standby for a primary, primary for a
        /// standby).
        pub peer: String,
        /// The replication stream is currently established.
        pub connected: bool,
        /// Batches shipped (primary) or applied (standby).
        pub streamed_batches: u64,
        /// Keys those batches carried.
        pub streamed_keys: u64,
        /// Ack watermark: every batch with `seq < acked_seq` is durable on
        /// both sides of the pair.
        pub acked_seq: u64,
        /// First unused local WAL sequence number.
        pub next_seq: u64,
        /// Batches logged locally but not yet acknowledged by the peer
        /// (`next_seq − acked_seq`, saturating).
        pub unacked_batches: u64,
        /// Keys inside those batches — the mass a failover would lose.
        pub unacked_keys: u64,
        /// Catch-up snapshots sent (primary) or installed (standby).
        pub snapshots: u64,
        /// Re-shipped batches skipped by sequence dedup (exactly-once
        /// apply under reconnect/replay).
        pub duplicates: u64,
        /// Standby → primary transitions this process has performed.
        pub promotions: u64,
        /// Replication lineage (promotion generation) of this node's data:
        /// bumped durably on every promotion and carried on every REPL wire
        /// op, so divergent histories refuse each other instead of silently
        /// acking.
        pub lineage: u64,
        /// The pair refused to stream because histories diverged (standby
        /// ahead of the primary, mismatched lineage, or a non-empty standby
        /// needing a snapshot). An operator must resync the standby with a
        /// fresh data directory; clears once a stream establishes.
        pub resync_required: bool,
    }
}

json_record! {
    /// One member's view from a `cots-coord` coordinator.
    ///
    /// `forwarded_keys − captured_total` is this member's contribution to
    /// the cluster staleness bound: keys the member acknowledged that the
    /// coordinator's federated snapshot does not yet reflect. For a healthy
    /// member it shrinks back to zero at quiescence; for an unreachable one
    /// it is frozen high — the widened error bound of degraded answers.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct MemberReport {
        /// Member index in the coordinator's topology (0-based).
        pub member: usize,
        /// Member address (`host:port`).
        pub addr: String,
        /// The member answered its most recent pull (false = degraded:
        /// answers fall back to its last good snapshot).
        pub healthy: bool,
        /// Publisher epoch of the last good snapshot pulled.
        pub epoch: u64,
        /// Stream mass that snapshot accounts for.
        pub captured_total: u64,
        /// Keys this member acknowledged (as key-routing primary or as a
        /// spillover target).
        pub forwarded_keys: u64,
        /// Subset of `forwarded_keys` absorbed on behalf of unreachable
        /// peers (spillover routing).
        pub spilled_keys: u64,
        /// Successful snapshot pulls.
        pub pulls: u64,
        /// Failed pulls or connection attempts.
        pub pull_failures: u64,
        /// `forwarded_keys − captured_total` (saturating): acknowledged
        /// keys not yet reflected in the last good snapshot.
        pub staleness: u64,
        /// Standby address of this slot's replica pair, when configured.
        pub standby: Option<String>,
        /// Times this slot's routing flipped to the standby.
        pub promotions: u64,
        /// Un-acked replication tail: keys the active primary had logged
        /// but its standby had not acknowledged at the last health check —
        /// frozen at promotion as the slot's failover loss bound.
        pub repl_unacked_keys: u64,
    }
}

json_record! {
    /// Cluster-wide statistics from a `cots-coord` coordinator.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ClusterReport {
        /// Per-member breakdown.
        pub members: Vec<MemberReport>,
        /// Epoch of the federated (merged) snapshot.
        pub epoch: u64,
        /// Summed member mass the federated snapshot accounts for.
        pub captured_total: u64,
        /// Keys acknowledged cluster-wide.
        pub forwarded_keys: u64,
        /// Conservative cluster staleness: `forwarded_keys` minus the
        /// federated snapshot's `captured_total`. Every answer may miss at
        /// most this many acknowledged keys.
        pub staleness: u64,
        /// Members currently degraded (unreachable; answered from their
        /// last good snapshot).
        pub degraded_members: usize,
        /// Staleness attributable to degraded members — the part of the
        /// error envelope that cannot shrink until they rejoin.
        pub degraded_staleness: u64,
        /// Standby promotions performed cluster-wide.
        pub promotions: u64,
        /// Summed failover loss bound of slots currently running on a
        /// promoted standby: keys acknowledged by a dead primary that its
        /// standby had not received. Widens the answer envelope exactly
        /// once (it is the frozen part of `staleness`, never added on
        /// top), and cannot shrink until the ex-primary resyncs.
        pub repl_unacked_keys: u64,
        /// Federated merges published.
        pub merges: u64,
        /// Queries answered by the coordinator.
        pub queries: u64,
    }
}

json_record! {
    /// Aggregate service-level statistics for a `cots-serve` instance.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ServiceReport {
        /// Keys accepted into shard queues (enqueued; may exceed applied).
        pub ingested_keys: u64,
        /// INGEST frames accepted.
        pub ingest_frames: u64,
        /// INGEST frames rejected with OVERLOADED (backpressure).
        pub rejected_frames: u64,
        /// QUERY frames answered.
        pub queries: u64,
        /// Epoch of the currently published snapshot.
        pub snapshot_epoch: u64,
        /// Items applied to the backend after the published snapshot was
        /// captured (staleness bound for query answers).
        pub staleness: u64,
        /// Counters monitored by the backend summary.
        pub monitored: usize,
        /// Per-shard breakdown.
        pub shards: Vec<ShardReport>,
        /// Crash-recovery provenance, when this instance restored state from
        /// a data directory at startup.
        pub recovery: Option<RecoveryReport>,
        /// Persistence-pipeline counters, when running with a data directory.
        pub persist: Option<PersistReport>,
        /// Replication counters, when this instance is half of a
        /// primary/standby pair.
        pub repl: Option<ReplReport>,
    }
}

impl PersistTally {
    /// Record one committed checkpoint cut at `watermark`;
    /// `last_watermark` keeps the high-water mark.
    pub fn checkpoint(&self, watermark: u64) {
        self.checkpoints(1);
        self.last_watermark.fetch_max(watermark, Ordering::Relaxed);
    }
}

impl ServiceReport {
    /// Keys applied to the backend across all shards.
    pub fn applied_keys(&self) -> u64 {
        self.shards.iter().map(|s| s.keys).sum()
    }
}

// Hand-written: `elapsed` is a `Duration` in memory and fractional seconds
// on the wire (the unit of the paper's tables).
impl ToJson for RunStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("engine", self.engine.to_json()),
            ("threads", self.threads.to_json()),
            ("elements", self.elements.to_json()),
            ("elapsed", self.elapsed.as_secs_f64().to_json()),
            ("work", self.work.to_json()),
        ])
    }
}

impl FromJson for RunStats {
    fn from_json(v: &Json) -> JsonResult<Self> {
        let secs = f64::from_json(v.field("elapsed")?)?;
        Ok(Self {
            engine: String::from_json(v.field("engine")?)?,
            threads: usize::from_json(v.field("threads")?)?,
            elements: u64::from_json(v.field("elements")?)?,
            elapsed: Duration::from_secs_f64(secs.max(0.0)),
            work: WorkCounters::from_json(v.field("work")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates_and_snapshots() {
        let t = WorkTally::new();
        t.elements(10);
        t.elements(5);
        t.summary_ops(3);
        t.boundary_crossings(5);
        t.delegated_increments(10);
        let s = t.snapshot();
        assert_eq!(s.elements, 15);
        assert_eq!(s.summary_ops, 3);
        assert_eq!(s.combining_factor(), 3.0);
    }

    #[test]
    fn combining_factor_degenerate() {
        let s = WorkCounters::default();
        assert_eq!(s.combining_factor(), 1.0);
        assert_eq!(s.summary_ops_per_element(), 0.0);
    }

    #[test]
    fn counters_merge() {
        let mut a = WorkCounters {
            elements: 1,
            merges: 2,
            ..Default::default()
        };
        let b = WorkCounters {
            elements: 3,
            merged_counters: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.elements, 4);
        assert_eq!(a.merges, 2);
        assert_eq!(a.merged_counters, 7);
    }

    #[test]
    fn tally_is_thread_safe() {
        let t = std::sync::Arc::new(WorkTally::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.elements(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.snapshot().elements, 4000);
    }

    #[test]
    fn persist_tally_accumulates() {
        let t = PersistTally::new();
        t.checkpoint(100);
        t.checkpoint(40); // out-of-order commit keeps the high-water mark
        t.wal_keys(32);
        t.wal_keys(8);
        t.io_errors(1);
        let r = t.snapshot();
        assert_eq!(r.checkpoints, 2);
        assert_eq!(r.last_watermark, 100);
        assert_eq!(r.wal_keys, 40);
        assert_eq!(r.io_errors, 1);
        assert_eq!(r.wal_syncs, 0);
    }

    #[test]
    fn run_stats_throughput_and_speedup() {
        let base = RunStats {
            engine: "sequential".into(),
            threads: 1,
            elements: 1_000_000,
            elapsed: Duration::from_secs(2),
            work: WorkCounters::default(),
        };
        let fast = RunStats {
            engine: "cots".into(),
            threads: 8,
            elements: 1_000_000,
            elapsed: Duration::from_secs(1),
            work: WorkCounters::default(),
        };
        assert_eq!(fast.throughput(), 1_000_000.0);
        assert_eq!(fast.speedup_vs(&base), 2.0);
    }

    #[test]
    fn service_report_json_round_trip() {
        let r = ServiceReport {
            ingested_keys: 1_000,
            ingest_frames: 10,
            rejected_frames: 2,
            queries: 7,
            snapshot_epoch: 5,
            staleness: 128,
            monitored: 100,
            shards: vec![
                ShardReport {
                    shard: 0,
                    batches: 6,
                    keys: 600,
                    max_queue_depth: 3,
                    idle_parks: 9,
                },
                ShardReport {
                    shard: 1,
                    batches: 4,
                    keys: 400,
                    max_queue_depth: 1,
                    idle_parks: 2,
                },
            ],
            recovery: Some(RecoveryReport {
                checkpoint_watermark: Some(17),
                base_items: 800,
                replayed_batches: 3,
                replayed_items: 200,
                recovered_items: 1_000,
                segments_scanned: 2,
                bytes_scanned: 4_096,
                torn_frames: 1,
                dropped_bytes: 37,
                corrupt_checkpoints: 0,
                elapsed_secs: 0.25,
            }),
            persist: Some(PersistReport {
                checkpoints: 4,
                last_watermark: 17,
                wal_records: 9,
                wal_keys: 1_000,
                wal_bytes: 8_200,
                wal_syncs: 4,
                io_errors: 0,
            }),
            repl: Some(ReplReport {
                role: "primary".into(),
                peer: "127.0.0.1:6060".into(),
                connected: true,
                streamed_batches: 12,
                streamed_keys: 1_200,
                acked_seq: 11,
                next_seq: 13,
                unacked_batches: 2,
                unacked_keys: 150,
                snapshots: 1,
                duplicates: 3,
                promotions: 0,
                lineage: 2,
                resync_required: true,
            }),
        };
        assert_eq!(r.applied_keys(), 1_000);
        let json = crate::json::to_string(&r);
        let back: ServiceReport = crate::json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let bare = ServiceReport::default();
        let back: ServiceReport = crate::json::from_str(&crate::json::to_string(&bare)).unwrap();
        assert_eq!(back.recovery, None);
        assert_eq!(back.persist, None);
        assert_eq!(back.repl, None);
    }

    #[test]
    fn cluster_report_json_round_trip() {
        let r = ClusterReport {
            members: vec![
                MemberReport {
                    member: 0,
                    addr: "127.0.0.1:5050".into(),
                    healthy: true,
                    epoch: 12,
                    captured_total: 9_000,
                    forwarded_keys: 9_500,
                    spilled_keys: 0,
                    pulls: 40,
                    pull_failures: 0,
                    staleness: 500,
                    standby: Some("127.0.0.1:6050".into()),
                    promotions: 1,
                    repl_unacked_keys: 120,
                },
                MemberReport {
                    member: 1,
                    addr: "127.0.0.1:5051".into(),
                    healthy: false,
                    epoch: 7,
                    captured_total: 4_000,
                    forwarded_keys: 4_300,
                    spilled_keys: 200,
                    pulls: 21,
                    pull_failures: 3,
                    staleness: 300,
                    standby: None,
                    promotions: 0,
                    repl_unacked_keys: 0,
                },
            ],
            epoch: 9,
            captured_total: 13_000,
            forwarded_keys: 13_800,
            staleness: 800,
            degraded_members: 1,
            degraded_staleness: 300,
            promotions: 1,
            repl_unacked_keys: 120,
            merges: 61,
            queries: 14,
        };
        let back: ClusterReport = crate::json::from_str(&crate::json::to_string(&r)).unwrap();
        assert_eq!(back, r);
        let bare = ClusterReport::default();
        let back: ClusterReport = crate::json::from_str(&crate::json::to_string(&bare)).unwrap();
        assert_eq!(back, bare);
    }

    #[test]
    fn run_stats_json_round_trip() {
        let r = RunStats {
            engine: "cots".into(),
            threads: 4,
            elements: 42,
            elapsed: Duration::from_millis(1500),
            work: WorkCounters::default(),
        };
        let json = crate::json::to_string(&r);
        let back: RunStats = crate::json::from_str(&json).unwrap();
        assert_eq!(back.engine, "cots");
        assert_eq!(back.threads, 4);
        assert_eq!(back.work, r.work);
        assert!((back.elapsed.as_secs_f64() - 1.5).abs() < 1e-9);
    }
}
