//! Durability glue between the shard pipeline and `cots-persist`: the
//! write-ahead log shared by the shard workers, the ingest freeze gate,
//! and epoch-consistent checkpointing.
//!
//! ## The freeze gate
//!
//! A checkpoint must be an *exact prefix cut* of the WAL: every batch
//! with `seq < watermark` logged **and** applied, nothing past the
//! watermark reflected in the captured summary. The gate is a
//! reader/writer lock: shard workers hold it shared across each group
//! (allocate sequence numbers → append to WAL → apply to the backend), so
//! groups never wait on each other; the checkpointer takes it exclusive,
//! which waits out the in-flight groups and holds new ones back while it
//! reads `watermark = next_seq`, captures the summary and syncs the log.
//! The ingest stall is the capture walk plus that sync, not the
//! checkpoint file write, which happens after the gate reopens.
//!
//! ## Loss model
//!
//! Batches are acked at *enqueue* time; a batch popped from a ring is
//! logged before it is applied. A crash can therefore lose (a) acked
//! batches still in rings and (b) the unsynced WAL tail (per the
//! [`FsyncPolicy`]). Both losses are one-sided under-counts; the
//! kill-and-recover e2e bounds them against ground truth.
//!
//! AUDIT: locks — the gate and the WAL lock are on the ingest path;
//! enforced by `cargo xtask audit` (lint-locks). The deliberate
//! I/O-under-lock sites below carry `LOCK-OK` justifications.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use cots::SnapshotPublisher;
use cots_core::merge::merge_snapshots;
use cots_core::report::PersistTally;
use cots_core::{Result, Snapshot};
use cots_persist::{
    find_checkpoints, parse_checkpoint_name, prune_checkpoints, prune_wal, write_checkpoint,
    Checkpoint, CommitStats, FsyncPolicy, WalWriter, DEFAULT_SEGMENT_BYTES,
};

use crate::shard::Partitioned;

/// How many checkpoints to keep on disk: the newest plus one fallback in
/// case the newest is damaged.
const KEEP_CHECKPOINTS: usize = 2;

/// Durability knobs, enabled by `cots-serve --data-dir`.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding checkpoints and WAL segments.
    pub data_dir: PathBuf,
    /// When the WAL reaches stable storage.
    pub fsync: FsyncPolicy,
    /// Background checkpoint cadence; zero disables the background
    /// checkpointer (checkpoints then happen only via the `CHECKPOINT`
    /// wire op and at graceful drain).
    pub checkpoint_every: Duration,
    /// WAL segment rotation threshold, in bytes.
    pub segment_bytes: u64,
}

impl PersistOptions {
    /// Defaults for `data_dir`: grouped fsync, 5 s checkpoints, 8 MiB
    /// segments.
    pub fn new(data_dir: PathBuf) -> Self {
        Self {
            data_dir,
            fsync: FsyncPolicy::default(),
            checkpoint_every: Duration::from_secs(5),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// Shared durability state of a running service.
pub struct Persistence {
    dir: PathBuf,
    capacity: usize,
    wal: Mutex<WalWriter>,
    /// Next batch sequence number. Allocated under the `wal` lock so the
    /// log file is sequence-ordered.
    next_seq: AtomicU64,
    /// The freeze gate: shared by log-then-apply groups, exclusive for
    /// the checkpoint cut.
    gate: RwLock<()>,
    /// WAL/checkpoint counters for `STATS`.
    pub tally: PersistTally,
    /// Serializes checkpointers (background thread vs. `CHECKPOINT` op).
    ckpt_lock: Mutex<()>,
    /// Oldest WAL sequence a replication peer still needs. Segments at
    /// or past this floor survive checkpoint pruning so the shipper can
    /// keep tailing them; `u64::MAX` (the default) means "no peer,
    /// prune on checkpoints alone".
    repl_retain: AtomicU64,
}

impl Persistence {
    /// Open the WAL at `next_seq` (from recovery) and assemble the gate.
    ///
    /// When a `repl-ack` file exists, the retention floor starts at its
    /// watermark rather than unpinned: the shipper hasn't connected yet
    /// after a restart, and a background checkpoint that pruned past the
    /// standby's persisted place would force a resync the standby did
    /// nothing to deserve. A damaged file reads as 0 — retain everything
    /// — which errs in the safe direction.
    pub fn new(opts: &PersistOptions, next_seq: u64, capacity: usize) -> Result<Self> {
        let wal = WalWriter::open(&opts.data_dir, next_seq, opts.fsync, opts.segment_bytes)?;
        let repl_retain = if cots_persist::has_ack(&opts.data_dir) {
            cots_persist::load_ack(&opts.data_dir)
        } else {
            u64::MAX
        };
        Ok(Self {
            dir: opts.data_dir.clone(),
            capacity,
            wal: Mutex::new(wal),
            next_seq: AtomicU64::new(next_seq),
            gate: RwLock::new(()),
            tally: PersistTally::new(),
            ckpt_lock: Mutex::new(()),
            repl_retain: AtomicU64::new(repl_retain),
        })
    }

    /// The data directory this instance logs into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next WAL sequence to be allocated — equivalently, the durable
    /// watermark: every batch below it is logged (and applied).
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// Pin WAL retention for a replication peer: segments holding
    /// sequences ≥ `seq` survive checkpoint pruning. The shipper
    /// advances this as acks arrive; `u64::MAX` releases the pin.
    pub fn set_repl_retain(&self, seq: u64) {
        self.repl_retain.store(seq, Ordering::Release);
    }

    /// Log a run of batches as one weighted run record — each batch as
    /// its runs of equal keys, so a batch the caller sorted costs 12 bytes
    /// per distinct key — then apply them, all inside one gate section, so
    /// a checkpoint watermark always cuts between runs, never through one.
    /// This is the only way into the summaries once the service is up.
    ///
    /// `first` is the sequence the run must land on: `None` takes
    /// whatever is next (a shard worker's drained group, never refused);
    /// `Some(seq)` is a replicated run at the primary's numbering and is
    /// refused untouched (`false`) unless `seq` is exactly next, so the
    /// standby can ack its real watermark and let the shipper resolve a
    /// duplicate or a gap.
    ///
    /// The run is durable per the [`FsyncPolicy`] once this returns. WAL
    /// I/O failures are absorbed (counted, run still applied): a full
    /// disk degrades durability, not liveness.
    pub fn log_and_apply<B: AsRef<[u64]>>(
        &self,
        first: Option<u64>,
        run: &[B],
        summaries: &Partitioned,
    ) -> bool {
        self.log_then(first, run, || {
            for batch in run {
                summaries.apply(batch.as_ref());
            }
        })
    }

    /// [`log_and_apply`](Persistence::log_and_apply) for a durable shard
    /// worker's drained group: every batch is sorted and owned by
    /// `shard`, so it is counted from its runs as it is, with no copy and
    /// no second sort.
    pub(crate) fn log_and_apply_sorted(
        &self,
        shard: usize,
        run: &[Vec<u64>],
        summaries: &Partitioned,
    ) {
        self.log_then(None, run, || {
            for batch in run {
                summaries.apply_sorted(shard, batch);
            }
        });
    }

    /// Log `run` at `first` (see [`log_and_apply`]), then call `apply`,
    /// both inside one shared gate section.
    ///
    /// [`log_and_apply`]: Persistence::log_and_apply
    fn log_then<B: AsRef<[u64]>>(
        &self,
        first: Option<u64>,
        run: &[B],
        apply: impl FnOnce(),
    ) -> bool {
        let _group = self.gate.read();
        {
            // LOCK-OK: gate (shared) → wal is the one order workers take
            // these in, and the checkpointer takes gate (exclusive) → wal;
            // no path holds wal while waiting for the gate.
            let mut wal = self.wal.lock();
            // Every group advances `next_seq` under this lock, so the
            // value is stable for the duration of the append.
            let next = self.next_seq.load(Ordering::Acquire);
            if first.is_some_and(|seq| seq != next) {
                return false;
            }
            // One reservation, one CRC frame for the whole run (more only
            // for a run past a record's limits).
            wal.append_run(next, run);
            // LOCK-OK: committing under the wal lock is the design — the
            // WAL is one sequential file, writers must not interleave
            // records, and the hold is bounded by the run size. Contention
            // is between shard workers only (on a standby, the replication
            // stream *is* the ingest path); the request path never takes
            // this lock. The shared gate hold spans the commit because the
            // run must be logged *and* applied before a cut can pass it.
            self.tally_commit(wal.commit());
            self.next_seq
                .store(next + run.len() as u64, Ordering::Release);
        }
        apply();
        true
    }

    /// Account for one group commit from what the writer says it wrote:
    /// records, keys and bytes only once they reached the OS, a failure
    /// as an absorbed I/O error and nothing else.
    fn tally_commit(&self, outcome: Result<CommitStats>) {
        match outcome {
            Ok(stats) => {
                self.tally.wal_records(stats.records);
                self.tally.wal_keys(stats.keys);
                self.tally.wal_bytes(stats.bytes);
                if stats.synced {
                    self.tally.wal_syncs(1);
                }
                // A batch too large for any record is applied unlogged:
                // durability degraded, like a failed write.
                if stats.refused > 0 {
                    self.tally.io_errors(stats.refused);
                }
            }
            Err(_) => self.tally.io_errors(1),
        }
    }

    /// Install a catch-up summary a primary cut at `watermark` into an
    /// empty standby: persist it as this node's own checkpoint, seed the
    /// summaries from it, and advance the durable watermark to the cut —
    /// one section under `ckpt_lock`, so no local checkpoint can cut
    /// between the file and the seed. Only callable on an empty log
    /// (`next_seq == 0`). The summary goes through [`fit_summary`] — the
    /// capacity rule a restart applies — and the checkpoint is validated
    /// first, so a summary that could not be seeded is never written.
    ///
    /// Returns the committed file size.
    pub fn install_base(
        &self,
        watermark: u64,
        epoch: u64,
        summary: &Snapshot<u64>,
        summaries: &Partitioned,
    ) -> Result<u64> {
        let _serialize = self.ckpt_lock.lock();
        if self.next_seq.load(Ordering::Acquire) != 0 {
            return Err(cots_core::CotsError::Report(
                "catch-up snapshot refused: the log is not empty".into(),
            ));
        }
        let summary = fit_summary(summary.clone(), None, self.capacity)?;
        let ckpt = Checkpoint::from_snapshot(watermark, epoch, self.capacity, &summary);
        ckpt.validate().map_err(cots_core::CotsError::Report)?;
        let (_, bytes) = write_checkpoint(&self.dir, &ckpt).inspect_err(|_| {
            self.tally.io_errors(1);
        })?;
        summaries.seed(&summary)?;
        self.tally.checkpoint(watermark);
        self.next_seq.store(watermark, Ordering::Release);
        Ok(bytes)
    }

    /// Take one epoch-consistent checkpoint: freeze ingest, cut the
    /// watermark, capture the merged summary and force the log,
    /// unfreeze, then write and commit the file and prune state it makes
    /// redundant.
    pub fn checkpoint(
        &self,
        summaries: &Partitioned,
        publisher: &SnapshotPublisher<u64>,
    ) -> Result<CheckpointCut> {
        let _serialize = self.ckpt_lock.lock();

        let (watermark, summary, sync_result) = {
            // LOCK-OK: ckpt_lock → gate is the one global lock order
            // (ckpt_lock is outermost everywhere). Exclusive: every group
            // that started has finished, none starts until this drops.
            let _frozen = self.gate.write();
            // Quiescent: every batch with seq < next_seq is logged and
            // applied; nothing else is.
            let watermark = self.next_seq.load(Ordering::Acquire);
            let summary = summaries.capture();
            // The log is forced before the checkpoint commits so the
            // durable state never has a checkpoint whose preceding WAL
            // vanished.
            // LOCK-OK: the fsync must land while ingest is frozen — that
            // is the prefix-cut guarantee — so it deliberately runs under
            // the exclusive gate, and the transient wal guard orders after
            // it (gate → wal, same as the workers).
            let sync_result = self.wal.lock().sync();
            (watermark, summary, sync_result)
        };
        // Ingest is live again; report I/O problems only now.
        match sync_result {
            Ok(()) => self.tally.wal_syncs(1),
            Err(e) => {
                self.tally.io_errors(1);
                return Err(e);
            }
        }

        let epoch = publisher.epoch();
        let ckpt = Checkpoint::from_snapshot(watermark, epoch, self.capacity, &summary);
        let (_, bytes) = write_checkpoint(&self.dir, &ckpt).inspect_err(|_| {
            self.tally.io_errors(1);
        })?;
        self.tally.checkpoint(watermark);

        // Prune what the new checkpoint made redundant. Best-effort: the
        // service stays correct with extra files around. A replication
        // peer's un-acked tail pins segments past its floor.
        let _ = prune_checkpoints(&self.dir, KEEP_CHECKPOINTS);
        if let Ok(kept) = find_checkpoints(&self.dir) {
            if let Some(oldest) = kept.last().and_then(|p| parse_checkpoint_name(p)) {
                let floor = oldest.min(self.repl_retain.load(Ordering::Acquire));
                let _ = prune_wal(&self.dir, floor);
            }
        }
        Ok(CheckpointCut {
            watermark,
            bytes,
            summary,
        })
    }
}

/// Fit a summary to a `capacity`-counter backend before seeding it — the
/// one capacity rule behind both seeding paths (a restart passes its
/// checkpoint's recorded capacity, a catch-up has none: the wire does
/// not carry it). A source that was *full* has evicted keys it no longer
/// names; seeded into free slots, such a key would be re-admitted with
/// error 0 — below the truth — so that is refused. Full is known from the
/// recorded capacity, or from any entry with `error > 0`: only an
/// eviction sets one. More entries than `capacity` keep the top
/// `capacity`, which is sound: every dropped count is at most the kept
/// minimum.
pub fn fit_summary(
    snap: Snapshot<u64>,
    source_capacity: Option<usize>,
    capacity: usize,
) -> Result<Snapshot<u64>> {
    let full = source_capacity.is_some_and(|c| snap.len() >= c)
        || snap.entries().iter().any(|e| e.error > 0);
    if full && snap.len() < capacity {
        return Err(cots_core::CotsError::InvalidConfig(format!(
            "the summary was full at capacity {}; seeding it under --capacity \
             {capacity} would re-admit keys it evicted with no error bound — use \
             --capacity {} or less",
            source_capacity.unwrap_or(snap.len()),
            snap.len()
        )));
    }
    Ok(if snap.len() > capacity {
        merge_snapshots(&[snap], capacity)
    } else {
        snap
    })
}

/// What one [`Persistence::checkpoint`] committed.
#[derive(Debug)]
pub struct CheckpointCut {
    /// WAL sequence the checkpoint cuts at: every batch below it is in
    /// `summary`, nothing at or past it is.
    pub watermark: u64,
    /// Size of the committed checkpoint file.
    pub bytes: u64,
    /// The summary the checkpoint captured — the WAL shipper sends
    /// exactly this with `watermark` as a catch-up `REPL_SNAPSHOT`, so the
    /// transfer is consistent with the durable cut by construction.
    pub summary: Snapshot<u64>,
}

impl std::fmt::Debug for Persistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Persistence")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cots-serve-persist-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn backend(capacity: usize) -> Arc<Partitioned> {
        Arc::new(Partitioned::new(2, capacity).unwrap())
    }

    #[test]
    fn log_apply_checkpoint_recover_cycle() {
        let dir = temp_dir("cycle");
        let opts = PersistOptions::new(dir.clone());
        let p = Persistence::new(&opts, 0, 64).unwrap();
        let backend = backend(64);
        let publisher = SnapshotPublisher::new();

        let burst = vec![vec![1u64, 1, 2], vec![3u64]];
        p.log_and_apply(None, &burst, &backend);
        assert_eq!(backend.processed(), 4);

        let cut = p.checkpoint(&backend, &publisher).unwrap();
        assert_eq!(cut.watermark, 2, "two batches logged before the cut");
        assert_eq!(cut.summary.total(), 4);
        assert!(cut.bytes > 0);

        // More batches after the checkpoint land in the WAL tail.
        let tail = vec![vec![9u64, 9]];
        p.log_and_apply(None, &tail, &backend);
        drop(p);

        let rec = cots_persist::recover(&dir).unwrap();
        assert_eq!(rec.report.checkpoint_watermark, Some(2));
        assert_eq!(rec.report.base_items, 4);
        assert_eq!(rec.report.replayed_batches, 1);
        assert_eq!(rec.report.replayed_items, 2);
        assert_eq!(rec.report.recovered_items, 6);
        assert_eq!(rec.next_seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn installed_base_seeds_the_backend_and_the_next_cut_carries_it() {
        let dir = temp_dir("seed");
        let opts = PersistOptions::new(dir.clone());
        let p = Persistence::new(&opts, 0, 64).unwrap();
        let backend = backend(64);
        let publisher = SnapshotPublisher::new();
        publisher.resume_from(5);

        let base = Snapshot::new(vec![cots_core::CounterEntry::new(7u64, 40, 0)], 40);
        p.install_base(10, 5, &base, &backend).unwrap();
        assert_eq!(p.next_seq(), 10, "the log resumes at the shipped cut");
        assert_eq!(
            backend.processed(),
            40,
            "the backend holds the shipped mass"
        );
        assert!(
            p.install_base(10, 5, &base, &backend).is_err(),
            "only an empty log takes a base"
        );
        assert!(p.log_and_apply(Some(10), &[vec![7u64; 10]], &backend));

        let cut = p.checkpoint(&backend, &publisher).unwrap();
        assert_eq!(cut.watermark, 11);
        assert_eq!(
            cut.summary.total(),
            50,
            "shipped mass plus the tail, one summary"
        );
        let rec = cots_persist::recover(&dir).unwrap();
        let ckpt = rec.base.unwrap();
        assert_eq!(ckpt.epoch, 5, "publisher epoch carried into the checkpoint");
        assert_eq!(ckpt.snapshot().get(&7).unwrap().count, 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_prune_and_wal_is_truncated() {
        let dir = temp_dir("prune");
        let mut opts = PersistOptions::new(dir.clone());
        opts.segment_bytes = 64; // rotate aggressively
        let p = Persistence::new(&opts, 0, 64).unwrap();
        let backend = backend(64);
        let publisher = SnapshotPublisher::new();
        for round in 0..4u64 {
            let burst = vec![vec![round; 8], vec![round; 8]];
            p.log_and_apply(None, &burst, &backend);
            p.checkpoint(&backend, &publisher).unwrap();
        }
        let ckpts = find_checkpoints(&dir).unwrap();
        assert_eq!(ckpts.len(), KEEP_CHECKPOINTS);
        let report = p.tally.snapshot();
        assert_eq!(report.checkpoints, 4);
        assert_eq!(report.last_watermark, 8);
        assert_eq!(report.io_errors, 0);
        // Everything still recovers to the full mass.
        drop(p);
        let rec = cots_persist::recover(&dir).unwrap();
        assert_eq!(rec.report.recovered_items, 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persisted_repl_ack_pins_retention_across_restart() {
        let dir = temp_dir("retain");
        let mut opts = PersistOptions::new(dir.clone());
        opts.segment_bytes = 64; // rotate aggressively
        {
            let p = Persistence::new(&opts, 0, 64).unwrap();
            let backend = backend(64);
            for round in 0..4u64 {
                let burst = vec![vec![round; 8], vec![round; 8]];
                p.log_and_apply(None, &burst, &backend);
            }
        }
        // A standby acked up to 2 before both processes went down.
        cots_persist::store_ack(&dir, 2).unwrap();

        // Restart: before the shipper reconnects, checkpoints must not
        // prune past the persisted ack.
        let rec = cots_persist::recover(&dir).unwrap();
        let p = Persistence::new(&opts, rec.next_seq, 64).unwrap();
        let backend = backend(64);
        let publisher = SnapshotPublisher::new();
        for round in 0..4u64 {
            let burst = vec![vec![round; 8], vec![round; 8]];
            p.log_and_apply(None, &burst, &backend);
            p.checkpoint(&backend, &publisher).unwrap();
        }
        let oldest = cots_persist::oldest_segment_seq(&dir)
            .unwrap()
            .expect("segments survive");
        assert!(
            oldest <= 2,
            "pruning must hold the standby's place (oldest {oldest} > ack 2)"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bytes of WAL records on disk under `dir` (segment magics excluded).
    fn wal_record_bytes(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| cots_persist::parse_segment_name(p).is_some())
            .map(|p| std::fs::metadata(p).unwrap().len() - cots_persist::WAL_MAGIC.len() as u64)
            .sum()
    }

    #[test]
    fn tally_reports_what_the_writer_committed() {
        let dir = temp_dir("tally");
        let p = Persistence::new(&PersistOptions::new(dir.clone()), 0, 64).unwrap();
        let backend = backend(64);
        let multi = vec![vec![1u64, 2, 3], vec![4u64], vec![]];
        p.log_and_apply(None, &multi, &backend);
        let single = vec![vec![5u64, 5]];
        p.log_and_apply(None, &single, &backend);
        assert!(p.log_and_apply(Some(4), &[[6u64, 6, 6]], &backend));
        assert!(
            !p.log_and_apply(Some(9), &[[7u64]], &backend),
            "a gap logs nothing"
        );
        assert!(
            !p.log_and_apply(Some(4), &[[7u64]], &backend),
            "as does a duplicate"
        );
        assert_eq!(p.next_seq(), 5);
        let report = p.tally.snapshot();
        assert_eq!(report.wal_records, 5, "records count logical batches");
        assert_eq!(report.wal_keys, 9);
        assert_eq!(
            report.wal_bytes,
            wal_record_bytes(&dir),
            "bytes are the segment's growth"
        );
        assert_eq!(report.io_errors, 0);
        drop(p);
        let rec = cots_persist::recover(&dir).unwrap();
        assert_eq!(rec.next_seq, 5);
        assert_eq!(rec.report.replayed_items, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_commit_is_an_io_error_not_bytes_written() {
        let dir = temp_dir("commit-fails");
        let mut opts = PersistOptions::new(dir.clone());
        opts.segment_bytes = 1; // every commit opens a new segment
        let p = Persistence::new(&opts, 0, 64).unwrap();
        let backend = backend(64);
        p.log_and_apply(None, &[vec![1u64, 2]], &backend);
        let before = p.tally.snapshot();
        assert_eq!((before.wal_records, before.io_errors), (1, 0));

        // With the directory gone the next segment cannot be created, so
        // the commit fails (read-only permissions would not stop a root
        // test runner; a missing directory stops everyone).
        std::fs::remove_dir_all(&dir).unwrap();
        p.log_and_apply(None, &[vec![3u64], vec![4u64]], &backend);
        let failed = p.tally.snapshot();
        assert_eq!(failed.io_errors, 1);
        assert_eq!(
            (failed.wal_records, failed.wal_keys, failed.wal_bytes),
            (before.wal_records, before.wal_keys, before.wal_bytes),
            "nothing reached the OS, nothing is reported written"
        );
        assert_eq!(backend.processed(), 4, "the batches are applied regardless");

        // The disk comes back: the staged records go out with the next
        // commit and are counted then.
        std::fs::create_dir_all(&dir).unwrap();
        p.log_and_apply(None, &[vec![5u64]], &backend);
        let healed = p.tally.snapshot();
        assert_eq!(
            (healed.wal_records, healed.wal_keys, healed.io_errors),
            (4, 5, 1)
        );
        assert_eq!(healed.wal_bytes - before.wal_bytes, wal_record_bytes(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Bursts logged as weighted records and replayed into a fresh
        /// backend rebuild the live summary entry for entry — counts and
        /// errors included, since replay applies the same runs in the same
        /// order — and every entry keeps the envelope against exact truth.
        #[test]
        fn replayed_weighted_records_rebuild_the_summary(
            bursts in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(
                        proptest::prop_oneof![0u64..4, 0u64..48],
                        0..64,
                    ),
                    1..6,
                ),
                1..12,
            ),
        ) {
            let dir = temp_dir("replay-weighted");
            let p = Persistence::new(&PersistOptions::new(dir.clone()), 0, 8).unwrap();
            let live = backend(8);
            let mut truth = std::collections::HashMap::new();
            for mut burst in bursts {
                // As a shard worker does before the gate.
                for batch in &mut burst {
                    batch.sort_unstable();
                    for &k in batch.iter() {
                        *truth.entry(k).or_insert(0u64) += 1;
                    }
                }
                p.log_and_apply(None, &burst, &live);
            }
            proptest::prop_assert_eq!(p.tally.snapshot().io_errors, 0);
            drop(p);

            let replayed = backend(8);
            for batch in &cots_persist::recover(&dir).unwrap().batches {
                replayed.apply(&batch.keys);
            }
            let snap = live.capture();
            proptest::prop_assert_eq!(&snap, &replayed.capture());
            proptest::prop_assert_eq!(snap.total(), truth.values().sum::<u64>());
            for e in snap.entries() {
                let t = truth.get(&e.item).copied().unwrap_or(0);
                proptest::prop_assert!(
                    e.count - e.error <= t && t <= e.count,
                    "key {} truth {} outside [{}, {}]", e.item, t, e.count - e.error, e.count
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn gate_blocks_ingest_only_while_frozen() {
        let dir = temp_dir("gate");
        let opts = PersistOptions::new(dir.clone());
        let p = Arc::new(Persistence::new(&opts, 0, 64).unwrap());
        let backend = backend(64);
        let publisher = SnapshotPublisher::new();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let p = p.clone();
                let backend = backend.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        p.log_and_apply(None, &[vec![n % 16; 4]], &backend);
                        n += 1;
                    }
                    n * 4
                })
            })
            .collect();
        // Checkpoints interleave with live ingest without deadlock.
        for _ in 0..5 {
            p.checkpoint(&backend, &publisher).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Release);
        let applied: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(applied > 0);
        assert_eq!(backend.processed(), applied);
        // A final frozen cut sees exactly the applied mass.
        let total = p.checkpoint(&backend, &publisher).unwrap().summary.total();
        assert_eq!(total, applied);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
