//! Crash-recovery pipeline: newest valid checkpoint + WAL tail.
//!
//! [`recover`] turns a data directory into (a) an optional **seed
//! summary** (the newest checkpoint that passed both CRC and semantic
//! validation), (b) the ordered WAL batches with `seq >= watermark` to
//! replay on top of it, and (c) a [`RecoveryReport`] quantifying
//! what was recovered and what was lost. [`recover_runs`] is the same
//! pipeline with every batch left as the `(key, weight)` runs it was
//! logged as — what the serving stack replays — and [`recover`] expands
//! those runs into keys.
//!
//! The report's `elapsed_secs` covers what this module does: checkpoint
//! load and WAL scan. A caller that goes on to seed and replay (the
//! serving stack) overwrites it with the time of the whole recovery.
//!
//! ## Soundness
//!
//! The serving stack seeds its summaries from the checkpoint
//! (`Partitioned::seed`: the checkpoint's counters, errors and total
//! installed into empty per-shard summaries) and replays the WAL tail on
//! top, so a restarted service resumes the one summary it had and the
//! `count ≥ true ≥ count − error` envelope carries over with it. Loss is
//! one-sided: a torn or corrupt frame can only *remove* mass from the recovered state (under-count),
//! never add it, and the removed mass is surfaced as `torn_frames` /
//! `dropped_bytes` so operators and tests can bound the gap versus the
//! true stream.
//!
//! AUDIT: total — recovery must survive arbitrary directory contents;
//! enforced by `cargo xtask audit` (lint-totality).

use std::path::Path;
use std::time::Instant;

use cots_core::{RecoveryReport, Result};

use crate::checkpoint::{find_checkpoints, load_checkpoint, Checkpoint};
use crate::wal::{scan_wal_runs, WalBatch, WalRuns};

/// The outcome of scanning a data directory, its WAL batches as keys
/// ([`WalBatch`], from [`recover`]) or as runs ([`WalRuns`], from
/// [`recover_runs`]).
#[derive(Debug)]
pub struct Recovery<B = WalBatch> {
    /// Newest checkpoint that decoded and validated, if any.
    pub base: Option<Checkpoint>,
    /// WAL batches not covered by `base`, in sequence order.
    pub batches: Vec<B>,
    /// First unused sequence number: the restarted WAL writer starts here.
    pub next_seq: u64,
    /// Accounting for the stats endpoint and the recovery tests.
    pub report: RecoveryReport,
}

/// Recover the durable state under `dir`, creating the directory if this
/// is a first boot: [`recover_runs`], every batch expanded into its keys.
pub fn recover(dir: &Path) -> Result<Recovery> {
    let rec = recover_runs(dir)?;
    Ok(Recovery {
        base: rec.base,
        batches: rec.batches.into_iter().map(WalRuns::expand).collect(),
        next_seq: rec.next_seq,
        report: rec.report,
    })
}

/// Recover the durable state under `dir`, creating the directory if this
/// is a first boot, every WAL batch as the runs it was logged as.
///
/// Checkpoints are tried newest-first; every file that fails CRC or
/// semantic validation is counted in `corrupt_checkpoints` and the next
/// older one is tried. A directory with no usable checkpoint recovers
/// from the WAL alone (from sequence 0). Never panics on any directory
/// contents; I/O errors (unreadable directory) are returned as errors.
pub fn recover_runs(dir: &Path) -> Result<Recovery<WalRuns>> {
    let start = Instant::now();
    std::fs::create_dir_all(dir)?;

    let mut base: Option<Checkpoint> = None;
    let mut corrupt_checkpoints = 0u64;
    for path in find_checkpoints(dir)? {
        match load_checkpoint(&path) {
            Ok(ckpt) => {
                // With the `invariants` feature the recovered summary also
                // has to pass the full structural audit (sort order, error
                // bounds, guaranteed mass); a failure demotes the file to
                // corrupt and recovery falls back to the next older one.
                #[cfg(feature = "invariants")]
                {
                    use cots_core::CheckInvariants;
                    if !ckpt.snapshot().violations().is_empty() {
                        corrupt_checkpoints += 1;
                        continue;
                    }
                }
                base = Some(ckpt);
                break;
            }
            Err(_) => corrupt_checkpoints += 1,
        }
    }

    let watermark = base.as_ref().map_or(0, |c| c.watermark);
    let scan = scan_wal_runs(dir, watermark)?;

    let replayed_batches = scan.batches.len() as u64;
    let replayed_items: u64 = scan.batches.iter().map(|b| b.keys() as u64).sum();
    let base_items = base.as_ref().map_or(0, |c| c.total);
    let next_seq = scan
        .max_seq
        .map_or(watermark, |m| m.saturating_add(1).max(watermark));

    let report = RecoveryReport {
        checkpoint_watermark: base.as_ref().map(|c| c.watermark),
        base_items,
        replayed_batches,
        replayed_items,
        recovered_items: base_items + replayed_items,
        segments_scanned: scan.segments,
        bytes_scanned: scan.bytes_scanned,
        torn_frames: scan.torn_frames,
        dropped_bytes: scan.dropped_bytes,
        corrupt_checkpoints,
        elapsed_secs: start.elapsed().as_secs_f64(),
    };

    Ok(Recovery {
        base,
        batches: scan.batches,
        next_seq,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{prune_checkpoints, write_checkpoint};
    use crate::wal::{FsyncPolicy, WalWriter, DEFAULT_SEGMENT_BYTES};
    use cots_core::CounterEntry;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cots-persist-rec-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        // recover() itself creates the directory.
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ckpt(watermark: u64, total: u64) -> Checkpoint {
        Checkpoint {
            watermark,
            epoch: 1,
            capacity: 8,
            total,
            entries: vec![CounterEntry::new(1, total, 0)],
        }
    }

    #[test]
    fn empty_directory_is_a_clean_boot() {
        let dir = temp_dir("empty");
        let rec = recover(&dir).unwrap();
        assert!(rec.base.is_none());
        assert!(rec.batches.is_empty());
        assert_eq!(rec.next_seq, 0);
        assert_eq!(
            rec.report,
            RecoveryReport {
                elapsed_secs: rec.report.elapsed_secs,
                ..RecoveryReport::default()
            }
        );
        assert!(dir.is_dir(), "recover creates the data dir");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_tail() {
        let dir = temp_dir("tail");
        fs::create_dir_all(&dir).unwrap();
        write_checkpoint(&dir, &ckpt(3, 30)).unwrap();
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        for seq in 0..5u64 {
            w.append(seq, &[seq, seq]);
        }
        w.commit().unwrap();
        drop(w);

        let rec = recover(&dir).unwrap();
        let base = rec.base.as_ref().unwrap();
        assert_eq!(base.watermark, 3);
        // Only seq 3 and 4 are past the watermark.
        let seqs: Vec<u64> = rec.batches.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(rec.next_seq, 5);
        assert_eq!(rec.report.checkpoint_watermark, Some(3));
        assert_eq!(rec.report.base_items, 30);
        assert_eq!(rec.report.replayed_batches, 2);
        assert_eq!(rec.report.replayed_items, 4);
        assert_eq!(rec.report.recovered_items, 34);
        assert_eq!(rec.report.corrupt_checkpoints, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let dir = temp_dir("fallback");
        fs::create_dir_all(&dir).unwrap();
        write_checkpoint(&dir, &ckpt(2, 20)).unwrap();
        let (newest, _) = write_checkpoint(&dir, &ckpt(7, 70)).unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.base.as_ref().unwrap().watermark, 2);
        assert_eq!(rec.report.corrupt_checkpoints, 1);
        assert_eq!(rec.next_seq, 2, "next_seq falls back with the checkpoint");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_checkpoints_corrupt_recovers_from_wal_alone() {
        let dir = temp_dir("wal-only");
        fs::create_dir_all(&dir).unwrap();
        let (p, _) = write_checkpoint(&dir, &ckpt(4, 40)).unwrap();
        fs::write(&p, b"not a checkpoint at all").unwrap();
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(0, &[9]);
        w.append(1, &[9, 9]);
        w.commit().unwrap();
        drop(w);

        let rec = recover(&dir).unwrap();
        assert!(rec.base.is_none());
        assert_eq!(rec.report.corrupt_checkpoints, 1);
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.report.recovered_items, 3);
        assert_eq!(rec.next_seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_prune_recover_is_stable() {
        let dir = temp_dir("prune");
        fs::create_dir_all(&dir).unwrap();
        for wm in 1..=4u64 {
            write_checkpoint(&dir, &ckpt(wm, wm * 10)).unwrap();
        }
        assert_eq!(prune_checkpoints(&dir, 2).unwrap(), 2);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.base.as_ref().unwrap().watermark, 4);
        // Newest two survive: damaging the newest still leaves a fallback.
        assert_eq!(find_checkpoints(&dir).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
