//! Fault-injection property tests: arbitrary corruption of a valid data
//! directory must never panic, never invent or inflate mass, and must
//! account for what it dropped.
//!
//! Three properties, per the durability contract:
//!
//! 1. **Total decode** — truncation, bit rot, or appended garbage
//!    produce a smaller recovery, never a panic or a decode loop.
//! 2. **Never over-report** — every recovered WAL batch is byte-equal to
//!    a batch that was actually committed (matched by sequence number),
//!    with strictly increasing sequences; a corrupted checkpoint either
//!    fails to load or loads identical to what was written.
//! 3. **Conservative accounting** — when committed batches go missing,
//!    the scan flags it (`torn_frames`/`dropped_bytes`), except for the
//!    one inherently silent case: a truncation that lands exactly on a
//!    frame boundary, which is indistinguishable from a shorter log.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use cots_core::{CounterEntry, Snapshot};
use cots_persist::{
    find_checkpoints, load_checkpoint, recover, scan_wal, write_checkpoint, Checkpoint,
    FsyncPolicy, WalWriter,
};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cots-fault-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One corruption to inflict on a chosen file.
#[derive(Debug, Clone)]
enum Fault {
    /// Cut the file to `frac` of its length.
    Truncate { frac: f64 },
    /// Flip one bit at relative position `frac`.
    FlipBit { frac: f64, bit: u8 },
    /// Append raw bytes after the end.
    Garbage { bytes: Vec<u8> },
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0.0..1.0f64).prop_map(|frac| Fault::Truncate { frac }),
        ((0.0..1.0f64), 0u8..8).prop_map(|(frac, bit)| Fault::FlipBit { frac, bit }),
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(|bytes| Fault::Garbage { bytes }),
    ]
}

/// Apply `fault` to `path`. Returns `true` if the file actually changed
/// (an empty file cannot have a bit flipped, and `Truncate { frac: ~1.0 }`
/// may be a no-op).
fn inflict(path: &Path, fault: &Fault) -> bool {
    let mut bytes = std::fs::read(path).unwrap();
    let before = bytes.clone();
    match fault {
        Fault::Truncate { frac } => {
            let keep = ((bytes.len() as f64) * frac) as usize;
            bytes.truncate(keep);
        }
        Fault::FlipBit { frac, bit } => {
            if !bytes.is_empty() {
                let pos = (((bytes.len() - 1) as f64) * frac) as usize;
                bytes[pos] ^= 1 << bit;
            }
        }
        Fault::Garbage { bytes: tail } => bytes.extend_from_slice(tail),
    }
    let changed = bytes != before;
    if changed {
        std::fs::write(path, &bytes).unwrap();
    }
    changed
}

/// Commit `batches` to a fresh WAL under `dir` with tiny segments so
/// multi-segment behavior is exercised; sequence numbers are the batch
/// indices.
fn build_wal(dir: &Path, batches: &[Vec<u64>]) {
    let mut writer = WalWriter::open(dir, 0, FsyncPolicy::Off, 128).unwrap();
    for (seq, keys) in batches.iter().enumerate() {
        writer.append(seq as u64, keys);
        writer.commit().unwrap();
    }
}

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| cots_persist::parse_segment_name(p).is_some())
        .collect();
    found.sort();
    found
}

/// A semantically valid checkpoint over `counts` (item = index).
fn make_checkpoint(counts: &[u64], watermark: u64, epoch: u64) -> Checkpoint {
    let mut sorted = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = sorted.iter().sum();
    let entries: Vec<CounterEntry<u64>> = sorted
        .iter()
        .enumerate()
        .map(|(i, &c)| CounterEntry::new(i as u64, c, c / 2))
        .collect();
    let capacity = entries.len().max(1);
    Checkpoint::from_snapshot(watermark, epoch, capacity, &Snapshot::new(entries, total))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corrupting one WAL file anywhere leaves a scan that recovers only
    /// genuine batches and owns up to what it lost.
    #[test]
    fn corrupted_wal_never_over_reports(
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..24), 1..16),
        which in 0.0..1.0f64,
        fault in fault_strategy(),
    ) {
        let dir = temp_dir("wal");
        build_wal(&dir, &batches);

        // Control: an untouched directory recovers everything exactly.
        let clean = scan_wal(&dir, 0).unwrap();
        prop_assert_eq!(clean.batches.len(), batches.len());
        for b in &clean.batches {
            prop_assert_eq!(&b.keys, &batches[b.seq as usize]);
        }
        prop_assert_eq!(clean.torn_frames, 0);
        prop_assert_eq!(clean.dropped_bytes, 0);

        let segments = wal_segments(&dir);
        let target = &segments[((segments.len() - 1) as f64 * which) as usize];
        let changed = inflict(target, &fault);

        let scan = scan_wal(&dir, 0).unwrap();
        // Never over-report: every batch is one we committed, unaltered,
        // in strictly increasing sequence order.
        let mut last: Option<u64> = None;
        for b in &scan.batches {
            prop_assert!((b.seq as usize) < batches.len(), "invented seq {}", b.seq);
            prop_assert_eq!(&b.keys, &batches[b.seq as usize], "altered payload at seq {}", b.seq);
            prop_assert!(last.is_none_or(|l| b.seq > l), "non-monotone seq {}", b.seq);
            last = Some(b.seq);
        }
        prop_assert!(scan.batches.len() <= batches.len());
        prop_assert!(scan.dropped_bytes <= scan.bytes_scanned);

        // Conservative accounting: losing a committed batch is flagged,
        // except for a truncation that lands exactly on a frame boundary
        // (indistinguishable from a shorter log by construction).
        let missing = batches.len() - scan.batches.len();
        if missing > 0 && changed {
            prop_assert!(
                scan.torn_frames > 0
                    || scan.dropped_bytes > 0
                    || matches!(fault, Fault::Truncate { .. }),
                "{missing} batches vanished silently under {fault:?}"
            );
        }
        if !changed {
            prop_assert_eq!(missing, 0, "no-op fault must not lose batches");
        }

        // The full pipeline tolerates the same directory.
        let rec = recover(&dir).unwrap();
        prop_assert_eq!(rec.batches.len(), scan.batches.len());
        let replayed: u64 = rec.batches.iter().map(|b| b.keys.len() as u64).sum();
        prop_assert_eq!(rec.report.replayed_items, replayed);
        prop_assert_eq!(rec.report.recovered_items, replayed);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A corrupted checkpoint either refuses to load or loads exactly
    /// what was written — never a plausible-but-different summary.
    #[test]
    fn corrupted_checkpoint_loads_exact_or_errors(
        counts in proptest::collection::vec(1u64..1_000, 1..32),
        watermark in 0u64..1 << 40,
        epoch in 0u64..1 << 30,
        fault in fault_strategy(),
    ) {
        let dir = temp_dir("ckpt");
        let original = make_checkpoint(&counts, watermark, epoch);
        let (path, _) = write_checkpoint(&dir, &original).unwrap();

        prop_assert_eq!(&load_checkpoint(&path).unwrap(), &original);
        inflict(&path, &fault);

        if let Ok(loaded) = load_checkpoint(&path) {
            prop_assert_eq!(&loaded, &original, "corruption slipped through");
        }

        // recover() falls back to "no checkpoint" rather than failing,
        // and counts the rejected file.
        let rec = recover(&dir).unwrap();
        match &rec.base {
            Some(base) => prop_assert_eq!(base, &original),
            None => prop_assert!(rec.report.corrupt_checkpoints > 0 ||
                find_checkpoints(&dir).unwrap().is_empty()),
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
