//! Property tests for the WAL record grammar: the multi-batch *run*
//! record must be observationally identical to the legacy per-batch
//! form under `scan_wal`, and recovery must stay total — arbitrary,
//! truncated, or bit-flipped record payloads produce torn-frame
//! accounting, never a panic and never partial runs.

use std::path::PathBuf;

use proptest::prelude::*;

use cots_persist::{
    encode_record, scan_wal, FsyncPolicy, WalTailer, WalWriter, DEFAULT_SEGMENT_BYTES,
};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cots-persist-props-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A hand-built single-segment WAL directory: magic plus one CRC-framed
/// record holding `payload`.
fn dir_with_record_payload(tag: &str, payload: &[u8]) -> PathBuf {
    let dir = temp_dir(tag);
    let mut bytes = cots_persist::WAL_MAGIC.to_vec();
    encode_record(payload, &mut bytes);
    std::fs::write(dir.join("wal-0000000000000000.wal"), bytes).unwrap();
    dir
}

/// Batches biased toward the edges: empty, single-key, bulky.
fn batches() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<u64>(), 1..=1),
            proptest::collection::vec(any::<u64>(), 2..64),
        ],
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_records_scan_identically_to_per_batch_records(
        batches in batches(),
        first_seq in 0u64..1 << 40,
    ) {
        let run_dir = temp_dir("run");
        let mut w =
            WalWriter::open(&run_dir, first_seq, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append_run(first_seq, &batches);
        let run_stats = w.commit().unwrap();
        drop(w);

        let legacy_dir = temp_dir("legacy");
        let mut w =
            WalWriter::open(&legacy_dir, first_seq, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES)
                .unwrap();
        for (i, batch) in batches.iter().enumerate() {
            w.append(first_seq + i as u64, batch);
        }
        let legacy_stats = w.commit().unwrap();
        drop(w);

        prop_assert_eq!(run_stats.records, legacy_stats.records);
        prop_assert_eq!(run_stats.keys, legacy_stats.keys);
        let run_scan = scan_wal(&run_dir, 0).unwrap();
        let legacy_scan = scan_wal(&legacy_dir, 0).unwrap();
        prop_assert_eq!(&run_scan.batches, &legacy_scan.batches);
        prop_assert_eq!(run_scan.records, legacy_scan.records);
        prop_assert_eq!(run_scan.max_seq, legacy_scan.max_seq);
        prop_assert_eq!(run_scan.torn_frames, 0);
        std::fs::remove_dir_all(&run_dir).unwrap();
        std::fs::remove_dir_all(&legacy_dir).unwrap();
    }

    /// The running service logs every drain as a run, a drain of one
    /// batch included: to both readers that run of one is the legacy
    /// single-batch record.
    #[test]
    fn run_of_one_reads_as_the_legacy_single_record(
        keys in proptest::collection::vec(any::<u64>(), 0..64),
        seq in 0u64..1 << 40,
    ) {
        let mut read = Vec::new();
        for run in [true, false] {
            let dir = temp_dir(if run { "one-run" } else { "one-legacy" });
            let mut w =
                WalWriter::open(&dir, seq, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
            if run {
                w.append_run(seq, &[keys.as_slice()]);
            } else {
                w.append(seq, &keys);
            }
            let stats = w.commit().unwrap();
            prop_assert_eq!((stats.records, stats.keys), (1, keys.len() as u64));
            let scan = scan_wal(&dir, 0).unwrap();
            prop_assert_eq!(scan.torn_frames, 0);
            let tailed = WalTailer::new(&dir, 0).poll(usize::MAX).unwrap();
            read.push((scan.batches, scan.records, scan.max_seq, tailed));
            std::fs::remove_dir_all(&dir).unwrap();
        }
        prop_assert_eq!(&read[0], &read[1]);
        prop_assert_eq!(&read[0].0, &read[0].3, "scan and tail agree with each other");
    }

    #[test]
    fn arbitrary_record_payloads_never_panic_recovery(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // A CRC-valid frame around arbitrary bytes: the payload grammar
        // either parses or the frame is counted torn — recovery is total.
        let dir = dir_with_record_payload("garbage", &payload);
        let scan = scan_wal(&dir, 0).unwrap();
        prop_assert!(scan.records > 0 || scan.torn_frames == 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_run_records_never_panic_and_never_leak_partial_runs(
        batches in batches(),
        bit in any::<usize>(),
    ) {
        let dir = temp_dir("flip");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append_run(0, &batches);
        w.commit().unwrap();
        let path = w.segment_path().to_path_buf();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let start = cots_persist::WAL_MAGIC.len() * 8;
        let bit = start + bit % (bytes.len() * 8 - start);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();

        let n = batches.len() as u64;
        let scan = scan_wal(&dir, 0).unwrap();
        // The CRC catches nearly every flip (torn frame, nothing
        // recovered); a flip the CRC itself absorbs is impossible for a
        // single bit, so the only alternative is a clean full run.
        prop_assert!(
            scan.records == 0 || scan.records == n,
            "partial run surfaced: {} of {} records",
            scan.records,
            n
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_run_records_recover_nothing_not_partial_runs(
        batches in batches(),
        cut in any::<usize>(),
    ) {
        let dir = temp_dir("cut");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append_run(0, &batches);
        w.commit().unwrap();
        let path = w.segment_path().to_path_buf();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        // Cut strictly inside the record (past the segment magic).
        let keep = cots_persist::WAL_MAGIC.len()
            + cut % (bytes.len() - cots_persist::WAL_MAGIC.len());
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let scan = scan_wal(&dir, 0).unwrap();
        prop_assert_eq!(scan.records, 0, "a torn run must be all-or-nothing");
        prop_assert!(scan.batches.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
