//! Property tests for the WAL record grammar: the multi-batch *run*
//! record must be observationally identical to the legacy per-batch
//! form under `scan_wal`, and recovery must stay total — arbitrary,
//! truncated, or bit-flipped record payloads produce torn-frame
//! accounting, never a panic and never partial runs. The run record the
//! writer emits is the weighted one (each batch as its runs of equal
//! keys); its own grammar, hostile counts and weights, and a directory
//! mixing all three record forms are tested at the end.

use std::path::PathBuf;

use proptest::prelude::*;

use cots_persist::{
    encode_record, recover, scan_wal, FsyncPolicy, WalBatch, WalTailer, WalWriter,
    DEFAULT_SEGMENT_BYTES, MAX_RECORD_KEYS, RUN_MAGIC, WEIGHTED_RUN_MAGIC,
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

/// An unweighted run record payload, as builds before weighted records
/// wrote it: `[RUN_MAGIC][nbatches]([seq][nkeys][key]*)*`.
fn unweighted_payload(first_seq: u64, batches: &[Vec<u64>]) -> Vec<u8> {
    let mut p = RUN_MAGIC.to_vec();
    p.extend_from_slice(&(batches.len() as u32).to_le_bytes());
    for (seq, batch) in (first_seq..).zip(batches) {
        p.extend_from_slice(&seq.to_le_bytes());
        p.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for k in batch {
            p.extend_from_slice(&k.to_le_bytes());
        }
    }
    p
}

/// A weighted run record payload built from explicit `(key, weight)`
/// runs, so tests can state any weight, the illegal ones included.
fn weighted_payload(first_seq: u64, batches: &[Vec<(u64, u32)>]) -> Vec<u8> {
    let mut p = WEIGHTED_RUN_MAGIC.to_vec();
    p.extend_from_slice(&(batches.len() as u32).to_le_bytes());
    for (seq, runs) in (first_seq..).zip(batches) {
        p.extend_from_slice(&seq.to_le_bytes());
        p.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for &(key, weight) in runs {
            p.extend_from_slice(&key.to_le_bytes());
            p.extend_from_slice(&weight.to_le_bytes());
        }
    }
    p
}

/// `keys` as its runs of consecutive equal keys.
fn runs_of(keys: &[u64]) -> Vec<(u64, u32)> {
    let mut runs: Vec<(u64, u32)> = Vec::new();
    for &k in keys {
        match runs.last_mut() {
            Some((key, weight)) if *key == k => *weight += 1,
            _ => runs.push((k, 1)),
        }
    }
    runs
}

/// A CRC-valid record around `payload` must be refused whole: no batch
/// recovered, one torn frame.
fn assert_refused(tag: &str, payload: &[u8]) {
    let dir = dir_with_record_payload(tag, payload);
    let scan = scan_wal(&dir, 0).unwrap();
    assert_eq!(
        (scan.records, scan.torn_frames),
        (0, 1),
        "{tag}: payload accepted"
    );
    assert!(scan.batches.is_empty(), "{tag}: batches leaked");
    std::fs::remove_dir_all(&dir).unwrap();
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

/// Sorted batches over a small alphabet, so runs are long: what the
/// serving path logs.
fn sorted_batches() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..6, 0..48), 1..6).prop_map(
        |mut batches| {
            for b in &mut batches {
                b.sort_unstable();
            }
            batches
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hand-built weighted grammar is what the writer writes, and any
    /// cut of it — or any bytes past it — is refused whole.
    #[test]
    fn weighted_payloads_decode_whole_or_not_at_all(
        batches in sorted_batches(),
        first_seq in 0u64..1 << 40,
        cut in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let runs: Vec<Vec<(u64, u32)>> = batches.iter().map(|b| runs_of(b)).collect();
        let payload = weighted_payload(first_seq, &runs);

        let written = temp_dir("w-writer");
        let mut w =
            WalWriter::open(&written, first_seq, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append_run(first_seq, &batches);
        w.commit().unwrap();
        drop(w);
        let by_hand = dir_with_record_payload("w-hand", &payload);
        let seg = |dir: &PathBuf| std::fs::read(dir.join(format!("wal-{first_seq:016x}.wal")));
        prop_assert_eq!(
            std::fs::read(by_hand.join("wal-0000000000000000.wal")).unwrap(),
            seg(&written).unwrap()
        );
        let scan = scan_wal(&by_hand, 0).unwrap();
        let want: Vec<WalBatch> = (first_seq..)
            .zip(&batches)
            .map(|(seq, keys)| WalBatch { seq, keys: keys.clone() })
            .collect();
        prop_assert_eq!(scan.batches, want);
        std::fs::remove_dir_all(&written).unwrap();
        std::fs::remove_dir_all(&by_hand).unwrap();

        assert_refused("w-cut", &payload[..cut % payload.len()]);
        assert_refused("w-garbage", &[payload.as_slice(), &garbage].concat());
    }

    /// Whatever follows the weighted magic, recovery stays total.
    #[test]
    fn arbitrary_weighted_bodies_never_panic_recovery(
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let payload = [WEIGHTED_RUN_MAGIC.as_slice(), &body].concat();
        let dir = dir_with_record_payload("w-garbage-body", &payload);
        let scan = scan_wal(&dir, 0).unwrap();
        prop_assert!(scan.records > 0 || scan.torn_frames == 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Counts and weights a damaged or hostile record may claim: each is
/// refused before anything is allocated for it (an allocation for the
/// claim — up to 12 G keys here — would abort the test).
#[test]
fn hostile_weighted_counts_are_refused() {
    let cap = MAX_RECORD_KEYS as u32;
    let mut huge_nbatches = WEIGHTED_RUN_MAGIC.to_vec();
    huge_nbatches.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_refused("w-nbatches", &huge_nbatches);

    let mut huge_nruns = weighted_payload(0, &[vec![(1, 1)]]);
    huge_nruns[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_refused("w-nruns", &huge_nruns);

    assert_refused(
        "w-zero",
        &weighted_payload(0, &[vec![(1, 2), (2, 0), (3, 1)]]),
    );
    assert_refused("w-over-cap", &weighted_payload(0, &[vec![(1, cap + 1)]]));
    assert_refused(
        "w-max-weights",
        &weighted_payload(0, &[vec![(1, u32::MAX); 3]]),
    );
    // Each batch under the cap, the record over it.
    let half = vec![(1, cap / 2 + 1)];
    assert_refused(
        "w-split-over-cap",
        &weighted_payload(0, &[half.clone(), half]),
    );

    // Exactly the cap is what a record may hold.
    let dir = dir_with_record_payload("w-at-cap", &weighted_payload(0, &[vec![(5, cap)]]));
    let scan = scan_wal(&dir, 0).unwrap();
    assert_eq!((scan.records, scan.torn_frames), (1, 0));
    assert_eq!(scan.batches[0].keys.len(), MAX_RECORD_KEYS);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A directory holding all three record forms — legacy per-batch,
/// unweighted run (as older builds wrote it) and weighted run — replays
/// batch for batch, through recovery and through the tailer alike.
#[test]
fn mixed_record_forms_replay_batch_for_batch() {
    let dir = temp_dir("mixed-forms");
    let want: Vec<WalBatch> = [
        vec![3, 1, 3],
        vec![],
        vec![9, 9, 2],
        vec![4, 4, 4, 7],
        vec![8],
        vec![5, 1, 5],
        vec![6, 6],
        vec![2, 1],
    ]
    .into_iter()
    .zip(0u64..)
    .map(|(keys, seq)| WalBatch { seq, keys })
    .collect();
    let keys = |i: usize| want[i].keys.clone();

    // Segment 0, written by hand: legacy, unweighted run, weighted run.
    let mut seg = cots_persist::WAL_MAGIC.to_vec();
    let mut legacy = 0u64.to_le_bytes().to_vec();
    legacy.extend_from_slice(&3u32.to_le_bytes());
    for k in keys(0) {
        legacy.extend_from_slice(&k.to_le_bytes());
    }
    encode_record(&legacy, &mut seg);
    encode_record(&unweighted_payload(1, &[keys(1), keys(2)]), &mut seg);
    encode_record(
        &weighted_payload(3, &[runs_of(&keys(3)), runs_of(&keys(4))]),
        &mut seg,
    );
    std::fs::write(dir.join("wal-0000000000000000.wal"), seg).unwrap();

    // Segment 5, by the writer: a weighted run and a legacy record.
    let mut w = WalWriter::open(&dir, 5, FsyncPolicy::Off, DEFAULT_SEGMENT_BYTES).unwrap();
    w.append_run(5, &[keys(5), keys(6)]);
    w.append(7, &keys(7));
    w.commit().unwrap();
    drop(w);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.batches, want);
    assert_eq!((rec.report.torn_frames, rec.next_seq), (0, 8));
    assert_eq!(WalTailer::new(&dir, 0).poll(usize::MAX).unwrap(), want);
    std::fs::remove_dir_all(&dir).unwrap();
}
