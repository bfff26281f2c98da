//! Property tests for the replication layer.
//!
//! Two obligations: the `REPL_*` wire codec must be **total** (any
//! damaged frame decodes to a clean error, never a panic), and shipping
//! must be **faithful** (applying any prefix of the planned frames is
//! indistinguishable from locally replaying the same WAL prefix).

use proptest::prelude::*;

use cots::CotsEngine;
use cots_core::{CotsConfig, QueryableSummary};
use cots_persist::{scan_wal, FsyncPolicy, WalTailer, WalWriter};
use cots_serve::protocol::{decode, encode, ReplFrame, Request, Response};
use cots_serve::repl::{expected_ack, is_contiguous, plan_chunks, runs_for};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cots-ship-props-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small strategy for REPL batch runs: up to 12 batches of up to 24
/// keys each, starting at an arbitrary base sequence.
fn batch_run() -> impl Strategy<Value = (u64, Vec<Vec<u64>>)> {
    (
        0u64..1_000,
        proptest::collection::vec(proptest::collection::vec(0u64..64, 0..24), 1..12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode → damage → decode must be total: truncations, bit flips
    /// (lossy-UTF-8 repaired), and arbitrary garbage all produce either
    /// a valid request or a typed error — never a panic.
    #[test]
    fn repl_request_decode_is_total(
        (base, runs) in batch_run(),
        keep in any::<usize>(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let request = Request::ReplBatch {
            lineage: base,
            batches: runs
                .iter()
                .enumerate()
                .map(|(i, keys)| ReplFrame { seq: base + i as u64, keys: keys.clone() })
                .collect(),
        };
        let payload = encode(&request);

        // The clean payload round-trips.
        let back: Request = decode(&payload).unwrap();
        prop_assert_eq!(&back, &request);

        // Truncation: a strict prefix (cut at a char boundary).
        let mut cut = keep % payload.len();
        while !payload.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = decode::<Request>(&payload[..cut]);

        // Bit flip: repair to UTF-8 the way a socket reader would.
        let mut bytes = payload.clone().into_bytes();
        let at = flip_at % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        let flipped = String::from_utf8_lossy(&bytes);
        if let Ok(req) = decode::<Request>(&flipped) {
            // A surviving decode must still be a REPL_BATCH (the tag
            // byte landed outside the flipped position).
            prop_assert!(matches!(req, Request::ReplBatch { .. } | Request::Ingest { .. }
                | Request::Hello { .. } | Request::Query(_) | Request::Stats
                | Request::Snapshot | Request::SnapshotPage { .. } | Request::ClusterStats
                | Request::Checkpoint | Request::Shutdown | Request::ReplSubscribe { .. }
                | Request::ReplSnapshot { .. } | Request::ReplPromote));
        }

        // Arbitrary garbage.
        let _ = decode::<Request>(&String::from_utf8_lossy(&garbage));
        let _ = decode::<Response>(&String::from_utf8_lossy(&garbage));
    }

    /// Plans are loss-free and contiguous: every chunk is a gap-free
    /// run, concatenating the chunks reproduces the input exactly, and
    /// the expected acks are monotone.
    #[test]
    fn plans_partition_the_run((base, runs) in batch_run(), budget in 1usize..64) {
        let batches: Vec<cots_persist::WalBatch> = runs
            .iter()
            .enumerate()
            .map(|(i, keys)| cots_persist::WalBatch { seq: base + i as u64, keys: keys.clone() })
            .collect();
        let chunks = plan_chunks(&batches, budget);
        let flat: Vec<(u64, Vec<u64>)> =
            chunks.iter().flat_map(|c| c.iter()).map(|b| (b.seq, b.keys.clone())).collect();
        let original: Vec<(u64, Vec<u64>)> =
            batches.iter().map(|b| (b.seq, b.keys.clone())).collect();
        prop_assert_eq!(flat, original, "chunking loses or reorders nothing");
        let mut last_ack = None;
        for chunk in &chunks {
            prop_assert!(is_contiguous(chunk));
            let ack = expected_ack(chunk);
            prop_assert!(ack > last_ack, "acks advance monotonically");
            last_ack = ack;
        }
    }

    /// Shipping is replay: write a WAL, tail + plan it like the shipper,
    /// apply an arbitrary prefix of the planned frames to one engine,
    /// and locally replay the same sequence prefix into another. The
    /// two summaries must be identical.
    #[test]
    fn shipped_prefix_equals_local_replay(
        runs in proptest::collection::vec(proptest::collection::vec(0u64..32, 1..16), 1..10),
        budget in 1usize..48,
        prefix in any::<usize>(),
    ) {
        let dir = temp_dir("equiv");
        let mut w = WalWriter::open(&dir, 0, FsyncPolicy::Off, 64 * 1024).unwrap();
        for (i, keys) in runs.iter().enumerate() {
            w.append(i as u64, keys);
        }
        w.commit().unwrap();
        drop(w);

        // Shipper's view: tail the directory, plan the frames.
        let mut tailer = WalTailer::new(&dir, 0);
        let mut tailed = Vec::new();
        loop {
            let got = tailer.poll(budget).unwrap();
            if got.is_empty() {
                break;
            }
            tailed.extend(got);
        }
        let frames: Vec<(u64, &[u64])> =
            plan_chunks(&tailed, budget).into_iter().flat_map(runs_for).collect();
        prop_assert_eq!(frames.len(), runs.len());

        // Apply a prefix of the shipped frames (what a standby that lost
        // its primary mid-stream holds)...
        let cut = prefix % (frames.len() + 1);
        let shipped = CotsEngine::new(CotsConfig::for_capacity(16).unwrap()).unwrap();
        for (_, keys) in frames.iter().take(cut) {
            shipped.delegate_batch(keys);
        }
        shipped.finalize();

        // ...and replay the same sequence prefix straight from the WAL.
        let replayed = CotsEngine::new(CotsConfig::for_capacity(16).unwrap()).unwrap();
        let scan = scan_wal(&dir, 0).unwrap();
        for b in scan.batches.iter().filter(|b| (b.seq as usize) < cut) {
            replayed.delegate_batch(&b.keys);
        }
        replayed.finalize();

        let a = QueryableSummary::snapshot(&shipped);
        let b = QueryableSummary::snapshot(&replayed);
        prop_assert_eq!(a.total(), b.total());
        let mut ea: Vec<_> = a.entries().iter().map(|e| (e.item, e.count, e.error)).collect();
        let mut eb: Vec<_> = b.entries().iter().map(|e| (e.item, e.count, e.error)).collect();
        ea.sort_unstable();
        eb.sort_unstable();
        prop_assert_eq!(ea, eb, "shipped prefix and local replay agree exactly");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
