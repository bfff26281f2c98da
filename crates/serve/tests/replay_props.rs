//! Replaying the WAL from its runs, on one thread per shard
//! (`Partitioned::replay` over `recover_runs`), must leave exactly the
//! summary that applying every recovered batch key by key leaves
//! (`Partitioned::apply` over `recover`, one batch at a time): the same
//! capture, entry for entry and in total. The directory mixes every record
//! form the readers take — weighted records of sorted and of unsorted
//! batches, legacy per-batch records and unweighted run records — and its
//! batches are mixed-owner at every shard count tested.

use std::path::PathBuf;

use proptest::collection::vec;
use proptest::prelude::*;

use cots_persist::{
    encode_record, recover, recover_runs, RUN_MAGIC, WAL_MAGIC, WEIGHTED_RUN_MAGIC,
};
use cots_serve::shard::Partitioned;

fn temp_dir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cots-serve-replay-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// How one record is written.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// Weighted runs of the batch sorted first: what the served WAL holds.
    Sorted,
    /// Weighted runs of the batch as given.
    Unsorted,
    /// One legacy per-batch record per batch.
    Legacy,
    /// An unweighted run record: every key stored.
    Unweighted,
}

fn form() -> impl Strategy<Value = Form> {
    prop_oneof![
        Just(Form::Sorted),
        Just(Form::Unsorted),
        Just(Form::Legacy),
        Just(Form::Unweighted),
    ]
}

/// One batch: heavy repeats, all-distinct keys, or a light mix.
fn batch() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        vec(0u64..16, 0..200),
        (0u64..1_000_000, 1u64..200).prop_map(|(base, n)| (base..base + n).collect()),
        vec(0u64..512, 0..200),
    ]
}

/// `keys` as its runs of consecutive equal keys.
fn runs_of(keys: &[u64]) -> Vec<(u64, u32)> {
    keys.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32))
        .collect()
}

/// The payload of one record of `form` holding `batches` from `seq` on.
fn payloads(form: Form, seq: u64, batches: &[Vec<u64>]) -> Vec<Vec<u8>> {
    let header = |magic: &[u8]| {
        let mut p = magic.to_vec();
        p.extend_from_slice(&(batches.len() as u32).to_le_bytes());
        p
    };
    let keys_batch = |p: &mut Vec<u8>, seq: u64, keys: &[u64]| {
        p.extend_from_slice(&seq.to_le_bytes());
        p.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for k in keys {
            p.extend_from_slice(&k.to_le_bytes());
        }
    };
    match form {
        Form::Sorted | Form::Unsorted => {
            let mut p = header(WEIGHTED_RUN_MAGIC);
            for (seq, batch) in (seq..).zip(batches) {
                let mut keys = batch.clone();
                if matches!(form, Form::Sorted) {
                    keys.sort_unstable();
                }
                let runs = runs_of(&keys);
                p.extend_from_slice(&seq.to_le_bytes());
                p.extend_from_slice(&(runs.len() as u32).to_le_bytes());
                for (key, weight) in runs {
                    p.extend_from_slice(&key.to_le_bytes());
                    p.extend_from_slice(&weight.to_le_bytes());
                }
            }
            vec![p]
        }
        Form::Unweighted => {
            let mut p = header(RUN_MAGIC);
            for (seq, batch) in (seq..).zip(batches) {
                keys_batch(&mut p, seq, batch);
            }
            vec![p]
        }
        Form::Legacy => (seq..)
            .zip(batches)
            .map(|(seq, batch)| {
                let mut p = Vec::new();
                keys_batch(&mut p, seq, batch);
                p
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_by_runs_equals_replay_by_keys(
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
        capacity in 2usize..24,
        records in vec((form(), vec(batch(), 1..4)), 1..12),
    ) {
        let dir = temp_dir();
        let mut segment = WAL_MAGIC.to_vec();
        let mut seq = 0u64;
        for (form, batches) in &records {
            for payload in payloads(*form, seq, batches) {
                prop_assert!(encode_record(&payload, &mut segment).is_some());
            }
            seq += batches.len() as u64;
        }
        std::fs::write(dir.join("wal-0000000000000000.wal"), segment).unwrap();

        let by_keys = Partitioned::new(shards, capacity).unwrap();
        let rec = recover(&dir).unwrap();
        prop_assert_eq!(rec.batches.len() as u64, seq);
        for batch in &rec.batches {
            by_keys.apply(&batch.keys);
        }
        let by_runs = Partitioned::new(shards, capacity).unwrap();
        let rec_runs = recover_runs(&dir).unwrap();
        prop_assert_eq!(
            &rec_runs.report,
            &cots_core::RecoveryReport { elapsed_secs: rec_runs.report.elapsed_secs, ..rec.report }
        );
        by_runs.replay(&rec_runs.batches).unwrap();

        let (want, got) = (by_keys.capture(), by_runs.capture());
        prop_assert_eq!(got.total(), want.total());
        prop_assert_eq!(got.entries(), want.entries());
        prop_assert_eq!(by_runs.processed(), by_keys.processed());
        prop_assert_eq!(by_runs.monitored(), by_keys.monitored());
        by_runs.check_invariants();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
