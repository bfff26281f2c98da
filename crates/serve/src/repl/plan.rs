//! Shipping plans: turning tailed WAL batches into bounded `REPL_BATCH`
//! frames and reasoning about the acks they should produce.
//!
//! Plans are *subslices* of the tailer's batch run — no keys are copied
//! at planning time; the shipper hands the borrowed slices ([`runs_for`])
//! to `Client::encode_repl_batch`, which frames them as BIN1.
//!
//! AUDIT: total — planning runs on every shipper poll against data read
//! back from disk; it must never panic. Enforced by `cargo xtask audit`
//! (lint-totality).

use cots_persist::WalBatch;

/// Chunk a run of tailed WAL batches into `REPL_BATCH`-sized subslices,
/// each carrying at most `max_keys` keys. Batches are never split — a
/// batch is the unit of ack — so a single batch larger than `max_keys`
/// still ships, alone in its own chunk. Order is preserved.
pub fn plan_chunks(batches: &[WalBatch], max_keys: usize) -> Vec<&[WalBatch]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut current_keys = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        let n = batch.keys.len();
        if i > start && current_keys.saturating_add(n) > max_keys {
            if let Some(chunk) = batches.get(start..i) {
                chunks.push(chunk);
            }
            start = i;
            current_keys = 0;
        }
        current_keys = current_keys.saturating_add(n);
    }
    if let Some(chunk) = batches.get(start..) {
        if !chunk.is_empty() {
            chunks.push(chunk);
        }
    }
    chunks
}

/// Borrowed `(seq, keys)` runs for one planned chunk, in the shape
/// `Client::encode_repl_batch` frames without copying keys.
pub fn runs_for(chunk: &[WalBatch]) -> Vec<(u64, &[u64])> {
    chunk.iter().map(|b| (b.seq, b.keys.as_slice())).collect()
}

/// The ack a standby that applies every batch of this chunk will return:
/// one past the last sequence shipped. `None` for an empty chunk.
pub fn expected_ack(chunk: &[WalBatch]) -> Option<u64> {
    chunk.last().map(|b| b.seq.saturating_add(1))
}

/// Whether a chunk is a gap-free run of consecutive sequences. The
/// tailer only yields such runs; a violation here means the plan (not
/// the log) is wrong, so the shipper re-subscribes instead of sending.
pub fn is_contiguous(chunk: &[WalBatch]) -> bool {
    chunk
        .windows(2)
        .all(|w| matches!(w, [a, b] if b.seq == a.seq.saturating_add(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(seq: u64, n: usize) -> WalBatch {
        WalBatch {
            seq,
            keys: vec![seq; n],
        }
    }

    #[test]
    fn chunks_respect_the_key_budget_without_splitting_batches() {
        let batches = vec![batch(0, 3), batch(1, 3), batch(2, 3), batch(3, 1)];
        let chunks = plan_chunks(&batches, 6);
        assert_eq!(chunks.len(), 2);
        assert_eq!(
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
            vec![2, 2],
            "3+3 fills the budget, 3+1 goes next"
        );
        let seqs: Vec<u64> = chunks
            .iter()
            .flat_map(|c| c.iter())
            .map(|b| b.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "order preserved across chunks");
    }

    #[test]
    fn oversized_batch_ships_alone() {
        let batches = vec![batch(0, 1), batch(1, 100), batch(2, 1)];
        let chunks = plan_chunks(&batches, 10);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1][0].keys.len(), 100);
    }

    #[test]
    fn empty_input_plans_nothing() {
        assert!(plan_chunks(&[], 10).is_empty());
        assert_eq!(expected_ack(&[]), None);
        assert!(is_contiguous(&[]));
    }

    #[test]
    fn expected_ack_is_one_past_the_last_seq() {
        let batches = [batch(5, 1), batch(6, 2)];
        let chunks = plan_chunks(&batches, 100);
        assert_eq!(chunks.len(), 1);
        assert_eq!(expected_ack(chunks[0]), Some(7));
        assert!(is_contiguous(chunks[0]));
    }

    #[test]
    fn gaps_are_detected() {
        let batches = [batch(3, 0), batch(5, 0)];
        assert!(!is_contiguous(&batches));
    }
}
