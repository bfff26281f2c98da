//! The exact-truth oracle over a cycled block, checked against a
//! brute-force count of the materialised stream.

use std::collections::HashMap;

use cots_benchmark::block::Block;
use cots_core::CounterEntry;

/// A small skewed block: key `k` (1-based) appears about `48 / k` times.
fn block() -> Block {
    let mut keys = Vec::new();
    for k in 1..=24u64 {
        for _ in 0..(48 / k).max(1) {
            keys.push(k * 1000);
        }
    }
    // Deterministic shuffle so prefixes are not sorted by key.
    let n = keys.len();
    for i in 0..n {
        keys.swap(i, (i * 7919 + 13) % n);
    }
    Block::from_vec(keys)
}

/// The first `n` keys of the cycled stream, counted the slow way.
fn brute(block: &Block, n: u64) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for i in 0..n {
        *counts
            .entry(block.keys()[(i % block.len() as u64) as usize])
            .or_insert(0) += 1;
    }
    counts
}

#[test]
fn counts_cover_whole_cycles_plus_the_partial_last_one() {
    let b = block();
    let len = b.len() as u64;
    let all: Vec<u64> = (1..=25u64).map(|k| k * 1000).collect(); // 25000 never occurs
    for n in [
        0,
        1,
        7,
        len - 1,
        len,
        len + 1,
        3 * len,
        3 * len + 17,
        10 * len - 1,
    ] {
        let truth = brute(&b, n);
        let got = b.counts(&all, n);
        for k in &all {
            assert_eq!(
                got[k],
                truth.get(k).copied().unwrap_or(0),
                "key {k} at n={n}"
            );
        }
    }
}

#[test]
fn frames_walk_the_cycled_stream() {
    let b = Block::from_vec((0..16u64).collect());
    assert_eq!(b.frame(0, 4), &[0, 1, 2, 3]);
    assert_eq!(b.frame(12, 4), &[12, 13, 14, 15]);
    // Position 16 is the start of the second cycle.
    assert_eq!(b.frame(16, 4), &[0, 1, 2, 3]);
    assert_eq!(b.frame(5 * 16 + 8, 8), &[8, 9, 10, 11, 12, 13, 14, 15]);
}

#[test]
fn the_frequent_set_is_exact_at_every_prefix() {
    let b = block();
    let len = b.len() as u64;
    for phi in [0.02, 0.05, 0.2] {
        for n in [5, len / 2, len, len + 3, 2 * len + len / 3, 7 * len + 1] {
            let threshold = (phi * n as f64).ceil() as u64;
            let mut truth = brute(&b, n);
            truth.retain(|_, c| *c >= threshold);
            assert_eq!(b.frequent(phi, n), truth, "phi={phi} n={n}");
        }
    }
}

#[test]
fn the_check_demands_full_recall_the_envelope_and_the_exact_total() {
    let b = block();
    let n = 2 * b.len() as u64 + 11;
    let phi = 0.05;
    let truth = b.frequent(phi, n);
    assert!(
        truth.len() >= 3,
        "the block is skewed enough to have heavy keys"
    );

    // An honest answer: every frequent key, over-estimated within its error.
    let honest: Vec<CounterEntry<u64>> = truth
        .iter()
        .map(|(k, c)| CounterEntry::new(*k, c + 2, 3))
        .collect();
    let ok = b.check_frequent(&honest, n, phi, n);
    assert!(ok.passed(), "{ok:?}");
    assert_eq!(ok.truly_frequent, truth.len());

    // Dropping a frequent key breaks recall.
    let missed = b.check_frequent(&honest[1..], n, phi, n);
    assert_eq!((missed.missed, missed.passed()), (1, false));

    // An under-estimate, or an over-estimate beyond the error, breaks the envelope.
    let (k, c) = truth
        .iter()
        .next()
        .map(|(k, c)| (*k, *c))
        .expect("non-empty");
    // An error above the count is malformed: a violation, not an underflow.
    for bad in [
        CounterEntry::new(k, c - 1, 0),
        CounterEntry::new(k, c + 5, 4),
        CounterEntry::new(k, c, c + 1),
    ] {
        let mut entries = honest.clone();
        entries.retain(|e| e.item != k);
        entries.push(bad);
        let out = b.check_frequent(&entries, n, phi, n);
        assert_eq!((out.bound_violations, out.passed()), (1, false), "{bad:?}");
    }

    // A reported key that is not frequent is fine if its envelope holds…
    let rare = 24_000u64;
    let rare_truth = b.counts(&[rare], n)[&rare];
    let mut entries = honest.clone();
    entries.push(CounterEntry::new(rare, rare_truth + 1, 1));
    assert!(b.check_frequent(&entries, n, phi, n).passed());

    // …and a total that is off by one key is not.
    assert!(b.check_frequent(&honest, n - 1, phi, n).total_mismatch);
}
