//! The key index's hash seed places keys in a table and nothing else:
//! two `SpaceSaving`s built with different seeds and fed the same calls
//! must hold the same summary, bit for bit.

use proptest::collection::vec;
use proptest::prelude::*;

use cots_core::{CounterEntry, FrequencyCounter, QueryableSummary, SeededMulHash, SummaryConfig};
use cots_sequential::SpaceSaving;

/// Keys from a small alphabet (so runs repeat and the summary fills)
/// spread over both halves of the `u64`, where a low-bits table without
/// a finalizer would collide.
fn key() -> impl Strategy<Value = u64> {
    (0u64..96, any::<bool>()).prop_map(|(k, high)| if high { k << 40 } else { k })
}

/// Seed entries with distinct keys, `error <= count`, at most `capacity`.
fn seed_entries(raw: Vec<(u64, u64, u64)>, capacity: usize) -> Vec<CounterEntry<u64>> {
    let mut seen = std::collections::HashSet::new();
    raw.into_iter()
        .filter(|&(item, _, _)| seen.insert(item))
        .take(capacity)
        .map(|(item, count, error)| CounterEntry::new(item, count, error.min(count)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn summary_does_not_depend_on_the_index_seed(
        seeds in (any::<u64>(), any::<u64>()),
        capacity in 1usize..=64,
        stream in vec((key(), 1u64..50), 0..600),
        seeded in any::<bool>(),
        raw_seed in vec((key(), 0u64..200, 0u64..200), 0..80),
        floor in 0u64..40,
    ) {
        let config = SummaryConfig::with_capacity(capacity).unwrap();
        let mut a = SpaceSaving::with_hasher(config, SeededMulHash::with_seed(seeds.0));
        let mut b = SpaceSaving::with_hasher(config, SeededMulHash::with_seed(seeds.1));
        if seeded {
            let entries = seed_entries(raw_seed, capacity);
            a.seed(&entries, floor).unwrap();
            b.seed(&entries, floor).unwrap();
        }
        for &(item, weight) in &stream {
            a.process_weighted(item, weight);
            b.process_weighted(item, weight);
        }
        a.check_invariants();
        b.check_invariants();
        prop_assert_eq!(a.snapshot(), b.snapshot());
        prop_assert_eq!(a.min_count(), b.min_count());
        prop_assert_eq!(a.processed(), b.processed());
    }
}
