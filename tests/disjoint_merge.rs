//! Property tests for `merge_disjoint`, the merge `cots-serve` runs at
//! every publish: per-partition Space Saving over hash-partitioned Zipf
//! streams, merged by the disjoint rule, checked against exact truth and
//! against the general merge (`merge_snapshots`).

use proptest::collection::vec;
use proptest::prelude::*;

use cots_core::merge::{absent_bound, merge_disjoint, merge_snapshots};
use cots_core::{FrequencyCounter, QueryableSummary, Snapshot, SummaryConfig, Threshold};
use cots_datagen::partition::by_hash;
use cots_datagen::{ExactCounter, StreamSpec};
use cots_sequential::SpaceSaving;

/// One Space Saving summary per hash partition of `stream`.
fn per_partition(stream: &[u64], parts: usize, capacity: usize) -> Vec<Snapshot<u64>> {
    by_hash(stream, parts)
        .iter()
        .map(|part| {
            let mut ss = SpaceSaving::new(SummaryConfig::with_capacity(capacity).unwrap());
            ss.process_slice(part);
            ss.snapshot()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn disjoint_merge_is_sound_on_hash_partitioned_zipf(
        len in 1usize..4_000,
        alphabet in 8usize..3_000,
        alpha_tenths in 8u32..21,
        seed in any::<u64>(),
        parts in 1usize..6,
        capacity in 1usize..64,
    ) {
        let stream = StreamSpec::zipf(len, alphabet, f64::from(alpha_tenths) / 10.0, seed).generate();
        let truth = ExactCounter::from_stream(&stream);
        let snapshots = per_partition(&stream, parts, capacity);
        let merged = merge_disjoint(&snapshots, capacity);

        prop_assert_eq!(merged.total(), stream.len() as u64, "total conserved");
        prop_assert!(merged.len() <= capacity);
        prop_assert!(merged.entries().windows(2).all(|w| w[0].count >= w[1].count));
        for e in merged.entries() {
            let t = truth.count(&e.item);
            prop_assert!(e.guaranteed() <= t && t <= e.count, "{}: {}/{} vs {}", e.item, e.count, e.error, t);
        }
        let bound = absent_bound(&merged, capacity);
        for (item, t) in truth.frequent(Threshold::Count(1)) {
            if merged.get(&item).is_none() {
                prop_assert!(t <= bound, "omitted {} has truth {} > absent bound {}", item, t, bound);
            }
        }
        // Same guarantee as the general rule, never a looser count.
        let general = merge_snapshots(&snapshots, capacity);
        for e in merged.entries() {
            if let Some(g) = general.get(&e.item) {
                prop_assert_eq!(e.guaranteed(), g.guaranteed(), "key {}", e.item);
                prop_assert!(e.count <= g.count, "key {}: {} > {}", e.item, e.count, g.count);
            }
        }
    }

    /// Any inputs — empty, unsorted, longer than `capacity`, capacity 0 —
    /// give a sorted snapshot of input entries with the totals summed.
    #[test]
    fn disjoint_merge_is_total(
        inputs in vec((vec((0u64..1_000, 0u64..50, 0u64..50), 0..20), 0u64..10_000), 0..5),
        capacity in 0usize..16,
    ) {
        let snapshots: Vec<Snapshot<u64>> = inputs
            .iter()
            .map(|(entries, total)| {
                // Decoded, so the entries keep their (unsorted) order.
                let entries: Vec<String> = entries
                    .iter()
                    .map(|&(item, count, error)| {
                        let error = error.min(count);
                        format!(r#"{{"item":{item},"count":{count},"error":{error}}}"#)
                    })
                    .collect();
                let json = format!(r#"{{"entries":[{}],"total":{total}}}"#, entries.join(","));
                cots_core::json::from_str(&json).unwrap()
            })
            .collect();
        let merged = merge_disjoint(&snapshots, capacity);
        let total: u64 = snapshots.iter().map(|s| s.total()).sum();
        prop_assert_eq!(merged.total(), total);
        prop_assert!(merged.len() <= capacity);
        prop_assert!(merged.entries().windows(2).all(|w| w[0].count >= w[1].count));
        let all: Vec<_> = snapshots.iter().flat_map(|s| s.entries().iter().copied()).collect();
        prop_assert!(merged.entries().iter().all(|e| all.contains(e)));
    }
}
