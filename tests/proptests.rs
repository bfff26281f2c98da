//! Property-based tests (proptest) over the core invariants:
//!
//! * Space Saving guarantees on arbitrary streams (conservation, bounds,
//!   ε-recall, capacity);
//! * the merge algebra's soundness against ground truth for arbitrary
//!   partitionings;
//! * CoTS ≡ sequential on exact-regime streams for arbitrary thread counts;
//! * Lossy Counting bounds;
//! * zipf sampler distribution law.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use cots::{CotsEngine, RuntimeOptions};
use cots_core::merge::merge_snapshots;
use cots_core::{CotsConfig, FrequencyCounter, QueryableSummary, SummaryConfig};
use cots_datagen::partition::{by_hash, chunked, round_robin};
use cots_datagen::ExactCounter;
use cots_sequential::{LossyCounting, SpaceSaving};

fn space_saving(stream: &[u64], capacity: usize) -> SpaceSaving<u64> {
    let mut e = SpaceSaving::new(SummaryConfig::with_capacity(capacity).unwrap());
    e.process_slice(stream);
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn space_saving_invariants(
        stream in vec(0u64..64, 1..2_000),
        capacity in 1usize..40,
    ) {
        let truth = ExactCounter::from_stream(&stream);
        let e = space_saving(&stream, capacity);
        e.check_invariants();
        let snap = e.snapshot();
        // Conservation.
        let sum: u64 = snap.entries().iter().map(|x| x.count).sum();
        prop_assert_eq!(sum, stream.len() as u64);
        // Capacity.
        prop_assert!(snap.len() <= capacity);
        // Bounds.
        for entry in snap.entries() {
            let t = truth.count(&entry.item);
            prop_assert!(entry.count >= t);
            prop_assert!(entry.guaranteed() <= t);
        }
        // ε-recall: anything above N/m is monitored.
        let floor = stream.len() as u64 / capacity as u64;
        for (item, t) in truth.frequent(cots_core::Threshold::Count(floor + 1)) {
            prop_assert!(snap.get(&item).is_some(), "missing {} (count {})", item, t);
        }
    }

    #[test]
    fn merge_is_sound_for_any_partitioning(
        stream in vec(0u64..48, 1..1_500),
        parts in 1usize..6,
        capacity in 2usize..32,
        scheme in 0u8..3,
    ) {
        let truth = ExactCounter::from_stream(&stream);
        let partitions: Vec<Vec<u64>> = match scheme {
            0 => chunked(&stream, parts).into_iter().map(|s| s.to_vec()).collect(),
            1 => round_robin(&stream, parts),
            _ => by_hash(&stream, parts),
        };
        let snapshots: Vec<_> = partitions
            .iter()
            .map(|p| {
                if p.is_empty() {
                    cots_core::Snapshot::new(vec![], 0)
                } else {
                    space_saving(p, capacity).snapshot()
                }
            })
            .collect();
        let merged = merge_snapshots(&snapshots, capacity);
        prop_assert_eq!(merged.total(), stream.len() as u64);
        prop_assert!(merged.len() <= capacity);
        for entry in merged.entries() {
            let t = truth.count(&entry.item);
            prop_assert!(entry.count >= t, "count {} < true {}", entry.count, t);
            prop_assert!(entry.guaranteed() <= t, "guarantee {} > true {}", entry.guaranteed(), t);
        }
    }

    #[test]
    fn cots_equals_ground_truth_in_exact_regime(
        stream in vec(0u64..32, 1..1_200),
        threads in 1usize..6,
    ) {
        let truth = ExactCounter::from_stream(&stream);
        let e = Arc::new(CotsEngine::<u64>::new(CotsConfig::for_capacity(64).unwrap()).unwrap());
        cots::run(&e, &stream, RuntimeOptions { threads, batch: 64, adaptive: false }).unwrap();
        let snap = e.snapshot();
        prop_assert_eq!(snap.len(), truth.distinct());
        for entry in snap.entries() {
            prop_assert_eq!(entry.count, truth.count(&entry.item));
            prop_assert_eq!(entry.error, 0);
        }
    }

    #[test]
    fn cots_conserves_beyond_exact_regime(
        stream in vec(0u64..512, 1..1_500),
        threads in 1usize..5,
        capacity in 2usize..24,
    ) {
        let truth = ExactCounter::from_stream(&stream);
        let e = Arc::new(
            CotsEngine::<u64>::new(CotsConfig::for_capacity(capacity).unwrap()).unwrap(),
        );
        cots::run(&e, &stream, RuntimeOptions { threads, batch: 128, adaptive: false }).unwrap();
        let snap = e.snapshot();
        let sum: u64 = snap.entries().iter().map(|x| x.count).sum();
        prop_assert_eq!(sum, stream.len() as u64);
        prop_assert!(snap.len() <= capacity);
        for entry in snap.entries() {
            let t = truth.count(&entry.item);
            prop_assert!(entry.count >= t);
            prop_assert!(entry.guaranteed() <= t);
        }
    }

    #[test]
    fn lossy_counting_bounds(
        stream in vec(0u64..64, 1..2_000),
        width in 2usize..64,
    ) {
        let truth = ExactCounter::from_stream(&stream);
        let mut e = LossyCounting::<u64>::new(SummaryConfig::with_capacity(width).unwrap());
        e.process_slice(&stream);
        let snap = e.snapshot();
        for entry in snap.entries() {
            let t = truth.count(&entry.item);
            prop_assert!(entry.count >= t);
            prop_assert!(entry.guaranteed() <= t);
        }
        // Completeness above εN.
        let floor = stream.len() as u64 / width as u64;
        for (item, _) in truth.frequent(cots_core::Threshold::Count(floor + 1)) {
            prop_assert!(snap.get(&item).is_some());
        }
    }

    #[test]
    fn snapshot_queries_are_internally_consistent(
        stream in vec(0u64..128, 1..1_000),
        k in 1usize..20,
        threshold in 1u64..50,
    ) {
        let e = space_saving(&stream, 32);
        let snap = e.snapshot();
        // top_k is a prefix of the sorted entries.
        let top = snap.top_k(k);
        prop_assert_eq!(&top[..], &snap.entries()[..top.len()]);
        // frequent() returns exactly the entries meeting the threshold.
        let freq = snap.frequent(cots_core::Threshold::Count(threshold));
        for e in &freq {
            prop_assert!(e.count >= threshold);
        }
        let n_meeting = snap.entries().iter().filter(|e| e.count >= threshold).count();
        prop_assert_eq!(freq.len(), n_meeting);
        // Point queries agree with set queries.
        for entry in &freq {
            prop_assert!(snap.is_frequent(&entry.item, cots_core::Threshold::Count(threshold)));
        }
    }
}
