//! The merge algebra for counter-based summaries.
//!
//! The independent-structures design (shared-nothing) runs one Space Saving
//! instance per thread over a partition of the stream and must merge the
//! local summaries to answer a query. Merging uses the standard Space-Saving
//! combination rule: for every element in the union of monitored sets, sum
//! the per-partition estimates, substituting a partition's *minimum count*
//! (an upper bound on any unmonitored element's frequency in that partition,
//! and simultaneously the error of that substitution) when the element is not
//! monitored there. The result is truncated back to the `m` largest counters.
//!
//! The merged entries satisfy the same contract as a single summary:
//! `count >= true_total >= count - error`.
//!
//! When the inputs count *disjoint* key domains — per-worker summaries of
//! a hash-partitioned stream — no substitution is needed at all, and
//! [`merge_disjoint`] keeps every entry as its owner reported it.
//!
//! AUDIT: total

use std::collections::HashMap;

use crate::counter::{CounterEntry, Snapshot};
use crate::element::Element;
use crate::hash::SeededMulHash;

/// The "unmonitored mass" bound a summary contributes for elements it does
/// not monitor: its minimum count when it is at capacity, zero otherwise
/// (a non-full summary has seen *every* distinct element of its partition,
/// so an absent element truly has frequency zero there).
pub fn absent_bound<K: Element>(snapshot: &Snapshot<K>, capacity: usize) -> u64 {
    if snapshot.len() >= capacity {
        snapshot.entries().last().map(|e| e.count).unwrap_or(0)
    } else {
        0
    }
}

/// The absent-element bound of a federated merge: the summed
/// [`absent_bound`] of every input. An element monitored by *no* input
/// may still have occurred up to this many times across all partitions;
/// it is therefore the worst-case count (and error) the merge assigns
/// to any element it had to synthesize bounds for, and the honest
/// "how wrong can a miss be" figure a coordinator should report
/// alongside federated answers.
pub fn combined_absent_bound<K: Element>(snapshots: &[Snapshot<K>], capacity: usize) -> u64 {
    snapshots.iter().map(|s| absent_bound(s, capacity)).sum()
}

/// Merge any number of snapshots into a single summary of at most
/// `capacity` counters.
///
/// This is the *serial merge* primitive; the hierarchical merge of the
/// independent design is built by applying it pairwise along a tree.
pub fn merge_snapshots<K: Element>(snapshots: &[Snapshot<K>], capacity: usize) -> Snapshot<K> {
    // PANIC-OK: a zero-capacity merge is a caller bug, not a data-dependent
    // condition — no byte stream reaches this branch; the contract is tested
    // by `zero_capacity_panics`.
    assert!(capacity > 0, "merge capacity must be positive");
    let bounds: Vec<u64> = snapshots
        .iter()
        .map(|s| absent_bound(s, capacity))
        .collect();
    let total: u64 = snapshots.iter().map(|s| s.total()).sum();
    // Upper bound contributed by *all* partitions for a completely absent
    // element; subtracting a partition's own bound yields the substitution
    // for elements absent from just that partition.
    let all_bounds: u64 = bounds.iter().sum();

    let mut merged: HashMap<K, CounterEntry<K>, SeededMulHash> = HashMap::default();
    for (snapshot, &bound) in snapshots.iter().zip(&bounds) {
        for e in snapshot.entries() {
            merged
                .entry(e.item)
                .and_modify(|m| {
                    // Replace this partition's absent-bound contribution
                    // with its real estimate.
                    m.count = m.count - bound + e.count;
                    m.error = m.error - bound + e.error;
                })
                .or_insert_with(|| {
                    // Start from "absent everywhere", then add this
                    // partition's real estimate in place of its bound.
                    CounterEntry::new(
                        e.item,
                        all_bounds - bound + e.count,
                        all_bounds - bound + e.error,
                    )
                });
        }
    }

    let mut entries: Vec<CounterEntry<K>> = merged.into_values().collect();
    entries.sort_by_key(|e| std::cmp::Reverse(e.count));
    entries.truncate(capacity);
    Snapshot::from_sorted(entries, total)
}

/// Merge summaries of disjoint key domains — every key counted by at most
/// one input, as per-worker summaries of a hash-partitioned stream are —
/// into one of at most `capacity` counters.
///
/// Each entry keeps its owner's count and error: no other input could
/// have seen the key, so none adds its minimum (the general rule's
/// substitution in [`merge_snapshots`] would only loosen the bound). The
/// inputs are concatenated, ordered by decreasing count and cut to the
/// top `capacity`; totals are summed.
///
/// The cut keeps [`absent_bound`] of the result sound whenever each
/// input's own absent bound is sound at `capacity`: a key the result
/// omits was either absent from its owner — at most the owner's minimum
/// when the owner is full, and a full owner alone fills the result, so
/// that minimum is at most the result's `capacity`-th count — or cut,
/// with its truth at most its count, which is at most the kept minimum.
///
/// Total: empty inputs, unsorted entries and a zero capacity give a
/// well-formed (sorted) snapshot rather than a panic.
pub fn merge_disjoint<K: Element>(snapshots: &[Snapshot<K>], capacity: usize) -> Snapshot<K> {
    let total = snapshots
        .iter()
        .fold(0u64, |sum, s| sum.saturating_add(s.total()));
    let mut entries: Vec<CounterEntry<K>> =
        Vec::with_capacity(snapshots.iter().map(|s| s.len()).sum());
    for s in snapshots {
        entries.extend_from_slice(s.entries());
    }
    // A stable sort finds each input's descending run and merges the
    // runs in linear time.
    entries.sort_by_key(|e| std::cmp::Reverse(e.count));
    entries.truncate(capacity);
    Snapshot::from_sorted(entries, total)
}

/// Merge two snapshots; convenience wrapper used by hierarchical merging.
pub fn merge_pair<K: Element>(a: &Snapshot<K>, b: &Snapshot<K>, capacity: usize) -> Snapshot<K> {
    merge_snapshots(&[a.clone(), b.clone()], capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(u64, u64, u64)], total: u64) -> Snapshot<u64> {
        Snapshot::new(
            entries
                .iter()
                .map(|&(i, c, e)| CounterEntry::new(i, c, e))
                .collect(),
            total,
        )
    }

    #[test]
    fn merge_disjoint_not_full() {
        // Both summaries have room (capacity 10, 2 entries each): absent
        // bound is 0 and the merge is an exact union.
        let a = snap(&[(1, 5, 0), (2, 3, 0)], 8);
        let b = snap(&[(3, 4, 0), (4, 1, 0)], 5);
        let m = merge_snapshots(&[a, b], 10);
        assert_eq!(m.total(), 13);
        assert_eq!(m.get(&1).unwrap().count, 5);
        assert_eq!(m.get(&3).unwrap().count, 4);
        assert_eq!(m.get(&3).unwrap().error, 0);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn merge_overlapping_sums_counts_and_errors() {
        let a = snap(&[(1, 5, 1), (2, 3, 0)], 8);
        let b = snap(&[(1, 7, 2), (3, 2, 0)], 9);
        let m = merge_snapshots(&[a, b], 10);
        let e1 = m.get(&1).unwrap();
        assert_eq!(e1.count, 12);
        assert_eq!(e1.error, 3);
    }

    #[test]
    fn merge_full_summary_contributes_min_bound() {
        // `a` is at capacity (2 entries, capacity 2) with min count 3:
        // elements absent from `a` may have occurred up to 3 times in a's
        // partition, so element 3's merged bound is 2 + 3 with error 3.
        let a = snap(&[(1, 5, 0), (2, 3, 0)], 8);
        let b = snap(&[(3, 2, 0)], 2);
        let m = merge_snapshots(&[a, b], 2);
        // Capacity 2 keeps the two largest: item 1 (count 5) and item 3
        // (count 5 = 2+3)? item 2 has count 3 + 0 = 3. Order: 1 (5), 3 (5).
        assert_eq!(m.len(), 2);
        let e3 = m.get(&3).unwrap();
        assert_eq!(e3.count, 5);
        assert_eq!(e3.error, 3);
        assert_eq!(e3.guaranteed(), 2);
    }

    #[test]
    fn merged_bounds_are_sound_for_true_frequencies() {
        // Partition A stream: [1,1,1,2,2,3]; capacity-2 Space-Saving-style
        // summary: {1:3, 2:2}? A full summary's semantics: count over-
        // estimates. We hand-construct sound summaries and check the merge
        // keeps soundness for every element.
        // True totals: 1 -> 5, 2 -> 4, 3 -> 3.
        let a = snap(&[(1, 3, 0), (2, 2, 0)], 6); // full at capacity 2, min 2
        let b = snap(&[(1, 2, 0), (3, 3, 1)], 6); // full at capacity 2, min 2
        let m = merge_snapshots(&[a, b], 3);
        let truth = [(1u64, 5u64), (3, 3)];
        for (item, t) in truth {
            let e = m.get(&item).unwrap();
            assert!(e.count >= t, "count {} < true {} for {}", e.count, t, item);
            assert!(
                e.guaranteed() <= t,
                "guarantee {} > true {} for {}",
                e.guaranteed(),
                t,
                item
            );
        }
    }

    #[test]
    fn merge_totals_accumulate() {
        let a = snap(&[(1, 1, 0)], 1);
        let b = snap(&[(2, 1, 0)], 1);
        let c = snap(&[(3, 1, 0)], 1);
        let m = merge_snapshots(&[a, b, c], 8);
        assert_eq!(m.total(), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn merge_empty_inputs() {
        let m: Snapshot<u64> = merge_snapshots(&[], 4);
        assert!(m.is_empty());
        assert_eq!(m.total(), 0);
        let a = snap(&[], 0);
        let b = snap(&[(1, 2, 0)], 2);
        let m = merge_snapshots(&[a, b], 4);
        assert_eq!(m.get(&1).unwrap().count, 2);
    }

    #[test]
    fn pairwise_tree_equals_flat_merge_when_not_truncating() {
        let a = snap(&[(1, 5, 0), (2, 3, 0)], 8);
        let b = snap(&[(1, 1, 0), (3, 2, 0)], 3);
        let c = snap(&[(4, 9, 2)], 9);
        let d = snap(&[(2, 2, 1)], 2);
        let cap = 16; // large enough that truncation never happens
        let flat = merge_snapshots(&[a.clone(), b.clone(), c.clone(), d.clone()], cap);
        let left = merge_pair(&a, &b, cap);
        let right = merge_pair(&c, &d, cap);
        let tree = merge_pair(&left, &right, cap);
        for e in flat.entries() {
            let t = tree.get(&e.item).unwrap();
            assert_eq!((t.count, t.error), (e.count, e.error), "item {}", e.item);
        }
        assert_eq!(flat.total(), tree.total());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = merge_snapshots::<u64>(&[], 0);
    }

    #[test]
    fn disjoint_merge_keeps_owner_bounds_and_cuts_to_capacity() {
        // Both full at capacity 2. The general rule would add the other
        // input's minimum to every entry; the disjoint one adds nothing.
        let a = snap(&[(1, 9, 0), (2, 4, 1)], 13);
        let b = snap(&[(3, 7, 2), (4, 3, 0)], 10);
        let m = merge_disjoint(&[a.clone(), b.clone()], 2);
        assert_eq!(m.total(), 23);
        let kept: Vec<(u64, u64, u64)> = m
            .entries()
            .iter()
            .map(|e| (e.item, e.count, e.error))
            .collect();
        assert_eq!(kept, vec![(1, 9, 0), (3, 7, 2)]);
        assert_eq!(absent_bound(&m, 2), 7, "dropped 2 and 4 count at most 4");
        let general = merge_snapshots(&[a, b], 2);
        assert_eq!(general.get(&1).unwrap().count, 12, "9 plus b's minimum 3");
        assert_eq!(general.get(&1).unwrap().guaranteed(), 9);
    }

    #[test]
    fn disjoint_merge_is_total() {
        assert!(merge_disjoint::<u64>(&[], 4).is_empty());
        assert_eq!(merge_disjoint(&[snap(&[(1, 2, 0)], 2)], 0).total(), 2);
        // Unsorted input (decoded, so never through the sorting
        // constructor) comes out sorted; a lone total with no entries
        // still adds up.
        let unsorted: Snapshot<u64> = crate::json::from_str(
            r#"{"entries":[{"item":1,"count":1,"error":0},{"item":2,"count":5,"error":0}],"total":6}"#,
        )
        .unwrap();
        let m = merge_disjoint(&[unsorted, snap(&[], 10)], 8);
        assert_eq!(m.entries()[0].item, 2);
        assert_eq!(m.total(), 16);
        let huge = snap(&[], u64::MAX);
        assert_eq!(merge_disjoint(&[huge.clone(), huge], 1).total(), u64::MAX);
    }

    #[test]
    fn combined_absent_bound_sums_full_summaries_only() {
        let full = snap(&[(1, 5, 0), (2, 3, 0)], 8); // at capacity 2, min 3
        let roomy = snap(&[(3, 9, 0)], 9); // below capacity: bound 0
        assert_eq!(combined_absent_bound(std::slice::from_ref(&full), 2), 3);
        assert_eq!(combined_absent_bound(&[full.clone(), roomy.clone()], 2), 3);
        assert_eq!(combined_absent_bound(&[roomy], 2), 0);
        assert_eq!(combined_absent_bound::<u64>(&[], 2), 0);
        // Mirrors what the merge itself charges a fully absent element.
        let other = snap(&[(7, 4, 0), (8, 2, 0)], 6); // full at 2, min 2
        let m = merge_snapshots(&[full.clone(), other.clone()], 4);
        let bound = combined_absent_bound(&[full, other], 2);
        assert_eq!(bound, 5);
        // Item 8 is absent from `full`: its merged count carries full's
        // bound (3) on top of its own estimate (2) = 5 ≤ 2 + bound.
        assert!(m.get(&8).unwrap().count <= 2 + bound);
    }
}
