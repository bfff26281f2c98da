//! Counter entries and summary snapshots.
//!
//! Counter-based algorithms monitor a bounded set of elements, each with an
//! over-estimating `count` and an `error` bound such that
//! `count - error <= true_frequency <= count`. A [`Snapshot`] is the
//! engine-independent export format: entries sorted by decreasing count, from
//! which every query of the paper's model can be answered.

use crate::element::Element;
use crate::json_record;
use crate::query::Threshold;

json_record! {
    /// One monitored element: the guaranteed-over-estimate `count` and the
    /// maximum possible over-estimation `error`.
    ///
    /// For Space Saving, `error` is the count the element inherited when it
    /// overwrote the previous minimum; a *guaranteed* count of
    /// `count - error` is thus always a lower bound on the true frequency.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CounterEntry<K> {
        /// The monitored element.
        pub item: K,
        /// Estimated frequency; never less than the true frequency.
        pub count: u64,
        /// Over-estimation bound; `count - error` never exceeds the true
        /// frequency.
        pub error: u64,
    }
}

impl<K: Element> CounterEntry<K> {
    /// Create an entry.
    pub fn new(item: K, count: u64, error: u64) -> Self {
        debug_assert!(error <= count, "error bound may not exceed the count");
        Self { item, count, error }
    }

    /// The guaranteed (lower-bound) frequency of the element.
    #[inline]
    pub fn guaranteed(&self) -> u64 {
        self.count - self.error
    }
}

json_record! {
    /// A consistent, sorted view of a frequency summary.
    ///
    /// Entries are ordered by decreasing `count` (ties broken arbitrarily but
    /// deterministically), which is the order in which the Stream Summary
    /// structure naturally maintains them. `total` is the number of stream
    /// elements the summary has absorbed — for any counter-based algorithm in
    /// this suite the invariant `Σ count == total` holds whenever the alphabet
    /// has been counted exactly or the structure is full (Space Saving maintains
    /// it unconditionally).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Snapshot<K> {
        entries: Vec<CounterEntry<K>>,
        total: u64,
    }
}

impl<K: Element> Snapshot<K> {
    /// Build a snapshot from unsorted entries.
    pub fn new(mut entries: Vec<CounterEntry<K>>, total: u64) -> Self {
        entries.sort_by_key(|e| std::cmp::Reverse(e.count));
        Self { entries, total }
    }

    /// Build from entries already sorted by decreasing count.
    ///
    /// Debug builds verify the order.
    pub fn from_sorted(entries: Vec<CounterEntry<K>>, total: u64) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].count >= w[1].count));
        Self { entries, total }
    }

    /// Entries sorted by decreasing count.
    pub fn entries(&self) -> &[CounterEntry<K>] {
        &self.entries
    }

    /// Number of stream elements processed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of monitored elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is monitored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated count of `item`, if monitored.
    pub fn get(&self, item: &K) -> Option<&CounterEntry<K>> {
        self.entries.iter().find(|e| &e.item == item)
    }

    /// Resolve a [`Threshold`] against the processed total.
    pub fn resolve_threshold(&self, threshold: Threshold) -> u64 {
        threshold.resolve(self.total)
    }

    /// Elements whose estimated count meets `threshold` (Query 2, frequent
    /// elements). Entries are reported in decreasing-count order.
    pub fn frequent(&self, threshold: Threshold) -> Vec<CounterEntry<K>> {
        let min = self.resolve_threshold(threshold);
        self.entries
            .iter()
            .take_while(|e| e.count >= min)
            .copied()
            .collect()
    }

    /// Elements whose *guaranteed* count meets `threshold` — the subset of
    /// [`Snapshot::frequent`] that is certainly correct.
    pub fn guaranteed_frequent(&self, threshold: Threshold) -> Vec<CounterEntry<K>> {
        let min = self.resolve_threshold(threshold);
        self.entries
            .iter()
            .filter(|e| e.guaranteed() >= min)
            .copied()
            .collect()
    }

    /// The `k` elements with the highest estimated counts (Query 2, top-k).
    pub fn top_k(&self, k: usize) -> Vec<CounterEntry<K>> {
        self.entries.iter().take(k).copied().collect()
    }

    /// Point query: is `item` frequent at `threshold`? (Query 1)
    pub fn is_frequent(&self, item: &K, threshold: Threshold) -> bool {
        let min = self.resolve_threshold(threshold);
        self.get(item).map(|e| e.count >= min).unwrap_or(false)
    }

    /// Point query: is `item` among the top `k`? (Query 1)
    ///
    /// Implemented as the paper describes: determine the k-th frequency by
    /// rank, then compare the item's estimate against it.
    pub fn is_in_top_k(&self, item: &K, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        let Some(entry) = self.get(item) else {
            return false;
        };
        match self.entries.get(k - 1) {
            // Fewer than k monitored elements: anything monitored is top-k.
            None => true,
            Some(kth) => entry.count >= kth.count,
        }
    }

    /// Consume the snapshot, returning its entries.
    pub fn into_entries(self) -> Vec<CounterEntry<K>> {
        self.entries
    }
}

/// Structural audit of a snapshot, used on summaries restored from disk:
/// a CRC-valid checkpoint whose *contents* violate the counter algebra
/// (error exceeding count, unsorted entries, guaranteed mass exceeding
/// the stream total) must be rejected rather than served.
#[cfg(feature = "invariants")]
impl<K: Element> crate::invariants::CheckInvariants for Snapshot<K> {
    fn violations(&self) -> Vec<crate::invariants::Violation> {
        use crate::invariants::Violation;
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if e.error > e.count {
                out.push(Violation::new(
                    "error-bound",
                    format!("entry {i}: error {} exceeds count {}", e.error, e.count),
                ));
            }
        }
        if let Some(i) = self
            .entries
            .windows(2)
            .position(|w| w[0].count < w[1].count)
        {
            out.push(Violation::new(
                "sort-order",
                format!(
                    "entry {} (count {}) follows entry {i} (count {})",
                    i + 1,
                    self.entries[i + 1].count,
                    self.entries[i].count
                ),
            ));
        }
        // Saturating: an auditor must survive the corruption it reports
        // (error > count would underflow `guaranteed()` here).
        let guaranteed: u64 = self
            .entries
            .iter()
            .map(|e| e.count.saturating_sub(e.error))
            .sum();
        if guaranteed > self.total {
            out.push(Violation::new(
                "guaranteed-mass",
                format!(
                    "guaranteed mass {guaranteed} exceeds the stream total {}",
                    self.total
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot<u64> {
        Snapshot::new(
            vec![
                CounterEntry::new(3, 10, 0),
                CounterEntry::new(1, 50, 5),
                CounterEntry::new(2, 30, 0),
                CounterEntry::new(4, 10, 9),
            ],
            100,
        )
    }

    #[test]
    fn sorted_by_count_desc() {
        let s = snap();
        let counts: Vec<u64> = s.entries().iter().map(|e| e.count).collect();
        assert_eq!(counts, vec![50, 30, 10, 10]);
    }

    #[test]
    fn frequent_absolute_threshold() {
        let s = snap();
        let f = s.frequent(Threshold::Count(30));
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].item, 1);
        assert_eq!(f[1].item, 2);
    }

    #[test]
    fn frequent_fractional_threshold() {
        let s = snap();
        // 0.3 of 100 = 30.
        let f = s.frequent(Threshold::Fraction(0.3));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn guaranteed_frequent_excludes_uncertain() {
        let s = snap();
        // Threshold 10: items 3 (guaranteed 10) qualifies, item 4
        // (guaranteed 1) does not.
        let g = s.guaranteed_frequent(Threshold::Count(10));
        let items: Vec<u64> = g.iter().map(|e| e.item).collect();
        assert!(items.contains(&3));
        assert!(!items.contains(&4));
    }

    #[test]
    fn top_k_basic_and_oversized() {
        let s = snap();
        assert_eq!(s.top_k(2).len(), 2);
        assert_eq!(s.top_k(2)[0].item, 1);
        assert_eq!(s.top_k(99).len(), 4);
        assert!(s.top_k(0).is_empty());
    }

    #[test]
    fn point_queries() {
        let s = snap();
        assert!(s.is_frequent(&1, Threshold::Count(50)));
        assert!(!s.is_frequent(&1, Threshold::Count(51)));
        assert!(!s.is_frequent(&99, Threshold::Count(1)));
        assert!(s.is_in_top_k(&1, 1));
        assert!(!s.is_in_top_k(&3, 2));
        // Ties: item 3 and 4 both have count 10; both are "in the top 3"
        // because their count equals the 3rd frequency.
        assert!(s.is_in_top_k(&3, 3));
        assert!(s.is_in_top_k(&4, 3));
        assert!(!s.is_in_top_k(&1, 0));
        assert!(s.is_in_top_k(&4, 100));
    }

    #[test]
    fn guaranteed_counts() {
        let e = CounterEntry::new(7u64, 12, 4);
        assert_eq!(e.guaranteed(), 8);
    }

    #[test]
    fn empty_snapshot() {
        let s: Snapshot<u64> = Snapshot::new(vec![], 0);
        assert!(s.is_empty());
        assert!(s.frequent(Threshold::Count(1)).is_empty());
        assert!(s.top_k(3).is_empty());
        assert!(!s.is_frequent(&1, Threshold::Count(0)));
    }

    #[test]
    fn json_round_trip() {
        let s = snap();
        let json = crate::json::to_string(&s);
        let back: Snapshot<u64> = crate::json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn snapshot_invariants_catch_corrupt_state() {
        use crate::invariants::CheckInvariants;
        assert!(snap().violations().is_empty());
        // Hand-build corrupt snapshots the constructors would reject.
        let err_exceeds = Snapshot {
            entries: vec![CounterEntry {
                item: 1u64,
                count: 3,
                error: 5,
            }],
            total: 3,
        };
        assert!(err_exceeds
            .violations()
            .iter()
            .any(|v| v.invariant == "error-bound"));
        let unsorted = Snapshot {
            entries: vec![CounterEntry::new(1u64, 2, 0), CounterEntry::new(2u64, 9, 0)],
            total: 11,
        };
        assert!(unsorted
            .violations()
            .iter()
            .any(|v| v.invariant == "sort-order"));
        let over_mass = Snapshot {
            entries: vec![CounterEntry::new(1u64, 50, 0)],
            total: 10,
        };
        assert!(over_mass
            .violations()
            .iter()
            .any(|v| v.invariant == "guaranteed-mass"));
    }
}
