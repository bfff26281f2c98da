//! Sequential *Space Saving* (Metwally, Agrawal, El Abbadi; paper §3.3,
//! Algorithm 1).
//!
//! Monitors at most `m = ⌈1/ε⌉` counters. For each stream element:
//! if monitored, increment (`IncrementCounter`); else if there is room,
//! start monitoring with count 1 (`AddElementToBucket`); else overwrite the
//! minimum-frequency element, inheriting its count as the error bound
//! (`Overwrite`). Deterministic, with per-element O(1) cost via the
//! [`StreamSummary`] and a hash index for `LOOKUP`.
//!
//! Guarantees (proved in the original paper and asserted by this crate's
//! property tests):
//!
//! * `Σ counts == N` (count conservation);
//! * `count(e) - error(e) <= f(e) <= count(e)` for monitored `e`;
//! * any element with `f(e) > N/m` is monitored (so frequent-element recall
//!   at threshold εN is 1);
//! * unmonitored elements have `f(e) <= min_count`.
//!
//! A summary can also start from a seed — another summary's entries and an
//! *admission floor* (see [`SpaceSaving::seed`]); conservation then holds
//! relative to the seeded mass.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use cots_core::{
    CotsError, CounterEntry, Element, FrequencyCounter, QueryableSummary, Result, SeededMulHash,
    Snapshot, SummaryConfig,
};

use crate::summary::{NodeId, StreamSummary};

/// Sequential Space Saving.
///
/// # Example
///
/// ```
/// use cots_core::{FrequencyCounter, QueryableSummary, SummaryConfig, Threshold};
/// use cots_sequential::SpaceSaving;
///
/// let mut ss = SpaceSaving::<&str>::new(SummaryConfig::with_capacity(2)?);
/// for word in ["the", "the", "cat", "the", "hat"] {
///     ss.process(word);
/// }
/// // Capacity 2: "hat" overwrote "cat" and inherited its count as error.
/// assert_eq!(ss.estimate(&"the"), Some((3, 0)));
/// assert_eq!(ss.estimate(&"hat"), Some((2, 1)));
/// assert!(ss.snapshot().is_frequent(&"the", Threshold::Fraction(0.5)));
/// # Ok::<(), cots_core::CotsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Element> {
    summary: StreamSummary<K>,
    index: HashMap<K, NodeId, SeededMulHash>,
    capacity: usize,
    total: u64,
    /// Count and error a key admitted into a free slot starts from (0
    /// unless seeded from a summary that may have evicted keys).
    floor: u64,
    /// `Σ counts − total`: the seeded counts plus `floor` per free-slot
    /// admission, so count conservation is checked relative to the seed.
    skew: u64,
}

impl<K: Element> SpaceSaving<K> {
    /// Build with an explicit counter budget.
    pub fn new(config: SummaryConfig) -> Self {
        Self::with_hasher(config, SeededMulHash::new())
    }

    /// Build with an explicit counter budget and key-index hasher. The
    /// index only maps a key to its counter, so the summary's contents do
    /// not depend on `hasher`'s seed; fixing it makes the index layout
    /// reproducible (tests).
    pub fn with_hasher(config: SummaryConfig, hasher: SeededMulHash) -> Self {
        Self {
            summary: StreamSummary::with_capacity(config.capacity),
            index: HashMap::with_capacity_and_hasher(config.capacity * 2, hasher),
            capacity: config.capacity,
            total: 0,
            floor: 0,
            skew: 0,
        }
    }

    /// Install `entries` as the starting state of a summary that has
    /// processed nothing, with an admission `floor`: from then on a key
    /// admitted into a free slot enters as `floor + weight` with error
    /// `floor` — the charge a full summary's overwrite would make.
    ///
    /// The floor is what makes a *cut* seed sound. A seed taken from a
    /// summary that was full may have dropped a key whose truth is up to
    /// that summary's minimum; admitted with error 0 into a free slot, the
    /// key would be answered below its truth. Pass the source's absent
    /// bound (`cots_core::merge::absent_bound`) as `floor`, 0 for an exact
    /// source.
    ///
    /// `processed()` counts only what is processed after the seed: the
    /// seeded mass is the caller's to account for. Errors (summary left
    /// untouched): a non-empty summary, more entries than `capacity`, a
    /// repeated key, or an entry whose error exceeds its count.
    /// Zero-count entries carry nothing and are skipped.
    pub fn seed(&mut self, entries: &[CounterEntry<K>], floor: u64) -> Result<()> {
        let mut unique = HashSet::with_capacity_and_hasher(entries.len(), *self.index.hasher());
        let refusal = if self.total != 0 || !self.summary.is_empty() {
            Some("the summary has already processed elements")
        } else if entries.len() > self.capacity {
            Some("more entries than the summary's capacity")
        } else if entries.iter().any(|e| e.error > e.count) {
            Some("an entry's error exceeds its count")
        } else if !entries.iter().all(|e| unique.insert(e.item)) {
            Some("a key appears twice")
        } else {
            None
        };
        if let Some(why) = refusal {
            return Err(CotsError::InvalidConfig(format!("cannot seed: {why}")));
        }
        // Descending order: each new counter is the minimum, so its bucket
        // is found at the head of the list.
        let mut sorted: Vec<&CounterEntry<K>> = entries.iter().filter(|e| e.count > 0).collect();
        sorted.sort_by_key(|e| std::cmp::Reverse(e.count));
        for e in sorted {
            let id = self.summary.insert(e.item, e.count, e.error);
            self.index.insert(e.item, id);
            self.skew += e.count;
        }
        self.floor = floor;
        Ok(())
    }

    /// Build from an error bound ε (`m = ⌈1/ε⌉`).
    pub fn with_epsilon(epsilon: f64) -> Result<Self> {
        Ok(Self::new(SummaryConfig::with_epsilon(epsilon)?))
    }

    /// Counter budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of monitored elements.
    pub fn monitored(&self) -> usize {
        self.summary.len()
    }

    /// The current minimum monitored count (0 when empty). Any unmonitored
    /// element's true frequency is bounded by this.
    pub fn min_count(&self) -> u64 {
        self.summary.min_count()
    }

    /// Process `item` with multiplicity `weight` (weight 1 is the paper's
    /// per-element step; the bulk form is used by merges and by tests).
    pub fn process_weighted(&mut self, item: K, weight: u64) {
        debug_assert!(weight > 0);
        self.total += weight;
        // One probe for `item` serves the lookup and, on a miss, the insert.
        let slot = match self.index.entry(item) {
            Entry::Occupied(o) => {
                self.summary.increment(*o.get(), weight);
                return;
            }
            Entry::Vacant(v) => v,
        };
        if self.summary.len() < self.capacity {
            slot.insert(self.summary.insert(item, self.floor + weight, self.floor));
            self.skew += self.floor;
            return;
        }
        let (evicted, _min, id) = self.summary.overwrite_min(item, weight);
        slot.insert(id);
        self.index.remove(&evicted);
    }

    /// Direct read access to the underlying summary (used by merges and by
    /// the independent-structures engine).
    pub fn summary(&self) -> &StreamSummary<K> {
        &self.summary
    }

    /// Verify structural and algorithmic invariants (tests only; O(m)).
    pub fn check_invariants(&self) {
        self.summary.check_invariants();
        assert!(self.summary.len() <= self.capacity, "capacity respected");
        assert_eq!(self.index.len(), self.summary.len(), "index tracks summary");
        let sum: u64 = self.summary.iter_desc().map(|(_, c, _)| c).sum();
        assert_eq!(
            sum,
            self.total + self.skew,
            "count conservation: Σ counts == N (+ the seed's skew)"
        );
        for (item, count, error) in self.summary.iter_desc() {
            assert!(error <= count);
            let id = self.index[&item];
            assert_eq!(self.summary.item(id), item);
        }
    }
}

impl<K: Element> FrequencyCounter<K> for SpaceSaving<K> {
    #[inline]
    fn process(&mut self, item: K) {
        self.process_weighted(item, 1);
    }

    fn processed(&self) -> u64 {
        self.total
    }
}

impl<K: Element> QueryableSummary<K> for SpaceSaving<K> {
    fn snapshot(&self) -> Snapshot<K> {
        let entries: Vec<CounterEntry<K>> = self
            .summary
            .iter_desc()
            .map(|(item, count, error)| CounterEntry::new(item, count, error))
            .collect();
        Snapshot::from_sorted(entries, self.total)
    }

    fn estimate(&self, item: &K) -> Option<(u64, u64)> {
        self.index
            .get(item)
            .map(|&id| (self.summary.count(id), self.summary.error(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cots_core::Threshold;

    fn ss(capacity: usize) -> SpaceSaving<u64> {
        SpaceSaving::new(SummaryConfig::with_capacity(capacity).unwrap())
    }

    #[test]
    fn exact_when_alphabet_fits() {
        let mut s = ss(10);
        for item in [1u64, 2, 2, 3, 3, 3, 1] {
            s.process(item);
        }
        s.check_invariants();
        assert_eq!(s.estimate(&1), Some((2, 0)));
        assert_eq!(s.estimate(&2), Some((2, 0)));
        assert_eq!(s.estimate(&3), Some((3, 0)));
        assert_eq!(s.processed(), 7);
    }

    #[test]
    fn overwrite_when_full() {
        let mut s = ss(2);
        s.process(1);
        s.process(1);
        s.process(2);
        // Structure full {1:2, 2:1}; element 3 overwrites 2 (min).
        s.process(3);
        s.check_invariants();
        assert_eq!(s.estimate(&2), None);
        assert_eq!(s.estimate(&3), Some((2, 1)));
        assert_eq!(s.monitored(), 2);
        // Count conservation.
        assert_eq!(
            s.snapshot().entries().iter().map(|e| e.count).sum::<u64>(),
            4
        );
    }

    #[test]
    fn bounds_hold_on_zipf_like_stream() {
        // Deterministic skewed stream over 50 keys, capacity 8.
        let mut stream = Vec::new();
        for i in 1..=50u64 {
            for _ in 0..(200 / i) {
                stream.push(i);
            }
        }
        // Interleave deterministically.
        let mut interleaved = Vec::with_capacity(stream.len());
        let mut chunks: Vec<_> = stream.chunks(7).collect();
        while !chunks.is_empty() {
            let mut next = Vec::new();
            for c in chunks {
                if let Some((&first, rest)) = c.split_first() {
                    interleaved.push(first);
                    if !rest.is_empty() {
                        next.push(rest);
                    }
                }
            }
            chunks = next;
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut s = ss(8);
        for &e in &interleaved {
            s.process(e);
            *truth.entry(e).or_insert(0) += 1;
        }
        s.check_invariants();
        let n = s.processed();
        let snap = s.snapshot();
        // Per-element bounds.
        for e in snap.entries() {
            let t = truth[&e.item];
            assert!(e.count >= t, "count {} < true {}", e.count, t);
            assert!(
                e.guaranteed() <= t,
                "guarantee {} > true {}",
                e.guaranteed(),
                t
            );
        }
        // ε-recall: every element above N/m must be monitored.
        let eps_bound = n / 8;
        for (&item, &t) in &truth {
            if t > eps_bound {
                assert!(
                    snap.get(&item).is_some(),
                    "{item} (count {t}) not monitored"
                );
            }
        }
        // Unmonitored elements bounded by min count.
        for (&item, &t) in &truth {
            if snap.get(&item).is_none() {
                assert!(t <= s.min_count());
            }
        }
    }

    #[test]
    fn frequent_query_overestimates_only() {
        let mut s = ss(4);
        for e in [1u64, 1, 1, 1, 2, 2, 3, 4, 5, 6] {
            s.process(e);
        }
        s.check_invariants();
        let snap = s.snapshot();
        // Guaranteed-frequent answers must be truly frequent.
        for e in snap.guaranteed_frequent(Threshold::Count(3)) {
            assert!(e.item == 1, "only element 1 truly reaches 3, got {:?}", e);
        }
    }

    #[test]
    fn weighted_processing() {
        let mut s = ss(4);
        s.process_weighted(7, 10);
        s.process_weighted(8, 5);
        s.process_weighted(7, 3);
        s.check_invariants();
        assert_eq!(s.estimate(&7), Some((13, 0)));
        assert_eq!(s.processed(), 18);
    }

    #[test]
    fn capacity_one_tracks_majority_candidate() {
        let mut s = ss(1);
        for e in [1u64, 2, 1, 3, 1, 4, 1, 1] {
            s.process(e);
        }
        s.check_invariants();
        // With one counter, Space Saving holds the last inserted key with
        // the full stream count as its estimate.
        assert_eq!(s.monitored(), 1);
        let snap = s.snapshot();
        assert_eq!(snap.entries()[0].count, 8);
    }

    #[test]
    fn epsilon_constructor() {
        let s = SpaceSaving::<u64>::with_epsilon(0.01).unwrap();
        assert_eq!(s.capacity(), 100);
        assert!(SpaceSaving::<u64>::with_epsilon(0.0).is_err());
    }

    #[test]
    fn seed_installs_entries_and_charges_the_floor_on_admission() {
        let mut s = ss(4);
        let seed = [CounterEntry::new(1u64, 5, 0), CounterEntry::new(2u64, 9, 2)];
        s.seed(&seed, 3).unwrap();
        s.check_invariants();
        assert_eq!(
            (s.estimate(&2), s.estimate(&1)),
            (Some((9, 2)), Some((5, 0)))
        );
        assert_eq!(s.processed(), 0, "the seeded mass is the caller's");
        // Free slots admit at the floor; a monitored key just counts.
        s.process(7);
        s.process_weighted(1, 2);
        s.check_invariants();
        assert_eq!(s.estimate(&7), Some((4, 3)));
        assert_eq!(s.estimate(&1), Some((7, 0)));
        assert_eq!(s.processed(), 3);
        // Full: the ordinary overwrite of the minimum (4) takes over.
        s.process(8);
        s.process(9);
        s.check_invariants();
        assert_eq!(s.estimate(&9), Some((5, 4)));
    }

    #[test]
    fn seed_refusals_leave_the_summary_untouched() {
        let e = |item: u64, count, error| CounterEntry::new(item, count, error);
        let mut s = ss(2);
        assert!(s.seed(&[e(1, 1, 0), e(2, 1, 0), e(3, 1, 0)], 0).is_err());
        assert!(s.seed(&[e(1, 1, 0), e(1, 2, 0)], 0).is_err());
        assert!(s
            .seed(
                &[CounterEntry {
                    item: 1,
                    count: 1,
                    error: 2
                }],
                0
            )
            .is_err());
        assert_eq!(s.monitored(), 0);
        s.process(5);
        assert!(
            s.seed(&[e(1, 1, 0)], 0).is_err(),
            "a used summary is not seeded"
        );
        s.seed(&[], 0).unwrap_err();
        s.check_invariants();
    }

    #[test]
    fn snapshot_sorted_desc() {
        let mut s = ss(16);
        for e in [5u64, 5, 5, 1, 2, 2, 9] {
            s.process(e);
        }
        let snap = s.snapshot();
        let counts: Vec<u64> = snap.entries().iter().map(|e| e.count).collect();
        let mut sorted = counts.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(counts, sorted);
    }
}
