//! Sequential *Lossy Counting* (Manku & Motwani, VLDB '02; paper §2, §5.3).
//!
//! The stream is divided into rounds ("buckets") of width `w = ⌈1/ε⌉`. Each
//! monitored entry carries `(count, Δ)` where Δ is the round id at insertion
//! minus one — the maximum number of occurrences that could have been missed.
//! At every round boundary, entries with `count + Δ <= current_round` are
//! deleted. Space is `O((1/ε)·log(εN))`; estimates satisfy
//! `f(e) - εN <= count(e) <= f(e)`.
//!
//! To fit the suite-wide [`CounterEntry`] contract (`count` over-estimates,
//! `count - error` under-estimates), snapshots report
//! `count' = count + Δ` and `error = Δ`.

use std::collections::HashMap;

use cots_core::{
    CounterEntry, Element, FrequencyCounter, QueryableSummary, Result, SeededMulHash, Snapshot,
    SummaryConfig,
};

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u64,
    delta: u64,
}

/// Sequential Lossy Counting.
#[derive(Debug, Clone)]
pub struct LossyCounting<K: Element> {
    entries: HashMap<K, Entry, SeededMulHash>,
    /// Round width `w = ⌈1/ε⌉`.
    width: u64,
    /// Current round id `b = ⌈N/w⌉` (1-based; 0 before the first element).
    round: u64,
    total: u64,
}

impl<K: Element> LossyCounting<K> {
    /// Build with round width taken from the counter budget (`w =
    /// capacity`), i.e. ε = 1/capacity.
    pub fn new(config: SummaryConfig) -> Self {
        Self {
            entries: HashMap::default(),
            width: config.capacity as u64,
            round: 0,
            total: 0,
        }
    }

    /// Build from ε directly.
    pub fn with_epsilon(epsilon: f64) -> Result<Self> {
        Ok(Self::new(SummaryConfig::with_epsilon(epsilon)?))
    }

    /// Round width `w`.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Number of monitored entries.
    pub fn monitored(&self) -> usize {
        self.entries.len()
    }

    /// The current round id.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Delete provably infrequent entries; called automatically at round
    /// boundaries, public so policies (and the CoTS adaptation) can force a
    /// compression.
    pub fn compress(&mut self) {
        let round = self.round;
        self.entries.retain(|_, e| e.count + e.delta > round);
    }

    /// Verify algorithmic invariants (tests only).
    pub fn check_invariants(&self) {
        for e in self.entries.values() {
            assert!(e.delta < self.round.max(1), "delta below round id");
            assert!(e.count >= 1);
        }
    }
}

impl<K: Element> FrequencyCounter<K> for LossyCounting<K> {
    fn process(&mut self, item: K) {
        self.total += 1;
        let round = self.total.div_ceil(self.width);
        self.round = round;
        match self.entries.get_mut(&item) {
            Some(e) => e.count += 1,
            None => {
                self.entries.insert(
                    item,
                    Entry {
                        count: 1,
                        delta: round - 1,
                    },
                );
            }
        }
        if self.total.is_multiple_of(self.width) {
            self.compress();
        }
    }

    fn processed(&self) -> u64 {
        self.total
    }
}

impl<K: Element> QueryableSummary<K> for LossyCounting<K> {
    fn snapshot(&self) -> Snapshot<K> {
        Snapshot::new(
            self.entries
                .iter()
                .map(|(&k, e)| CounterEntry::new(k, e.count + e.delta, e.delta))
                .collect(),
            self.total,
        )
    }

    fn estimate(&self, item: &K) -> Option<(u64, u64)> {
        self.entries.get(item).map(|e| (e.count + e.delta, e.delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc(width: usize) -> LossyCounting<u64> {
        LossyCounting::new(SummaryConfig::with_capacity(width).unwrap())
    }

    #[test]
    fn exact_within_first_round() {
        let mut l = lc(100);
        for e in [1u64, 1, 2, 3, 3, 3] {
            l.process(e);
        }
        assert_eq!(l.estimate(&3), Some((3, 0)));
        assert_eq!(l.estimate(&2), Some((1, 0)));
        l.check_invariants();
    }

    #[test]
    fn compress_drops_infrequent_at_round_boundary() {
        let mut l = lc(4);
        // Round 1: 1,2,3,4 — all get count 1, delta 0; at N=4 compression
        // drops entries with count + delta <= 1, i.e. all of them.
        for e in [1u64, 2, 3, 4] {
            l.process(e);
        }
        assert_eq!(l.monitored(), 0);
        // Round 2: element 1 twice survives (count 2 + delta 1 > 2).
        l.process(1);
        l.process(1);
        l.process(9);
        l.process(9); // N=8 boundary: 1 has (2,1) -> 3 > 2 keeps; 9 has (2,1) keeps.
        assert_eq!(l.monitored(), 2);
        l.check_invariants();
    }

    #[test]
    fn epsilon_bounds_hold() {
        // Skewed deterministic stream, ε = 1/8.
        let mut l = lc(8);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut x = 7u64;
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Skew: map to small ids with heavy head.
            let e = (x % 64).min(x % 8);
            l.process(e);
            *truth.entry(e).or_insert(0) += 1;
        }
        let n = l.processed();
        let eps_n = n / 8;
        let snap = l.snapshot();
        for e in snap.entries() {
            let t = truth[&e.item];
            assert!(e.count >= t, "upper bound violated");
            assert!(e.guaranteed() <= t, "lower bound violated");
        }
        // Completeness: anything with true count > εN must be monitored.
        for (&item, &t) in &truth {
            if t > eps_n {
                assert!(snap.get(&item).is_some(), "{item} with count {t} missing");
            }
        }
        // Space bound sanity: well under alphabet size for skewed input.
        assert!(l.monitored() <= 64);
        l.check_invariants();
    }

    #[test]
    fn forced_compress_is_idempotent() {
        let mut l = lc(10);
        for e in 0..5u64 {
            l.process(e);
        }
        let before = l.monitored();
        l.compress();
        let mid = l.monitored();
        l.compress();
        assert_eq!(mid, l.monitored());
        assert!(mid <= before);
    }

    #[test]
    fn snapshot_totals() {
        let mut l = lc(16);
        for e in [1u64, 1, 2] {
            l.process(e);
        }
        let s = l.snapshot();
        assert_eq!(s.total(), 3);
        assert_eq!(s.entries()[0].item, 1);
    }
}
