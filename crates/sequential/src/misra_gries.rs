//! *Misra–Gries / Frequent* (Misra & Gries '82; Demaine et al. '02 — the
//! paper's reference \[9\]).
//!
//! Keeps at most `m` counters. A monitored element is incremented; an
//! unmonitored element takes a free counter if one exists; otherwise *every*
//! counter is decremented by one (conceptually matching `m+1` distinct
//! elements against each other and discarding all of them). Estimates
//! under-count by at most `D`, the number of decrement rounds, and
//! `D <= N/(m+1)`.
//!
//! To fit the suite-wide [`CounterEntry`] contract (`count` over-estimates,
//! `count - error` under-estimates), snapshots report `count' = count + D`
//! and `error = D`.

use std::collections::HashMap;

use cots_core::{
    CounterEntry, Element, FrequencyCounter, QueryableSummary, Result, SeededMulHash, Snapshot,
    SummaryConfig,
};

/// Sequential Misra–Gries.
#[derive(Debug, Clone)]
pub struct MisraGries<K: Element> {
    counts: HashMap<K, u64, SeededMulHash>,
    capacity: usize,
    /// Number of decrement rounds performed.
    decrements: u64,
    total: u64,
}

impl<K: Element> MisraGries<K> {
    /// Build with an explicit counter budget.
    pub fn new(config: SummaryConfig) -> Self {
        Self {
            counts: HashMap::with_capacity_and_hasher(config.capacity * 2, SeededMulHash::new()),
            capacity: config.capacity,
            decrements: 0,
            total: 0,
        }
    }

    /// Build from ε: budget `⌈1/ε⌉` guarantees under-count ≤ εN.
    pub fn with_epsilon(epsilon: f64) -> Result<Self> {
        Ok(Self::new(SummaryConfig::with_epsilon(epsilon)?))
    }

    /// Number of monitored elements.
    pub fn monitored(&self) -> usize {
        self.counts.len()
    }

    /// Decrement rounds so far (the global error bound).
    pub fn decrement_rounds(&self) -> u64 {
        self.decrements
    }

    /// Verify algorithmic invariants (tests only).
    pub fn check_invariants(&self) {
        assert!(self.counts.len() <= self.capacity);
        assert!(self.decrements <= self.total / (self.capacity as u64 + 1));
        let kept: u64 = self.counts.values().sum();
        // Every decrement round discards m+1 units of mass (m counters plus
        // the arriving element); what remains is the monitored mass.
        assert_eq!(
            kept + self.decrements * (self.capacity as u64 + 1),
            self.total
        );
    }
}

impl<K: Element> FrequencyCounter<K> for MisraGries<K> {
    fn process(&mut self, item: K) {
        self.total += 1;
        if let Some(c) = self.counts.get_mut(&item) {
            *c += 1;
            return;
        }
        if self.counts.len() < self.capacity {
            self.counts.insert(item, 1);
            return;
        }
        // Decrement round: the arriving element cancels one unit of every
        // monitored counter (and of itself).
        self.decrements += 1;
        self.counts.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
    }

    fn processed(&self) -> u64 {
        self.total
    }
}

impl<K: Element> QueryableSummary<K> for MisraGries<K> {
    fn snapshot(&self) -> Snapshot<K> {
        let d = self.decrements;
        Snapshot::new(
            self.counts
                .iter()
                .map(|(&k, &c)| CounterEntry::new(k, c + d, d))
                .collect(),
            self.total,
        )
    }

    fn estimate(&self, item: &K) -> Option<(u64, u64)> {
        self.counts
            .get(item)
            .map(|&c| (c + self.decrements, self.decrements))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mg(capacity: usize) -> MisraGries<u64> {
        MisraGries::new(SummaryConfig::with_capacity(capacity).unwrap())
    }

    #[test]
    fn exact_when_alphabet_fits() {
        let mut m = mg(8);
        for e in [1u64, 2, 2, 3, 3, 3] {
            m.process(e);
        }
        assert_eq!(m.estimate(&3), Some((3, 0)));
        assert_eq!(m.decrement_rounds(), 0);
        m.check_invariants();
    }

    #[test]
    fn decrement_round_discards_mass() {
        let mut m = mg(2);
        m.process(1);
        m.process(2);
        m.process(3); // full: decrement round; both counters hit 0.
        assert_eq!(m.monitored(), 0);
        assert_eq!(m.decrement_rounds(), 1);
        m.check_invariants();
    }

    #[test]
    fn majority_element_survives() {
        // Classic majority guarantee with m = 1: an absolute-majority
        // element is always the surviving counter.
        let mut m = mg(1);
        for e in [1u64, 2, 1, 3, 1, 4, 1] {
            m.process(e);
        }
        m.check_invariants();
        let snap = m.snapshot();
        assert_eq!(snap.entries()[0].item, 1);
    }

    #[test]
    fn bounds_hold() {
        let mut m = mg(4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut x = 3u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let e = (x % 32).min(x % 4);
            m.process(e);
            *truth.entry(e).or_insert(0) += 1;
        }
        m.check_invariants();
        let snap = m.snapshot();
        for e in snap.entries() {
            let t = truth[&e.item];
            assert!(e.count >= t, "upper bound: {} < {}", e.count, t);
            assert!(
                e.guaranteed() <= t,
                "lower bound: {} > {}",
                e.guaranteed(),
                t
            );
        }
        // D <= N/(m+1).
        assert!(m.decrement_rounds() <= m.processed() / 5);
    }

    #[test]
    fn heavy_hitters_above_n_over_m_are_kept() {
        let mut m = mg(4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // 60% mass on element 1, rest spread.
        let mut x = 11u64;
        for i in 0..1000u64 {
            let e = if i % 5 < 3 {
                1u64
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                2 + (x % 50)
            };
            m.process(e);
            *truth.entry(e).or_insert(0) += 1;
        }
        let n = m.processed();
        let snap = m.snapshot();
        for (&item, &t) in &truth {
            if t > n / 5 {
                // Anything above N/(m+1) must be monitored.
                assert!(snap.get(&item).is_some(), "{item} ({t}) missing");
            }
        }
    }
}
