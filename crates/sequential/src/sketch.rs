//! Sketch-based baselines: *Count-Min* (Cormode & Muthukrishnan — the
//! paper's reference \[6\]) and *Count Sketch* (Charikar et al. — reference
//! \[3\]).
//!
//! The paper contrasts these with counter-based techniques: sketches hash
//! every element through `d` rows (higher per-element cost), keep no
//! per-element state (weaker, additive error bounds) and cannot enumerate
//! the frequent set by themselves. Following standard practice — and so the
//! sketches can implement [`QueryableSummary`] like every other engine —
//! each sketch is paired with a candidate set of the current top-`m`
//! estimated elements, maintained on the fly.

use std::collections::HashMap;

use cots_core::{
    CounterEntry, Element, FrequencyCounter, MulHash, QueryableSummary, Result, SeededMulHash,
    Snapshot, SummaryConfig,
};

/// Maintains the top-`m` candidates by estimated count next to a sketch.
#[derive(Debug, Clone)]
struct TopKeeper<K: Element> {
    entries: HashMap<K, u64, SeededMulHash>,
    capacity: usize,
}

impl<K: Element> TopKeeper<K> {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::with_capacity_and_hasher(capacity * 2, SeededMulHash::new()),
            capacity,
        }
    }

    /// Offer an updated estimate for `item`.
    fn offer(&mut self, item: K, estimate: u64) {
        if let Some(e) = self.entries.get_mut(&item) {
            *e = estimate;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(item, estimate);
            return;
        }
        // Replace the current minimum if the newcomer beats it.
        let (&min_item, &min_est) = self
            .entries
            .iter()
            .min_by_key(|(_, &v)| v)
            .expect("capacity > 0 and full");
        if estimate > min_est {
            self.entries.remove(&min_item);
            self.entries.insert(item, estimate);
        }
    }
}

/// Count-Min sketch with a top-`m` candidate set.
///
/// Width `w = ⌈e/ε⌉`, depth `d = ⌈ln(1/δ)⌉`; estimates over-count by at most
/// `εN` with probability `1 − δ`.
#[derive(Debug, Clone)]
pub struct CountMinSketch<K: Element> {
    rows: Vec<Vec<u64>>,
    width: usize,
    top: TopKeeper<K>,
    total: u64,
}

impl<K: Element> CountMinSketch<K> {
    /// Build from (ε, δ) with a `capacity`-sized candidate set.
    pub fn new(epsilon: f64, delta: f64, candidates: SummaryConfig) -> Result<Self> {
        let _ = SummaryConfig::with_epsilon(epsilon)?; // validates ε range
        if !(delta > 0.0 && delta < 1.0) {
            return Err(cots_core::CotsError::InvalidConfig(format!(
                "delta must be in (0, 1), got {delta}"
            )));
        }
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Ok(Self {
            rows: vec![vec![0u64; width]; depth],
            width,
            top: TopKeeper::new(candidates.capacity),
            total: 0,
        })
    }

    /// Sketch depth (number of rows).
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Sketch width (counters per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Point estimate: min over rows. Never under-counts.
    pub fn estimate_count(&self, item: &K) -> u64 {
        self.rows
            .iter()
            .enumerate()
            .map(|(r, row)| row[(MulHash::row_hash(item, r as u64) % self.width as u64) as usize])
            .min()
            .unwrap_or(0)
    }
}

impl<K: Element> FrequencyCounter<K> for CountMinSketch<K> {
    fn process(&mut self, item: K) {
        self.total += 1;
        let mut est = u64::MAX;
        for r in 0..self.rows.len() {
            let idx = (MulHash::row_hash(&item, r as u64) % self.width as u64) as usize;
            self.rows[r][idx] += 1;
            est = est.min(self.rows[r][idx]);
        }
        self.top.offer(item, est);
    }

    fn processed(&self) -> u64 {
        self.total
    }
}

impl<K: Element> QueryableSummary<K> for CountMinSketch<K> {
    fn snapshot(&self) -> Snapshot<K> {
        // Candidate estimates are refreshed from the sketch at snapshot
        // time; error is the εN additive bound expressed per entry as the
        // over-count possibility (count itself is the upper bound, and the
        // sketch gives no per-item lower bound better than 0, so we report
        // error = count − 0 capped at count... practically: the candidate's
        // sketched estimate with error equal to the worst-case collision
        // mass `total / width`).
        let collision_bound = self.total / self.width as u64;
        Snapshot::new(
            self.top
                .entries
                .keys()
                .map(|&k| {
                    let est = self.estimate_count(&k);
                    CounterEntry::new(k, est, collision_bound.min(est))
                })
                .collect(),
            self.total,
        )
    }

    fn estimate(&self, item: &K) -> Option<(u64, u64)> {
        let est = self.estimate_count(item);
        if est == 0 {
            None
        } else {
            Some((est, (self.total / self.width as u64).min(est)))
        }
    }
}

/// Count Sketch with a top-`m` candidate set.
///
/// Like Count-Min but each row also carries a ±1 sign hash; the estimate is
/// the *median* of the signed row estimates, giving two-sided error
/// `O(√(N₂)/w)` — tighter for skewed streams.
#[derive(Debug, Clone)]
pub struct CountSketch<K: Element> {
    rows: Vec<Vec<i64>>,
    width: usize,
    top: TopKeeper<K>,
    total: u64,
}

impl<K: Element> CountSketch<K> {
    /// Build with explicit width/depth and a `capacity`-sized candidate set.
    pub fn new(width: usize, depth: usize, candidates: SummaryConfig) -> Result<Self> {
        if width == 0 || depth == 0 {
            return Err(cots_core::CotsError::InvalidConfig(
                "sketch width and depth must be positive".into(),
            ));
        }
        Ok(Self {
            rows: vec![vec![0i64; width]; depth],
            width,
            top: TopKeeper::new(candidates.capacity),
            total: 0,
        })
    }

    #[inline]
    fn cell_and_sign(&self, item: &K, row: usize) -> (usize, i64) {
        let h = MulHash::row_hash(item, row as u64);
        let idx = ((h >> 1) % self.width as u64) as usize;
        let sign = if h & 1 == 0 { 1 } else { -1 };
        (idx, sign)
    }

    /// Point estimate: median of signed row readings, clamped at 0.
    pub fn estimate_count(&self, item: &K) -> u64 {
        let mut ests: Vec<i64> = (0..self.rows.len())
            .map(|r| {
                let (idx, sign) = self.cell_and_sign(item, r);
                self.rows[r][idx] * sign
            })
            .collect();
        ests.sort_unstable();
        let mid = ests.len() / 2;
        let median = if ests.len() % 2 == 1 {
            ests[mid]
        } else {
            (ests[mid - 1] + ests[mid]) / 2
        };
        median.max(0) as u64
    }
}

impl<K: Element> FrequencyCounter<K> for CountSketch<K> {
    fn process(&mut self, item: K) {
        self.total += 1;
        for r in 0..self.rows.len() {
            let (idx, sign) = self.cell_and_sign(&item, r);
            self.rows[r][idx] += sign;
        }
        let est = self.estimate_count(&item);
        self.top.offer(item, est);
    }

    fn processed(&self) -> u64 {
        self.total
    }
}

impl<K: Element> QueryableSummary<K> for CountSketch<K> {
    fn snapshot(&self) -> Snapshot<K> {
        // Count Sketch error is two-sided: report the estimate with an
        // error allowance of total/width on each side (count may also
        // under-estimate; the Snapshot contract is interpreted as the
        // symmetric confidence interval here and documented as such).
        let bound = self.total / self.width as u64;
        Snapshot::new(
            self.top
                .entries
                .keys()
                .map(|&k| {
                    let est = self.estimate_count(&k);
                    CounterEntry::new(
                        k,
                        est.saturating_add(bound),
                        bound.min(est.saturating_add(bound)),
                    )
                })
                .collect(),
            self.total,
        )
    }

    fn estimate(&self, item: &K) -> Option<(u64, u64)> {
        let est = self.estimate_count(item);
        if est == 0 {
            None
        } else {
            let bound = self.total / self.width as u64;
            Some((est.saturating_add(bound), bound))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cms() -> CountMinSketch<u64> {
        CountMinSketch::new(0.01, 0.01, SummaryConfig::with_capacity(8).unwrap()).unwrap()
    }

    #[test]
    fn cms_dimensions() {
        let s = cms();
        assert_eq!(s.width(), (std::f64::consts::E / 0.01).ceil() as usize);
        assert_eq!(s.depth(), 5); // ln(100) ≈ 4.6 -> 5
    }

    #[test]
    fn cms_never_undercounts() {
        let mut s = cms();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut x = 1u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let e = x % 300;
            s.process(e);
            *truth.entry(e).or_insert(0) += 1;
        }
        for (&item, &t) in &truth {
            assert!(s.estimate_count(&item) >= t);
        }
    }

    #[test]
    fn cms_error_within_bound_for_heavy_items() {
        let mut s = cms();
        for i in 0..1000u64 {
            s.process(i % 10); // 10 heavy items
        }
        let n = s.processed();
        let eps_n = (0.01 * n as f64).ceil() as u64;
        for i in 0..10u64 {
            let est = s.estimate_count(&i);
            assert!(est >= 100);
            assert!(est <= 100 + eps_n, "est {est} exceeds bound");
        }
    }

    #[test]
    fn cms_snapshot_contains_heavy_candidates() {
        let mut s = cms();
        for i in 0..2000u64 {
            s.process(if i % 2 == 0 { 1 } else { i });
        }
        let snap = s.snapshot();
        assert_eq!(snap.top_k(1)[0].item, 1);
    }

    #[test]
    fn cms_rejects_bad_params() {
        assert!(
            CountMinSketch::<u64>::new(0.0, 0.1, SummaryConfig::with_capacity(4).unwrap()).is_err()
        );
        assert!(
            CountMinSketch::<u64>::new(0.1, 1.5, SummaryConfig::with_capacity(4).unwrap()).is_err()
        );
    }

    #[test]
    fn count_sketch_estimates_heavy_items() {
        let mut s =
            CountSketch::<u64>::new(512, 5, SummaryConfig::with_capacity(8).unwrap()).unwrap();
        let mut x = 9u64;
        for i in 0..4000u64 {
            let e = if i % 4 != 0 {
                7u64 // 75% of the stream
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                100 + (x % 500)
            };
            s.process(e);
        }
        let est = s.estimate_count(&7);
        let true_count = 3000;
        assert!(
            (est as i64 - true_count).unsigned_abs() < 200,
            "estimate {est} too far from {true_count}"
        );
        // The heavy item must be the top candidate.
        assert_eq!(s.snapshot().top_k(1)[0].item, 7);
    }

    #[test]
    fn count_sketch_unseen_items_near_zero() {
        let mut s =
            CountSketch::<u64>::new(256, 5, SummaryConfig::with_capacity(4).unwrap()).unwrap();
        for i in 0..100u64 {
            s.process(i % 3);
        }
        // An unseen item's median estimate should be small.
        assert!(s.estimate_count(&999) < 10);
    }

    #[test]
    fn count_sketch_rejects_zero_dims() {
        assert!(CountSketch::<u64>::new(0, 3, SummaryConfig::with_capacity(4).unwrap()).is_err());
        assert!(CountSketch::<u64>::new(8, 0, SummaryConfig::with_capacity(4).unwrap()).is_err());
    }

    #[test]
    fn top_keeper_replaces_minimum() {
        let mut t: TopKeeper<u64> = TopKeeper::new(2);
        t.offer(1, 10);
        t.offer(2, 5);
        t.offer(3, 7); // evicts 2
        assert!(t.entries.contains_key(&1));
        assert!(t.entries.contains_key(&3));
        assert!(!t.entries.contains_key(&2));
        t.offer(4, 1); // too small, ignored
        assert!(!t.entries.contains_key(&4));
        t.offer(3, 20); // update in place
        assert_eq!(t.entries[&3], 20);
    }
}
