//! Thread-local combining front-end: batch-scoped pre-aggregation of
//! `(key, count)` pairs in front of the shared search structure.
//!
//! CoTS's whole advantage is the *combining factor* — how many logged
//! increments each boundary crossing absorbs (§5.2). The delegation
//! protocol combines across threads, but inside one thread's batch every
//! occurrence still pays a full `lookup_or_insert` + `fetch_add` on the
//! shared table. On a skewed stream most of those occurrences repeat a
//! handful of hot keys, so a small open-addressing buffer local to the
//! batch collapses them first: one table operation and one
//! `pending.fetch_add(count)` per distinct hot key instead of one per
//! occurrence.
//!
//! ## Determinism and invariants
//!
//! The combiner is **batch-scoped**, not a persistent thread-local: it is
//! created on entry to `delegate_batch` and fully drained before the call
//! returns (and, under the Lossy policy, before every round-boundary
//! prune). No stream mass ever survives the call inside private state, so
//! count conservation (`Σ counts == N` at quiescence) and the
//! overestimate bound are preserved exactly; the only observable change
//! is that a batch's occurrences of one key reach the summary as one
//! aggregated increment instead of many unit increments.
//!
//! ## Eviction
//!
//! The buffer is fixed-capacity open addressing with a short linear-probe
//! window. When a new key lands in a full window, the *smallest-count*
//! entry in the window (first such, scanning from the home slot —
//! deterministic) is evicted and handed back to the caller for immediate
//! flush through the delegation protocol. Hot keys accumulate; cold keys
//! stream through with count 1, which is exactly the non-combined path.

/// One occupied combiner slot.
struct Slot<K> {
    key: K,
    /// The key's full hash, computed once; reused by the flush path so the
    /// shared-table lookup never rehashes.
    hash: u64,
    count: u64,
}

/// Number of slots inspected from the home slot before evicting.
const PROBE: usize = 8;

/// A fixed-capacity open-addressing `(key, count)` buffer.
///
/// Capacity must be a non-zero power of two (enforced by
/// `CotsConfig::validate`; asserted here).
pub struct BatchCombiner<K> {
    slots: Box<[Option<Slot<K>>]>,
    mask: usize,
    occupied: usize,
}

impl<K: Copy + PartialEq> BatchCombiner<K> {
    /// A combiner with `slots` slots (non-zero power of two).
    pub fn new(slots: usize) -> Self {
        assert!(
            slots != 0 && slots.is_power_of_two(),
            "combiner slots must be a non-zero power of two, got {slots}"
        );
        Self {
            slots: (0..slots).map(|_| None).collect(),
            mask: slots - 1,
            occupied: 0,
        }
    }

    /// Record one occurrence of `key` (whose hash is `hash`).
    ///
    /// Returns `None` when the occurrence was absorbed locally, or
    /// `Some((victim_key, victim_hash, victim_count))` when the probe
    /// window was full and the smallest-count resident was evicted to make
    /// room — the caller must flush the victim immediately.
    pub fn add(&mut self, key: K, hash: u64) -> Option<(K, u64, u64)> {
        let start = hash as usize & self.mask;
        let window = PROBE.min(self.slots.len());
        let mut free: Option<usize> = None;
        for i in 0..window {
            let idx = (start + i) & self.mask;
            match &mut self.slots[idx] {
                Some(s) if s.hash == hash && s.key == key => {
                    s.count += 1;
                    return None;
                }
                Some(_) => {}
                None => {
                    if free.is_none() {
                        free = Some(idx);
                    }
                }
            }
        }
        if let Some(idx) = free {
            self.slots[idx] = Some(Slot {
                key,
                hash,
                count: 1,
            });
            self.occupied += 1;
            return None;
        }
        // Window full of other keys: evict the first smallest-count entry.
        let mut victim = start;
        let mut victim_count = u64::MAX;
        for i in 0..window {
            let idx = (start + i) & self.mask;
            // Every window slot is occupied here (no `free` was found).
            let c = self.slots[idx].as_ref().map_or(u64::MAX, |s| s.count);
            if c < victim_count {
                victim = idx;
                victim_count = c;
            }
        }
        self.slots[victim]
            .replace(Slot {
                key,
                hash,
                count: 1,
            })
            .map(|s| (s.key, s.hash, s.count))
    }

    /// Flush every buffered entry through `f` (slot-index order —
    /// deterministic for a given insertion history) and reset.
    pub fn drain(&mut self, mut f: impl FnMut(K, u64, u64)) {
        if self.occupied == 0 {
            return;
        }
        for slot in self.slots.iter_mut() {
            if let Some(s) = slot.take() {
                f(s.key, s.hash, s.count);
            }
        }
        self.occupied = 0;
    }

    /// Number of distinct keys currently buffered.
    pub fn distinct(&self) -> usize {
        self.occupied
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(c: &mut BatchCombiner<u64>) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        c.drain(|k, h, n| out.push((k, h, n)));
        out
    }

    #[test]
    fn hot_key_aggregates_into_one_entry() {
        let mut c = BatchCombiner::new(64);
        for _ in 0..1000 {
            assert!(c.add(7, 0x1234).is_none());
        }
        assert_eq!(c.distinct(), 1);
        assert_eq!(collect(&mut c), vec![(7, 0x1234, 1000)]);
        assert!(c.is_empty());
    }

    #[test]
    fn distinct_keys_occupy_distinct_slots() {
        let mut c = BatchCombiner::new(64);
        for k in 0..32u64 {
            // Spread hashes so windows don't fill.
            assert!(c.add(k, k.wrapping_mul(0x9E37_79B9)).is_none());
        }
        assert_eq!(c.distinct(), 32);
        let mut out = collect(&mut c);
        out.sort_unstable();
        assert_eq!(out.len(), 32);
        for (i, &(k, _, n)) in out.iter().enumerate() {
            assert_eq!(k, i as u64);
            assert_eq!(n, 1);
        }
    }

    #[test]
    fn full_window_evicts_smallest_count() {
        let mut c = BatchCombiner::new(8); // window == capacity
                                           // Fill all 8 slots with colliding keys; key 0 gets extra mass.
        for k in 0..8u64 {
            assert!(c.add(k, 0).is_none());
        }
        for _ in 0..5 {
            assert!(c.add(0, 0).is_none());
        }
        // Ninth key: some count-1 resident is evicted, never the hot key.
        let (vk, vh, vn) = c.add(99, 0).expect("window full: must evict");
        assert_ne!(vk, 0);
        assert_eq!(vh, 0);
        assert_eq!(vn, 1);
        // Total buffered mass is conserved minus the evicted unit.
        let total: u64 = collect(&mut c).iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total + vn, 8 + 5 + 1);
    }

    #[test]
    fn eviction_is_deterministic() {
        let build = || {
            let mut c = BatchCombiner::new(8);
            for k in 0..8u64 {
                c.add(k, 0);
            }
            c.add(0, 0);
            let victim = c.add(99, 0);
            (victim, collect(&mut c))
        };
        assert_eq!(build().0, build().0);
        assert_eq!(build().1, build().1);
    }

    #[test]
    fn drain_resets_for_reuse() {
        let mut c = BatchCombiner::new(16);
        c.add(1, 1);
        c.add(1, 1);
        assert_eq!(collect(&mut c), vec![(1, 1, 2)]);
        c.add(2, 2);
        assert_eq!(collect(&mut c), vec![(2, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = BatchCombiner::<u64>::new(12);
    }
}
