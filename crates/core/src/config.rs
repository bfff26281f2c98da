//! Engine configuration.
//!
//! All counter-based engines share the [`SummaryConfig`]: a counter budget
//! `m`, derivable from the ε error bound as `m = ceil(1/ε)` (Space Saving
//! monitors O(1/ε) counters for an ε-deviant answer, §3.3). The CoTS engine
//! additionally takes a [`CotsConfig`] describing the search structure and
//! the cooperative scheduler.

use crate::error::{CotsError, Result};
use crate::json_record;

json_record! {
    /// Counter budget configuration shared by every counter-based algorithm.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SummaryConfig {
        /// Maximum number of monitored counters (`m`).
        pub capacity: usize,
    }
}

impl SummaryConfig {
    /// The largest counter budget. A Stream Summary addresses its counters
    /// by `u32` ids (`cots_sequential::NodeId`) with `u32::MAX` reserved as
    /// "none", so no summary can hold more.
    pub const MAX_CAPACITY: usize = u32::MAX as usize;

    /// Configure from an explicit counter budget in `1..=MAX_CAPACITY`.
    pub fn with_capacity(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(CotsError::InvalidConfig("capacity must be positive".into()));
        }
        if capacity > Self::MAX_CAPACITY {
            return Err(CotsError::InvalidConfig(format!(
                "capacity {capacity} is more than {}: counters have 32-bit ids",
                Self::MAX_CAPACITY
            )));
        }
        Ok(Self { capacity })
    }

    /// Configure from an error bound ε: `m = ceil(1/ε)`.
    pub fn with_epsilon(epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CotsError::InvalidConfig(format!(
                "epsilon must be in (0, 1), got {epsilon}"
            )));
        }
        Self::with_capacity((1.0 / epsilon).ceil() as usize)
    }

    /// The error bound this budget guarantees: ε = 1/m.
    pub fn epsilon(&self) -> f64 {
        1.0 / self.capacity as f64
    }
}

json_record! {
    /// Configuration of the CoTS framework.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CotsConfig {
        /// Counter budget.
        pub summary: SummaryConfig,
        /// log2 of the number of hash buckets in the search structure. The
        /// paper sizes the table so it never resizes; the default gives a load
        /// factor of at most ~0.5 for the configured capacity.
        pub hash_bits: u32,
        /// Entries per cache-conscious block in a hash chain (a block is sized
        /// to a multiple of the cache line; 4 entries ≈ 64 bytes of key/metadata
        /// per block on x86-64).
        pub block_entries: usize,
        /// Optional adaptive thread scheduling thresholds (§5.2.3). `None`
        /// disables adaptation — the configuration the paper's experiments use.
        pub adaptive: Option<AdaptiveConfig>,
        /// Slots in the per-thread combining front-end that pre-aggregates
        /// `(key, count)` pairs inside `delegate_batch` before they touch the
        /// shared search structure. Must be a power of two; `0` disables the
        /// front-end (every occurrence then pays its own table operation).
        /// Absent in configs serialized before the front-end existed; those
        /// streams ran without one.
        pub combiner_slots: usize = 0,
    }
}

json_record! {
    /// Queue-occupancy thresholds for dynamic auto configuration (§5.2.3).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct AdaptiveConfig {
        /// σ: when a bucket queue grows beyond this while a thread enqueues,
        /// the scheduler parks surplus threads back into the pool.
        pub sigma: usize,
        /// ρ: when an *unowned* bucket queue exceeds this, the scheduler wakes a
        /// pooled thread to drain it.
        pub rho: usize,
    }
}

impl CotsConfig {
    /// Default capacity of the combining front-end: large enough to hold
    /// the hot head of a skewed stream, small enough to stay L1-resident
    /// (128 slots ≈ 3 KiB of scratch for `u64` keys).
    pub const DEFAULT_COMBINER_SLOTS: usize = 128;

    /// A reasonable configuration for the given counter budget: table sized
    /// to the next power of two at least `2 * capacity`, 4-entry blocks,
    /// no adaptation, combining front-end on.
    pub fn for_capacity(capacity: usize) -> Result<Self> {
        let summary = SummaryConfig::with_capacity(capacity)?;
        let hash_bits = (2 * capacity.max(2)).next_power_of_two().trailing_zeros();
        Ok(Self {
            summary,
            hash_bits,
            block_entries: 4,
            adaptive: None,
            combiner_slots: Self::DEFAULT_COMBINER_SLOTS,
        })
    }

    /// Enable adaptive scheduling with the given thresholds.
    pub fn with_adaptive(mut self, sigma: usize, rho: usize) -> Self {
        self.adaptive = Some(AdaptiveConfig { sigma, rho });
        self
    }

    /// Set the combining front-end capacity (rounded up to a power of two;
    /// `0` disables the front-end).
    pub fn with_combiner_slots(mut self, slots: usize) -> Self {
        self.combiner_slots = if slots == 0 {
            0
        } else {
            slots.next_power_of_two()
        };
        self
    }

    /// Disable the combining front-end (ablation / strict paper mode).
    pub fn without_combiner(mut self) -> Self {
        self.combiner_slots = 0;
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.hash_bits == 0 || self.hash_bits > 32 {
            return Err(CotsError::InvalidConfig(format!(
                "hash_bits must be in 1..=32, got {}",
                self.hash_bits
            )));
        }
        if self.block_entries == 0 {
            return Err(CotsError::InvalidConfig(
                "block_entries must be positive".into(),
            ));
        }
        if let Some(a) = self.adaptive {
            if a.rho == 0 || a.sigma == 0 {
                return Err(CotsError::InvalidConfig(
                    "adaptive thresholds must be positive".into(),
                ));
            }
        }
        if self.combiner_slots != 0 && !self.combiner_slots.is_power_of_two() {
            return Err(CotsError::InvalidConfig(format!(
                "combiner_slots must be 0 or a power of two, got {}",
                self.combiner_slots
            )));
        }
        if self.combiner_slots > 1 << 20 {
            return Err(CotsError::InvalidConfig(
                "combiner_slots above 2^20 would thrash the cache it exists to protect".into(),
            ));
        }
        Ok(())
    }

    /// Number of hash buckets.
    pub fn hash_buckets(&self) -> usize {
        1usize << self.hash_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_from_epsilon() {
        let c = SummaryConfig::with_epsilon(0.001).unwrap();
        assert_eq!(c.capacity, 1000);
        assert!((c.epsilon() - 0.001).abs() < 1e-12);
        let c = SummaryConfig::with_epsilon(0.0003).unwrap();
        assert_eq!(c.capacity, 3334);
    }

    #[test]
    fn rejects_bad_epsilon_and_capacity() {
        assert!(SummaryConfig::with_epsilon(0.0).is_err());
        assert!(SummaryConfig::with_epsilon(1.0).is_err());
        assert!(SummaryConfig::with_epsilon(-0.5).is_err());
        assert!(SummaryConfig::with_capacity(0).is_err());
    }

    /// Nothing is allocated: the budget is refused before any summary
    /// would size itself by it.
    #[test]
    fn capacity_is_bounded_by_the_counter_ids() {
        let most = SummaryConfig::MAX_CAPACITY;
        assert_eq!(SummaryConfig::with_capacity(most).unwrap().capacity, most);
        let err = SummaryConfig::with_capacity(most + 1).unwrap_err();
        assert!(err.to_string().contains(&most.to_string()), "{err}");
        assert!(SummaryConfig::with_capacity(usize::MAX).is_err());
        assert!(SummaryConfig::with_capacity(1_000_000_000_000).is_err());
        assert!(SummaryConfig::with_epsilon(1e-12).is_err());
    }

    #[test]
    fn cots_config_sizing() {
        let c = CotsConfig::for_capacity(1000).unwrap();
        assert!(c.hash_buckets() >= 2000);
        assert!(c.hash_buckets().is_power_of_two());
        c.validate().unwrap();
    }

    #[test]
    fn cots_config_validation() {
        let mut c = CotsConfig::for_capacity(10).unwrap();
        c.hash_bits = 0;
        assert!(c.validate().is_err());
        let mut c = CotsConfig::for_capacity(10).unwrap();
        c.block_entries = 0;
        assert!(c.validate().is_err());
        let c = CotsConfig::for_capacity(10).unwrap().with_adaptive(0, 1);
        assert!(c.validate().is_err());
        let c = CotsConfig::for_capacity(10).unwrap().with_adaptive(64, 8);
        assert!(c.validate().is_ok());
        let mut c = CotsConfig::for_capacity(10).unwrap();
        c.combiner_slots = 100; // not a power of two
        assert!(c.validate().is_err());
        c.combiner_slots = 1 << 21; // absurdly large
        assert!(c.validate().is_err());
    }

    #[test]
    fn combiner_defaults_and_builders() {
        let c = CotsConfig::for_capacity(100).unwrap();
        assert_eq!(c.combiner_slots, CotsConfig::DEFAULT_COMBINER_SLOTS);
        let c = c.with_combiner_slots(100); // rounds up to a power of two
        assert_eq!(c.combiner_slots, 128);
        c.validate().unwrap();
        let c = c.without_combiner();
        assert_eq!(c.combiner_slots, 0);
        c.validate().unwrap();
        let c = c.with_combiner_slots(0);
        assert_eq!(c.combiner_slots, 0);
    }

    #[test]
    fn combiner_slots_json_defaults_when_absent() {
        // Configs serialized before the front-end existed parse as "off".
        let legacy =
            r#"{"summary":{"capacity":10},"hash_bits":5,"block_entries":4,"adaptive":null}"#;
        let c: CotsConfig = crate::json::from_str(legacy).unwrap();
        assert_eq!(c.combiner_slots, 0);
    }

    #[test]
    fn json_round_trip() {
        for c in [
            CotsConfig::for_capacity(1000).unwrap(),
            CotsConfig::for_capacity(10).unwrap().with_adaptive(64, 8),
        ] {
            let s = crate::json::to_string(&c);
            let back: CotsConfig = crate::json::from_str(&s).unwrap();
            assert_eq!(c, back);
        }
    }

    #[test]
    fn tiny_capacity_still_valid() {
        let c = CotsConfig::for_capacity(1).unwrap();
        c.validate().unwrap();
        assert!(c.hash_buckets() >= 4);
    }
}
