//! Counting policies — the §5.3 generalization.
//!
//! "The framework is general enough to be able to accommodate other counter
//! based algorithms […] for adaptation into the CoTS framework, only the
//! Overwrite request in Space Saving has to be replaced by a request that
//! removes the minimum frequency bucket at round boundaries, everything
//! else remains unchanged."
//!
//! [`Policy::SpaceSaving`] caps the monitored set at the counter budget and
//! evicts via `Overwrite`; [`Policy::LossyRounds`] admits unconditionally
//! and prunes the minimum bucket at every round boundary.

use cots_core::json_record;

json_record! {
    /// The frequency-counting policy run inside the CoTS framework.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Policy {
        /// Space Saving (§3.3): bounded counters, minimum-element overwrite.
        SpaceSaving,
        /// Lossy Counting (§5.3): rounds of `width` elements; the minimum
        /// bucket is pruned at each round boundary.
        LossyRounds {
            /// Round width `w = ⌈1/ε⌉`.
            width: u64,
        },
    }
}

impl Policy {
    /// Lossy Counting policy from an error bound.
    pub fn lossy_from_epsilon(epsilon: f64) -> cots_core::Result<Self> {
        let cfg = cots_core::SummaryConfig::with_epsilon(epsilon)?;
        Ok(Policy::LossyRounds {
            width: cfg.capacity as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_from_epsilon_widths() {
        assert_eq!(
            Policy::lossy_from_epsilon(0.01).unwrap(),
            Policy::LossyRounds { width: 100 }
        );
        assert!(Policy::lossy_from_epsilon(0.0).is_err());
    }

    #[test]
    fn json_round_trip() {
        for p in [Policy::SpaceSaving, Policy::LossyRounds { width: 7 }] {
            let s = cots_core::json::to_string(&p);
            let back: Policy = cots_core::json::from_str(&s).unwrap();
            assert_eq!(p, back);
        }
    }
}
