//! The federated merge — a pure function over member snapshots. (The
//! answer shape is `crate::protocol::answer`, shared with members.)
//!
//! Federation is `cots_core::merge` applied across members instead of
//! across shards: for any assignment of stream keys to members (clean
//! hash routing, spillover, or anything else), the merged summary keeps
//! the Space-Saving envelope `count ≥ true ≥ count − error` over the
//! union stream, because each key's true count splits across members
//! and the merge sums per-member estimates while `absent_bound`
//! substitution over-approximates the parts a member's summary evicted.
//! `tests/federation_props.rs` property-checks exactly this against
//! exact ground truth under arbitrary partitions.
//!
//! Answers additionally carry the cluster staleness bound: `true ≤
//! count + staleness`, where staleness counts acknowledged-but-not-yet-
//! merged keys (and, degraded, keys lost inside a crashed member's
//! unflushed tail).
//!
//! AUDIT: total — enforced by `cargo xtask audit` (lint-totality).

use cots_core::merge::merge_snapshots;
use cots_core::{CotsError, Result, Snapshot};

/// Merge member snapshots into one federated summary of `capacity`
/// counters. An empty member list federates to an empty summary.
pub fn federate(parts: &[Snapshot<u64>], capacity: usize) -> Result<Snapshot<u64>> {
    if capacity == 0 {
        return Err(CotsError::InvalidConfig(
            "federated capacity must be positive".into(),
        ));
    }
    if parts.is_empty() {
        return Ok(Snapshot::new(Vec::new(), 0));
    }
    Ok(merge_snapshots(parts, capacity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cots_core::CounterEntry;

    fn snap(entries: &[(u64, u64, u64)], total: u64) -> Snapshot<u64> {
        Snapshot::new(
            entries
                .iter()
                .map(|&(item, count, error)| CounterEntry::new(item, count, error))
                .collect(),
            total,
        )
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(federate(&[snap(&[(1, 2, 0)], 2)], 0).is_err());
    }

    #[test]
    fn no_members_federate_to_empty() {
        let s = federate(&[], 8).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn federated_counts_sum_member_estimates() {
        let a = snap(&[(1, 5, 0), (2, 3, 0)], 8);
        let b = snap(&[(1, 4, 1), (3, 2, 0)], 6);
        let merged = federate(&[a, b], 8).unwrap();
        assert_eq!(merged.total(), 14);
        let one = merged.get(&1).unwrap();
        assert_eq!(one.count, 9);
        assert_eq!(one.error, 1);
    }
}
