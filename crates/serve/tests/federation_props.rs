//! Property tests for the federated answer path: under *arbitrary*
//! partitions of an arbitrary stream across 1–5 members, every answer
//! the coordinator-side merge produces must stay inside the summed
//! count ± error envelope against exact ground truth.
//!
//! This exercises the same code the live coordinator runs —
//! `Topology::member_of` for routing, per-member Space-Saving
//! summaries, `federate::federate` for the merge and
//! `cots_serve::protocol::answer` for the query shapes — without
//! sockets, so the property is about the math, not the transport.

use proptest::prelude::*;

use cots_core::{FrequencyCounter, QueryableSummary, Snapshot, SummaryConfig, Threshold};
use cots_datagen::ExactCounter;
use cots_sequential::SpaceSaving;
use cots_serve::cluster::federate;
use cots_serve::cluster::Topology;
use cots_serve::{QueryReq, QueryStamp, Response};

/// Run `stream` through `members` Space-Saving summaries of `capacity`
/// counters each, routed exactly the way the coordinator routes keys.
fn member_snapshots(stream: &[u64], members: usize, capacity: usize) -> Vec<Snapshot<u64>> {
    let addrs: Vec<String> = (0..members).map(|i| format!("m{i}:1")).collect();
    let topology = Topology::new(addrs).unwrap();
    let mut counters: Vec<SpaceSaving<u64>> = (0..members)
        .map(|_| SpaceSaving::new(SummaryConfig::with_capacity(capacity).unwrap()))
        .collect();
    for &key in stream {
        counters[topology.member_of(key)].process(key);
    }
    counters.iter().map(|c| c.snapshot()).collect()
}

fn stamp(captured_total: u64, staleness: u64) -> QueryStamp {
    QueryStamp {
        epoch: 1,
        captured_total,
        staleness,
        rotations: None,
    }
}

/// Streams skewed enough that the small per-member capacity actually
/// evicts: keys drawn from a modest universe with repetition.
fn stream_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..200, 0..2_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The federated envelope: for every key the merged summary tracks,
    /// `count − error ≤ true ≤ count`, and the merged mass equals the
    /// stream length. Holds for any member count and tight capacities.
    #[test]
    fn federated_estimates_bound_exact_truth(
        stream in stream_strategy(),
        members in 1usize..=5,
        capacity in 8usize..=64,
    ) {
        let parts = member_snapshots(&stream, members, capacity);
        let truth = ExactCounter::from_stream(&stream);
        let merged = federate::federate(&parts, capacity * members).unwrap();
        prop_assert_eq!(merged.total(), stream.len() as u64);
        for entry in merged.entries() {
            let exact = truth.count(&entry.item);
            prop_assert!(
                entry.count >= exact,
                "over-estimate violated: key {} count {} < true {}",
                entry.item, entry.count, exact
            );
            prop_assert!(
                entry.count - entry.error <= exact,
                "lower envelope violated: key {} count {} error {} true {}",
                entry.item, entry.count, entry.error, exact
            );
        }
    }

    /// Point answers through the coordinator's answer path stay inside
    /// the same envelope, and the stamp passes through untouched.
    #[test]
    fn point_answers_stay_inside_the_envelope(
        stream in stream_strategy(),
        members in 1usize..=5,
        key in 0u64..200,
    ) {
        let capacity = 32;
        let parts = member_snapshots(&stream, members, capacity);
        let truth = ExactCounter::from_stream(&stream);
        let merged = federate::federate(&parts, capacity * members).unwrap();
        let total = merged.total();
        match cots_serve::protocol::answer(&merged, QueryReq::Point { key }, stamp(total, 7)) {
            Response::Answer { entries, total: t, stamp } => {
                prop_assert_eq!(t, stream.len() as u64);
                prop_assert_eq!(stamp.staleness, 7);
                let exact = truth.count(&key);
                match entries.as_slice() {
                    [] => {
                        // Untracked keys are bounded by the summed
                        // absent bound, which merge folds into errors;
                        // all we require is the summary never tracked
                        // more mass than the stream holds.
                        prop_assert!(exact <= stream.len() as u64);
                    }
                    [entry] => {
                        prop_assert_eq!(entry.item, key);
                        prop_assert!(entry.count >= exact);
                        prop_assert!(entry.count - entry.error <= exact);
                    }
                    more => prop_assert!(false, "point answer returned {} entries", more.len()),
                }
            }
            other => prop_assert!(false, "unexpected response: {:?}", other),
        }
    }

    /// Frequent-item recall: every key whose true frequency clears
    /// `phi * N + summed error headroom` must appear in the federated
    /// frequent answer (no false negatives above the noise floor).
    #[test]
    fn frequent_answers_recall_heavy_hitters(
        stream in proptest::collection::vec(0u64..50, 100..1_500),
        members in 1usize..=4,
    ) {
        let capacity = 48;
        let phi = 0.1_f64;
        let parts = member_snapshots(&stream, members, capacity);
        let truth = ExactCounter::from_stream(&stream);
        let merged = federate::federate(&parts, capacity * members).unwrap();
        let max_error = merged.entries().iter().map(|e| e.error).max().unwrap_or(0);
        let reported: Vec<u64> = match cots_serve::protocol::answer(
            &merged,
            QueryReq::Frequent { phi },
            stamp(merged.total(), 0),
        ) {
            Response::Answer { entries, .. } => entries.iter().map(|e| e.item).collect(),
            other => panic!("unexpected: {other:?}"),
        };
        let n = stream.len() as u64;
        let bar = (phi * n as f64).floor() as u64 + max_error;
        for (item, exact) in truth.frequent(Threshold::Count(0)) {
            if exact > bar {
                prop_assert!(
                    reported.contains(&item),
                    "heavy hitter {} (true {}) missing above bar {}",
                    item, exact, bar
                );
            }
        }
    }
}
