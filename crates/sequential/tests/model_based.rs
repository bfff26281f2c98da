//! Model-based property tests: the arena-backed `StreamSummary` is checked
//! operation-by-operation against a trivially correct reference model, and
//! the algorithms are cross-checked against each other on identical
//! streams.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use cots_core::{FrequencyCounter, QueryableSummary, SummaryConfig};
use cots_datagen::ExactCounter;
use cots_sequential::{LossyCounting, NodeId, SpaceSaving, StreamSummary};

/// Reference model: a multiset of (handle, item, count, error).
#[derive(Default)]
struct Model {
    entries: HashMap<usize, (u64, u64, u64)>, // handle -> (item, count, error)
    next: usize,
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    IncrementAny(u64),
    OverwriteMin(u64, u64),
    RemoveAny,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..50, 1u64..5).prop_map(|(item, c)| Op::Insert(item, c)),
        // Weights up to 50 make `increment` walk past several buckets,
        // as a weighted run does.
        (1u64..51).prop_map(Op::IncrementAny),
        (100u64..200, 1u64..51).prop_map(|(item, w)| Op::OverwriteMin(item, w)),
        Just(Op::RemoveAny),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive StreamSummary and the model through the same operations and
    /// compare the full sorted contents after every step.
    #[test]
    fn stream_summary_matches_model(ops in vec(op_strategy(), 1..300)) {
        let mut summary: StreamSummary<u64> = StreamSummary::new();
        let mut model = Model::default();
        let mut handles: Vec<(usize, NodeId)> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(item, count) => {
                    let id = summary.insert(item, count, 0);
                    model.entries.insert(model.next, (item, count, 0));
                    handles.push((model.next, id));
                    model.next += 1;
                }
                Op::IncrementAny(by) => {
                    if let Some(&(h, id)) = handles.last() {
                        summary.increment(id, by);
                        model.entries.get_mut(&h).unwrap().1 += by;
                    }
                }
                Op::OverwriteMin(new_item, weight) => {
                    if summary.is_empty() {
                        continue;
                    }
                    // Identify the victim by NodeId (handles map 1:1 to
                    // live nodes), so entries with identical value triples
                    // cannot be confused.
                    let (victim_id, _) = summary.min().unwrap();
                    let (evicted, _evicted_count, id) = summary.overwrite_min(new_item, weight);
                    debug_assert_eq!(victim_id, id, "overwrite reuses the victim node");
                    let &(h, _) = handles
                        .iter()
                        .find(|&&(_, hid)| hid == victim_id)
                        .expect("victim has a live handle");
                    let e = model.entries.get_mut(&h).unwrap();
                    prop_assert_eq!(e.0, evicted, "model and summary agree on the victim");
                    e.0 = new_item;
                    e.2 = e.1; // error = old count
                    e.1 += weight;
                }
                Op::RemoveAny => {
                    if let Some((h, id)) = handles.pop() {
                        let item = summary.remove(id);
                        let (mitem, _, _) = model.entries.remove(&h).unwrap();
                        prop_assert_eq!(item, mitem);
                    }
                }
            }
            summary.check_invariants();
            // Compare multisets of (count, error) and per-item count sums.
            let mut got: Vec<(u64, u64, u64)> =
                summary.iter_desc().map(|(i, c, e)| (c, e, i)).collect();
            let mut want: Vec<(u64, u64, u64)> =
                model.entries.values().map(|&(i, c, e)| (c, e, i)).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
            prop_assert_eq!(
                summary.min_count(),
                model.entries.values().map(|&(_, c, _)| c).min().unwrap_or(0)
            );
            prop_assert_eq!(
                summary.max_count(),
                model.entries.values().map(|&(_, c, _)| c).max().unwrap_or(0)
            );
        }
    }

    /// Every key Space Saving does not monitor has an exact count of at
    /// most `min_count()`, after every update: the bound that makes an
    /// absent key's answer sound. Runs arrive either one element at a time
    /// or whole through `process_weighted` (the served update).
    #[test]
    fn unmonitored_keys_stay_below_the_minimum(
        runs in vec((0u64..48, 1u64..16), 1..600),
        capacity in 1usize..24,
        weighted in any::<bool>(),
    ) {
        let mut ss = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(capacity).unwrap());
        let mut truth = ExactCounter::<u64>::new();
        for (key, weight) in runs {
            if weighted {
                ss.process_weighted(key, weight);
            } else {
                (0..weight).for_each(|_| ss.process(key));
            }
            (0..weight).for_each(|_| truth.process(key));
            let snap = ss.snapshot();
            for absent in (0..48).filter(|k| snap.get(k).is_none()) {
                prop_assert!(
                    truth.count(&absent) <= ss.min_count(),
                    "key {} counted {} but unmonitored above the minimum {}",
                    absent,
                    truth.count(&absent),
                    ss.min_count()
                );
            }
        }
    }

    /// Both counter algorithms keep sound bounds on the same stream.
    #[test]
    fn counter_algorithms_bounds_agree(
        stream in vec(0u64..64, 10..1_200),
        capacity in 4usize..32,
    ) {
        let truth = ExactCounter::from_stream(&stream);
        let cfg = SummaryConfig::with_capacity(capacity).unwrap();
        let mut ss = SpaceSaving::<u64>::new(cfg);
        let mut lc = LossyCounting::<u64>::new(cfg);
        for &e in &stream {
            ss.process(e);
            lc.process(e);
        }
        for snap in [ss.snapshot(), lc.snapshot()] {
            for entry in snap.entries() {
                let t = truth.count(&entry.item);
                prop_assert!(entry.count >= t);
                prop_assert!(entry.guaranteed() <= t);
            }
        }
    }
}

#[test]
fn summary_handles_extreme_counts() {
    let mut s: StreamSummary<u64> = StreamSummary::new();
    let a = s.insert(1, u64::MAX - 10, 0);
    s.increment(a, 9);
    assert_eq!(s.count(a), u64::MAX - 1);
    s.check_invariants();
}

#[test]
fn summary_many_equal_counts() {
    // One giant bucket: all elements share a frequency.
    let mut s: StreamSummary<u64> = StreamSummary::new();
    let ids: Vec<NodeId> = (0..500u64).map(|i| s.insert(i, 7, 0)).collect();
    s.check_invariants();
    assert_eq!(s.min_count(), 7);
    assert_eq!(s.max_count(), 7);
    // Remove every other one.
    for id in ids.iter().step_by(2) {
        s.remove(*id);
    }
    s.check_invariants();
    assert_eq!(s.len(), 250);
}
