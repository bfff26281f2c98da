//! End-to-end accuracy of every engine against exact ground truth on the
//! paper's zipfian workloads: ε-recall of the frequent set, precision of
//! the guaranteed set, and top-k quality.

use std::sync::Arc;

use cots::{CotsEngine, Policy, RuntimeOptions};
use cots_core::{CotsConfig, FrequencyCounter, QueryableSummary, SummaryConfig, Threshold};
use cots_datagen::{AccuracyReport, ExactCounter, StreamSpec};
use cots_sequential::{LossyCounting, SpaceSaving};

const N: usize = 80_000;
const ALPHABET: usize = 8_000;
const CAPACITY: usize = 256; // ε = 1/256

fn workload(alpha: f64) -> (Vec<u64>, ExactCounter<u64>) {
    let stream = StreamSpec::zipf(N, ALPHABET, alpha, 21).generate();
    let truth = ExactCounter::from_stream(&stream);
    (stream, truth)
}

/// Threshold strictly above εN so recall must be 1 for ε-deficient
/// algorithms.
fn eps_threshold() -> Threshold {
    Threshold::Count((N / CAPACITY + 1) as u64)
}

#[test]
fn space_saving_epsilon_recall_is_one() {
    for alpha in [1.5, 2.0, 3.0] {
        let (stream, truth) = workload(alpha);
        let mut e = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap());
        e.process_slice(&stream);
        let rep = AccuracyReport::for_frequent(&e.snapshot(), &truth, eps_threshold());
        assert_eq!(rep.recall, 1.0, "alpha {alpha}: {rep:?}");
        // Guaranteed-frequent answers must be truly frequent (precision 1
        // by construction of the lower bound).
        let min = eps_threshold().resolve(N as u64);
        for g in e.snapshot().guaranteed_frequent(eps_threshold()) {
            assert!(truth.count(&g.item) >= g.guaranteed());
            assert!(g.guaranteed() >= min);
        }
    }
}

#[test]
fn lossy_counting_epsilon_recall_is_one() {
    for alpha in [1.5, 2.5] {
        let (stream, truth) = workload(alpha);
        let mut e = LossyCounting::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap());
        e.process_slice(&stream);
        let rep = AccuracyReport::for_frequent(&e.snapshot(), &truth, eps_threshold());
        assert_eq!(rep.recall, 1.0, "alpha {alpha}: {rep:?}");
    }
}

#[test]
fn cots_epsilon_recall_is_one_at_any_concurrency() {
    for alpha in [1.5, 2.0, 3.0] {
        let (stream, truth) = workload(alpha);
        for threads in [1usize, 4, 32] {
            let e = Arc::new(
                CotsEngine::<u64>::new(CotsConfig::for_capacity(CAPACITY).unwrap()).unwrap(),
            );
            cots::run(
                &e,
                &stream,
                RuntimeOptions {
                    threads,
                    batch: 512,
                    adaptive: false,
                },
            )
            .unwrap();
            let rep = AccuracyReport::for_frequent(&e.snapshot(), &truth, eps_threshold());
            assert_eq!(rep.recall, 1.0, "alpha {alpha} x{threads}: {rep:?}");
            // Top-k of the head must be perfect for skewed data.
            let rep = AccuracyReport::for_top_k(&e.snapshot(), &truth, 5);
            assert_eq!(rep.recall, 1.0, "alpha {alpha} x{threads} top-5: {rep:?}");
        }
    }
}

#[test]
fn cots_lossy_policy_tracks_heavy_hitters_concurrently() {
    let (stream, truth) = workload(2.0);
    let e = Arc::new(
        CotsEngine::<u64>::with_policy(
            CotsConfig::for_capacity(4096).unwrap(),
            Policy::LossyRounds {
                width: CAPACITY as u64,
            },
        )
        .unwrap(),
    );
    cots::run(
        &e,
        &stream,
        RuntimeOptions {
            threads: 4,
            batch: 512,
            adaptive: false,
        },
    )
    .unwrap();
    let rep = AccuracyReport::for_frequent(&e.snapshot(), &truth, eps_threshold());
    assert_eq!(rep.recall, 1.0, "{rep:?}");
}

#[test]
fn estimates_are_within_min_count_error() {
    // Beyond recall: every monitored estimate deviates from the truth by
    // at most the eviction floor (min monitored count).
    let (stream, truth) = workload(2.0);
    let mut e = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap());
    e.process_slice(&stream);
    let min = e.min_count();
    for entry in e.snapshot().entries() {
        let t = truth.count(&entry.item);
        assert!(
            entry.count - t <= min,
            "overestimate {} > floor {min}",
            entry.count - t
        );
    }
}
