//! The naive **Independent Structures** design (paper §4.1).
//!
//! Shared-nothing: each thread runs a private sequential Space Saving over
//! its partition of the stream. To answer a query the local structures must
//! be merged; the paper poses a query (hence a merge) every 50 000 elements,
//! and shows that the merge cost grows with the thread count and kills the
//! design (Figures 3(a), 4 and 6).
//!
//! Two merge strategies are implemented:
//!
//! * **Serial** — after a barrier, thread 0 merges every local snapshot.
//! * **Hierarchical** — a binary merge tree: at level `l`, thread `i` (with
//!   `i mod 2^(l+1) == 0`) merges its partial result with that of thread
//!   `i + 2^l`, with a barrier between levels. The paper notes this is not
//!   faster in practice because of the per-level synchronization — which
//!   this implementation reproduces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use cots_core::merge::merge_snapshots;
use cots_core::report::WorkTally;
use cots_core::{
    CotsError, Element, FrequencyCounter, QueryableSummary, Result, RunStats, Snapshot,
    SummaryConfig,
};
use cots_profiling::{Phase, PhaseTimer, PhaseTimes};
use cots_sequential::SpaceSaving;

/// How local summaries are combined at a query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// One thread merges all local snapshots.
    Serial,
    /// Binary merge tree with a barrier per level.
    Hierarchical,
}

/// Configuration and driver for the independent-structures engine.
#[derive(Debug, Clone, Copy)]
pub struct IndependentSpaceSaving {
    /// Counter budget of each local structure (and of the merged result).
    pub config: SummaryConfig,
    /// Merge strategy.
    pub strategy: MergeStrategy,
    /// Global element period between queries/merges (the paper uses
    /// 50 000). `None` merges only once, at the end.
    pub merge_every: Option<u64>,
}

/// Result of an independent-structures run.
#[derive(Debug)]
pub struct IndependentOutcome<K: Element> {
    /// Wall-clock stats and work counters.
    pub stats: RunStats,
    /// The final merged summary.
    pub snapshot: Snapshot<K>,
    /// Per-thread phase times (Counting vs Merge) when profiling was on.
    pub phase_times: Vec<PhaseTimes>,
    /// Number of merge events executed.
    pub merges: u64,
}

impl IndependentSpaceSaving {
    /// Run over `stream` with `threads` workers.
    ///
    /// Each worker counts a contiguous chunk; every `merge_every` global
    /// elements all workers synchronize and merge. Returns the final merged
    /// snapshot and per-thread phase breakdowns.
    pub fn run<K: Element>(
        &self,
        stream: &[K],
        threads: usize,
        profile: bool,
    ) -> Result<IndependentOutcome<K>> {
        if threads == 0 {
            return Err(CotsError::InvalidRun("threads must be positive".into()));
        }
        if stream.is_empty() {
            return Err(CotsError::InvalidRun("stream must be non-empty".into()));
        }
        let tally = WorkTally::new();
        let chunks = chunked(stream, threads);
        let max_chunk = chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        // Per-merge-round batch per thread: merge_every global elements
        // spread over the workers. All threads execute the same number of
        // rounds (computed from the longest chunk) so the barriers line up.
        let batch = self
            .merge_every
            .map(|m| ((m as usize) / threads).max(1))
            .unwrap_or(max_chunk)
            .max(1);
        let rounds = max_chunk.div_ceil(batch).max(1);
        let barrier = Barrier::new(threads);
        // Merge slots: each thread deposits its local snapshot here.
        let slots: Vec<Mutex<Option<Snapshot<K>>>> =
            (0..threads).map(|_| Mutex::new(None)).collect();
        // The merged "global structure" the queries read.
        let global: Mutex<Option<Snapshot<K>>> = Mutex::new(None);
        let merges = AtomicU64::new(0);
        let phase_slots: Vec<Mutex<PhaseTimes>> = (0..threads)
            .map(|_| Mutex::new(PhaseTimes::default()))
            .collect();

        let capacity = self.config.capacity;
        let strategy = self.strategy;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (tid, chunk) in chunks.iter().enumerate() {
                let barrier = &barrier;
                let slots = &slots;
                let global = &global;
                let merges = &merges;
                let tally = &tally;
                let phase_slots = &phase_slots;
                let config = self.config;
                scope.spawn(move || {
                    let mut timer = if profile {
                        PhaseTimer::enabled()
                    } else {
                        PhaseTimer::disabled()
                    };
                    let mut local = SpaceSaving::<K>::new(config);
                    for round in 0..rounds {
                        let lo = (round * batch).min(chunk.len());
                        let hi = ((round + 1) * batch).min(chunk.len());
                        let slice = &chunk[lo..hi];
                        timer.time(Phase::Counting, || {
                            local.process_slice(slice);
                        });
                        tally.elements(slice.len() as u64);
                        tally.summary_ops(slice.len() as u64);
                        tally.boundary_crossings(slice.len() as u64);
                        // Merge round: all threads deposit, then combine.
                        Self::merge_round(
                            strategy, capacity, tid, threads, &local, barrier, slots, global,
                            merges, tally, &mut timer,
                        );
                    }
                    *phase_slots[tid].lock().unwrap() = timer.into_times();
                });
            }
        });
        let elapsed = start.elapsed();

        let snapshot = global
            .into_inner()
            .unwrap()
            .expect("final merge always runs");
        let phase_times: Vec<PhaseTimes> = phase_slots
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        let merges = merges.load(Ordering::Relaxed);
        let stats = RunStats {
            engine: format!(
                "independent-{}",
                match self.strategy {
                    MergeStrategy::Serial => "serial",
                    MergeStrategy::Hierarchical => "hierarchical",
                }
            ),
            threads,
            elements: stream.len() as u64,
            elapsed,
            work: tally.snapshot(),
        };
        Ok(IndependentOutcome {
            stats,
            snapshot,
            phase_times,
            merges,
        })
    }

    /// One synchronized merge round.
    #[allow(clippy::too_many_arguments)]
    fn merge_round<K: Element>(
        strategy: MergeStrategy,
        capacity: usize,
        tid: usize,
        threads: usize,
        local: &SpaceSaving<K>,
        barrier: &Barrier,
        slots: &[Mutex<Option<Snapshot<K>>>],
        global: &Mutex<Option<Snapshot<K>>>,
        merges: &AtomicU64,
        tally: &WorkTally,
        timer: &mut PhaseTimer,
    ) {
        // Export the local snapshot (part of the merge cost).
        timer.time(Phase::Merge, || {
            *slots[tid].lock().unwrap() = Some(local.snapshot());
        });
        barrier.wait();
        match strategy {
            MergeStrategy::Serial => {
                if tid == 0 {
                    timer.time(Phase::Merge, || {
                        let snaps: Vec<Snapshot<K>> = slots
                            .iter()
                            .map(|s| s.lock().unwrap().take().expect("deposited above"))
                            .collect();
                        let counters: u64 = snaps.iter().map(|s| s.len() as u64).sum();
                        let merged = merge_snapshots(&snaps, capacity);
                        tally.merges(1);
                        tally.merged_counters(counters);
                        merges.fetch_add(1, Ordering::Relaxed);
                        *global.lock().unwrap() = Some(merged);
                    });
                }
                barrier.wait();
            }
            MergeStrategy::Hierarchical => {
                // ceil(log2(threads)) levels; a barrier between each, which
                // is exactly the per-level synchronization overhead the
                // paper blames for hierarchical not beating serial.
                let mut stride = 1usize;
                while stride < threads {
                    if tid.is_multiple_of(stride * 2) && tid + stride < threads {
                        timer.time(Phase::Merge, || {
                            let mine = slots[tid].lock().unwrap().take().expect("present");
                            let theirs =
                                slots[tid + stride].lock().unwrap().take().expect("present");
                            tally.merged_counters((mine.len() + theirs.len()) as u64);
                            let merged = merge_snapshots(&[mine, theirs], capacity);
                            *slots[tid].lock().unwrap() = Some(merged);
                        });
                    }
                    barrier.wait();
                    stride *= 2;
                }
                if tid == 0 {
                    timer.time(Phase::Merge, || {
                        let merged = slots[0].lock().unwrap().take().expect("root result");
                        tally.merges(1);
                        merges.fetch_add(1, Ordering::Relaxed);
                        *global.lock().unwrap() = Some(merged);
                    });
                }
                barrier.wait();
            }
        }
    }
}

use cots_datagen::partition::chunked;

#[cfg(test)]
mod tests {
    use super::*;
    use cots_datagen::StreamSpec;
    use std::time::Duration;

    fn engine(
        capacity: usize,
        strategy: MergeStrategy,
        merge_every: Option<u64>,
    ) -> IndependentSpaceSaving {
        IndependentSpaceSaving {
            config: SummaryConfig::with_capacity(capacity).unwrap(),
            strategy,
            merge_every,
        }
    }

    #[test]
    fn single_thread_matches_sequential() {
        let stream = StreamSpec::zipf(20_000, 500, 2.0, 1).generate();
        let out = engine(64, MergeStrategy::Serial, None)
            .run(&stream, 1, false)
            .unwrap();
        let mut seq = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(64).unwrap());
        seq.process_slice(&stream);
        let seq_snap = seq.snapshot();
        assert_eq!(out.snapshot.total(), seq_snap.total());
        // Same top elements (merging a single snapshot is the identity).
        assert_eq!(
            out.snapshot
                .top_k(5)
                .iter()
                .map(|e| e.item)
                .collect::<Vec<_>>(),
            seq_snap.top_k(5).iter().map(|e| e.item).collect::<Vec<_>>()
        );
        assert_eq!(out.merges, 1);
    }

    #[test]
    fn totals_conserved_across_threads() {
        let stream = StreamSpec::zipf(30_000, 1000, 1.5, 3).generate();
        for strategy in [MergeStrategy::Serial, MergeStrategy::Hierarchical] {
            for threads in [1usize, 2, 3, 4, 7] {
                let out = engine(128, strategy, Some(10_000))
                    .run(&stream, threads, false)
                    .unwrap();
                assert_eq!(
                    out.snapshot.total(),
                    stream.len() as u64,
                    "{strategy:?} x{threads}"
                );
                assert!(out.merges >= 3, "periodic merges must fire");
                assert!(out.snapshot.len() <= 128);
            }
        }
    }

    #[test]
    fn serial_and_hierarchical_agree_on_heavy_hitters() {
        let stream = StreamSpec::zipf(40_000, 2000, 2.5, 9).generate();
        let a = engine(256, MergeStrategy::Serial, None)
            .run(&stream, 4, false)
            .unwrap();
        let b = engine(256, MergeStrategy::Hierarchical, None)
            .run(&stream, 4, false)
            .unwrap();
        let top_a: Vec<u64> = a.snapshot.top_k(10).iter().map(|e| e.item).collect();
        let top_b: Vec<u64> = b.snapshot.top_k(10).iter().map(|e| e.item).collect();
        // The heavy head must agree even if tie order differs.
        assert_eq!(top_a[..5], top_b[..5]);
    }

    #[test]
    fn merged_bounds_are_sound() {
        let stream = StreamSpec::zipf(25_000, 400, 2.0, 5).generate();
        let truth = cots_datagen::ExactCounter::from_stream(&stream);
        let out = engine(64, MergeStrategy::Serial, Some(5_000))
            .run(&stream, 4, false)
            .unwrap();
        for e in out.snapshot.entries() {
            let t = truth.count(&e.item);
            assert!(
                e.count >= t,
                "count {} < true {} for {}",
                e.count,
                t,
                e.item
            );
            assert!(
                e.guaranteed() <= t,
                "guarantee {} > true {} for {}",
                e.guaranteed(),
                t,
                e.item
            );
        }
    }

    #[test]
    fn profiling_records_counting_and_merge() {
        let stream = StreamSpec::zipf(20_000, 300, 2.0, 2).generate();
        let out = engine(64, MergeStrategy::Serial, Some(2_000))
            .run(&stream, 2, true)
            .unwrap();
        let mut total = PhaseTimes::default();
        for t in &out.phase_times {
            total.merge(t);
        }
        assert!(total.get(Phase::Counting) > Duration::ZERO);
        assert!(total.get(Phase::Merge) > Duration::ZERO);
    }

    #[test]
    fn merge_cost_grows_with_threads() {
        // The Figure-4 effect, asserted on work counters (hardware
        // independent): more threads -> more merged counters examined.
        let stream = StreamSpec::zipf(30_000, 3000, 2.0, 8).generate();
        let few = engine(256, MergeStrategy::Serial, Some(10_000))
            .run(&stream, 2, false)
            .unwrap();
        let many = engine(256, MergeStrategy::Serial, Some(10_000))
            .run(&stream, 8, false)
            .unwrap();
        assert!(
            many.stats.work.merged_counters > few.stats.work.merged_counters,
            "merge volume should grow with threads: {} vs {}",
            many.stats.work.merged_counters,
            few.stats.work.merged_counters
        );
    }

    #[test]
    fn rejects_bad_runs() {
        let e = engine(8, MergeStrategy::Serial, None);
        assert!(e.run::<u64>(&[], 2, false).is_err());
        assert!(e.run(&[1u64], 0, false).is_err());
    }

    #[test]
    fn more_threads_than_elements() {
        let out = engine(8, MergeStrategy::Hierarchical, Some(10))
            .run(&[1u64, 2, 1], 8, false)
            .unwrap();
        assert_eq!(out.snapshot.total(), 3);
        assert_eq!(out.snapshot.get(&1).unwrap().count, 2);
    }
}
